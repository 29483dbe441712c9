"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload train_demo --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the benchmark imports sitsformer from
``src/`` and exits with status 2 if it is not there. ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` prints the per-layer metrics of a traced
run. See perfbench/README.md for the metrics and workloads.
"""

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("train_demo", "infer_ref", "step_ref")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads():
    """Keep BLAS threads at or below the CPUs this process may use.

    Must run before numpy is imported; returns the cap.
    """
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= nproc:
            os.environ[var] = str(nproc)
    return nproc


def _read(path):
    try:
        with open(path, encoding="ascii") as f:
            return f.read().strip()
    except OSError:
        return None


def machine_state(nproc):
    """What a result depends on besides the code: CPUs, memory, libraries."""
    import numpy as np
    import scipy

    meminfo = _read("/proc/meminfo").splitlines()
    mem_kb = int(next(line for line in meminfo if line.startswith("MemTotal")).split()[1])
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc,
        "mem_total_mb": round(mem_kb / 1024),
        "blas_threads": blas_threads(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "numpy_madvise_hugepage": os.environ.get("NUMPY_MADVISE_HUGEPAGE"),
        "thp": _read("/sys/kernel/mm/transparent_hugepage/enabled"),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "cpu": platform.machine(),
    }


def blas_threads():
    """Threads each loaded OpenBLAS reports, by library file name."""
    import ctypes

    with open("/proc/self/maps", encoding="ascii", errors="replace") as f:
        libs = {line.split()[-1] for line in f
                if "openblas" in line.lower() and ".so" in line}
    out = {}
    for lib in sorted(libs):
        dll = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(lib)] = fn()
                break
    return out


def median(values):
    """Median, or 0.0 when a failed phase produced no values."""
    return statistics.median(values) if values else 0.0


def peak_rss_mb():
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def cold_setups(workload, seed, work_dir, tally):
    """Seconds of the workload's set-up, each in a fresh process.

    A fresh process pays what a user's first run pays: importing numpy and
    sitsformer, and a first forward pass that is slower than later ones. A
    set-up that fails counts as failed and gives no value.
    """
    times = []
    for i in range(workload.setup_reps):
        child_dir = os.path.join(work_dir, f"setup{i}")
        os.makedirs(child_dir)
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             workload.name, "--seed", str(seed), "--seconds", "0",
             "--setup-only", child_dir],
            capture_output=True, text=True, timeout=120)
        shutil.rmtree(child_dir, ignore_errors=True)
        tally.check(f"{workload.name} set-up {i} exited {proc.returncode}",
                    proc.returncode == 0)
        if proc.returncode == 0:
            times.append(float(proc.stdout.split()[-1]))
        else:
            print(proc.stderr, file=sys.stderr)
    return times


def setup_only(name, seed, work_dir):
    """Import the workload, set it up once, and print the seconds it took."""
    start = time.perf_counter()
    import workloads

    workloads.WORKLOADS[name](work_dir, seed, workloads.Tally()).setup()
    print(time.perf_counter() - start)
    return 0


def run_phase(workload, seconds):
    """Set up once, then run units until ``seconds`` have passed.

    Returns (samples per second per unit, phase seconds including set-up).
    A unit that raises ends the loop and counts as failed.
    """
    tally = workload.tally
    phase_start = time.perf_counter()
    workload.setup()
    rates = []
    start = time.perf_counter()
    while (len(rates) < workload.min_units
           or time.perf_counter() - start < seconds):
        try:
            rate, attempted = workload.unit(time.perf_counter)
        except Exception as e:  # a failed operation is counted, not fatal
            traceback.print_exc()
            tally.attempted += 1
            tally.check(f"{workload.name} unit raised {e!r}", False)
            break
        tally.attempted += attempted
        rates.append(rate)
    return rates, time.perf_counter() - phase_start


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="WORK_DIR",
                        help="set up once in WORK_DIR and print the seconds")
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "sitsformer", "__init__.py")):
        print(f"error: no sitsformer sources in {src}", file=sys.stderr)
        return 2
    nproc = cap_blas_threads()
    sys.path.insert(0, src)
    if args.setup_only:
        return setup_only(args.workload, args.seed, args.setup_only)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    import layers
    import workloads
    from tracer import Tracer

    work_dir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    tally = workloads.Tally()
    workload = workloads.WORKLOADS[args.workload](work_dir, args.seed, tally)
    try:
        if not args.trace:
            setups = cold_setups(workload, args.seed, work_dir, tally)
        rates, _ = run_phase(workload, args.seconds)
        if args.trace:
            tracer = Tracer()
            workload.span = tracer.span
            with tracer.installed(layers.targets()):
                traced_rates, traced_s = run_phase(workload, args.seconds)
            metrics = layers.per_layer_metrics(tracer.spans, tracer.marks, traced_s)
            metrics["trace.overhead_pct"] = 100.0 * (
                median(rates) / median(traced_rates) - 1.0
            ) if rates and traced_rates else 0.0
            out_dir = os.path.join(ROOT, ".bench_out")
            os.makedirs(out_dir, exist_ok=True)
            tracer.write(os.path.join(
                out_dir, f"{args.workload}-seed{args.seed}-spans.csv"))
        else:
            metrics = {
                "samples_per_s": median(rates),
                "setup_s": median(setups),
                "peak_rss_mb": peak_rss_mb(),
            }
        values = {name: metrics[name] for name in units}
        workload.check()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(work_dir))

    for problem in tally.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "unit_rates": [round(r, 6) for r in rates]}
    if args.trace:
        info["traced_unit_rates"] = [round(r, 6) for r in traced_rates]
    else:
        info["setup_times"] = [round(t, 6) for t in setups]
    info["machine"] = machine_state(nproc)
    print(json.dumps(info))
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
