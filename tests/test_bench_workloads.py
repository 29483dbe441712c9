"""Every benchmark workload runs clean: set-up, one unit, output checks.

perfbench/run.py exits 1 when any output check fails, so a broken check ends
a benchmark run just as a crash does. Each workload runs here once, the way
run.py drives it, on a fresh directory and at the benchmark's seed.
``train_demo`` also runs at seed 9, where a 4-epoch training used to diverge
and fail the check that the last epoch's loss is below the first.
"""

import os
import sys
import time

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "perfbench")
if BENCH not in sys.path:
    sys.path.insert(0, BENCH)

import workloads  # noqa: E402


CASES = [pytest.param(name, 1, id=name) for name in workloads.WORKLOADS]
CASES.append(pytest.param("train_demo", 9, id="train_demo-seed9"))


@pytest.mark.parametrize("name, seed", CASES)
def test_workload_passes_its_checks(tmp_path, name, seed):
    tally = workloads.Tally()
    workload = workloads.WORKLOADS[name](str(tmp_path), seed, tally)
    workload.setup()
    rate, attempted = workload.unit(time.perf_counter)
    tally.attempted += attempted
    workload.check()
    assert rate > 0
    assert tally.failed == 0, tally.problems
