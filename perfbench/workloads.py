"""The benchmark's workloads: set-up, one closed-loop unit, output checks.

Each workload drives sitsformer only through its public API and its CLI, and
looks every function up on the module at call time, so the traced run sees
the calls through the wrappers it swaps in.
"""

import contextlib
import io
import math
import os

import numpy as np

import sitsformer as sf
import sitsformer.cli
import sitsformer.data

# The README quick start: its dataset and its run.cfg, with the epoch count
# cut from 30 to 4 so that several trainings fit in one run. warmup_epochs
# stays 3, which the schedule allows because it is below the epoch count.
DEMO_EPOCHS = 4
DEMO_GENERATE = ["--n-samples", "200", "--n-classes", "4", "--grid", "8,8",
                 "--t-range", "12,12"]
DEMO_CFG = """\
n_classes=4
dim=32
depth_temporal=2
depth_spatial=2
n_heads=4
mlp_ratio=2
patch=1,2,2
input_shape=12,8,8,3
task=segmentation
epochs={epochs}
batch_size=16
warmup_epochs=3
peak_lr=0.003
seed={seed}
data_dir={data_dir}
out_dir={out_dir}
"""

# The reference setup: ModelConfig() on 52x24x24x13 samples with 17 classes.
REF_GRID = (24, 24)
REF_T = 52
REF_CHANNELS = 13
REF_CLASSES = 17

# A float32 forward must match a float64 forward with the same weights to
# this absolute tolerance on every logit. The observed gap is about 6e-8 on
# logits of magnitude 0.1, so this leaves a margin of ~150x for reordered
# float32 arithmetic while still failing a change of the model's function.
F64_ATOL = 1e-5


class Tally:
    """Operations attempted and failed: steps, samples and output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, label, ok):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(label)


def _no_span(name):
    return contextlib.nullcontext()


class Workload:
    """One workload on its own work directory.

    ``setup`` may run several times; ``unit`` runs one closed-loop operation
    and returns (samples per second, operations attempted); ``check`` verifies
    the outputs after the timed region.
    """

    name = ""
    setup_reps = 3  # setup_s is the median of this many fresh-process set-ups
    min_units = 3  # a timed phase runs at least this many, for a median

    def __init__(self, work_dir, seed, tally):
        self.work_dir = work_dir
        self.seed = seed
        self.tally = tally
        self.span = _no_span

    def path(self, *parts):
        return os.path.join(self.work_dir, *parts)


class TrainDemo(Workload):
    name = "train_demo"
    setup_reps = 5  # each takes ~0.7 s, mostly imports and small-file I/O

    def _cli(self, *argv):
        with self.span(f"cli.{argv[0]}"), \
                contextlib.redirect_stdout(io.StringIO()):
            rc = sitsformer.cli.main(list(argv))
        if rc != 0:
            raise RuntimeError(f"sitsformer {argv[0]} exited with {rc}")

    def setup(self):
        data_dir = self.path("data")
        self.cfg_path = self.path("run.cfg")
        self._cli("generate", "--out", data_dir, *DEMO_GENERATE,
                  "--seed", str(self.seed))
        with open(self.cfg_path, "w", encoding="utf-8") as f:
            f.write(DEMO_CFG.format(epochs=DEMO_EPOCHS, seed=self.seed,
                                    data_dir=data_dir, out_dir=self.path("run")))
        run = sitsformer.cli.parse_run_config(self.cfg_path)
        manifest = sf.read_manifest(data_dir)
        train = sf.load_split(data_dir, manifest, "train")
        self.n_train = len(train)
        self.n_val = len(manifest.paths_for("val"))
        self.steps = DEMO_EPOCHS * math.ceil(self.n_train / run.train.batch_size)
        keys = np.unique(np.concatenate([r.dates for r in train]))
        model = sf.SitsFormer(run.model, temporal_keys=keys, seed=self.seed)
        sf.evaluate(model, train[:1])

    def unit(self, clock):
        start = clock()
        self._cli("train", "--config", self.cfg_path)
        elapsed = clock() - start
        self._cli("eval", "--config", self.cfg_path, "--split", "val")
        return DEMO_EPOCHS * self.n_train / elapsed, self.steps + self.n_val

    def check(self):
        check = self.tally.check
        with open(self.path("run", "metrics.csv"), encoding="utf-8") as f:
            rows = [line.split(",") for line in f.read().splitlines()]
        losses = [float(row[3]) for row in rows]
        check("metrics.csv has one line per epoch", len(rows) == DEMO_EPOCHS)
        check("epoch losses are finite", all(map(math.isfinite, losses)))
        check("last epoch loss is below the first", losses[-1] < losses[0])
        run = sitsformer.cli.parse_run_config(self.cfg_path)
        model = sf.load_checkpoint(self.path("run", "best.ckpt"))
        check("best.ckpt reloads with the run's config", model.config == run.model)
        with open(self.path("run", "metrics_val.txt"), encoding="utf-8") as f:
            scores = dict(line.split("=") for line in f.read().split())
        check("val mIoU lies in [0, 1]", 0.0 <= float(scores["mIoU"]) <= 1.0)


def _reference_pool(workload, n):
    """Generate n reference samples, write them, and read them back."""
    specs = sitsformer.data.default_class_specs(REF_CLASSES, REF_CHANNELS)
    paths = []
    for i in range(n):
        record = sf.generate_sample(i, workload.seed, specs, grid=REF_GRID,
                                    t_range=(REF_T, REF_T))
        paths.append(workload.path(f"sample_{i}.sits"))
        sf.write_sample(paths[-1], record)
    return [sf.read_sample(p) for p in paths]


def _reference_model(workload, pool):
    """Build the reference model, then save and reload it as eval does."""
    keys = np.unique(np.concatenate([r.dates for r in pool]))
    model = sf.SitsFormer(sf.ModelConfig(), temporal_keys=keys, seed=workload.seed)
    path = workload.path("model.ckpt")
    sf.save_checkpoint(path, model)
    return sf.load_checkpoint(path)


def _labeled_pixels(record, n_classes):
    return int(np.count_nonzero(record.labels != n_classes))


class InferRef(Workload):
    name = "infer_ref"
    pool_size = 4

    def setup(self):
        self.pool = _reference_pool(self, self.pool_size)
        self.model = _reference_model(self, self.pool)
        sf.evaluate(self.model, self.pool[:1])
        self.next = 0

    def unit(self, clock):
        record = self.pool[self.next % len(self.pool)]
        self.next += 1
        start = clock()
        *_, cm = sf.evaluate(self.model, [record])
        elapsed = clock() - start
        self.tally.check("evaluate counted every labeled pixel",
                         cm.total() == _labeled_pixels(record, REF_CLASSES))
        return 1.0 / elapsed, 1

    def check(self):
        check = self.tally.check
        record = self.pool[0]
        with sf.no_grad():
            logits = sf.forward(sf.SitsSeries(record.values, record.dates),
                                self.model).data
        check("logits have shape (24, 24, 17)",
              logits.shape == REF_GRID + (REF_CLASSES,))
        check("logits are finite", bool(np.all(np.isfinite(logits))))
        model64 = sf.SitsFormer(self.model.config,
                                temporal_keys=self.model.temporal_pe.keys,
                                dtype=np.float64)
        for (_, p32), (_, p64) in zip(self.model.named_parameters(),
                                      model64.named_parameters()):
            p64.data[...] = p32.data
        with sf.no_grad():
            logits64 = sf.forward(
                sf.SitsSeries(record.values.astype(np.float64), record.dates),
                model64).data
        gap = float(np.max(np.abs(logits - logits64)))
        check(f"float32 logits within {F64_ATOL} of float64 (gap {gap:.3g})",
              gap <= F64_ATOL)


class StepRef(Workload):
    name = "step_ref"
    batch_size = 2
    min_units = 5  # the first step pays for faulting in the tape's memory

    def setup(self):
        self.pool = _reference_pool(self, self.batch_size)
        self.model = _reference_model(self, self.pool)
        sf.evaluate(self.model, self.pool[:1])
        self.train_cfg = sf.TrainConfig(epochs=1, batch_size=self.batch_size,
                                        warmup_epochs=0, seed=self.seed)
        self.log_path = self.path("metrics.csv")
        if os.path.exists(self.log_path):
            os.remove(self.log_path)
        self.steps = 0

    def unit(self, clock):
        start = clock()
        sf.train_loop(self.model, self.pool, self.train_cfg, self.log_path,
                      self.path("best.ckpt"), state_path=self.path("train.state"))
        elapsed = clock() - start
        self.steps += 1
        grads = [p.grad for p in self.model.parameters()]
        self.tally.check("every parameter gradient is finite",
                         all(g is not None and np.all(np.isfinite(g))
                             for g in grads))
        return self.batch_size / elapsed, 1

    def check(self):
        check = self.tally.check
        with open(self.log_path, encoding="utf-8") as f:
            losses = [float(line.split(",")[3]) for line in f.read().splitlines()]
        check("one log line per epoch", len(losses) == self.steps)
        check("losses are finite", all(map(math.isfinite, losses)))
        fresh = sf.SitsFormer(self.model.config,
                              temporal_keys=self.model.temporal_pe.keys)
        opt = sf.AdamWState(fresh.parameters())
        epoch, _, _ = sf.training.load_training_state(
            self.path("train.state"), fresh, opt)
        check("train.state reloads at epoch 1", epoch == 1)
        check("train.state holds the trained weights",
              all(np.array_equal(a.data, b.data) for a, b in
                  zip(fresh.parameters(), self.model.parameters())))


WORKLOADS = {w.name: w for w in (TrainDemo, InferRef, StepRef)}
