"""Tests for losses, optimizer, schedule, metrics, and the loops."""

import dataclasses
import math

import numpy as np
import pytest

from sitsformer import training as tr
from sitsformer.errors import (
    ConfigError,
    DataError,
    MetricError,
    ShapeError,
    TrainingDiverged,
)
from sitsformer.metrics import ConfusionMatrix, metrics
from sitsformer.model import ModelConfig, SitsFormer, load_checkpoint
from sitsformer.tensor import Tensor, active_tape, backward

from _gradcheck import check_gradients


class TestMaskedCrossEntropy:
    def test_single_pixel_even_logits(self):
        logits = Tensor(np.zeros((1, 1, 2), dtype=np.float32))
        loss = tr.masked_cross_entropy(logits, [[0]], ignore_label=2)
        assert abs(loss.item() - math.log(2.0)) < 1e-6

    def test_uniform_logits_four_classes(self):
        logits = Tensor(np.ones((3, 3, 4), dtype=np.float32) * 0.7)
        labels = np.zeros((3, 3), dtype=np.int64)
        loss = tr.masked_cross_entropy(logits, labels, ignore_label=4)
        assert abs(loss.item() - math.log(4.0)) < 1e-6

    def test_all_ignored_is_zero_with_zero_grads(self):
        logits = Tensor(
            np.random.default_rng(0).standard_normal((2, 2, 3)).astype(np.float32),
            requires_grad=True,
        )
        labels = np.full((2, 2), 3)
        loss = tr.masked_cross_entropy(logits, labels, ignore_label=3)
        assert loss.item() == 0.0
        backward(loss)
        np.testing.assert_array_equal(logits.grad, np.zeros((2, 2, 3)))

    def test_ignored_pixels_have_exactly_zero_gradient(self):
        rng = np.random.default_rng(1)
        logits = Tensor(rng.standard_normal((2, 2, 3)).astype(np.float32),
                        requires_grad=True)
        labels = np.array([[0, 3], [1, 3]])
        loss = tr.masked_cross_entropy(logits, labels, ignore_label=3)
        backward(loss)
        np.testing.assert_array_equal(logits.grad[0, 1], np.zeros(3))
        np.testing.assert_array_equal(logits.grad[1, 1], np.zeros(3))
        assert np.any(logits.grad[0, 0] != 0)

    def test_gradcheck(self):
        rng = np.random.default_rng(2)
        logits = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True,
                        dtype=np.float64)
        labels = np.array([[0, 4, 2], [1, 3, 4]])

        def loss(_):
            return tr.masked_cross_entropy(logits, labels, ignore_label=4)

        assert check_gradients(loss, [logits]) < 1e-3


class TestFocalLoss:
    def test_hand_value(self):
        logits = Tensor(np.zeros(2, dtype=np.float32))
        loss = tr.focal_loss(logits, 0, gamma=2.0)
        assert abs(loss.item() - 0.25 * math.log(2.0)) < 1e-6

    def test_gamma_zero_equals_cross_entropy(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            logits_np = rng.standard_normal(5)
            label = int(rng.integers(5))
            loss = tr.focal_loss(Tensor(logits_np, dtype=np.float64), label,
                                 gamma=0.0)
            shifted = logits_np - logits_np.max()
            ce = -(shifted[label] - math.log(np.exp(shifted).sum()))
            assert abs(loss.item() - ce) < 1e-7

    def test_confident_prediction_vanishes(self):
        logits = Tensor(np.array([20.0, -20.0], dtype=np.float32))
        assert tr.focal_loss(logits, 0, gamma=2.0).item() < 1e-8

    def test_gradcheck(self):
        rng = np.random.default_rng(4)
        logits = Tensor(rng.standard_normal(4), requires_grad=True,
                        dtype=np.float64)

        def loss(_):
            return tr.focal_loss(logits, 2, gamma=2.0)

        assert check_gradients(loss, [logits]) < 1e-3


class TestAdamW:
    def test_pure_decay(self):
        p = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        p.grad = np.zeros(3, dtype=np.float32)
        state = tr.AdamWState([p])
        tr.adamw_step([p], state, lr=0.1, weight_decay=0.01)
        np.testing.assert_allclose(p.data, 0.999, rtol=1e-6)

    def test_no_decay_matches_reference_adam(self):
        theta = Tensor(np.array([0.5]), requires_grad=True, dtype=np.float64)
        state = tr.AdamWState([theta])
        grads = [0.3, -0.1, 0.25, 0.4, -0.05]
        for g in grads:
            theta.grad = np.array([g])
            tr.adamw_step([theta], state, lr=0.01, weight_decay=0.0)

        ref, m, v = 0.5, 0.0, 0.0
        for t, g in enumerate(grads, 1):
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            ref -= 0.01 * (m / (1 - 0.9 ** t)) / (
                math.sqrt(v / (1 - 0.999 ** t)) + 1e-8
            )
        assert abs(float(theta.data[0]) - ref) < 1e-7

    def test_ten_steps_are_bitwise_deterministic(self):
        def run():
            rng = np.random.default_rng(5)
            p = Tensor(rng.standard_normal(4).astype(np.float32),
                       requires_grad=True)
            state = tr.AdamWState([p])
            for _ in range(10):
                p.grad = rng.standard_normal(4).astype(np.float32)
                tr.adamw_step([p], state, lr=0.01, weight_decay=0.01)
            return p.data

        np.testing.assert_array_equal(run(), run())

    def test_gradient_above_the_limit_is_scaled_to_it(self):
        # Adam is blind to one scale for every step, so a second step whose
        # gradient is within the limit is what shows the first was clipped.
        def run(steps, clip):
            rng = np.random.default_rng(9)
            params = [Tensor(rng.standard_normal(n), requires_grad=True,
                             dtype=np.float64) for n in (3, 4)]
            state = tr.AdamWState(params)
            for grads in steps:
                for p, g in zip(params, grads):
                    p.grad = g.copy()
                if clip:
                    tr.clip_grad_norm(params)
                tr.adamw_step(params, state, lr=0.01, weight_decay=0.01)
            return np.concatenate([p.data for p in params])

        def scaled(norm, seed):
            rng = np.random.default_rng(seed)
            grads = [rng.standard_normal(3), rng.standard_normal(4)]
            now = math.sqrt(sum(float((g * g).sum()) for g in grads))
            return [g * (norm / now) for g in grads]

        long, unit, short = (scaled(5.0, 10), scaled(tr.GRAD_CLIP_NORM, 10),
                             scaled(0.5, 11))
        np.testing.assert_allclose(run([long, short], clip=True),
                                   run([unit, short], clip=False), rtol=1e-12)
        assert not np.allclose(run([long, short], clip=False),
                               run([unit, short], clip=False), rtol=1e-4)

    def test_gradient_within_the_limit_is_untouched(self):
        p = Tensor(np.zeros(2), requires_grad=True, dtype=np.float64)
        p.grad = np.array([0.6, 0.8])
        assert tr.clip_grad_norm([p]) == 1.0
        np.testing.assert_array_equal(p.grad, [0.6, 0.8])

    def test_mismatched_params(self):
        p = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        state = tr.AdamWState([p])
        with pytest.raises(ValueError):
            tr.adamw_step([p, p], state, lr=0.1, weight_decay=0.01)


class TestSchedule:
    def test_pins(self):
        cfg = tr.TrainConfig(epochs=40)
        assert tr.lr_at_step(cfg, 7, 0) == 0.0
        assert tr.lr_at_step(cfg, 7, 10 * 7) == 1e-3
        assert tr.lr_at_step(cfg, 7, 40 * 7) == 5e-6

    def test_clamps_beyond_schedule(self):
        cfg = tr.TrainConfig(epochs=20)
        assert tr.lr_at_step(cfg, 3, 10_000) == 5e-6

    def test_warmup_monotone_then_decay_monotone(self):
        cfg = tr.TrainConfig(epochs=30)
        values = [tr.lr_at_step(cfg, 5, s) for s in range(30 * 5 + 1)]
        w = cfg.warmup_epochs * 5
        assert all(a <= b for a, b in zip(values[:w], values[1 : w + 1]))
        assert all(a >= b for a, b in zip(values[w:-1], values[w + 1 :]))

    def test_continuous_at_junction(self):
        cfg = tr.TrainConfig(epochs=25)
        warm_side = tr.lr_at_step(cfg, 4, cfg.warmup_epochs * 4)
        cos_side = cfg.floor_lr + 0.5 * (cfg.peak_lr - cfg.floor_lr) * (
            1.0 + math.cos(0.0)
        )
        assert abs(warm_side - cos_side) < 1e-12

    def test_warmup_must_fit(self):
        with pytest.raises(ConfigError, match="warmup_epochs 10"):
            tr.TrainConfig(epochs=10)

    @pytest.mark.parametrize("key", [f.name for f in dataclasses.fields(
        tr.TrainConfig) if f.type is float])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
    def test_recipe_float_must_be_finite_and_non_negative(self, key, value):
        with pytest.raises(ConfigError, match=key):
            tr.TrainConfig(**{key: value})


@pytest.mark.parametrize("call, error", [
    (lambda: tr.masked_cross_entropy(Tensor(np.zeros((1, 1, 3))), [[7]], 3),
     IndexError),
    (lambda: tr.masked_cross_entropy(Tensor(np.zeros((1, 1, 3))), 1, 3),
     ShapeError),
    (lambda: tr.focal_loss(Tensor(np.zeros(3)), 5, gamma=2.0), IndexError),
    (lambda: ConfusionMatrix(2).update([5], [0]), IndexError),
    (lambda: ConfusionMatrix(2).update([0, 1], [0]), IndexError),
], ids=["ce-label", "ce-shape", "focal-label", "cm-label", "cm-shape"])
def test_unchecked_labels_fail_at_the_backstop(call, error):
    # load_split is the label gate; a hand-built label that does not fit
    # the logits or the matrix still fails, in gather_last or numpy.
    with pytest.raises(error):
        call()


class TestMetrics:
    def test_perfect_diagonal(self):
        cm = ConfusionMatrix.from_counts([[3, 0], [0, 5]])
        assert metrics(cm) == (1.0, 1.0, 1.0)

    def test_hand_computed_matrix(self):
        cm = ConfusionMatrix.from_counts([[1, 1], [0, 2]])
        oa, miou, macc = metrics(cm)
        assert oa == 0.75
        assert abs(miou - 7.0 / 12.0) < 1e-12
        assert macc == 0.75

    def test_absent_class_excluded(self):
        cm = ConfusionMatrix.from_counts([[1, 1, 0], [0, 2, 0], [0, 0, 0]])
        oa, miou, macc = metrics(cm)
        assert oa == 0.75
        assert abs(miou - 7.0 / 12.0) < 1e-12
        assert macc == 0.75

    def test_relabeling_symmetry(self):
        rng = np.random.default_rng(6)
        counts = rng.integers(0, 9, size=(5, 5))
        perm = rng.permutation(5)
        base = metrics(ConfusionMatrix.from_counts(counts))
        shuffled = metrics(ConfusionMatrix.from_counts(counts[perm][:, perm]))
        np.testing.assert_allclose(base, shuffled, rtol=1e-12)

    def test_update_skips_ignore_label(self):
        cm = ConfusionMatrix(2)
        cm.update([0, 2, 1, 2], [0, 0, 1, 1])
        assert cm.total() == 2
        assert metrics(cm)[0] == 1.0

    def test_empty_matrix_rejected(self):
        with pytest.raises(MetricError):
            metrics(ConfusionMatrix(3))

    def test_labels_fed_through_are_perfect(self):
        rng = np.random.default_rng(7)
        labels = rng.integers(0, 4, size=(10, 10))
        cm = ConfusionMatrix(4)
        cm.update(labels, labels)
        assert metrics(cm) == (1.0, 1.0, 1.0)


class Record:
    def __init__(self, values, dates, labels):
        self.values = values
        self.dates = dates
        self.labels = labels


def tiny_setup(n_samples=4, seed=0):
    cfg = ModelConfig(
        n_classes=2,
        dim=8,
        depth_temporal=1,
        depth_spatial=1,
        n_heads=2,
        mlp_ratio=2,
        patch=(1, 2, 2),
        input_shape=(2, 4, 4, 1),
    )
    model = SitsFormer(cfg, seed=seed)
    rng = np.random.default_rng(seed + 100)
    records = []
    for _ in range(n_samples):
        values = rng.standard_normal(cfg.input_shape).astype(np.float32)
        labels = rng.integers(0, 3, size=(4, 4)).astype(np.int64)
        labels[0, 0] = 0  # keep at least one counted pixel
        records.append(Record(values, np.array([5, 20]), labels))
    return model, records


# The README run.cfg model, whose micro-batch holds 2 samples.
DEMO = ModelConfig(n_classes=4, dim=32, depth_temporal=2, depth_spatial=2,
                   n_heads=4, mlp_ratio=2, patch=(1, 2, 2),
                   input_shape=(12, 8, 8, 3))


def demo_setup(n_samples):
    dates = np.arange(1, 360, 30)
    model = SitsFormer(DEMO, temporal_keys=dates, seed=1)
    rng = np.random.default_rng(7)
    records = [
        Record(rng.standard_normal(DEMO.input_shape).astype(np.float32),
               dates, rng.integers(0, 5, size=(8, 8)))
        for _ in range(n_samples)
    ]
    return model, records


TINY_TRAIN = dict(epochs=6, batch_size=2, warmup_epochs=2, seed=3)


class TestTrainLoop:
    def test_loss_decreases_and_log_matches_schedule(self, tmp_path):
        model, records = tiny_setup()
        cfg = tr.TrainConfig(**{**TINY_TRAIN, "epochs": 12})
        log = tmp_path / "log.csv"
        ckpt = tmp_path / "best.ckpt"
        tr.train_loop(model, records, cfg, log, ckpt)
        lines = log.read_text().strip().splitlines()
        assert len(lines) == 12
        for line in lines:
            epoch, step, lr, loss, oa, miou = line.split(",")
            assert float(lr) == tr.lr_at_step(cfg, 2, int(step))
        first = float(lines[0].split(",")[3])
        last = float(lines[-1].split(",")[3])
        assert last < first
        assert ckpt.exists()
        loaded = load_checkpoint(ckpt)
        assert loaded.config == model.config

    def test_identical_seeds_give_identical_logs(self, tmp_path):
        logs = []
        finals = []
        for run in ("a", "b"):
            model, records = tiny_setup()
            log = tmp_path / f"log_{run}.csv"
            tr.train_loop(model, records, tr.TrainConfig(**TINY_TRAIN), log,
                          tmp_path / f"ckpt_{run}")
            logs.append(log.read_bytes())
            finals.append(np.concatenate([p.data.ravel()
                                          for _, p in model.named_parameters()]))
        assert logs[0] == logs[1]
        np.testing.assert_array_equal(finals[0], finals[1])

    def test_resume_reproduces_uninterrupted_run(self, tmp_path,
                                                 kill_after_state):
        cfg = tr.TrainConfig(**TINY_TRAIN)

        model_a, records = tiny_setup()
        log_a = tmp_path / "a.csv"
        tr.train_loop(model_a, records, cfg, log_a, tmp_path / "a.ckpt",
                      state_path=tmp_path / "a.state")

        model_b, records_b = tiny_setup()
        log_b = tmp_path / "b.csv"
        state_b = tmp_path / "b.state"
        with kill_after_state(3):
            tr.train_loop(model_b, records_b, cfg, log_b, tmp_path / "b.ckpt",
                          state_path=state_b)

        model_c, records_c = tiny_setup()
        tr.train_loop(model_c, records_c, cfg, log_b, tmp_path / "b.ckpt",
                      state_path=state_b, resume=True)

        for (_, pa), (_, pc) in zip(model_a.named_parameters(),
                                    model_c.named_parameters()):
            np.testing.assert_array_equal(pa.data, pc.data)
        assert log_a.read_bytes() == log_b.read_bytes()

    def test_resume_after_kill_between_log_and_state(self, tmp_path,
                                                     kill_after_state):
        # A kill after epoch 3's log line but before its state leaves the
        # state at epoch 2; the resumed run must not log epoch 3 twice.
        cfg = tr.TrainConfig(**TINY_TRAIN)
        model_a, records = tiny_setup()
        log_a = tmp_path / "a.csv"
        tr.train_loop(model_a, records, cfg, log_a, tmp_path / "a.ckpt")

        model_b, records_b = tiny_setup()
        log_b = tmp_path / "b.csv"
        state_b = tmp_path / "b.state"
        with kill_after_state(2):
            tr.train_loop(model_b, records_b, cfg, log_b, tmp_path / "b.ckpt",
                          state_path=state_b)
        epoch_3 = log_a.read_text(encoding="utf-8").splitlines(True)[2]
        with open(log_b, "a", encoding="utf-8") as f:
            f.write(epoch_3)

        model_c, records_c = tiny_setup()
        tr.train_loop(model_c, records_c, cfg, log_b, tmp_path / "b.ckpt",
                      state_path=state_b, resume=True)
        assert log_b.read_bytes() == log_a.read_bytes()

    def test_resume_refuses_other_samples(self, tmp_path):
        # One changed value in one sample is another run; the refused
        # resume leaves the log as it was.
        cfg = tr.TrainConfig(**TINY_TRAIN)
        model, records = tiny_setup()
        log, state = tmp_path / "log.csv", tmp_path / "train.state"
        tr.train_loop(model, records, cfg, log, tmp_path / "ckpt",
                      state_path=state)
        before = log.read_bytes()
        model, records = tiny_setup()
        records[-1].values[0, 0, 0, 0] += 1.0
        with pytest.raises(ConfigError, match="another run"):
            tr.train_loop(model, records, cfg, log, tmp_path / "ckpt",
                          state_path=state, resume=True)
        assert log.read_bytes() == before

    def test_nan_loss_aborts_with_diagnostics(self, tmp_path):
        model, records = tiny_setup()
        model.embed.weight.data[:] = np.nan
        with pytest.raises(TrainingDiverged) as err:
            tr.train_loop(model, records, tr.TrainConfig(**TINY_TRAIN),
                          tmp_path / "log.csv", tmp_path / "ckpt")
        assert err.value.step == 1

    def test_non_finite_gradient_aborts_before_any_update(self, tmp_path,
                                                          monkeypatch):
        model, records = tiny_setup()
        before = [p.data.copy() for p in model.parameters()]

        def backward_then_poison(loss):
            backward(loss)
            model.head_bias.grad[...] = np.inf

        monkeypatch.setattr(tr, "backward", backward_then_poison)
        with pytest.raises(TrainingDiverged) as err:
            tr.train_loop(model, records, tr.TrainConfig(**TINY_TRAIN),
                          tmp_path / "log.csv", tmp_path / "ckpt")
        assert err.value.step == 1
        assert all(math.isfinite(v) for v in err.value.loss_history)
        for p, old in zip(model.parameters(), before):
            np.testing.assert_array_equal(p.data, old)

    def test_tape_is_bounded_by_the_micro_batch(self, tmp_path,
                                                 monkeypatch):
        # One micro-batch's tape is alive at a time: backward runs once per
        # micro-batch, leaves the tape empty, and never sees more entries at
        # batch size 64 than at batch size m.
        m = tr.micro_batch_size(DEMO, 64)

        def longest_tape(batch_size):
            seen = []

            def recording_backward(loss):
                seen.append(len(active_tape()))
                backward(loss)
                assert len(active_tape()) == 0

            monkeypatch.setattr(tr, "backward", recording_backward)
            model, records = demo_setup(5)
            cfg = tr.TrainConfig(epochs=2, batch_size=batch_size,
                                 warmup_epochs=1, seed=3)
            tr.train_loop(model, records, cfg, tmp_path / f"{batch_size}.csv",
                          tmp_path / f"{batch_size}.ckpt")
            assert len(seen) == 2 * math.ceil(len(records) / m)
            return max(seen)

        assert m == 2
        assert longest_tape(64) == longest_tape(m) > 0

    def test_empty_dataset_rejected(self, tmp_path):
        model, _ = tiny_setup()
        with pytest.raises(DataError):
            tr.train_loop(model, [], tr.TrainConfig(**TINY_TRAIN),
                          tmp_path / "log.csv", tmp_path / "ckpt")


@pytest.mark.parametrize("config, batch_size, expected", [
    (ModelConfig(), 16, 1),
    (DEMO, 16, 2),
    (ModelConfig(n_classes=3, dim=16, depth_temporal=1, depth_spatial=1,
                 n_heads=2, mlp_ratio=2, input_shape=(6, 6, 6, 2)), 16, 12),
    (ModelConfig(n_classes=3, dim=8, depth_temporal=1, depth_spatial=1,
                 n_heads=2, mlp_ratio=4, input_shape=(3, 4, 4, 2)), 16, 16),
    (DEMO, 1, 1),
], ids=["reference", "demo", "acceptance-7", "acceptance-toy", "batch-1"])
def test_micro_batch_rule_is_pinned(config, batch_size, expected):
    assert tr.micro_batch_size(config, batch_size) == expected


def test_resume_with_uneven_micro_batches_is_bitwise(tmp_path,
                                                     kill_after_state):
    # Batches of 3 split into micro-batches of 2 and 1, and the epoch's
    # last batch holds 1 sample; stopping after epoch 1 and resuming lands
    # on the uninterrupted run's files byte for byte.
    cfg = tr.TrainConfig(epochs=3, batch_size=3, warmup_epochs=1, seed=4)
    assert tr.micro_batch_size(DEMO, cfg.batch_size) == 2

    def run(tag, resume=False):
        model, records = demo_setup(7)
        tr.train_loop(model, records, cfg, tmp_path / tag / "metrics.csv",
                      tmp_path / tag / "best.ckpt",
                      state_path=tmp_path / tag / "train.state", resume=resume)

    for tag in ("full", "part"):
        (tmp_path / tag).mkdir()
    run("full")
    with kill_after_state(1):
        run("part")
    assert len((tmp_path / "part" / "metrics.csv").read_text().splitlines()) == 1
    run("part", resume=True)
    for name in ("metrics.csv", "best.ckpt", "train.state"):
        assert ((tmp_path / "full" / name).read_bytes()
                == (tmp_path / "part" / name).read_bytes()), name


class TestEvaluate:
    def test_repeat_evaluation_is_identical(self):
        model, records = tiny_setup()
        a = tr.evaluate(model, records)
        b = tr.evaluate(model, records)
        assert a[:3] == b[:3]
        np.testing.assert_array_equal(a[4].counts, b[4].counts)

    def test_background_only_sample_adds_no_counts(self):
        model, records = tiny_setup(n_samples=2)
        records[1].labels = np.full((4, 4), 2, dtype=np.int64)
        *_, cm_both = tr.evaluate(model, records)
        *_, cm_one = tr.evaluate(model, records[:1])
        np.testing.assert_array_equal(cm_both.counts, cm_one.counts)

    def test_classification_records(self):
        cfg = ModelConfig(
            n_classes=3,
            dim=8,
            depth_temporal=1,
            depth_spatial=1,
            n_heads=2,
            mlp_ratio=2,
            patch=(1, 2, 2),
            input_shape=(2, 4, 4, 1),
            task="classification",
        )
        model = SitsFormer(cfg, seed=1)
        rng = np.random.default_rng(8)
        records = [
            Record(rng.standard_normal(cfg.input_shape).astype(np.float32),
                   np.array([3, 9]), int(rng.integers(3)))
            for _ in range(5)
        ]
        oa, miou, macc, table, cm = tr.evaluate(model, records)
        assert cm.total() == 5
        assert len(table) == 3
