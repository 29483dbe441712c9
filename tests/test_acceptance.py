"""Release gate: each test checks one criterion and prints one verdict line.

The verdict lines bypass output capture so a plain pytest run always shows
them. Numbers in brackets are the measured values behind the verdict.
"""

import dataclasses
import functools
import os
import time

import numpy as np
import pytest

from _gradcheck import check_gradients

from sitsformer.data import (
    SitsSeries,
    default_class_specs,
    generate_sample,
    generate_synthetic_dataset,
    load_split,
    read_manifest,
    read_sample,
    write_sample,
)
from sitsformer.metrics import ConfusionMatrix, metrics
from sitsformer.model import (
    ModelConfig,
    SitsFormer,
    count_parameters,
    forward,
    parameter_count,
    spatial_encode,
    temporal_encode,
)
from sitsformer.tensor import Tensor, backward
from sitsformer.training import (
    TrainConfig,
    evaluate,
    focal_loss,
    lr_at_step,
    masked_cross_entropy,
    train_loop,
)

_CAPMAN = [None]
_DETAILS = {}


@pytest.fixture(autouse=True)
def _stash_capture_manager(request):
    _CAPMAN[0] = request.config.pluginmanager.getplugin("capturemanager")
    yield


def _emit(line):
    capman = _CAPMAN[0]
    if capman is not None:
        with capman.global_and_fixture_disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)


def criterion(number, name):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                _emit(f"ACCEPTANCE {number} ({name}): FAIL")
                raise
            extra = _DETAILS.pop(number, "")
            _emit(f"ACCEPTANCE {number} ({name}): PASS{extra}")
        return run
    return wrap


TOY = ModelConfig(
    n_classes=3, dim=8, depth_temporal=1, depth_spatial=1, n_heads=2,
    mlp_ratio=4, patch=(1, 2, 2), input_shape=(3, 4, 4, 2),
)


def _toy_series(seed=3):
    rng = np.random.default_rng(seed)
    values = rng.normal(0.2, 0.4, size=TOY.input_shape).astype(np.float32)
    return SitsSeries(values, np.array([20, 80, 200]))


@criterion(1, "parameter budget")
def test_parameter_budget():
    config = ModelConfig()
    n = parameter_count(config)
    assert n == count_parameters(SitsFormer(config, seed=0))
    assert 1_360_000 <= n <= 2_040_000
    _DETAILS[1] = f"  [{n:,} parameters]"


@criterion(2, "schedule pins")
def test_schedule_pins():
    cfg = TrainConfig(epochs=100, warmup_epochs=10, peak_lr=1e-3,
                      floor_lr=5e-6)
    assert lr_at_step(cfg, 37, 0) == 0.0
    assert lr_at_step(cfg, 37, 10 * 37) == 1e-3
    assert lr_at_step(cfg, 37, 100 * 37) == 5e-6
    assert lr_at_step(cfg, 37, 100 * 37 + 50) == 5e-6


@criterion(3, "gradient suite")
def test_gradient_suite():
    start = time.time()
    model = SitsFormer(TOY, temporal_keys=np.array([20, 80, 200]), seed=3,
                       dtype=np.float64)
    rng = np.random.default_rng(5)
    values = rng.normal(0.2, 0.4, size=TOY.input_shape)
    dates = np.array([20, 80, 200])
    labels = rng.integers(0, 3, size=(4, 4))
    labels[0, :] = 3  # one masked-out background row

    def make_loss(_):
        logits = forward(SitsSeries(values.copy(), dates), model)
        return masked_cross_entropy(logits, labels, ignore_label=3)

    params = [p for _, p in model.named_parameters()]
    # h=1e-4: curvature through two attention stages makes 1e-3 probes
    # truncation-limited on small-magnitude gradients; float64 keeps the
    # rounding floor near 1e-12 at this step.
    err = check_gradients(make_loss, params, h=1e-4)
    elapsed = time.time() - start
    n_scalars = sum(p.data.size for p in params)
    assert err < 1e-3
    assert elapsed < 120.0
    _DETAILS[3] = (f"  [max rel err {err:.2e} over {n_scalars} scalars, "
                   f"{elapsed:.0f}s]")


@criterion(4, "factorization structure")
def test_factorization_structure():
    # (a) permuting frames together with their dates leaves the temporal
    # summaries unchanged: order carries no information, dates do.
    model = SitsFormer(TOY, temporal_keys=np.array([20, 80, 200]), seed=1)
    series = _toy_series(seed=3)
    base = temporal_encode(series.values[None], series.dates[None], model)
    perm = np.array([2, 0, 1])
    out = temporal_encode(Tensor(series.values[None, perm]),
                          series.dates[None, perm], model)
    np.testing.assert_allclose(out.data, base.data, atol=1e-5)

    # (b) blocked mode: perturbing one class stream cannot move any bit of
    # the others.
    rng = np.random.default_rng(8)
    z_np = rng.standard_normal((1, 4, 3, 8)).astype(np.float32)
    g1, l1 = spatial_encode(Tensor(z_np), model)
    poked = z_np.copy()
    poked[:, :, 1, :] = rng.standard_normal((4, 8))
    model.cls_spatial.data[1] += 3.0
    g2, l2 = spatial_encode(Tensor(poked), model)
    for stream in (0, 2):
        np.testing.assert_array_equal(g1.data[:, stream], g2.data[:, stream])
        np.testing.assert_array_equal(l1.data[:, stream], l2.data[:, stream])
    assert not np.array_equal(g1.data[:, 1], g2.data[:, 1])

    # (c) relabeling the class axis permutes the segmentation logits.
    model = SitsFormer(TOY, temporal_keys=np.array([20, 80, 200]), seed=11)
    series = _toy_series(seed=12)
    base = forward(series, model)
    perm = np.array([2, 0, 1])
    model.cls_temporal.data[:] = model.cls_temporal.data[perm]
    model.cls_spatial.data[:] = model.cls_spatial.data[perm]
    model.head_weight.data[:] = model.head_weight.data[perm]
    model.head_bias.data[:] = model.head_bias.data[perm]
    out = forward(series, model)
    np.testing.assert_allclose(out.data, base.data[:, :, perm], atol=1e-5)


@criterion(5, "masking")
def test_masking():
    rng = np.random.default_rng(13)
    logits = Tensor(rng.standard_normal((3, 3, 4)), requires_grad=True)
    labels = rng.integers(0, 4, size=(3, 3))
    labels[0, 0] = 4
    labels[2, 1] = 4
    loss = masked_cross_entropy(logits, labels, ignore_label=4)
    backward(loss)
    assert np.all(logits.grad[labels == 4] == 0.0)
    assert np.all(np.any(logits.grad[labels != 4] != 0.0, axis=-1))

    worst = 0.0
    for draw in range(20):
        r = np.random.default_rng(100 + draw)
        z = r.standard_normal(5)
        label = int(r.integers(0, 5))
        got = float(focal_loss(Tensor(z), label, gamma=0.0).item())
        ref = float(np.log(np.sum(np.exp(z))) - z[label])
        worst = max(worst, abs(got - ref))
    assert worst < 1e-7
    _DETAILS[5] = f"  [focal(0) vs CE max diff {worst:.1e}]"


@criterion(6, "overfit oracle")
def test_overfit_oracle(tmp_path):
    start = time.time()
    data_dir = str(tmp_path / "overfit")
    generate_synthetic_dataset(data_dir, n_samples=32, n_classes=3,
                               grid=(4, 4), t_range=(3, 3), seed=7,
                               channels=2, noise_std=0.05, cloud_prob=0.0)
    manifest = read_manifest(data_dir)
    records = []
    for split in ("train", "val", "test"):
        records += load_split(data_dir, manifest, split)
    assert len(records) == 32
    keys = np.unique(np.concatenate([r.dates for r in records]))
    model = SitsFormer(TOY, temporal_keys=keys, seed=0)
    cfg = TrainConfig(epochs=100, batch_size=16, warmup_epochs=10,
                      peak_lr=3e-3, seed=0)
    train_loop(model, records, cfg, str(tmp_path / "log.csv"),
               str(tmp_path / "best.ckpt"))
    oa = evaluate(model, records)[0]
    elapsed = time.time() - start
    assert oa >= 0.99
    assert elapsed < 900.0
    _DETAILS[6] = f"  [train OA {oa:.4f} after 100 epochs, {elapsed:.0f}s]"


@criterion(7, "ablation direction")
def test_ablation_direction(tmp_path):
    start = time.time()
    data_dir = str(tmp_path / "ablate")
    # Classes share signal levels and differ only in season timing, so the
    # calendar is the discriminative input. Each sample observes a random
    # window of the season on a shared 10-day grid: sequence position alone
    # says little about the absolute date, while date keys recur across
    # samples often enough to train every table row.
    generate_synthetic_dataset(data_dir, n_samples=500, n_classes=3,
                               grid=(6, 6), t_range=(6, 6), seed=11,
                               channels=2, noise_std=0.02, cloud_prob=0.0,
                               date_step=10, season_span=240)
    manifest = read_manifest(data_dir)
    train_records = load_split(data_dir, manifest, "train")
    val_records = load_split(data_dir, manifest, "val")
    keys = np.unique(np.concatenate([r.dates for r in train_records]))
    base = ModelConfig(
        n_classes=3, dim=16, depth_temporal=1, depth_spatial=1, n_heads=2,
        mlp_ratio=2, patch=(1, 2, 2), input_shape=(6, 6, 6, 2),
    )

    def run(cfg, seed):
        model = SitsFormer(cfg, temporal_keys=keys, seed=seed)
        tc = TrainConfig(epochs=20, batch_size=16, warmup_epochs=3,
                         peak_lr=3e-3, seed=seed)
        log = tmp_path / f"ab_{seed}.csv"
        if log.exists():
            log.unlink()
        train_loop(model, train_records, tc, str(log),
                   str(tmp_path / "ab.ckpt"))
        return evaluate(model, val_records)[1]

    seeds = (0, 1, 2)
    mean_of = {}
    for label, cfg in (
        ("date_lookup", base),
        ("static", dataclasses.replace(base, pe_mode="static")),
        ("single", dataclasses.replace(base, cls_mode="single")),
    ):
        mean_of[label] = float(np.mean([run(cfg, s) for s in seeds]))
    elapsed = time.time() - start
    assert mean_of["date_lookup"] >= mean_of["static"]
    assert mean_of["date_lookup"] >= mean_of["single"]
    _DETAILS[7] = (
        f"  [val mIoU over {len(seeds)} seeds: date_lookup "
        f"{mean_of['date_lookup']:.3f} vs static {mean_of['static']:.3f}; "
        f"per_class {mean_of['date_lookup']:.3f} vs single "
        f"{mean_of['single']:.3f}; {elapsed:.0f}s]"
    )


@criterion(8, "io determinism")
def test_io_determinism(tmp_path, kill_after_state):
    # (a) a sample file round-trips bitwise and re-writes byte-identically.
    specs = default_class_specs(3, channels=2, noise_std=0.05, cloud_prob=0.1)
    record = generate_sample(4, 99, specs, grid=(6, 6), t_range=(5, 8))
    path_a, path_b = str(tmp_path / "a.sits"), str(tmp_path / "b.sits")
    write_sample(path_a, record)
    write_sample(path_b, record)
    with open(path_a, "rb") as f_a, open(path_b, "rb") as f_b:
        assert f_a.read() == f_b.read()
    back = read_sample(path_a)
    assert np.array_equal(back.values, record.values)
    assert np.array_equal(back.dates, record.dates)
    assert np.array_equal(back.labels, record.labels)

    # (b) identical seeds give byte-identical training logs and weights.
    data_dir = str(tmp_path / "data")
    generate_synthetic_dataset(data_dir, n_samples=12, n_classes=3,
                               grid=(4, 4), t_range=(3, 3), seed=21,
                               channels=2, cloud_prob=0.0)
    manifest = read_manifest(data_dir)
    records = load_split(data_dir, manifest, "train")
    keys = np.unique(np.concatenate([r.dates for r in records]))
    cfg = TrainConfig(epochs=4, batch_size=4, warmup_epochs=1, peak_lr=3e-3,
                      seed=5)

    def train_run(tag, epochs=None, resume=False):
        run_cfg = cfg if epochs is None else dataclasses.replace(
            cfg, epochs=epochs
        )
        model = SitsFormer(TOY, temporal_keys=keys, seed=run_cfg.seed)
        log = str(tmp_path / f"{tag}.csv")
        state = str(tmp_path / f"{tag}.state")
        train_loop(model, records, run_cfg, log,
                   str(tmp_path / f"{tag}.ckpt"), state_path=state,
                   resume=resume)
        return model, log

    model_1, log_1 = train_run("one")
    model_2, log_2 = train_run("two")
    with open(log_1, "rb") as f_1, open(log_2, "rb") as f_2:
        assert f_1.read() == f_2.read()
    for (name, p_1), (_, p_2) in zip(model_1.named_parameters(),
                                     model_2.named_parameters()):
        assert np.array_equal(p_1.data, p_2.data), name

    # (c) kill after epoch 3's state, resume, and land bit-for-bit on the
    # uninterrupted 6-epoch run.
    model_full, log_full = train_run("full", epochs=6)
    with kill_after_state(3):
        train_run("part", epochs=6)
    model_resumed, _ = train_run("part", epochs=6, resume=True)
    for (name, p_a), (_, p_b) in zip(model_full.named_parameters(),
                                     model_resumed.named_parameters()):
        assert np.array_equal(p_a.data, p_b.data), name
    with open(log_full, "rb") as f_a, open(str(tmp_path / "part.csv"),
                                           "rb") as f_b:
        assert f_a.read() == f_b.read()


@criterion(9, "metrics oracle")
def test_metrics_oracle():
    cm = ConfusionMatrix.from_counts(np.array([[1, 1], [0, 2]]))
    oa, miou, macc = metrics(cm)
    assert oa == 0.75
    assert abs(miou - 7.0 / 12.0) < 1e-12
    assert macc == 0.75
    _DETAILS[9] = f"  [OA {oa}, mIoU {miou:.4f}, mAcc {macc}]"
