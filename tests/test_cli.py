"""End-to-end command-line checks: config files, rendering, subcommands."""

import logging
import os

import numpy as np
import pytest

from sitsformer import cli, container
from sitsformer.cli import (
    DEFAULT_PALETTE,
    RunConfig,
    _setup_logging,
    main,
    parse_run_config,
    render_class_map,
    write_resolved_config,
)
from sitsformer.errors import ConfigError, DataError
from sitsformer.model import ModelConfig
from sitsformer.training import TrainConfig

TOY_CFG = {
    "n_classes": "3",
    "dim": "8",
    "depth_temporal": "1",
    "depth_spatial": "1",
    "n_heads": "2",
    "mlp_ratio": "1",
    "patch": "1,2,2",
    "input_shape": "4,4,4,3",
    "task": "segmentation",
    "factorization": "temporal_first",
    "cls_mode": "per_class",
    "pe_mode": "date_lookup",
    "cls_interactions": "blocked",
    "epochs": "3",
    "batch_size": "4",
    "warmup_epochs": "1",
    "peak_lr": "0.003",
    "floor_lr": "5e-06",
    "weight_decay": "0.01",
    "focal_gamma": "2.0",
    "seed": "0",
}


def _write_cfg(path, data_dir, out_dir, **overrides):
    items = dict(TOY_CFG)
    items.update(overrides)
    items["data_dir"] = str(data_dir)
    items["out_dir"] = str(out_dir)
    with open(path, "w", encoding="utf-8") as f:
        for key, value in items.items():
            f.write(f"{key}={value}\n")
    return str(path)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    d = tmp_path_factory.mktemp("data")
    rc = main([
        "generate", "--out", str(d), "--n-samples", "10", "--n-classes", "3",
        "--grid", "4,4", "--t-range", "4,4", "--cloud-prob", "0.0",
        "--seed", "1",
    ])
    assert rc == 0
    return d


@pytest.fixture(scope="module")
def trained(dataset, tmp_path_factory):
    base = tmp_path_factory.mktemp("run")
    out = base / "o1"
    cfg = _write_cfg(base / "run.cfg", dataset, out)
    assert main(["train", "--config", cfg]) == 0
    return dataset, base, out, cfg


# -- run config files -------------------------------------------------------------


def test_resolved_config_round_trips(tmp_path):
    run = RunConfig(
        ModelConfig(n_classes=5, dim=16, patch=(1, 2, 2),
                    input_shape=(6, 8, 8, 4)),
        TrainConfig(epochs=7, peak_lr=0.002),
        str(tmp_path / "d"),
        str(tmp_path / "o"),
    )
    path = write_resolved_config(run)
    assert parse_run_config(path) == run


def test_unknown_key_rejected(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("data_dir=x\nout_dir=y\nbogus=1\n")
    with pytest.raises(ConfigError, match="bogus"):
        parse_run_config(cfg)


def test_missing_data_dir_named(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("out_dir=y\n")
    with pytest.raises(ConfigError, match="data_dir"):
        parse_run_config(cfg)


def test_duplicate_key_rejected(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("data_dir=x\ndata_dir=z\nout_dir=y\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_run_config(cfg)


def test_malformed_line_rejected(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("data_dir=x\nout_dir=y\nnot a pair\n")
    with pytest.raises(ConfigError, match="key=value"):
        parse_run_config(cfg)


def test_defaults_fill_missing_keys(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment line\n\ndata_dir=x\nout_dir=y\n")
    run = parse_run_config(cfg)
    assert run.model == ModelConfig()
    assert run.train == TrainConfig()
    assert (run.data_dir, run.out_dir) == ("x", "y")


# -- class-map rendering ----------------------------------------------------------


def test_checkerboard_ppm_bytes():
    ppm = render_class_map(np.array([[0, 1], [1, 0]]))
    header, rest = ppm.split(b"\n", 1)
    assert header == b"P6"
    dims, rest = rest.split(b"\n", 1)
    assert dims == b"2 2"
    maxval, pixels = rest.split(b"\n", 1)
    assert maxval == b"255"
    c0, c1 = bytes(DEFAULT_PALETTE[0]), bytes(DEFAULT_PALETTE[1])
    assert pixels == c0 + c1 + c1 + c0


def test_background_renders_black():
    ppm = render_class_map(np.full((3, 3), 9), background_label=9)
    assert ppm.endswith(b"\x00" * 27)


def test_render_is_deterministic():
    pred = np.arange(12).reshape(3, 4) % 5
    assert render_class_map(pred) == render_class_map(pred)


def test_class_beyond_palette_rejected():
    with pytest.raises(DataError, match="palette"):
        render_class_map(np.array([[len(DEFAULT_PALETTE)]]))


def test_negative_class_rejected():
    with pytest.raises(DataError):
        render_class_map(np.array([[-1, 0]]))


def test_scalar_prediction_renders_one_pixel():
    ppm = render_class_map(np.int64(2))
    assert b"1 1" in ppm
    assert ppm.endswith(bytes(DEFAULT_PALETTE[2]))


# -- subcommands ------------------------------------------------------------------


def test_generate_writes_dataset(dataset):
    assert (dataset / "manifest.csv").exists()
    assert (dataset / "classes.txt").exists()
    assert len(list(dataset.glob("*.sits"))) == 10


def test_train_writes_outputs(trained):
    _, _, out, _ = trained
    lines = (out / "metrics.csv").read_text().strip().splitlines()
    assert len(lines) == 3
    for lineno, line in enumerate(lines, 1):
        fields = line.split(",")
        assert int(fields[0]) == lineno
        float(fields[2]), float(fields[3])
    assert (out / "best.ckpt").exists()
    assert (out / "train.state").exists()
    assert (out / "resolved.cfg").exists()


def test_train_reruns_bitwise(trained, tmp_path):
    dataset, _, out, cfg = trained
    assert main(["train", "--config", cfg,
                 "--out-dir", str(tmp_path / "o2")]) == 0
    first = (out / "metrics.csv").read_bytes()
    assert (tmp_path / "o2" / "metrics.csv").read_bytes() == first
    # The resolved file is itself a complete, replayable run config.
    assert main(["train", "--config", str(out / "resolved.cfg"),
                 "--out-dir", str(tmp_path / "o3")]) == 0
    assert (tmp_path / "o3" / "metrics.csv").read_bytes() == first


def test_seed_override_changes_trajectory(trained, tmp_path):
    _, _, out, cfg = trained
    assert main(["train", "--config", cfg, "--seed", "5",
                 "--out-dir", str(tmp_path / "o5")]) == 0
    assert (tmp_path / "o5" / "metrics.csv").read_bytes() != \
        (out / "metrics.csv").read_bytes()


def test_eval_reports_metrics(trained, capsys):
    _, _, out, cfg = trained
    assert main(["eval", "--config", cfg, "--split", "train"]) == 0
    printed = capsys.readouterr().out
    assert "OA" in printed and "mIoU" in printed
    assert (out / "confusion_train.txt").exists()
    body = (out / "metrics_train.txt").read_text()
    assert body.startswith("OA=")


def test_eval_val_split(trained):
    _, _, _, cfg = trained
    assert main(["eval", "--config", cfg, "--split", "val"]) == 0


def test_predict_writes_valid_ppm(trained, tmp_path):
    dataset, _, _, cfg = trained
    sample = sorted(dataset.glob("*.sits"))[0]
    target = tmp_path / "map.ppm"
    assert main(["predict", "--config", cfg, "--sample", str(sample),
                 "--out", str(target)]) == 0
    body = target.read_bytes()
    assert body.startswith(b"P6\n4 4\n255\n")
    assert len(body) == len(b"P6\n4 4\n255\n") + 4 * 4 * 3


def test_predict_is_deterministic(trained, tmp_path):
    dataset, _, _, cfg = trained
    sample = sorted(dataset.glob("*.sits"))[0]
    a, b = tmp_path / "a.ppm", tmp_path / "b.ppm"
    assert main(["predict", "--config", cfg, "--sample", str(sample),
                 "--out", str(a)]) == 0
    assert main(["predict", "--config", cfg, "--sample", str(sample),
                 "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_ablate_scores_every_axis(dataset, tmp_path, capsys):
    cfg = _write_cfg(tmp_path / "run.cfg", dataset, tmp_path / "ab",
                     epochs="2")
    assert main(["ablate", "--config", cfg]) == 0
    lines = (tmp_path / "ab" / "ablation.csv").read_text().strip().splitlines()
    assert lines[0] == "axis,setting,mIoU"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 8
    assert ["factorization", "spatial_first"] == rows[1][:2]
    for row in rows:
        assert 0.0 <= float(row[2]) <= 1.0
    assert "spatial_first" in capsys.readouterr().out


# -- failure modes ----------------------------------------------------------------


def test_bad_flag_exits_2():
    assert main(["train", "--no-such-flag"]) == 2


def test_missing_subcommand_exits_2():
    assert main([]) == 2


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("data_dir=x\nout_dir=y\nmystery=1\n")
    assert main(["train", "--config", str(cfg)]) == 2
    assert "mystery" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["epochs=abc", "dim=x", "peak_lr=fast",
                                  "patch=1,a,2"])
def test_non_numeric_config_value_exits_2(tmp_path, capsys, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"data_dir=x\nout_dir=y\n{line}\n")
    assert main(["train", "--config", str(cfg)]) == 2
    key, _, value = line.partition("=")
    err = capsys.readouterr().err
    assert f"{key}={value!r}" in err


def test_missing_data_dir_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("out_dir=y\n")
    assert main(["train", "--config", str(cfg)]) == 2
    assert "data_dir" in capsys.readouterr().err


def test_nonexistent_dataset_exits_1(tmp_path):
    cfg = _write_cfg(tmp_path / "run.cfg", tmp_path / "nope", tmp_path / "o")
    assert main(["train", "--config", str(tmp_path / "run.cfg")]) == 1


def test_eval_without_checkpoint_exits_1(dataset, tmp_path):
    cfg = _write_cfg(tmp_path / "run.cfg", dataset, tmp_path / "fresh")
    assert main(["eval", "--config", cfg, "--split", "train"]) == 1


def test_corrupt_checkpoint_exits_1(trained, tmp_path, capsys):
    _, _, out, cfg = trained
    blob = bytearray((out / "best.ckpt").read_bytes())
    digit = blob.index(b"temporal_keys=") + len(b"temporal_keys=")
    blob[digit : digit + 1] = b"x"
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(bytes(blob))
    assert main(["eval", "--config", cfg, "--checkpoint", str(bad),
                 "--out-dir", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: bad checkpoint header")
    assert "temporal_keys='x" in err and "byte offset 10" in err


def test_input_shape_mismatch_exits_1(dataset, tmp_path, capsys,
                                      monkeypatch):
    # The dataset holds (4, 4, 4, 3) samples; the run asks for 2 channels.
    # The samples are checked before training starts, not by its forward.
    monkeypatch.setattr(cli, "train_loop",
                        lambda *a, **k: pytest.fail("training started"))
    cfg = _write_cfg(tmp_path / "run.cfg", dataset, tmp_path / "o",
                     input_shape="4,4,4,2")
    assert main(["train", "--config", cfg]) == 1
    assert "configured input (4, 4, 4, 2)" in capsys.readouterr().err
    assert not (tmp_path / "o" / "metrics.csv").exists()


class _HalfThenFail:
    """A file whose write stores half of its data, then reports a full disk."""

    def __init__(self, f):
        self.f = f

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()

    def write(self, data):
        self.f.write(data[: len(data) // 2])
        raise OSError("disk full")


def test_failed_output_write_keeps_previous_file(trained, tmp_path,
                                                 monkeypatch):
    dataset, _, trained_out, cfg = trained
    sample = str(sorted(dataset.glob("*.sits"))[0])
    out = tmp_path / "o"
    ckpt = str(trained_out / "best.ckpt")
    eval_args = ["eval", "--config", cfg, "--checkpoint", ckpt,
                 "--out-dir", str(out)]
    predict_args = ["predict", "--config", cfg, "--checkpoint", ckpt,
                    "--sample", sample, "--out", str(out / "map.ppm")]
    assert main(eval_args) == 0 and main(predict_args) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    for target, args in (("confusion_val.txt", eval_args),
                         ("metrics_val.txt", eval_args),
                         ("map.ppm", predict_args)):

        def open_failing(path, mode="r", encoding=None, target=target):
            f = open(path, mode, encoding=encoding)
            return _HalfThenFail(f) if os.path.basename(path).startswith(
                target + ".") else f

        monkeypatch.setattr(container, "open", open_failing, raising=False)
        assert main(args) == 1
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_class_count_mismatch_exits_2(dataset, tmp_path, capsys):
    cfg = _write_cfg(tmp_path / "run.cfg", dataset, tmp_path / "o",
                     n_classes="7")
    assert main(["train", "--config", cfg]) == 2
    assert "classes" in capsys.readouterr().err


def test_log_level_env_var(monkeypatch):
    monkeypatch.setenv("SITSFORMER_LOG", "debug")
    _setup_logging()
    assert logging.getLogger().level == logging.DEBUG
    monkeypatch.setenv("SITSFORMER_LOG", "not-a-level")
    _setup_logging()
    assert logging.getLogger().level == logging.WARNING
