"""Command-line entry points: generate, train, eval, predict, ablate.

Runs are driven by a flat key=value config file. Every run writes the fully
resolved config next to its outputs, and re-running from that file
reproduces the results byte for byte.
"""

import argparse
import dataclasses
import logging
import os
import sys

import numpy as np

from .container import atomic_open, config_from_items, config_text
from .data import (
    load_split,
    generate_synthetic_dataset,
    make_classification_sample,
    read_manifest,
    read_sample,
)
from .errors import ConfigError, DataError, SitsformerError
from .metrics import write_confusion
from .model import (
    ModelConfig,
    SitsFormer,
    check_series,
    forward,
    load_checkpoint,
)
from .tensor import no_grad
from .training import TrainConfig, evaluate, train_loop

log = logging.getLogger("sitsformer")

# Pairwise-distinct colors; index k renders class k. Background is black.
DEFAULT_PALETTE = (
    (230, 25, 75), (60, 180, 75), (255, 225, 25), (0, 130, 200),
    (245, 130, 48), (145, 30, 180), (70, 240, 240), (240, 50, 230),
    (210, 245, 60), (250, 190, 212), (0, 128, 128), (220, 190, 255),
    (170, 110, 40), (255, 250, 200), (128, 0, 0), (170, 255, 195),
    (128, 128, 0), (255, 215, 180), (0, 0, 128), (128, 128, 128),
)


@dataclasses.dataclass(frozen=True)
class RunConfig:
    model: ModelConfig
    train: TrainConfig
    data_dir: str
    out_dir: str


def parse_run_config(path) -> RunConfig:
    """Read a key=value run file; unknown keys are hard errors."""
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.readlines()
    except OSError as e:
        raise ConfigError(f"cannot read run config {path}: {e}") from e
    raw = {}
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key = key.strip()
        value = value.strip()
        if key in raw:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        raw[key] = value
    try:
        return config_from_items(RunConfig, raw.items())
    except ConfigError as e:
        raise ConfigError(f"{path}: {e}") from None


def write_resolved_config(run: RunConfig) -> str:
    os.makedirs(run.out_dir, exist_ok=True)
    path = os.path.join(run.out_dir, "resolved.cfg")
    with atomic_open(path, "w") as f:
        f.write(config_text(run))
    return path


def render_class_map(pred, palette=DEFAULT_PALETTE, background_label=None):
    """Encode an integer class map as a binary P6 image, one color per class."""
    pred = np.atleast_2d(np.asarray(pred))
    if pred.ndim != 2:
        raise DataError(f"class map must be 2-d, got shape {pred.shape}")
    height, width = pred.shape
    rgb = np.zeros((height, width, 3), dtype=np.uint8)
    background = pred == background_label if background_label is not None \
        else np.zeros_like(pred, dtype=bool)
    classes = np.unique(pred[~background])
    if classes.size and (classes.min() < 0 or classes.max() >= len(palette)):
        raise DataError(
            f"class {int(classes.max())} has no palette entry "
            f"(palette holds {len(palette)})"
        )
    for k in classes:
        rgb[pred == k] = palette[int(k)]
    header = f"P6\n{width} {height}\n255\n".encode("ascii")
    return header + rgb.tobytes()


def write_class_map(path, pred, palette=DEFAULT_PALETTE, background_label=None):
    with atomic_open(path) as f:
        f.write(render_class_map(pred, palette, background_label))


# -- dataset plumbing shared by train/eval/ablate ---------------------------------


def _load_records(run: RunConfig, split: str):
    manifest = read_manifest(run.data_dir)
    if manifest.n_classes != run.model.n_classes:
        raise ConfigError(
            f"dataset has {manifest.n_classes} classes, run config says "
            f"{run.model.n_classes}"
        )
    records = load_split(run.data_dir, manifest, split)
    for record in records:
        check_series(record, run.model)
    if run.model.task == "classification":
        records = [
            out for record in records
            if (out := make_classification_sample(record,
                                                  manifest.ignore_label))
            is not None
        ]
    return records, manifest


def _temporal_keys(records):
    return np.unique(np.concatenate([r.dates for r in records]))


def _build_trained_paths(out_dir):
    return (
        os.path.join(out_dir, "metrics.csv"),
        os.path.join(out_dir, "best.ckpt"),
        os.path.join(out_dir, "train.state"),
    )


def _train_once(run: RunConfig, resume: bool) -> float:
    records, _ = _load_records(run, "train")
    if not records:
        raise DataError("train split is empty")
    model = SitsFormer(run.model, temporal_keys=_temporal_keys(records),
                       seed=run.train.seed)
    os.makedirs(run.out_dir, exist_ok=True)
    log_path, ckpt_path, state_path = _build_trained_paths(run.out_dir)
    if not resume and os.path.exists(log_path):
        os.remove(log_path)
    best = train_loop(model, records, run.train, log_path, ckpt_path,
                      state_path=state_path, resume=resume)
    log.info("training done, best mIoU %.4f", best)
    return best


# -- subcommands ------------------------------------------------------------------


def _cmd_generate(args) -> int:
    generate_synthetic_dataset(
        args.out,
        n_samples=args.n_samples,
        n_classes=args.n_classes,
        grid=tuple(args.grid),
        t_range=tuple(args.t_range),
        seed=args.seed,
        channels=args.channels,
        noise_std=args.noise_std,
        cloud_prob=args.cloud_prob,
    )
    log.info("wrote %d samples to %s", args.n_samples, args.out)
    print(f"generated {args.n_samples} samples in {args.out}")
    return 0


def _apply_overrides(run: RunConfig, args) -> RunConfig:
    if getattr(args, "seed", None) is not None:
        run = dataclasses.replace(
            run, train=dataclasses.replace(run.train, seed=args.seed)
        )
    if getattr(args, "out_dir", None) is not None:
        run = dataclasses.replace(run, out_dir=args.out_dir)
    return run


def _cmd_train(args) -> int:
    run = _apply_overrides(parse_run_config(args.config), args)
    write_resolved_config(run)
    best = _train_once(run, args.resume)
    print(f"best train mIoU {best:.6f}")
    return 0


def _cmd_eval(args) -> int:
    run = _apply_overrides(parse_run_config(args.config), args)
    write_resolved_config(run)
    ckpt = args.checkpoint or _build_trained_paths(run.out_dir)[1]
    model = load_checkpoint(ckpt)
    records, _ = _load_records(
        dataclasses.replace(run, model=model.config), args.split
    )
    if not records:
        raise DataError(f"{args.split} split is empty")
    oa, miou, macc, table, cm = evaluate(model, records)
    write_confusion(
        os.path.join(run.out_dir, f"confusion_{args.split}.txt"), cm
    )
    with atomic_open(os.path.join(run.out_dir, f"metrics_{args.split}.txt"),
                     "w") as f:
        f.write(f"OA={oa:.6f}\nmIoU={miou:.6f}\nmAcc={macc:.6f}\n")
    print(f"OA {oa:.4f}  mIoU {miou:.4f}  mAcc {macc:.4f}")
    print("class  ref_px  iou      recall")
    for k, (ref, iou, recall) in enumerate(table):
        print(f"{k:5d}  {ref:6d}  {iou:7.4f}  {recall:7.4f}")
    return 0


def _cmd_predict(args) -> int:
    run = _apply_overrides(parse_run_config(args.config), args)
    ckpt = args.checkpoint or _build_trained_paths(run.out_dir)[1]
    model = load_checkpoint(ckpt)
    record = read_sample(args.sample)
    with no_grad():
        logits = forward(record, model)
    pred = np.argmax(logits.data, axis=-1)
    write_class_map(args.out, pred)
    log.info("wrote prediction map %s", args.out)
    print(f"wrote {args.out}")
    return 0


ABLATION_AXES = (
    ("factorization", ("temporal_first", "spatial_first")),
    ("cls_mode", ("per_class", "single")),
    ("pe_mode", ("date_lookup", "static")),
    ("cls_interactions", ("blocked", "full")),
)


def _cmd_ablate(args) -> int:
    run = _apply_overrides(parse_run_config(args.config), args)
    write_resolved_config(run)
    rows = []
    for axis, settings in ABLATION_AXES:
        for setting in settings:
            variant_model = dataclasses.replace(run.model, **{axis: setting})
            variant = dataclasses.replace(
                run,
                model=variant_model,
                out_dir=os.path.join(run.out_dir, f"{axis}_{setting}"),
            )
            os.makedirs(variant.out_dir, exist_ok=True)
            write_resolved_config(variant)
            _train_once(variant, resume=False)
            model = load_checkpoint(_build_trained_paths(variant.out_dir)[1])
            records, _ = _load_records(
                dataclasses.replace(variant, model=model.config), "val"
            )
            _, miou, _, _, _ = evaluate(model, records)
            rows.append((axis, setting, miou))
            log.info("ablation %s=%s -> mIoU %.4f", axis, setting, miou)
    table_path = os.path.join(run.out_dir, "ablation.csv")
    with atomic_open(table_path, "w") as f:
        f.write("axis,setting,mIoU\n")
        for axis, setting, miou in rows:
            f.write(f"{axis},{setting},{miou:.6f}\n")
    print(f"axis{'':14}setting{'':12}mIoU")
    for axis, setting, miou in rows:
        print(f"{axis:<18}{setting:<19}{miou:.4f}")
    print(f"wrote {table_path}")
    return 0


# -- wiring -----------------------------------------------------------------------


def _int_list(text):
    return [int(v) for v in text.split(",")]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sitsformer",
        description="Train and inspect time-series segmentation transformers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic dataset")
    gen.add_argument("--out", required=True)
    gen.add_argument("--n-samples", type=int, required=True)
    gen.add_argument("--n-classes", type=int, required=True)
    gen.add_argument("--grid", type=_int_list, default=[8, 8])
    gen.add_argument("--t-range", type=_int_list, default=[16, 24])
    gen.add_argument("--channels", type=int, default=3)
    gen.add_argument("--noise-std", type=float, default=0.05)
    gen.add_argument("--cloud-prob", type=float, default=0.05)
    gen.add_argument("--seed", type=int, default=0)
    gen.set_defaults(fn=_cmd_generate)

    train = sub.add_parser("train", help="train from a run config")
    train.add_argument("--config", required=True)
    train.add_argument("--seed", type=int, default=None)
    train.add_argument("--out-dir", default=None)
    train.add_argument("--resume", action="store_true")
    train.set_defaults(fn=_cmd_train)

    ev = sub.add_parser("eval", help="evaluate a checkpoint on a split")
    ev.add_argument("--config", required=True)
    ev.add_argument("--split", default="val", choices=("train", "val", "test"))
    ev.add_argument("--checkpoint", default=None)
    ev.add_argument("--out-dir", default=None)
    ev.set_defaults(fn=_cmd_eval)

    pred = sub.add_parser("predict", help="render an argmax class map")
    pred.add_argument("--config", required=True)
    pred.add_argument("--sample", required=True)
    pred.add_argument("--out", required=True)
    pred.add_argument("--checkpoint", default=None)
    pred.add_argument("--out-dir", default=None)
    pred.set_defaults(fn=_cmd_predict)

    ab = sub.add_parser("ablate", help="train and score every design variant")
    ab.add_argument("--config", required=True)
    ab.add_argument("--seed", type=int, default=None)
    ab.add_argument("--out-dir", default=None)
    ab.set_defaults(fn=_cmd_ablate)

    return parser


def _setup_logging() -> None:
    level_name = os.environ.get("SITSFORMER_LOG", "warning").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s",
                        force=True)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    _setup_logging()
    try:
        return args.fn(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except SitsformerError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
