"""Fixed-input writers and matching readers for the three container formats.

Format tests run the same checks over every format through FORMATS; the
byte pins in test_container.py hash what these writers produce.
"""

import hashlib

import numpy as np

from sitsformer.cli import RunConfig, write_resolved_config
from sitsformer.data import (
    KIND_CLASSIFICATION,
    DatasetManifest,
    SitsRecord,
    default_class_specs,
    generate_sample,
    read_sample,
    write_manifest,
    write_sample,
)
from sitsformer.model import ModelConfig, SitsFormer, load_checkpoint, save_checkpoint
from sitsformer.training import (
    AdamWState,
    TrainConfig,
    adamw_step,
    load_training_state,
    save_training_state,
)

TOY = dict(n_classes=3, dim=8, depth_temporal=1, depth_spatial=1, n_heads=2,
           mlp_ratio=2, patch=(1, 2, 2), input_shape=(4, 4, 4, 2))

# Bytes 6-9 hold the header length; the key=value text starts here.
HEADER_TEXT_OFFSET = 10
# The run fingerprint write_state records; any sha256 hex digest will do.
STATE_FINGERPRINT = hashlib.sha256(b"toy run").hexdigest()


def toy_model(seed=21):
    return SitsFormer(ModelConfig(**TOY), temporal_keys=[3, 17, 40, 101],
                      seed=seed)


def sample_record():
    specs = default_class_specs(3, channels=2, noise_std=0.05, cloud_prob=0.1)
    return generate_sample(4, 99, specs, grid=(6, 6), t_range=(5, 8))


def write_sample_file(path):
    write_sample(path, sample_record())


def write_checkpoint(path):
    save_checkpoint(path, toy_model())


def write_state(path):
    """One AdamW step on constant gradients, so the moments are not zero."""
    model = toy_model()
    params = model.parameters()
    opt = AdamWState(params)
    for i, p in enumerate(params):
        p.grad = np.full_like(p.data, 0.25 * (i + 1))
    adamw_step(params, opt, lr=1e-3, weight_decay=0.01)
    save_training_state(path, model, opt, 3, STATE_FINGERPRINT)


def read_state(path):
    model = toy_model(seed=0)
    return load_training_state(path, model, AdamWState(model.parameters()))


FORMATS = {
    "sample": (write_sample_file, read_sample),
    "checkpoint": (write_checkpoint, load_checkpoint),
    "state": (write_state, read_state),
}
HEADER_FORMATS = ("checkpoint", "state")


def write_pinned_files():
    """Every file test_container.py pins, written into the working directory.

    resolved.cfg records its out_dir, so the run config names a relative one.
    """
    write_checkpoint("toy.ckpt")
    write_state("train.state")
    record = sample_record()
    write_sample("seg.sits", record)
    write_sample("cls.sits", SitsRecord(record.values, record.dates, 2,
                                        KIND_CLASSIFICATION))
    write_manifest(".", DatasetManifest((("seg.sits", "train"),
                                         ("cls.sits", "val")),
                                        ("a", "b", "c"), 99))
    write_resolved_config(RunConfig(
        ModelConfig(**{**TOY, "task": "classification", "cls_mode": "single"}),
        TrainConfig(epochs=7, warmup_epochs=2, peak_lr=3e-3, floor_lr=1e-7,
                    weight_decay=0.05, focal_gamma=1.5, seed=9),
        "data", "run",
    ))
