"""Losses, optimizer, schedule, and the deterministic train/eval loops.

Dense runs use cross-entropy averaged over non-background pixels; global
runs use focal loss. Optimization is Adam with decoupled weight decay under
a linear-warmup, cosine-decay schedule, on gradients clipped to a global
norm of ``GRAD_CLIP_NORM``. Both loops run a batch as micro-batches of
:func:`micro_batch_size` samples, one dense forward each; training
back-propagates each micro-batch right after its forward, so one
micro-batch's tape is alive at a time whatever the batch size, and the
size comes from a fixed value budget, ``BUDGET``, not from ``batch_size``.
A batch's loss is the mean of its per-sample losses. Both loops are
reproducible bit for bit from (seed, data). Training keeps one model: the
checkpoint holds the last epoch's weights, written each epoch. A resumed
run continues the uninterrupted one exactly, and refuses a state whose
fingerprint says it belongs to another config, recipe or dataset.

Labels are checked once, by ``data.load_split``; the losses trust them. A
hand-built label that does not fit the logits fails in ``gather_last``
(ShapeError) or numpy's indexing (IndexError).
"""

import hashlib
import math
import os
from dataclasses import dataclass, fields

import numpy as np

from . import container
from .errors import ConfigError, DataError, TrainingDiverged
from .metrics import ConfusionMatrix, metrics, per_class_table
from .model import ModelConfig, SitsFormer, forward, save_checkpoint
from .tensor import (
    Tensor,
    backward,
    exp,
    gather_last,
    logsumexp,
    no_grad,
    pow_const,
    tmean,
)

STATE_MAGIC = b"SFTS"
STATE_VERSION = 3

# Adam moment decay rates and denominator guard.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# Largest global L2 norm of the gradient an Adam update sees (ViT's recipe).
GRAD_CLIP_NORM = 1.0
# Values of the temporal encoder's input, (n_locations, n_streams +
# n_frames, dim) per sample, that one micro-batch may hold (see
# micro_batch_size): 2 README demo samples, 1 reference sample.
BUDGET = 16384


# -- losses ---------------------------------------------------------------------


def masked_cross_entropy(logits: Tensor, labels, ignore_label) -> Tensor:
    """Mean over label maps of each map's softmax cross-entropy, averaged
    over its pixels not carrying ignore_label.

    ``labels`` are (..., H, W) maps and ``logits`` (..., H, W, K); every
    leading axis is a batch axis, and without one there is one map. Each
    map is normalized by its own count of counted pixels. Ignored pixels
    contribute nothing: their gradient is exactly zero, and an all-ignored
    map adds exactly zero. Labels are trusted: only ``SitsRecord`` and
    ``data.load_split`` check their range. A hand-built label of -1 is read
    silently as class K-1 (numpy's negative index); one of K or more that
    is not the ignore label fails in ``gather_last``.
    """
    labels = np.asarray(labels)
    keep = labels != ignore_label
    nll = logsumexp(logits, axis=-1) - gather_last(logits,
                                                   np.where(keep, labels, 0))
    count = keep.sum(axis=(-2, -1), keepdims=True)
    weight = keep / (np.maximum(count, 1) * keep[..., 0, 0].size)
    return (nll * Tensor(weight.astype(logits.dtype))).sum()


def focal_loss(logits: Tensor, labels, gamma: float) -> Tensor:
    """Cross-entropy scaled by (1 - p_label)^gamma; gamma=0 is plain CE.

    ``logits`` are (..., K) and ``labels`` (...); the loss is the mean over
    the leading axes, so one (K,) row with an int label is one sample.
    """
    logp = gather_last(logits, np.asarray(labels)) - logsumexp(logits, axis=-1)
    if gamma == 0:
        return tmean(-logp)
    p = exp(logp)
    return tmean(-(pow_const((-p) + 1.0, gamma) * logp))


# -- optimizer ------------------------------------------------------------------


class AdamWState:
    """First/second moment buffers plus the shared step counter."""

    def __init__(self, params):
        params = list(params)
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]
        self.step_count = 0


def adamw_step(params, state: AdamWState, lr: float,
               weight_decay: float) -> None:
    """One bias-corrected Adam update with decoupled decay, in place."""
    state.step_count += 1
    t = state.step_count
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    bias1 = 1.0 - b1 ** t
    bias2 = 1.0 - b2 ** t
    for p, m, v in zip(params, state.m, state.v, strict=True):
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        m[...] = b1 * m + (1.0 - b1) * g
        v[...] = b2 * v + (1.0 - b2) * (g * g)
        update = (m / bias1) / (np.sqrt(v / bias2) + ADAM_EPS)
        p.data[...] -= lr * (update + weight_decay * p.data)


def clip_grad_norm(params) -> float:
    """Scale the gradients in place to a global norm of at most GRAD_CLIP_NORM.

    Returns the norm before clipping. A non-finite norm leaves them as they
    are, for the caller to reject.
    """
    grads = [p.grad for p in params if p.grad is not None]
    norm = math.sqrt(sum(float(np.square(g, dtype=np.float64).sum())
                         for g in grads))
    if math.isfinite(norm) and norm > GRAD_CLIP_NORM:
        for g in grads:
            g *= GRAD_CLIP_NORM / norm
    return norm


# -- recipe ---------------------------------------------------------------------


@dataclass(frozen=True)
class TrainConfig:
    """The training recipe; every value is checked here, once."""

    epochs: int = 100
    batch_size: int = 16
    warmup_epochs: int = 10
    peak_lr: float = 1e-3
    floor_lr: float = 5e-6
    weight_decay: float = 0.01
    focal_gamma: float = 2.0
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be positive")
        if self.warmup_epochs < 0 or self.seed < 0:
            raise ConfigError(
                f"warmup_epochs and seed must be non-negative, got "
                f"{self.warmup_epochs} and {self.seed}"
            )
        if self.warmup_epochs >= self.epochs:
            raise ConfigError(
                f"warmup_epochs {self.warmup_epochs} must be below epochs "
                f"{self.epochs}"
            )
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type is float and not (math.isfinite(value) and value >= 0):
                raise ConfigError(
                    f"{f.name} must be finite and non-negative, got {value}"
                )
        if self.floor_lr > self.peak_lr:
            raise ConfigError(
                f"floor_lr {self.floor_lr} exceeds peak_lr {self.peak_lr}"
            )


def lr_at_step(cfg: TrainConfig, steps_per_epoch: int,
               global_step: int) -> float:
    """Linear 0 -> peak_lr over the warmup, then half-cosine to floor_lr."""
    warmup_steps = cfg.warmup_epochs * steps_per_epoch
    total_steps = cfg.epochs * steps_per_epoch
    step = max(0, int(global_step))
    if step <= warmup_steps:
        if warmup_steps == 0:
            return cfg.peak_lr
        return cfg.peak_lr * step / warmup_steps
    if step >= total_steps:
        return cfg.floor_lr
    tau = (step - warmup_steps) / (total_steps - warmup_steps)
    return cfg.floor_lr + 0.5 * (cfg.peak_lr - cfg.floor_lr) * (
        1.0 + math.cos(math.pi * tau)
    )


# -- loops ----------------------------------------------------------------------


def micro_batch_size(config: ModelConfig, batch_size: int) -> int:
    """Samples per forward and backward: as many as keep the temporal
    encoder's input within ``BUDGET`` values, at least 1 and at most
    ``batch_size``.

    The tape's memory grows with the micro-batch, so the budget, not
    ``batch_size``, bounds it. The split depends only on the config and
    ``batch_size``, so a resumed run splits its batches as the
    uninterrupted one did.
    """
    per_sample = (config.n_locations * (config.n_streams + config.n_frames)
                  * config.dim)
    return max(1, min(batch_size, BUDGET // per_sample))


def _micro_batches(records, size: int):
    return (records[i : i + size] for i in range(0, len(records), size))


def _labels(records) -> np.ndarray:
    return np.stack([r.labels for r in records])


def _loss_and_prediction(records, model: SitsFormer, cfg: TrainConfig,
                         ignore_label: int):
    """The mean loss of a micro-batch and its (B, ...) argmax prediction."""
    logits = forward(records, model)
    labels = _labels(records)
    if model.config.task == "segmentation":
        loss = masked_cross_entropy(logits, labels, ignore_label)
    else:
        loss = focal_loss(logits, labels, cfg.focal_gamma)
    return loss, labels, np.argmax(logits.data, axis=-1)


def _drop_log_lines_after(log_path, epoch: int) -> None:
    """Keep only the log lines of epochs up to ``epoch``.

    An epoch's line is written before its state, so a run killed between
    the two resumes from the epoch before and would log that epoch twice.
    """
    if not os.path.exists(log_path):
        return
    with open(log_path, encoding="utf-8") as f:
        kept = [line for line in f if int(line.split(",", 1)[0]) <= epoch]
    with container.atomic_open(log_path, "w") as f:
        f.writelines(kept)


def train_loop(model: SitsFormer, samples, cfg: TrainConfig, log_path,
               checkpoint_path, state_path=None, resume: bool = False):
    """Deterministic training over in-memory samples.

    Appends one "epoch,step,lr,loss,OA,mIoU" line per epoch to log_path and
    writes each epoch's weights to checkpoint_path, so it holds the last
    epoch's. When state_path is set, the full optimizer state is written
    each epoch, with a fingerprint of the run (``_fingerprint``);
    resume=True picks that state up, refuses it with ConfigError if the
    fingerprint differs, drops any log line past its epoch, and continues
    exactly as the uninterrupted run would have.
    """
    samples = list(samples)
    if not samples:
        raise DataError("training requires at least one sample")
    ignore_label = model.config.n_classes
    steps_per_epoch = math.ceil(len(samples) / cfg.batch_size)
    micro = micro_batch_size(model.config, cfg.batch_size)
    params = model.parameters()
    opt = AdamWState(params)
    start_epoch = 1
    fingerprint = (None if state_path is None
                   else _fingerprint(model, samples, cfg))
    if resume:
        if state_path is None or not os.path.exists(state_path):
            raise ConfigError("resume requested but no training state file found")
        start_epoch, _, stored = load_training_state(state_path, model, opt)
        if stored != fingerprint:
            raise ConfigError(f"{state_path} is another run's state: model "
                              "config, day keys, recipe or samples differ")
        _drop_log_lines_after(log_path, start_epoch)
        start_epoch += 1

    recent_losses = []
    for epoch in range(start_epoch, cfg.epochs + 1):
        order = np.random.default_rng([cfg.seed, 1, epoch]).permutation(
            len(samples)
        )
        cm = ConfusionMatrix(model.config.n_classes)
        epoch_losses = []
        lr = 0.0
        for chunk_start in range(0, len(order), cfg.batch_size):
            batch = [samples[int(i)]
                     for i in order[chunk_start : chunk_start + cfg.batch_size]]
            model.zero_grad()
            loss_value = 0.0
            for records in _micro_batches(batch, micro):
                loss, labels, pred = _loss_and_prediction(
                    records, model, cfg, ignore_label
                )
                cm.update(labels, pred)
                share = len(records) / len(batch)
                loss_value += loss.item() * share
                # Parameter grads add up until zero_grad, so the batch mean's
                # gradient needs no more than this micro-batch's tape.
                backward(loss * share)
            recent_losses.append(loss_value)
            del recent_losses[:-20]
            step = opt.step_count + 1
            lr = lr_at_step(cfg, steps_per_epoch, step)
            grad_norm = clip_grad_norm(params)
            if not (math.isfinite(loss_value) and math.isfinite(grad_norm)):
                raise TrainingDiverged(step, lr, recent_losses, grad_norm)
            adamw_step(params, opt, lr, cfg.weight_decay)
            epoch_losses.append(loss_value)
        oa, miou, _ = metrics(cm)
        mean_loss = float(np.mean(epoch_losses))
        # repr round-trips floats exactly, so the logged lr IS lr_at_step.
        with open(log_path, "a", encoding="utf-8") as f:
            f.write(
                f"{epoch},{opt.step_count},{lr!r},{mean_loss!r},"
                f"{oa:.6f},{miou:.6f}\n"
            )
        save_checkpoint(checkpoint_path, model)
        if state_path is not None:
            save_training_state(state_path, model, opt, epoch, fingerprint)


def evaluate(model: SitsFormer, samples):
    """One gradient-free pass; returns (OA, mIoU, mAcc, per-class table, cm).

    Samples run in micro-batches by the training rule. Nothing is recorded,
    so each encoder runs its rows in chunks of at most ``nn.CHUNK`` input
    values, and its largest transients scale with the chunk, not with the
    micro-batch.
    """
    samples = list(samples)
    if not samples:
        raise DataError("evaluation requires at least one sample")
    cm = ConfusionMatrix(model.config.n_classes)
    with no_grad():
        for records in _micro_batches(
                samples, micro_batch_size(model.config, len(samples))):
            logits = forward(records, model)
            cm.update(_labels(records), np.argmax(logits.data, axis=-1))
    oa, miou, macc = metrics(cm)
    return oa, miou, macc, per_class_table(cm), cm


# -- training state io ----------------------------------------------------------


@dataclass(frozen=True)
class _StateHeader:
    epoch: int
    step: int
    fingerprint: str


def _fingerprint(model: SitsFormer, samples, cfg: TrainConfig) -> str:
    """sha256 over what a resumed run must share with the run it continues:
    the model config, its day keys, the recipe, and every sample's dates,
    values and labels in order. The arrays are hashed in place.
    """
    h = hashlib.sha256(container.config_text(model.config).encode("utf-8"))
    h.update(np.ascontiguousarray(model.temporal_pe.keys))
    h.update(container.config_text(cfg).encode("utf-8"))
    for r in samples:
        for a in (r.dates, r.values, r.labels):
            h.update(np.ascontiguousarray(a))
    return h.hexdigest()


def _state_tensors(model: SitsFormer, opt: AdamWState):
    return [
        (name, (p.data, m, v))
        for (name, p), m, v in zip(model.named_parameters(), opt.m, opt.v)
    ]


def save_training_state(path, model: SitsFormer, opt: AdamWState, epoch: int,
                        fingerprint: str) -> None:
    """Write weights plus optimizer moments so a run can continue bitwise."""
    with container.create(path, STATE_MAGIC, STATE_VERSION) as w:
        w.header(_StateHeader(epoch, opt.step_count, fingerprint))
        w.tensors(_state_tensors(model, opt))


def load_training_state(path, model: SitsFormer, opt: AdamWState):
    """Restore weights, moments and step count in place; returns
    (epoch, step, fingerprint).
    """
    r = container.Reader(path, STATE_MAGIC, STATE_VERSION, "training state")
    header = r.header(_StateHeader)
    r.tensors(_state_tensors(model, opt))
    r.end()
    opt.step_count = header.step
    return header.epoch, header.step, header.fingerprint
