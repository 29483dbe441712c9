"""Losses, optimizer, schedule, and the deterministic train/eval loops.

Dense runs use cross-entropy averaged over non-background pixels; global
runs use focal loss. Optimization is Adam with decoupled weight decay under
a linear-warmup, cosine-decay schedule. Both loops are reproducible bit for
bit from (seed, data), and a resumed run continues the uninterrupted one
exactly.
"""

import math
import os
from dataclasses import dataclass

import numpy as np

from . import container
from .errors import (
    CompatibilityError,
    ConfigError,
    DataError,
    ShapeError,
    TrainingDiverged,
)
from .metrics import ConfusionMatrix, metrics, per_class_table
from .model import SitsFormer, forward, save_checkpoint
from .tensor import (
    Tensor,
    backward,
    exp,
    gather_last,
    logsumexp,
    no_grad,
    pow_const,
)

STATE_MAGIC = b"SFTS"
STATE_VERSION = 1


# -- losses ---------------------------------------------------------------------


def masked_cross_entropy(logits: Tensor, labels, ignore_label) -> Tensor:
    """Softmax cross-entropy averaged over pixels not carrying ignore_label.

    Ignored pixels contribute nothing: their gradient is exactly zero, and
    an all-ignored map yields a zero loss.
    """
    labels = np.asarray(labels)
    if labels.shape != logits.shape[:-1]:
        raise ShapeError(
            f"labels {labels.shape} do not match logits {logits.shape[:-1]}"
        )
    n_classes = logits.shape[-1]
    keep = labels != ignore_label
    valid = (labels >= 0) & (labels < n_classes)
    if np.any(keep & ~valid):
        bad = labels[keep & ~valid].ravel()[0]
        raise DataError(
            f"label {int(bad)} outside [0, {n_classes}) and not the ignore label"
        )
    count = int(keep.sum())
    if count == 0:
        # Multiplying by zero keeps the gradient path alive but exactly null.
        return logits.sum() * 0.0
    safe_labels = np.where(keep, labels, 0)
    nll = logsumexp(logits, axis=-1) - gather_last(logits, safe_labels)
    masked = nll * Tensor(keep.astype(logits.dtype))
    return masked.sum() * (1.0 / count)


def focal_loss(logits: Tensor, label: int, gamma: float = 2.0) -> Tensor:
    """Cross-entropy scaled by (1 - p_label)^gamma; gamma=0 is plain CE."""
    label = int(label)
    n_classes = logits.shape[-1]
    if logits.ndim != 1:
        raise ShapeError(f"expected a logit vector, got {logits.shape}")
    if not 0 <= label < n_classes:
        raise DataError(f"label {label} outside [0, {n_classes})")
    logp = logits[label] - logsumexp(logits, axis=-1)
    if gamma == 0:
        return -logp
    p = exp(logp)
    return -(pow_const((-p) + 1.0, gamma) * logp)


# -- optimizer ------------------------------------------------------------------


class AdamWState:
    """First/second moment buffers plus the shared step counter."""

    def __init__(self, params, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8, weight_decay: float = 0.01):
        params = list(params)
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]
        self.step_count = 0
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay


def adamw_step(params, state: AdamWState, lr: float) -> None:
    """One bias-corrected Adam update with decoupled decay, in place."""
    params = list(params)
    if len(params) != len(state.m):
        raise ShapeError(
            f"optimizer tracks {len(state.m)} tensors, got {len(params)}"
        )
    state.step_count += 1
    t = state.step_count
    b1, b2 = state.beta1, state.beta2
    bias1 = 1.0 - b1 ** t
    bias2 = 1.0 - b2 ** t
    for p, m, v in zip(params, state.m, state.v):
        if m.shape != p.shape:
            raise ShapeError(
                f"moment buffer {m.shape} does not match parameter {p.shape}"
            )
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        m[...] = b1 * m + (1.0 - b1) * g
        v[...] = b2 * v + (1.0 - b2) * (g * g)
        update = (m / bias1) / (np.sqrt(v / bias2) + state.eps)
        p.data[...] -= lr * (update + state.weight_decay * p.data)


# -- schedule -------------------------------------------------------------------


@dataclass(frozen=True)
class LRSchedule:
    """Linear 0 -> peak over the warmup, then half-cosine peak -> floor."""

    total_epochs: int
    steps_per_epoch: int
    warmup_epochs: int = 10
    peak: float = 1e-3
    floor: float = 5e-6

    def __post_init__(self):
        if self.total_epochs <= self.warmup_epochs:
            raise ConfigError(
                f"total_epochs {self.total_epochs} must exceed warmup "
                f"{self.warmup_epochs}"
            )
        if self.steps_per_epoch < 1:
            raise ConfigError("steps_per_epoch must be positive")

    @property
    def warmup_steps(self) -> int:
        return self.warmup_epochs * self.steps_per_epoch

    @property
    def total_steps(self) -> int:
        return self.total_epochs * self.steps_per_epoch


def lr_at_step(schedule: LRSchedule, global_step: int) -> float:
    step = max(0, int(global_step))
    if step <= schedule.warmup_steps:
        if schedule.warmup_steps == 0:
            return schedule.peak
        return schedule.peak * step / schedule.warmup_steps
    if step >= schedule.total_steps:
        return schedule.floor
    tau = (step - schedule.warmup_steps) / (
        schedule.total_steps - schedule.warmup_steps
    )
    return schedule.floor + 0.5 * (schedule.peak - schedule.floor) * (
        1.0 + math.cos(math.pi * tau)
    )


# -- loops ----------------------------------------------------------------------


@dataclass(frozen=True)
class TrainConfig:
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


def _sample_loss_and_prediction(record, model: SitsFormer, cfg: TrainConfig,
                                ignore_label: int):
    logits = forward(record, model)
    if model.config.task == "segmentation":
        loss = masked_cross_entropy(logits, record.labels, ignore_label)
    else:
        loss = focal_loss(logits, int(record.labels), cfg.focal_gamma)
    return loss, np.argmax(logits.data, axis=-1)


def train_loop(model: SitsFormer, samples, cfg: TrainConfig, log_path,
               checkpoint_path, state_path=None, resume: bool = False,
               stop_after_epoch=None):
    """Deterministic training over in-memory samples.

    Appends one "epoch,step,lr,loss,OA,mIoU" line per epoch to log_path and
    keeps the best-mIoU weights at checkpoint_path. When state_path is set,
    the full optimizer state is written each epoch; resume=True picks that
    state up and continues exactly as the uninterrupted run would have.
    stop_after_epoch ends the process early without shortening the schedule,
    emulating an interrupted run that a later resume completes.
    """
    samples = list(samples)
    if not samples:
        raise DataError("training requires at least one sample")
    ignore_label = model.config.n_classes
    steps_per_epoch = math.ceil(len(samples) / cfg.batch_size)
    schedule = LRSchedule(
        total_epochs=cfg.epochs,
        steps_per_epoch=steps_per_epoch,
        warmup_epochs=cfg.warmup_epochs,
        peak=cfg.peak_lr,
        floor=cfg.floor_lr,
    )
    params = [p for _, p in model.named_parameters()]
    opt = AdamWState(params, weight_decay=cfg.weight_decay)
    start_epoch = 1
    global_step = 0
    best_miou = -1.0
    if resume:
        if state_path is None or not os.path.exists(state_path):
            raise ConfigError("resume requested but no training state file found")
        start_epoch, global_step, best_miou = load_training_state(
            state_path, model, opt
        )
        start_epoch += 1

    recent_losses = []
    for epoch in range(start_epoch, cfg.epochs + 1):
        order = np.random.default_rng([cfg.seed, 1, epoch]).permutation(
            len(samples)
        )
        cm = ConfusionMatrix(model.config.n_classes, ignore_label)
        epoch_losses = []
        lr = 0.0
        for chunk_start in range(0, len(order), cfg.batch_size):
            batch = order[chunk_start : chunk_start + cfg.batch_size]
            model.zero_grad()
            total = None
            for idx in batch:
                record = samples[int(idx)]
                loss, pred = _sample_loss_and_prediction(
                    record, model, cfg, ignore_label
                )
                cm.update(record.labels, pred)
                total = loss if total is None else total + loss
            batch_loss = total * (1.0 / len(batch))
            loss_value = float(batch_loss.item())
            recent_losses.append(loss_value)
            del recent_losses[:-20]
            global_step += 1
            lr = lr_at_step(schedule, global_step)
            if not math.isfinite(loss_value):
                raise TrainingDiverged(global_step, lr, recent_losses)
            backward(batch_loss)
            adamw_step(params, opt, lr)
            epoch_losses.append(loss_value)
        oa, miou, _ = metrics(cm)
        mean_loss = float(np.mean(epoch_losses))
        # repr round-trips floats exactly, so the logged lr IS lr_at_step.
        with open(log_path, "a", encoding="utf-8") as f:
            f.write(
                f"{epoch},{global_step},{lr!r},{mean_loss!r},"
                f"{oa:.6f},{miou:.6f}\n"
            )
        if miou > best_miou:
            best_miou = miou
            save_checkpoint(checkpoint_path, model)
        if state_path is not None:
            save_training_state(state_path, model, opt, epoch, global_step,
                                best_miou)
        if stop_after_epoch is not None and epoch >= stop_after_epoch:
            break
    return best_miou


def evaluate(model: SitsFormer, samples):
    """One gradient-free pass; returns (OA, mIoU, mAcc, per-class table, cm)."""
    samples = list(samples)
    if not samples:
        raise DataError("evaluation requires at least one sample")
    ignore_label = model.config.n_classes
    cm = ConfusionMatrix(model.config.n_classes, ignore_label)
    with no_grad():
        for record in samples:
            logits = forward(record, model)
            cm.update(record.labels, np.argmax(logits.data, axis=-1))
    oa, miou, macc = metrics(cm)
    return oa, miou, macc, per_class_table(cm), cm


# -- training state io ----------------------------------------------------------


@dataclass(frozen=True)
class _StateHeader:
    epoch: int
    global_step: int
    opt_step: int
    best_miou: float


def _state_tensors(model: SitsFormer, opt: AdamWState):
    return [
        (name, (p.data, m, v))
        for (name, p), m, v in zip(model.named_parameters(), opt.m, opt.v)
    ]


def save_training_state(path, model: SitsFormer, opt: AdamWState, epoch: int,
                        global_step: int, best_miou: float) -> None:
    """Write weights plus optimizer moments so a run can continue bitwise."""
    header = _StateHeader(epoch, global_step, opt.step_count, best_miou)
    with container.create(path, STATE_MAGIC, STATE_VERSION) as w:
        w.header(header)
        w.tensors(_state_tensors(model, opt))


def load_training_state(path, model: SitsFormer, opt: AdamWState):
    """Restore weights and moments in place; returns (epoch, step, best_miou)."""
    r = container.Reader(path, STATE_MAGIC, "training state")
    if r.version != STATE_VERSION:
        raise CompatibilityError(
            f"training state version {r.version} unsupported "
            f"(this build reads {STATE_VERSION})"
        )
    header = r.header(_StateHeader)
    r.tensors(_state_tensors(model, opt))
    r.end()
    opt.step_count = header.opt_step
    return header.epoch, header.global_step, header.best_miou
