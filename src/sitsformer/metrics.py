"""Confusion-matrix bookkeeping and the derived summary scores."""

import numpy as np

from .container import atomic_open
from .errors import MetricError, ShapeError


class ConfusionMatrix:
    """K x K integer counts; rows are reference classes, columns predictions.

    Pixels carrying the ignore label ``n_classes`` are never counted, so
    background stays out of every score derived from the matrix.
    """

    def __init__(self, n_classes: int):
        if n_classes < 1:
            raise MetricError("confusion matrix needs at least one class")
        self.n_classes = n_classes
        self.counts = np.zeros((n_classes, n_classes), dtype=np.int64)

    def update(self, reference, predicted) -> None:
        """Count each (reference, predicted) pixel pair.

        Labels are trusted: only ``SitsRecord`` and ``data.load_split``
        check their range. A hand-built label of -1 is counted silently as
        class K-1 (numpy's negative index); numpy's IndexError is the
        backstop for one past ``n_classes`` or a misaligned map.
        """
        reference = np.asarray(reference).ravel()
        keep = reference != self.n_classes
        predicted = np.asarray(predicted).ravel()[keep]
        np.add.at(self.counts, (reference[keep], predicted), 1)

    @classmethod
    def from_counts(cls, counts) -> "ConfusionMatrix":
        counts = np.asarray(counts, dtype=np.int64)
        if counts.ndim != 2 or counts.shape[0] != counts.shape[1]:
            raise ShapeError(f"counts must be square, got {counts.shape}")
        if np.any(counts < 0):
            raise MetricError("confusion counts must be non-negative")
        cm = cls(counts.shape[0])
        cm.counts = counts.copy()
        return cm

    def total(self) -> int:
        return int(self.counts.sum())


def _per_class(cm: ConfusionMatrix):
    """Per-class float64 (true positive, reference, union) pixel counts."""
    counts = cm.counts
    tp = np.diag(counts).astype(np.float64)
    ref = counts.sum(axis=1).astype(np.float64)
    pred = counts.sum(axis=0).astype(np.float64)
    return tp, ref, ref + pred - tp


def metrics(cm: ConfusionMatrix):
    """Return (overall accuracy, mean IoU, mean per-class recall).

    Classes absent from both reference and prediction are left out of the
    IoU average; classes with no reference pixels are left out of the recall
    average. This keeps degenerate 0/0 ratios from polluting the means.
    """
    total = cm.counts.sum()
    if total == 0:
        raise MetricError("confusion matrix is empty, no metrics defined")
    tp, ref, union = _per_class(cm)

    oa = float(tp.sum() / total)

    present = union > 0
    iou = np.zeros_like(tp)
    iou[present] = tp[present] / union[present]
    miou = float(iou[present].mean())

    seen = ref > 0
    recall = np.zeros_like(tp)
    recall[seen] = tp[seen] / ref[seen]
    macc = float(recall[seen].mean())

    return oa, miou, macc


def per_class_table(cm: ConfusionMatrix):
    """Per-class (reference count, IoU or nan, recall or nan) rows."""
    tp, ref, union = _per_class(cm)
    rows = []
    for k in range(cm.n_classes):
        iou = tp[k] / union[k] if union[k] > 0 else float("nan")
        recall = tp[k] / ref[k] if ref[k] > 0 else float("nan")
        rows.append((int(ref[k]), iou, recall))
    return rows


def write_confusion(path, cm: ConfusionMatrix) -> None:
    """Dump the counts as a plain-text integer grid, one row per line."""
    with atomic_open(path, "w") as f:
        for row in cm.counts:
            f.write(" ".join(str(int(v)) for v in row) + "\n")
