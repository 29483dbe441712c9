"""Patch tokenization and position encodings for image time series.

A sample (data.SitsSeries) is a stack of T co-registered rasters plus the
acquisition day of each frame. Tokens are non-overlapping (t, h, w) patches
projected to the model width; temporal position comes from a per-day lookup
table keyed by acquisition day rather than by sequence index.
"""

import numpy as np

from .errors import ConfigError
from .nn import Affine, trunc_normal
from .tensor import (
    DEFAULT_DTYPE,
    Tensor,
    broadcast_to,
    concat,
    getitem,
    reshape,
    transpose,
)


def tokenize_sits(values: Tensor, patch, embed: Affine) -> Tensor:
    """Cut (B, T, H, W, C) into patches and project each to the model width.

    Returns a (B, N_T, N_H, N_W, d) grid in (sample, time, row, col) order.
    ``ModelConfig`` and ``check_series`` fix the shapes; a series the patch
    does not divide fails in ``reshape``.
    """
    if not isinstance(values, Tensor):
        values = Tensor(values)
    t, h, w = patch
    B, T, H, W, C = values.shape
    flat = t * h * w * C
    n_t, n_h, n_w = T // t, H // h, W // w
    x = reshape(values, (B, n_t, t, n_h, h, n_w, w, C))
    x = transpose(x, (0, 1, 3, 5, 2, 4, 6, 7))
    x = reshape(x, (B, n_t, n_h, n_w, flat))
    return embed(x)


class TemporalPositionTable:
    """Learned per-day position rows, keyed by acquisition day.

    Keys are the distinct days seen at build time, kept sorted. Querying an
    unseen day falls back to the nearest key; an exact tie resolves to the
    earlier day.
    """

    def __init__(self, keys, dim: int, rng: np.random.Generator,
                 dtype=DEFAULT_DTYPE):
        keys = np.asarray(keys, dtype=np.int64)
        if keys.ndim != 1 or keys.size == 0:
            raise ConfigError("temporal position table needs at least one day key")
        if np.unique(keys).size != keys.size:
            raise ConfigError("temporal position table keys must be distinct")
        self.keys = np.sort(keys)
        self.table = trunc_normal(rng, (keys.size, dim), dtype)

    def row_indices(self, dates) -> np.ndarray:
        """Map each date to its table row (nearest key, ties to earlier);
        any shape of dates, such as (B, T), gives rows of that shape."""
        dates = np.asarray(dates, dtype=np.int64)
        pos = np.searchsorted(self.keys, dates)
        lo = np.clip(pos - 1, 0, self.keys.size - 1)
        hi = np.clip(pos, 0, self.keys.size - 1)
        take_hi = (self.keys[hi] - dates) < (dates - self.keys[lo])
        return np.where(take_hi, hi, lo)

    def __call__(self, dates) -> Tensor:
        return getitem(self.table, self.row_indices(dates))


def build_temporal_input(grid: Tensor, pe: Tensor, cls_tokens: Tensor) -> Tensor:
    """Assemble per-location token series for the temporal encoder.

    grid (B, N_T, N_H, N_W, d) + pe (B, N_T, d) broadcast over locations,
    then the same K cls tokens are prepended at every location. Output is
    (B, N_H * N_W, K + N_T, d).
    """
    b, n_t, n_h, n_w, d = grid.shape
    k = cls_tokens.shape[0]
    x = grid + reshape(pe, (b, n_t, 1, 1, d))
    x = transpose(x, (0, 2, 3, 1, 4))
    x = reshape(x, (b, n_h * n_w, n_t, d))
    cls = broadcast_to(cls_tokens, (b, n_h * n_w, k, d))
    return concat([cls, x], axis=2)


def build_spatial_input(cls_out: Tensor, ps: Tensor, cls_tokens: Tensor) -> Tensor:
    """Assemble per-class location sequences for the spatial encoder.

    cls_out (B, N_H * N_W, K, d) are the retained temporal cls states.
    Transposed to (B, K, N_H * N_W, d), spatial encodings added, and each
    class map gets one global token in front. Output is
    (B, K, 1 + N_H * N_W, d).
    """
    b, n_loc, k, d = cls_out.shape
    z = transpose(cls_out, (0, 2, 1, 3))
    z = z + reshape(ps, (1, 1, n_loc, d))
    return concat([broadcast_to(cls_tokens, (b, k, 1, d)), z], axis=2)
