"""Patch tokenization and position encodings for image time series.

A sample (data.SitsSeries) is a stack of T co-registered rasters plus the
acquisition day of each frame. Tokens are non-overlapping (t, h, w) patches
projected to the model width; temporal position comes from a per-day lookup
table keyed by acquisition day rather than by sequence index.
"""

import numpy as np

from .errors import ConfigError, ShapeError
from .nn import INIT_STD, Affine, trunc_normal
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
    """Cut (T, H, W, C) into patches and project each to the model width.

    Returns a (N_T, N_H, N_W, d) grid in (time, row, col) order. Frames
    beyond N_T * t are dropped; H and W must divide evenly.
    """
    if not isinstance(values, Tensor):
        values = Tensor(values)
    if values.ndim != 4:
        raise ShapeError(f"expected (T, H, W, C) input, got {values.shape}")
    t, h, w = patch
    T, H, W, C = values.shape
    if H % h != 0 or W % w != 0:
        raise ConfigError(
            f"patch ({h}, {w}) must divide the frame evenly: H={H} mod {h} = "
            f"{H % h}, W={W} mod {w} = {W % w}"
        )
    flat = t * h * w * C
    if embed.weight.shape[0] != flat:
        raise ShapeError(
            f"embedding expects {embed.weight.shape[0]} inputs, "
            f"patch flattens to {flat}"
        )
    n_t, n_h, n_w = T // t, H // h, W // w
    if n_t * t != T:
        values = getitem(values, slice(0, n_t * t))
    x = reshape(values, (n_t, t, n_h, h, n_w, w, C))
    x = transpose(x, (0, 2, 4, 1, 3, 5, 6))
    x = reshape(x, (n_t, n_h, n_w, flat))
    return embed(x)


class TemporalPositionTable:
    """Learned per-day position rows, keyed by acquisition day.

    Keys are the distinct days seen at build time, kept sorted. Querying an
    unseen day falls back to the nearest key; an exact tie resolves to the
    earlier day.
    """

    def __init__(self, keys, dim: int, rng=None, dtype=DEFAULT_DTYPE):
        keys = np.asarray(keys, dtype=np.int64)
        if keys.ndim != 1 or keys.size == 0:
            raise ConfigError("temporal position table needs at least one day key")
        if np.unique(keys).size != keys.size:
            raise ConfigError("temporal position table keys must be distinct")
        self.keys = np.sort(keys)
        if rng is None:
            rng = np.random.default_rng(0)
        self.table = Tensor(
            trunc_normal(rng, (keys.size, dim), INIT_STD, dtype),
            requires_grad=True,
        )

    @property
    def dim(self) -> int:
        return self.table.shape[1]

    def row_indices(self, dates) -> np.ndarray:
        """Map each date to its table row (nearest key, ties to earlier)."""
        dates = np.asarray(dates, dtype=np.int64)
        pos = np.searchsorted(self.keys, dates)
        lo = np.clip(pos - 1, 0, self.keys.size - 1)
        hi = np.clip(pos, 0, self.keys.size - 1)
        take_hi = (self.keys[hi] - dates) < (dates - self.keys[lo])
        return np.where(take_hi, hi, lo)

    def __call__(self, dates) -> Tensor:
        return getitem(self.table, self.row_indices(dates))

    def named_parameters(self, prefix: str):
        return [(prefix + ".table", self.table)]


class SpatialPositionTable:
    """One learned row per token-grid location, added before spatial attention."""

    def __init__(self, n_locations: int, dim: int, rng=None, dtype=DEFAULT_DTYPE):
        if n_locations < 1:
            raise ConfigError("spatial position table needs at least one location")
        if rng is None:
            rng = np.random.default_rng(0)
        self.table = Tensor(
            trunc_normal(rng, (n_locations, dim), INIT_STD, dtype),
            requires_grad=True,
        )

    def named_parameters(self, prefix: str):
        return [(prefix + ".table", self.table)]


class ClsTokenBank:
    """Learned class tokens: one per class for each encoder stage.

    temporal: (K, d), prepended to every location's token series.
    spatial: (K, 1, d), one global readout token per class map.
    """

    def __init__(self, n_cls: int, dim: int, rng=None, dtype=DEFAULT_DTYPE):
        if n_cls < 1:
            raise ConfigError("need at least one cls token")
        if rng is None:
            rng = np.random.default_rng(0)
        self.temporal = Tensor(
            trunc_normal(rng, (n_cls, dim), INIT_STD, dtype), requires_grad=True
        )
        self.spatial = Tensor(
            trunc_normal(rng, (n_cls, 1, dim), INIT_STD, dtype),
            requires_grad=True,
        )

    def named_parameters(self, prefix: str):
        return [
            (prefix + ".temporal", self.temporal),
            (prefix + ".spatial", self.spatial),
        ]


def build_temporal_input(grid: Tensor, pe: Tensor, cls_tokens: Tensor) -> Tensor:
    """Assemble per-location token series for the temporal encoder.

    grid (N_T, N_H, N_W, d) + pe (N_T, d) broadcast over locations, then the
    same K cls tokens are prepended at every location. Output is
    (N_H * N_W, K + N_T, d).
    """
    if grid.ndim != 4:
        raise ShapeError(f"token grid must be 4-d, got {grid.shape}")
    n_t, n_h, n_w, d = grid.shape
    if pe.shape != (n_t, d):
        raise ShapeError(
            f"temporal encodings {pe.shape} do not match grid ({n_t}, {d})"
        )
    k = cls_tokens.shape[0]
    if cls_tokens.shape != (k, d):
        raise ShapeError(f"cls tokens must be (K, {d}), got {cls_tokens.shape}")
    x = grid + reshape(pe, (n_t, 1, 1, d))
    x = transpose(x, (1, 2, 0, 3))
    x = reshape(x, (n_h * n_w, n_t, d))
    cls = broadcast_to(reshape(cls_tokens, (1, k, d)), (n_h * n_w, k, d))
    return concat([cls, x], axis=1)


def build_spatial_input(cls_out: Tensor, ps: Tensor, cls_tokens: Tensor) -> Tensor:
    """Assemble per-class location sequences for the spatial encoder.

    cls_out (N_H * N_W, K, d) are the retained temporal cls states. Transposed
    to (K, N_H * N_W, d), spatial encodings added, and each class map gets one
    global token in front. Output is (K, 1 + N_H * N_W, d).
    """
    if cls_out.ndim != 3:
        raise ShapeError(f"expected (locations, K, d), got {cls_out.shape}")
    n_loc, k, d = cls_out.shape
    if ps.shape != (n_loc, d):
        raise ShapeError(
            f"spatial encodings {ps.shape} do not match ({n_loc}, {d})"
        )
    if cls_tokens.shape != (k, 1, d):
        raise ShapeError(
            f"global cls tokens must be ({k}, 1, {d}), got {cls_tokens.shape}"
        )
    z = transpose(cls_out, (1, 0, 2))
    z = z + reshape(ps, (1, n_loc, d))
    return concat([cls_tokens, z], axis=1)
