"""Factorized temporo-spatial transformer for image time series.

The model attends along time first (one token series per patch location,
with per-class cls tokens prepended), keeps only the cls states, then
attends along space (one sequence per class stream). Since only the cls
states are kept, the last temporal block is class attention (CaiT): only
the cls tokens query, and every token is a key and a value. Dense
predictions come from projecting each spatial token back to its patch of
pixels; global predictions come from the per-stream readout tokens.

Both factorization orders share one wiring. ``spatial_first`` only adds a
per-frame spatial stage in front of the temporal one inside
:func:`temporal_encode`; :func:`forward` then reads its streams straight
off the temporal cls states instead of running :func:`spatial_encode`.

Every stage carries a leading sample axis: :func:`forward` stacks a list
of series into one dense batch, and runs a single series as a batch of
one.

Every axis of that design is switchable for comparison runs: factorization
order, number of cls tokens, temporal position source, and whether class
streams may attend to each other.
"""

from dataclasses import dataclass

import numpy as np

from . import container, nn
from .data import SitsSeries
from .embedding import (
    TemporalPositionTable,
    build_spatial_input,
    build_temporal_input,
    tokenize_sits,
)
from .errors import ConfigError, ShapeError
from .nn import Affine, BlockWeights, encoder_forward, trunc_normal
from .tensor import DEFAULT_DTYPE, Tensor, getitem, matmul, reshape, tmean, transpose

# Each choice field of ModelConfig and its allowed values, in field order.
# Every field but ``task`` is an ablation axis.
CHOICES = {
    "task": ("segmentation", "classification"),
    "factorization": ("temporal_first", "spatial_first"),
    "cls_mode": ("per_class", "single"),
    "pe_mode": ("date_lookup", "static"),
    "cls_interactions": ("blocked", "full"),
}

CHECKPOINT_MAGIC = b"SFCK"
CHECKPOINT_VERSION = 2


@dataclass(frozen=True)
class ModelConfig:
    """Architecture settings plus the comparison-run axes.

    Defaults are the reference setup: per-class cls tokens, day-keyed
    temporal encodings, blocked class streams, time attended before space.
    """

    n_classes: int = 17
    dim: int = 128
    depth_temporal: int = 4
    depth_spatial: int = 4
    n_heads: int = 4
    mlp_ratio: int = 4
    patch: tuple = (1, 2, 2)
    input_shape: tuple = (52, 24, 24, 13)
    task: str = "segmentation"
    factorization: str = "temporal_first"
    cls_mode: str = "per_class"
    pe_mode: str = "date_lookup"
    cls_interactions: str = "blocked"

    def __post_init__(self):
        object.__setattr__(self, "patch", tuple(int(v) for v in self.patch))
        object.__setattr__(
            self, "input_shape", tuple(int(v) for v in self.input_shape)
        )
        if self.n_classes < 1:
            raise ConfigError(f"n_classes must be positive, got {self.n_classes}")
        if self.n_heads < 1 or self.mlp_ratio < 1:
            raise ConfigError(
                f"n_heads and mlp_ratio must be positive, got {self.n_heads} "
                f"and {self.mlp_ratio}"
            )
        if self.dim < 1 or self.dim % self.n_heads != 0:
            raise ConfigError(
                f"dim {self.dim} must be a positive multiple of n_heads "
                f"{self.n_heads}"
            )
        if self.depth_temporal < 0 or self.depth_spatial < 0:
            raise ConfigError("encoder depths must be non-negative")
        if len(self.patch) != 3 or any(v < 1 for v in self.patch):
            raise ConfigError(f"patch must be three positive ints, got {self.patch}")
        if len(self.input_shape) != 4 or any(v < 1 for v in self.input_shape):
            raise ConfigError(
                f"input_shape must be (T, H, W, C), got {self.input_shape}"
            )
        if any(n % p for n, p in zip(self.input_shape, self.patch)):
            raise ConfigError(
                f"patch {self.patch} must divide (T, H, W) = "
                f"{self.input_shape[:3]}"
            )
        for name, allowed in CHOICES.items():
            value = getattr(self, name)
            if value not in allowed:
                raise ConfigError(f"{name} must be one of {allowed}, got {value!r}")

    # derived sizes

    @property
    def n_frames(self) -> int:
        return self.input_shape[0] // self.patch[0]

    @property
    def grid_hw(self) -> tuple:
        return (
            self.input_shape[1] // self.patch[1],
            self.input_shape[2] // self.patch[2],
        )

    @property
    def n_locations(self) -> int:
        gh, gw = self.grid_hw
        return gh * gw

    @property
    def patch_flat(self) -> int:
        t, h, w = self.patch
        return t * h * w * self.input_shape[3]

    @property
    def n_streams(self) -> int:
        """Independent class streams through the spatial stage and heads."""
        return self.n_classes if self.cls_mode == "per_class" else 1

    @property
    def head_width(self) -> int:
        """Output width of one head projector."""
        _, h, w = self.patch
        if self.task == "segmentation":
            per_pixel = self.n_classes if self.cls_mode == "single" else 1
            return h * w * per_pixel
        return 1 if self.cls_mode == "per_class" else self.n_classes


def parameter_count(config: ModelConfig, n_temporal_keys=None) -> int:
    """Closed-form learnable-scalar count for a given configuration.

    n_temporal_keys is the number of day keys of a ``date_lookup`` table;
    a ``static`` table always has one row per frame.
    """
    d = config.dim
    r = config.mlp_ratio
    if n_temporal_keys is None or config.pe_mode == "static":
        n_temporal_keys = config.n_frames
    # Attention 4d^2+3d, mlp (2r d^2 + (r+1) d), two norms 4d per block.
    per_block = (4 + 2 * r) * d * d + (8 + r) * d
    s = config.n_streams
    n_cls = 2 if config.factorization == "temporal_first" else 1
    return (
        (config.patch_flat * d + d)                       # patch projection
        + n_temporal_keys * d                             # temporal table
        + config.n_locations * d                          # spatial table
        + n_cls * s * d                                   # class tokens
        + (config.depth_temporal + config.depth_spatial) * per_block
        + s * (d * config.head_width + config.head_width)  # head projectors
    )


class SitsFormer:
    """Model weights plus the forward wiring selected by its config."""

    # Checkpoint name prefix -> attribute, in file order. The prefixes are
    # the file format's; everything below them is the attribute walk.
    _PARAMETER_PREFIXES = (
        ("embed", "embed"),
        ("pe_temporal", "temporal_pe"),
        ("pe_spatial.table", "spatial_pe"),
        ("cls.temporal", "cls_temporal"),
        ("cls.spatial", "cls_spatial"),
        ("temporal", "temporal_encoder"),
        ("spatial", "spatial_encoder"),
        ("head.weight", "head_weight"),
        ("head.bias", "head_bias"),
    )

    def __init__(self, config: ModelConfig, temporal_keys=None, seed: int = 0,
                 dtype=DEFAULT_DTYPE):
        self.config = config
        if temporal_keys is None or config.pe_mode == "static":
            # A static table is keyed by frame index, whatever days it is given.
            temporal_keys = np.arange(config.n_frames)
        rng = np.random.default_rng([seed, 2])
        d = config.dim
        self.embed = Affine(config.patch_flat, d, rng, dtype)
        self.temporal_pe = TemporalPositionTable(temporal_keys, d, rng, dtype)
        self.spatial_pe = trunc_normal(rng, (config.n_locations, d), dtype)
        # Class tokens: (K, d) before each location's series, and (K, 1, d)
        # per map on temporal_first, the one order that runs spatial_encode.
        self.cls_temporal = trunc_normal(rng, (config.n_streams, d), dtype)
        self.cls_spatial = (trunc_normal(rng, (config.n_streams, 1, d), dtype)
                            if config.factorization == "temporal_first" else None)
        self.temporal_encoder = [
            BlockWeights(d, config.n_heads, config.mlp_ratio, rng, dtype)
            for _ in range(config.depth_temporal)
        ]
        self.spatial_encoder = [
            BlockWeights(d, config.n_heads, config.mlp_ratio, rng, dtype)
            for _ in range(config.depth_spatial)
        ]
        self.head_weight = trunc_normal(
            rng, (config.n_streams, d, config.head_width), dtype
        )
        self.head_bias = Tensor(
            np.zeros((config.n_streams, 1, config.head_width), dtype=dtype),
            requires_grad=True,
        )

    def named_parameters(self):
        for prefix, name in self._PARAMETER_PREFIXES:
            yield from nn.named_parameters(getattr(self, name), prefix)

    def parameters(self):
        return [p for _, p in self.named_parameters()]

    def zero_grad(self):
        for p in self.parameters():
            p.zero_grad()

    def _temporal_query(self, dates) -> np.ndarray:
        """Each patch's first day: the (B, n_frames) keys of (B, T) dates."""
        dates = np.asarray(dates)
        if self.config.pe_mode == "static":
            # Ordinal positions stand in for days: row i for frame i.
            return np.broadcast_to(np.arange(self.config.n_frames),
                                   (len(dates), self.config.n_frames))
        return dates[:, ::self.config.patch[0]]


def count_parameters(model: SitsFormer) -> int:
    return sum(p.size for _, p in model.named_parameters())


def temporal_encode(values, dates, model: SitsFormer) -> Tensor:
    """Per-location attention along time; returns the retained cls states.

    ``values`` (B, T, H, W, C) and ``dates`` (B, T) are a dense batch of B
    series. Output is (B, n_locations, n_streams, dim): the last temporal
    block computes only the cls rows, with every token as a key and a
    value. On ``spatial_first`` configs each frame first attends along
    space (samples and frames are batch axes, no cls tokens), and the
    temporal stage then runs on those states.
    """
    cfg = model.config
    _check_input_shape(values.shape[1:], cfg)
    grid = tokenize_sits(values, cfg.patch, model.embed)
    if cfg.factorization == "spatial_first":
        b, n_t, gh, gw, d = grid.shape
        x = reshape(grid, (b, n_t, gh * gw, d))
        x = x + reshape(model.spatial_pe, (1, 1, gh * gw, d))
        x = encoder_forward(x, model.spatial_encoder)
        grid = reshape(x, (b, n_t, gh, gw, d))
    pe = model.temporal_pe(model._temporal_query(dates))
    z = build_temporal_input(grid, pe, model.cls_temporal)
    return encoder_forward(z, model.temporal_encoder, keep=cfg.n_streams)


def spatial_encode(z: Tensor, model: SitsFormer):
    """Per-stream attention along space. Returns (global, local) states.

    z is (B, n_locations, n_streams, dim). global is (B, n_streams, dim),
    the readout token per class stream; local is (B, n_streams,
    n_locations, dim). In blocked mode the stream axis is a pure batch
    axis, so streams cannot exchange information; full mode flattens each
    sample's streams into one joint sequence.
    """
    cfg = model.config
    zs = build_spatial_input(z, model.spatial_pe, model.cls_spatial)
    b, s, n, d = zs.shape
    if cfg.cls_interactions == "full":
        zs = reshape(zs, (b, s * n, d))
        zs = encoder_forward(zs, model.spatial_encoder)
        zs = reshape(zs, (b, s, n, d))
    else:
        zs = encoder_forward(zs, model.spatial_encoder)
    global_out = getitem(zs, (slice(None), slice(None), 0))
    local = getitem(zs, (slice(None), slice(None), slice(1, None)))
    return global_out, local


def segmentation_head(local: Tensor, model: SitsFormer) -> Tensor:
    """Project each spatial token back to its pixel patch; tile to
    (B, H, W, K)."""
    cfg = model.config
    gh, gw = cfg.grid_hw
    _, h, w = cfg.patch
    out = matmul(local, model.head_weight) + model.head_bias
    b, k = local.shape[0], cfg.n_classes
    if cfg.cls_mode == "per_class":
        out = reshape(out, (b, k, gh, gw, h, w))
        out = transpose(out, (0, 2, 4, 3, 5, 1))
    else:
        out = reshape(out, (b, gh, gw, h, w, k))
        out = transpose(out, (0, 1, 3, 2, 4, 5))
    return reshape(out, (b, gh * h, gw * w, k))


def classification_head(global_out: Tensor, model: SitsFormer) -> Tensor:
    """Project each readout token to its class logit; returns (B, K)."""
    cfg = model.config
    b = global_out.shape[0]
    z = reshape(global_out, (b, cfg.n_streams, 1, cfg.dim))
    out = matmul(z, model.head_weight) + model.head_bias
    return reshape(out, (b, cfg.n_classes))


def forward(series, model: SitsFormer) -> Tensor:
    """Logits of one series, or of a list of series as one dense batch.

    A list of B series of the configured shape gives (B, H, W, K) for
    segmentation or (B, K) for classification. One series runs as a batch
    of one, and gives (H, W, K) or (K,): only the batch axis is dropped.
    """
    batch = series if isinstance(series, list) else [series]
    # A batch of one is a view of its series, not a copy.
    values = (batch[0].values[None] if len(batch) == 1
              else np.stack([s.values for s in batch]))
    z = temporal_encode(values, np.stack([s.dates for s in batch]), model)
    if model.config.factorization == "temporal_first":
        global_out, local = spatial_encode(z, model)
    else:
        # No spatial readout token on this path: each stream's global state
        # is the location average of its temporal cls states.
        local = transpose(z, (0, 2, 1, 3))
        global_out = tmean(local, axis=2)
    if model.config.task == "segmentation":
        logits = segmentation_head(local, model)
    else:
        logits = classification_head(global_out, model)
    return logits if batch is series else reshape(logits, logits.shape[1:])


def check_series(series: SitsSeries, config: ModelConfig) -> None:
    """Reject a series whose shape is not the configured input shape."""
    _check_input_shape(np.shape(series.values), config)


def _check_input_shape(shape, config: ModelConfig) -> None:
    if shape != config.input_shape:
        raise ShapeError(
            f"series shape {shape} does not match configured input "
            f"{config.input_shape}"
        )


# -- checkpoint io --------------------------------------------------------------


@dataclass(frozen=True)
class _CheckpointHeader:
    """Everything a checkpoint needs besides weights to rebuild its model."""

    config: ModelConfig
    temporal_keys: tuple

    def __post_init__(self):
        if len(set(self.temporal_keys)) != len(self.temporal_keys):
            raise ConfigError(
                f"temporal_keys repeat a day: {self.temporal_keys}"
            )


def save_checkpoint(path, model: SitsFormer) -> None:
    """Write config, temporal day keys, and all weights, 32-bit little-endian."""
    keys = tuple(int(k) for k in model.temporal_pe.keys)
    with container.create(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION) as w:
        w.header(_CheckpointHeader(model.config, keys))
        w.tensors([(n, (p.data,)) for n, p in model.named_parameters()])


def load_checkpoint(path) -> SitsFormer:
    """Rebuild a model from a checkpoint file."""
    r = container.Reader(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
                         "checkpoint")
    header = r.header(_CheckpointHeader)
    model = SitsFormer(header.config, temporal_keys=header.temporal_keys, seed=0)
    r.tensors([(n, (p.data,)) for n, p in model.named_parameters()])
    r.end()
    return model
