"""Factorized temporo-spatial transformer for image time series.

The model attends along time first (one token series per patch location,
with per-class cls tokens prepended), keeps only the cls states, then
attends along space (one sequence per class stream). Dense predictions come
from projecting each spatial token back to its patch of pixels; global
predictions come from the per-stream readout tokens.

Every axis of that design is switchable for comparison runs: factorization
order, number of cls tokens, temporal position source, and whether class
streams may attend to each other.
"""

from dataclasses import dataclass

import numpy as np

from . import container
from .data import SitsSeries
from .embedding import (
    ClsTokenBank,
    SpatialPositionTable,
    TemporalPositionTable,
    build_spatial_input,
    build_temporal_input,
    tokenize_sits,
)
from .errors import CompatibilityError, ConfigError, ShapeError
from .nn import INIT_STD, Affine, EncoderWeights, encoder_forward, trunc_normal
from .tensor import DEFAULT_DTYPE, Tensor, getitem, matmul, reshape, tmean, transpose

TASKS = ("segmentation", "classification")
FACTORIZATIONS = ("temporal_first", "spatial_first")
CLS_MODES = ("per_class", "single")
PE_MODES = ("date_lookup", "static")
CLS_INTERACTIONS = ("blocked", "full")

CHECKPOINT_MAGIC = b"SFCK"
CHECKPOINT_VERSION = 1


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
        t, h, w = self.patch
        T, H, W, _ = self.input_shape
        if H % h != 0 or W % w != 0:
            raise ConfigError(
                f"patch ({h}, {w}) must divide the frame: H={H}, W={W}"
            )
        if T // t < 1:
            raise ConfigError(f"patch t={t} leaves no frames from T={T}")
        for name, value, allowed in (
            ("task", self.task, TASKS),
            ("factorization", self.factorization, FACTORIZATIONS),
            ("cls_mode", self.cls_mode, CLS_MODES),
            ("pe_mode", self.pe_mode, PE_MODES),
            ("cls_interactions", self.cls_interactions, CLS_INTERACTIONS),
        ):
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
    """Closed-form learnable-scalar count for a given configuration."""
    d = config.dim
    r = config.mlp_ratio
    if n_temporal_keys is None:
        n_temporal_keys = config.n_frames
    # Attention 4(d^2+d), mlp (2r d^2 + (r+1) d), two norms 4d per block.
    per_block = (4 + 2 * r) * d * d + (9 + r) * d
    s = config.n_streams
    return (
        (config.patch_flat * d + d)                       # patch projection
        + n_temporal_keys * d                             # temporal table
        + config.n_locations * d                          # spatial table
        + 2 * s * d                                       # cls token banks
        + (config.depth_temporal + config.depth_spatial) * per_block
        + s * (d * config.head_width + config.head_width)  # head projectors
    )


class SitsFormer:
    """Model weights plus the forward wiring selected by its config."""

    def __init__(self, config: ModelConfig, temporal_keys=None, seed: int = 0,
                 dtype=DEFAULT_DTYPE):
        self.config = config
        if temporal_keys is None:
            temporal_keys = np.arange(config.n_frames)
        rng = np.random.default_rng([seed, 2])
        d = config.dim
        self.embed = Affine(config.patch_flat, d, rng, dtype)
        self.temporal_pe = TemporalPositionTable(temporal_keys, d, rng, dtype)
        self.spatial_pe = SpatialPositionTable(config.n_locations, d, rng, dtype)
        self.cls = ClsTokenBank(config.n_streams, d, rng, dtype)
        self.temporal_encoder = EncoderWeights(
            d, config.depth_temporal, config.n_heads, config.mlp_ratio, rng, dtype
        )
        self.spatial_encoder = EncoderWeights(
            d, config.depth_spatial, config.n_heads, config.mlp_ratio, rng, dtype
        )
        self.head_weight = Tensor(
            trunc_normal(rng, (config.n_streams, d, config.head_width),
                         INIT_STD, dtype),
            requires_grad=True,
        )
        self.head_bias = Tensor(
            np.zeros((config.n_streams, 1, config.head_width), dtype=dtype),
            requires_grad=True,
        )

    def named_parameters(self):
        params = list(self.embed.named_parameters("embed"))
        params += self.temporal_pe.named_parameters("pe_temporal")
        params += self.spatial_pe.named_parameters("pe_spatial")
        params += self.cls.named_parameters("cls")
        params += list(self.temporal_encoder.named_parameters("temporal"))
        params += list(self.spatial_encoder.named_parameters("spatial"))
        params += [("head.weight", self.head_weight), ("head.bias", self.head_bias)]
        return params

    def parameters(self):
        return [p for _, p in self.named_parameters()]

    def zero_grad(self):
        for p in self.parameters():
            p.zero_grad()

    def _temporal_query(self, dates) -> np.ndarray:
        if self.config.pe_mode == "static":
            # Ordinal positions stand in for days: row i for frame i.
            return np.arange(self.config.n_frames)
        t = self.config.patch[0]
        return np.asarray(dates)[::t][: self.config.n_frames]


def count_parameters(model: SitsFormer) -> int:
    return sum(p.size for _, p in model.named_parameters())


def temporal_encode(series: SitsSeries, model: SitsFormer) -> Tensor:
    """Per-location attention along time; returns the retained cls states.

    Output is (n_locations, n_streams, dim): everything after the cls prefix
    is dropped once the temporal encoder has run.
    """
    cfg = model.config
    check_series(series, cfg)
    grid = tokenize_sits(series.values, cfg.patch, model.embed)
    pe = model.temporal_pe(model._temporal_query(series.dates))
    z = build_temporal_input(grid, pe, model.cls.temporal)
    z = encoder_forward(z, model.temporal_encoder)
    return getitem(z, (slice(None), slice(0, cfg.n_streams)))


def spatial_encode(z: Tensor, model: SitsFormer):
    """Per-stream attention along space. Returns (global, local) states.

    global is (n_streams, dim), the readout token per class stream; local is
    (n_streams, n_locations, dim). In blocked mode the stream axis is a pure
    batch axis, so streams cannot exchange information; full mode flattens
    all streams into one joint sequence.
    """
    cfg = model.config
    zs = build_spatial_input(z, model.spatial_pe.table, model.cls.spatial)
    s, n, d = zs.shape
    if cfg.cls_interactions == "full":
        zs = reshape(zs, (1, s * n, d))
        zs = encoder_forward(zs, model.spatial_encoder)
        zs = reshape(zs, (s, n, d))
    else:
        zs = encoder_forward(zs, model.spatial_encoder)
    global_out = reshape(getitem(zs, (slice(None), slice(0, 1))), (s, d))
    local = getitem(zs, (slice(None), slice(1, None)))
    return global_out, local


def _spatial_first_encode(series: SitsSeries, model: SitsFormer):
    """Mirror-image wiring: space per frame first, then time per location.

    The spatial stage runs without cls tokens (frames are the batch axis);
    class evidence is aggregated only by the temporal stage's cls tokens.
    The global state is the location average of those cls states, since no
    spatial readout token exists on this path.
    """
    cfg = model.config
    check_series(series, cfg)
    grid = tokenize_sits(series.values, cfg.patch, model.embed)
    n_t, gh, gw, d = grid.shape
    x = reshape(grid, (n_t, gh * gw, d))
    x = x + reshape(model.spatial_pe.table, (1, gh * gw, d))
    x = encoder_forward(x, model.spatial_encoder)
    x = reshape(x, (n_t, gh, gw, d))
    pe = model.temporal_pe(model._temporal_query(series.dates))
    z = build_temporal_input(x, pe, model.cls.temporal)
    z = encoder_forward(z, model.temporal_encoder)
    cls_out = getitem(z, (slice(None), slice(0, cfg.n_streams)))
    local = transpose(cls_out, (1, 0, 2))
    return tmean(local, axis=1), local


def segmentation_head(local: Tensor, model: SitsFormer) -> Tensor:
    """Project each spatial token back to its pixel patch; tile to (H, W, K)."""
    cfg = model.config
    if cfg.task != "segmentation":
        raise ConfigError(f"segmentation head called with task {cfg.task!r}")
    s = cfg.n_streams
    gh, gw = cfg.grid_hw
    _, h, w = cfg.patch
    if local.shape != (s, gh * gw, cfg.dim):
        raise ShapeError(
            f"head expects ({s}, {gh * gw}, {cfg.dim}) tokens, got {local.shape}"
        )
    out = matmul(local, model.head_weight) + model.head_bias
    k = cfg.n_classes
    if cfg.cls_mode == "per_class":
        out = reshape(out, (k, gh, gw, h, w))
        out = transpose(out, (1, 3, 2, 4, 0))
    else:
        out = reshape(out, (gh, gw, h, w, k))
        out = transpose(out, (0, 2, 1, 3, 4))
    return reshape(out, (gh * h, gw * w, k))


def classification_head(global_out: Tensor, model: SitsFormer) -> Tensor:
    """Project each readout token to its class logit; returns (K,)."""
    cfg = model.config
    if cfg.task != "classification":
        raise ConfigError(f"classification head called with task {cfg.task!r}")
    s = cfg.n_streams
    if global_out.shape != (s, cfg.dim):
        raise ShapeError(
            f"head expects ({s}, {cfg.dim}) readouts, got {global_out.shape}"
        )
    z = reshape(global_out, (s, 1, cfg.dim))
    out = matmul(z, model.head_weight) + model.head_bias
    return reshape(out, (cfg.n_classes,))


def forward(series: SitsSeries, model: SitsFormer) -> Tensor:
    """Full pass: logits (H, W, K) for segmentation, (K,) for classification."""
    if model.config.factorization == "temporal_first":
        z = temporal_encode(series, model)
        global_out, local = spatial_encode(z, model)
    else:
        global_out, local = _spatial_first_encode(series, model)
    if model.config.task == "segmentation":
        return segmentation_head(local, model)
    return classification_head(global_out, model)


def check_series(series: SitsSeries, config: ModelConfig) -> None:
    """Reject a series whose shape is not the configured input shape."""
    shape = np.shape(series.values)
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
    r = container.Reader(path, CHECKPOINT_MAGIC, "checkpoint")
    if r.version != CHECKPOINT_VERSION:
        raise CompatibilityError(
            f"checkpoint version {r.version} unsupported "
            f"(this build reads {CHECKPOINT_VERSION})"
        )
    header = r.header(_CheckpointHeader)
    model = SitsFormer(header.config, temporal_keys=header.temporal_keys, seed=0)
    r.tensors([(n, (p.data,)) for n, p in model.named_parameters()])
    r.end()
    return model
