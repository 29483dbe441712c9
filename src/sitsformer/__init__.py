"""Temporo-spatial transformer toolkit for satellite image time series.

The package is self-contained: its own reverse-mode autodiff core, the
transformer blocks built on it, a date-aware embedding stage, the model
with its design-variant switches, deterministic training loops, a binary
sample format with a synthetic phenology generator, and a command line.
"""

from .data import (
    DatasetManifest,
    SitsRecord,
    SitsSeries,
    generate_sample,
    generate_synthetic_dataset,
    load_split,
    make_classification_sample,
    read_manifest,
    read_sample,
    write_manifest,
    write_sample,
)
from .embedding import (
    SpatialPositionTable,
    TemporalPositionTable,
    tokenize_sits,
)
from .errors import (
    CompatibilityError,
    ConfigError,
    DataError,
    FormatError,
    MetricError,
    ShapeError,
    SitsformerError,
    TrainingDiverged,
)
from .metrics import ConfusionMatrix, metrics, per_class_table
from .model import (
    ModelConfig,
    SitsFormer,
    count_parameters,
    forward,
    load_checkpoint,
    parameter_count,
    save_checkpoint,
)
from .nn import (
    Affine,
    BlockWeights,
    EncoderWeights,
    MSAWeights,
    encoder_forward,
    msa_forward,
    transformer_block,
)
from .tensor import Tensor, backward, no_grad
from .training import (
    AdamWState,
    LRSchedule,
    TrainConfig,
    adamw_step,
    evaluate,
    focal_loss,
    lr_at_step,
    masked_cross_entropy,
    train_loop,
)

__all__ = [
    "AdamWState",
    "Affine",
    "BlockWeights",
    "CompatibilityError",
    "ConfigError",
    "ConfusionMatrix",
    "DataError",
    "DatasetManifest",
    "EncoderWeights",
    "FormatError",
    "LRSchedule",
    "MSAWeights",
    "MetricError",
    "ModelConfig",
    "ShapeError",
    "SitsFormer",
    "SitsRecord",
    "SitsSeries",
    "SitsformerError",
    "SpatialPositionTable",
    "TemporalPositionTable",
    "Tensor",
    "TrainConfig",
    "TrainingDiverged",
    "adamw_step",
    "backward",
    "count_parameters",
    "encoder_forward",
    "evaluate",
    "focal_loss",
    "forward",
    "generate_sample",
    "generate_synthetic_dataset",
    "load_checkpoint",
    "load_split",
    "lr_at_step",
    "make_classification_sample",
    "masked_cross_entropy",
    "metrics",
    "msa_forward",
    "no_grad",
    "parameter_count",
    "per_class_table",
    "read_manifest",
    "read_sample",
    "save_checkpoint",
    "tokenize_sits",
    "train_loop",
    "transformer_block",
    "write_manifest",
    "write_sample",
]
