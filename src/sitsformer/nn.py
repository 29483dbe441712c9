"""Transformer encoder primitives.

Pre-norm blocks: ``y = msa(ln(z)) + z`` followed by ``z' = mlp(ln(y)) + y``.
Feature shape is preserved through every block, so the encoder can be stacked
to any depth without reshaping. No dropout anywhere; the training recipe this
package implements uses none.
"""

from __future__ import annotations

import math

import numpy as np

from . import tensor as T
from .errors import ConfigError, ShapeError
from .tensor import DEFAULT_DTYPE, Tensor

INIT_STD = 0.02


def trunc_normal(rng: np.random.Generator, shape, std: float = INIT_STD,
                 dtype=DEFAULT_DTYPE) -> np.ndarray:
    """Normal(0, std) resampled until every draw lies within two sigma."""
    out = rng.standard_normal(shape)
    mask = np.abs(out) > 2.0
    while np.any(mask):
        out[mask] = rng.standard_normal(int(mask.sum()))
        mask = np.abs(out) > 2.0
    return (std * out).astype(dtype)


class Affine:
    """``y = x @ weight + bias`` with weight shape (d_in, d_out)."""

    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator,
                 dtype=DEFAULT_DTYPE):
        self.weight = Tensor(trunc_normal(rng, (d_in, d_out), dtype=dtype),
                             requires_grad=True)
        self.bias = Tensor(np.zeros(d_out, dtype=dtype), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return x @ self.weight + self.bias

    def named_parameters(self, prefix: str):
        yield f"{prefix}.weight", self.weight
        yield f"{prefix}.bias", self.bias


class MSAWeights:
    """Query/key/value/output projections for multi-headed self-attention."""

    def __init__(self, dim: int, heads: int, rng: np.random.Generator,
                 dtype=DEFAULT_DTYPE):
        if dim % heads != 0:
            raise ConfigError(f"dim {dim} not divisible by heads {heads}")
        self.dim = dim
        self.heads = heads
        self.head_dim = dim // heads
        self.q = Affine(dim, dim, rng, dtype)
        self.k = Affine(dim, dim, rng, dtype)
        self.v = Affine(dim, dim, rng, dtype)
        self.out = Affine(dim, dim, rng, dtype)

    def named_parameters(self, prefix: str):
        for tag, aff in (("q", self.q), ("k", self.k), ("v", self.v),
                         ("out", self.out)):
            yield from aff.named_parameters(f"{prefix}.{tag}")


class MLPWeights:
    """Two affine layers with a GELU between (hidden width = ratio * dim)."""

    def __init__(self, dim: int, hidden: int, rng: np.random.Generator,
                 dtype=DEFAULT_DTYPE):
        self.fc1 = Affine(dim, hidden, rng, dtype)
        self.fc2 = Affine(hidden, dim, rng, dtype)

    def named_parameters(self, prefix: str):
        yield from self.fc1.named_parameters(f"{prefix}.fc1")
        yield from self.fc2.named_parameters(f"{prefix}.fc2")


class BlockWeights:
    """One pre-norm block: LN -> MSA -> residual, LN -> MLP -> residual."""

    def __init__(self, dim: int, heads: int, mlp_ratio: int,
                 rng: np.random.Generator, dtype=DEFAULT_DTYPE):
        one = np.ones(dim, dtype=dtype)
        zero = np.zeros(dim, dtype=dtype)
        self.ln1_gamma = Tensor(one.copy(), requires_grad=True)
        self.ln1_beta = Tensor(zero.copy(), requires_grad=True)
        self.msa = MSAWeights(dim, heads, rng, dtype)
        self.ln2_gamma = Tensor(one.copy(), requires_grad=True)
        self.ln2_beta = Tensor(zero.copy(), requires_grad=True)
        self.mlp = MLPWeights(dim, mlp_ratio * dim, rng, dtype)

    def named_parameters(self, prefix: str):
        yield f"{prefix}.ln1.gamma", self.ln1_gamma
        yield f"{prefix}.ln1.beta", self.ln1_beta
        yield from self.msa.named_parameters(f"{prefix}.attn")
        yield f"{prefix}.ln2.gamma", self.ln2_gamma
        yield f"{prefix}.ln2.beta", self.ln2_beta
        yield from self.mlp.named_parameters(f"{prefix}.mlp")


class EncoderWeights:
    """A stack of ``depth`` blocks sharing one feature width."""

    def __init__(self, dim: int, depth: int, heads: int, mlp_ratio: int,
                 rng: np.random.Generator, dtype=DEFAULT_DTYPE):
        self.dim = dim
        self.blocks = [BlockWeights(dim, heads, mlp_ratio, rng, dtype)
                       for _ in range(depth)]

    def named_parameters(self, prefix: str):
        for i, block in enumerate(self.blocks):
            yield from block.named_parameters(f"{prefix}.{i}")


def _check_tokens(z: Tensor, dim: int, who: str) -> None:
    if z.ndim != 3 or z.shape[-1] != dim:
        raise ShapeError(
            f"{who} expects (batch, tokens, {dim}), got shape {z.shape}"
        )


def msa_forward(z: Tensor, w: MSAWeights, return_attn: bool = False):
    """Scaled dot-product attention over the token axis, per head.

    Heads attend independently at scale 1/sqrt(head_dim), are concatenated,
    and pass through the output projection. Shape (B, n, d) is preserved.
    With ``return_attn`` the (B, heads, n, n) attention rows come back too.
    """
    _check_tokens(z, w.dim, "msa_forward")
    b, n, d = z.shape
    h, dh = w.heads, w.head_dim

    def split_heads(x: Tensor) -> Tensor:
        return x.reshape(b, n, h, dh).transpose(0, 2, 1, 3)

    q = split_heads(w.q(z))
    k = split_heads(w.k(z))
    v = split_heads(w.v(z))
    scores = (q @ k.transpose(0, 1, 3, 2)) * (1.0 / math.sqrt(dh))
    attn = T.softmax(scores, axis=-1)
    mixed = (attn @ v).transpose(0, 2, 1, 3).reshape(b, n, d)
    out = w.out(mixed)
    if return_attn:
        return out, attn
    return out


def mlp_forward(z: Tensor, w: MLPWeights) -> Tensor:
    return w.fc2(T.gelu(w.fc1(z)))


def transformer_block(z: Tensor, w: BlockWeights) -> Tensor:
    y = msa_forward(T.layer_norm(z, w.ln1_gamma, w.ln1_beta), w.msa) + z
    return mlp_forward(T.layer_norm(y, w.ln2_gamma, w.ln2_beta), w.mlp) + y


def encoder_forward(z: Tensor, w: EncoderWeights) -> Tensor:
    _check_tokens(z, w.dim, "encoder_forward")
    for block in w.blocks:
        z = transformer_block(z, block)
    return z
