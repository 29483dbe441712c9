"""Transformer encoder primitives.

Pre-norm blocks: ``y = msa(ln(z)) + z`` followed by ``z' = mlp(ln(y)) + y``.
Feature shape is preserved through every block, so the encoder can be stacked
to any depth without reshaping. A non-empty encoder ends in a parameter-free
layer norm, ViT's ``LN(z_L)`` readout (arXiv 2010.11929, Eq. 4). An encoder
read only at its leading tokens runs its last block as class attention
(CaiT, arXiv 2103.17239): those tokens query, every token is a key and a
value, and the other rows are never computed. Every leading axis is a
batch axis, so a grad-free encoder runs its rows in chunks of at most
``CHUNK`` input values, and its largest transients scale with the chunk,
not with the input (:func:`encoder_forward`). No dropout anywhere; the
training recipe this package implements uses none.

Each block's two layer norms are parameter-free ``tensor.layer_norm``
calls. Attention, with LN1's scale and shift and every projection, and the
MLP, with LN2's scale and shift, are one tape primitive each
(``tensor.attention``, ``tensor.mlp``). Neither keeps its large
intermediates for backward: both read the norm's output, which the norm
keeps anyway, instead of keeping it scaled and shifted; attention keeps q,
k, v and each softmax row's max and sum instead of the probabilities and
the merged heads, and the MLP keeps the fc1 product instead of the GELU
output and slope. Backward rebuilds them, with the same bits.
"""

from __future__ import annotations

import math

import numpy as np

from . import tensor as T
from .tensor import DEFAULT_DTYPE, Tensor

INIT_STD = 0.02
# Encoder-input values per chunk of a grad-free encoder (see encoder_forward):
# at ModelConfig() 29 of the temporal stage's 144 location rows, whose fc1
# product then takes about 4 MB instead of 20 MB.
CHUNK = 1 << 18


def trunc_normal(rng: np.random.Generator, shape,
                 dtype=DEFAULT_DTYPE) -> Tensor:
    """Trainable Normal(0, INIT_STD) draws, each resampled into two sigma."""
    out = rng.standard_normal(shape)
    mask = np.abs(out) > 2.0
    while np.any(mask):
        out[mask] = rng.standard_normal(int(mask.sum()))
        mask = np.abs(out) > 2.0
    return Tensor((INIT_STD * out).astype(dtype), requires_grad=True)


def named_parameters(obj, prefix: str):
    """Yield ``(dotted name, tensor)`` for every trainable tensor under ``obj``.

    Attributes are walked in definition order and list items are named by
    their index, so a block's first query weight is ``<prefix>.attn.q.weight``
    and an encoder's second block is ``<prefix>.1``. Constant tensors, ints,
    ``None`` and ndarrays (such as a position table's day keys) are skipped.
    """
    if isinstance(obj, Tensor):
        if obj.requires_grad:
            yield prefix, obj
    elif isinstance(obj, list):
        for i, item in enumerate(obj):
            yield from named_parameters(item, f"{prefix}.{i}")
    elif hasattr(obj, "__dict__"):
        for name, value in vars(obj).items():
            yield from named_parameters(value, f"{prefix}.{name}")


class Affine:
    """``y = x @ weight + bias`` with weight shape (d_in, d_out)."""

    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator,
                 dtype=DEFAULT_DTYPE):
        self.weight = trunc_normal(rng, (d_in, d_out), dtype)
        self.bias = Tensor(np.zeros(d_out, dtype=dtype), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return T.affine(x, self.weight, self.bias)


class MSAWeights:
    """Query/key/value/output projections for multi-headed self-attention.

    ``heads`` must divide ``dim``; ``ModelConfig`` is the gate for that.
    The key projection ``k`` is a bare (dim, dim) weight: a key bias adds
    the same ``q . b`` to every score of a query, which the softmax
    cancels, so no output could read it.
    """

    def __init__(self, dim: int, heads: int, rng: np.random.Generator,
                 dtype=DEFAULT_DTYPE):
        self.heads = heads
        self.q = Affine(dim, dim, rng, dtype)
        self.k = trunc_normal(rng, (dim, dim), dtype)
        self.v = Affine(dim, dim, rng, dtype)
        self.out = Affine(dim, dim, rng, dtype)


class MLPWeights:
    """Two affine layers with a GELU between (hidden width = ratio * dim)."""

    def __init__(self, dim: int, hidden: int, rng: np.random.Generator,
                 dtype=DEFAULT_DTYPE):
        self.fc1 = Affine(dim, hidden, rng, dtype)
        self.fc2 = Affine(hidden, dim, rng, dtype)


class NormWeights:
    """Layer-norm scale and shift, initialised to the identity; the op that
    reads the norm applies them."""

    def __init__(self, dim: int, dtype=DEFAULT_DTYPE):
        self.gamma = Tensor(np.ones(dim, dtype=dtype), requires_grad=True)
        self.beta = Tensor(np.zeros(dim, dtype=dtype), requires_grad=True)


class BlockWeights:
    """One pre-norm block: LN -> MSA -> residual, LN -> MLP -> residual."""

    def __init__(self, dim: int, heads: int, mlp_ratio: int,
                 rng: np.random.Generator, dtype=DEFAULT_DTYPE):
        self.ln1 = NormWeights(dim, dtype)
        self.attn = MSAWeights(dim, heads, rng, dtype)
        self.ln2 = NormWeights(dim, dtype)
        self.mlp = MLPWeights(dim, mlp_ratio * dim, rng, dtype)


def _leading(z: Tensor, keep: int | None) -> Tensor:
    """The first ``keep`` tokens of (..., n, d); all of them if ``keep`` is
    None."""
    if keep is None:
        return z
    return T.getitem(z, (..., slice(0, keep), slice(None)))


def msa_forward(xhat: Tensor, ln: NormWeights, w: MSAWeights,
                return_attn: bool = False, keep: int | None = None):
    """Scaled dot-product attention over the token axis, per head, on the
    parameter-free layer norm ``xhat`` after ``ln``'s scale and shift.

    Heads attend independently at scale 1/sqrt(d / heads), are concatenated,
    and pass through the output projection, all in one ``tensor.attention``
    op. Shape (..., n, d) is preserved: every leading axis is a batch axis.
    With ``keep`` only the first ``keep`` tokens query, and the output is
    (..., keep, d); every token is still a key and a value. With
    ``return_attn`` the (..., heads, n_q, n) attention rows come back too,
    as a constant tensor: they are not differentiable.
    """
    out, attn = T.attention(xhat, ln.gamma, ln.beta, w.q.weight, w.q.bias,
                            w.k, w.v.weight, w.v.bias, w.out.weight,
                            w.out.bias, w.heads, keep)
    if return_attn:
        return out, Tensor(attn)
    return out


def mlp_forward(xhat: Tensor, ln: NormWeights, w: MLPWeights) -> Tensor:
    """``fc2(gelu(fc1(xhat * gamma + beta)))`` on the parameter-free layer
    norm ``xhat``, with ``ln``'s scale and shift, as one ``tensor.mlp`` op."""
    return T.mlp(xhat, ln.gamma, ln.beta, w.fc1.weight, w.fc1.bias,
                 w.fc2.weight, w.fc2.bias)


def transformer_block(z: Tensor, w: BlockWeights,
                      keep: int | None = None) -> Tensor:
    """One pre-norm block; with ``keep``, its class-attention form.

    LN1 and LN2 are parameter-free ``tensor.layer_norm`` calls; their scale
    and shift are applied inside the attention and MLP ops, so the tape
    keeps each norm's output once. The class-attention form returns
    (..., keep, d): LN1, keys and values cover every token, the rest only
    the first ``keep``.
    """
    y = msa_forward(T.layer_norm(z), w.ln1, w.attn,
                    keep=keep) + _leading(z, keep)
    return mlp_forward(T.layer_norm(y), w.ln2, w.mlp) + y


def _encode(z: Tensor, blocks: list[BlockWeights],
            keep: int | None) -> Tensor:
    """The blocks and the final norm over one chunk of rows."""
    for block in blocks[:-1]:
        z = transformer_block(z, block)
    return T.layer_norm(transformer_block(z, blocks[-1], keep))


def encoder_forward(z: Tensor, blocks: list[BlockWeights],
                    keep: int | None = None) -> Tensor:
    """Run the blocks and the final norm on the first ``keep`` tokens
    (default all).

    The final norm has no scale or shift: whatever reads the encoder out is
    affine, so a learned one there would add nothing.

    A caller that reads only the leading tokens passes ``keep``, and the
    last block runs as class attention (CaiT, arXiv 2103.17239): only the
    kept tokens query, take the residual, LN2 and the MLP, while every token
    is a key and a value. This equals running every block in full and
    slicing before the final norm, since nothing after the last attention
    mixes tokens. An encoder with no blocks just slices.

    Every leading axis of (..., n, d) is a batch axis, so with grad off the
    flattened rows run in chunks of ``max(1, CHUNK // (n * d))`` rows,
    written into one (rows, keep or n, d) output; the largest transients,
    such as the MLP's hidden array, scale with the chunk, not with the
    input. The bits are those of one whole-array run. A row larger than
    ``CHUNK`` runs alone: under ``cls_interactions=full`` a row is a whole
    sample, so one sample is never split. With grad on, the whole input is
    one chunk, so the tape and every gradient are unchanged; one chunk
    returns the last norm's output as it is.
    """
    if not blocks:
        return _leading(z, keep)
    *lead, n, d = z.shape
    m = math.prod(lead)
    rows = m if T.grad_enabled() else max(1, CHUNK // (n * d))
    if rows >= m:
        return _encode(z, blocks, keep)
    x = z.data.reshape(m, n, d)
    out = np.empty((m, n if keep is None else keep, d), x.dtype)
    for i in range(0, m, rows):
        out[i:i + rows] = _encode(Tensor(x[i:i + rows]), blocks, keep).data
    return Tensor(out.reshape(*lead, *out.shape[1:]))
