"""Dense float tensors with tape-based reverse-mode differentiation.

The model code in this package is written against a deliberately small set of
primitives: elementwise arithmetic, (batched) matmul, reshape/transpose/concat
style layout ops, reductions, and the three nonlinearities a pre-norm
transformer needs (softmax, layer norm, GELU). Each primitive records a
closure on a thread-local tape (:func:`active_tape`); :func:`backward` replays
the tape in reverse execution order, which is a valid reverse topological
order because ops are recorded as they run.

Values are float32 by default. float64 is supported so that gradient-checking
code can compare against finite differences without drowning in rounding
noise; nothing in the training path uses it. The dtype also selects the GELU
kernel: float64 uses scipy's exact ``erf``, float32 a rational approximation
evaluated in cache-sized blocks (see :func:`gelu`).
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Sequence

import numpy as np
from scipy.special import erf

from .errors import ContractError, ShapeError

DEFAULT_DTYPE = np.float32

_FLOAT_DTYPES = (np.float32, np.float64)

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Odd/even rational erf for float32 (the coefficients Eigen and XLA use),
# highest power first: erf(z) ~ z * P(z^2) / Q(z^2) on [-4, 4]. Outside that
# interval erf rounds to +-1 in float32, so inputs are clipped to it.
_ERF_P = (-2.72614225801306e-10, 2.77068142495902e-08, -2.10102402082508e-06,
          -5.69250639462346e-05, -7.34990630326855e-04, -2.95459980854025e-03,
          -1.60960333262415e-02)
_ERF_Q = (-1.45660718464996e-05, -2.13374055278905e-04, -1.68282697438203e-03,
          -7.37332916720468e-03, -1.42647390514189e-02)
_ERF_CLIP = 4.0

# Elements per block of the float32 GELU: a block's few temporaries stay in
# cache instead of streaming whole activations through memory.
_GELU_BLOCK = 1 << 15


class Tensor:
    """A dense multi-dimensional array plus an optional gradient buffer.

    ``data`` is always a float32 or float64 ndarray. ``grad`` is lazily
    allocated with the same shape and dtype the first time a gradient is
    accumulated; it then accumulates additively until :meth:`zero_grad`.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif not (isinstance(data, np.ndarray) and arr.dtype in _FLOAT_DTYPES):
            # Lists and scalars default to float32; explicit float64 arrays
            # keep their precision (gradient-check mode).
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def zero_grad(self) -> None:
        self.grad = None

    def item(self) -> float:
        return float(self.data)

    # -- operator sugar -----------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return add(neg(self), other)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            raise TypeError("tensor/tensor division is not a supported primitive")
        return mul(self, 1.0 / other)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return getitem(self, key)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        return transpose(self, axes or None)

    def sum(self, axis=None, keepdims: bool = False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False):
        return tmean(self, axis=axis, keepdims=keepdims)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}{flag})"


_state = threading.local()


def _get_state():
    if not hasattr(_state, "tape"):
        _state.tape = []
        _state.grad_enabled = True
    return _state


def active_tape() -> list:
    """The tape the current thread is recording onto.

    Entries are ``(output tensor, backward closure)`` pairs in execution
    order; replaying them reversed visits every op once and respects data
    dependencies.
    """
    return _get_state().tape


def is_grad_enabled() -> bool:
    return _get_state().grad_enabled


class no_grad:
    """Context manager that suspends tape recording (inference mode)."""

    def __enter__(self):
        st = _get_state()
        self._prev = st.grad_enabled
        st.grad_enabled = False
        return self

    def __exit__(self, *exc):
        _get_state().grad_enabled = self._prev
        return False


def _record(out: Tensor, fn: Callable[[np.ndarray], None]) -> None:
    st = _get_state()
    if st.grad_enabled and out.requires_grad:
        st.tape.append((out, fn))


def _accum(t: Tensor, g: np.ndarray) -> None:
    """Add ``g`` into ``t.grad``; the first touch stores a copy of ``g``.

    The copy matters: ``g`` is often a view of another tensor's gradient,
    which later accumulation into ``t.grad`` must not write through.
    """
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = g.astype(t.data.dtype)
    else:
        t.grad += g


def backward(loss: Tensor) -> None:
    """Populate gradients of every tensor the scalar ``loss`` depends on.

    Consumes the current thread's tape: entries recorded by unrelated forward
    passes are skipped (their outputs carry no gradient) but discarded all the
    same, so each training step starts from an empty tape.
    """
    if loss.size != 1:
        raise ContractError(
            f"backward requires a scalar loss, got shape {loss.shape}"
        )
    tape = active_tape()
    try:
        if loss.requires_grad:
            _accum(loss, np.ones_like(loss.data))
            for out, fn in reversed(tape):
                if out.grad is None:
                    continue
                fn(out.grad)
    finally:
        tape.clear()


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``g`` down to ``shape``; inverse of numpy broadcasting."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _result(data: np.ndarray, requires_grad: bool) -> Tensor:
    # Under no_grad, outputs are plain constants: nothing downstream records.
    requires_grad = requires_grad and _get_state().grad_enabled
    return Tensor(data, requires_grad=requires_grad, dtype=data.dtype)


# -- elementwise arithmetic --------------------------------------------------


def add(a: Tensor, b) -> Tensor:
    if not isinstance(b, Tensor):
        out = _result(a.data + b, a.requires_grad)

        def back_scalar(g):
            _accum(a, g)

        _record(out, back_scalar)
        return out

    out = _result(a.data + b.data, a.requires_grad or b.requires_grad)

    def back(g):
        _accum(a, _unbroadcast(g, a.shape))
        _accum(b, _unbroadcast(g, b.shape))

    _record(out, back)
    return out


def sub(a: Tensor, b) -> Tensor:
    if not isinstance(b, Tensor):
        return add(a, -b)
    return add(a, neg(b))


def neg(a: Tensor) -> Tensor:
    return mul(a, -1.0)


def mul(a: Tensor, b) -> Tensor:
    if not isinstance(b, Tensor):
        out = _result(a.data * b, a.requires_grad)

        def back_scalar(g):
            _accum(a, g * b)

        _record(out, back_scalar)
        return out

    out = _result(a.data * b.data, a.requires_grad or b.requires_grad)
    a_data, b_data = a.data, b.data

    def back(g):
        _accum(a, _unbroadcast(g * b_data, a.shape))
        _accum(b, _unbroadcast(g * a_data, b.shape))

    _record(out, back)
    return out


def pow_const(a: Tensor, p: float) -> Tensor:
    """Elementwise ``a ** p`` for a constant exponent."""
    out = _result(a.data**p, a.requires_grad)
    a_data = a.data

    def back(g):
        _accum(a, g * (p * a_data ** (p - 1.0)))

    _record(out, back)
    return out


def log(a: Tensor) -> Tensor:
    out = _result(np.log(a.data), a.requires_grad)
    a_data = a.data

    def back(g):
        _accum(a, g / a_data)

    _record(out, back)
    return out


def exp(a: Tensor) -> Tensor:
    out_data = np.exp(a.data)
    out = _result(out_data, a.requires_grad)

    def back(g):
        _accum(a, g * out_data)

    _record(out, back)
    return out


# -- matmul ------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product with numpy stacking semantics on leading dims.

    A 2-D right operand (every ``Affine``) runs as one 2-D GEMM over the
    flattened leading dims of ``a``, forward and backward.
    """
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(
            f"matmul requires rank >= 2 operands, got shapes {a.shape} and {b.shape}"
        )
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(
            f"matmul inner dimensions disagree: shapes {a.shape} and {b.shape}"
        )
    a_data, b_data = a.data, b.data
    if b.ndim == 2:
        (k, n), m = b.shape, math.prod(a.shape[:-1])
        out_data = (a_data.reshape(m, k) @ b_data).reshape(a.shape[:-1] + (n,))
        out = _result(out_data, a.requires_grad or b.requires_grad)

        def back_2d(g):
            g2d = g.reshape(m, n)
            if a.requires_grad:
                _accum(a, (g2d @ b_data.T).reshape(a.shape))
            if b.requires_grad:
                _accum(b, a_data.reshape(m, k).T @ g2d)

        _record(out, back_2d)
        return out
    try:
        out_data = a_data @ b_data
    except ValueError as e:
        raise ShapeError(
            f"matmul batch dimensions do not broadcast: shapes {a.shape} and {b.shape}"
        ) from e
    out = _result(out_data, a.requires_grad or b.requires_grad)

    def back(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g @ np.swapaxes(b_data, -1, -2), a.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(np.swapaxes(a_data, -1, -2) @ g, b.shape))

    _record(out, back)
    return out


# -- layout ops ----------------------------------------------------------------


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    try:
        out_data = a.data.reshape(shape)
    except ValueError as e:
        raise ShapeError(f"cannot reshape {a.shape} to {shape}") from e
    out = _result(out_data, a.requires_grad)
    in_shape = a.shape

    def back(g):
        _accum(a, g.reshape(in_shape))

    _record(out, back)
    return out


def transpose(a: Tensor, axes=None) -> Tensor:
    if axes is not None:
        axes = tuple(axes)
        if sorted(axes) != list(range(a.ndim)):
            raise ShapeError(f"invalid transpose axes {axes} for shape {a.shape}")
        inv = tuple(np.argsort(axes))
    else:
        inv = None
    out = _result(np.transpose(a.data, axes), a.requires_grad)

    def back(g):
        _accum(a, np.transpose(g, inv))

    _record(out, back)
    return out


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = list(tensors)
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    out = _result(out_data, any(t.requires_grad for t in tensors))
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def back(g):
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            _accum(t, piece)

    _record(out, back)
    return out


def broadcast_to(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    try:
        out_data = np.broadcast_to(a.data, shape)
    except ValueError as e:
        raise ShapeError(f"cannot broadcast {a.shape} to {shape}") from e
    out = _result(np.ascontiguousarray(out_data), a.requires_grad)

    def back(g):
        _accum(a, _unbroadcast(g, a.shape))

    _record(out, back)
    return out


def getitem(a: Tensor, key) -> Tensor:
    """Basic slicing plus integer-array row gathering, both differentiable."""
    out_data = a.data[key]
    out = _result(np.array(out_data, copy=True), a.requires_grad)
    fancy = isinstance(key, (np.ndarray, list)) or (
        isinstance(key, tuple)
        and any(isinstance(k, (np.ndarray, list)) for k in key)
    )

    def back(g):
        if not a.requires_grad:
            return
        buf = np.zeros_like(a.data)
        if fancy:
            np.add.at(buf, key, g)
        else:
            buf[key] += g
        _accum(a, buf)

    _record(out, back)
    return out


def gather_last(a: Tensor, idx: np.ndarray) -> Tensor:
    """Pick one entry along the last axis: ``out[...] = a[..., idx[...]]``.

    ``idx`` must have shape ``a.shape[:-1]``. Used to select per-position
    label logits in the losses.
    """
    idx = np.asarray(idx)
    if idx.shape != a.shape[:-1]:
        raise ShapeError(
            f"gather_last index shape {idx.shape} does not match {a.shape[:-1]}"
        )
    expanded = idx[..., None]
    out_data = np.take_along_axis(a.data, expanded, axis=-1)[..., 0]
    out = _result(out_data, a.requires_grad)

    def back(g):
        buf = np.zeros_like(a.data)
        np.put_along_axis(buf, expanded, g[..., None], axis=-1)
        _accum(a, buf)

    _record(out, back)
    return out


# -- reductions ---------------------------------------------------------------


def _expand_reduced(g: np.ndarray, shape, axis, keepdims: bool) -> np.ndarray:
    if not keepdims and axis is not None:
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        axes = tuple(a % len(shape) for a in axes)
        g = np.expand_dims(g, axes)
    return np.broadcast_to(g, shape)


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = _result(a.data.sum(axis=axis, keepdims=keepdims), a.requires_grad)
    in_shape = a.shape

    def back(g):
        _accum(a, _expand_reduced(g, in_shape, axis, keepdims))

    _record(out, back)
    return out


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out_data = a.data.mean(axis=axis, keepdims=keepdims)
    out = _result(out_data, a.requires_grad)
    in_shape = a.shape
    n = a.size if axis is None else a.data.size // out_data.size

    def back(g):
        _accum(a, _expand_reduced(g, in_shape, axis, keepdims) / n)

    _record(out, back)
    return out


# -- nonlinearities -------------------------------------------------------------


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Max-subtracted exponential normalization along ``axis``."""
    if not -a.ndim <= axis < a.ndim:
        raise ShapeError(f"softmax axis {axis} out of range for shape {a.shape}")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=axis, keepdims=True)
    out = _result(out_data, a.requires_grad)

    def back(g):
        inner = (g * out_data).sum(axis=axis, keepdims=True)
        _accum(a, out_data * (g - inner))

    _record(out, back)
    return out


def logsumexp(a: Tensor, axis: int = -1) -> Tensor:
    """Stable ``log(sum(exp(a)))`` along ``axis`` (axis is dropped)."""
    if not -a.ndim <= axis < a.ndim:
        raise ShapeError(f"logsumexp axis {axis} out of range for shape {a.shape}")
    m = a.data.max(axis=axis, keepdims=True)
    e = np.exp(a.data - m)
    s = e.sum(axis=axis, keepdims=True)
    out_data = np.squeeze(m + np.log(s), axis=axis)
    out = _result(out_data, a.requires_grad)
    soft = e / s

    def back(g):
        _accum(a, np.expand_dims(g, axis) * soft)

    _record(out, back)
    return out


def layer_norm(a: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Zero-mean unit-variance normalization over the last axis, then affine."""
    d = a.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(
            f"layer_norm affine shapes {gamma.shape}/{beta.shape} do not match "
            f"feature width {d}"
        )
    mu = a.data.mean(axis=-1, keepdims=True)
    xc = a.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv_std
    out = _result(
        xhat * gamma.data + beta.data,
        a.requires_grad or gamma.requires_grad or beta.requires_grad,
    )
    gamma_data = gamma.data

    def back(g):
        if gamma.requires_grad:
            lead = tuple(range(g.ndim - 1))
            _accum(gamma, (g * xhat).sum(axis=lead))
            _accum(beta, g.sum(axis=lead))
        if a.requires_grad:
            dxhat = g * gamma_data
            term = dxhat - dxhat.mean(axis=-1, keepdims=True)
            term -= xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
            _accum(a, inv_std * term)

    _record(out, back)
    return out


def _phi_f32(x: np.ndarray) -> np.ndarray:
    """Gaussian CDF of a float32 block through the rational erf.

    Largest deviation of ``x * _phi_f32(x)`` from the float64 exact form is
    below ``2e-6 * max(1, |x|)``.
    """
    z = x * _INV_SQRT2
    np.clip(z, -_ERF_CLIP, _ERF_CLIP, out=z)
    z2 = z * z
    p = _ERF_P[0] * z2
    for c in _ERF_P[1:-1]:
        p += c
        p *= z2
    p += _ERF_P[-1]
    p *= z
    q = _ERF_Q[0] * z2
    for c in _ERF_Q[1:-1]:
        q += c
        q *= z2
    q += _ERF_Q[-1]
    p /= q
    p *= 0.5
    p += 0.5
    return p


def gelu(a: Tensor) -> Tensor:
    """Exact Gaussian-CDF GELU: ``x * Phi(x)``.

    float64 input takes ``Phi`` from scipy's exact ``erf``; float32 input
    from :func:`_phi_f32`, one block of ``_GELU_BLOCK`` elements at a time.
    ``Phi`` is kept for the backward pass only when the op is recorded.
    """
    x = a.data
    keep = a.requires_grad and is_grad_enabled()
    if x.dtype == np.float64:
        phi_cdf = 0.5 * (1.0 + erf(x * _INV_SQRT2))
        out_data = x * phi_cdf
    else:
        flat = x.reshape(-1)
        out_data = np.empty_like(flat)
        phi_cdf = np.empty_like(flat) if keep else None
        for i in range(0, flat.size, _GELU_BLOCK):
            s = slice(i, i + _GELU_BLOCK)
            phi = _phi_f32(flat[s])
            np.multiply(flat[s], phi, out=out_data[s])
            if keep:
                phi_cdf[s] = phi
        out_data = out_data.reshape(x.shape)
    out = _result(out_data, a.requires_grad)
    if not keep:
        return out
    phi_cdf = phi_cdf.reshape(x.shape)

    def back(g):
        pdf = np.exp(-0.5 * x * x) * _INV_SQRT_2PI
        _accum(a, g * (phi_cdf + x * pdf))

    _record(out, back)
    return out
