"""Dense float tensors with tape-based reverse-mode differentiation.

The model code in this package is written against a deliberately small set of
primitives: elementwise arithmetic, (batched) matmul, affine, multi-head
attention and the two-layer GELU MLP, reshape/transpose/concat style layout
ops, reductions, and the nonlinearities a pre-norm transformer needs
(softmax, a layer norm with no scale or shift, GELU). A block's norm scale
and shift are applied inside the attention and MLP ops that read the norm.
Every primitive wraps its output through one constructor, ``_op``, which
alone decides whether the op is recorded: only when grad mode is on (see
:class:`no_grad`) and some input requires a gradient. A recorded op puts its
backward closure on the current thread's tape (:func:`active_tape`); each
thread keeps its own tape and grad mode. :func:`backward` replays the tape in
reverse execution order, which is a valid reverse topological order because
ops are recorded as they run.

The tape holds no tensors. A recorded output gets a gradient slot, which
carries a ``grad`` and a dtype but no data; a trainable leaf is its own slot.
Closures receive their inputs' slots when they run, and capture only shapes
and the arrays their backward reads. Any other array, such as a residual sum
or the input of the final norm, is freed as soon as the forward code drops
it. Where an array is large and can be rebuilt without a GEMM, the backward
rebuilds it with the forward's own ops, so the bits are the same.
:func:`layer_norm` keeps its normalised output, which the op reading it
shares instead of keeping ``xhat * gamma + beta``. :func:`mlp` keeps that
and the fc1 product, not the GELU output or slope. :func:`attention` keeps
it, q, k, v and each softmax row's max and sum, not the probabilities or
the merged heads before the output projection.

Values are float32 by default. float64 is supported so that gradient-checking
code can compare against finite differences without drowning in rounding
noise; nothing in the training path uses it. The dtype also selects the GELU
kernel: float64 uses the standard library's ``math.erf`` elementwise, float32
a rational approximation evaluated in cache-sized blocks (see
:func:`_gelu_into`).
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Sequence

import numpy as np

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

    __slots__ = ("data", "requires_grad", "grad", "_slot")

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
        self._slot = None

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


class _Slot:
    """Where a recorded op output's gradient accumulates during backward."""

    __slots__ = ("grad", "dtype")

    def __init__(self, dtype):
        self.grad = None
        self.dtype = dtype


class _ThreadState(threading.local):
    """Per-thread tape and grad mode; a new thread starts empty, grad on."""

    def __init__(self):
        self.tape = []
        self.grad_enabled = True


_state = _ThreadState()


def active_tape() -> list:
    """The tape the current thread is recording onto.

    Entries are ``(output slot, backward closure, input slots)`` in execution
    order; replaying them reversed visits every op once and respects data
    dependencies.
    """
    return _state.tape


def grad_enabled() -> bool:
    """Whether the current thread records ops: False inside :class:`no_grad`.

    A new thread starts with grad on, whatever its parent's mode.
    """
    return _state.grad_enabled


class no_grad:
    """Context manager that suspends tape recording (inference mode)."""

    def __enter__(self):
        self._prev = _state.grad_enabled
        _state.grad_enabled = False
        return self

    def __exit__(self, *exc):
        _state.grad_enabled = self._prev
        return False


def _op(data: np.ndarray, inputs: Sequence[Tensor],
        back: Callable[..., None]) -> Tensor:
    """Wrap a primitive's output and, if recording, put it on the tape.

    This is the only place an op is recorded: when grad mode is on and some
    input requires a gradient. The output requires a gradient exactly when
    the op was recorded, so under :class:`no_grad` outputs are plain
    constants and nothing downstream records either.

    Only a recorded op gets a slot. Its entry is ``(slot, back, input
    slots)``, one per input: a recorded output's slot, a trainable leaf
    itself (so ``p.grad`` is where the optimizer reads it), or ``None`` for
    a constant. :func:`backward` calls ``back(g, *input_slots)``.

    The attributes are filled directly, skipping ``Tensor.__init__``. A
    whole-array reduction's numpy scalar becomes a 0-d array, so that
    ``grad += g`` stays in place.
    """
    out = Tensor.__new__(Tensor)
    out.data = np.asarray(data)
    out.requires_grad = False
    out.grad = None
    if _state.grad_enabled:
        for t in inputs:
            if t.requires_grad:
                out.requires_grad = True
                out._slot = slot = _Slot(out.data.dtype)
                _state.tape.append((slot, back, [
                    (x._slot or x) if x.requires_grad else None
                    for x in inputs]))
                break
    return out


def _accum(slot, g: np.ndarray, owned: bool = False) -> None:
    """Add ``g`` into ``slot.grad``; the first touch stores a copy of ``g``.

    ``slot`` is an input slot as :func:`_op` resolved it; ``None`` (a
    constant) takes nothing. The copy matters: ``g`` is often a view of
    another gradient, which later accumulation into ``slot.grad`` must not
    write through. A caller passes ``owned=True`` only for a fresh array
    that nothing else holds, which is then stored as it is.
    """
    if slot is None:
        return
    if slot.grad is None:
        slot.grad = g.astype(slot.dtype, copy=not owned)
    else:
        slot.grad += g


def backward(loss: Tensor) -> None:
    """Populate gradients of every tensor the scalar ``loss`` depends on.

    Consumes the current thread's tape: entries recorded by unrelated forward
    passes are skipped (their slots carry no gradient) but discarded all the
    same, so each training step starts from an empty tape. Each entry is
    popped, and its slot's gradient detached, before its closure runs, so
    closures, the arrays they read and intermediate gradients are freed as
    soon as they are consumed; only leaf tensors keep a gradient.
    """
    if loss.size != 1:
        raise ContractError(
            f"backward requires a scalar loss, got shape {loss.shape}"
        )
    tape = active_tape()
    try:
        if loss.requires_grad:
            _accum(loss._slot or loss, np.ones_like(loss.data))
            while tape:
                slot, back, slots = tape.pop()
                g, slot.grad = slot.grad, None
                if g is not None:
                    back(g, *slots)
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


# -- elementwise arithmetic --------------------------------------------------


def add(a: Tensor, b) -> Tensor:
    if not isinstance(b, Tensor):

        def back_scalar(g, sa):
            _accum(sa, g)

        return _op(a.data + b, (a,), back_scalar)

    a_shape, b_shape = a.shape, b.shape

    def back(g, sa, sb):
        _accum(sa, _unbroadcast(g, a_shape))
        _accum(sb, _unbroadcast(g, b_shape))

    return _op(a.data + b.data, (a, b), back)


def sub(a: Tensor, b) -> Tensor:
    if not isinstance(b, Tensor):
        return add(a, -b)
    return add(a, neg(b))


def neg(a: Tensor) -> Tensor:
    return mul(a, -1.0)


def mul(a: Tensor, b) -> Tensor:
    if not isinstance(b, Tensor):

        def back_scalar(g, sa):
            _accum(sa, g * b)

        return _op(a.data * b, (a,), back_scalar)

    a_data, b_data = a.data, b.data

    def back(g, sa, sb):
        _accum(sa, _unbroadcast(g * b_data, a_data.shape))
        _accum(sb, _unbroadcast(g * a_data, b_data.shape))

    return _op(a_data * b_data, (a, b), back)


def pow_const(a: Tensor, p: float) -> Tensor:
    """Elementwise ``a ** p`` for a constant exponent."""
    a_data = a.data

    def back(g, sa):
        _accum(sa, g * (p * a_data ** (p - 1.0)))

    return _op(a_data**p, (a,), back)


def log(a: Tensor) -> Tensor:
    a_data = a.data

    def back(g, sa):
        _accum(sa, g / a_data)

    return _op(np.log(a_data), (a,), back)


def exp(a: Tensor) -> Tensor:
    out_data = np.exp(a.data)

    def back(g, sa):
        _accum(sa, g * out_data)

    return _op(out_data, (a,), back)


# -- matmul ------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product with numpy stacking semantics on leading dims."""
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(
            f"matmul requires rank >= 2 operands, got shapes {a.shape} and {b.shape}"
        )
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(
            f"matmul inner dimensions disagree: shapes {a.shape} and {b.shape}"
        )
    a_data, b_data = a.data, b.data
    try:
        out_data = a_data @ b_data
    except ValueError as e:
        raise ShapeError(
            f"matmul batch dimensions do not broadcast: shapes {a.shape} and {b.shape}"
        ) from e

    def back(g, sa, sb):
        if sa is not None:
            _accum(sa, _unbroadcast(g @ np.swapaxes(b_data, -1, -2), a_data.shape))
        if sb is not None:
            _accum(sb, _unbroadcast(np.swapaxes(a_data, -1, -2) @ g, b_data.shape))

    return _op(out_data, (a, b), back)


def _affine_data(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``x @ w + b`` as :func:`affine` computes it: one 2-D GEMM over the
    flattened leading dims of ``x``, with the bias added into its buffer."""
    out = x.reshape(-1, w.shape[0]) @ w
    out += b
    return out.reshape(x.shape[:-1] + w.shape[1:])


def _affine_back(g: np.ndarray, x: np.ndarray | None, w: np.ndarray,
                 b_shape: tuple[int, ...], sx, sw, sb) -> None:
    """:func:`affine`'s backward from its output gradient ``g``: the input's,
    weight's and bias's gradients into the slots ``sx``, ``sw``, ``sb``.
    ``x`` is read only for the weight's."""
    g2d = g.reshape(-1, w.shape[1])
    if sx is not None:
        _accum(sx, (g2d @ w.T).reshape(g.shape[:-1] + w.shape[:1]), owned=True)
    if sw is not None:
        _accum(sw, x.reshape(-1, w.shape[0]).T @ g2d, owned=True)
    if sb is not None:
        _accum(sb, _unbroadcast(g, b_shape))


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b``: one 2-D GEMM over the flattened leading dims of ``x``,
    forward and backward, with the bias added into the product's buffer."""
    if w.ndim != 2 or x.shape[-1] != w.shape[0]:
        raise ShapeError(
            f"affine input width {x.shape[-1]} does not match weight {w.shape}"
        )
    x_data, w_data, b_shape = x.data, w.data, b.shape

    def back(g, sx, sw, sb):
        _affine_back(g, x_data, w_data, b_shape, sx, sw, sb)

    return _op(_affine_data(x_data, w_data, b.data), (x, w, b), back)


def _scale_shift(xhat: np.ndarray, gamma: np.ndarray,
                 beta: np.ndarray) -> np.ndarray:
    """A norm's learned scale and shift, ``xhat * gamma + beta``, with the
    ops :func:`attention` and :func:`mlp` run in forward and rebuild in
    backward."""
    out = xhat * gamma
    out += beta
    return out


def _scale_shift_back(g: np.ndarray, xhat: np.ndarray, gamma: np.ndarray,
                      sx, sgamma, sbeta) -> None:
    """Gradients of :func:`_scale_shift` from the gradient ``g`` of its
    output: ``gamma``'s and ``beta``'s, and ``g * gamma`` into the slot of
    the :func:`layer_norm` output ``xhat``."""
    lead = tuple(range(g.ndim - 1))
    if sgamma is not None:
        _accum(sgamma, (g * xhat).sum(axis=lead))
    if sbeta is not None:
        _accum(sbeta, g.sum(axis=lead))
    if sx is not None:
        _accum(sx, g * gamma, owned=True)


def attention(x: Tensor, gamma: Tensor, beta: Tensor, wq: Tensor, bq: Tensor,
              wk: Tensor, wv: Tensor, bv: Tensor, wo: Tensor, bo: Tensor,
              heads: int, keep: int | None) -> tuple[Tensor, np.ndarray]:
    """Multi-head self-attention over the (..., n, d) :func:`layer_norm`
    output ``x``, from the norm's scale and shift to the output projection.

    One op takes ``ln = x * gamma + beta``, projects it to q, k and v
    (``ln @ w + b``; k has no ``b``), splits heads, scores at 1/sqrt(d /
    heads), takes the softmax, mixes, merges, and projects by ``wo``, ``bo``.
    With ``keep`` only the first ``keep`` tokens query, so the output is
    (..., keep, d) and every token is still a key and a value (class
    attention); with ``None`` every token queries.

    The tape keeps ``x``, which its norm keeps anyway, q, k, v and each
    softmax row's max and sum (FlashAttention's row statistics, arXiv
    2205.14135). The backward rebuilds ``ln``, the probabilities and the
    merged heads from them with the forward's own ops, and adds up the
    gradient of ``ln`` from v, k, then the query rows, as the unfused ops
    did, so the output and every gradient are the same bits as theirs.
    Returns the output and the (..., heads, n_q, n) probabilities as a
    plain array that the tape does not hold.
    """
    *lead, n, d = x.shape
    n_q = n if keep is None else keep
    if (d % heads or not 0 < n_q <= n
            or any(w.shape != (d, d) for w in (wq, wk, wv, wo))
            or any(b.shape != (d,) for b in (gamma, beta, bq, bv, bo))):
        raise ShapeError(
            f"attention over {heads} heads, {n_q} of {n} tokens querying, "
            f"cannot take input {x.shape} through norm {gamma.shape}/"
            f"{beta.shape} and weights {wq.shape}/{bq.shape}, {wk.shape}, "
            f"{wv.shape}/{bv.shape}, {wo.shape}/{bo.shape}")
    m_q = math.prod(lead) * n_q
    dh = d // heads
    scale = 1.0 / math.sqrt(dh)
    x_data, gamma_data, beta_data = x.data, gamma.data, beta.data
    wq_data, wk_data, wv_data, wo_data = wq.data, wk.data, wv.data, wo.data
    b_shape = bo.shape

    def split(t, rows):
        return np.swapaxes(t.reshape(*lead, rows, heads, dh), -2, -3)

    def merge(t, rows):
        return np.swapaxes(t, -2, -3).reshape(*lead, rows, d)

    def query_rows(ln):
        # A copy of the leading rows, as the getitem that took them made.
        return ln if keep is None else np.array(ln[..., :keep, :], copy=True)

    def scores(qh, kh):
        p = qh @ np.swapaxes(kh, -1, -2)
        p *= scale
        return p

    ln = _scale_shift(x_data, gamma_data, beta_data)
    q = _affine_data(query_rows(ln), wq_data, bq.data)
    k = (ln.reshape(-1, d) @ wk_data).reshape(ln.shape)
    v = _affine_data(ln, wv_data, bv.data)
    del ln
    p = scores(split(q, n_q), split(k, n))
    row_max = p.max(axis=-1, keepdims=True)
    p -= row_max
    np.exp(p, out=p)
    row_sum = p.sum(axis=-1, keepdims=True)
    p /= row_sum

    def back(g, sx, sgamma, sbeta, swq, sbq, swk, swv, sbv, swo, sbo):
        qh, kh, vh = split(q, n_q), split(k, n), split(v, n)
        p = scores(qh, kh)
        p -= row_max
        np.exp(p, out=p)
        p /= row_sum
        grad_x = not (sx is sgamma is sbeta is None)
        need_v, need_k, need_q = (grad_x or not (sw is sb is None) for sw, sb
                                  in ((swv, sbv), (swk, None), (swq, sbq)))
        smixed = _Slot(g.dtype) if need_v or need_k or need_q else None
        mixed = None if swo is None else merge(p @ vh, n_q)
        _affine_back(g, mixed, wo_data, b_shape, smixed, swo, sbo)
        del mixed
        if smixed is None:
            return
        gm = split(smixed.grad, n_q)
        gv = merge(np.swapaxes(p, -1, -2) @ gm, n) if need_v else None
        if need_k or need_q:
            gs = gm @ np.swapaxes(vh, -1, -2)
            inner = (gs * p).sum(axis=-1, keepdims=True)
            gs -= inner
            gs *= p
            gs *= scale
        del p, gm
        ln = None
        if not (swq is swk is swv is None):
            ln = _scale_shift(x_data, gamma_data, beta_data)
        # ln's gradient adds up in a slot from v, k, then the query rows, as
        # in the unfused ops' slots.
        sln = _Slot(x_data.dtype) if grad_x else None
        if need_v:
            _affine_back(gv, ln, wv_data, b_shape, sln, swv, sbv)
            del gv
        if need_k:
            # As (qh^T @ gs)^T, the orientation of the unfused q @ k^T.
            gk = np.swapaxes(np.swapaxes(qh, -1, -2) @ gs, -1, -2)
            _affine_back(merge(gk, n), ln, wk_data, b_shape, sln, swk, None)
            del gk
        if need_q:
            srows = sln if keep is None or sln is None else _Slot(sln.dtype)
            _affine_back(merge(gs @ kh, n_q), None if ln is None else
                         query_rows(ln), wq_data, b_shape, srows, swq, sbq)
            if srows is not sln:
                # Back through the getitem that took the query rows.
                pad = np.zeros(x_data.shape, sln.dtype)
                pad[..., :keep, :] += srows.grad
                _accum(sln, pad, owned=True)
        if grad_x:
            _scale_shift_back(sln.grad, x_data, gamma_data, sx, sgamma, sbeta)

    out_data = np.empty((m_q, d), np.result_type(v, wo_data))
    out = _op(out_data.reshape(*lead, n_q, d),
              (x, gamma, beta, wq, bq, wk, wv, bv, wo, bo), back)
    mixed = merge(p @ split(v, n), n_q).reshape(m_q, d)
    if not out.requires_grad:
        q = k = v = None
    np.matmul(mixed, wo_data, out=out_data)
    out_data += bo.data
    return out, p


def mlp(x: Tensor, gamma: Tensor, beta: Tensor, w1: Tensor, b1: Tensor,
        w2: Tensor, b2: Tensor) -> Tensor:
    """``affine(gelu(affine(x * gamma + beta, w1, b1)), w2, b2)`` on the
    :func:`layer_norm` output ``x``, as one op that keeps only ``x``, which
    its norm keeps anyway, and the fc1 product ``h`` (selective
    recomputation, arXiv 2205.05198).

    The forward takes the activation through :func:`gelu` under
    :class:`no_grad`; unrecorded, it drops ``h`` before the fc2 GEMM. The
    backward rebuilds the activation and GELU's slope from ``h`` with the
    same kernel, and ``x * gamma + beta`` from ``x`` for fc1's weight
    gradient, then runs the unfused form's GEMMs on the same operands, so
    the output and every gradient are the same bits as the unfused ops'.
    The rebuilt activation is freed after fc2's weight gradient, and the
    fc1 gradient is scaled by the slope in place.
    """
    (k, hidden), n, lead = w1.shape, w2.shape[-1], x.shape[:-1]
    if (x.shape[-1] != k or w2.shape[0] != hidden
            or gamma.shape != (k,) or beta.shape != (k,)):
        raise ShapeError(f"mlp cannot take input {x.shape} through norm "
                         f"{gamma.shape}/{beta.shape} and weights {w1.shape} "
                         f"and {w2.shape}")
    m = math.prod(lead)
    x_data, gamma_data, beta_data, w1_data, w2_data, b1_shape, b2_shape = (
        x.data, gamma.data, beta.data, w1.data, w2.data, b1.shape, b2.shape)
    h = _scale_shift(x_data, gamma_data, beta_data).reshape(m, k) @ w1_data
    h += b1.data
    with no_grad():
        act = gelu(Tensor(h)).data

    def back(g, sx, sgamma, sbeta, sw1, sb1, sw2, sb2):
        g2d = g.reshape(m, n)
        act = np.empty_like(h)
        grad_x = not (sx is sgamma is sbeta is None)
        slope = None if not grad_x and sw1 is sb1 is None else np.empty_like(h)
        _gelu_into(h, act, slope)
        if sw2 is not None:
            _accum(sw2, act.T @ g2d, owned=True)
        del act
        if sb2 is not None:
            _accum(sb2, _unbroadcast(g, b2_shape))
        if slope is None:
            return
        gh = g2d @ w2_data.T
        gh *= slope
        del slope
        if grad_x:
            _scale_shift_back((gh @ w1_data.T).reshape(x_data.shape), x_data,
                              gamma_data, sx, sgamma, sbeta)
        if sw1 is not None:
            ln = _scale_shift(x_data, gamma_data, beta_data)
            _accum(sw1, ln.reshape(m, k).T @ gh, owned=True)
        if sb1 is not None:
            _accum(sb1, _unbroadcast(gh.reshape(lead + (hidden,)), b1_shape))

    out_data = np.empty((m, n), np.result_type(act, w2_data))
    out = _op(out_data.reshape(lead + (n,)),
              (x, gamma, beta, w1, b1, w2, b2), back)
    if not out.requires_grad:
        h = None
    np.matmul(act, w2_data, out=out_data)
    out_data += b2.data
    return out


# -- layout ops ----------------------------------------------------------------


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    try:
        out_data = a.data.reshape(shape)
    except ValueError as e:
        raise ShapeError(f"cannot reshape {a.shape} to {shape}") from e
    in_shape = a.shape

    def back(g, sa):
        _accum(sa, g.reshape(in_shape))

    return _op(out_data, (a,), back)


def transpose(a: Tensor, axes=None) -> Tensor:
    if axes is not None:
        axes = tuple(axes)
        if sorted(axes) != list(range(a.ndim)):
            raise ShapeError(f"invalid transpose axes {axes} for shape {a.shape}")
        inv = tuple(np.argsort(axes))
    else:
        inv = None

    def back(g, sa):
        _accum(sa, np.transpose(g, inv))

    return _op(np.transpose(a.data, axes), (a,), back)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = list(tensors)
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def back(g, *slots):
        for s, piece in zip(slots, np.split(g, splits, axis=axis)):
            _accum(s, piece)

    return _op(out_data, tensors, back)


def broadcast_to(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    try:
        out_data = np.broadcast_to(a.data, shape)
    except ValueError as e:
        raise ShapeError(f"cannot broadcast {a.shape} to {shape}") from e
    in_shape = a.shape

    def back(g, sa):
        _accum(sa, _unbroadcast(g, in_shape))

    return _op(np.ascontiguousarray(out_data), (a,), back)


def getitem(a: Tensor, key) -> Tensor:
    """Basic slicing plus integer-array row gathering, both differentiable."""
    out_data = np.array(a.data[key], copy=True)
    fancy = isinstance(key, (np.ndarray, list)) or (
        isinstance(key, tuple)
        and any(isinstance(k, (np.ndarray, list)) for k in key)
    )
    in_shape, dtype = a.shape, a.dtype

    def back(g, sa):
        buf = np.zeros(in_shape, dtype)
        if fancy:
            np.add.at(buf, key, g)
        else:
            buf[key] += g
        _accum(sa, buf, owned=True)

    return _op(out_data, (a,), back)


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
    in_shape, dtype = a.shape, a.dtype

    def back(g, sa):
        buf = np.zeros(in_shape, dtype)
        np.put_along_axis(buf, expanded, g[..., None], axis=-1)
        _accum(sa, buf, owned=True)

    return _op(np.take_along_axis(a.data, expanded, axis=-1)[..., 0], (a,), back)


# -- reductions ---------------------------------------------------------------


def _expand_reduced(g: np.ndarray, shape, axis, keepdims: bool) -> np.ndarray:
    if not keepdims and axis is not None:
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        axes = tuple(a % len(shape) for a in axes)
        g = np.expand_dims(g, axes)
    return np.broadcast_to(g, shape)


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    in_shape = a.shape

    def back(g, sa):
        _accum(sa, _expand_reduced(g, in_shape, axis, keepdims))

    return _op(a.data.sum(axis=axis, keepdims=keepdims), (a,), back)


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out_data = a.data.mean(axis=axis, keepdims=keepdims)
    in_shape = a.shape
    n = a.size if axis is None else a.data.size // out_data.size

    def back(g, sa):
        _accum(sa, _expand_reduced(g, in_shape, axis, keepdims) / n)

    return _op(out_data, (a,), back)


# -- nonlinearities -------------------------------------------------------------


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Max-subtracted exponential normalization along ``axis``."""
    if not -a.ndim <= axis < a.ndim:
        raise ShapeError(f"softmax axis {axis} out of range for shape {a.shape}")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def back(g, sa):
        inner = (g * out_data).sum(axis=axis, keepdims=True)
        _accum(sa, out_data * (g - inner))

    return _op(out_data, (a,), back)


def logsumexp(a: Tensor, axis: int = -1) -> Tensor:
    """Stable ``log(sum(exp(a)))`` along ``axis`` (axis is dropped)."""
    if not -a.ndim <= axis < a.ndim:
        raise ShapeError(f"logsumexp axis {axis} out of range for shape {a.shape}")
    m = a.data.max(axis=axis, keepdims=True)
    e = np.exp(a.data - m)
    s = e.sum(axis=axis, keepdims=True)
    out_data = np.squeeze(m + np.log(s), axis=axis)
    soft = e / s

    def back(g, sa):
        _accum(sa, np.expand_dims(g, axis) * soft)

    return _op(out_data, (a,), back)


def layer_norm(a: Tensor, eps: float = 1e-5) -> Tensor:
    """Zero-mean unit-variance normalization over the last axis, with no
    scale or shift; the normalized values are the only full-size array the
    op keeps. A block's learned scale and shift are applied by the op that
    reads its norm (:func:`attention`, :func:`mlp`).
    """
    xhat = a.data - a.data.mean(axis=-1, keepdims=True)
    var = (xhat * xhat).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat *= inv_std

    def back(g, sa):
        term = g - g.mean(axis=-1, keepdims=True)
        term -= xhat * (g * xhat).mean(axis=-1, keepdims=True)
        # Not scaled in place: the product's memory order, which a
        # non-contiguous ``g`` sets, decides how later sums round.
        _accum(sa, inv_std * term, owned=True)

    return _op(xhat, (a,), back)


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


def _gelu_slope(x: np.ndarray, phi_cdf: np.ndarray,
                out: np.ndarray) -> np.ndarray:
    """GELU's derivative ``Phi(x) + x * pdf(x)``, written into ``out``.

    The ops and their order are those of the unfused form
    ``phi_cdf + x * (exp((-0.5 * x) * x) * _INV_SQRT_2PI)``, so the bits
    are the same.
    """
    np.multiply(x, -0.5, out=out)
    out *= x
    np.exp(out, out=out)
    out *= _INV_SQRT_2PI
    out *= x
    out += phi_cdf
    return out


def _gelu_into(x: np.ndarray, out: np.ndarray,
               slope: np.ndarray | None = None) -> None:
    """The GELU kernel: ``x * Phi(x)`` into ``out`` and, if given, the
    derivative (:func:`_gelu_slope`) into ``slope``.

    float64 takes ``Phi`` from ``math.erf``, one call per element (about
    0.1 us each; only float64 reference runs pay it); float32 from
    :func:`_phi_f32`, one block of ``_GELU_BLOCK`` elements at a time.
    ``out`` and ``slope`` are C-contiguous arrays of ``x``'s shape.
    """
    if x.dtype == np.float64:
        # Iterating .flat builds no array of Python floats (np.vectorize does).
        erf = np.fromiter(map(math.erf, (x * _INV_SQRT2).flat), np.float64,
                          count=x.size)
        phi_cdf = 0.5 * (1.0 + erf.reshape(x.shape))
        np.multiply(x, phi_cdf, out=out)
        if slope is not None:
            _gelu_slope(x, phi_cdf, slope)
        return
    flat, out_flat = x.reshape(-1), out.reshape(-1)
    slope_flat = None if slope is None else slope.reshape(-1)
    for i in range(0, flat.size, _GELU_BLOCK):
        s = slice(i, i + _GELU_BLOCK)
        phi = _phi_f32(flat[s])
        np.multiply(flat[s], phi, out=out_flat[s])
        if slope_flat is not None:
            _gelu_slope(flat[s], phi, slope_flat[s])


def gelu(a: Tensor) -> Tensor:
    """Exact Gaussian-CDF GELU: ``x * Phi(x)``, by :func:`_gelu_into`.

    The kernel writes into the output of an already-wrapped op. That op's
    ``requires_grad`` says whether it was recorded. Only then does the
    forward also compute the derivative, which is all the backward keeps:
    it is one multiply, and neither the input nor ``Phi`` outlives the
    forward.
    """
    x = a.data

    def back(g, sa):
        _accum(sa, g * slope, owned=True)

    out = _op(np.empty(x.shape, x.dtype), (a,), back)
    slope = np.empty(x.shape, x.dtype) if out.requires_grad else None
    _gelu_into(x, out.data, slope)
    return out
