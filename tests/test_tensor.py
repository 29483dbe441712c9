"""Tests for the tensor/autodiff core."""

import math
import threading

import numpy as np
import pytest

from sitsformer import tensor as T
from sitsformer.errors import ContractError, ShapeError
from sitsformer.tensor import Tensor, backward, no_grad

from _gradcheck import check_gradients, finite_difference, max_rel_err


def t64(arr, requires_grad=True):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=requires_grad)


def attention_shapes(d):
    """Shapes of ``T.attention``'s inputs after the tokens at width ``d``:
    the norm's scale and shift, then the q, k, v and output projections,
    of which only k has no bias."""
    return [(d,), (d,), (d, d), (d,), (d, d), (d, d), (d,), (d, d), (d,)]


def attention_case(keep):
    """``T.attention`` over 2 heads. The query weight enters at a tenth of
    its drawn size, so the scores stay O(1) as at init, where central
    differences resolve the softmax."""

    def call(x, gamma, beta, wq, *rest):
        return T.attention(x, gamma, beta, wq * 0.1, *rest, 2, keep)[0]

    return call, [(2, 3, 4)] + attention_shapes(4)


# Every differentiable primitive, as (call, input shapes): matmul against a
# 2-D and a 3-D right operand, attention with every token querying and with
# the first two. The no-grad case trains only the last input, so mlp's
# backward then skips GELU and attention's stops at the output bias.
PRIMITIVE_CASES = {
    "add": (T.add, [(2, 3), (3,)]),
    "sub": (T.sub, [(2, 3), (2, 3)]),
    "mul": (T.mul, [(2, 3), (2, 1)]),
    "neg": (T.neg, [(2, 3)]),
    "exp": (T.exp, [(2, 3)]),
    "log": (T.log, [(2, 3)]),
    "pow_const": (lambda a: T.pow_const(a, 3.0), [(2, 3)]),
    "matmul_2d": (T.matmul, [(2, 3, 4), (4, 5)]),
    "matmul_3d": (T.matmul, [(2, 3, 4), (2, 4, 5)]),
    "affine": (T.affine, [(2, 3, 4), (4, 5), (5,)]),
    "mlp": (T.mlp, [(2, 3, 4), (4,), (4,), (4, 6), (6,), (6, 5), (5,)]),
    "attention": attention_case(None),
    "attention_cls": attention_case(2),
    "reshape": (lambda a: T.reshape(a, (6, 4)), [(2, 3, 4)]),
    "transpose": (lambda a: T.transpose(a, (1, 0, 2)), [(2, 3, 4)]),
    "concat": (lambda a, b: T.concat([a, b], axis=0), [(2, 3), (1, 3)]),
    "getitem": (lambda a: T.getitem(a, (slice(None), 1)), [(2, 3)]),
    "broadcast_to": (lambda a: T.broadcast_to(a, (4, 2, 3)), [(2, 3)]),
    "gather_last": (lambda a: T.gather_last(a, np.array([0, 2])), [(2, 3)]),
    "tsum": (lambda a: T.tsum(a, axis=0), [(2, 3)]),
    "tmean": (lambda a: T.tmean(a, axis=1), [(2, 3)]),
    "softmax": (T.softmax, [(2, 3)]),
    "logsumexp": (T.logsumexp, [(2, 3)]),
    "layer_norm": (T.layer_norm, [(2, 4)]),
    "gelu": (T.gelu, [(2, 3)]),
}


class TestBasics:
    def test_default_dtype_is_float32(self):
        x = Tensor([1.0, 2.0])
        assert x.dtype == np.float32

    def test_shape_matches_data(self):
        x = Tensor(np.zeros((2, 3, 4)))
        assert x.shape == (2, 3, 4)
        assert x.size == 24

    def test_grad_buffer_matches_shape(self):
        x = Tensor(np.ones((3, 2)), requires_grad=True)
        loss = x.sum()
        backward(loss)
        assert x.grad.shape == x.shape

    def test_scalar_promotion_stays_float32(self):
        x = Tensor(np.ones(3, dtype=np.float32))
        assert (x * 2.0).dtype == np.float32
        assert (x + 0.5).dtype == np.float32


class TestMatmul:
    def test_identity(self):
        a = Tensor(np.eye(2))
        b = Tensor([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal((a @ b).data, b.data)

    def test_shape_mismatch_names_both_shapes(self):
        a = Tensor(np.zeros((2, 3)))
        b = Tensor(np.zeros((4, 5)))
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 5\)"):
            a @ b

    def test_grad_of_sum_equals_column_sums(self):
        # d/dA sum(A @ B) = 1 . B^T: every row equals the column sums of B.
        rng = np.random.default_rng(0)
        a = t64(rng.standard_normal((3, 4)))
        b_data = rng.standard_normal((4, 5))
        b = t64(b_data, requires_grad=False)
        backward((a @ b).sum())
        expected = np.tile(b_data.sum(axis=1), (3, 1))
        np.testing.assert_allclose(a.grad, expected, rtol=1e-12)

    def test_gradcheck_batched(self):
        # 3-D and 4-D left operands against a 2-D weight broadcast it;
        # transposing (4, 3, 2) gives a non-contiguous left operand.
        rng = np.random.default_rng(1)
        b = t64(rng.standard_normal((4, 5)))
        for shape, axes in (((2, 3, 4), None), ((2, 2, 3, 4), None),
                            ((4, 3, 2), (2, 1, 0))):
            a = t64(rng.standard_normal(shape))

            def loss(params):
                a_, b_ = params
                if axes is not None:
                    a_ = a_.transpose(axes)
                return ((a_ @ b_) * (a_ @ b_)).sum()

            assert check_gradients(loss, [a, b]) < 1e-6
            lhs = a.data if axes is None else a.data.transpose(axes)
            np.testing.assert_allclose((T.Tensor(lhs) @ b).data,
                                       lhs @ b.data, rtol=1e-12)
        # Batched 3-D @ 3-D keeps numpy's broadcasting and its error message.
        a = t64(rng.standard_normal((2, 3, 4)))
        c = t64(rng.standard_normal((1, 4, 5)))
        backward((a @ c).sum())
        assert c.grad.shape == (1, 4, 5)
        with pytest.raises(ShapeError, match="do not broadcast"):
            a @ t64(rng.standard_normal((3, 4, 5)))
        with pytest.raises(ShapeError, match="inner dimensions disagree"):
            a @ t64(rng.standard_normal((5, 4)))

    def test_rejects_vectors(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros(3)) @ Tensor(np.zeros((3, 2)))


class TestSoftmax:
    def test_uniform_on_constant_input(self):
        out = T.softmax(Tensor([0.0, 0.0, 0.0]), axis=-1)
        np.testing.assert_allclose(out.data, [1 / 3] * 3, atol=1e-7)

    def test_no_overflow_on_huge_logit(self):
        out = T.softmax(Tensor([1000.0, 0.0]), axis=-1)
        assert np.all(np.isfinite(out.data))
        np.testing.assert_allclose(out.data, [1.0, 0.0], atol=1e-7)

    def test_slices_sum_to_one(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.standard_normal((4, 6)) * 10)
        out = T.softmax(x, axis=1)
        np.testing.assert_allclose(out.data.sum(axis=1), np.ones(4), atol=1e-6)
        assert np.all(out.data >= 0)

    def test_axis_out_of_range(self):
        with pytest.raises(ShapeError):
            T.softmax(Tensor(np.zeros((2, 2))), axis=2)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        x = t64(rng.standard_normal(5))
        w = rng.standard_normal(5)  # fixed weights make the loss non-symmetric

        def loss(params):
            (x_,) = params
            return (T.softmax(x_, axis=-1) * Tensor(w, dtype=np.float64)).sum()

        assert check_gradients(loss, [x]) < 1e-4


class TestLayerNorm:
    def test_closed_form_three_point(self):
        out = T.layer_norm(Tensor([1.0, 2.0, 3.0]), eps=0.0)
        np.testing.assert_allclose(
            out.data, [-1.22474487, 0.0, 1.22474487], atol=1e-5
        )

    def test_constant_vector_maps_to_zero(self):
        out = T.layer_norm(Tensor([5.0, 5.0, 5.0, 5.0]), eps=1e-5)
        np.testing.assert_allclose(out.data, np.zeros(4), atol=1e-7)

    def test_row_statistics(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.standard_normal((4, 8)) * 3 + 1)
        out = T.layer_norm(x, eps=1e-7)
        assert np.all(np.abs(out.data.mean(axis=-1)) < 1e-6)
        np.testing.assert_allclose(out.data.var(axis=-1), np.ones(4), atol=1e-4)

    def test_affine_shape_mismatch(self):
        # A norm's scale and shift are checked by the op that applies them.
        xhat = T.layer_norm(Tensor(np.zeros((2, 3, 4))))
        w, b, bad = Tensor(np.zeros((4, 4))), Tensor(np.zeros(4)), Tensor(np.ones(3))
        with pytest.raises(ShapeError, match=r"norm \(3,\)/\(4,\)"):
            T.attention(xhat, bad, b, w, b, w, w, b, w, b, 2, None)
        with pytest.raises(ShapeError, match=r"norm \(4,\)/\(3,\)"):
            T.mlp(xhat, b, bad, w, b, w, b)

    def test_gradcheck(self):
        rng = np.random.default_rng(5)
        x = t64(rng.standard_normal((3, 6)))
        w = rng.standard_normal((3, 6))

        def loss(params):
            out = T.layer_norm(params[0], eps=1e-5)
            return (out * Tensor(w, dtype=np.float64)).sum()

        assert check_gradients(loss, [x]) < 1e-5


def unfused_attention(xhat, gamma, beta, wq, bq, wk, wv, bv, wo, bo,
                      heads, keep, affine=T.affine):
    """``T.attention`` as the ops it folds: the norm's scale and shift, the
    getitem of the query rows, the q and v affines, the key product on the
    flattened rows, split heads, scores, scale, softmax, mix, merge and the
    output affine."""
    b, n, d = xhat.shape
    n_q, dh = n if keep is None else keep, d // heads

    def split(t, rows):
        return t.reshape(b, rows, heads, dh).transpose(0, 2, 1, 3)

    ln = xhat * gamma + beta
    rows = ln if keep is None else T.getitem(ln, (..., slice(0, keep),
                                                  slice(None)))
    q = affine(rows, wq, bq)
    k = T.reshape(T.matmul(T.reshape(ln, (b * n, d)), wk), (b, n, d))
    v = affine(ln, wv, bv)
    q, k, v = split(q, n_q), split(k, n), split(v, n)
    scores = (q @ k.transpose(0, 1, 3, 2)) * (1.0 / math.sqrt(dh))
    attn = T.softmax(scores, axis=-1)
    mixed = (attn @ v).transpose(0, 2, 1, 3).reshape(b, n_q, d)
    return affine(mixed, wo, bo), attn.data


def unfused_mlp(xhat, gamma, beta, w1, b1, w2, b2):
    """``T.mlp`` as the ops it folds."""
    return T.affine(T.gelu(T.affine(xhat * gamma + beta, w1, b1)), w2, b2)


def compare_over_grad_subsets(fused, unfused, leaves, coef):
    """Run ``fused`` and ``unfused`` from the same leaves, once for every
    subset of them that requires a gradient and once under ``no_grad``, and
    require their outputs and every gradient to be the same bits.

    Each callable returns its output tensor, then any arrays that must
    match as well. Only the leaves that require a gradient may get one.
    """
    dtype = leaves[0].dtype
    for mask in range(2 ** len(leaves)):
        for i, t in enumerate(leaves):
            t.requires_grad = bool(mask >> i & 1)
        runs = []
        for fn in (fused, unfused):
            out, *extra = fn()
            if out.requires_grad:
                backward((out * coef).sum())
            runs.append([out.data, *extra] + [t.grad for t in leaves])
            for t in leaves:
                t.zero_grad()
        assert ([g is not None for g in runs[0][-len(leaves):]]
                == [t.requires_grad for t in leaves])
        for a, b in zip(*runs):
            assert a is None and b is None or a.dtype == b.dtype == dtype
            np.testing.assert_array_equal(a, b)
    with no_grad():
        off = [[x.data if isinstance(x, Tensor) else x for x in fn()]
               for fn in (fused, unfused)]
    assert len(T.active_tape()) == 0
    for a, b, on in zip(*off, runs[0]):
        np.testing.assert_array_equal(a, on)
        np.testing.assert_array_equal(b, on)


class TestFusedOps:
    def test_float32_matches_composed_forms_bitwise(self):
        # Down to the basic primitives: each affine as matmul on the
        # flattened rows, then a bias add.
        b, n, d, heads = 3, 5, 8, 2
        rng = np.random.default_rng(12)

        def leaf(*shape):
            return Tensor(rng.standard_normal(shape).astype(np.float32),
                          requires_grad=True)

        z = leaf(b, n, d)
        params = [leaf(*s) for s in attention_shapes(d)]
        coef = Tensor(rng.standard_normal((b, n, d)).astype(np.float32))

        def composed_affine(x, w, bias):
            flat = T.matmul(T.reshape(x, (x.shape[0] * x.shape[1], d)), w)
            return T.reshape(flat, x.shape[:2] + (d,)) + bias

        runs = []
        for fn in (T.attention, lambda *a: unfused_attention(
                *a, affine=composed_affine)):
            out, probs = fn(T.layer_norm(z), *params, heads, None)
            backward((out * coef).sum())
            runs.append([out.data, probs] + [t.grad for t in [z] + params])
            for t in [z] + params:
                t.zero_grad()
        for fused, composed in zip(*runs):
            assert fused.dtype == np.float32
            np.testing.assert_array_equal(fused, composed)

    @pytest.mark.parametrize("keep", [None, 2])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_attention_matches_unfused_ops_bitwise(self, dtype, keep):
        # Every subset of the ten inputs that train, the normalised tokens
        # counted as one through the layer norm's input.
        b, n, d, heads = 2, 4, 4, 2
        rng = np.random.default_rng(15)
        leaves = [Tensor(rng.standard_normal(s).astype(dtype)) for s in
                  [(b, n, d)] + attention_shapes(d)]
        coef = Tensor(rng.standard_normal(
            (b, n if keep is None else keep, d)).astype(dtype))

        def call(fn):
            return lambda: fn(T.layer_norm(leaves[0]), *leaves[1:], heads, keep)

        compare_over_grad_subsets(call(T.attention), call(unfused_attention),
                                  leaves, coef)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_mlp_matches_unfused_ops_bitwise(self, dtype):
        # Every subset of the seven inputs that train, on the first two
        # tokens of each sample as in a class-attention block.
        rng = np.random.default_rng(16)
        leaves = [Tensor(rng.standard_normal(s).astype(dtype)) for s in
                  [(2, 3, 4), (4,), (4,), (4, 6), (6,), (6, 4), (4,)]]
        coef = Tensor(rng.standard_normal((2, 2, 4)).astype(dtype))

        def call(fn):
            return lambda: (fn(T.layer_norm(T.getitem(leaves[0], (
                slice(None), slice(0, 2)))), *leaves[1:]),)

        compare_over_grad_subsets(call(T.mlp), call(unfused_mlp), leaves, coef)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_mlp_matches_affine_gelu_affine_bitwise(self, dtype):
        # The hidden activation spans two GELU blocks; float64 checks that the
        # rebuilt slope takes math.erf as gelu does. The second input is the
        # first two tokens of each sample, the rows class attention keeps.
        rng = np.random.default_rng(13)

        def leaf(*shape):
            return Tensor(rng.standard_normal(shape).astype(dtype),
                          requires_grad=True)

        leaves = [leaf(4, 70, 16), leaf(16), leaf(16), leaf(16, 128),
                  leaf(128), leaf(128, 16), leaf(16)]
        z, params = leaves[0], leaves[1:]
        assert 4 * 70 * 128 > T._GELU_BLOCK

        for rows in (slice(None), slice(0, 2)):
            runs = []
            for fn in (T.mlp, unfused_mlp):
                xhat = T.layer_norm(T.getitem(z, (slice(None), rows)))
                out = fn(xhat, *params)
                coef = np.random.default_rng(14).standard_normal(out.shape)
                backward((out * Tensor(coef, dtype=dtype)).sum())
                runs.append([out.data] + [t.grad for t in leaves])
                for t in leaves:
                    t.zero_grad()
            for fused, unfused in zip(*runs):
                assert fused.dtype == dtype
                np.testing.assert_array_equal(fused, unfused)

    def test_shape_errors(self):
        x = Tensor(np.zeros((2, 3, 4)))
        w, b = Tensor(np.zeros((4, 4))), Tensor(np.zeros(4))
        with pytest.raises(ShapeError):
            T.affine(x, Tensor(np.zeros((5, 2))), Tensor(np.zeros(2)))
        with pytest.raises(ShapeError):
            T.attention(x, b, b, w, b, w, w, b, w, b, 3, None)
        for keep in (0, 4):
            with pytest.raises(ShapeError, match=f"{keep} of 3 tokens"):
                T.attention(x, b, b, w, b, w, w, b, w, b, 2, keep)
        for w1, w2 in (((5, 6), (6, 4)), ((4, 6), (5, 4))):
            with pytest.raises(ShapeError, match="mlp"):
                T.mlp(x, b, b, Tensor(np.zeros(w1)), Tensor(np.zeros(6)),
                      Tensor(np.zeros(w2)), Tensor(np.zeros(4)))

    @pytest.mark.parametrize("i, shape", [
        (3, (4, 6)),  # the query weight is not square
        (7, (5,)),  # the value bias is not input-wide
        (8, (6, 4)),  # the output weight does not take the heads' width
        (0, (2, 3, 6)),  # the input is wider than every weight
    ], ids=["query_weight", "value_bias", "output_weight", "input"])
    def test_attention_shape_mismatch_names_every_shape(self, i, shape):
        shapes = [(2, 3, 4)] + attention_shapes(4)
        shapes[i] = shape
        inputs = [Tensor(np.zeros(s)) for s in shapes]
        with pytest.raises(ShapeError) as err:
            T.attention(*inputs, 2, None)
        for t in inputs:
            assert str(t.shape) in str(err.value)


class TestGelu:
    def test_zero_fixed_point(self):
        assert T.gelu(Tensor([0.0])).data[0] == 0.0

    def test_matches_gaussian_cdf_form(self):
        from scipy.stats import norm

        x = np.linspace(-3, 3, 13)
        out = T.gelu(Tensor(x, dtype=np.float64))
        np.testing.assert_allclose(out.data, x * norm.cdf(x), rtol=1e-12)

    def test_gradcheck(self):
        rng = np.random.default_rng(6)
        x = t64(rng.standard_normal(9))

        def loss(params):
            return (T.gelu(params[0]) * params[0]).sum()

        assert check_gradients(loss, [x]) < 1e-4

    def test_float32_error_bound(self):
        # The float32 path uses a rational erf; bound its deviation from the
        # exact float64 form on a grid that spans several kernel blocks.
        from scipy.special import erf

        x = np.concatenate([np.linspace(-12, 12, 100_001),
                            [0.0, 1e-30, -1e-30, np.inf, -np.inf]])
        x32 = x.astype(np.float32)
        x64 = x32.astype(np.float64)
        with np.errstate(invalid="ignore"):  # -inf * Phi(-inf) is nan
            out = T.gelu(Tensor(x32)).data
            exact = x64 * 0.5 * (1.0 + erf(x64 / np.sqrt(2.0)))
        assert out.dtype == np.float32
        assert T.gelu(Tensor([0.0])).data[0] == 0.0
        finite = np.isfinite(x64)
        err = np.abs(out[finite] - exact[finite])
        assert np.all(err <= 2e-6 * np.maximum(1.0, np.abs(x64[finite])))
        np.testing.assert_array_equal(out[~finite], exact[~finite])

    def test_float32_gradient_matches_float64(self):
        rng = np.random.default_rng(8)
        x_data = 3.0 * rng.standard_normal((3, 30000))  # several blocks
        grads = []
        for dtype in (np.float32, np.float64):
            x = Tensor(x_data.astype(dtype), requires_grad=True)
            backward((T.gelu(x) * T.gelu(x)).sum())
            assert x.grad.dtype == dtype
            grads.append(x.grad)
        np.testing.assert_allclose(grads[0], grads[1], rtol=1e-4, atol=1e-5)


class TestBackward:
    def test_linear_case(self):
        theta = Tensor(np.zeros(3), requires_grad=True)
        backward(theta.sum())
        np.testing.assert_array_equal(theta.grad, np.ones(3, dtype=np.float32))

    def test_quadratic_case(self):
        theta = Tensor([1.0, 2.0], requires_grad=True)
        backward((theta * theta).sum())
        np.testing.assert_allclose(theta.grad, [2.0, 4.0], rtol=1e-6)

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.zeros(3), requires_grad=True)
        with pytest.raises(ContractError):
            backward(x * 2.0)

    def test_tape_consumed(self):
        x = Tensor(np.ones(2), requires_grad=True)
        backward((x * x).sum())
        assert len(T.active_tape()) == 0

    def test_grads_accumulate_across_reuse(self):
        x = Tensor([3.0], requires_grad=True)
        y = x * 2.0 + x * 5.0
        backward(y.sum())
        np.testing.assert_allclose(x.grad, [7.0])

    def test_grads_accumulate_across_backwards_until_zeroed(self):
        x = Tensor([1.0], requires_grad=True)
        backward((x * 2.0).sum())
        backward((x * 2.0).sum())
        np.testing.assert_allclose(x.grad, [4.0])
        x.zero_grad()
        assert x.grad is None

    def test_first_touch_gradients_never_alias(self):
        # The first gradient a tensor receives is often a view of another
        # tensor's gradient; storing it by reference would make later
        # accumulation write through into the other tensor.
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        x = Tensor(np.ones(3), requires_grad=True)
        for step in (1, 2):
            y = a + b
            backward(y.sum())
            assert not np.shares_memory(a.grad, b.grad)
            z = x + 0.0
            backward((z * 3.0).sum())
            assert not np.shares_memory(x.grad, z.grad)
            np.testing.assert_array_equal(a.grad, [step] * 3)
            np.testing.assert_array_equal(b.grad, [step] * 3)
            np.testing.assert_array_equal(x.grad, [3 * step] * 3)

    def test_two_runs_bitwise_identical(self):
        def run():
            rng = np.random.default_rng(7)
            w = Tensor(rng.standard_normal((4, 4)).astype(np.float32), requires_grad=True)
            x = Tensor(rng.standard_normal((2, 4)).astype(np.float32))
            out = T.softmax(x @ w, axis=-1)
            backward(out.sum())
            return w.grad.copy()

        g1, g2 = run(), run()
        assert np.array_equal(g1, g2)

    @pytest.mark.parametrize("name", sorted(PRIMITIVE_CASES))
    def test_float64_gradient_matches_finite_differences(self, name):
        fn, shapes = PRIMITIVE_CASES[name]
        rng = np.random.default_rng(4)
        inputs = [t64(rng.uniform(0.5, 1.5, shape)) for shape in shapes]
        with no_grad():
            out_shape = fn(*inputs).shape
        # Fixed weights keep the loss from being constant (a softmax sums to 1).
        coef = Tensor(rng.standard_normal(out_shape), dtype=np.float64)
        assert check_gradients(lambda p: (fn(*p) * coef).sum(), inputs) < 1e-4

    @pytest.mark.parametrize("name", sorted(PRIMITIVE_CASES))
    def test_no_grad_suppresses_recording(self, name):
        fn, shapes = PRIMITIVE_CASES[name]
        rng = np.random.default_rng(3)
        data = [rng.uniform(0.5, 1.5, shape).astype(np.float32) for shape in shapes]
        tape = T.active_tape()

        def run(trainable):
            # Only the last input may require a gradient: any one suffices.
            inputs = [Tensor(d) for d in data[:-1]]
            inputs.append(Tensor(data[-1], requires_grad=trainable))
            return inputs, fn(*inputs)

        with no_grad():
            _, out_off = run(trainable=True)
        assert len(tape) == 0
        assert not out_off.requires_grad

        _, out_const = run(trainable=False)
        assert len(tape) == 0
        assert not out_const.requires_grad

        inputs, out_on = run(trainable=True)
        assert len(tape) > 0
        assert out_on.requires_grad
        backward(out_on.sum())
        assert inputs[-1].grad.shape == inputs[-1].shape
        for out in (out_off, out_const):
            np.testing.assert_array_equal(out.data, out_on.data)

    def test_thread_started_under_no_grad_records_on_its_own_tape(self):
        x = Tensor(np.ones(2), requires_grad=True)
        seen = {}

        def work():
            y = x * 2.0
            seen["tape"] = len(T.active_tape())
            seen["requires_grad"] = y.requires_grad
            T.active_tape().clear()

        with no_grad():
            worker = threading.Thread(target=work)
            worker.start()
            worker.join(timeout=30)
            assert not worker.is_alive()
            assert not (x * 2.0).requires_grad
        assert len(T.active_tape()) == 0
        assert seen == {"tape": 1, "requires_grad": True}

    def test_grad_enabled_follows_nested_no_grad_per_thread(self):
        seen = []
        assert T.grad_enabled()
        with no_grad():
            assert not T.grad_enabled()
            with no_grad():
                assert not T.grad_enabled()
            assert not T.grad_enabled()
            worker = threading.Thread(target=lambda: seen.append(T.grad_enabled()))
            worker.start()
            worker.join(timeout=30)
            assert not worker.is_alive()
            assert not T.grad_enabled()
        assert T.grad_enabled()
        assert seen == [True]


class TestLayoutOps:
    def test_getitem_slice_grad(self):
        x = t64(np.arange(12, dtype=np.float64).reshape(3, 4))
        backward(x[1:, :2].sum())
        expected = np.zeros((3, 4))
        expected[1:, :2] = 1.0
        np.testing.assert_array_equal(x.grad, expected)

    def test_getitem_integer_rows_accumulate_on_repeats(self):
        table = t64(np.ones((3, 2)))
        idx = np.array([0, 2, 0])
        backward(table[idx].sum())
        np.testing.assert_array_equal(table.grad, [[2.0, 2.0], [0.0, 0.0], [1.0, 1.0]])

    def test_concat_roundtrip_grad(self):
        a = t64(np.ones((2, 2)))
        b = t64(np.ones((3, 2)))
        out = T.concat([a, b], axis=0)
        backward((out * 2.0).sum())
        np.testing.assert_array_equal(a.grad, np.full((2, 2), 2.0))
        np.testing.assert_array_equal(b.grad, np.full((3, 2), 2.0))

    def test_transpose_reshape_gradcheck(self):
        rng = np.random.default_rng(8)
        x = t64(rng.standard_normal((2, 3, 4)))
        w = rng.standard_normal((3, 8))

        def loss(params):
            (x_,) = params
            y = x_.transpose(1, 0, 2).reshape(3, 8)
            return (y * Tensor(w, dtype=np.float64) + y * y).sum()

        assert check_gradients(loss, [x]) < 1e-6

    def test_broadcast_to_sums_gradient(self):
        x = t64(np.array([[1.0], [2.0]]))
        out = T.broadcast_to(x, (2, 5))
        backward(out.sum())
        np.testing.assert_array_equal(x.grad, [[5.0], [5.0]])

    def test_gather_last(self):
        x = t64(np.arange(6, dtype=np.float64).reshape(2, 3))
        idx = np.array([2, 0])
        out = T.gather_last(x, idx)
        np.testing.assert_array_equal(out.data, [2.0, 3.0])
        backward(out.sum())
        np.testing.assert_array_equal(x.grad, [[0, 0, 1], [1, 0, 0]])

    def test_logsumexp_matches_numpy(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((3, 5)) * 20
        out = T.logsumexp(Tensor(x, dtype=np.float64), axis=-1)
        expected = np.log(np.exp(x - x.max(-1, keepdims=True)).sum(-1)) + x.max(-1)
        np.testing.assert_allclose(out.data, expected, rtol=1e-12)


class TestComposedGraphOracle:
    def test_mlp_style_graph_matches_finite_differences(self):
        # Composite graph touching most primitives at once.
        rng = np.random.default_rng(10)
        w1 = t64(rng.standard_normal((6, 8)) * 0.5)
        b1 = t64(rng.standard_normal(8) * 0.1)
        w2 = t64(rng.standard_normal((8, 4)) * 0.5)
        gamma = t64(np.ones(4))
        beta = t64(np.zeros(4))
        x = rng.standard_normal((3, 6))

        def loss(params):
            w1_, b1_, w2_, gamma_, beta_ = params
            h = T.gelu(Tensor(x, dtype=np.float64) @ w1_ + b1_)
            y = T.layer_norm(h @ w2_, eps=1e-5) * gamma_ + beta_
            p = T.softmax(y, axis=-1)
            return (p * p).sum() + T.logsumexp(y, axis=-1).mean()

        assert check_gradients(loss, [w1, b1, w2, gamma, beta]) < 1e-3

    def test_finite_difference_helper_on_known_function(self):
        buf = np.array([1.0, 2.0], dtype=np.float64)
        fd = finite_difference(lambda: float(buf[0] ** 2 + 3 * buf[1]), buf)
        assert max_rel_err(fd, np.array([2.0, 3.0])) < 1e-6
