"""Tests for the tensor/autodiff core."""

import numpy as np
import pytest

from sitsformer import tensor as T
from sitsformer.errors import ContractError, ShapeError
from sitsformer.tensor import Tensor, backward, no_grad

from _gradcheck import check_gradients, finite_difference, max_rel_err


def t64(arr, requires_grad=True):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=requires_grad)


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
        # 3-D and 4-D left operands against a 2-D weight take the flattened
        # one-GEMM path; transposing (4, 3, 2) gives a non-contiguous one.
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
        x = Tensor([1.0, 2.0, 3.0])
        gamma = Tensor(np.ones(3))
        beta = Tensor(np.zeros(3))
        out = T.layer_norm(x, gamma, beta, eps=0.0)
        np.testing.assert_allclose(
            out.data, [-1.22474487, 0.0, 1.22474487], atol=1e-5
        )

    def test_constant_vector_maps_to_zero(self):
        out = T.layer_norm(
            Tensor([5.0, 5.0, 5.0, 5.0]), Tensor(np.ones(4)), Tensor(np.zeros(4)),
            eps=1e-5,
        )
        np.testing.assert_allclose(out.data, np.zeros(4), atol=1e-7)

    def test_row_statistics(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.standard_normal((4, 8)) * 3 + 1)
        out = T.layer_norm(x, Tensor(np.ones(8)), Tensor(np.zeros(8)), eps=1e-7)
        assert np.all(np.abs(out.data.mean(axis=-1)) < 1e-6)
        np.testing.assert_allclose(out.data.var(axis=-1), np.ones(4), atol=1e-4)

    def test_affine_shape_mismatch(self):
        with pytest.raises(ShapeError):
            T.layer_norm(Tensor(np.zeros((2, 4))), Tensor(np.ones(3)), Tensor(np.zeros(3)))

    def test_gradcheck(self):
        rng = np.random.default_rng(5)
        x = t64(rng.standard_normal((3, 6)))
        gamma = t64(rng.standard_normal(6) + 1.0)
        beta = t64(rng.standard_normal(6))
        w = rng.standard_normal((3, 6))

        def loss(params):
            x_, g_, b_ = params
            out = T.layer_norm(x_, g_, b_, eps=1e-5)
            return (out * Tensor(w, dtype=np.float64)).sum()

        assert check_gradients(loss, [x, gamma, beta]) < 1e-5


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

    def test_no_grad_suppresses_recording(self):
        x = Tensor(np.ones(2), requires_grad=True)
        with no_grad():
            y = (x * x).sum()
        assert len(T.active_tape()) == 0
        assert not y.requires_grad


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
            y = T.layer_norm(h @ w2_, gamma_, beta_, eps=1e-5)
            p = T.softmax(y, axis=-1)
            return (p * p).sum() + T.logsumexp(y, axis=-1).mean()

        assert check_gradients(loss, [w1, b1, w2, gamma, beta]) < 1e-3

    def test_finite_difference_helper_on_known_function(self):
        buf = np.array([1.0, 2.0], dtype=np.float64)
        fd = finite_difference(lambda: float(buf[0] ** 2 + 3 * buf[1]), buf)
        assert max_rel_err(fd, np.array([2.0, 3.0])) < 1e-6
