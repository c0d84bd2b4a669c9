"""Tensor core: forward semantics, adjoints vs finite differences, Adam."""

import numpy as np
import pytest

from hinddi import autodiff as ad
from hinddi.autodiff import Tensor, backward
from hinddi.gradcheck import finite_diff_check
from hinddi.optim import Adam


def matmul_oracle(a, b):
    """Naive triple loop, independent of numpy's matmul."""
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n), dtype=np.float64)
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for t in range(k):
                acc += float(a[i, t]) * float(b[t, j])
            out[i, j] = acc
    return out


class TestMatmul:
    def test_identity(self):
        b = Tensor([[5.0, 6.0], [7.0, 8.0]])
        out = ad.matmul(Tensor(np.eye(2, dtype=np.float32)), b)
        np.testing.assert_array_equal(out.data, b.data)

    def test_direct_arithmetic(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[5.0, 6.0], [7.0, 8.0]])
        np.testing.assert_array_equal(ad.matmul(a, b).data,
                                      [[19.0, 22.0], [43.0, 50.0]])

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((5, 4))
        b = rng.standard_normal((4, 3))
        out = ad.matmul(Tensor(a), Tensor(b))
        np.testing.assert_allclose(out.data, matmul_oracle(a, b), rtol=1e-12)

    def test_integer_inputs_exact(self):
        rng = np.random.default_rng(3)
        a = rng.integers(-4, 5, size=(6, 5)).astype(np.float64)
        b = rng.integers(-4, 5, size=(5, 4)).astype(np.float64)
        np.testing.assert_array_equal(ad.matmul(Tensor(a), Tensor(b)).data,
                                      matmul_oracle(a, b))

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ad.ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_mixed_precision_rejected(self):
        a = Tensor(np.zeros((2, 2)), dtype=np.float32)
        b = Tensor(np.zeros((2, 2)), dtype=np.float64)
        with pytest.raises(ad.PrecisionError):
            ad.matmul(a, b)


class TestUnary:
    def test_sigmoid_at_zero(self):
        assert ad.sigmoid(Tensor(0.0)).item() == 0.5

    def test_relu_definition(self):
        out = ad.apply_unary("relu", Tensor([-1.0, 2.0]))
        np.testing.assert_array_equal(out.data, [0.0, 2.0])

    def test_leaky_relu_definition(self):
        out = ad.apply_unary("leaky_relu", Tensor([-1.0]), slope=0.2)
        np.testing.assert_allclose(out.data, [-0.2], rtol=1e-6)

    def test_slope_required_iff_leaky(self):
        with pytest.raises(ad.ParameterError):
            ad.apply_unary("relu", Tensor([1.0]), slope=0.1)
        with pytest.raises(ad.ParameterError):
            ad.apply_unary("leaky_relu", Tensor([1.0]))

    def test_log_of_nonpositive_is_nonfinite_error(self):
        with pytest.raises(ad.NonFiniteError):
            ad.log(Tensor([0.0]))


class TestMaskedRowSoftmax:
    def test_uniform_input(self):
        s = Tensor([[1.0, 1.0]])
        out = ad.masked_row_softmax(s, np.array([[True, True]]))
        np.testing.assert_allclose(out.data, [[0.5, 0.5]], atol=1e-7)

    def test_single_survivor(self):
        s = Tensor([[3.0, 99.0]])
        out = ad.masked_row_softmax(s, np.array([[True, False]]))
        np.testing.assert_array_equal(out.data, [[1.0, 0.0]])

    def test_large_scores_stay_finite(self):
        # Oracle: direct 64-bit evaluation after subtracting the max.
        s = np.array([[1000.0, 999.0]])
        expect = np.exp(s - 1000.0)
        expect /= expect.sum()
        out = ad.masked_row_softmax(Tensor(s), np.ones((1, 2), dtype=bool))
        np.testing.assert_allclose(out.data, expect, rtol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(11)
        s = Tensor(rng.standard_normal((20, 20)).astype(np.float32))
        mask = rng.random((20, 20)) < 0.3
        mask[np.arange(20), np.arange(20)] = True
        out = ad.masked_row_softmax(s, mask)
        np.testing.assert_allclose(out.data.sum(axis=1), np.ones(20), atol=1e-6)
        assert np.all(out.data[~mask] == 0.0)

    def test_all_false_row_rejected(self):
        with pytest.raises(ad.ContractError, match=r"\[1\]"):
            ad.masked_row_softmax(Tensor(np.zeros((2, 2))),
                                  np.array([[True, True], [False, False]]))


class TestDropout:
    def test_rate_zero_is_identity(self):
        x = Tensor(np.arange(6, dtype=np.float32))
        out = ad.dropout(x, 0.0, np.random.default_rng(0), training=True)
        np.testing.assert_array_equal(out.data, x.data)

    def test_eval_mode_is_identity(self):
        x = Tensor(np.arange(6, dtype=np.float32))
        out = ad.dropout(x, 0.6, np.random.default_rng(0), training=False)
        assert out is x

    def test_inverted_scaling_preserves_mean(self):
        # Monte-Carlo oracle over 1e5 elements.
        rng = np.random.default_rng(42)
        x = Tensor(np.full(100_000, 2.0, dtype=np.float64))
        out = ad.dropout(x, 0.6, rng, training=True)
        assert abs(out.data.mean() - 2.0) / 2.0 < 0.05

    def test_bad_rate_rejected(self):
        for rate in (-0.1, 1.0, 1.5):
            with pytest.raises(ad.ParameterError):
                ad.dropout(Tensor([1.0]), rate, np.random.default_rng(0), training=True)


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor(np.zeros((3, 4)), requires_grad=True)
        backward(ad.reduce_sum(x))
        np.testing.assert_array_equal(x.grad, np.ones((3, 4)))

    def test_sigmoid_dot_at_zero_weight(self):
        # d/dw sigmoid(w.x) at w=0 is 0.25 * x.
        x_val = np.array([1.0, -2.0, 3.0])
        w = Tensor(np.zeros(3), requires_grad=True)
        loss = ad.sigmoid(ad.reduce_sum(ad.mul(w, Tensor(x_val))))
        backward(loss)
        np.testing.assert_allclose(w.grad, 0.25 * x_val, rtol=1e-12)

    def test_off_path_leaf_gets_zero(self):
        x = Tensor([1.0], requires_grad=True)
        y = Tensor([2.0], requires_grad=True)
        backward(ad.reduce_sum(ad.mul(x, x)), params=[x, y])
        np.testing.assert_array_equal(y.grad, [0.0])

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ad.ContractError):
            backward(ad.mul(x, x))

    def test_reused_tensor_accumulates(self):
        x = Tensor([3.0], requires_grad=True)
        backward(ad.reduce_sum(ad.mul(x, x)))  # d/dx x^2 = 2x
        np.testing.assert_allclose(x.grad, [6.0], rtol=1e-12)

    def test_forward_determinism(self):
        def run():
            rng = np.random.default_rng(5)
            x = Tensor(rng.standard_normal((4, 4)).astype(np.float32))
            y = ad.masked_row_softmax(ad.matmul(x, x), np.ones((4, 4), dtype=bool))
            return ad.dropout(y, 0.3, np.random.default_rng(9), training=True).data

        assert run().tobytes() == run().tobytes()


def _fd_check_op(build, n_params, seed=0, scale=1.0):
    """Generic per-op adjoint check against central differences."""
    rng = np.random.default_rng(seed)
    params = {f"p{i}": Tensor(rng.standard_normal(build.shapes[i]) * scale,
                              requires_grad=True, dtype=np.float64)
              for i in range(n_params)}
    report = finite_diff_check(lambda: build(*params.values()), params,
                               probes=6, rng=np.random.default_rng(1))
    assert report.max_rel_error < 1e-7, report.worst_by_param


def _with_shapes(*shapes):
    def deco(fn):
        fn.shapes = shapes
        return fn
    return deco


class TestAdjoints:
    """Every op's adjoint against central finite differences (float64)."""

    def test_add_sub_mul_neg(self):
        @_with_shapes((3, 4), (3, 4))
        def f(a, b):
            return ad.reduce_sum(ad.mul(ad.add(a, b), ad.neg(ad.sub(a, b))))
        _fd_check_op(f, 2)

    def test_scale(self):
        @_with_shapes((3, 2), (1,))
        def f(a, s):
            return ad.reduce_sum(ad.scale(a, s))
        _fd_check_op(f, 2)

    def test_matmul_matvec_transpose(self):
        @_with_shapes((3, 4), (4, 2), (4,))
        def f(a, b, v):
            return ad.reduce_sum(ad.matmul(a, b)) + ad.reduce_sum(
                ad.matvec(ad.transpose(b), v))
        _fd_check_op(f, 3)

    def test_reshape_stack_slice(self):
        @_with_shapes((2, 3), (5,))
        def f(a, v):
            s0 = ad.reduce_mean(a)
            s1 = ad.reduce_sum(ad.slice1d(v, 1, 4))
            w = ad.stack_scalars([s0, s1])
            return ad.reduce_sum(ad.reshape(w, (2, 1)))
        _fd_check_op(f, 2)

    def test_gather_rowsum_bias(self):
        @_with_shapes((4, 3), (3,))
        def f(m, b):
            g = ad.gather_rows(ad.add_bias(m, b), np.array([0, 2, 2, 3]))
            return ad.reduce_sum(ad.row_sum(g))
        _fd_check_op(f, 2)

    def test_unaries_and_clip(self):
        @_with_shapes((3, 3),)
        def f(x):
            y = ad.tanh(x)
            y = ad.sigmoid(y)
            y = ad.apply_unary("exp", ad.apply_unary("leaky_relu", y, 0.2))
            y = ad.log(ad.clip(y, 1.2, 2.4))
            return ad.reduce_sum(ad.apply_unary("relu", y))
        _fd_check_op(f, 1)

    def test_masked_softmax(self):
        mask = np.array([[True, True, False],
                         [True, True, True],
                         [False, True, True]])

        @_with_shapes((3, 3),)
        def f(s):
            return ad.reduce_sum(ad.mul(ad.masked_row_softmax(s, mask),
                                        ad.apply_unary("exp", s)))
        _fd_check_op(f, 1)

    def test_dropout_with_frozen_mask(self):
        @_with_shapes((6, 6),)
        def f(x):
            out = ad.dropout(x, 0.4, np.random.default_rng(123), training=True)
            return ad.reduce_sum(ad.mul(out, out))
        _fd_check_op(f, 1)

    def test_graph_attention_with_dropout(self):
        mask = np.random.default_rng(5).random((7, 7)) < 0.4
        mask |= mask.T | np.eye(7, dtype=bool)

        @_with_shapes((7, 6), (2, 6), (7, 6))
        def f(h, a, w):
            # A fresh generator per call replays the same dropout masks.
            out, _ = ad.graph_attention(h, a, mask, heads=2, slope=0.2,
                                        dropout=0.4, rng=np.random.default_rng(9))
            return ad.reduce_sum(ad.mul(ad.tanh(out), w))
        _fd_check_op(f, 3)

    def test_graph_attention_with_fixed_alpha(self):
        fixed = np.random.default_rng(6).random((7, 7))
        fixed /= fixed.sum(axis=1, keepdims=True)

        @_with_shapes((7, 6), (7, 6))
        def f(h, w):
            out, _ = ad.graph_attention(h, None, None, heads=2, slope=0.2,
                                        dropout=0.4, rng=np.random.default_rng(9),
                                        fixed=fixed)
            assert out._parents == (h,)
            return ad.reduce_sum(ad.mul(ad.tanh(out), w))
        _fd_check_op(f, 2)

        h = Tensor(np.ones((7, 6)))
        for a, alpha in ((None, None), (Tensor(np.zeros((2, 6))), fixed)):
            with pytest.raises(ad.ParameterError):
                ad.graph_attention(h, a, np.eye(7, dtype=bool), heads=2,
                                   slope=0.2, fixed=alpha)


class TestFiniteDiffCheck:
    def test_square_at_three(self):
        x = Tensor(np.array(3.0), requires_grad=True, dtype=np.float64)
        report = finite_diff_check(lambda: ad.mul(x, x), {"x": x}, probes=1)
        assert report.max_rel_error < 1e-8
        rec = report.worst_by_param["x"]
        assert abs(rec.analytic - 6.0) < 1e-12
        assert abs(rec.numeric - 6.0) < 1e-8

    def test_sigmoid_at_zero(self):
        x = Tensor(np.array(0.0), requires_grad=True, dtype=np.float64)
        report = finite_diff_check(lambda: ad.sigmoid(x), {"x": x}, probes=1)
        assert report.max_rel_error < 1e-8
        assert abs(report.worst_by_param["x"].analytic - 0.25) < 1e-12

    def test_float32_rejected(self):
        x = Tensor(np.array(1.0), requires_grad=True, dtype=np.float32)
        with pytest.raises(ad.PrecisionError):
            finite_diff_check(lambda: ad.mul(x, x), {"x": x})

    def test_detects_wrong_adjoint(self):
        x = Tensor(np.array(2.0), requires_grad=True, dtype=np.float64)

        def forward():
            y = ad.mul(x, x)
            bad = ad._node(y.data * 1.0, "bad", (y,), lambda g: [g * 1.5])
            return bad

        report = finite_diff_check(forward, {"x": x}, probes=1)
        assert report.max_rel_error > 1e-2


def adam_scalar_oracle(theta0, steps, lr, b1=0.9, b2=0.999, eps=1e-8):
    """Run the Adam recurrence on f(theta) = theta^2 with plain floats."""
    theta, m, v = theta0, 0.0, 0.0
    trace = []
    for t in range(1, steps + 1):
        g = 2.0 * theta
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        theta -= lr * (m / (1 - b1 ** t)) / ((v / (1 - b2 ** t)) ** 0.5 + eps)
        trace.append(theta)
    return trace


class TestAdam:
    def test_first_step_is_signed_learning_rate(self):
        p = Tensor(np.array([1.0, -2.0, 0.5]), requires_grad=True, dtype=np.float64)
        opt = Adam([p], lr=0.005)
        p.grad = np.array([0.3, -0.7, 1.1])
        before = p.data.copy()
        opt.step()
        np.testing.assert_allclose(before - p.data, 0.005 * np.sign(p.grad), rtol=1e-6)

    def test_zero_grad_zero_decay_is_fixed_point(self):
        p = Tensor(np.array([1.0, 2.0]), requires_grad=True, dtype=np.float64)
        opt = Adam([p], lr=0.005, weight_decay=0.0)
        p.grad = np.zeros(2)
        opt.step()
        np.testing.assert_array_equal(p.data, [1.0, 2.0])

    def test_quadratic_descent_matches_scalar_recurrence(self):
        p = Tensor(np.array(1.0), requires_grad=True, dtype=np.float64)
        opt = Adam([p], lr=0.005)
        seen = []
        for _ in range(100):
            opt.zero_grad()
            backward(ad.mul(p, p), [p])
            opt.step()
            seen.append(float(p.data))
        expect = adam_scalar_oracle(1.0, 100, lr=0.005)
        np.testing.assert_allclose(seen, expect, rtol=1e-10)
        mags = [1.0] + [abs(s) for s in seen]
        assert all(b < a for a, b in zip(mags, mags[1:]))

    def test_weight_decay_pulls_toward_zero(self):
        p = Tensor(np.array(1.0), requires_grad=True, dtype=np.float64)
        opt = Adam([p], lr=0.005, weight_decay=0.001)
        p.grad = np.array(0.0)
        opt.step()
        assert 0 < float(p.data) < 1.0

    def test_shape_mismatch_rejected(self):
        p = Tensor(np.array([1.0, 2.0]), requires_grad=True, dtype=np.float64)
        opt = Adam([p])
        p.grad = np.zeros(3)
        with pytest.raises(ad.ShapeError):
            opt.step()

    def test_step_counter_increments(self):
        p = Tensor(np.array(1.0), requires_grad=True, dtype=np.float64)
        opt = Adam([p])
        for expected in (1, 2, 3):
            p.grad = np.array(0.1)
            opt.step()
            assert opt.step_count == expected
