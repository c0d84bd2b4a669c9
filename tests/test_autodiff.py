"""Tensor core: forward semantics, adjoints vs finite differences, Adam."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hinddi import autodiff as ad
from hinddi.autodiff import Tensor, backward
from hinddi.gradcheck import finite_diff_check
from hinddi.optim import Adam


def total(x, weights=None):
    """sum(x * weights) as a scalar node, weights all ones by default. The
    library has no generic reduction, so the engine and adjoint tests build
    their scalar losses with this."""
    w = np.ones_like(x.data) if weights is None else weights
    return ad._node(np.asarray(np.sum(x.data * w)), "total", (x,),
                    lambda g: [g * w])


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
        assert ad.apply_unary("sigmoid", Tensor(0.0)).item() == 0.5

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

    def test_unknown_kind_names_the_allowed_kinds(self):
        for kind in ("exp", "log", "gelu"):
            with pytest.raises(ad.ParameterError, match="relu, leaky_relu, tanh, sigmoid"):
                ad.apply_unary(kind, Tensor([1.0]))


def attention_alpha(h, a, mask):
    """The alpha of one-head `graph_attention` on plain arrays; head width
    F is h's width and `a` is its (2F,) attention vector."""
    _, (alpha,) = ad.graph_attention(Tensor(h), Tensor(np.asarray(a)[None, :]),
                                     mask, heads=1, slope=0.2)
    return alpha.data


class TestMaskedRowSoftmax:
    """The masked row softmax inside `graph_attention`. With a one-wide head,
    h = [1, ..., 1] and a = [0, 1], node j scores leaky_relu(s[j]) for
    every attending row, so s sets the softmax inputs directly."""

    def test_uniform_input(self):
        alpha = attention_alpha(np.ones((2, 1)), [0.0, 1.0], np.ones((2, 2), dtype=bool))
        np.testing.assert_allclose(alpha, np.full((2, 2), 0.5), atol=1e-7)

    def test_single_survivor(self):
        h = np.array([[3.0], [99.0]])
        mask = np.array([[True, False], [False, True]])
        np.testing.assert_array_equal(attention_alpha(h, [0.0, 1.0], mask), np.eye(2))

    def test_large_scores_stay_finite(self):
        # Oracle: direct 64-bit evaluation after subtracting the max.
        s = np.array([1000.0, 999.0])
        expect = np.exp(s - 1000.0)
        expect /= expect.sum()
        alpha = attention_alpha(s[:, None], [0.0, 1.0], np.ones((2, 2), dtype=bool))
        np.testing.assert_allclose(alpha, np.tile(expect, (2, 1)), rtol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(11)
        h = rng.standard_normal((20, 3)).astype(np.float32)
        a = rng.standard_normal(6).astype(np.float32)
        mask = rng.random((20, 20)) < 0.3
        mask[np.arange(20), np.arange(20)] = True
        alpha = attention_alpha(h, a, mask)
        np.testing.assert_allclose(alpha.sum(axis=1), np.ones(20), atol=1e-6)
        assert np.all(alpha[~mask] == 0.0)

    def test_all_false_row_rejected(self):
        # A row without neighbors has no self-loop either.
        with pytest.raises(ad.ContractError, match=r"\[1\]"):
            attention_alpha(np.zeros((2, 1)), [0.0, 0.0],
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
        backward(total(x))
        np.testing.assert_array_equal(x.grad, np.ones((3, 4)))

    def test_sigmoid_dot_at_zero_weight(self):
        # d/dw sigmoid(w.x) at w=0 is 0.25 * x; w and x are rows 0 and 1.
        x_val = np.array([1.0, -2.0, 3.0])
        z = Tensor(np.stack([np.zeros(3), x_val]), requires_grad=True)
        backward(total(ad.pair_scores(z, np.array([[0, 1]]))))
        np.testing.assert_allclose(z.grad[0], 0.25 * x_val, rtol=1e-12)

    def test_off_path_leaf_gets_zero(self):
        x = Tensor([[1.0]], requires_grad=True)
        y = Tensor([2.0], requires_grad=True)
        backward(total(ad.matmul(x, x)), params=[x, y])
        np.testing.assert_array_equal(y.grad, [0.0])

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ad.ContractError):
            backward(ad.apply_unary("tanh", x))

    def test_reused_tensor_accumulates(self):
        x = Tensor([[3.0]], requires_grad=True)
        backward(total(ad.matmul(x, x)))  # d/dx x^2 = 2x
        np.testing.assert_allclose(x.grad, [[6.0]], rtol=1e-12)

    def test_forward_determinism(self):
        def run():
            rng = np.random.default_rng(5)
            x = Tensor(rng.standard_normal((4, 4)).astype(np.float32))
            a = Tensor(rng.standard_normal((1, 8)).astype(np.float32))
            out, _ = ad.graph_attention(ad.matmul(x, x), a, np.ones((4, 4), dtype=bool),
                                        heads=1, slope=0.2, dropout=0.3,
                                        rng=np.random.default_rng(9))
            return out.data

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
    return params


def _with_shapes(*shapes):
    def deco(fn):
        fn.shapes = shapes
        return fn
    return deco


def _weights(shape, seed=2):
    """Fixed random weights that make a scalar probe of an op's output."""
    return np.random.default_rng(seed).standard_normal(shape)


class TestAdjoints:
    """Every op's adjoint against central finite differences (float64)."""

    def test_matmul(self):
        w = _weights((3, 5))

        @_with_shapes((3, 4), (4, 2), (2, 5))
        def f(a, b, c):
            return total(ad.matmul(ad.matmul(a, b), c), w)
        _fd_check_op(f, 3)

    def test_unaries_and_clip(self):
        # Probabilities lie in [0.5, 0.73]; a clamp of 0.35 cuts those
        # above 0.65, where the loss must have zero gradient.
        labels = np.array([[1, 0, 1], [0, 0, 1], [1, 1, 0]])

        @_with_shapes((3, 3),)
        def f(x):
            y = ad.apply_unary("tanh", x)
            y = ad.apply_unary("relu", ad.apply_unary("leaky_relu", y, 0.2))
            return ad.binary_cross_entropy(ad.apply_unary("sigmoid", y), labels, 0.35)
        (x,) = _fd_check_op(f, 1).values()
        clamped = 1 / (1 + np.exp(-np.maximum(np.tanh(x.data), 0))) >= 0.65
        live = ~clamped & (x.data > 0)  # relu zeroes the rest
        assert clamped.any() and live.any()
        assert np.all(x.grad[clamped] == 0) and np.all(x.grad[live] != 0)

    def test_dropout_with_frozen_mask(self):
        w = _weights((6, 6))

        @_with_shapes((6, 6),)
        def f(x):
            out = ad.dropout(x, 0.4, np.random.default_rng(123), training=True)
            return total(ad.apply_unary("tanh", out), w)
        _fd_check_op(f, 1)

    def test_graph_attention_with_dropout(self):
        mask = np.random.default_rng(5).random((7, 7)) < 0.4
        mask |= mask.T | np.eye(7, dtype=bool)
        w = _weights((7, 6))

        @_with_shapes((7, 6), (2, 6))
        def f(h, a):
            # A fresh generator per call replays the same dropout masks.
            out, _ = ad.graph_attention(h, a, mask, heads=2, slope=0.2,
                                        dropout=0.4, rng=np.random.default_rng(9))
            return total(ad.apply_unary("tanh", out), w)
        _fd_check_op(f, 2)

    def test_graph_attention_with_fixed_alpha(self):
        fixed = np.random.default_rng(6).random((7, 7))
        fixed /= fixed.sum(axis=1, keepdims=True)
        w = _weights((7, 6))

        @_with_shapes((7, 6),)
        def f(h):
            out, _ = ad.graph_attention(h, None, None, heads=2, slope=0.2,
                                        dropout=0.4, rng=np.random.default_rng(9),
                                        fixed=fixed)
            assert out._parents == (h,)
            return total(ad.apply_unary("tanh", out), w)
        _fd_check_op(f, 1)

        h = Tensor(np.ones((7, 6)))
        for a, alpha in ((None, None), (Tensor(np.zeros((2, 6))), fixed)):
            with pytest.raises(ad.ParameterError):
                ad.graph_attention(h, a, np.eye(7, dtype=bool), heads=2,
                                   slope=0.2, fixed=alpha)

    @pytest.mark.parametrize("pool", ["mean", "sum"])
    def test_semantic_attention(self, pool):
        w = _weights((5, 4))

        @_with_shapes((5, 4), (5, 4), (5, 4), (3, 4), (3,), (3,))
        def f(z0, z1, z2, wm, b, q):
            out, _ = ad.semantic_attention([z0, z1, z2], wm, b, q, pool=pool)
            return total(ad.apply_unary("tanh", out), w)
        _fd_check_op(f, 6)

    def test_semantic_attention_with_fixed_beta(self):
        w = _weights((5, 4))

        @_with_shapes((5, 4), (5, 4), (5, 4))
        def f(z0, z1, z2):
            out, beta = ad.semantic_attention([z0, z1, z2], None, None, None,
                                              fixed=np.array([0.2, 0.5, 0.3]))
            assert out._parents == (z0, z1, z2) and beta._parents == ()
            return total(ad.apply_unary("tanh", out), w)
        _fd_check_op(f, 3)

        z = Tensor(np.ones((5, 4)))
        learned = (Tensor(np.ones((3, 4))), Tensor(np.ones(3)), Tensor(np.ones(3)))
        for params, beta in (((None,) * 3, None), (learned, np.ones(1))):
            with pytest.raises(ad.ParameterError):
                ad.semantic_attention([z], *params, fixed=beta)

    def test_pair_scores_and_bce(self):
        # Repeated drugs, a self pair and both orders of one pair.
        pairs = np.array([[0, 1], [1, 0], [2, 2], [3, 5], [0, 4], [5, 1]])
        labels = np.array([1, 1, 0, 1, 0, 0])

        @_with_shapes((6, 3),)
        def f(z):
            return ad.binary_cross_entropy(ad.pair_scores(z, pairs), labels, 1e-7)
        _fd_check_op(f, 1)


def test_fused_ops_reject_an_overflow_that_squashing_would_hide():
    # tanh and the sigmoid map an infinite input to a finite output.
    big = Tensor(np.full((2, 2), 1e30, dtype=np.float32))
    with np.errstate(over="ignore"):
        with pytest.raises(ad.NonFiniteError, match="semantic_attention"):
            ad.semantic_attention([big], Tensor(np.full((1, 2), 1e30, dtype=np.float32)),
                                  Tensor(np.zeros(1, dtype=np.float32)),
                                  Tensor(np.ones(1, dtype=np.float32)))
        with pytest.raises(ad.NonFiniteError, match="pair_scores"):
            ad.pair_scores(big, np.array([[0, 1]]))


@settings(max_examples=60, deadline=None)
@given(t=st.integers(1, 4), n=st.integers(1, 6), width=st.integers(1, 5),
       d_q=st.integers(1, 4), pool=st.sampled_from(["mean", "sum"]),
       scale=st.floats(0.1, 10.0), seed=st.integers(0, 2**32 - 1))
def test_semantic_attention_beta_on_simplex_and_weights_the_sum(t, n, width, d_q,
                                                                 pool, scale, seed):
    rng = np.random.default_rng(seed)
    zs = [Tensor(rng.standard_normal((n, width)) * scale) for _ in range(t)]
    w, b, q = (Tensor(rng.standard_normal(shape) * scale)
               for shape in ((d_q, width), (d_q,), (d_q,)))
    out, beta = ad.semantic_attention(zs, w, b, q, pool=pool)
    assert beta.shape == (t,) and np.all(beta.data >= 0)
    assert abs(beta.data.sum() - 1.0) < 1e-12
    expect = sum(beta.data[k] * zs[k].data for k in range(t))
    np.testing.assert_allclose(out.data, expect, rtol=1e-12, atol=1e-12)


class TestFiniteDiffCheck:
    def test_square_at_three(self):
        x = Tensor(np.array([[3.0]]), requires_grad=True, dtype=np.float64)
        report = finite_diff_check(lambda: total(ad.matmul(x, x)), {"x": x}, probes=1)
        assert report.max_rel_error < 1e-8
        rec = report.worst_by_param["x"]
        assert abs(rec.analytic - 6.0) < 1e-12
        assert abs(rec.numeric - 6.0) < 1e-8

    def test_sigmoid_at_zero(self):
        x = Tensor(np.array(0.0), requires_grad=True, dtype=np.float64)
        report = finite_diff_check(lambda: ad.apply_unary("sigmoid", x), {"x": x},
                                   probes=1)
        assert report.max_rel_error < 1e-8
        assert abs(report.worst_by_param["x"].analytic - 0.25) < 1e-12

    def test_float32_rejected(self):
        x = Tensor(np.array([[1.0]]), requires_grad=True, dtype=np.float32)
        with pytest.raises(ad.PrecisionError):
            finite_diff_check(lambda: total(ad.matmul(x, x)), {"x": x})

    def test_detects_wrong_adjoint(self):
        x = Tensor(np.array([[2.0]]), requires_grad=True, dtype=np.float64)

        def forward():
            y = total(ad.matmul(x, x))
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
        p = Tensor(np.array([[1.0]]), requires_grad=True, dtype=np.float64)
        opt = Adam([p], lr=0.005)
        seen = []
        for _ in range(100):
            ad.zero_grad([p])
            backward(total(ad.matmul(p, p)), [p])
            opt.step()
            seen.append(float(p.data[0, 0]))
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
