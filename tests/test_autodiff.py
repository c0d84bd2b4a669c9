"""Tensor core: forward semantics, adjoints vs finite differences, Adam."""

import functools
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from hinddi import autodiff as ad
from hinddi.autodiff import Tensor, backward
from hinddi.gradcheck import finite_diff_check
from hinddi.optim import Adam
from hinddi import pipeline
from hinddi.metapath import NeighborGraph
from perfbench.workloads import PAPER_SPEC, generate_clustered, write_lines
from tests.conftest import (reference_attention_dense, reference_attention_edges,
                            reference_pair_scores_adjoint, ring_mask)


def total(x, weights=None):
    """sum(x * weights) as a scalar node, weights all ones by default. The
    library has no generic reduction, so the engine and adjoint tests build
    their scalar losses with this."""
    w = np.ones_like(x.data) if weights is None else weights
    return ad._node(np.asarray(np.sum(x.data * w)), "total", (x,),
                    lambda g: [g * w])


def tanh_total(x, weights):
    """sum(tanh(x) * weights) as a scalar node: a smooth probe of an op's
    output for the adjoint tests."""
    y = np.tanh(x.data)
    return ad._node(np.asarray(np.sum(y * weights)), "tanh_total", (x,),
                    lambda g: [g * weights * (1 - y * y)])


def sigmoid(x):
    """The logistic function as a node, for tests that need probabilities."""
    y = 1 / (1 + np.exp(-x.data))
    return ad._node(y, "sigmoid", (x,), lambda g: [g * y * (1 - y)])


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


class TestRelu:
    def test_definition(self):
        out = ad.relu(Tensor([-1.0, 0.0, 2.0]))
        assert out._op == "relu"
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])

    def test_keeps_float32(self):
        x = Tensor(np.array([-1.0, 2.0]), requires_grad=True, dtype=np.float32)
        out = ad.relu(x)
        assert out.data.dtype == np.float32
        backward(total(out, np.ones(2, dtype=np.float32)))
        assert x.grad.dtype == np.float32

    def test_adjoint_passes_positive_entries(self):
        x = Tensor([-1.0, 0.0, 2.0, 3.0], requires_grad=True)
        backward(total(ad.relu(x), np.array([5.0, 6.0, 7.0, 8.0])))
        np.testing.assert_array_equal(x.grad, [0.0, 0.0, 7.0, 8.0])


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


class TestAttentionOnEdges:
    """`graph_attention` on a mask under `SPARSE_DENSITY` against the dense
    oracle on the same mask (float64)."""

    def test_output_alphas_and_adjoints_match_dense_oracle(self):
        rng = np.random.default_rng(12)
        n, heads, f = 64, 3, 4
        mask = ring_mask(n, chords=[(2, 40), (5, 6 + n // 2)], isolated=[9])
        h = rng.standard_normal((n, heads * f))
        a = rng.standard_normal((heads, 2 * f))
        g = rng.standard_normal((n, heads * f))
        slope = np.float64(0.2)
        out, alphas, _, bwd = reference_attention_dense(h, a, mask, None, heads, slope,
                                                        0.0, None)
        node, edge_alphas = ad.graph_attention(Tensor(h, requires_grad=True),
                                               Tensor(a, requires_grad=True), mask,
                                               heads=heads, slope=0.2)
        np.testing.assert_allclose(node.data, out, rtol=1e-12, atol=1e-14)
        for edge_alpha, alpha in zip(edge_alphas, alphas, strict=True):
            assert isinstance(edge_alpha.data, np.ndarray)
            assert np.count_nonzero(edge_alpha.data) == np.count_nonzero(mask)
            np.testing.assert_allclose(edge_alpha.data, alpha, rtol=1e-12, atol=1e-15)
        for d_edges, d_dense in zip(node._backward(g), bwd(g), strict=True):
            np.testing.assert_allclose(d_edges, d_dense, rtol=1e-12, atol=1e-13)

    def test_dropout_draws_one_value_per_edge_and_head(self):
        # a mask under SPARSE_DENSITY
        mask = ring_mask(64)
        h, a = Tensor(np.ones((64, 4))), Tensor(np.zeros((2, 4)))
        rng = np.random.default_rng(4)
        ad.graph_attention(h, a, mask, heads=2, slope=0.2, dropout=0.5, rng=rng)
        after = rng.random()
        rng = np.random.default_rng(4)
        rng.random((np.count_nonzero(mask), 2))
        assert rng.random() == after


def csr_parts(mask):
    """Copies of a sparse mask's data, indices and indptr."""
    return [np.array(x) for x in (mask.data, mask.indices, mask.indptr)]


def dense_mask(rng, n, density):
    """A random symmetric bool (n, n) mask with self-loops."""
    mask = rng.random((n, n)) < density
    return mask | mask.T | np.eye(n, dtype=bool)


def same_bits(x, y):
    """Equal dtype, shape and bytes."""
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


class TestCsrMask:
    """`graph_attention` reads a canonical bool CSR mask as it is; a dense
    mask is converted to one."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("dropout", [0.0, 0.6])
    @pytest.mark.parametrize("density", ["sparse", "dense"])
    def test_csr_and_dense_masks_give_the_same_bits(self, density, dropout, dtype):
        # on both sides of SPARSE_DENSITY, so in both dropout draw orders
        rng = np.random.default_rng(21)
        n, heads, f = 64, 2, 3
        if density == "sparse":
            mask = ring_mask(n, chords=[(1, 33), (7, 50)], isolated=[12])
        else:
            mask = dense_mask(rng, n, 0.3)
        assert (np.count_nonzero(mask) < ad.SPARSE_DENSITY * n * n) == (density == "sparse")
        h = rng.standard_normal((n, heads * f)).astype(dtype)
        a = rng.standard_normal((heads, 2 * f)).astype(dtype)
        g = rng.standard_normal((n, heads * f)).astype(dtype)
        runs = []
        for given in (sp.csr_array(mask), mask):
            draws = np.random.default_rng(3)
            node, alphas = ad.graph_attention(
                Tensor(h, requires_grad=True), Tensor(a, requires_grad=True), given,
                heads=heads, slope=0.2, dropout=dropout, rng=draws)
            runs.append((node.data, [alpha.data for alpha in alphas],
                         node._backward(g), draws.random()))
        (out, alphas, adjoints, after), (out_d, alphas_d, adjoints_d, after_d) = runs
        assert same_bits(out, out_d)
        assert all(same_bits(x, y) for x, y in zip(alphas, alphas_d, strict=True))
        assert all(same_bits(x, y) for x, y in zip(adjoints, adjoints_d, strict=True))
        assert after == after_d

    @pytest.mark.parametrize("fault", ["duplicate", "unsorted", "stored False",
                                       "int dtype", "COO format"])
    def test_non_canonical_mask_rejected_and_left_as_given(self, fault):
        n = 4
        indptr = np.array([0, 2, 4, 5, 7])
        indices = np.array([0, 1, 0, 1, 2, 2, 3])
        data = np.ones(7, dtype=bool)
        if fault == "duplicate":
            indices[1] = 0
        elif fault == "unsorted":
            indices[[5, 6]] = indices[[6, 5]]
        elif fault == "stored False":
            data[1] = False
        elif fault == "int dtype":
            data = data.astype(np.int64)
        mask = sp.csr_array((data, indices, indptr), shape=(n, n))
        if fault == "COO format":
            mask = mask.tocoo()
        before = csr_parts(mask) if mask.format == "csr" else None
        h, a = Tensor(np.ones((n, 2))), Tensor(np.zeros((1, 4)))
        with pytest.raises(ad.ContractError, match="bool CSR"):
            ad.graph_attention(h, a, mask, heads=1, slope=0.2)
        if before is not None:
            assert all(same_bits(x, y) for x, y in zip(csr_parts(mask), before))

    def test_wrong_shape_rejected(self):
        h, a = Tensor(np.ones((4, 2))), Tensor(np.zeros((1, 4)))
        with pytest.raises(ad.ShapeError, match="mask shape"):
            ad.graph_attention(h, a, sp.csr_array(np.eye(5, dtype=bool)),
                               heads=1, slope=0.2)


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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_factor_has_the_bits_of_the_cast_quotient(self, dtype):
        # oracle: keep / (1 - rate) in float64, cast to the tensor's dtype
        x = np.random.default_rng(1).standard_normal((40, 30)).astype(dtype)
        for rate in np.round(np.arange(0.01, 1.0, 0.01), 2):
            out = ad.dropout(Tensor(x, requires_grad=True), rate, np.random.default_rng(7),
                             training=True)
            keep = np.random.default_rng(7).random(x.shape) >= rate
            want = x * (keep / (1.0 - rate)).astype(dtype)
            assert out.data.dtype == want.dtype
            assert out.data.tobytes() == want.tobytes(), rate
            (g,) = out._backward(np.ones_like(x))
            assert g.tobytes() == (keep / (1.0 - rate)).astype(dtype).tobytes(), rate


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
            backward(ad.relu(x))

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

    def test_relu_and_clip(self):
        # Probabilities lie in [0.5, 1); a clamp of 0.35 cuts those above
        # 0.65, where the loss must have zero gradient.
        labels = np.array([[1, 0, 1], [0, 0, 1], [1, 1, 0]])

        @_with_shapes((3, 3),)
        def f(x):
            return ad.binary_cross_entropy(sigmoid(ad.relu(x)), labels, 0.35)
        (x,) = _fd_check_op(f, 1).values()
        clamped = 1 / (1 + np.exp(-np.maximum(x.data, 0))) >= 0.65
        live = ~clamped & (x.data > 0)  # relu zeroes the rest
        assert clamped.any() and live.any()
        assert np.all(x.grad[clamped] == 0) and np.all(x.grad[live] != 0)

    def test_dropout_with_frozen_mask(self):
        w = _weights((6, 6))

        @_with_shapes((6, 6),)
        def f(x):
            out = ad.dropout(x, 0.4, np.random.default_rng(123), training=True)
            return tanh_total(out, w)
        _fd_check_op(f, 1)

    def test_graph_attention_with_dropout(self):
        # a mask over SPARSE_DENSITY, whose keep mask is drawn in dense order
        mask = dense_mask(np.random.default_rng(5), 7, 0.4)
        w = _weights((7, 6))

        @_with_shapes((7, 6), (3, 4))
        def f(h, a):
            # A fresh generator per call replays the same dropout masks.
            out, _ = ad.graph_attention(h, a, mask, heads=3, slope=0.2,
                                        dropout=0.4, rng=np.random.default_rng(9))
            return tanh_total(out, w)
        _fd_check_op(f, 2)

    @pytest.mark.parametrize("slope", [0.2, 1.5, -0.1])
    def test_graph_attention_on_edges_with_dropout(self, slope):
        # a slope above 1 makes the leaky relu a minimum, one below 0 flips
        # the sign of negative scores
        mask = ring_mask(64, chords=[(3, 30), (10, 50)])
        w = _weights((64, 6))

        @_with_shapes((64, 6), (2, 6))
        def f(h, a):
            out, _ = ad.graph_attention(h, a, mask, heads=2, slope=slope,
                                        dropout=0.4, rng=np.random.default_rng(9))
            return tanh_total(out, w)
        _fd_check_op(f, 2)

    @pytest.mark.parametrize("n", [7, 64])
    def test_graph_attention_with_fixed_alpha(self, n):
        # a full mask and one under SPARSE_DENSITY: both dropout draw orders
        mask = np.ones((n, n), dtype=bool) if n == 7 else ring_mask(n, chords=[(3, 30)])
        fixed = np.random.default_rng(6).random((n, n)) * mask
        fixed /= fixed.sum(axis=1, keepdims=True)
        w = _weights((n, 6))

        @_with_shapes((n, 6),)
        def f(h):
            out, _ = ad.graph_attention(h, None, mask, heads=2, slope=0.2,
                                        dropout=0.4, rng=np.random.default_rng(9),
                                        fixed=fixed)
            assert out._parents == (h,)
            return tanh_total(out, w)
        _fd_check_op(f, 1)

        h = Tensor(np.ones((n, 6)))
        for a, alpha in ((None, None), (Tensor(np.zeros((2, 6))), fixed)):
            with pytest.raises(ad.ParameterError):
                ad.graph_attention(h, a, mask, heads=2, slope=0.2, fixed=alpha)

    def test_semantic_attention(self):
        w = _weights((5, 4))

        @_with_shapes((5, 4), (5, 4), (5, 4), (3, 4), (3,), (3,))
        def f(z0, z1, z2, wm, b, q):
            out, _ = ad.semantic_attention([z0, z1, z2], wm, b, q)
            return tanh_total(out, w)
        _fd_check_op(f, 6)

    def test_semantic_attention_with_fixed_beta(self):
        w = _weights((5, 4))

        @_with_shapes((5, 4), (5, 4), (5, 4))
        def f(z0, z1, z2):
            out, beta = ad.semantic_attention([z0, z1, z2], None, None, None,
                                              fixed=np.array([0.2, 0.5, 0.3]))
            assert out._parents == (z0, z1, z2) and beta._parents == ()
            return tanh_total(out, w)
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


def _results(out, alphas, adjoints, rng):
    """Output, alphas, adjoints and the next draws of the dropout generator,
    by name."""
    return {"out": out, **{f"alpha{k}": x for k, x in enumerate(alphas)},
            **{f"adjoint{k}": x for k, x in enumerate(adjoints)},
            "next float32 draw": np.array(rng.random(dtype=np.float32)),
            "next draw": np.array(rng.random())}


def _dense_oracle_results(h, a, mask, fixed, heads, slope, dropout, g, rng):
    """`_results` of `reference_attention_dense`."""
    out, alphas, _, bwd = reference_attention_dense(h, a, mask, fixed, heads,
                                                    h.dtype.type(slope), dropout, rng)
    return _results(out, alphas, bwd(g), rng)


def _attention_results(h, a, mask, fixed, heads, slope, dropout, g, rng):
    """`_results` of `graph_attention`."""
    node, alphas = ad.graph_attention(
        Tensor(h, requires_grad=True), None if a is None else Tensor(a, requires_grad=True),
        mask, heads=heads, slope=slope, dropout=dropout, rng=rng, fixed=fixed)
    return _results(node.data, [alpha.data for alpha in alphas], node._backward(g), rng)


class TestDenseDrawOrderMatchesOracle:
    """`graph_attention` on masks at or above `SPARSE_DENSITY` against
    `reference_attention_dense`, whose heads draw their (n, n) keep masks
    in order: the keep decisions and the generator's next draws are the
    oracle's exactly, and the output, alphas and adjoints agree to a
    relative 1e-5 in float32 and 1e-12 in float64 of each array's largest
    entry, so the histories of such graphs move only by rounding."""

    N, HEADS, F = 37, 3, 4
    RTOL = {np.dtype(np.float32): 1e-5, np.dtype(np.float64): 1e-12}

    def mask(self, mask_kind):
        mask = np.ones((self.N, self.N), dtype=bool)
        if mask_kind == "holes":  # a few off-diagonal entries missing
            mask[[0, 3, 3, 20, 36], [5, 1, 30, 19, 0]] = False
        elif mask_kind == "sparse":  # just over SPARSE_DENSITY
            mask = ring_mask(self.N, chords=[(0, 5), (3, 20), (7, 30)])
        assert np.count_nonzero(mask) >= ad.SPARSE_DENSITY * self.N ** 2
        return mask

    def inputs(self, dtype, mask_kind, integer_scores=False):
        rng = np.random.default_rng(8)
        shape_h, shape_a = (self.N, self.HEADS * self.F), (self.HEADS, 2 * self.F)
        if integer_scores:  # many scores src + dst are exactly 0
            h, a = rng.integers(-2, 3, shape_h), rng.integers(-1, 2, shape_a)
        else:
            h, a = rng.standard_normal(shape_h), rng.standard_normal(shape_a)
        g = rng.standard_normal(shape_h)
        return h.astype(dtype), a.astype(dtype), self.mask(mask_kind), g.astype(dtype)

    def fixed(self, mask, dtype):
        fixed = np.random.default_rng(3).random(mask.shape).astype(dtype) * mask
        return fixed / fixed.sum(axis=1, keepdims=True)

    def assert_matches(self, *args, make_rng=lambda: np.random.default_rng(5)):
        want = _dense_oracle_results(*args, make_rng())
        got = _attention_results(*args, make_rng())
        assert got.keys() == want.keys()
        rtol = self.RTOL[args[0].dtype]
        for name in want:
            assert got[name].dtype == want[name].dtype, name
            if "draw" in name:
                assert got[name].tobytes() == want[name].tobytes(), name
            else:
                np.testing.assert_allclose(got[name], want[name], rtol=rtol,
                                           atol=rtol * np.abs(want[name]).max(), err_msg=name)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("alpha", ["learned", "fixed"])
    @pytest.mark.parametrize("mask_kind", ["full", "holes", "sparse"])
    def test_keep_decisions_are_the_oracles(self, dtype, alpha, mask_kind):
        # h_k = I makes head k's output columns its dropped alpha, which is
        # nonzero exactly where an edge is kept
        n, heads = self.N, self.HEADS
        mask = self.mask(mask_kind)
        h = np.tile(np.eye(n, dtype=dtype), heads)
        g = np.zeros_like(h)
        if alpha == "learned":
            a, fixed = np.random.default_rng(8).standard_normal((heads, 2 * n)).astype(dtype), None
        else:
            a, fixed = None, self.fixed(mask, dtype)
        kept = []
        for results in (_dense_oracle_results, _attention_results):
            out = results(h, a, mask, fixed, heads, 0.2, 0.6, g,
                          np.random.default_rng(5))["out"]
            kept.append(out.reshape(n, heads, n).transpose(1, 0, 2) != 0)
        assert np.array_equal(kept[0], kept[1])
        assert 0 < np.count_nonzero(kept[0]) < heads * np.count_nonzero(mask)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("dropout", [0.0, 0.6])
    @pytest.mark.parametrize("slope", [0.2, 0.0, -0.1, 1.5])
    @pytest.mark.parametrize("mask_kind", ["full", "holes", "sparse"])
    def test_learned_alpha(self, dtype, dropout, slope, mask_kind):
        h, a, mask, g = self.inputs(dtype, mask_kind)
        self.assert_matches(h, a, mask, None, self.HEADS, slope, dropout, g)

    @pytest.mark.parametrize("slope", [0.2, 0.0, -0.1, 1.5])
    def test_scores_exactly_zero_take_the_slope(self, slope):
        h, a, mask, g = self.inputs(np.float64, "holes", integer_scores=True)
        self.assert_matches(h, a, mask, None, self.HEADS, slope, 0.6, g)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("dropout", [0.0, 0.6])
    @pytest.mark.parametrize("mask_kind", ["full", "sparse"])
    def test_fixed_alpha(self, dtype, dropout, mask_kind):
        h, _, mask, g = self.inputs(dtype, mask_kind)
        self.assert_matches(h, None, mask, self.fixed(mask, dtype), self.HEADS, 0.2,
                            dropout, g)

    @pytest.mark.parametrize("dropout", [0.0, 0.6])
    def test_planted_shape(self, dropout):
        # 50 drugs and 8 heads of 8 on a 15%-dense mask, as the planted set trains
        n, heads, f = 50, 8, 8
        rng = np.random.default_rng(9)
        h, g = (rng.standard_normal((n, heads * f)).astype(np.float32) for _ in range(2))
        a = rng.standard_normal((heads, 2 * f)).astype(np.float32)
        self.assert_matches(h, a, dense_mask(rng, n, 0.08), None, heads, 0.2, dropout, g)

    def test_generator_with_a_buffered_uint32(self):
        # a float32 draw leaves half of a 64-bit output buffered; the next
        # float32 draw after attention must still take it
        def make_rng():
            rng = np.random.default_rng(5)
            rng.random(dtype=np.float32)
            return rng
        h, a, mask, g = self.inputs(np.float32, "holes")
        self.assert_matches(h, a, mask, None, self.HEADS, 0.2, 0.6, g, make_rng=make_rng)

    @pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.Philox])
    def test_generator_that_cannot_skip_draws(self, bit_generator):
        # the masks come from the stream of any bit generator, in head order
        h, a, mask, g = self.inputs(np.float32, "holes")
        self.assert_matches(h, a, mask, None, self.HEADS, 0.2, 0.6, g,
                            make_rng=lambda: np.random.Generator(bit_generator(5)))


def _edge_attention_results(attend, h, a, mask, heads, slope, dropout, g, rng):
    """Output, every alpha, finiteness check, adjoints and the next draw of
    the dropout generator."""
    out, alphas, check, bwd = attend(h, a, mask, heads, h.dtype.type(slope), dropout, rng)
    return {"out": out, **{f"alpha{k}": x for k, x in enumerate(alphas)}, "check": check,
            **{f"adjoint{k}": x for k, x in enumerate(bwd(g))},
            "next draw": np.array(rng.random())}


def _edge_inputs(dtype, n, heads, f, integer_scores=False, seed=8):
    """h, a and an output adjoint g for K = `heads` heads of width f."""
    rng = np.random.default_rng(seed)
    shape_h, shape_a = (n, heads * f), (heads, 2 * f)
    if integer_scores:  # many scores src + dst are exactly 0
        h, a = rng.integers(-2, 3, shape_h), rng.integers(-1, 2, shape_a)
    else:
        h, a = rng.standard_normal(shape_h), rng.standard_normal(shape_a)
    g = rng.standard_normal(shape_h)
    return h.astype(dtype), a.astype(dtype), g.astype(dtype)


def attention_edges(hd, a, mask, heads, s, dropout, rng, layout=None):
    """`autodiff._attention_edges` on `layout`, by default a new layout of
    `mask`: the oracle's signature and returns."""
    layout = ad.EdgeLayout(mask) if layout is None else layout
    return ad._attention_edges(hd, a, None, layout, heads, s, dropout, rng)


def assert_edges_match_oracle(h, a, mask, heads, slope, dropout, g, layout=None):
    want, got = (_edge_attention_results(attend, h, a, mask, heads, slope, dropout, g,
                                         np.random.default_rng(5))
                 for attend in (reference_attention_edges,
                                functools.partial(attention_edges, layout=layout)))
    assert got.keys() == want.keys()
    for name in want:
        assert same_bits(got[name], want[name]), name


@pytest.fixture(scope="module")
def paper_did3(tmp_path_factory):
    """The top-16 DID-3 mask of the paper-count network, data seed 0."""
    inputs = tmp_path_factory.mktemp("paper")
    write_lines(generate_clustered(PAPER_SPEC, 0), inputs)
    hin = pipeline.load_hin_inputs(pipeline.InputPaths.in_dir(inputs))
    return pipeline.make_graphs(hin, ["DID-3"])["DID-3"].mask


class TestEdgeAttentionMatchesOracleBitForBit:
    """`_attention_edges` against `reference_attention_edges`, which gathers
    (E, K, F) arrays and sums them with a ones incidence: every output
    byte-identical, so training histories do not move."""

    N, HEADS, F = 70, 3, 4

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("dropout", [0.0, 0.6])
    @pytest.mark.parametrize("slope", [0.2, 0.0, -0.1, 1.5])
    def test_ring_with_chords_and_an_isolated_drug(self, dtype, dropout, slope):
        mask = sp.csr_array(ring_mask(self.N, chords=[(2, 40), (5, 50), (0, 35)],
                                      isolated=[9]))
        h, a, g = _edge_inputs(dtype, self.N, self.HEADS, self.F)
        assert_edges_match_oracle(h, a, mask, self.HEADS, slope, dropout, g)

    @pytest.mark.parametrize("slope", [0.2, 0.0, -0.1, 1.5])
    def test_scores_exactly_zero_take_the_slope(self, slope):
        mask = sp.csr_array(ring_mask(self.N, chords=[(2, 40)], isolated=[9]))
        h, a, g = _edge_inputs(np.float64, self.N, self.HEADS, self.F, integer_scores=True)
        assert_edges_match_oracle(h, a, mask, self.HEADS, slope, 0.6, g)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("dropout", [0.0, 0.6])
    def test_paper_scale_did3_graph(self, paper_did3, dtype, dropout):
        # 513 drugs and 8 heads of 8, as paper-513 trains
        assert paper_did3.nnz < ad.SPARSE_DENSITY * 513 * 513
        h, a, g = _edge_inputs(dtype, 513, 8, 8)
        assert_edges_match_oracle(h, a, paper_did3, 8, 0.2, dropout, g)


class TestEdgeLayout:
    """An `EdgeLayout` builds its index arrays once per dtype and head
    count, and its calls still give the oracle's bytes."""

    N = 70
    MASK = sp.csr_array(ring_mask(N, chords=[(2, 40), (5, 50), (0, 35)], isolated=[9]))

    def call(self, layout, heads, dtype, seed=8):
        """One training call, forward and adjoint, on `layout`; returns the
        output node and its alphas."""
        h, a, g = _edge_inputs(dtype, self.N, heads, 3, seed=seed)
        node, alphas = ad.graph_attention(
            Tensor(h, requires_grad=True), Tensor(a, requires_grad=True), layout,
            heads=heads, slope=0.2, dropout=0.6, rng=np.random.default_rng(5))
        node._backward(g)
        return node, alphas

    def test_second_call_builds_no_index_arrays(self, monkeypatch):
        layout = ad.EdgeLayout(self.MASK)
        self.call(layout, 4, np.float32)
        kept = (layout.rows, *layout.incidences(np.float32), *layout.block(4))
        made = []
        csr_array = sp.csr_array

        def counted(*args, **kwargs):
            made.append(csr_array(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(sp, "csr_array", counted)
        _, alphas = self.call(layout, 4, np.float32, seed=9)
        # one CSR a call, the dropped alphas on the kept block indices
        assert len(made) == 1
        assert np.shares_memory(made[0].indices, kept[3])
        assert np.shares_memory(made[0].indptr, kept[4])
        assert all(x is y for x, y in zip(
            (layout.rows, *layout.incidences(np.float32), *layout.block(4)), kept))
        # an alpha is a new dense array on each read, and needs no CSR
        assert alphas[-1].data is not alphas[-1].data
        assert alphas[-1].data.shape == (self.N, self.N)
        assert len(made) == 1

    def test_one_layout_for_every_head_count_and_dtype(self):
        layout = ad.EdgeLayout(self.MASK)
        for heads, dtype in [(2, np.float32), (4, np.float64), (4, np.float32),
                             (2, np.float64), (2, np.float32)]:
            h, a, g = _edge_inputs(dtype, self.N, heads, 3)
            assert_edges_match_oracle(h, a, self.MASK, heads, 0.2, 0.6, g, layout=layout)
        assert set(layout._blocks) == {2, 4}
        assert set(layout._incidences) == {np.dtype(np.float32), np.dtype(np.float64)}

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_alphas_read_after_later_calls_match_the_oracle(self, dtype):
        # the first call's alphas, read after a second call on the same
        # layout and both adjoints, are the oracle's for the first
        layout = ad.EdgeLayout(self.MASK)
        heads = 3
        h, a, g = _edge_inputs(dtype, self.N, heads, 3)
        _, want, _, _ = reference_attention_edges(h, a, self.MASK, heads, dtype(0.2), 0.6,
                                                  np.random.default_rng(5))
        node, alphas = ad.graph_attention(
            Tensor(h, requires_grad=True), Tensor(a, requires_grad=True), layout,
            heads=heads, slope=0.2, dropout=0.6, rng=np.random.default_rng(5))
        self.call(layout, heads, dtype, seed=9)
        node._backward(g)
        assert len(alphas) == heads
        assert all(isinstance(alpha, Tensor) for alpha in alphas)
        for got in (list(alphas), alphas[:], [alphas[k - heads] for k in range(heads)]):
            assert all(same_bits(x.data, y) for x, y in zip(got, want, strict=True))
        with pytest.raises(IndexError):
            alphas[heads]

    def test_neighbor_graph_keeps_its_layout(self):
        graph = NeighborGraph("ring", self.MASK)
        assert graph.edge_layout is graph.edge_layout
        assert graph.edge_layout.mask is graph.mask

    @pytest.mark.parametrize("fault", ["no self-loop", "stored False"])
    def test_bad_mask_rejected_when_the_layout_is_made(self, fault):
        mask = self.MASK.copy()
        if fault == "no self-loop":
            mask = sp.csr_array(mask.toarray() & ~np.eye(self.N, dtype=bool))
        else:
            mask.data[3] = False
        with pytest.raises(ad.ContractError):
            ad.EdgeLayout(mask)
        with pytest.raises(ad.ContractError):
            NeighborGraph("ring", mask).edge_layout


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 40), heads=st.integers(1, 3), f=st.integers(1, 3),
       density=st.floats(0, 0.3), slope=st.sampled_from([0.2, 0.0, -0.1, 1.5]),
       dropout=st.sampled_from([0.0, 0.6]),
       dtype=st.sampled_from([np.float32, np.float64]), seed=st.integers(0, 2**32 - 1))
def test_edge_attention_matches_oracle_on_random_masks(n, heads, f, density, slope,
                                                        dropout, dtype, seed):
    rng = np.random.default_rng(seed)
    mask = rng.random((n, n)) < density
    mask |= mask.T | np.eye(n, dtype=bool)
    h, a, g = _edge_inputs(dtype, n, heads, f, seed=seed)
    assert_edges_match_oracle(h, a, sp.csr_array(mask), heads, slope, dropout, g)


class TestFixedAlphaOnTheMask:
    """A fixed alpha is taken at the mask's edges: one of another shape, or
    with weight off the mask, is refused rather than dropped there."""

    MASK = ring_mask(64, chords=[(3, 30)])

    def attend(self, fixed, mask=MASK):
        n = len(mask)
        return ad.graph_attention(Tensor(np.ones((n, 4))), None, mask, heads=2,
                                  slope=0.2, fixed=fixed)

    def fixed(self):
        fixed = np.random.default_rng(6).random(self.MASK.shape) * self.MASK
        return fixed / fixed.sum(axis=1, keepdims=True)

    @pytest.mark.parametrize("off", [1e-9, -0.5, np.nan, np.inf])
    def test_weight_off_the_mask_rejected(self, off):
        fixed = self.fixed()
        fixed[0, 32] = off
        assert not self.MASK[0, 32]
        with pytest.raises(ad.ContractError, match="off the neighbor mask"):
            self.attend(fixed)

    @pytest.mark.parametrize("shape", [(64, 63), (63, 63), (64,), (1, 64, 64)])
    def test_wrong_shape_rejected(self, shape):
        fixed = np.full(shape, 1 / 64)
        with pytest.raises(ad.ContractError, match="fixed alpha shape"):
            self.attend(fixed)

    @pytest.mark.parametrize("mask", [MASK, np.ones((6, 6), dtype=bool)])
    def test_alphas_read_back_as_the_fixed_alpha(self, mask):
        # zeros on the mask are kept, and -0.0 off it is no weight
        fixed = np.random.default_rng(6).random(mask.shape) * mask
        fixed[1, 1] = 0.0
        fixed[~mask] = -0.0
        node, alphas = self.attend(fixed, mask)
        assert len(alphas) == 2
        for alpha in alphas:
            np.testing.assert_array_equal(alpha.data, fixed)
            assert alpha.data.dtype == np.float64
        np.testing.assert_allclose(node.data, fixed @ np.ones((len(mask), 4)), rtol=1e-12)


class TestNonFiniteGuard:
    """`graph_attention` checks its output first, then every alpha through
    an array that is finite exactly when the alphas are: the row sums of
    the softmax, or the fixed alpha."""

    @pytest.mark.parametrize("mask_kind", ["full", "ring"])
    def test_overflowing_scores_fail_the_output_check(self, mask_kind):
        # float32 src = 2 * 1e30 * 1e10 overflows: the scores are inf, every
        # alpha NaN, and so is the output, which is checked first
        n = 6 if mask_kind == "full" else 64
        mask = np.ones((n, n), dtype=bool) if mask_kind == "full" else ring_mask(n)
        h = Tensor(np.full((n, 4), 1e30, dtype=np.float32))
        a = Tensor(np.full((2, 4), 1e10, dtype=np.float32))
        with np.errstate(all="ignore"), pytest.raises(ad.NonFiniteError,
                                                      match=r"^graph_attention produced"):
            ad.graph_attention(h, a, mask, heads=2, slope=0.2)

    def test_overflowing_fixed_alpha_product_fails_the_output_check(self):
        h = Tensor(np.full((6, 4), 1e30, dtype=np.float32))
        fixed = np.full((6, 6), 1e9, dtype=np.float32)
        with np.errstate(all="ignore"), pytest.raises(ad.NonFiniteError,
                                                      match=r"^graph_attention produced"):
            ad.graph_attention(h, None, np.ones((6, 6), dtype=bool), heads=2, slope=0.2,
                               fixed=fixed)

    def test_non_finite_fixed_alpha_fails_the_alpha_check(self):
        # heads of width 0 leave an empty, finite output
        fixed = np.full((3, 3), 1 / 3)
        fixed[1, 2] = np.nan
        with pytest.raises(ad.NonFiniteError, match=r"^graph_attention\.alpha produced"):
            ad.graph_attention(Tensor(np.ones((3, 0))), None, np.ones((3, 3), dtype=bool),
                               heads=2, slope=0.2, fixed=fixed)

    @pytest.mark.parametrize("mask_kind", ["full", "ring"])
    def test_overflowing_scores_raise_under_errstate(self, mask_kind):
        # only the last head's scores overflow, and the caller's np.errstate
        # turns that into an error before any check runs
        n = 6 if mask_kind == "full" else 64
        mask = np.ones((n, n), dtype=bool) if mask_kind == "full" else ring_mask(n)
        heads, f = 3, 2
        h = Tensor(np.ones((n, heads * f), dtype=np.float32))
        a = np.zeros((heads, 2 * f), dtype=np.float32)
        a[2] = 1e38                                     # src + dst = 4e38
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            ad.graph_attention(h, Tensor(a), mask, heads=heads, slope=0.2)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 9), heads=st.integers(1, 3), f=st.integers(1, 3),
       log_scale=st.floats(0, 25), slope=st.sampled_from([0.2, 0.0, -0.1, 1.5]),
       seed=st.integers(0, 2**32 - 1))
def test_alpha_check_fails_exactly_when_an_oracle_alpha_is_not_finite(
        n, heads, f, log_scale, slope, seed):
    # float32 scores overflow from a scale of about 1e19 on
    rng = np.random.default_rng(seed)
    h = (rng.standard_normal((n, heads * f)) * 10.0 ** log_scale).astype(np.float32)
    a = (rng.standard_normal((heads, 2 * f)) * 10.0 ** log_scale).astype(np.float32)
    mask = dense_mask(rng, n, 0.5)
    s = np.float32(slope)
    with np.errstate(all="ignore"):
        _, want, _, _ = reference_attention_dense(h, a, mask, None, heads, s, 0.0, None)
        _, _, check, _ = attention_edges(h, a, sp.csr_array(mask), heads, s, 0.0, None)
    assert np.isfinite(check).all() == all(np.isfinite(alpha).all() for alpha in want)


def _pair_case(dtype, size, seed=6):
    """(rng, z, pairs): random pairs among repeated, reversed and i == j
    ones, on 9 drugs or on 60 with 11,198 pairs."""
    rng = np.random.default_rng(seed)
    n, m = (9, 40) if size == "small" else (60, 11_192)
    zd = rng.standard_normal((n, 16)).astype(dtype)
    pairs = np.concatenate([rng.integers(0, n, size=(m, 2)),
                            [[2, 5], [2, 5], [5, 2], [4, 4], [0, 8], [8, 0]]])
    return rng, zd, pairs


def oracle_pair_scores(zd, pairs):
    return 1 / (1 + np.exp(-(zd @ zd.T)[pairs.min(axis=1), pairs.max(axis=1)]))


PAIR_CASES = pytest.mark.parametrize("dtype, size", [
    (dtype, size) for dtype in (np.float32, np.float64) for size in ("small", "large")])


@PAIR_CASES
def test_pair_scores_read_the_full_product_at_min_max(dtype, size):
    _, zd, pairs = _pair_case(dtype, size)
    got = ad.pair_scores(Tensor(zd), pairs).data
    assert got.dtype == dtype
    assert got.tobytes() == oracle_pair_scores(zd, pairs).tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_a_pair_scores_alike_alone_reversed_and_among_all(dtype):
    rng = np.random.default_rng(3)
    zd = rng.standard_normal((30, 64)).astype(dtype)
    everything = np.stack(np.triu_indices(30), axis=1)  # i == j included
    want = ad.pair_scores(Tensor(zd), everything).data
    assert ad.pair_scores(Tensor(zd), everything[:, ::-1]).data.tobytes() == want.tobytes()
    order = rng.permutation(len(everything))
    shuffled = ad.pair_scores(Tensor(zd), everything[order]).data
    assert shuffled.tobytes() == want[order].tobytes()
    for k in rng.choice(len(everything), size=40, replace=False):
        for pair in (everything[k], everything[k, ::-1]):
            alone = ad.pair_scores(Tensor(zd), pair[None]).data
            assert alone.tobytes() == want[k:k + 1].tobytes()


def _pair_adjoint(dtype, size):
    """(z, pairs, probabilities, output adjoint, adjoint) of one call, with
    exact-zero output adjoints of both signs, as the clamped binary
    cross-entropy gives."""
    rng, zd, pairs = _pair_case(dtype, size)
    g = rng.standard_normal(len(pairs)).astype(dtype)
    g[::7], g[3::11] = 0.0, -0.0
    node = ad.pair_scores(Tensor(zd, requires_grad=True), pairs)
    (dz,) = node._backward(g)
    assert dz.dtype == dtype
    return zd, pairs, node.data, g, dz


@PAIR_CASES
def test_pair_scores_adjoint_is_the_symmetric_scatter_product(dtype, size):
    zd, pairs, y, g, dz = _pair_adjoint(dtype, size)
    n = len(zd)
    d = np.zeros((n, n), dtype=dtype)
    np.add.at(d, (pairs.min(axis=1), pairs.max(axis=1)), g * y * (1 - y))
    assert dz.tobytes() == ((d + d.T) @ zd).tobytes()


@PAIR_CASES
def test_pair_scores_adjoint_is_near_the_add_at_oracle(dtype, size):
    # The oracle adds each pair's two products in pair order. Both sums hold
    # at most k = m + n + 2 roundings, so each is within k eps / (1 - k eps)
    # of the exact sum, relative to the sum of the terms' magnitudes.
    zd, pairs, y, g, dz = _pair_adjoint(dtype, size)
    n = len(zd)
    want = reference_pair_scores_adjoint(zd, pairs, y, g)
    magnitude = np.zeros((n, n))
    np.add.at(magnitude, (pairs.min(axis=1), pairs.max(axis=1)),
              np.abs((g * y * (1 - y)).astype(np.float64)))
    scale = (magnitude + magnitude.T) @ np.abs(zd.astype(np.float64))
    k, eps = len(pairs) + n + 2, np.finfo(dtype).eps
    assert (np.abs(dz - want) <= 2 * k * eps / (1 - k * eps) * scale).all()


def test_pair_scores_on_many_pairs_start_no_thread(monkeypatch):
    # 19,900 pairs, above the 8,192 from which this op once ran on a thread
    # pool: forward and adjoint run on the calling thread
    def refuse(thread):
        raise AssertionError(f"pair_scores started thread {thread.name}")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    before = threading.enumerate()
    z = Tensor(np.random.default_rng(4).standard_normal((200, 8)), requires_grad=True)
    pairs = np.stack(np.triu_indices(200, 1), axis=1)
    assert len(pairs) > 8192
    node = ad.pair_scores(z, pairs)
    node._backward(np.ones(len(pairs)))
    assert threading.enumerate() == before


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


def test_pair_scores_of_no_pairs():
    z = Tensor(np.ones((3, 4), dtype=np.float32), requires_grad=True)
    node = ad.pair_scores(z, np.zeros((0, 2), dtype=np.int64))
    assert node.data.shape == (0,) and node.data.dtype == np.float32
    (dz,) = node._backward(np.zeros(0, dtype=np.float32))
    assert dz.dtype == np.float32 and dz.shape == (3, 4) and not dz.any()


def test_pair_scores_overflow_raises_under_errstate():
    # only the products of row 2 overflow
    zd = np.ones((3, 4), dtype=np.float32)
    zd[2] = 1e38
    pairs = np.array([[0, 1]] * 7 + [[2, 2]] * 7)
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        ad.pair_scores(Tensor(zd), pairs)


def test_pair_scores_temporaries_do_not_grow_with_the_pairs():
    # One gather of all 4,950 pairs would hold two 1.3 MB (m, 64) arrays;
    # the (100, 100) product holds 40 kB.
    z = Tensor(np.ones((100, 64), dtype=np.float32))
    pairs = np.stack(np.triu_indices(100, 1), axis=1)
    tracemalloc.start()
    try:
        ad.pair_scores(z, pairs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@settings(max_examples=60, deadline=None)
@given(t=st.integers(1, 4), n=st.integers(1, 6), width=st.integers(1, 5),
       d_q=st.integers(1, 4), scale=st.floats(0.1, 10.0),
       seed=st.integers(0, 2**32 - 1))
def test_semantic_attention_beta_on_simplex_and_weights_the_sum(t, n, width, d_q,
                                                                 scale, seed):
    rng = np.random.default_rng(seed)
    zs = [Tensor(rng.standard_normal((n, width)) * scale) for _ in range(t)]
    w, b, q = (Tensor(rng.standard_normal(shape) * scale)
               for shape in ((d_q, width), (d_q,), (d_q,)))
    out, beta = ad.semantic_attention(zs, w, b, q)
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
        report = finite_diff_check(lambda: sigmoid(x), {"x": x}, probes=1)
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
