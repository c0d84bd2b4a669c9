"""Dense tensors with reverse-mode gradients, and the ops of the model.

The compute graph is recorded implicitly: every operation links its output
tensor to its input tensors together with a closure that maps the output
adjoint to input adjoints. :func:`backward` replays those closures in
reverse topological order.

The op set is what the two-level attention model needs. Three ops are
generic: `matmul`, `relu` (the encoder activation) and `dropout`.
Four are fused, each one tape node with a hand-written adjoint:

- `graph_attention`: K-head node-level attention over one meta-path's
  neighbor mask;
- `semantic_attention`: meta-path weights beta and the beta-weighted sum of
  the meta-path embeddings;
- `pair_scores`: the sigmoid of the embedding dot product of each drug pair;
- `binary_cross_entropy`: summed over pairs, on clamped probabilities.

Every op result is checked for NaN and Inf, and a fused op also checks the
intermediates that a later squashing step (tanh, sigmoid) would hide.

`graph_attention` reads its neighbor mask as a canonical boolean CSR array,
the one form `metapath.NeighborGraph` stores, and works on the mask's E
edges in the order of its `indptr` and `indices`, taken as they are, for a
learned alpha and a fixed one alike: (E, K) scores, a segment softmax per
row, row and column sums of (E, K) arrays as products with the (n, E) edge
incidence, and the aggregation and its adjoint as one product each with a
(K n, K n) block-diagonal CSR that holds the K dropped alphas, so its time
and memory grow with E. What depends on the mask alone (its checks, the
incidences, the block's index arrays) an `EdgeLayout` builds on first use
and keeps; each `NeighborGraph` owns one, so the model's calls rebuild
none of it. The K per-head alphas are (n, n) arrays, made only when read.

Dropout draws its keep mask in one of two orders, chosen per call from the
mask's density (nnz / n^2). From `SPARSE_DENSITY` (5%) on, head k keeps
edge (i, j) where entry (k, i, j) of one (K, n, n) draw is kept, as when
such masks were attended on dense (n, n) arrays, so the planted 50-drug
graphs (11-22% dense) keep their dropout draws, and their training
histories up to rounding. Below it, one (E, K) draw covers the edges in
row-major order and costs E K values where the dense order costs K n^2
(2.1M at n = 513). With the default top-16 PathSim graphs every
paper-scale (513-drug) meta-path graph is under it (about 1% for DID-1
and DID-2, 4% for DID-3 and DID-4). A top-k graph holds at most
(2k + 1) n entries: each drug keeps its self-loop and at most k
candidates, and each kept edge adds at most its reverse. So from n > 660
on, no top-16 graph is 5% dense (33 / n).

Every op runs on the calling thread. `pair_scores` costs one (n, n)
product of the n embeddings with themselves, and O(n^2) memory, whatever
the number of pairs m: in float32, 1 MB at 513 drugs and 4 MB at 1,026.
Each pair (i, j) reads entry (min(i, j), max(i, j)) of that product, so
a score has the same bits in both orders and whatever other pairs the
call scores.

Scope is deliberately narrow: 0-d/1-d/2-d tensors, no general broadcasting,
no views, no higher-order gradients. Two precisions are supported (float32
for training, float64 for gradient checking); mixing them in one operation
is an error.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence

import numpy as np
import scipy.sparse as sp

__all__ = [
    "AutodiffError",
    "ShapeError",
    "PrecisionError",
    "NonFiniteError",
    "ContractError",
    "ParameterError",
    "Tensor",
    "EdgeLayout",
    "matmul",
    "relu",
    "dropout",
    "graph_attention",
    "semantic_attention",
    "pair_scores",
    "binary_cross_entropy",
    "backward",
    "zero_grad",
]

FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


class AutodiffError(Exception):
    """Base class for tensor-core errors."""


class ShapeError(AutodiffError):
    """Operand shapes are incompatible for the requested operation."""


class PrecisionError(AutodiffError):
    """Operands mix float32 and float64."""


class NonFiniteError(AutodiffError):
    """A forward operation produced NaN or Inf."""


class ContractError(AutodiffError):
    """A documented precondition was violated."""


class ParameterError(AutodiffError):
    """An operation parameter is outside its legal range."""


class Tensor:
    """A dense real tensor plus its place in the compute graph.

    Leaves are created from user data; operation results are created
    internally and remember their parents and adjoint rule. `data` of a
    leaf may be replaced in place between graph builds (this is how the
    optimizer updates parameters); tensors are otherwise treated as
    immutable values.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_op")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        if dtype is None:
            if isinstance(data, np.ndarray) and data.dtype in FLOAT_DTYPES:
                arr = np.array(data)
            else:
                arr = np.array(data, dtype=np.float32)
        else:
            dtype = np.dtype(dtype)
            if dtype not in FLOAT_DTYPES:
                raise PrecisionError(f"unsupported dtype {dtype}; use float32 or float64")
            arr = np.array(data, dtype=dtype)
        _check_finite(arr, "leaf")
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None
        self._op = "leaf"

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(op={self._op!r}, shape={self.data.shape}, dtype={self.data.dtype})"


def _check_finite(arr: np.ndarray, op: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"{op} produced non-finite values")


def _node(arr: np.ndarray, op: str, parents: Sequence[Tensor],
          backward_fn: Callable[[np.ndarray], list]) -> Tensor:
    """Build an operation-result tensor, pruning the tape for constants."""
    _check_finite(arr, op)
    return _result(arr, op, parents, backward_fn)


def _result(arr: np.ndarray, op: str, parents: Sequence[Tensor],
            backward_fn: Callable[[np.ndarray], list]) -> Tensor:
    """`_node` without the check, for an array whose finiteness is known."""
    t = Tensor.__new__(Tensor)
    t.data = arr
    t.grad = None
    t.requires_grad = any(p.requires_grad for p in parents)
    t._op = op
    if t.requires_grad:
        t._parents = tuple(parents)
        t._backward = backward_fn
    else:
        t._parents = ()
        t._backward = None
    return t


def _check_dtypes(op: str, *tensors: Tensor) -> np.dtype:
    dt = tensors[0].data.dtype
    for t in tensors[1:]:
        if t.data.dtype != dt:
            raise PrecisionError(f"{op}: mixed precisions {dt} and {t.data.dtype}")
    return dt


def _require_shape(op: str, cond: bool, msg: str) -> None:
    if not cond:
        raise ShapeError(f"{op}: {msg}")


# ---------------------------------------------------------------------------
# generic ops


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of a (m,k) and b (k,n)."""
    _check_dtypes("matmul", a, b)
    _require_shape("matmul", a.data.ndim == 2 and b.data.ndim == 2,
                   f"expects 2-d operands, got {a.shape} and {b.shape}")
    _require_shape("matmul", a.shape[1] == b.shape[0],
                   f"inner extents disagree: {a.shape} vs {b.shape}")
    return _node(a.data @ b.data, "matmul", (a, b),
                 lambda g: [g @ b.data.T, a.data.T @ g])


def relu(x: Tensor) -> Tensor:
    """Elementwise max(x, 0); the adjoint passes g where x > 0."""
    d = x.data
    return _node(np.maximum(d, 0), "relu", (x,), lambda g: [g * (d > 0)])


def dropout(x: Tensor, rate: float, rng: np.random.Generator, training: bool) -> Tensor:
    """Inverted dropout: zero elements with probability `rate` and scale
    survivors by 1/(1-rate) in training mode; identity in eval mode.

    The generator is always consumed in training mode (even at rate 0) so
    that toggling the rate does not shift downstream random draws.
    """
    if not (0 <= rate < 1):
        raise ParameterError(f"dropout rate {rate} outside [0, 1)")
    if not training:
        return x
    # bool times the scale in the tensor's dtype: 0 or that scale, the bits
    # of the float64 quotient keep / (1 - rate) cast to it
    factor = (rng.random(x.shape) >= rate) * x.dtype.type(1.0 / (1.0 - rate))
    return _node(x.data * factor, "dropout", (x,), lambda g: [g * factor])


# ---------------------------------------------------------------------------
# fused ops


# A neighbor mask with at least this share of its n*n entries set draws its
# dropout keep mask in dense order, K (n, n) draws taken at its edges; a
# sparser one draws one value per edge and head. It picks only the draw
# order; see the module docstring.
SPARSE_DENSITY = 0.05


def graph_attention(h: Tensor, a: Tensor | None, mask, *,
                    heads: int, slope: float, dropout: float = 0.0,
                    rng: np.random.Generator | None = None,
                    fixed: np.ndarray | None = None) -> tuple[Tensor, Sequence[Tensor]]:
    """K-head graph attention over a neighbor mask, as one node.

    Head k owns columns [k*F, (k+1)*F) of the (n, K*F) projection `h`. It
    scores edge (i, j) of the (n, n) `mask` (self-loops required) as
    leaky_relu(a[k, :F] . h_k[i] + a[k, F:] . h_k[j]), softmax-normalizes
    each row over its edges into alpha_k and writes alpha_k @ h_k, before
    the relu, into its own columns. A constant (n, n) `fixed` alpha
    replaces the learned one for every head, and `a` is None; a fixed alpha
    of another shape or with weight off the mask raises ContractError.

    `mask` is a bool `scipy.sparse.csr_array` in canonical format (sorted
    indices, no duplicates, no stored False), as `NeighborGraph.mask` holds
    it, or the `EdgeLayout` of one, as `NeighborGraph.edge_layout` holds
    it; any other sparse mask raises ContractError, and a dense bool array
    is converted. A layout keeps its index arrays from call to call; a mask
    gets a new layout, checked and built anew, per call. Every alpha lives
    on the mask's E edges, laid out as its `indptr` and `indices` give
    them. With `dropout` > 0 each head's alpha is dropped out with a keep
    mask drawn from `rng`: when the mask's nnz is at least `SPARSE_DENSITY`
    of n^2, one (K, n, n) draw whose (k, i, j) entry decides edge (i, j) of
    head k; below it, one (E, K) draw, edges in row-major order.

    Returns the node and a read-only sequence of the K alphas before
    dropout, as constant tensors that hold (n, n) arrays, zero off the
    mask, each made from the (K, E) alphas when it is read. The output is
    checked for NaN and Inf first, then the alphas: a learned one through
    its softmax row sums, a fixed one on the edges.
    """
    op = "graph_attention"
    if (a is None) == (fixed is None):
        raise ParameterError(f"{op}: pass exactly one of a and fixed")
    if not (0 <= dropout < 1):
        raise ParameterError(f"{op}: dropout rate {dropout} outside [0, 1)")
    _require_shape(op, h.data.ndim == 2 and heads >= 1 and h.shape[1] % heads == 0,
                   f"expects (n, K*F) with K={heads}, got {h.shape}")
    n, width = h.shape
    f = width // heads
    dt = h.data.dtype
    _require_shape(op, np.shape(mask) == (n, n), f"mask shape {np.shape(mask)} for {n} nodes")
    layout = mask if isinstance(mask, EdgeLayout) else EdgeLayout(mask)
    if fixed is None:
        _check_dtypes(op, h, a)
        _require_shape(op, a.shape == (heads, 2 * f),
                       f"attention matrix shape {a.shape}, expected ({heads}, {2 * f})")
        parents = (h, a)
    else:
        fixed = np.asarray(fixed, dtype=dt)
        if fixed.shape != (n, n):
            raise ContractError(f"{op}: fixed alpha shape {fixed.shape} for {n} nodes")
        on_edges = fixed[layout.rows, layout.mask.indices]
        if np.count_nonzero(on_edges) != np.count_nonzero(fixed):
            raise ContractError(f"{op}: fixed alpha has weight off the neighbor mask")
        fixed = on_edges
        parents = (h,)
    out, alphas, check, bwd = _attention_edges(h.data, None if a is None else a.data, fixed,
                                               layout, heads, dt.type(slope), dropout, rng)
    node = _node(out, op, parents, bwd)
    _check_finite(check, f"{op}.alpha")
    return node, _Lazy(heads, lambda k: _result(alphas[k], f"{op}.alpha", (), None))


class EdgeLayout:
    """A neighbor mask, checked once, and the arrays of `graph_attention`
    that depend on the mask alone, each built on first use and kept: every
    edge's row, the (n, E) row and column incidences of each dtype, and the
    `indices` and `indptr` of the (K n, K n) block-diagonal CSR of each
    head count K. `NeighborGraph.edge_layout` holds one per graph, so a
    graph builds them at most once per dtype and head count; a mask passed
    to `graph_attention` as it is gets a new layout per call.

    `mask` is a bool `scipy.sparse.csr_array` in canonical format (sorted
    indices, no duplicates, no stored False) with every self-loop, or a
    dense bool array, which is converted; anything else raises
    ContractError. Two threads that build the same entry at once each build
    it, and one of the equal results is kept."""

    __slots__ = ("mask", "_rows", "_incidences", "_blocks")

    def __init__(self, mask):
        op = "graph_attention"
        if not sp.issparse(mask):
            mask = sp.csr_array(np.asarray(mask, dtype=bool))
        elif not (mask.format == "csr" and mask.dtype == bool
                  and mask.has_canonical_format and mask.data.all()):
            raise ContractError(f"{op}: a sparse neighbor mask must be a bool CSR array "
                                f"with sorted indices, no duplicates and no stored False")
        missing = np.flatnonzero(~mask.diagonal())
        if missing.size:
            raise ContractError(f"{op}: neighbor mask must include self-loops "
                                f"(missing in rows {missing.tolist()})")
        self.mask = mask
        self._rows = None
        self._incidences = {}
        self._blocks = {}

    @property
    def shape(self) -> tuple:
        return self.mask.shape

    @property
    def rows(self) -> np.ndarray:
        """The row of each edge, in the mask's row-major order."""
        if self._rows is None:
            self._rows = np.repeat(np.arange(self.mask.shape[0]), np.diff(self.mask.indptr))
        return self._rows

    def incidences(self, dtype):
        """The (n, E) incidences of each node's row edges and of its column
        edges, with ones of `dtype`: products with them add each node's
        edges in edge order, without a sort."""
        dtype = np.dtype(dtype)
        if dtype not in self._incidences:
            indptr, cols = self.mask.indptr, self.mask.indices
            n, edges = self.mask.shape[0], cols.size
            ones = np.ones(edges, dtype=dtype)
            row_sum = sp.csr_array((ones, np.arange(edges), indptr), shape=(n, edges))
            # the transpose of the (E, n) CSR that holds edge e's column in row e
            col_sum = sp.csr_array((ones, cols, np.arange(edges + 1)), shape=(edges, n)).T
            self._incidences[dtype] = row_sum, col_sum
        return self._incidences[dtype]

    def block(self, heads: int):
        """The `indices` and `indptr` of the (K n, K n) block-diagonal CSR
        whose block k is the mask's pattern with its columns shifted by k n,
        its rows pointing at the k-th copy of the E edges."""
        if heads not in self._blocks:
            indptr, cols = self.mask.indptr, self.mask.indices
            n, edges = self.mask.shape[0], cols.size
            # int32 where it fits: half the index bytes, and half the build time
            idx = np.int32 if heads * edges < 2**31 else np.int64
            offsets = np.arange(heads, dtype=idx)[:, None]
            self._blocks[heads] = ((cols + offsets * n).reshape(-1),
                                   np.append(indptr[:-1] + offsets * edges, idx(heads * edges)))
        return self._blocks[heads]


class _Lazy(Sequence):
    """A read-only sequence of `length` items whose item k is make(k),
    made anew on each read."""

    __slots__ = ("_length", "_make")

    def __init__(self, length: int, make: Callable[[int], object]):
        self._length = length
        self._make = make

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self._make(i) for i in range(self._length)[k]]
        return self._make(range(self._length)[k])


def _attention_edges(hd, a, fixed, layout, heads, s, dropout, rng):
    """`graph_attention` on the E edges of the mask of the `EdgeLayout`
    `layout`, all K heads at once; `a` is None iff `fixed`, the (E,) fixed
    alpha on the edges, is given. Scores, alphas and dropout are (E, K)
    arrays with edges in the mask's row-major order. Row maxima are
    `np.maximum.reduceat` over the row pointer; the softmax denominators,
    `d_src` and `d_dst` are products with the layout's (n, E) incidences of
    each node's row and column edges, which add each node's edges in edge
    order. Returns the output, the K alphas as a sequence that makes each
    head's (n, n) array when it is read, an array that is finite exactly
    when every alpha is, and the adjoint, which maps the output's adjoint
    to [dh] or [dh, da].

    The finiteness check of a learned alpha is on the row sums of exp(x -
    row max): each entry lies in [0, 1] or is NaN and the row maximum gives
    exactly 1, so a sum is in [1, n] or NaN, and alpha = exp / sum is
    finite exactly when every sum is. A fixed alpha is its own check.

    The aggregation is one product of a (K n, K n) block-diagonal CSR with
    the (K n, F) head-major copy of h: block k holds head k's dropped alpha
    on the mask's pattern, its columns shifted by k n, and its rows point
    at the k-th copy of the edges. Its index arrays are the layout's; a
    call makes only its data. The adjoint's aggregation term is the
    transpose (a CSC view of the same arrays) times the head-major copy of
    the output adjoint. scipy's `csr_matvecs` and `csc_matvecs` add each
    term as y += w * x, in edge order, without a fused multiply-add, so
    every output and adjoint rounds as a sum of w * x over the incidence
    would, and no (E, K, F) array is built for them. Only `d_alpha`'s
    einsum still works on (E, K, F) operands, gathered in the adjoint so
    that the tape does not hold them."""
    n, width = hd.shape
    f = width // heads
    dt = hd.dtype
    indptr, cols = layout.mask.indptr, layout.mask.indices
    rows = layout.rows
    h3 = hd.reshape(n, heads, f)
    if fixed is None:
        row_sum, col_sum = layout.incidences(dt)
        starts = indptr[:-1]  # every row holds its self-loop: none is empty
        src = np.einsum("nkf,kf->nk", h3, a[:, :f])
        dst = np.einsum("nkf,kf->nk", h3, a[:, f:])
        raw = np.take(src, rows, axis=0)
        raw += np.take(dst, cols, axis=0)
        positive = raw > 0
        # leaky_relu(e) is max(e, s*e) for a slope s <= 1, min(e, s*e) above
        e = (np.maximum if s <= 1 else np.minimum)(raw, s * raw, out=raw)
        e -= np.take(np.maximum.reduceat(e, starts), rows, axis=0)
        np.exp(e, out=e)
        check = row_sum @ e
        alpha = e
        alpha /= np.take(check, rows, axis=0)
        alpha_t = np.ascontiguousarray(alpha.T)     # (K, E): each head's alpha in a row
    else:
        check = fixed
        alpha_t = np.broadcast_to(fixed, (heads, fixed.size))
    weight_t = alpha_t
    if dropout:
        if cols.size >= SPARSE_DENSITY * n * n:
            keep_t = (rng.random((heads, n, n)) >= dropout)[:, rows, cols]
        else:
            keep_t = (rng.random((cols.size, heads)) >= dropout).T
        factor_t = keep_t * dt.type(1.0 / (1.0 - dropout))
        weight_t = alpha_t * factor_t
    block = sp.csr_array((weight_t.reshape(-1), *layout.block(heads)),
                         shape=(heads * n, heads * n))
    out = _node_major(block @ _head_major(h3), heads)

    def bwd(g):
        g3 = g.reshape(n, heads, f)
        dh = _node_major(block.T @ _head_major(g3), heads)
        if fixed is not None:
            return [dh]
        d_alpha = np.einsum("ekf,ekf->ek", np.take(g3, rows, axis=0),
                            np.take(h3, cols, axis=0))
        if dropout:
            d_alpha *= factor_t.T
        d_e = alpha * (d_alpha - np.take(row_sum @ (d_alpha * alpha), rows, axis=0))
        d_e *= _leaky_slope(positive, s, np.empty_like(d_e))
        d_src, d_dst = row_sum @ d_e, col_sum @ d_e
        dh += (d_src[:, :, None] * a[None, :, :f]
               + d_dst[:, :, None] * a[None, :, f:]).reshape(n, width)
        da = np.concatenate([np.einsum("nk,nkf->kf", d_src, h3),
                             np.einsum("nk,nkf->kf", d_dst, h3)], axis=1)
        return [dh, da]

    def dense(k):
        alpha_k = np.zeros((n, n), dtype=dt)
        alpha_k[rows, cols] = alpha_t[k]
        return alpha_k

    return out, _Lazy(heads, dense), check, bwd


def _head_major(x3):
    """An (n, K, F) array as the (K n, F) array of its K (n, F) heads."""
    n, heads, f = x3.shape
    return np.ascontiguousarray(x3.transpose(1, 0, 2)).reshape(heads * n, f)


def _node_major(x, heads):
    """A (K n, F) head-major array as the (n, K F) array of its nodes."""
    n, f = x.shape[0] // heads, x.shape[1]
    return x.reshape(heads, n, f).transpose(1, 0, 2).reshape(n, heads * f)


def _leaky_slope(positive, s, out):
    """The slope of leaky_relu, 1 where the bool array `positive` is set and
    s elsewhere, written into the float array `out`. Its bits are bits(s) ^
    (positive * (bits(1) ^ bits(s))): two passes, where `np.where(positive,
    1, s)` takes about ten times as long."""
    uint = np.uint32 if out.dtype == np.float32 else np.uint64
    s_bits, one_bits = np.array([s, 1], dtype=out.dtype).view(uint)
    bits = out.view(uint)
    np.multiply(positive, one_bits ^ s_bits, out=bits)
    bits ^= s_bits
    return out


def semantic_attention(zs: Sequence[Tensor], w: Tensor | None, b: Tensor | None,
                       q: Tensor | None, *,
                       fixed: np.ndarray | None = None) -> tuple[Tensor, Tensor]:
    """Meta-path attention over T same-shape (n, D) embeddings, as one node.

    Meta-path t scores the mean over its n rows of q . tanh(W z_t[i] + b),
    with W (d_q, D) and b, q (d_q,). A softmax over the T scores gives
    beta, and the node is sum_t beta_t z_t. A constant (T,) `fixed` beta
    replaces the learned one; w, b and q are then None and the zs are the
    only parents.

    Returns the node and beta, a constant.
    """
    op = "semantic_attention"
    zs = list(zs)
    if [t is not None for t in (w, b, q)] != [fixed is None] * 3:
        raise ParameterError(f"{op}: pass either all of w, b, q or fixed")
    _require_shape(op, bool(zs) and zs[0].data.ndim == 2
                   and all(z.shape == zs[0].shape for z in zs),
                   f"expects T >= 1 embeddings of one (n, D) shape, got "
                   f"{[z.shape for z in zs]}")
    dt = _check_dtypes(op, *zs)
    n, width = zs[0].shape
    hidden = []
    if fixed is None:
        _check_dtypes(op, zs[0], w, b, q)
        _require_shape(op, b.data.ndim == 1 and w.shape == (b.shape[0], width)
                       and q.shape == b.shape,
                       f"W {w.shape}, b {b.shape}, q {q.shape} for width {width}")
        wt = w.data.T.copy()
        scores = []
        for z in zs:
            pre = z.data @ wt + b.data[None, :]
            _check_finite(pre, op)  # tanh would hide an overflow
            s = np.tanh(pre)
            per_node = s @ q.data
            scores.append(per_node.sum() / n)
            hidden.append(s)
        scores = np.array(scores, dtype=dt)
        _check_finite(scores, op)
        e = np.exp(scores - scores.max())
        beta = e / e.sum()
        parents = (*zs, w, b, q)
    else:
        beta = np.asarray(fixed, dtype=dt)
        _require_shape(op, beta.shape == (len(zs),),
                       f"fixed beta shape {beta.shape} for {len(zs)} embeddings")
        parents = tuple(zs)
    out = zs[0].data * beta[0]
    for t in range(1, len(zs)):
        out = out + zs[t].data * beta[t]

    def bwd(g):
        dz = [g * beta[t] for t in range(len(zs))]
        if fixed is not None:
            return dz
        d_beta = np.array([np.sum(g * z.data) for z in zs], dtype=dt)
        d_scores = beta * (d_beta - (d_beta * beta).sum()) / n
        # Each term is a full matrix or matrix-vector product, summed over
        # t in order, so its rounding matches the adjoints of the generic
        # tanh-layer ops and float32 training histories stay bit-identical.
        dw, db, dq = [], [], []
        for t, (z, s) in enumerate(zip(zs, hidden)):
            # every row of z_t receives the same score adjoint d_scores[t]
            d_node = np.full(n, d_scores[t], dtype=dt)
            d_pre = np.outer(d_node, q.data) * (1 - s * s)
            dq.append(s.T @ d_node)
            db.append(d_pre.sum(axis=0))
            dw.append((z.data.T @ d_pre).T)
            dz[t] = dz[t] + d_pre @ wt.T
        return dz + [sum(dw), sum(db), sum(dq)]

    return _node(out, op, parents, bwd), _node(beta, f"{op}.beta", (), None)


def pair_scores(z: Tensor, pairs: np.ndarray) -> Tensor:
    """sigmoid(z[i] . z[j]) for each row (i, j) of an (m, 2) index array,
    as one node; an index outside z's rows raises IndexError. The dot
    product is entry (min(i, j), max(i, j)) of z z^T, which is always
    computed in full, so a pair's score has the same bits in either order
    and in any call on the same z."""
    op = "pair_scores"
    _require_shape(op, z.data.ndim == 2, f"expects 2-d embeddings, got {z.shape}")
    pairs = np.asarray(pairs, dtype=np.int64)
    _require_shape(op, pairs.ndim == 2 and pairs.shape[1] == 2,
                   f"expects (m, 2) pairs, got {pairs.shape}")
    zd = z.data
    n = len(zd)
    if pairs.size and (pairs.min() < 0 or pairs.max() >= n):
        raise IndexError(f"{op}: index out of range for {n} rows")
    # each pair's index min(i, j) n + max(i, j) into the flat product, as
    # min(i, j) (n - 1) + i + j in place: a reduction along the pair axis
    # or fresh temporaries take several times as long on 131,328 pairs
    i, j = pairs[:, 0], pairs[:, 1]
    flat = np.minimum(i, j)
    flat *= n - 1
    flat += i
    flat += j
    dots = (zd @ zd.T).take(flat)
    _check_finite(dots, op)  # the sigmoid would hide an overflow
    y = 1 / (1 + np.exp(-dots))

    def bwd(g):
        # d_dots summed per canonical pair in pair order, then both rows of
        # every pair at once: d(z_i . z_j) is z_j for row i and z_i for row j
        d = np.zeros(n * n, dtype=zd.dtype)
        np.add.at(d, flat, g * y * (1 - y))
        d = d.reshape(n, n)
        return [(d + d.T) @ zd]

    return _node(y, op, (z,), bwd)


def binary_cross_entropy(p: Tensor, labels: np.ndarray, clamp: float) -> Tensor:
    """Binary cross-entropy of probabilities `p` against 0/1 labels, summed,
    as one node. `p` is clamped to [clamp, 1 - clamp] before the logs, and
    the gradient is zero where the clamp is active."""
    op = "binary_cross_entropy"
    labels = np.asarray(labels)
    if not ((labels == 0) | (labels == 1)).all():
        raise ContractError(f"{op}: labels must be 0 or 1")
    _require_shape(op, labels.shape == p.shape,
                   f"labels shape {labels.shape} vs probabilities {p.shape}")
    d = p.data
    y = labels.astype(d.dtype)
    one = np.ones_like(y)
    lo, hi = clamp, 1.0 - clamp
    inside = (d > lo) & (d < hi)
    pc = np.clip(d, lo, hi)
    loss = -(y * np.log(pc) + (one - y) * np.log(one - pc)).sum()
    return _node(loss, op, (p,),
                 lambda g: [-g * inside * (y / pc - (one - y) / (one - pc))])


# ---------------------------------------------------------------------------
# reverse pass


def backward(loss: Tensor, params: Iterable[Tensor] | None = None) -> None:
    """Accumulate d(loss)/d(leaf) into `.grad` of every trainable leaf.

    `loss` must be scalar. If `params` is given, leaves in it that do not
    lie on any path to the loss receive an explicit zero gradient.
    """
    if loss.data.shape != ():
        raise ContractError(f"backward expects a scalar loss, got shape {loss.shape}")

    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))

    grads: dict[int, np.ndarray] = {id(loss): np.ones((), dtype=loss.dtype)}
    for node in reversed(topo):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._backward is None:
            if node.requires_grad:
                node.grad = g if node.grad is None else node.grad + g
            continue
        for parent, pg in zip(node._parents, node._backward(g)):
            if not parent.requires_grad:
                continue
            pid = id(parent)
            if pid in grads:
                grads[pid] = grads[pid] + pg
            else:
                grads[pid] = np.asarray(pg)

    if params is not None:
        for p in params:
            if p.grad is None:
                p.grad = np.zeros_like(p.data)


def zero_grad(params: Iterable[Tensor]) -> None:
    for p in params:
        p.grad = None
