"""Dense tensors with reverse-mode gradients.

The compute graph is recorded implicitly: every operation links its output
tensor to its input tensors together with a closure that maps the output
adjoint to input adjoints. :func:`backward` replays those closures in
reverse topological order.

Scope is deliberately narrow: 0-d/1-d/2-d tensors, no general broadcasting,
no views, no higher-order gradients. Two precisions are supported (float32
for training, float64 for gradient checking); mixing them in one operation
is an error.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "AutodiffError",
    "ShapeError",
    "PrecisionError",
    "NonFiniteError",
    "ContractError",
    "ParameterError",
    "Tensor",
    "add",
    "sub",
    "mul",
    "neg",
    "scale",
    "matmul",
    "matvec",
    "transpose",
    "reshape",
    "stack_scalars",
    "slice1d",
    "gather_rows",
    "row_sum",
    "add_bias",
    "apply_unary",
    "tanh",
    "sigmoid",
    "log",
    "clip",
    "masked_row_softmax",
    "dropout",
    "graph_attention",
    "reduce_sum",
    "reduce_mean",
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

    def numpy(self) -> np.ndarray:
        return self.data

    def __repr__(self) -> str:
        return f"Tensor(op={self._op!r}, shape={self.data.shape}, dtype={self.data.dtype})"

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)


def _check_finite(arr: np.ndarray, op: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"{op} produced non-finite values")


def _node(arr: np.ndarray, op: str, parents: Sequence[Tensor],
          backward_fn: Callable[[np.ndarray], list]) -> Tensor:
    """Build an operation-result tensor, pruning the tape for constants."""
    _check_finite(arr, op)
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
# elementwise arithmetic


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of two same-shape tensors."""
    _check_dtypes("add", a, b)
    _require_shape("add", a.shape == b.shape, f"shapes {a.shape} vs {b.shape}")
    return _node(a.data + b.data, "add", (a, b), lambda g: [g, g])


def sub(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise difference of two same-shape tensors."""
    _check_dtypes("sub", a, b)
    _require_shape("sub", a.shape == b.shape, f"shapes {a.shape} vs {b.shape}")
    return _node(a.data - b.data, "sub", (a, b), lambda g: [g, -g])


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of two same-shape tensors."""
    _check_dtypes("mul", a, b)
    _require_shape("mul", a.shape == b.shape, f"shapes {a.shape} vs {b.shape}")
    return _node(a.data * b.data, "mul", (a, b),
                 lambda g: [g * b.data, g * a.data])


def neg(a: Tensor) -> Tensor:
    return _node(-a.data, "neg", (a,), lambda g: [-g])


def scale(a: Tensor, s: Tensor) -> Tensor:
    """Multiply a tensor by a scalar tensor (shape () or (1,))."""
    _check_dtypes("scale", a, s)
    _require_shape("scale", s.data.size == 1, f"scale factor has shape {s.shape}")
    return _node(a.data * s.data.reshape(()), "scale", (a, s),
                 lambda g: [g * s.data.reshape(()),
                            np.sum(g * a.data).reshape(s.shape).astype(s.dtype)])


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of a (m,k) and b (k,n)."""
    _check_dtypes("matmul", a, b)
    _require_shape("matmul", a.data.ndim == 2 and b.data.ndim == 2,
                   f"expects 2-d operands, got {a.shape} and {b.shape}")
    _require_shape("matmul", a.shape[1] == b.shape[0],
                   f"inner extents disagree: {a.shape} vs {b.shape}")
    return _node(a.data @ b.data, "matmul", (a, b),
                 lambda g: [g @ b.data.T, a.data.T @ g])


def matvec(a: Tensor, v: Tensor) -> Tensor:
    """Matrix-vector product of a (m,k) and v (k,), giving (m,)."""
    _check_dtypes("matvec", a, v)
    _require_shape("matvec", a.data.ndim == 2 and v.data.ndim == 1,
                   f"expects (m,k) and (k,), got {a.shape} and {v.shape}")
    _require_shape("matvec", a.shape[1] == v.shape[0],
                   f"inner extents disagree: {a.shape} vs {v.shape}")
    return _node(a.data @ v.data, "matvec", (a, v),
                 lambda g: [np.outer(g, v.data), a.data.T @ g])


def transpose(a: Tensor) -> Tensor:
    _require_shape("transpose", a.data.ndim == 2, f"expects 2-d, got {a.shape}")
    return _node(a.data.T.copy(), "transpose", (a,), lambda g: [g.T])


def reshape(a: Tensor, shape: tuple) -> Tensor:
    orig = a.shape
    return _node(a.data.reshape(shape).copy(), "reshape", (a,),
                 lambda g: [g.reshape(orig)])


def stack_scalars(tensors: Sequence[Tensor]) -> Tensor:
    """Stack scalar tensors into a 1-d vector."""
    tensors = list(tensors)
    _check_dtypes("stack_scalars", *tensors)
    _require_shape("stack_scalars", all(t.data.size == 1 for t in tensors),
                   "expects scalar operands")
    dt = tensors[0].dtype

    def bwd(g):
        return [np.asarray(g[i], dtype=dt).reshape(t.shape)
                for i, t in enumerate(tensors)]

    return _node(np.array([t.data.reshape(()) for t in tensors], dtype=dt),
                 "stack_scalars", tensors, bwd)


def slice1d(v: Tensor, start: int, stop: int) -> Tensor:
    """Contiguous slice of a 1-d tensor."""
    _require_shape("slice1d", v.data.ndim == 1, f"expects 1-d, got {v.shape}")
    if not (0 <= start <= stop <= v.shape[0]):
        raise ShapeError(f"slice1d: [{start}:{stop}] out of range for {v.shape}")

    def bwd(g):
        full = np.zeros_like(v.data)
        full[start:stop] = g
        return [full]

    return _node(v.data[start:stop].copy(), "slice1d", (v,), bwd)


def gather_rows(a: Tensor, idx) -> Tensor:
    """Select rows of a (n,d) matrix; duplicate indices are allowed."""
    _require_shape("gather_rows", a.data.ndim == 2, f"expects 2-d, got {a.shape}")
    idx = np.asarray(idx, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise IndexError(f"gather_rows: index out of range for {a.shape[0]} rows")

    def bwd(g):
        da = np.zeros_like(a.data)
        np.add.at(da, idx, g)
        return [da]

    return _node(a.data[idx].copy(), "gather_rows", (a,), bwd)


def row_sum(a: Tensor) -> Tensor:
    """Sum a (n,d) matrix over columns, giving (n,)."""
    _require_shape("row_sum", a.data.ndim == 2, f"expects 2-d, got {a.shape}")
    return _node(a.data.sum(axis=1), "row_sum", (a,),
                 lambda g: [np.repeat(g[:, None], a.shape[1], axis=1)])


def add_bias(m: Tensor, v: Tensor) -> Tensor:
    """Add a (d,) vector to every row of a (n,d) matrix."""
    _check_dtypes("add_bias", m, v)
    _require_shape("add_bias", m.data.ndim == 2 and v.data.ndim == 1,
                   f"expects (n,d) and (d,), got {m.shape} and {v.shape}")
    _require_shape("add_bias", m.shape[1] == v.shape[0],
                   f"widths disagree: {m.shape} vs {v.shape}")
    return _node(m.data + v.data[None, :], "add_bias", (m, v),
                 lambda g: [g, g.sum(axis=0)])


# ---------------------------------------------------------------------------
# nonlinearities


def apply_unary(kind: str, x: Tensor, slope: float | None = None) -> Tensor:
    """Elementwise nonlinearity with its analytic adjoint.

    `slope` must be supplied iff kind == "leaky_relu".
    """
    if (kind == "leaky_relu") != (slope is not None):
        raise ParameterError("slope is required exactly when kind='leaky_relu'")
    d = x.data
    if kind == "relu":
        y = np.maximum(d, 0)
        bwd = lambda g: [g * (d > 0)]
    elif kind == "leaky_relu":
        s = d.dtype.type(slope)
        y = np.where(d > 0, d, s * d)
        bwd = lambda g: [g * np.where(d > 0, d.dtype.type(1), s)]
    elif kind == "tanh":
        y = np.tanh(d)
        bwd = lambda g: [g * (1 - y * y)]
    elif kind == "sigmoid":
        y = 1 / (1 + np.exp(-d))
        bwd = lambda g: [g * y * (1 - y)]
    elif kind == "exp":
        y = np.exp(d)
        bwd = lambda g: [g * y]
    elif kind == "log":
        with np.errstate(divide="ignore", invalid="ignore"):
            y = np.log(d)
        bwd = lambda g: [g / d]
    else:
        raise ParameterError(f"unknown unary kind {kind!r}")
    return _node(y, kind, (x,), bwd)


def tanh(x: Tensor) -> Tensor:
    return apply_unary("tanh", x)


def sigmoid(x: Tensor) -> Tensor:
    return apply_unary("sigmoid", x)


def log(x: Tensor) -> Tensor:
    return apply_unary("log", x)


def clip(x: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp values to [lo, hi]; gradient is zero where clamping is active."""
    d = x.data
    inside = (d > lo) & (d < hi)
    return _node(np.clip(d, lo, hi), "clip", (x,), lambda g: [g * inside])


# ---------------------------------------------------------------------------
# structured ops


def masked_row_softmax(s: Tensor, mask: np.ndarray) -> Tensor:
    """Row-wise softmax over the unmasked entries of a 2-d score matrix.

    Entries where `mask` is false come out exactly zero; each masked row
    sums to 1. Stabilized by subtracting the row max before exponentiation.
    Every row of `mask` must contain at least one true entry.
    """
    _require_shape("masked_row_softmax", s.data.ndim == 2, f"expects 2-d, got {s.shape}")
    mask = np.asarray(mask, dtype=bool)
    _require_shape("masked_row_softmax", mask.shape == s.shape,
                   f"mask shape {mask.shape} vs scores {s.shape}")
    live = mask.any(axis=1)
    if not live.all():
        rows = np.flatnonzero(~live)
        raise ContractError(f"masked_row_softmax: all-false mask rows {rows.tolist()}")
    neg_inf = s.dtype.type(-np.inf)
    shifted = np.where(mask, s.data, neg_inf)
    shifted = shifted - shifted.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=1, keepdims=True)

    def bwd(g):
        dot = (g * y).sum(axis=1, keepdims=True)
        return [y * (g - dot)]

    return _node(y, "masked_row_softmax", (s,), bwd)


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
    keep = rng.random(x.shape) >= rate
    factor = (keep / (1.0 - rate)).astype(x.dtype)
    return _node(x.data * factor, "dropout", (x,), lambda g: [g * factor])


def graph_attention(h: Tensor, a: Tensor | None, mask: np.ndarray, *,
                    heads: int, slope: float, dropout: float = 0.0,
                    rng: np.random.Generator | None = None,
                    fixed: np.ndarray | None = None) -> tuple[Tensor, list[Tensor]]:
    """K-head graph attention over a dense neighbor mask, as one node.

    Head k owns columns [k*F, (k+1)*F) of the (n, K*F) projection `h`. It
    scores pair (i, j) as leaky_relu(a[k, :F] . h_k[i] + a[k, F:] . h_k[j]),
    softmax-normalizes each row over `mask` (self-loops required) into
    alpha_k and writes alpha_k @ h_k, before any activation, into its own
    columns. With `dropout` > 0 each alpha_k is dropped out with one (n, n)
    draw from `rng`, in head order. A constant (n, n) `fixed` alpha
    replaces the learned one for every head; `a` is then None.

    Returns the node and the K alphas before dropout, uncopied.
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
    hd = h.data
    dt = hd.dtype
    if fixed is None:
        _check_dtypes(op, h, a)
        _require_shape(op, a.shape == (heads, 2 * f),
                       f"attention matrix shape {a.shape}, expected ({heads}, {2 * f})")
        mask = np.asarray(mask, dtype=bool)
        _require_shape(op, mask.shape == (n, n), f"mask shape {mask.shape} for {n} nodes")
        if not mask.diagonal().all():
            raise ContractError(f"{op}: neighbor mask must include self-loops")
        parents = (h, a)
    else:
        fixed = np.asarray(fixed, dtype=dt)
        _require_shape(op, fixed.shape == (n, n), f"fixed alpha shape {fixed.shape} for {n} nodes")
        parents = (h,)
    s = dt.type(slope)
    neg_inf = dt.type(-np.inf)
    keep_scale = dt.type(1.0 / (1.0 - dropout))

    out = np.empty_like(hd)
    alphas, keeps, scores = [], [], []
    for k in range(heads):
        cols = slice(k * f, (k + 1) * f)
        hk = hd[:, cols]
        if fixed is None:
            src, dst = hk @ a.data[k, :f], hk @ a.data[k, f:]
            e = src[:, None] + dst[None, :]
            e = np.where(mask, np.where(e > 0, e, s * e), neg_inf)
            e -= e.max(axis=1, keepdims=True)
            np.exp(e, out=e)
            alpha = e / e.sum(axis=1, keepdims=True)
            scores.append((src, dst))
        else:
            alpha = fixed
        alphas.append(alpha)
        if dropout:
            keep = rng.random((n, n)) >= dropout
            keeps.append(keep)
            alpha = alpha * (keep * keep_scale)
        out[:, cols] = alpha @ hk

    def bwd(g):
        dh = np.zeros_like(hd)
        da = None if fixed is not None else np.zeros_like(a.data)
        for k in range(heads):
            cols = slice(k * f, (k + 1) * f)
            hk, gk, alpha = hd[:, cols], g[:, cols], alphas[k]
            factor = keeps[k] * keep_scale if dropout else None
            dropped = alpha if factor is None else alpha * factor
            dh[:, cols] += dropped.T @ gk
            if da is None:
                continue
            d_alpha = gk @ hk.T
            if factor is not None:
                d_alpha *= factor
            d_e = alpha * (d_alpha - (d_alpha * alpha).sum(axis=1, keepdims=True))
            src, dst = scores[k]
            d_e *= np.where(src[:, None] + dst[None, :] > 0, dt.type(1), s)
            d_src, d_dst = d_e.sum(axis=1), d_e.sum(axis=0)
            dh[:, cols] += np.outer(d_src, a.data[k, :f]) + np.outer(d_dst, a.data[k, f:])
            da[k, :f] = hk.T @ d_src
            da[k, f:] = hk.T @ d_dst
        return [dh] if da is None else [dh, da]

    return (_node(out, op, parents, bwd),
            [_node(alpha, f"{op}.alpha", (), None) for alpha in alphas])


# ---------------------------------------------------------------------------
# reductions


def reduce_sum(x: Tensor) -> Tensor:
    """Sum all elements into a scalar."""
    return _node(x.data.sum(), "reduce_sum", (x,),
                 lambda g: [np.full_like(x.data, 1) * g])


def reduce_mean(x: Tensor) -> Tensor:
    """Mean of all elements as a scalar."""
    n = x.data.size
    return _node(x.data.sum() / n, "reduce_mean", (x,),
                 lambda g: [np.full_like(x.data, 1) * (g / n)])


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
