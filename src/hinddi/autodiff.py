"""Dense tensors with reverse-mode gradients, and the ops of the model.

The compute graph is recorded implicitly: every operation links its output
tensor to its input tensors together with a closure that maps the output
adjoint to input adjoints. :func:`backward` replays those closures in
reverse topological order.

The op set is what the two-level attention model needs. Three ops are
generic: `matmul`, `apply_unary` (the encoder activation) and `dropout`.
Four are fused, each one tape node with a hand-written adjoint:

- `graph_attention`: K-head node-level attention over one meta-path's
  neighbor mask;
- `semantic_attention`: meta-path weights beta and the beta-weighted sum of
  the meta-path embeddings;
- `pair_scores`: the sigmoid of the embedding dot product of each drug pair;
- `binary_cross_entropy`: summed over pairs, on clamped probabilities.

Every op result is checked for NaN and Inf, and a fused op also checks the
intermediates that a later squashing step (tanh, sigmoid) would hide.

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
    "UNARY_KINDS",
    "matmul",
    "apply_unary",
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


UNARY_KINDS = ("relu", "leaky_relu", "tanh", "sigmoid")


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
    else:
        raise ParameterError(f"unknown unary kind {kind!r}; "
                             f"choose from {', '.join(UNARY_KINDS)}")
    return _node(y, kind, (x,), bwd)


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


# ---------------------------------------------------------------------------
# fused ops


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
        missing = np.flatnonzero(~mask.diagonal())
        if missing.size:
            raise ContractError(f"{op}: neighbor mask must include self-loops "
                                f"(missing in rows {missing.tolist()})")
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


def semantic_attention(zs: Sequence[Tensor], w: Tensor | None, b: Tensor | None,
                       q: Tensor | None, *, pool: str = "mean",
                       fixed: np.ndarray | None = None) -> tuple[Tensor, Tensor]:
    """Meta-path attention over T same-shape (n, D) embeddings, as one node.

    Meta-path t scores the mean (or, with pool="sum", the sum) over its n
    rows of q . tanh(W z_t[i] + b), with W (d_q, D) and b, q (d_q,). A
    softmax over the T scores gives beta, and the node is sum_t beta_t z_t.
    A constant (T,) `fixed` beta replaces the learned one; w, b and q are
    then None and the zs are the only parents.

    Returns the node and beta, a constant.
    """
    op = "semantic_attention"
    zs = list(zs)
    if [t is not None for t in (w, b, q)] != [fixed is None] * 3:
        raise ParameterError(f"{op}: pass either all of w, b, q or fixed")
    if pool not in ("mean", "sum"):
        raise ParameterError(f"{op}: pool must be 'mean' or 'sum', got {pool!r}")
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
            scores.append(per_node.sum() / n if pool == "mean" else per_node.sum())
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
        d_scores = beta * (d_beta - (d_beta * beta).sum())
        if pool == "mean":
            d_scores = d_scores / n
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
    as one node; an index outside z's rows raises IndexError."""
    op = "pair_scores"
    _require_shape(op, z.data.ndim == 2, f"expects 2-d embeddings, got {z.shape}")
    pairs = np.asarray(pairs, dtype=np.int64)
    _require_shape(op, pairs.ndim == 2 and pairs.shape[1] == 2,
                   f"expects (m, 2) pairs, got {pairs.shape}")
    if pairs.size and (pairs.min() < 0 or pairs.max() >= z.shape[0]):
        raise IndexError(f"{op}: index out of range for {z.shape[0]} rows")
    i, j = pairs[:, 0], pairs[:, 1]
    zd = z.data
    dots = (zd[i] * zd[j]).sum(axis=1)
    _check_finite(dots, op)  # the sigmoid would hide an overflow
    y = 1 / (1 + np.exp(-dots))

    def bwd(g):
        d_dots = (g * y * (1 - y))[:, None]
        dz_i, dz_j = np.zeros_like(zd), np.zeros_like(zd)
        np.add.at(dz_i, i, d_dots * zd[j])
        np.add.at(dz_j, j, d_dots * zd[i])
        return [dz_i + dz_j]

    return _node(y, op, (z,), bwd)


def binary_cross_entropy(p: Tensor, labels: np.ndarray, clamp: float) -> Tensor:
    """Binary cross-entropy of probabilities `p` against 0/1 labels, summed,
    as one node. `p` is clamped to [clamp, 1 - clamp] before the logs, and
    the gradient is zero where the clamp is active."""
    op = "binary_cross_entropy"
    labels = np.asarray(labels)
    if not np.isin(labels, (0, 1)).all():
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
