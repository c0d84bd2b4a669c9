"""Meta-path schemas, commuting matrices and top-k PathSim neighbor graphs.

A meta-path is a chain of typed relation steps starting and ending at
drugs. Its commuting matrix is the integer product of the step matrices;
entry (i, j) counts concrete path instances from drug i to drug j. The
encoder consumes a neighbor graph per meta-path. A drug's candidates are
the other drugs with which it shares at least one path instance, as in
HAN (Wang et al., WWW 2019); a drug with more than k candidates keeps the
k of highest PathSim (Sun et al., VLDB 2011) and every drug that keeps
it, so that the graph stays symmetric. Self-loops are added, and the
graph is held as one canonical boolean CSR array that graph attention
reads as it is. With k = 0 every candidate is kept: the paper's binarized
graph.

The cut matters at paper scale. On 513 drugs, the binarized DID-3 and
DID-4 graphs are 100% and 74% dense, and node attention cannot single out
neighbors in a near-complete neighborhood: both meta-path embeddings end
up the same for every drug. Top-16 leaves them about 4% dense.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .autodiff import EdgeLayout
from .hin import RELATIONS, EntityKind, Hin, SchemaError

__all__ = [
    "MetaPathStep",
    "MetaPathSpec",
    "CommutingMatrix",
    "NeighborGraph",
    "builtin_specs",
    "builtin_spec_names",
    "commuting_matrix",
    "neighbor_graph",
]


@dataclass(frozen=True)
class MetaPathStep:
    """One relation step: a matrix name (T/C/H/P), optionally transposed."""
    matrix: str
    transposed: bool = False

    def kinds(self) -> tuple[EntityKind, EntityKind]:
        source, target, _ = RELATIONS[self.matrix]
        return (target, source) if self.transposed else (source, target)


@dataclass(frozen=True)
class MetaPathSpec:
    """A named drug-to-drug path schema over the relation matrices."""
    name: str
    steps: tuple[MetaPathStep, ...]

    def __post_init__(self):
        if not self.steps:
            raise SchemaError(f"{self.name}: empty meta-path")
        kinds = [s.kinds() for s in self.steps]
        if kinds[0][0] != EntityKind.DRUG or kinds[-1][1] != EntityKind.DRUG:
            raise SchemaError(f"{self.name}: meta-path must start and end at drugs")
        for k, (left, right) in enumerate(zip(kinds, kinds[1:])):
            if left[1] != right[0]:
                raise SchemaError(
                    f"{self.name}: step {k} ends at {left[1].value} but step {k + 1} "
                    f"starts at {right[0].value}")


def builtin_specs() -> list[MetaPathSpec]:
    """The four built-in drug-drug meta-paths.

    DID-1: drug-protein-drug (shared target proteins, T T^t)
    DID-2: drug-protein-protein-drug (interacting target proteins, T P T^t)
    DID-3: drug-substructure-drug (shared substructures, H H^t)
    DID-4: drug-side-effect-drug (shared side effects, C C^t)
    """
    return [
        MetaPathSpec("DID-1", (MetaPathStep("T"), MetaPathStep("T", transposed=True))),
        MetaPathSpec("DID-2", (MetaPathStep("T"), MetaPathStep("P"),
                               MetaPathStep("T", transposed=True))),
        MetaPathSpec("DID-3", (MetaPathStep("H"), MetaPathStep("H", transposed=True))),
        MetaPathSpec("DID-4", (MetaPathStep("C"), MetaPathStep("C", transposed=True))),
    ]


def builtin_spec_names() -> list[str]:
    return [s.name for s in builtin_specs()]


def spec_by_name(name: str) -> MetaPathSpec:
    for spec in builtin_specs():
        if spec.name == name:
            return spec
    raise SchemaError(f"unknown meta-path {name!r}; known: {builtin_spec_names()}")


@dataclass(frozen=True)
class CommutingMatrix:
    """Integer drug-by-drug path counts for one meta-path."""
    name: str
    counts: np.ndarray  # (n_drugs, n_drugs) int64


def _step_csr(hin: Hin, step: MetaPathStep):
    m = hin.matrix(step.matrix)
    csr = m.to_csr()
    return csr.T.tocsr() if step.transposed else csr


# The last step runs as a dense BLAS product when at least this share of its
# left factor is nonzero, PRODUCT_ROWS rows per call, and as a sparse
# product densified once otherwise. The dense product is float32 (sgemm)
# when its counts are exact there, as on paper-513, and float64 otherwise;
# for X X^t (DID-1, DID-3, DID-4) the right factor is the left's transpose,
# read in place, and only the blocks on and above the diagonal are
# multiplied. Whole calls on paper-513 (2-vCPU guest, BLAS on one thread,
# host speed varying about 1.6x): DID-3 (23% nonzero) takes 2.3-3.4 ms,
# against 4.0-6.7 ms as a float64 product of whole blocks and 15-22 ms
# sparse; DID-4 (5%) takes 3.8-6.3 ms, against 8.7-11.3 ms sparse. DID-1
# (under 1%) takes about 3 ms dense, against 0.7-1.6 ms sparse. Row blocks
# keep the float result in a small buffer; a whole (n, n) one beside the
# int64 counts cost about 1,600 page faults (5 ms) per product.
DENSE_PRODUCT_SHARE = 0.03
PRODUCT_ROWS = 128

# Neighbors kept per drug by default, by PathSim, when it has more.
TOP_K = 16
# Top-k selection scores rows in blocks of about this many float64 entries
# (128 kB). On paper-513, whole (n, n) score arrays cost about 950 page
# faults, about 3 ms, per near-complete graph; blocks of this size none.
SCORE_ENTRIES = 16384
# Rows are ranked by packed int64 keys while count times denominator stays
# under 2**PACKED_BITS over the column range (see _keep_top_pathsim).
PACKED_BITS = 50


def commuting_matrix(hin: Hin, spec: MetaPathSpec) -> CommutingMatrix:
    """Left-to-right integer product of the spec's step matrices: sparse up
    to the last step, which yields a dense result. A near-complete count
    matrix costs a sparse product far more in index bookkeeping than a
    dense one. When at least `DENSE_PRODUCT_SHARE` of the left factor is
    nonzero, the last step is a dense float product (BLAS gemm), in blocks
    of `PRODUCT_ROWS` rows; otherwise it is a sparse int64 product,
    densified once.

    The float product is exact. Every term is a product of non-negative
    integers, so every partial sum of a count is an integer no larger than
    the count. No count exceeds its row's left sum times the largest right
    entry. That bound is checked once: below 2**24 the product runs in
    float32, which holds every integer up to there, and below 2**53 in
    float64.
    """
    *head, final = spec.steps
    product = _step_csr(hin, head[0])
    for step in head[1:]:
        product = product @ _step_csr(hin, step)
    if product.nnz >= DENSE_PRODUCT_SHARE * product.shape[0] * product.shape[1]:
        # X X^t: the right factor is the left's transpose, read in place
        square = len(head) == 1 and final == MetaPathStep(head[0].matrix, not head[0].transposed)
        last = product if square else _step_csr(hin, final)
        row_sums = np.asarray(product.sum(axis=1))
        bound = float(row_sums.max(initial=0)) * float(last.data.max(initial=0))
        if bound >= 2.0 ** 53:
            raise SchemaError(f"{spec.name}: path counts may reach 2**53, beyond exact float64")
        dtype = np.float32 if bound < 2.0 ** 24 else np.float64
        left = product.astype(dtype).toarray()
        right = left.T if square else last.astype(dtype).toarray()
        counts = np.empty((left.shape[0], right.shape[1]), dtype=np.int64)
        for i in range(0, left.shape[0], PRODUCT_ROWS):
            rows = slice(i, i + PRODUCT_ROWS)
            if square:  # symmetric: columns from the block's own on, mirrored below
                block = left[rows] @ right[:, i:]
                counts[rows, i:] = block
                counts[i + PRODUCT_ROWS:, rows] = block[:, PRODUCT_ROWS:].T
            else:
                counts[rows] = left[rows] @ right
    else:
        counts = (product @ _step_csr(hin, final)).toarray()
    n = hin.n_drugs
    if counts.shape != (n, n):
        raise SchemaError(f"{spec.name}: product shape {counts.shape}, expected {(n, n)}")
    return CommutingMatrix(spec.name, counts)


@dataclass(frozen=True)
class NeighborGraph:
    """Boolean drug adjacency for one meta-path, self-loops included, held
    only as an (n_drugs, n_drugs) bool `scipy.sparse.csr_array` in canonical
    format (sorted indices, no duplicates, no stored False). Its `indptr`
    and `indices` are the edge layout of `autodiff.graph_attention`."""
    name: str
    mask: sp.csr_array

    @cached_property
    def edge_layout(self) -> EdgeLayout:
        """The mask, checked on first read, with the index arrays that
        graph attention builds from it kept for every later call."""
        return EdgeLayout(self.mask)

    @property
    def adjacency(self) -> np.ndarray:
        """The mask as a new read-only dense bool array."""
        adj = self.mask.toarray()
        adj.flags.writeable = False
        return adj

    @property
    def n_nodes(self) -> int:
        return self.mask.shape[0]


def neighbor_graph(m: CommutingMatrix, top_k: int = TOP_K) -> NeighborGraph:
    """Drug i's neighbors: itself and its candidates, the drugs j != i
    that share at least one path instance with it. A drug with more than
    `top_k` candidates keeps only its `top_k` highest-PathSim ones, and
    gets back every drug that keeps it; `top_k = 0` keeps every candidate,
    the paper's binarization.

    PathSim is 2 M_ij / max(M_ii + M_jj, 1) in float64 (Sun et al., VLDB
    2011); the floor covers a zero diagonal beside positive counts, as
    DID-2 can have. Equal scores go to the lower column. On a symmetric
    count matrix, as every built-in meta-path gives, the graph is the union
    of the kept sets with their transpose: symmetric, and a drug with at
    most `top_k` candidates keeps exactly its binarized row.
    """
    if top_k < 0:
        raise ValueError(f"top_k must be >= 0, got {top_k}")
    adj = m.counts > 0
    np.fill_diagonal(adj, True)
    degree = np.count_nonzero(adj, axis=1)
    if top_k and degree.max(initial=0) > top_k + 1:
        heavy = _rows_to_cut(adj, degree, top_k)
        if heavy.size:
            _keep_top_pathsim(adj, m.counts, top_k, heavy)
            degree = np.count_nonzero(adj, axis=1)
    n = adj.shape[0]
    idx = sp.get_index_dtype(maxval=adj.size)  # int32 unless n^2 overflows it
    # boolean indexing runs row by row, so each row's columns come out sorted
    cols = np.broadcast_to(np.arange(n, dtype=idx), (n, n))[adj]
    indptr = np.concatenate([[0], np.cumsum(degree)]).astype(idx)
    return NeighborGraph(m.name, sp.csr_array((np.ones(cols.size, dtype=bool), cols, indptr),
                                              shape=(n, n)))


def _rows_to_cut(adj: np.ndarray, degree: np.ndarray, k: int) -> np.ndarray:
    """The rows of more than k candidates whose cut can change the graph.

    A row whose candidates all have at most k of their own, and whose
    column equals the row, gets back every drug it drops and holds no other
    cut row, so cutting it changes nothing. Such a row has no more
    candidates than there are light rows, so near-complete graphs skip the
    check.
    """
    heavy = degree > k + 1
    n_light = heavy.size - np.count_nonzero(heavy)
    maybe = np.flatnonzero(heavy & (degree <= n_light + 1))
    if maybe.size:
        rows = adj[maybe]
        whole = ((np.count_nonzero(rows & heavy, axis=1) == 1)  # the self-loop only
                 & (rows == adj[:, maybe].T).all(axis=1))
        heavy[maybe[whole]] = False
    return np.flatnonzero(heavy)


def _keep_top_pathsim(adj: np.ndarray, counts: np.ndarray, k: int,
                      heavy: np.ndarray) -> None:
    """Cut each `heavy` row of `adj` (candidates plus self-loops) to its
    self-loop and its top k candidates by (-PathSim, column), then give it
    back every drug whose row holds it.

    Rows are scored in blocks of about `SCORE_ENTRIES` scores. The factor 2
    of PathSim is left out, which changes no order and no tie, and so is
    the floor when no diagonal count is 0. A score is 0 off the candidates
    and positive on them, so its float64 bits, read as an int64, keep its
    order. A row's keys are those bits with the low `shift` bits replaced
    by the column, lower columns ranking higher: every key differs, and
    `np.partition` puts the row's k kept columns last, readable from their
    keys. That is exact while every count of the block times every
    denominator stays under 2**(PACKED_BITS - shift): two different scores
    M/D are then more than 2**(shift + 1) float64 steps apart. Blocks with
    larger counts are sorted by (-score, column) instead.
    """
    n = adj.shape[0]
    diag = np.diagonal(counts).astype(np.float64)
    floor = not diag.all()
    shift = max(1, (n - 1).bit_length())
    low = (1 << shift) - 1
    column_key = low - np.arange(n)
    limit = 2.0 ** (PACKED_BITS - shift) / max(2.0 * diag.max(initial=0), 1.0)
    kept = np.empty((heavy.size, k), dtype=np.int64)
    step = max(1, SCORE_ENTRIES // n)
    for start in range(0, heavy.size, step):
        rows = heavy[start:start + step]
        contiguous = rows[-1] - rows[0] == rows.size - 1
        block = counts[rows[0]:rows[-1] + 1] if contiguous else counts[rows]
        score = np.add.outer(diag[rows], diag)
        if floor:
            np.maximum(score, 1.0, out=score)
        np.divide(block, score, out=score)
        score[np.arange(rows.size), rows] = 0.0
        if block.max(initial=0) < limit:
            key = score.view(np.int64)
            key &= ~low
            key |= column_key
            top = np.partition(key, n - k, axis=1)[:, n - k:]
            kept[start:start + step] = low - (top & low)
        else:
            columns = np.broadcast_to(np.arange(n), score.shape)
            kept[start:start + step] = np.lexsort((columns, -score), axis=1)[:, :k]
    cut = np.zeros(n, dtype=bool)
    cut[heavy] = True
    light = np.flatnonzero(~cut)
    back = adj[np.ix_(light, heavy)].T  # light rows holding a cut row
    rows, cols = np.repeat(heavy, k), kept.ravel()
    adj[heavy] = False
    adj[heavy, heavy] = True
    adj[rows, cols] = True
    mutual = cut[cols]  # cut rows keeping a cut row
    adj[cols[mutual], rows[mutual]] = True
    adj[np.ix_(heavy, light)] |= back
