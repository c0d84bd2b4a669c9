"""Meta-path schemas, commuting matrices and binarized neighbor graphs.

A meta-path is a chain of typed relation steps starting and ending at
drugs. Its commuting matrix is the integer product of the step matrices;
entry (i, j) counts concrete path instances from drug i to drug j. The
encoder consumes the binarized form with self-loops added, held as one
canonical boolean CSR array that graph attention reads as it is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

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
# product densified once otherwise. On paper-513 (2-vCPU guest, BLAS on one
# thread) DID-3 (23% nonzero) takes about 3 ms dense instead of 9-12 ms
# sparse. A dense product costs the same at any share: DID-1 and DID-2
# (under 1%) take 8-9 ms dense, against 0.2-0.3 ms sparse. DID-4 (5%) takes
# 7.6 ms sparse; as a sparse-by-dense product it took 8.5 ms and about
# 1,500 page faults per call for its densified right factor. Row blocks
# keep the float64 result in a small buffer; a whole (n, n) one beside the
# int64 counts cost about 1,600 page faults (5 ms) per product.
DENSE_PRODUCT_SHARE = 0.1
PRODUCT_ROWS = 128


def commuting_matrix(hin: Hin, spec: MetaPathSpec) -> CommutingMatrix:
    """Left-to-right integer product of the spec's step matrices: sparse up
    to the last step, which yields a dense result. A near-complete count
    matrix costs a sparse product far more in index bookkeeping than a
    dense one. When at least `DENSE_PRODUCT_SHARE` of the left factor is
    nonzero, the last step is a dense float64 product (BLAS dgemm), in
    blocks of `PRODUCT_ROWS` rows; otherwise it is a sparse int64 product,
    densified once.

    The float64 product is exact. Every term is a product of non-negative
    integers, so every partial sum of a count is an integer no larger than
    the count, and float64 holds every integer below 2**53. No count
    exceeds its row's left sum times the largest right entry, and that
    bound is checked once, below 2**53.
    """
    *head, last = (_step_csr(hin, step) for step in spec.steps)
    product = head[0]
    for step in head[1:]:
        product = product @ step
    if product.nnz >= DENSE_PRODUCT_SHARE * product.shape[0] * product.shape[1]:
        left = product.astype(np.float64).toarray()
        right = last.astype(np.float64).toarray()
        if left.sum(axis=1).max(initial=0) * right.max(initial=0) >= 2.0 ** 53:
            raise SchemaError(f"{spec.name}: path counts may reach 2**53, beyond exact float64")
        counts = np.empty((left.shape[0], right.shape[1]), dtype=np.int64)
        for i in range(0, left.shape[0], PRODUCT_ROWS):
            counts[i:i + PRODUCT_ROWS] = left[i:i + PRODUCT_ROWS] @ right
    else:
        counts = (product @ last).toarray()
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

    @property
    def adjacency(self) -> np.ndarray:
        """The mask as a new read-only dense bool array."""
        adj = self.mask.toarray()
        adj.flags.writeable = False
        return adj

    @property
    def n_nodes(self) -> int:
        return self.mask.shape[0]


def neighbor_graph(m: CommutingMatrix, threshold: int = 1) -> NeighborGraph:
    """Binarize a commuting matrix: edge iff count >= threshold, plus self-loops."""
    if threshold < 1:
        raise ValueError(f"binarization threshold must be >= 1, got {threshold}")
    adj = m.counts >= threshold
    np.fill_diagonal(adj, True)
    n = adj.shape[0]
    idx = sp.get_index_dtype(maxval=adj.size)  # int32 unless n^2 overflows it
    # boolean indexing runs row by row, so each row's columns come out sorted
    cols = np.broadcast_to(np.arange(n, dtype=idx), (n, n))[adj]
    indptr = np.concatenate([[0], np.cumsum(np.count_nonzero(adj, axis=1))]).astype(idx)
    return NeighborGraph(m.name, sp.csr_array((np.ones(cols.size, dtype=bool), cols, indptr),
                                              shape=(n, n)))
