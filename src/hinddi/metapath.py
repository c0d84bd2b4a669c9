"""Meta-path schemas, commuting matrices and binarized neighbor graphs.

A meta-path is a chain of typed relation steps starting and ending at
drugs. Its commuting matrix is the integer product of the step matrices;
entry (i, j) counts concrete path instances from drug i to drug j. The
encoder consumes the binarized form with self-loops added.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hin import _RELATION_SCHEMAS, EntityKind, Hin, RelationMatrix, SchemaError

__all__ = [
    "MetaPathStep",
    "MetaPathSpec",
    "CommutingMatrix",
    "NeighborGraph",
    "builtin_specs",
    "builtin_spec_names",
    "commuting_matrix",
    "brute_force_path_counts",
    "neighbor_graph",
]

BRUTE_FORCE_LIMIT = 50


@dataclass(frozen=True)
class MetaPathStep:
    """One relation step: a matrix name (T/C/H/P), optionally transposed."""
    matrix: str
    transposed: bool = False

    def kinds(self, hin_schema: dict[str, tuple[EntityKind, EntityKind]]) -> tuple[EntityKind, EntityKind]:
        source, target = hin_schema[self.matrix]
        return (target, source) if self.transposed else (source, target)


@dataclass(frozen=True)
class MetaPathSpec:
    """A named drug-to-drug path schema over the relation matrices."""
    name: str
    steps: tuple[MetaPathStep, ...]

    def __post_init__(self):
        if not self.steps:
            raise SchemaError(f"{self.name}: empty meta-path")
        kinds = [s.kinds(_RELATION_SCHEMAS) for s in self.steps]
        if kinds[0][0] != EntityKind.DRUG or kinds[-1][1] != EntityKind.DRUG:
            raise SchemaError(f"{self.name}: meta-path must start and end at drugs")
        for k, (left, right) in enumerate(zip(kinds, kinds[1:])):
            if left[1] != right[0]:
                raise SchemaError(
                    f"{self.name}: step {k} ends at {left[1].value} but step {k + 1} "
                    f"starts at {right[0].value}")

    @property
    def is_palindromic(self) -> bool:
        rev = tuple(MetaPathStep(s.matrix, not s.transposed) for s in reversed(self.steps))
        # P is symmetric, so orientation of a P step does not matter.
        def canon(steps):
            return tuple((s.matrix, False if s.matrix == "P" else s.transposed)
                         for s in steps)
        return canon(self.steps) == canon(rev)


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


def commuting_matrix(hin: Hin, spec: MetaPathSpec) -> CommutingMatrix:
    """Left-to-right sparse integer product of the spec's step matrices."""
    product = _step_csr(hin, spec.steps[0])
    for step in spec.steps[1:]:
        product = product @ _step_csr(hin, step)
    counts = np.asarray(product.todense(), dtype=np.int64)
    n = hin.n_drugs
    if counts.shape != (n, n):
        raise SchemaError(f"{spec.name}: product shape {counts.shape}, expected {(n, n)}")
    return CommutingMatrix(spec.name, counts)


def brute_force_path_counts(hin: Hin, spec: MetaPathSpec) -> np.ndarray:
    """Count concrete paths between every drug pair by depth-first enumeration.

    Returns an (n_drugs, n_drugs) int64 array whose entry (i, j) is the
    number of path instances from drug i to drug j. Test oracle, deliberately
    independent of the matrix-product route; refuses instances with more
    than BRUTE_FORCE_LIMIT entities of any kind.
    """
    for kind in EntityKind:
        if hin.registry.count(kind) > BRUTE_FORCE_LIMIT:
            raise SchemaError(
                f"brute_force_path_counts: {kind.value} count exceeds {BRUTE_FORCE_LIMIT}")

    adjacency = []
    for step in spec.steps:
        m = hin.matrix(step.matrix)
        table: dict[int, list[int]] = {}
        for a, b in m.coords:
            src, dst = (int(b), int(a)) if step.transposed else (int(a), int(b))
            table.setdefault(src, []).append(dst)
        adjacency.append(table)

    def walk(depth: int, node: int, row: list[int]) -> None:
        if depth == len(adjacency):
            row[node] += 1
            return
        for nxt in adjacency[depth].get(node, ()):
            walk(depth + 1, nxt, row)

    n = hin.n_drugs
    rows = [[0] * n for _ in range(n)]
    for i, row in enumerate(rows):
        walk(0, i, row)
    return np.array(rows, dtype=np.int64).reshape(n, n)


@dataclass(frozen=True)
class NeighborGraph:
    """Boolean drug adjacency for one meta-path, self-loops included."""
    name: str
    adjacency: np.ndarray  # (n_drugs, n_drugs) bool

    @property
    def n_nodes(self) -> int:
        return self.adjacency.shape[0]


def neighbor_graph(m: CommutingMatrix, threshold: int = 1) -> NeighborGraph:
    """Binarize a commuting matrix: edge iff count >= threshold, plus self-loops."""
    if threshold < 1:
        raise ValueError(f"binarization threshold must be >= 1, got {threshold}")
    adj = m.counts >= threshold
    np.fill_diagonal(adj, True)
    return NeighborGraph(m.name, adj)
