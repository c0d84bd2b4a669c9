"""Typed entity registry and the four relation matrices of the network.

Entities come in four kinds (drug, protein, side effect, chemical
substructure). Relations are sparse boolean incidence matrices loaded from
two-column TSV files: T (drug targets protein), C (drug causes side
effect), H (drug possesses substructure) and P (protein interacts with
protein, symmetric).

`RELATIONS` is the one schema of the network: it maps each relation name
to its source kind, target kind and file name in a saved graph directory.
Loading, assembly, validation, stats, graph-directory IO and meta-path
chaining all read it, so a matrix is known by its name alone. `load_pairs`
is the one reader of two-column TSV files. Labeled drug pairs are an
(m, 2) int64 array, one row per pair.

Loaders work on columns, not lines. A file is split whole into a column of
line numbers and columns of fields; `EntityRegistry.indices` resolves each
distinct id of a column once, in order of first appearance, and maps the
column to an int64 array in one pass. Discovery order is that of reading
line by line, the left id before the right: a file within one kind (P,
DDI) resolves its two columns interleaved, and a file across two kinds
resolves each column on its own, as each kind's table only sees its own
column. Errors are those of the first bad line or unknown id in file
order, with the texts of a line-by-line read.
"""

from __future__ import annotations

import dataclasses
import operator
from dataclasses import dataclass, field
from enum import Enum
from itertools import compress, repeat
from pathlib import Path
from typing import Callable

import numpy as np
import scipy.sparse as sp

__all__ = [
    "EntityKind",
    "RELATIONS",
    "HinError",
    "RelationParseError",
    "SchemaError",
    "EntityRegistry",
    "RelationMatrix",
    "Hin",
    "ValidationReport",
    "load_relation",
    "load_pairs",
    "load_ddi",
    "pair_array",
    "unique_rows",
    "sorted_unique",
    "build_hin",
    "validate",
    "stats",
    "save_hin",
    "load_hin",
]


class HinError(Exception):
    """Base class for graph-construction errors."""


class RelationParseError(HinError):
    """A relation file line could not be parsed."""


class SchemaError(HinError):
    """An identifier or matrix violates the network schema."""


class EntityKind(Enum):
    DRUG = "drug"
    PROTEIN = "protein"
    SIDE_EFFECT = "side_effect"
    SUBSTRUCTURE = "substructure"


# relation name -> (source kind, target kind, file name in a graph directory
# written by save_hin; `pipeline.INPUT_FILES` gives T, C and P the same name
# in an input directory). A relation whose source and target kinds are the
# same is symmetric.
RELATIONS = {
    "T": (EntityKind.DRUG, EntityKind.PROTEIN, "drug_protein.tsv"),
    "C": (EntityKind.DRUG, EntityKind.SIDE_EFFECT, "drug_side_effect.tsv"),
    "H": (EntityKind.DRUG, EntityKind.SUBSTRUCTURE, "drug_substructure.tsv"),
    "P": (EntityKind.PROTEIN, EntityKind.PROTEIN, "ppi.tsv"),
}


@dataclass
class EntityRegistry:
    """Per-kind bidirectional mapping between external ids and dense indices."""

    _ids: dict[EntityKind, list[str]] = field(
        default_factory=lambda: {k: [] for k in EntityKind})
    _index: dict[EntityKind, dict[str, int]] = field(
        default_factory=lambda: {k: {} for k in EntityKind})

    def add(self, kind: EntityKind, ident: str) -> int:
        """Register an id (idempotent) and return its dense index."""
        return self.resolver(kind, "discover")(ident)

    def index_of(self, kind: EntityKind, ident: str) -> int:
        return self.resolver(kind, "strict")(ident)

    def resolver(self, kind: EntityKind, mode: str) -> Callable[[str], int]:
        """`add` in "discover" mode, `index_of` in any other, for one kind:
        a loader resolves each of its ids through it, so the kind's tables
        are looked up once per file."""
        ids, table = self._ids[kind], self._index[kind]
        if mode == "discover":
            def resolve(ident: str) -> int:
                idx = table.get(ident)
                if idx is None:
                    idx = table[ident] = len(ids)
                    ids.append(ident)
                return idx
        else:
            def resolve(ident: str) -> int:
                try:
                    return table[ident]
                except KeyError:
                    raise SchemaError(f"unknown {kind.value} id {ident!r}") from None
        return resolve

    def indices(self, kind: EntityKind, ids: list[str], mode: str = "discover") -> np.ndarray:
        """The indices of `ids` as an int64 array. Each distinct id goes
        through `resolver` once, in order of first appearance, so discovery
        order, and in strict mode the unknown id reported, are as if the ids
        were resolved one by one."""
        resolve = self.resolver(kind, mode)
        table = {ident: resolve(ident) for ident in dict.fromkeys(ids)}
        return np.fromiter(map(table.__getitem__, ids), dtype=np.int64, count=len(ids))

    def id_of(self, kind: EntityKind, idx: int) -> str:
        return self._ids[kind][idx]

    def ids(self, kind: EntityKind) -> list[str]:
        return list(self._ids[kind])

    def count(self, kind: EntityKind) -> int:
        return len(self._ids[kind])


@dataclass(frozen=True)
class RelationMatrix:
    """Sparse boolean incidence between two entity kinds.

    Coordinates are kept as a (k, 2) int64 array, deduplicated and sorted
    row-major; row = source index, column = target index. The kinds are
    those `RELATIONS` gives the matrix's name.
    """

    shape: tuple[int, int]
    coords: np.ndarray

    @classmethod
    def from_pairs(cls, shape: tuple[int, int], pairs) -> "RelationMatrix":
        return cls((int(shape[0]), int(shape[1])), unique_rows(pair_array(pairs)))

    def __post_init__(self):
        c = self.coords
        if c.ndim != 2 or c.shape[1] != 2:
            raise SchemaError(f"coords must be (k, 2), got {c.shape}")
        if c.size:
            if c.min() < 0 or c[:, 0].max() >= self.shape[0] or c[:, 1].max() >= self.shape[1]:
                raise SchemaError(
                    f"coordinate out of bounds for matrix of shape {self.shape}")

    @property
    def nnz(self) -> int:
        return self.coords.shape[0]

    def resized(self, shape: tuple[int, int]) -> "RelationMatrix":
        return dataclasses.replace(self, shape=(int(shape[0]), int(shape[1])))

    def to_csr(self) -> sp.csr_matrix:
        """Integer CSR view (entries are exactly 1) for path counting."""
        ones = np.ones(self.nnz, dtype=np.int64)
        return sp.csr_matrix((ones, (self.coords[:, 0], self.coords[:, 1])),
                             shape=self.shape)


@dataclass
class Hin:
    """The assembled network: registry, the relation matrices by name (the
    keys of `RELATIONS`, in its order), and the labeled interaction pairs:
    an (m, 2) int64 array of unique rows in sorted order. `load_ddi` gives
    each row as (i, j) with i < j; `validate` reports a row that is not."""

    registry: EntityRegistry
    relations: dict[str, RelationMatrix]
    ddi: np.ndarray = field(default_factory=lambda: pair_array(()))

    def matrix(self, name: str) -> RelationMatrix:
        try:
            return self.relations[name]
        except KeyError:
            raise SchemaError(f"unknown relation matrix {name!r}") from None

    @property
    def n_drugs(self) -> int:
        return self.registry.count(EntityKind.DRUG)


def _read_fields(path, width: int, expected: str):
    """Split a TSV file into its fields, working on the whole text at once.

    Returns the line numbers of the data lines (an int64 array), their
    `width` tab-separated fields flat in file order (line by line, left to
    right), and the RelationParseError of the first data line with another
    number of fields, unraised, or None. Lines are stripped of surrounding
    whitespace; blank lines and lines starting with '#' are not data lines.
    The line numbers and fields stop before the malformed line.
    """
    raw = Path(path).read_text(encoding="utf-8").splitlines()
    stripped = list(map(str.strip, raw))
    # The stripped lines as one UTF-8 byte array, a newline after each but
    # the last; no line holds a newline, and no multi-byte character holds
    # a newline, tab or '#' byte.
    code = np.frombuffer("\n".join(stripped).encode("utf-8"), dtype=np.uint8)
    ends = np.flatnonzero(code == ord("\n"))
    starts = np.concatenate(([0], ends + 1))
    ends = np.append(ends, code.size)
    keep = ends > starts
    keep[keep] = code[starts[keep]] != ord("#")
    lines = np.flatnonzero(keep)
    tabs = np.bincount(np.searchsorted(ends, np.flatnonzero(code == ord("\t"))),
                       minlength=len(stripped))
    rows = list(compress(stripped, keep.tolist()))
    malformed = None
    wrong = np.flatnonzero(tabs[lines] != width - 1)
    if wrong.size:
        k = wrong[0]
        malformed = RelationParseError(
            f"{path}:{lines[k] + 1}: {expected}, got {raw[lines[k]]!r}")
        rows, lines = rows[:k], lines[:k]
    return lines + 1, "\t".join(rows).split("\t") if rows else [], malformed


def load_pairs(path) -> tuple[np.ndarray, list[str], list[str]]:
    """Read a two-column TSV as columns: the line numbers of its data lines
    (an int64 array) and their left and right identifiers, in file order.

    The file is split whole, not line by line. Lines starting with '#' and
    blank lines are skipped; every other line, stripped of surrounding
    whitespace, must hold exactly two tab-separated identifiers, and the
    first that does not raises RelationParseError naming its line. Loaders
    resolve the columns in discovery order: line by line, the left id
    before the right, so a same-kind file (P, DDI) interleaves its columns.
    """
    lines, fields, malformed = _read_fields(
        path, 2, "expected two tab-separated identifiers")
    if malformed:
        raise malformed
    return lines, fields[0::2], fields[1::2]


def _index_pairs(registry: EntityRegistry, source: EntityKind, target: EntityKind,
                 mode: str, left: list[str], right: list[str]) -> np.ndarray:
    """The (m, 2) int64 indices of two id columns, resolved as if line by
    line, left before right: new ids are discovered, and in strict mode the
    unknown id reported is the first, in that order."""
    if source == target:
        ids = [""] * (2 * len(left))
        ids[0::2], ids[1::2] = left, right
        return registry.indices(source, ids, mode).reshape(-1, 2)
    try:
        return np.stack((registry.indices(source, left, mode),
                         registry.indices(target, right, mode)), axis=1)
    except SchemaError as err:
        error = err
    left_index, right_index = registry.resolver(source, mode), registry.resolver(target, mode)
    for a, b in zip(left, right):  # strict mode: raise the first unknown id of the file
        left_index(a)
        right_index(b)
    raise error


def load_relation(path, name: str, registry: EntityRegistry,
                  mode: str = "discover") -> RelationMatrix:
    """Load relation `name` of `RELATIONS` from a two-column id TSV.

    Duplicate lines collapse to one coordinate. A relation within one kind
    (P) is symmetrized: each loaded edge is stored in both directions. In
    "discover" mode unseen ids extend the registry; in "strict" mode they
    raise SchemaError.
    """
    if mode not in ("discover", "strict"):
        raise ValueError(f"unknown registry mode {mode!r}")
    source, target, _ = RELATIONS[name]
    _, left, right = load_pairs(path)
    pairs = _index_pairs(registry, source, target, mode, left, right)
    if source == target:
        pairs = np.concatenate((pairs, pairs[:, ::-1]))
    return RelationMatrix.from_pairs((registry.count(source), registry.count(target)),
                                     pairs)


def pair_array(pairs) -> np.ndarray:
    """Any iterable of (i, j) index pairs as an (m, 2) int64 array."""
    if not isinstance(pairs, np.ndarray):
        pairs = list(pairs)
    return np.asarray(pairs, dtype=np.int64).reshape(-1, 2)


def unique_rows(pairs: np.ndarray) -> np.ndarray:
    """The unique rows of an (m, 2) int64 array in sorted order, as a new
    array, from one sort of 1-D int64 keys; rows already in that order
    are copied without a sort."""
    if not len(pairs):
        return pairs.copy()
    low = int(pairs.min())
    span = int(pairs.max()) - low + 1
    if span > 2**31:  # the keys would overflow int64
        return np.unique(pairs, axis=0)
    keys = (pairs[:, 0] - low) * span + (pairs[:, 1] - low)
    if np.all(keys[1:] > keys[:-1]):
        return pairs.copy()
    rows = np.stack(np.divmod(sorted_unique(keys), span), axis=1)
    rows += low
    return rows


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """`np.unique` of a 1-D array, from one sort. NumPy 2.4's `np.unique`
    hashes before it sorts: 3.9 ms against 0.27 ms for 27,000 int64 keys."""
    values = np.sort(values)
    first = np.ones(values.size, dtype=bool)
    first[1:] = values[1:] != values[:-1]
    return values[first]


def load_ddi(path, registry: EntityRegistry, mode: str = "discover") -> np.ndarray:
    """Load labeled drug pairs as sorted unique (min, max) rows of an (m, 2)
    int64 array. A line pairing a drug with itself is an error; the ids of
    the lines before it are resolved first, as line by line."""
    lines, left, right = load_pairs(path)
    same = list(map(operator.eq, left, right))  # equal ids, equal indices
    if True in same:
        k = same.index(True)
        _index_pairs(registry, EntityKind.DRUG, EntityKind.DRUG, mode,
                     left[:k + 1], right[:k + 1])
        raise RelationParseError(f"{path}:{lines[k]}: self-interaction {left[k]!r}")
    pairs = _index_pairs(registry, EntityKind.DRUG, EntityKind.DRUG, mode, left, right)
    return unique_rows(np.sort(pairs, axis=1))


def build_hin(registry: EntityRegistry, relations: dict[str, RelationMatrix],
              ddi=()) -> Hin:
    """Assemble a Hin from one matrix per `RELATIONS` name, refitting matrix
    shapes to the final registry counts, and any iterable of DDI pairs,
    sorted and deduplicated (`load_ddi` gives them so, and they are not
    sorted again).

    Refitting is needed because discover-mode loading can keep growing the
    registry after an earlier matrix was built.
    """
    if set(relations) != set(RELATIONS):
        raise SchemaError(f"relation matrices {sorted(relations)}, "
                          f"expected {sorted(RELATIONS)}")
    fitted = {name: relations[name].resized((registry.count(s), registry.count(t)))
              for name, (s, t, _) in RELATIONS.items()}
    return Hin(registry, fitted, unique_rows(pair_array(ddi)))


@dataclass
class ValidationReport:
    errors: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.errors

    def format(self) -> str:
        lines = [f"validation: {'pass' if self.passed else 'FAIL'}"]
        lines += [f"error: {e}" for e in self.errors]
        lines += [f"warning: {w}" for w in self.warnings]
        return "\n".join(lines)


def validate(hin: Hin) -> ValidationReport:
    """Diagnostic scan: orphan entities, P symmetry/diagonal, index bounds.

    Orphans are legal but suspicious: they are reported as one warning per
    entity kind, with the count and at most three example ids. Structural
    defects are errors, one per defect.
    """
    report = ValidationReport()
    reg = hin.registry

    for name, (source, target, _) in RELATIONS.items():
        m = hin.matrix(name)
        want_shape = (reg.count(source), reg.count(target))
        if m.shape != want_shape:
            report.errors.append(
                f"{name}: shape {m.shape} disagrees with registry counts {want_shape}")

    pset = {(int(i), int(j)) for i, j in hin.matrix("P").coords}
    for i, j in sorted(pset):
        if i == j:
            report.errors.append(
                f"P: nonzero diagonal at ({reg.id_of(EntityKind.PROTEIN, i)}, "
                f"{reg.id_of(EntityKind.PROTEIN, j)})")
        elif (j, i) not in pset:
            report.errors.append(
                f"P: asymmetric pair ({reg.id_of(EntityKind.PROTEIN, i)}, "
                f"{reg.id_of(EntityKind.PROTEIN, j)}) present without its reverse")

    inside = ((0 <= hin.ddi) & (hin.ddi < reg.count(EntityKind.DRUG))).all(axis=1)
    for i, j in hin.ddi[~(inside & (hin.ddi[:, 0] < hin.ddi[:, 1]))]:
        report.errors.append(f"DDI: pair ({i}, {j}) out of bounds or not canonical")

    degree = {kind: np.zeros(reg.count(kind), dtype=np.int64) for kind in EntityKind}
    for name, (source, target, _) in RELATIONS.items():
        m = hin.matrix(name)
        if m.nnz:
            np.add.at(degree[source], m.coords[:, 0], 1)
            np.add.at(degree[target], m.coords[:, 1], 1)
    np.add.at(degree[EntityKind.DRUG], hin.ddi[inside].ravel(), 1)
    for kind in EntityKind:
        orphans = np.flatnonzero(degree[kind] == 0)
        if orphans.size:
            examples = ", ".join(repr(reg.id_of(kind, int(idx))) for idx in orphans[:3])
            more = ", ..." if orphans.size > 3 else ""
            report.warnings.append(
                f"orphan {kind.value}: {orphans.size} with no relations, "
                f"e.g. {examples}{more}")
    return report


def stats(hin: Hin) -> dict[str, int]:
    """Node and edge counts; PPI counts undirected protein pairs once."""
    p_coords = hin.matrix("P").coords
    ppi = int(np.sum(p_coords[:, 0] < p_coords[:, 1])) if p_coords.size else 0
    reg = hin.registry
    return {
        "Drug": reg.count(EntityKind.DRUG),
        "Protein": reg.count(EntityKind.PROTEIN),
        "SideEffect": reg.count(EntityKind.SIDE_EFFECT),
        "Substructure": reg.count(EntityKind.SUBSTRUCTURE),
        "DDI": len(hin.ddi),
        "DPI": hin.matrix("T").nnz,
        "DrugSideEffect": hin.matrix("C").nnz,
        "PPI": ppi,
    }


# ---------------------------------------------------------------------------
# directory serialization

def _write_pairs(path: Path, pairs, source: EntityKind, target: EntityKind,
                 registry: EntityRegistry) -> None:
    lines = [f"{registry.id_of(source, int(i))}\t{registry.id_of(target, int(j))}"
             for i, j in pairs]
    path.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


def save_hin(hin: Hin, dirpath) -> None:
    """Write registry, relation files and DDI list under a directory."""
    d = Path(dirpath)
    d.mkdir(parents=True, exist_ok=True)
    reg_lines = []
    for kind in EntityKind:
        for idx, ident in enumerate(hin.registry.ids(kind)):
            reg_lines.append(f"{kind.value}\t{idx}\t{ident}")
    (d / "registry.tsv").write_text("\n".join(reg_lines) + "\n", encoding="utf-8")
    for name, (source, target, fname) in RELATIONS.items():
        coords = hin.matrix(name).coords
        if source == target:  # undirected: store each pair once
            coords = coords[coords[:, 0] <= coords[:, 1]]
        _write_pairs(d / fname, coords, source, target, hin.registry)
    _write_pairs(d / "ddi.tsv", hin.ddi, EntityKind.DRUG, EntityKind.DRUG, hin.registry)


def load_registry(path) -> EntityRegistry:
    """Read a registry.tsv written by save_hin: one kind/index/id line per
    entity, each kind's indices dense in order of first appearance. The
    first bad line in file order raises."""
    lines, fields, malformed = _read_fields(path, 3, "expected kind/index/id")
    names, numbers, idents = fields[0::3], fields[1::3], fields[2::3]
    kinds = list(EntityKind)
    code = {kind.value: k for k, kind in enumerate(kinds)}
    codes = np.fromiter(map(code.get, names, repeat(-1)), dtype=np.int64, count=len(names))
    # Lines are checked up to the first of an unknown kind or of an index
    # that int() rejects, which then raises unless an earlier line does.
    bad = np.flatnonzero(codes < 0)
    end = int(bad[0]) if bad.size else len(names)
    try:
        wanted = np.fromiter(map(int, numbers[:end]), dtype=np.int64, count=end)
    except ValueError:
        end = next(k for k, number in enumerate(numbers) if not _is_int(number))
        wanted = np.fromiter(map(int, numbers[:end]), dtype=np.int64, count=end)
    registry = EntityRegistry()
    got = np.empty(end, dtype=np.int64)
    ids = np.array(idents[:end], dtype=object)
    for k, kind in enumerate(kinds):
        rows = np.flatnonzero(codes[:end] == k)
        got[rows] = registry.indices(kind, ids[rows].tolist())
    sparse = np.flatnonzero(got != wanted)
    if sparse.size:
        k = sparse[0]
        raise SchemaError(f"{path}:{lines[k]}: index {numbers[k]} for {idents[k]!r} "
                          f"is not dense (expected {got[k]})")
    if end < len(names):
        if codes[end] < 0:
            raise RelationParseError(
                f"{path}:{lines[end]}: unknown entity kind {names[end]!r}")
        int(numbers[end])  # raises int()'s ValueError
    if malformed:
        raise malformed
    return registry


def _is_int(text: str) -> bool:
    try:
        int(text)
    except ValueError:
        return False
    return True


def load_hin(dirpath) -> Hin:
    """Load a directory written by save_hin (strict registry mode)."""
    d = Path(dirpath)
    registry = load_registry(d / "registry.tsv")
    relations = {name: load_relation(d / fname, name, registry, mode="strict")
                 for name, (_, _, fname) in RELATIONS.items()}
    return build_hin(registry, relations, load_ddi(d / "ddi.tsv", registry, mode="strict"))
