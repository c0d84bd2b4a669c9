"""Initial drug features from SMILES substructures.

A frequency-threshold pair-merging vocabulary is built over tokenized
SMILES strings: the most frequent adjacent token pair is repeatedly merged
into a new unit until no pair reaches the threshold or the vocabulary hits
its size cap. The corpus is held as one integer array of unit ids, and
every merge recounts it in a few array passes (see `build_vocab`). Drugs
are then encoded as bags of final units. Precomputed 167-bit structural
fingerprints can be ingested instead, both as the drug-substructure
relation matrix and (optionally) as initial features.

A merge (left, right) applied to one drug replaces its occurrences of the
pair taken left to right without overlap. Encoding replays the merges once
over the whole corpus rather than once per drug. Each distinct unit (token,
merge part or merge product) becomes one character of its own, chr(1)
upwards, each drug the string of its units' characters, and the corpus
those strings joined by chr(0). A merge is then one `str.replace` of a
two-character string by the product's character. That equals the merge on
every drug: a match covers exactly two adjacent units equal to left and
right, since every character is a whole unit; `str.replace` takes matches
left to right without overlap; and no match spans two drugs, since chr(0)
is no unit's character. Units equal as strings share a character, as they
are one unit to the merge. Because the characters are assigned, not taken
from the SMILES text, any text is safe, control characters and the
separator's own code point included.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .hin import EntityKind, EntityRegistry, RelationMatrix, RelationParseError, load_pairs

__all__ = [
    "SmilesError",
    "Vocabulary",
    "FeatureMatrix",
    "tokenize_smiles",
    "build_vocab",
    "build_feature_matrix",
    "smiles_in_registry_order",
    "save_vocab",
    "load_smiles",
    "load_fingerprints",
    "save_features",
    "load_features",
    "FINGERPRINT_BITS",
]

FINGERPRINT_BITS = 167

# A bracket atom, a two-letter element written without brackets, or any
# one character; a "[" with no "]" after it is a token of its own.
_TOKEN = re.compile(r"\[[^\]]*\]|Cl|Br|.", re.S)


class SmilesError(ValueError):
    """A SMILES string could not be tokenized."""


def tokenize_smiles(s: str) -> list[str]:
    """Greedy left-to-right split of a SMILES string.

    Bracket atoms `[...]` and the two-letter elements Cl/Br are single
    tokens; every other character is its own token. Joining the tokens
    reproduces the input exactly. An empty string, or a `[` with no `]`
    after it, is a SmilesError. Any other character is accepted, inside a
    bracket atom or not: encoding gives each unit a character of its own
    (see the module docstring), so no text collides with the replay, and
    every row equals a replay of the merges drug by drug.
    """
    if not s:
        raise SmilesError("empty SMILES string")
    tokens = _TOKEN.findall(s)
    if "[" in tokens:
        i = len("".join(tokens[:tokens.index("[")]))
        raise SmilesError(f"unbalanced '[' at position {i} in {s!r}")
    return tokens


@dataclass(frozen=True)
class Vocabulary:
    """Ordered substructure units plus the merge rules that formed them.

    `units` lists the `n_base` base units (sorted) followed by merge
    products in merge order; `merges` lists every (left, right) merge
    performed. Construction is deterministic for a given corpus and
    parameters.
    """

    units: tuple[str, ...]
    n_base: int
    merges: tuple[tuple[str, str], ...]
    threshold: int
    max_size: int

    def index(self) -> dict[str, int]:
        return {u: k for k, u in enumerate(self.units)}

    @property
    def size(self) -> int:
        return len(self.units)


def build_vocab(corpus: list[list[str]], threshold: int = 5,
                max_size: int = 512) -> Vocabulary:
    """Build the merge vocabulary over a tokenized corpus.

    Repeatedly merges the most frequent adjacent pair whose count reaches
    `threshold`; stops when none does or when the vocabulary reaches
    `max_size` entries. Frequency ties break on the lexicographically
    smallest concatenation (then smallest pair) so construction is
    deterministic. A pair's count is its non-overlapping occurrences, taken
    left to right within each sequence, so each count is what merging that
    pair removes; a merge replaces those same occurrences.

    The corpus is one int64 array of unit ids with -1 between sequences;
    id k is `units[k]`, so units equal as strings share an id. Each merge
    recounts the whole array with `bincount`. Over the n current units, the
    pair at position p has key `(a[p] + 1) * (n + 1) + a[p + 1] + 1`, so a
    pair beside a separator falls in row or column 0 of the (n + 1, n + 1)
    count grid, which is cleared. Only a pair (x, x) can overlap itself,
    and only in a run of equal units; its left-to-right non-overlapping
    occurrences are the even offsets of the run's pair positions, so the
    odd offsets get key 0. Only the few keys tied at the top count go back
    to strings for the tie-break. The merge writes the product's id at the
    positions that keep the chosen key and drops the unit after each.
    """
    if threshold < 1:
        raise ValueError(f"threshold must be >= 1, got {threshold}")
    if not corpus:
        raise ValueError("empty corpus")
    units = sorted(set(chain.from_iterable(corpus)))
    n_base = len(units)
    index = {unit: k for k, unit in enumerate(units)}
    lengths = np.fromiter(map(len, corpus), dtype=np.int64, count=len(corpus))
    ids = np.fromiter(map(index.__getitem__, chain.from_iterable(corpus)),
                      dtype=np.int64, count=int(lengths.sum()))
    a = np.insert(ids, np.cumsum(lengths[:-1]), -1)
    merges: list[tuple[str, str]] = []
    while len(units) < max_size:
        radix = len(units) + 1
        keys = a[:-1] * radix
        keys += a[1:]
        keys += radix + 1
        same = np.flatnonzero(a[:-1] == a[1:])
        run = same - np.arange(same.size)  # one value per run of consecutive positions
        start = same[np.searchsorted(run, run)]
        keys[same[(same - start) % 2 == 1]] = 0
        counts = np.bincount(keys, minlength=radix * radix)
        counts[:radix] = 0
        counts[::radix] = 0
        best = counts.max()
        if best < threshold:
            break
        tied = [(units[k // radix - 1], units[k % radix - 1], k)
                for k in np.flatnonzero(counts == best)]
        left, right, key = min(tied, key=lambda t: (t[0] + t[1], t[:2]))
        merges.append((left, right))
        unit = left + right
        if unit not in index:
            index[unit] = len(units)
            units.append(unit)
        at = np.flatnonzero(keys == key)
        a[at] = index[unit]
        keep = np.ones(a.size, dtype=bool)
        keep[at + 1] = False
        a = a[keep]
    return Vocabulary(tuple(units), n_base, tuple(merges), threshold, max_size)


def _encode_corpus(corpus: list[list[str]], vocab: Vocabulary) -> np.ndarray:
    """(len(corpus), vocab.size) uint8 presence rows, one per token
    sequence.

    Each sequence replays the merges in merge order, then sets the bit of
    every final unit. A residual unit not in the vocabulary falls back to
    the base-unit bits of its characters; characters never seen in the
    corpus contribute nothing. A merge whose left unit is absent cannot
    apply. The merges are replayed once over the whole corpus, as one
    string in which each distinct unit is one character of its own."""
    products = [left + right for left, right in vocab.merges]
    units = dict.fromkeys(chain(chain.from_iterable(corpus),
                                chain.from_iterable(vocab.merges), products))
    char = {unit: chr(k) for k, unit in enumerate(units, start=1)}  # chr(0) separates drugs
    text = "\0".join("".join(map(char.__getitem__, tokens)) for tokens in corpus)
    for (left, right), product in zip(vocab.merges, products):
        text = text.replace(char[left] + char[right], char[product])

    index = vocab.index()
    bits = [[index[unit]] if unit in index else [index[c] for c in unit if c in index]
            for unit in units]
    indptr = np.cumsum([0, 0] + [len(b) for b in bits])
    unit_bits = sp.csr_array((np.ones(indptr[-1], dtype=np.int64),
                              np.fromiter(chain.from_iterable(bits), dtype=np.int64,
                                          count=indptr[-1]),
                              indptr), shape=(len(units) + 1, vocab.size))
    codes = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
    drug = np.cumsum(codes == 0)
    held = codes != 0
    drug_units = sp.csr_array((np.ones(int(held.sum()), dtype=np.int64),
                               (drug[held], codes[held])),
                              shape=(len(corpus), len(units) + 1))
    return ((drug_units @ unit_bits).toarray() > 0).astype(np.uint8)


@dataclass(frozen=True)
class FeatureMatrix:
    """Per-drug initial feature rows, aligned with the drug registry order."""

    drug_ids: tuple[str, ...]
    values: np.ndarray  # (n_drugs, d0) uint8 presence
    mode: str  # "espf" or "fingerprint"

    @property
    def d0(self) -> int:
        return self.values.shape[1]


def _repeated_drug(path, lines: np.ndarray, drugs: list[str]):
    """The position of the first line whose drug an earlier line gave, and
    its RelationParseError, unraised; (len(drugs), None) when no drug
    repeats."""
    if len(dict.fromkeys(drugs)) == len(drugs):
        return len(drugs), None
    first: dict[str, int] = {}
    for k, drug in enumerate(drugs):
        if drug in first:
            return k, RelationParseError(
                f"{path}:{lines[k]}: drug {drug!r} repeats line {lines[first[drug]]}")
        first[drug] = k


def _bit_block(bits: list[str], width: int) -> tuple[np.ndarray | None, int]:
    """The 0/1 strings `bits` as one (n, width) uint8 block, and the position
    of the first string that is not `width` characters 0 or 1: n when all
    are, and the block None when one is not."""
    lengths = np.fromiter(map(len, bits), dtype=np.int64, count=len(bits))
    values = np.frombuffer("".join(bits).encode("latin-1", "replace"),
                           dtype=np.uint8) - np.uint8(ord("0"))
    bad = lengths != width
    other = np.flatnonzero(values > 1)
    if other.size:
        bad[np.searchsorted(np.cumsum(lengths), other[0], side="right")] = True
    if bad.any():
        return None, int(np.argmax(bad))
    return values.reshape(len(bits), width), len(bits)


def load_smiles(path) -> dict[str, str]:
    """Read a drug_id -> SMILES TSV; a drug given twice is an error."""
    lines, drugs, smiles = load_pairs(path)
    _, repeated = _repeated_drug(path, lines, drugs)
    if repeated:
        raise repeated
    return dict(zip(drugs, smiles))


def smiles_in_registry_order(smiles_by_drug: dict[str, str],
                             registry: EntityRegistry) -> list[str]:
    """The SMILES of every registered drug, by drug index; a missing one is
    an error."""
    drug_ids = registry.ids(EntityKind.DRUG)
    missing = [d for d in drug_ids if d not in smiles_by_drug]
    if missing:
        raise SmilesError(f"no SMILES for drugs: {missing[:5]}"
                          + (" ..." if len(missing) > 5 else ""))
    return [smiles_by_drug[d] for d in drug_ids]


def build_feature_matrix(smiles_by_drug: dict[str, str], vocab: Vocabulary,
                         registry: EntityRegistry) -> FeatureMatrix:
    """Encode every registered drug; missing SMILES is an error."""
    corpus = [tokenize_smiles(s) for s in smiles_in_registry_order(smiles_by_drug, registry)]
    return FeatureMatrix(tuple(registry.ids(EntityKind.DRUG)),
                         _encode_corpus(corpus, vocab), "espf")


def save_vocab(vocab: Vocabulary, path) -> None:
    """A header line with the threshold and size cap, then one unit per
    line: base units first, then merge products in merge order, each with
    its (left, right) parts as extra columns. The file records the
    vocabulary that `featurize` used; nothing reads it back."""
    lines = [f"#threshold={vocab.threshold}\tmax_size={vocab.max_size}"]
    lines += list(vocab.units[:vocab.n_base])
    lines += [f"{left + right}\t{left}\t{right}" for left, right in vocab.merges]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _fingerprint_bit_id(bit: int) -> str:
    return f"fp_{bit:03d}"


def load_fingerprints(path, registry: EntityRegistry,
                      mode: str = "discover") -> tuple[RelationMatrix, FeatureMatrix]:
    """Ingest drug_id -> 167-bit fingerprint strings.

    Creates one substructure entity per bit position and the drug-
    substructure relation matrix from the set bits; the same bits double as
    an optional initial feature matrix. The bitstrings are read as one
    block. A drug given twice is an error, as is a bitstring of another
    length or with a character other than 0/1; the drugs of the lines before
    the first bad line are resolved first, as line by line.
    """
    bit_index = np.array([registry.add(EntityKind.SUBSTRUCTURE, _fingerprint_bit_id(bit))
                          for bit in range(FINGERPRINT_BITS)], dtype=np.int64)
    lines, drugs, bits = load_pairs(path)
    block, bad = _bit_block(bits, FINGERPRINT_BITS)
    again, repeated = _repeated_drug(path, lines, drugs)
    rows = registry.indices(EntityKind.DRUG, drugs[:min(bad, again)], mode)
    if bad <= again and bad < len(drugs):
        raise RelationParseError(
            f"{path}:{lines[bad]}: drug {drugs[bad]!r} needs a {FINGERPRINT_BITS}-character "
            f"0/1 bitstring, got {len(bits[bad])} characters")
    if repeated:
        raise repeated
    drug, bit = np.nonzero(block)
    shape = (registry.count(EntityKind.DRUG), registry.count(EntityKind.SUBSTRUCTURE))
    h = RelationMatrix.from_pairs(shape, np.stack((rows[drug], bit_index[bit]), axis=1))

    values = np.zeros((shape[0], FINGERPRINT_BITS), dtype=np.uint8)
    values[rows] = block
    return h, FeatureMatrix(tuple(registry.ids(EntityKind.DRUG)), values, "fingerprint")


def save_features(features: FeatureMatrix, path) -> None:
    lines = [f"#mode={features.mode}\td0={features.d0}"]
    for drug, row in zip(features.drug_ids, features.values):
        lines.append(drug + "\t" + "".join("1" if v else "0" for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_features(path, registry: EntityRegistry) -> FeatureMatrix:
    """Reload a feature matrix written by save_features, re-aligned to the
    registry's drug order. The rows are read as one block of the declared
    width d0, or of the first row's width when none is declared; a drug
    given twice is an error."""
    mode = "espf"
    d0 = None
    with open(path, encoding="utf-8") as handle:
        header = handle.readline()
    if header.startswith("#"):
        for part in header[1:].rstrip("\n").split("\t"):
            key, _, value = part.partition("=")
            if key == "mode":
                mode = value
            elif key == "d0":
                d0 = int(value)
    lines, drugs, bits = load_pairs(path)
    width = d0 if d0 is not None else len(bits[0]) if bits else 0
    block, bad = _bit_block(bits, width)
    again, repeated = _repeated_drug(path, lines, drugs)
    if bad <= again and bad < len(drugs):
        if len(bits[bad]) != width:
            declared = "declared d0" if d0 is not None else "first row width"
            raise RelationParseError(
                f"{path}:{lines[bad]}: row width {len(bits[bad])} != {declared} {width}")
        raise RelationParseError(
            f"{path}:{lines[bad]}: drug {drugs[bad]!r} has a feature other than 0/1")
    if repeated:
        raise repeated
    row_of = dict(zip(drugs, range(len(drugs))))
    drug_ids = registry.ids(EntityKind.DRUG)
    missing = [d for d in drug_ids if d not in row_of]
    if missing:
        raise RelationParseError(f"{path}: no feature rows for drugs {missing[:5]}")
    rows = np.fromiter(map(row_of.__getitem__, drug_ids), dtype=np.int64, count=len(drug_ids))
    return FeatureMatrix(tuple(drug_ids), block[rows], mode)
