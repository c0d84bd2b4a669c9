"""Initial drug features from SMILES substructures.

A frequency-threshold pair-merging vocabulary is built over tokenized
SMILES strings: the most frequent adjacent token pair is repeatedly merged
into a new unit until no pair reaches the threshold or the vocabulary hits
its size cap. Pair counts are kept per sequence and updated after each
merge only for the sequences that held the merged pair, as in incremental
BPE. Drugs are then encoded as bags of final units. Precomputed
167-bit structural fingerprints can be ingested instead, both as the
drug-substructure relation matrix and (optionally) as initial features.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .hin import EntityKind, EntityRegistry, RelationMatrix, RelationParseError, load_pairs

__all__ = [
    "SmilesError",
    "Vocabulary",
    "FeatureMatrix",
    "tokenize_smiles",
    "build_vocab",
    "encode_drug",
    "build_feature_matrix",
    "smiles_in_registry_order",
    "save_vocab",
    "load_vocab",
    "load_smiles",
    "load_fingerprints",
    "save_features",
    "load_features",
    "FINGERPRINT_BITS",
]

FINGERPRINT_BITS = 167

# Two-letter elements written without brackets in SMILES.
_TWO_LETTER = ("Cl", "Br")


class SmilesError(ValueError):
    """A SMILES string could not be tokenized."""


def tokenize_smiles(s: str) -> list[str]:
    """Greedy left-to-right split of a SMILES string.

    Bracket atoms `[...]` and the two-letter elements Cl/Br are single
    tokens; every other character is its own token. Joining the tokens
    reproduces the input exactly.
    """
    if not s:
        raise SmilesError("empty SMILES string")
    tokens = []
    i = 0
    n = len(s)
    while i < n:
        ch = s[i]
        if ch == "[":
            end = s.find("]", i)
            if end < 0:
                raise SmilesError(f"unbalanced '[' at position {i} in {s!r}")
            tokens.append(s[i:end + 1])
            i = end + 1
        elif s[i:i + 2] in _TWO_LETTER:
            tokens.append(s[i:i + 2])
            i += 2
        else:
            tokens.append(ch)
            i += 1
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


def _pair_counts(seq: list[str]) -> dict[tuple[str, str], int]:
    """Adjacent-pair frequencies in one sequence, non-overlapping left to
    right, so each count is what merging that pair would remove."""
    counts: dict[tuple[str, str], int] = {}
    last_end: dict[tuple[str, str], int] = {}
    for i in range(len(seq) - 1):
        pair = (seq[i], seq[i + 1])
        if last_end.get(pair, -1) >= i:
            continue
        last_end[pair] = i + 1
        counts[pair] = counts.get(pair, 0) + 1
    return counts


def _merge_sequence(seq: list[str], pair: tuple[str, str]) -> list[str]:
    """Replace non-overlapping left-to-right occurrences of `pair`."""
    left, right = pair
    merged = left + right
    out = []
    i = 0
    while i < len(seq):
        if i + 1 < len(seq) and seq[i] == left and seq[i + 1] == right:
            out.append(merged)
            i += 2
        else:
            out.append(seq[i])
            i += 1
    return out


def build_vocab(corpus: list[list[str]], threshold: int = 5,
                max_size: int = 512) -> Vocabulary:
    """Build the merge vocabulary over a tokenized corpus.

    Repeatedly merges the most frequent adjacent pair whose count reaches
    `threshold`; stops when none does or when the vocabulary reaches
    `max_size` entries. Frequency ties break on the lexicographically
    smallest concatenation (then smallest pair) so construction is
    deterministic.

    Counts are kept incrementally: each sequence's non-overlapping pair
    counts, their corpus totals, and for every pair the sequences holding
    it. A merge rewrites and recounts only the sequences that held the
    merged pair, so the result equals recounting the whole corpus after
    every merge.
    """
    if threshold < 1:
        raise ValueError(f"threshold must be >= 1, got {threshold}")
    if not corpus:
        raise ValueError("empty corpus")
    sequences = [list(seq) for seq in corpus]
    seq_counts = [_pair_counts(seq) for seq in sequences]
    totals: dict[tuple[str, str], int] = {}
    holders: dict[tuple[str, str], set[int]] = {}
    for s, counts in enumerate(seq_counts):
        for pair, c in counts.items():
            totals[pair] = totals.get(pair, 0) + c
            holders.setdefault(pair, set()).add(s)
    units = sorted({tok for seq in sequences for tok in seq})
    n_base = len(units)
    known = set(units)
    merges: list[tuple[str, str]] = []
    while len(units) < max_size and totals:
        best = max(totals.values())
        if best < threshold:
            break
        pair = min((p for p, c in totals.items() if c == best),
                   key=lambda p: (p[0] + p[1], p))
        for s in holders.pop(pair):
            old = seq_counts[s]
            sequences[s] = _merge_sequence(sequences[s], pair)
            new = seq_counts[s] = _pair_counts(sequences[s])
            for p, c in old.items():
                total = totals[p] - c
                if total:
                    totals[p] = total
                else:
                    del totals[p]
                if p not in new and p != pair:  # pair's holders were popped
                    holders[p].discard(s)
            for p, c in new.items():
                totals[p] = totals.get(p, 0) + c
                if p not in old:
                    holders.setdefault(p, set()).add(s)
        merges.append(pair)
        unit = pair[0] + pair[1]
        if unit not in known:
            units.append(unit)
            known.add(unit)
    return Vocabulary(tuple(units), n_base, tuple(merges), threshold, max_size)


def _encode(tokens: list[str], vocab: Vocabulary, index: dict[str, int]) -> np.ndarray:
    seq = list(tokens)
    for left, right in vocab.merges:
        if left in seq:
            seq = _merge_sequence(seq, (left, right))
    row = np.zeros(vocab.size, dtype=np.uint8)
    for unit in seq:
        k = index.get(unit)
        if k is not None:
            row[k] = 1
            continue
        for ch in unit:
            k = index.get(ch)
            if k is not None:
                row[k] = 1
    return row


def encode_drug(tokens: list[str], vocab: Vocabulary) -> np.ndarray:
    """Presence row over the vocabulary for one drug.

    Replays the merges in merge order, then sets the bit of every final
    unit. A residual unit not in the vocabulary falls back to the base-unit
    bits of its characters; characters never seen in the corpus contribute
    nothing. A merge whose left unit is absent cannot apply and is skipped.
    """
    return _encode(tokens, vocab, vocab.index())


@dataclass(frozen=True)
class FeatureMatrix:
    """Per-drug initial feature rows, aligned with the drug registry order."""

    drug_ids: tuple[str, ...]
    values: np.ndarray  # (n_drugs, d0) uint8 presence
    mode: str  # "espf" or "fingerprint"

    @property
    def d0(self) -> int:
        return self.values.shape[1]


def load_smiles(path) -> dict[str, str]:
    """Read a drug_id -> SMILES TSV."""
    return {drug: smiles for _, drug, smiles in load_pairs(path)}


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
    index = vocab.index()
    rows = [_encode(tokenize_smiles(s), vocab, index)
            for s in smiles_in_registry_order(smiles_by_drug, registry)]
    values = np.stack(rows) if rows else np.zeros((0, vocab.size), dtype=np.uint8)
    return FeatureMatrix(tuple(registry.ids(EntityKind.DRUG)), values, "espf")


def save_vocab(vocab: Vocabulary, path) -> None:
    """One unit per line: base units first, then merge products in merge
    order carrying their (left, right) parts as extra columns so the file
    reloads to an identical vocabulary."""
    lines = [f"#threshold={vocab.threshold}\tmax_size={vocab.max_size}"]
    lines += list(vocab.units[:vocab.n_base])
    lines += [f"{left + right}\t{left}\t{right}" for left, right in vocab.merges]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_vocab(path) -> Vocabulary:
    threshold, max_size = 1, 0
    units: list[str] = []
    merges: list[tuple[str, str]] = []
    seen: set[str] = set()
    n_base = None
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if raw.startswith("#"):
            for part in raw[1:].split("\t"):
                key, _, value = part.partition("=")
                if key == "threshold":
                    threshold = int(value)
                elif key == "max_size":
                    max_size = int(value)
            continue
        if not raw:
            continue
        parts = raw.split("\t")
        if len(parts) == 1:
            if merges:
                raise RelationParseError(
                    f"{path}:{lineno}: base unit {raw!r} after merge lines")
            unit = parts[0]
        elif len(parts) == 3:
            unit, left, right = parts
            if unit != left + right:
                raise RelationParseError(
                    f"{path}:{lineno}: merge {left!r}+{right!r} does not form {unit!r}")
            if n_base is None:
                n_base = len(units)
            merges.append((left, right))
        else:
            raise RelationParseError(f"{path}:{lineno}: malformed vocabulary line {raw!r}")
        if unit not in seen:
            units.append(unit)
            seen.add(unit)
    if n_base is None:
        n_base = len(units)
    if max_size == 0:
        max_size = len(units)
    return Vocabulary(tuple(units), n_base, tuple(merges), threshold, max_size)


def _fingerprint_bit_id(bit: int) -> str:
    return f"fp_{bit:03d}"


def load_fingerprints(path, registry: EntityRegistry,
                      mode: str = "discover") -> tuple[RelationMatrix, FeatureMatrix]:
    """Ingest drug_id -> 167-bit fingerprint strings.

    Creates one substructure entity per bit position and the drug-
    substructure relation matrix from the set bits; the same bits double as
    an optional initial feature matrix.
    """
    bit_index = [registry.add(EntityKind.SUBSTRUCTURE, _fingerprint_bit_id(bit))
                 for bit in range(FINGERPRINT_BITS)]
    rows: dict[str, np.ndarray] = {}
    pairs = []
    for lineno, drug, bits in load_pairs(path):
        if len(bits) != FINGERPRINT_BITS or set(bits) - {"0", "1"}:
            raise RelationParseError(
                f"{path}:{lineno}: drug {drug!r} needs a {FINGERPRINT_BITS}-character "
                f"0/1 bitstring, got {len(bits)} characters")
        if mode == "discover":
            d = registry.add(EntityKind.DRUG, drug)
        else:
            d = registry.index_of(EntityKind.DRUG, drug)
        row = np.frombuffer(bits.encode("ascii"), dtype=np.uint8) - ord("0")
        rows[drug] = row
        pairs.extend((d, bit_index[bit]) for bit in np.flatnonzero(row))
    shape = (registry.count(EntityKind.DRUG), registry.count(EntityKind.SUBSTRUCTURE))
    h = RelationMatrix.from_pairs(shape, pairs)

    drug_ids = registry.ids(EntityKind.DRUG)
    values = np.zeros((len(drug_ids), FINGERPRINT_BITS), dtype=np.uint8)
    for k, drug in enumerate(drug_ids):
        if drug in rows:
            values[k] = rows[drug]
    return h, FeatureMatrix(tuple(drug_ids), values, "fingerprint")


def save_features(features: FeatureMatrix, path) -> None:
    lines = [f"#mode={features.mode}\td0={features.d0}"]
    for drug, row in zip(features.drug_ids, features.values):
        lines.append(drug + "\t" + "".join("1" if v else "0" for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_features(path, registry: EntityRegistry) -> FeatureMatrix:
    """Reload a feature matrix written by save_features, re-aligned to the
    registry's drug order."""
    mode = "espf"
    rows: dict[str, np.ndarray] = {}
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
    for lineno, drug, bits in load_pairs(path):
        if d0 is not None and len(bits) != d0:
            raise RelationParseError(
                f"{path}:{lineno}: row width {len(bits)} != declared d0 {d0}")
        if set(bits) - {"0", "1"}:
            raise RelationParseError(
                f"{path}:{lineno}: drug {drug!r} has a feature other than 0/1")
        rows[drug] = np.frombuffer(bits.encode("ascii"), dtype=np.uint8) - ord("0")
    drug_ids = registry.ids(EntityKind.DRUG)
    missing = [d for d in drug_ids if d not in rows]
    if missing:
        raise RelationParseError(f"{path}: no feature rows for drugs {missing[:5]}")
    values = np.stack([rows[d] for d in drug_ids])
    return FeatureMatrix(tuple(drug_ids), values, mode)
