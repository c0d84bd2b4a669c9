"""Labeled pair assembly and the two split protocols.

Positives are the known interaction pairs; negatives are sampled uniformly
without replacement from unordered drug pairs that collide with no
positive. The edge split partitions positives at random; the cold-start
split hides every interaction of a held-out drug subset so the test set
only contains pairs touching unseen drugs.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

__all__ = [
    "LabeledPair",
    "SplitBundle",
    "SplitError",
    "check_ratios",
    "check_drug_fraction",
    "purpose_rng",
    "sample_negatives",
    "split_edges",
    "split_cold_start",
    "pairs_to_arrays",
]

# One child stream per randomized purpose, so toggling one feature does not
# shift the draws of another.
_PURPOSES = ("split", "negatives", "init", "dropout", "ablation")


class SplitError(ValueError):
    """A split request cannot be satisfied."""


def check_ratios(ratios) -> tuple[float, float, float]:
    """The edge split's train/validation/test ratios, as floats."""
    ratios = tuple(float(r) for r in ratios)
    if len(ratios) != 3 or any(r < 0 for r in ratios) or abs(sum(ratios) - 1.0) > 1e-9:
        raise SplitError(f"ratios must be three nonnegative values summing to 1, got {ratios}")
    return ratios


def check_drug_fraction(drug_fraction: float) -> None:
    """The cold-start split's held-out drug fraction."""
    if not (0 < drug_fraction < 1):
        raise SplitError(f"drug_fraction must be in (0, 1), got {drug_fraction}")


def purpose_rng(seed: int, purpose: str) -> np.random.Generator:
    children = np.random.SeedSequence(seed).spawn(len(_PURPOSES))
    return np.random.default_rng(children[_PURPOSES.index(purpose)])


class LabeledPair(NamedTuple):
    i: int
    j: int
    label: int


def _canonical(pairs) -> set[tuple[int, int]]:
    out = set()
    for i, j in pairs:
        if i == j:
            raise SplitError(f"self-pair ({i}, {j}) is not a valid example")
        out.add((min(int(i), int(j)), max(int(i), int(j))))
    return out


def _pair_ids(pairs: set[tuple[int, int]], n: int) -> np.ndarray:
    if not pairs:
        return np.empty(0, dtype=np.int64)
    arr = np.array(sorted(pairs), dtype=np.int64)
    return arr[:, 0] * n + arr[:, 1]


def _sample_pair_ids(candidates: np.ndarray, count: int,
                     rng: np.random.Generator) -> np.ndarray:
    if count > candidates.size:
        raise SplitError(
            f"cannot sample {count} negatives from {candidates.size} available pairs")
    if count == 0:
        return np.empty(0, dtype=np.int64)
    return candidates[rng.choice(candidates.size, size=count, replace=False)]


def _all_pair_ids(n_drugs: int) -> np.ndarray:
    iu, ju = np.triu_indices(n_drugs, k=1)
    return iu.astype(np.int64) * n_drugs + ju.astype(np.int64)


def _without(candidates: np.ndarray, taken: np.ndarray) -> np.ndarray:
    """The candidate pair ids not in `taken`, in candidate order.

    Candidates are sorted and unique, so this equals `np.setdiff1d` without
    its sort and unique passes over them; `taken` may hold duplicates.
    """
    return candidates[~np.isin(candidates, taken)]


def _ids_to_pairs(ids: np.ndarray, n: int, label: int) -> list[LabeledPair]:
    return [LabeledPair(int(v // n), int(v % n), label) for v in ids]


def sample_negatives(n_drugs: int, positives, count: int,
                     rng: np.random.Generator, exclude=()) -> list[LabeledPair]:
    """Uniform, without replacement, over unordered non-positive pairs."""
    pos_ids = _pair_ids(_canonical(positives), n_drugs)
    excl_ids = _pair_ids(_canonical(exclude), n_drugs)
    candidates = _without(_all_pair_ids(n_drugs), np.concatenate([pos_ids, excl_ids]))
    chosen = _sample_pair_ids(candidates, count, rng)
    return _ids_to_pairs(chosen, n_drugs, 0)


@dataclass
class SplitBundle:
    """Disjoint train/validation/test labeled pairs under one protocol."""

    train: list[LabeledPair]
    validation: list[LabeledPair]
    test: list[LabeledPair]
    protocol: str
    seed: int
    held_out: frozenset[int] | None = None


def _partition_with_negatives(partitions: dict[str, list[tuple[int, int]]],
                              all_positive: set[tuple[int, int]], n_drugs: int,
                              rng: np.random.Generator,
                              candidate_ids_by_part: dict[str, np.ndarray]) -> dict[str, list[LabeledPair]]:
    """Attach 1:1 negatives per partition; each partition's negatives are
    excluded from the later ones."""
    taken = _pair_ids(all_positive, n_drugs)
    out: dict[str, list[LabeledPair]] = {}
    for name, positives in partitions.items():
        candidates = _without(candidate_ids_by_part[name], taken)
        neg_ids = _sample_pair_ids(candidates, len(positives), rng)
        taken = np.concatenate([taken, neg_ids])
        out[name] = ([LabeledPair(i, j, 1) for i, j in positives]
                     + _ids_to_pairs(neg_ids, n_drugs, 0))
    return out


def split_edges(ddis, n_drugs: int, ratios=(0.8, 0.1, 0.1),
                seed: int = 0) -> SplitBundle:
    """Random-edge protocol: shuffle positives, partition by the ratios,
    then sample 1:1 negatives per partition."""
    ratios = check_ratios(ratios)
    positives = sorted(_canonical(ddis))
    split_rng = purpose_rng(seed, "split")
    neg_rng = purpose_rng(seed, "negatives")
    order = split_rng.permutation(len(positives))
    shuffled = [positives[k] for k in order]
    n = len(shuffled)
    c1 = math.floor(n * ratios[0])
    c2 = math.floor(n * (ratios[0] + ratios[1]))
    parts = {"train": shuffled[:c1], "validation": shuffled[c1:c2],
             "test": shuffled[c2:]}
    for name, part in parts.items():
        if not part:
            warnings.warn(f"split_edges: empty {name} partition", stacklevel=2)
    everywhere = _all_pair_ids(n_drugs)
    labeled = _partition_with_negatives(parts, set(positives), n_drugs, neg_rng,
                                        {k: everywhere for k in parts})
    return SplitBundle(labeled["train"], labeled["validation"], labeled["test"],
                       protocol="edges", seed=seed)


def split_cold_start(ddis, n_drugs: int, drug_fraction: float = 0.2,
                     seed: int = 0) -> SplitBundle:
    """Cold-start protocol: hide every interaction of a held-out drug set.

    ceil(fraction * n_drugs) drugs are chosen uniformly; every positive
    touching one goes to test, the rest split train/validation 90/10.
    Negatives follow the same touching rule per partition.
    """
    check_drug_fraction(drug_fraction)
    positives = sorted(_canonical(ddis))
    split_rng = purpose_rng(seed, "split")
    neg_rng = purpose_rng(seed, "negatives")
    k = math.ceil(drug_fraction * n_drugs)
    held = frozenset(int(d) for d in split_rng.choice(n_drugs, size=k, replace=False))

    test_pos = [p for p in positives if p[0] in held or p[1] in held]
    rest = [p for p in positives if p[0] not in held and p[1] not in held]
    if positives and not rest:
        raise SplitError("cold-start split hides every positive; lower the fraction")
    if not test_pos:
        warnings.warn("split_cold_start: no positive touches a held-out drug",
                      stacklevel=2)
    order = split_rng.permutation(len(rest))
    shuffled = [rest[k] for k in order]
    c1 = math.floor(len(shuffled) * 0.9)
    parts = {"train": shuffled[:c1], "validation": shuffled[c1:], "test": test_pos}

    all_ids = _all_pair_ids(n_drugs)
    rows, cols = all_ids // n_drugs, all_ids % n_drugs
    touches = np.isin(rows, list(held)) | np.isin(cols, list(held))
    candidates = {"train": all_ids[~touches], "validation": all_ids[~touches],
                  "test": all_ids[touches]}
    labeled = _partition_with_negatives(parts, set(positives), n_drugs, neg_rng,
                                        candidates)
    return SplitBundle(labeled["train"], labeled["validation"], labeled["test"],
                       protocol="coldstart", seed=seed, held_out=held)


def pairs_to_arrays(pairs: list[LabeledPair]) -> tuple[np.ndarray, np.ndarray]:
    """(m, 2) index array plus (m,) label array."""
    if not pairs:
        return np.empty((0, 2), dtype=np.int64), np.empty(0, dtype=np.int64)
    arr = np.array(pairs, dtype=np.int64)
    return arr[:, :2], arr[:, 2]
