"""Labeled pair assembly and the two split protocols.

Every pair set is a numpy int64 array. The splits take any iterable of
(i, j) drug pairs, work on pair ids `i * n_drugs + j` of the canonical
(i < j) pairs, and return each partition as an (m, 3) array of rows
`[i, j, label]`: its positives in shuffled order, then its negatives.
Positives are the known interaction pairs; negatives are sampled
uniformly without replacement from unordered drug pairs that collide
with no positive. The edge split partitions positives at random; the
cold-start split hides every interaction of a held-out drug subset so the
test set only contains pairs touching unseen drugs.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .hin import pair_array, sorted_unique

__all__ = [
    "SplitBundle",
    "SplitError",
    "check_ratios",
    "check_drug_fraction",
    "purpose_rng",
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
    # not r >= 0 also rejects NaN, which every comparison fails
    if len(ratios) != 3 or not all(r >= 0 for r in ratios) or abs(sum(ratios) - 1.0) > 1e-9:
        raise SplitError(f"ratios must be three nonnegative values summing to 1, got {ratios}")
    return ratios


def check_drug_fraction(drug_fraction: float) -> None:
    """The cold-start split's held-out drug fraction."""
    if not (0 < drug_fraction < 1):
        raise SplitError(f"drug_fraction must be in (0, 1), got {drug_fraction}")


def purpose_rng(seed: int, purpose: str) -> np.random.Generator:
    children = np.random.SeedSequence(seed).spawn(len(_PURPOSES))
    return np.random.default_rng(children[_PURPOSES.index(purpose)])


def _positive_ids(ddis, n_drugs: int) -> np.ndarray:
    """Sorted unique ids of the canonical positives; a self-pair is an error."""
    left, right = pair_array(ddis).T
    self_pairs = np.flatnonzero(left == right)
    if self_pairs.size:
        i = left[self_pairs[0]]
        raise SplitError(f"self-pair ({i}, {i}) is not a valid example")
    return sorted_unique(np.minimum(left, right) * n_drugs + np.maximum(left, right))


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


@dataclass
class SplitBundle:
    """Disjoint train/validation/test partitions under one protocol, each an
    (m, 3) int64 array of rows `[i, j, label]` (i < j, label 1 or 0):
    positives first, then as many negatives."""

    train: np.ndarray
    validation: np.ndarray
    test: np.ndarray
    protocol: str
    seed: int
    held_out: frozenset[int] | None = None


def _partition_with_negatives(partitions: dict[str, np.ndarray],
                              positives: np.ndarray, n_drugs: int,
                              rng: np.random.Generator,
                              candidate_ids_by_part: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Attach 1:1 negatives to each partition's positive ids; each
    partition's negatives are excluded from the later ones."""
    taken = positives
    out = {}
    for name, pos_ids in partitions.items():
        candidates = _without(candidate_ids_by_part[name], taken)
        neg_ids = _sample_pair_ids(candidates, pos_ids.size, rng)
        taken = np.concatenate([taken, neg_ids])
        ids = np.concatenate([pos_ids, neg_ids])
        labels = np.repeat(np.array([1, 0], dtype=np.int64), [pos_ids.size, neg_ids.size])
        out[name] = np.column_stack([ids // n_drugs, ids % n_drugs, labels])
    return out


def split_edges(ddis, n_drugs: int, ratios=(0.8, 0.1, 0.1),
                seed: int = 0) -> SplitBundle:
    """Random-edge protocol: shuffle positives, partition by the ratios,
    then sample 1:1 negatives per partition."""
    ratios = check_ratios(ratios)
    positives = _positive_ids(ddis, n_drugs)
    split_rng = purpose_rng(seed, "split")
    neg_rng = purpose_rng(seed, "negatives")
    shuffled = positives[split_rng.permutation(positives.size)]
    n = shuffled.size
    c1 = math.floor(n * ratios[0])
    c2 = math.floor(n * (ratios[0] + ratios[1]))
    parts = {"train": shuffled[:c1], "validation": shuffled[c1:c2],
             "test": shuffled[c2:]}
    for name, part in parts.items():
        if not part.size:
            warnings.warn(f"split_edges: empty {name} partition", stacklevel=2)
    everywhere = _all_pair_ids(n_drugs)
    labeled = _partition_with_negatives(parts, positives, n_drugs, neg_rng,
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
    positives = _positive_ids(ddis, n_drugs)
    split_rng = purpose_rng(seed, "split")
    neg_rng = purpose_rng(seed, "negatives")
    k = math.ceil(drug_fraction * n_drugs)
    chosen = split_rng.choice(n_drugs, size=k, replace=False)
    is_held = np.zeros(n_drugs, dtype=bool)
    is_held[chosen] = True

    def touches(ids):
        return is_held[ids // n_drugs] | is_held[ids % n_drugs]

    touching = touches(positives)
    test_pos, rest = positives[touching], positives[~touching]
    if positives.size and not rest.size:
        raise SplitError("cold-start split hides every positive; lower the fraction")
    if not test_pos.size:
        warnings.warn("split_cold_start: no positive touches a held-out drug",
                      stacklevel=2)
    shuffled = rest[split_rng.permutation(rest.size)]
    c1 = math.floor(shuffled.size * 0.9)
    parts = {"train": shuffled[:c1], "validation": shuffled[c1:], "test": test_pos}

    all_ids = _all_pair_ids(n_drugs)
    near = touches(all_ids)
    candidates = {"train": all_ids[~near], "validation": all_ids[~near],
                  "test": all_ids[near]}
    labeled = _partition_with_negatives(parts, positives, n_drugs, neg_rng,
                                        candidates)
    return SplitBundle(labeled["train"], labeled["validation"], labeled["test"],
                       protocol="coldstart", seed=seed,
                       held_out=frozenset(chosen.tolist()))


def pairs_to_arrays(pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Views of an (m, 3) `[i, j, label]` array: the (m, 2) index pairs and
    the (m,) labels."""
    return pairs[:, :2], pairs[:, 2]
