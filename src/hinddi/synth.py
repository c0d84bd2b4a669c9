"""Synthetic dataset generators.

The planted instance is built so that two drugs interact exactly when they
share a target protein. Drugs come in groups drawing targets from a small
per-group protein pool (plus an occasional random extra target), SMILES
strings embed several repeated two-character motifs per targeted protein,
and side effects and fingerprint bits are derived from the same targets:
every meta-path channel then reflects the planted signal, which is fully
recoverable from the drug-protein-drug path alone. Protein-protein edges
are random, so that channel carries cross-group decoys.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .espf import FINGERPRINT_BITS
from .hin import RELATIONS, EntityKind, EntityRegistry, RelationMatrix, build_hin
from .metapath import builtin_spec_names
from .pipeline import INPUT_FILES, make_graphs

__all__ = ["PlantedDataset", "generate_planted", "write_planted", "desk_instance"]

_MOTIF_LETTERS = "CNOSPF"
_MOTIF_DIGITS = "123456789"
_MOTIF_UNITS = 6   # distinct two-char motifs per protein
_MOTIF_REPS = 2    # repetitions of each motif within a SMILES


def _protein_motifs(t: int) -> list[str]:
    out = []
    for u in range(_MOTIF_UNITS):
        k = t * _MOTIF_UNITS + u
        out.append(_MOTIF_LETTERS[k % len(_MOTIF_LETTERS)]
                   + _MOTIF_DIGITS[(k // len(_MOTIF_LETTERS)) % len(_MOTIF_DIGITS)])
    return out


@dataclass
class PlantedDataset:
    drug_ids: list[str]
    protein_ids: list[str]
    side_effect_ids: list[str]
    targets: list[list[int]]        # per drug, targeted protein indices
    side_effects: list[list[int]]   # per drug, derived from targets
    ppi: list[tuple[int, int]]      # undirected i < j, random
    smiles: dict[str, str]
    fingerprints: dict[str, str]
    ddi: list[tuple[int, int]]      # exactly the pairs sharing a target


def generate_planted(n_drugs: int = 50, n_proteins: int = 20,
                     group_size: int = 5, cross_target_prob: float = 0.15,
                     ppi_prob: float = 0.1, seed: int = 0) -> PlantedDataset:
    if n_drugs % group_size:
        raise ValueError("n_drugs must be a multiple of group_size")
    n_groups = n_drugs // group_size
    if n_proteins % n_groups:
        raise ValueError("n_proteins must be a multiple of the group count "
                         f"({n_groups})")
    if 2 * n_proteins + 41 > FINGERPRINT_BITS:
        raise ValueError("too many proteins for distinct fingerprint bits")
    per_group = n_proteins // n_groups
    rng = np.random.default_rng(seed)

    drug_ids = [f"D{k:03d}" for k in range(n_drugs)]
    protein_ids = [f"P{k:02d}" for k in range(n_proteins)]
    n_se = 2 * n_proteins + 5
    side_effect_ids = [f"S{k:02d}" for k in range(n_se)]

    targets = []
    for d in range(n_drugs):
        pool = np.arange((d // group_size) * per_group,
                         (d // group_size + 1) * per_group)
        k = int(rng.integers(1, per_group + 1))
        chosen = set(rng.choice(pool, size=k, replace=False).tolist())
        if rng.random() < cross_target_prob:
            chosen.add(int(rng.integers(n_proteins)))
        targets.append(sorted(chosen))

    side_effects = [sorted({2 * t for t in ts} | {2 * t + 1 for t in ts})
                    for ts in targets]
    ppi = [(i, j) for i in range(n_proteins) for j in range(i + 1, n_proteins)
           if rng.random() < ppi_prob]

    smiles = {}
    for d, drug in enumerate(drug_ids):
        smiles[drug] = "".join(m * _MOTIF_REPS
                               for t in targets[d] for m in _protein_motifs(t))

    fingerprints = {}
    for d, drug in enumerate(drug_ids):
        bits = np.zeros(FINGERPRINT_BITS, dtype=np.uint8)
        for t in targets[d]:
            bits[2 * t] = 1
            bits[2 * t + 41] = 1
        fingerprints[drug] = "".join(str(int(v)) for v in bits)

    ddi = [(i, j) for i in range(n_drugs) for j in range(i + 1, n_drugs)
           if set(targets[i]) & set(targets[j])]
    return PlantedDataset(drug_ids, protein_ids, side_effect_ids, targets,
                          side_effects, ppi, smiles, fingerprints, ddi)


def write_planted(dataset: PlantedDataset, out_dir) -> dict[str, Path]:
    """Write the dataset's input files; returns name -> path."""
    d = Path(out_dir)
    d.mkdir(parents=True, exist_ok=True)
    paths = {}

    def dump(name, lines):
        p = d / name
        p.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
        paths[name] = p

    dump(INPUT_FILES["drug_protein"],
         [f"{dataset.drug_ids[i]}\t{dataset.protein_ids[t]}"
          for i, ts in enumerate(dataset.targets) for t in ts])
    dump(INPUT_FILES["drug_side_effect"],
         [f"{dataset.drug_ids[i]}\t{dataset.side_effect_ids[s]}"
          for i, ss in enumerate(dataset.side_effects) for s in ss])
    dump(INPUT_FILES["ppi"],
         [f"{dataset.protein_ids[i]}\t{dataset.protein_ids[j]}"
          for i, j in dataset.ppi])
    dump(INPUT_FILES["smiles"],
         [f"{drug}\t{s}" for drug, s in dataset.smiles.items()])
    dump(INPUT_FILES["fingerprints"],
         [f"{drug}\t{bits}" for drug, bits in dataset.fingerprints.items()])
    dump(INPUT_FILES["ddi"],
         [f"{dataset.drug_ids[i]}\t{dataset.drug_ids[j]}" for i, j in dataset.ddi])
    return paths


def desk_instance(seed: int = 0, n_drugs: int = 12, n_proteins: int = 8,
                  n_side_effects: int = 6, n_substructures: int = 10,
                  d0: int = 6, density: float = 0.35):
    """In-memory random instance with all four meta-path graphs populated.

    Returns (graphs, features, pairs, labels); used by the gradient-check
    command, which needs no external data.
    """
    rng = np.random.default_rng(seed)
    reg = EntityRegistry()
    for k in range(n_drugs):
        reg.add(EntityKind.DRUG, f"D{k:03d}")
    for k in range(n_proteins):
        reg.add(EntityKind.PROTEIN, f"P{k:02d}")
    for k in range(n_side_effects):
        reg.add(EntityKind.SIDE_EFFECT, f"S{k:02d}")
    for k in range(n_substructures):
        reg.add(EntityKind.SUBSTRUCTURE, f"B{k:02d}")

    relations = {}
    for name, (source, target, _) in RELATIONS.items():
        rows, cols = reg.count(source), reg.count(target)
        if source == target:  # symmetric, no self-loops
            pairs = [(i, j) for i in range(rows) for j in range(i + 1, cols)
                     if rng.random() < density]
            pairs += [(j, i) for i, j in pairs]
        else:
            mask = rng.random((rows, cols)) < density
            # keep every source entity connected so no relation row is empty
            for r in range(rows):
                if not mask[r].any():
                    mask[r, int(rng.integers(cols))] = True
            pairs = list(zip(*np.nonzero(mask)))
        relations[name] = RelationMatrix.from_pairs((rows, cols), pairs)
    hin = build_hin(reg, relations)

    graphs = make_graphs(hin, builtin_spec_names())
    features = rng.random((n_drugs, d0))
    pair_list = [(i, j) for i in range(n_drugs) for j in range(i + 1, n_drugs)]
    order = rng.permutation(len(pair_list))[:3 * n_drugs]
    pairs = np.array([pair_list[k] for k in order], dtype=np.int64)
    labels = rng.integers(0, 2, size=len(pairs))
    return graphs, features, pairs, labels
