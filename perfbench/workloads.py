"""Seeded input generators and the benchmark workloads.

Every workload is a set of TSV input files (the same files `hinddi synth`
writes) plus the settings the pipeline runs them with. The inputs depend
only on the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from hinddi.espf import FINGERPRINT_BITS
from hinddi.synth import generate_planted, write_planted

# Published dataset counts; tests/test_hin.py::test_paper_schema_scale_counts
# checks the same figures.
PAPER_COUNTS = {"Drug": 513, "Protein": 290, "SideEffect": 527,
                "Substructure": 167, "DDI": 11845, "DPI": 514,
                "DrugSideEffect": 13674, "PPI": 413}

_MOTIF_ATOMS = ("C", "N", "O", "S", "P", "F", "Cl", "Br", "[NH]", "[O-]")
_MOTIF_TAILS = ("1", "2", "3", "(", ")", "=", "#", "c", "n", "o")


@dataclass(frozen=True)
class ClusteredSpec:
    """Counts and signal strength of a clustered synthetic network.

    Drugs fall into equal clusters. Interactions, targets, side effects,
    fingerprint bits and SMILES motifs are drawn mostly from per-cluster
    pools, so every input channel carries the cluster signal. The
    `*_random` fields set how many draws per drug ignore the cluster, which
    sets how dense the meta-path graphs are.
    """

    n_drugs: int
    n_clusters: int
    n_proteins: int
    n_side_effects: int
    n_ddi: int
    n_dpi: int
    n_drug_side_effect: int
    n_ppi: int
    ddi_within: float          # share of interactions inside a cluster
    se_random: int             # side effects per drug drawn from all of them
    fp_cluster_on: int         # bits each drug sets in its cluster's pool
    fp_random_on: int          # bits each drug sets outside its pool
    motifs_per_drug: int       # SMILES motifs drawn from the cluster pool

    def counts(self) -> dict[str, int]:
        """The `hin.stats` the generated inputs give."""
        return {"Drug": self.n_drugs, "Protein": self.n_proteins,
                "SideEffect": self.n_side_effects,
                "Substructure": FINGERPRINT_BITS, "DDI": self.n_ddi,
                "DPI": self.n_dpi, "DrugSideEffect": self.n_drug_side_effect,
                "PPI": self.n_ppi}


def _unique_pairs(rng, count, draw, out=None):
    """Grow a set of canonical pairs with `draw(rng)` until it has `count`."""
    out = set() if out is None else out
    while len(out) < count:
        i, j = draw(rng)
        if i != j:
            out.add((min(i, j), max(i, j)))
    return out


def generate_clustered(spec: ClusteredSpec, seed: int) -> dict[str, list[str]]:
    """Input file name -> lines, with exactly the counts in `spec`."""
    rng = np.random.default_rng(seed)
    nd, k = spec.n_drugs, spec.n_clusters
    if nd % k or spec.n_proteins % 2 or spec.n_side_effects < k:
        raise ValueError("need equal drug clusters and an even protein count")
    cluster = rng.permutation(np.arange(nd) % k)
    members = [np.flatnonzero(cluster == c) for c in range(k)]
    drugs = [f"D{i:04d}" for i in range(nd)]
    proteins = [f"P{i:04d}" for i in range(spec.n_proteins)]
    side_effects = [f"S{i:04d}" for i in range(spec.n_side_effects)]

    # interactions: every drug appears once, then within/cross fill
    ddi = set()
    for i in range(nd):
        pool = members[cluster[i]]
        j = int(rng.choice(pool[pool != i]))
        ddi.add((min(i, j), max(i, j)))
    n_within = int(round(spec.n_ddi * spec.ddi_within))

    def within(r):
        pool = members[int(r.integers(k))]
        i, j = r.choice(pool, size=2, replace=False)
        return int(i), int(j)

    def anywhere(r):
        return int(r.integers(nd)), int(r.integers(nd))

    _unique_pairs(rng, max(n_within, len(ddi)), within, ddi)
    _unique_pairs(rng, spec.n_ddi, anywhere, ddi)

    # targets: one per drug, then extra ones, all from the cluster's pool
    protein_pools = np.array_split(np.arange(spec.n_proteins), k)
    dpi = {(i, int(rng.choice(protein_pools[cluster[i]]))) for i in range(nd)}
    while len(dpi) < spec.n_dpi:
        i = int(rng.integers(nd))
        dpi.add((i, int(rng.choice(protein_pools[cluster[i]]))))

    # protein interactions: a matching covers every protein, rest in-pool
    ppi = {(2 * q, 2 * q + 1) for q in range(spec.n_proteins // 2)}

    def in_pool(r):
        a, b = r.choice(protein_pools[int(r.integers(k))], size=2, replace=False)
        return int(a), int(b)

    _unique_pairs(rng, spec.n_ppi, in_pool, ppi)

    # side effects: cluster pool plus `se_random` draws from all of them
    se_pools = np.array_split(rng.permutation(spec.n_side_effects), k)
    dse = {(int(rng.integers(nd)), s) for s in range(spec.n_side_effects)}
    for i in range(nd):
        for s in rng.choice(spec.n_side_effects, size=spec.se_random, replace=False):
            dse.add((i, int(s)))
    while len(dse) < spec.n_drug_side_effect:
        i = int(rng.integers(nd))
        dse.add((i, int(rng.choice(se_pools[cluster[i]]))))
    if len(dse) > spec.n_drug_side_effect:
        raise ValueError("se_random too large for the side-effect count")

    # fingerprints: bits of the cluster's pool plus random bits
    fp_pools = np.array_split(rng.permutation(FINGERPRINT_BITS), k)
    fingerprints = []
    for i in range(nd):
        bits = np.zeros(FINGERPRINT_BITS, dtype=np.uint8)
        bits[rng.choice(fp_pools[cluster[i]], size=spec.fp_cluster_on,
                        replace=False)] = 1
        bits[rng.choice(FINGERPRINT_BITS, size=spec.fp_random_on,
                        replace=False)] = 1
        fingerprints.append("".join(map(str, bits)))

    # SMILES: motifs of the cluster pool plus one random motif
    motifs = [a + t for a in _MOTIF_ATOMS for t in _MOTIF_TAILS]
    motif_pools = [rng.choice(len(motifs), size=2 * spec.motifs_per_drug,
                              replace=False) for _ in range(k)]
    smiles = []
    for i in range(nd):
        picks = list(rng.choice(motif_pools[cluster[i]],
                                size=spec.motifs_per_drug, replace=False))
        picks.append(int(rng.integers(len(motifs))))
        smiles.append("C" + "".join(motifs[m] for m in picks))

    def two_col(pairs, left, right):
        return [f"{left[a]}\t{right[b]}" for a, b in sorted(pairs)]

    return {
        "ddi.tsv": two_col(ddi, drugs, drugs),
        "drug_protein.tsv": two_col(dpi, drugs, proteins),
        "ppi.tsv": two_col(ppi, proteins, proteins),
        "drug_side_effect.tsv": two_col(dse, drugs, side_effects),
        "fingerprints.tsv": [f"{d}\t{fp}" for d, fp in zip(drugs, fingerprints)],
        "smiles.tsv": [f"{d}\t{s}" for d, s in zip(drugs, smiles)],
    }


def write_lines(files: dict[str, list[str]], out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, lines in files.items():
        (out_dir / name).write_text("\n".join(lines) + "\n", encoding="utf-8")


@dataclass(frozen=True)
class Workload:
    """One benchmark input set and the settings the pipeline runs on it."""

    name: str
    epochs: int                # fixed budget of timed cycles; patience equals it
    espf_threshold: int
    setups: int                # set-ups per run; setup_s is their median
    clustered: ClusteredSpec | None = None   # None: the planted 50-drug set
    n_model_seeds: int = 1     # split/init/dropout seeds per run
    auroc_epochs: int | None = None       # budget of the AUROC cycles
    min_test_auroc: float | None = None   # bound on their mean test AUROC

    def write_inputs(self, out_dir: Path, seed: int) -> None:
        if self.clustered is None:
            write_planted(generate_planted(seed=seed), out_dir)
        else:
            write_lines(generate_clustered(self.clustered, seed), out_dir)

    @property
    def quality_epochs(self) -> int:
        """Budget of the one cycle per model seed whose test AUROC counts."""
        return self.auroc_epochs or self.epochs

    def model_seeds(self, seed: int) -> list[int]:
        """Seeds of the split, the initial weights and dropout."""
        return [seed + k for k in range(self.n_model_seeds)]

    def expected_counts(self) -> dict[str, int] | None:
        """`hin.stats` the generated inputs must give, when fixed."""
        return None if self.clustered is None else self.clustered.counts()


PAPER_SPEC = ClusteredSpec(
    n_drugs=513, n_clusters=9, n_proteins=290, n_side_effects=527,
    n_ddi=11845, n_dpi=514, n_drug_side_effect=13674, n_ppi=413,
    ddi_within=0.85, se_random=18, fp_cluster_on=12, fp_random_on=28,
    motifs_per_drug=5)

# Each workload stresses a different layer; why each is there is in
# BENCHMARK.json. Timed cycles are short (0.1-0.4 s of training), so a run
# holds many to take the median of; test AUROC is judged after longer
# training. There is no 1000-drug cold-start workload: its epochs are
# bound by memory traffic, and on a shared 2-vCPU KVM guest its train and
# screen times spread by about 20% between runs, against 7% for these two
# in the same rounds.
#
# planted-50 judges test AUROC after the published 200 epochs, because
# fewer make it unreliable (60 epochs gave a three-seed mean of 0.83 on
# data seed 408). Its floor is below criterion 5's 0.90: criterion 5
# averages three model seeds on data seed 0, and over data seeds 0-29 that
# average ranged from 0.891 to 0.993 (the test split holds about 24
# pairs), so a per-run 0.90 would fail on some seeds.
WORKLOADS = {w.name: w for w in (
    Workload("planted-50", epochs=10, espf_threshold=2, setups=20,
             n_model_seeds=3, auroc_epochs=200, min_test_auroc=0.85),
    Workload("paper-513", epochs=1, espf_threshold=5, setups=8,
             auroc_epochs=15, clustered=PAPER_SPEC),
)}
