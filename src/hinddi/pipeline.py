"""Shared assembly: raw input files -> network, features, neighbor graphs.

Used by the command-line layer and the experiment harness so both run the
exact same loading sequence (discovery order determines entity indices).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .espf import (
    FeatureMatrix,
    Vocabulary,
    _encode_corpus,
    build_vocab,
    load_fingerprints,
    load_smiles,
    smiles_in_registry_order,
    tokenize_smiles,
)
from .hin import RELATIONS, EntityKind, EntityRegistry, Hin, build_hin, load_ddi, load_relation
from .metapath import TOP_K, NeighborGraph, commuting_matrix, neighbor_graph, spec_by_name

__all__ = ["INPUT_FILES", "InputPaths", "load_hin_inputs", "make_graphs",
           "make_espf_features", "make_fingerprint_features"]

# InputPaths field ([data] key) -> file name in an input directory, as
# `InputPaths.in_dir` reads it and `synth` writes it. The relation files
# have their graph-directory names.
INPUT_FILES = {"drug_protein": RELATIONS["T"][2],
               "drug_side_effect": RELATIONS["C"][2],
               "ppi": RELATIONS["P"][2],
               "fingerprints": "fingerprints.tsv",
               "smiles": "smiles.tsv",
               "ddi": "ddi.tsv"}


@dataclass
class InputPaths:
    drug_protein: Path
    drug_side_effect: Path
    ppi: Path
    fingerprints: Path
    ddi: Path
    smiles: Path | None = None

    @classmethod
    def in_dir(cls, directory) -> "InputPaths":
        d = Path(directory)
        return cls(**{key: d / name for key, name in INPUT_FILES.items()})


def load_hin_inputs(paths: InputPaths) -> Hin:
    """Load all relations in a fixed order (ddi, T, C, H, P), discovering
    entities as they appear, so that entity indices are reproducible."""
    registry = EntityRegistry()
    ddi = load_ddi(paths.ddi, registry)
    relations = {"T": load_relation(paths.drug_protein, "T", registry),
                 "C": load_relation(paths.drug_side_effect, "C", registry),
                 "H": load_fingerprints(paths.fingerprints, registry)[0],
                 "P": load_relation(paths.ppi, "P", registry)}
    return build_hin(registry, relations, ddi)


def make_graphs(hin: Hin, metapath_names, top_k: int = TOP_K) -> dict[str, NeighborGraph]:
    """Top-k PathSim neighbor graphs for the selected meta-paths."""
    return {name: neighbor_graph(commuting_matrix(hin, spec_by_name(name)), top_k)
            for name in metapath_names}


def make_espf_features(smiles_path, hin: Hin, threshold: int = 5,
                       max_size: int = 512) -> tuple[FeatureMatrix, Vocabulary]:
    smiles = load_smiles(smiles_path)
    corpus = [tokenize_smiles(s) for s in smiles_in_registry_order(smiles, hin.registry)]
    vocab = build_vocab(corpus, threshold=threshold, max_size=max_size)
    features = FeatureMatrix(tuple(hin.registry.ids(EntityKind.DRUG)),
                             _encode_corpus(corpus, vocab), "espf")
    return features, vocab


def make_fingerprint_features(fingerprints_path, hin: Hin) -> FeatureMatrix:
    _, features = load_fingerprints(fingerprints_path, hin.registry, mode="strict")
    return features
