"""Shared fixture builders for toy and randomized networks, and reference
oracles that tests compare the program against."""

import numpy as np
import pytest

from hinddi.espf import Vocabulary, _merge_sequence
from hinddi.hin import EntityKind, EntityRegistry, RelationMatrix, SchemaError, build_hin

BRUTE_FORCE_LIMIT = 50


def make_registry(n_drugs, n_proteins=0, n_side_effects=0, n_substructures=0):
    reg = EntityRegistry()
    for i in range(n_drugs):
        reg.add(EntityKind.DRUG, f"d{i}")
    for i in range(n_proteins):
        reg.add(EntityKind.PROTEIN, f"p{i}")
    for i in range(n_side_effects):
        reg.add(EntityKind.SIDE_EFFECT, f"s{i}")
    for i in range(n_substructures):
        reg.add(EntityKind.SUBSTRUCTURE, f"b{i}")
    return reg


def make_hin(n_drugs, n_proteins, n_side_effects, n_substructures,
             t_pairs=(), c_pairs=(), h_pairs=(), p_pairs=(), ddi=()):
    """Assemble a Hin from explicit coordinate lists; P pairs are symmetrized."""
    reg = make_registry(n_drugs, n_proteins, n_side_effects, n_substructures)
    sym = list(p_pairs) + [(j, i) for i, j in p_pairs]
    relations = {
        "T": RelationMatrix.from_pairs((n_drugs, n_proteins), t_pairs),
        "C": RelationMatrix.from_pairs((n_drugs, n_side_effects), c_pairs),
        "H": RelationMatrix.from_pairs((n_drugs, n_substructures), h_pairs),
        "P": RelationMatrix.from_pairs((n_proteins, n_proteins), sym),
    }
    return build_hin(reg, relations, list(ddi))


def ring_mask(n, chords=(), isolated=()):
    """A drug neighbor mask: self-loops, a ring and the symmetric `chords`;
    drugs in `isolated` keep only their self-loop. The ring alone sets 3n
    of the n*n entries, under `autodiff.SPARSE_DENSITY` from n = 61 on."""
    mask = np.eye(n, dtype=bool)
    ring = np.arange(n)
    mask[ring, (ring + 1) % n] = mask[(ring + 1) % n, ring] = True
    for i, j in chords:
        mask[i, j] = mask[j, i] = True
    for i in isolated:
        mask[i] = mask[:, i] = False
        mask[i, i] = True
    return mask


def coord_set(m):
    """A relation matrix's coordinates as a set of (row, column) ints."""
    return {(int(i), int(j)) for i, j in m.coords}


def random_hin(rng, max_per_kind=20, density=0.25, ppi_density=0.3):
    """Random network with all four relation kinds populated."""
    nd = int(rng.integers(2, max_per_kind + 1))
    np_ = int(rng.integers(1, max_per_kind + 1))
    ns = int(rng.integers(1, max_per_kind + 1))
    nb = int(rng.integers(1, max_per_kind + 1))

    def bipartite(rows, cols, dens):
        mask = rng.random((rows, cols)) < dens
        return list(zip(*np.nonzero(mask)))

    p_pairs = [(i, j) for i in range(np_) for j in range(i + 1, np_)
               if rng.random() < ppi_density]
    return make_hin(nd, np_, ns, nb,
                    t_pairs=bipartite(nd, np_, density),
                    c_pairs=bipartite(nd, ns, density),
                    h_pairs=bipartite(nd, nb, density),
                    p_pairs=p_pairs)


@pytest.fixture
def toy_hin():
    """Two drugs, two proteins: d0 targets {p0, p1}, d1 targets {p1}."""
    return make_hin(2, 2, 0, 0, t_pairs=[(0, 0), (0, 1), (1, 1)])


def brute_force_path_counts(hin, spec):
    """Count concrete paths between every drug pair by depth-first enumeration.

    Returns an (n_drugs, n_drugs) int64 array whose entry (i, j) is the
    number of path instances from drug i to drug j. Oracle for the commuting
    matrices, deliberately independent of the matrix-product route; refuses
    instances with more than BRUTE_FORCE_LIMIT entities of any kind.
    """
    for kind in EntityKind:
        if hin.registry.count(kind) > BRUTE_FORCE_LIMIT:
            raise SchemaError(
                f"brute_force_path_counts: {kind.value} count exceeds {BRUTE_FORCE_LIMIT}")

    adjacency = []
    for step in spec.steps:
        m = hin.matrix(step.matrix)
        table = {}
        for a, b in m.coords:
            src, dst = (int(b), int(a)) if step.transposed else (int(a), int(b))
            table.setdefault(src, []).append(dst)
        adjacency.append(table)

    def walk(depth, node, row):
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


def count_pairs(sequences):
    """Adjacent-pair frequencies over a corpus, non-overlapping left to
    right per sequence."""
    counts = {}
    for seq in sequences:
        last_end = {}
        for i in range(len(seq) - 1):
            pair = (seq[i], seq[i + 1])
            if last_end.get(pair, -1) >= i:
                continue
            last_end[pair] = i + 1
            counts[pair] = counts.get(pair, 0) + 1
    return counts


def reference_build_vocab(corpus, threshold, max_size):
    """Oracle for `espf.build_vocab`: recount the whole corpus after every
    merge and rewrite every sequence."""
    sequences = [list(seq) for seq in corpus]
    units = sorted({tok for seq in sequences for tok in seq})
    n_base = len(units)
    merges = []
    while len(units) < max_size:
        counts = count_pairs(sequences)
        if not counts:
            break
        best = max(counts.values())
        if best < threshold:
            break
        pair = min((p for p, c in counts.items() if c == best),
                   key=lambda p: (p[0] + p[1], p))
        sequences = [_merge_sequence(seq, pair) for seq in sequences]
        merges.append(pair)
        if pair[0] + pair[1] not in units:
            units.append(pair[0] + pair[1])
    return Vocabulary(tuple(units), n_base, tuple(merges), threshold, max_size)


def reference_encode_drug(tokens, vocab):
    """Oracle for `espf.encode_drug`: replay every merge, then set the bit of
    each final unit, or of its characters when the unit is unknown."""
    seq = list(tokens)
    for pair in vocab.merges:
        seq = _merge_sequence(seq, pair)
    row = np.zeros(vocab.size, dtype=np.uint8)
    for unit in seq:
        for part in ([unit] if unit in vocab.units else unit):
            if part in vocab.units:
                row[vocab.units.index(part)] = 1
    return row


def setdiff_without(candidates, taken):
    """Oracle for `data._without`: the sorted unique candidates not taken."""
    return np.setdiff1d(candidates, taken)
