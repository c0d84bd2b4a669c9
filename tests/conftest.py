"""Shared fixture builders for toy and randomized networks, and reference
oracles that tests compare the program against."""

import math
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from hinddi.autodiff import SPARSE_DENSITY
from hinddi.data import SplitBundle, SplitError, check_drug_fraction, check_ratios, purpose_rng
from hinddi.espf import FINGERPRINT_BITS, FeatureMatrix, SmilesError, Vocabulary
from hinddi.hin import (
    RELATIONS,
    EntityKind,
    EntityRegistry,
    HinError,
    RelationMatrix,
    RelationParseError,
    SchemaError,
    build_hin,
    pair_array,
    unique_rows,
)

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


def reference_neighbor_mask(counts, top_k):
    """Dense bool neighbor mask by brute force, one row at a time.

    Drug i's candidates are the drugs j != i with a positive count. When
    top_k > 0 and there are more than top_k, the row keeps the first top_k
    after sorting by (-PathSim, column), PathSim being
    2 M_ij / max(M_ii + M_jj, 1) in Python floats, and then gets back every
    drug whose row keeps it. Self-loops are added last.
    """
    n = len(counts)
    keep = np.zeros((n, n), dtype=bool)
    cut = []
    for i in range(n):
        candidates = [j for j in range(n) if j != i and counts[i][j] > 0]
        if 0 < top_k < len(candidates):
            pathsim = {j: 2.0 * int(counts[i][j]) / max(int(counts[i][i]) + int(counts[j][j]), 1)
                       for j in candidates}
            candidates = sorted(candidates, key=lambda j: (-pathsim[j], j))[:top_k]
            cut.append(i)
        keep[i, candidates] = True
    mask = keep.copy()
    for i in cut:
        mask[i] |= keep[:, i]
    np.fill_diagonal(mask, True)
    return mask


def reference_tokenize_smiles(s):
    """Oracle for `espf.tokenize_smiles`: a character-by-character scan."""
    if not s:
        raise SmilesError("empty SMILES string")
    tokens = []
    i = 0
    while i < len(s):
        if s[i] == "[":
            end = s.find("]", i)
            if end < 0:
                raise SmilesError(f"unbalanced '[' at position {i} in {s!r}")
            tokens.append(s[i:end + 1])
            i = end + 1
        elif s[i:i + 2] in ("Cl", "Br"):
            tokens.append(s[i:i + 2])
            i += 2
        else:
            tokens.append(s[i])
            i += 1
    return tokens


def pair_counts(seq):
    """Adjacent-pair frequencies in one sequence, non-overlapping left to
    right, so each count is what merging that pair would remove."""
    counts = {}
    last_end = {}
    for i in range(len(seq) - 1):
        pair = (seq[i], seq[i + 1])
        if last_end.get(pair, -1) >= i:
            continue
        last_end[pair] = i + 1
        counts[pair] = counts.get(pair, 0) + 1
    return counts


def count_pairs(sequences):
    """`pair_counts` summed over a corpus."""
    counts = {}
    for seq in sequences:
        for pair, c in pair_counts(seq).items():
            counts[pair] = counts.get(pair, 0) + c
    return counts


def merge_sequence(seq, pair):
    """Replace non-overlapping left-to-right occurrences of `pair` in one
    sequence by the concatenated unit."""
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
        sequences = [merge_sequence(seq, pair) for seq in sequences]
        merges.append(pair)
        if pair[0] + pair[1] not in units:
            units.append(pair[0] + pair[1])
    return Vocabulary(tuple(units), n_base, tuple(merges), threshold, max_size)


def reference_encode_drug(tokens, vocab):
    """Oracle for one row of `espf._encode_corpus`: replay every merge, then
    set the bit of each final unit, or of its characters when the unit is
    unknown."""
    seq = list(tokens)
    for pair in vocab.merges:
        seq = merge_sequence(seq, pair)
    row = np.zeros(vocab.size, dtype=np.uint8)
    for unit in seq:
        for part in ([unit] if unit in vocab.units else unit):
            if part in vocab.units:
                row[vocab.units.index(part)] = 1
    return row


def setdiff_without(candidates, taken):
    """Oracle for `data._without`: the sorted unique candidates not taken."""
    return np.setdiff1d(candidates, taken)


def _reference_canonical(pairs):
    out = set()
    for i, j in pairs:
        if i == j:
            raise SplitError(f"self-pair ({i}, {j}) is not a valid example")
        out.add((min(int(i), int(j)), max(int(i), int(j))))
    return out


def _reference_pair_ids(pairs, n):
    arr = np.array(sorted(pairs), dtype=np.int64).reshape(-1, 2)
    return arr[:, 0] * n + arr[:, 1]


def _reference_negatives(partitions, positives, n_drugs, rng, candidates_by_part):
    """1:1 negatives per partition, each partition's excluded from the later
    ones; rows are (i, j, label) tuples, positives first."""
    taken = _reference_pair_ids(positives, n_drugs)
    out = {}
    for name, part in partitions.items():
        candidates = setdiff_without(candidates_by_part[name], taken)
        if len(part) > candidates.size:
            raise SplitError(
                f"cannot sample {len(part)} negatives from {candidates.size} available pairs")
        neg_ids = (candidates[rng.choice(candidates.size, size=len(part), replace=False)]
                   if part else np.empty(0, dtype=np.int64))
        taken = np.concatenate([taken, neg_ids])
        out[name] = ([(i, j, 1) for i, j in part]
                     + [(int(v // n_drugs), int(v % n_drugs), 0) for v in neg_ids])
    return out


def _reference_all_pair_ids(n_drugs):
    return np.array([i * n_drugs + j for i in range(n_drugs)
                     for j in range(i + 1, n_drugs)], dtype=np.int64)


def reference_split_edges(ddis, n_drugs, ratios=(0.8, 0.1, 0.1), seed=0):
    """Oracle for `data.split_edges`: partitions as lists of (i, j, label)
    tuples, built pair by pair from sorted canonical tuples."""
    ratios = check_ratios(ratios)
    positives = sorted(_reference_canonical(ddis))
    split_rng = purpose_rng(seed, "split")
    neg_rng = purpose_rng(seed, "negatives")
    shuffled = [positives[k] for k in split_rng.permutation(len(positives))]
    c1 = math.floor(len(shuffled) * ratios[0])
    c2 = math.floor(len(shuffled) * (ratios[0] + ratios[1]))
    parts = {"train": shuffled[:c1], "validation": shuffled[c1:c2], "test": shuffled[c2:]}
    everywhere = _reference_all_pair_ids(n_drugs)
    labeled = _reference_negatives(parts, positives, n_drugs, neg_rng,
                                   {k: everywhere for k in parts})
    return SplitBundle(labeled["train"], labeled["validation"], labeled["test"],
                       protocol="edges", seed=seed)


def reference_split_cold_start(ddis, n_drugs, drug_fraction=0.2, seed=0):
    """Oracle for `data.split_cold_start`, in the style of
    `reference_split_edges`."""
    check_drug_fraction(drug_fraction)
    positives = sorted(_reference_canonical(ddis))
    split_rng = purpose_rng(seed, "split")
    neg_rng = purpose_rng(seed, "negatives")
    k = math.ceil(drug_fraction * n_drugs)
    held = frozenset(int(d) for d in split_rng.choice(n_drugs, size=k, replace=False))
    test_pos = [p for p in positives if p[0] in held or p[1] in held]
    rest = [p for p in positives if p[0] not in held and p[1] not in held]
    if positives and not rest:
        raise SplitError("cold-start split hides every positive; lower the fraction")
    if not test_pos:
        warnings.warn("split_cold_start: no positive touches a held-out drug")
    shuffled = [rest[k] for k in split_rng.permutation(len(rest))]
    c1 = math.floor(len(shuffled) * 0.9)
    parts = {"train": shuffled[:c1], "validation": shuffled[c1:], "test": test_pos}
    all_ids = _reference_all_pair_ids(n_drugs)
    touches = np.array([v // n_drugs in held or v % n_drugs in held for v in all_ids],
                       dtype=bool)
    candidates = {"train": all_ids[~touches], "validation": all_ids[~touches],
                  "test": all_ids[touches]}
    labeled = _reference_negatives(parts, positives, n_drugs, neg_rng, candidates)
    return SplitBundle(labeled["train"], labeled["validation"], labeled["test"],
                       protocol="coldstart", seed=seed, held_out=held)


def reference_auroc(scores, labels):
    """Oracle for `metrics.auroc`: average ranks assigned tie group by tie
    group over the stably sorted scores."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n = scores.size
    n_pos = int((labels == 1).sum())
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(n, dtype=np.float64)
    sorted_scores = scores[order]
    i = 0
    while i < n:
        j = i
        while j < n and sorted_scores[j] == sorted_scores[i]:
            j += 1
        ranks[order[i:j]] = 0.5 * ((i + 1) + j)  # average of ranks i+1 .. j
        i = j
    rank_sum = ranks[labels == 1].sum()
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * (n - n_pos))


def reference_attention_dense(hd, a, mask, fixed, heads, s, dropout, rng):
    """Oracle for `autodiff.graph_attention` on dense (n, n) arrays, with
    a (K, 2F) `a` or an (n, n) `fixed` alpha (then `a` is None). Returns
    the output, the K alphas, an array that is finite exactly when they
    are and the adjoint, which maps the output's adjoint to [dh] or
    [dh, da]. Each head builds its scores with broadcasting and masks them
    with `np.where`, and the adjoint applies the slope of the leaky relu as
    a factor from `np.where`. With dropout each head draws its keep mask as
    `rng.random((n, n)) >= dropout`, heads in order: the stream that a mask
    at or above `SPARSE_DENSITY` draws its keep decisions from. The
    finiteness check is the (K, n) row sums before the softmax divides by
    them, or the fixed alpha."""
    n, width = hd.shape
    f = width // heads
    dt = hd.dtype
    neg_inf = dt.type(-np.inf)
    keep_scale = dt.type(1.0 / (1.0 - dropout))

    out = np.empty_like(hd)
    alphas, keeps, scores, sums = [], [], [], []
    for k in range(heads):
        cols = slice(k * f, (k + 1) * f)
        hk = hd[:, cols]
        if fixed is None:
            src, dst = hk @ a[k, :f], hk @ a[k, f:]
            e = src[:, None] + dst[None, :]
            e = np.where(mask, np.where(e > 0, e, s * e), neg_inf)
            e -= e.max(axis=1, keepdims=True)
            np.exp(e, out=e)
            sums.append(e.sum(axis=1))
            alpha = e / sums[-1][:, None]
            scores.append((src, dst))
        else:
            alpha = fixed
        alphas.append(alpha)
        if dropout:
            keep = rng.random((n, n)) >= dropout
            keeps.append(keep)
            alpha = alpha * (keep * keep_scale)
        out[:, cols] = alpha @ hk

    def bwd(g):
        dh = np.zeros_like(hd)
        da = None if fixed is not None else np.zeros_like(a)
        for k in range(heads):
            cols = slice(k * f, (k + 1) * f)
            hk, gk, alpha = hd[:, cols], g[:, cols], alphas[k]
            factor = keeps[k] * keep_scale if dropout else None
            dropped = alpha if factor is None else alpha * factor
            dh[:, cols] += dropped.T @ gk
            if da is None:
                continue
            d_alpha = gk @ hk.T
            if factor is not None:
                d_alpha *= factor
            d_e = alpha * (d_alpha - (d_alpha * alpha).sum(axis=1, keepdims=True))
            src, dst = scores[k]
            d_e *= np.where(src[:, None] + dst[None, :] > 0, dt.type(1), s)
            d_src, d_dst = d_e.sum(axis=1), d_e.sum(axis=0)
            dh[:, cols] += np.outer(d_src, a[k, :f]) + np.outer(d_dst, a[k, f:])
            da[k, :f] = hk.T @ d_src
            da[k, f:] = hk.T @ d_dst
        return [dh] if da is None else [dh, da]

    return out, alphas, fixed if fixed is not None else np.stack(sums), bwd


def reference_attention_edges(hd, a, mask, heads, s, dropout, rng):
    """Oracle for `autodiff._attention_edges` with a learned alpha: the
    aggregation and its adjoint gather (E, K, F) arrays, weight them and
    sum them with an (n, E) ones incidence; the leaky relu and its slope
    come from `np.where`. Dropout keeps edge e of head k where draw (e, k)
    of one (E, K) draw is kept, or, on a mask at or above `SPARSE_DENSITY`,
    where the edge's entry of the k-th of K (n, n) draws is. Returns what
    `_attention_edges` returns, the alphas as a list of (n, n) arrays."""
    n, width = hd.shape
    f = width // heads
    dt = hd.dtype
    indptr, cols = mask.indptr, mask.indices
    edges = cols.size
    rows = np.repeat(np.arange(n), np.diff(indptr))
    ones = np.ones(edges, dtype=dt)
    row_sum = sp.csr_array((ones, np.arange(edges), indptr), shape=(n, edges))
    # the transpose of the (E, n) CSR that holds edge e's column in row e
    col_sum = sp.csr_array((ones, cols, np.arange(edges + 1)), shape=(edges, n)).T
    starts = indptr[:-1]  # every row holds its self-loop: none is empty

    h3 = hd.reshape(n, heads, f)
    src = np.einsum("nkf,kf->nk", h3, a[:, :f])
    dst = np.einsum("nkf,kf->nk", h3, a[:, f:])
    raw = src[rows] + dst[cols]
    e = np.where(raw > 0, raw, s * raw)
    e -= np.maximum.reduceat(e, starts)[rows]
    np.exp(e, out=e)
    sums = row_sum @ e
    alpha = e / sums[rows]
    weight = alpha
    if dropout:
        if edges >= SPARSE_DENSITY * n * n:  # head k's (n, n) draw, at the edges
            keep = np.stack([rng.random((n, n))[rows, cols] for _ in range(heads)], axis=1)
        else:
            keep = rng.random(alpha.shape)
        factor = (keep >= dropout) * dt.type(1.0 / (1.0 - dropout))
        weight = alpha * factor
    neighbors = h3[cols]                                    # (E, K, F)
    out = row_sum @ (weight[:, :, None] * neighbors).reshape(-1, width)

    def bwd(g):
        g_rows = g.reshape(n, heads, f)[rows]               # (E, K, F)
        dh = col_sum @ (weight[:, :, None] * g_rows).reshape(-1, width)
        d_alpha = np.einsum("ekf,ekf->ek", g_rows, neighbors)
        if dropout:
            d_alpha *= factor
        d_e = alpha * (d_alpha - (row_sum @ (d_alpha * alpha))[rows])
        d_e *= np.where(raw > 0, dt.type(1), s)
        d_src, d_dst = row_sum @ d_e, col_sum @ d_e
        dh += (d_src[:, :, None] * a[None, :, :f]
               + d_dst[:, :, None] * a[None, :, f:]).reshape(n, width)
        da = np.concatenate([np.einsum("nk,nkf->kf", d_src, h3),
                             np.einsum("nk,nkf->kf", d_dst, h3)], axis=1)
        return [dh, da]

    alphas = [sp.csr_array((alpha[:, k], cols, indptr), shape=(n, n)).toarray()
              for k in range(heads)]
    return out, alphas, sums, bwd


def reference_pair_scores_adjoint(zd, pairs, y, g):
    """Oracle for the adjoint of `autodiff.pair_scores` with probabilities
    `y` and output adjoint `g`: each pair's two rows added with np.add.at."""
    i, j = pairs[:, 0], pairs[:, 1]
    d_dots = (g * y * (1 - y))[:, None]
    dz_i, dz_j = np.zeros_like(zd), np.zeros_like(zd)
    np.add.at(dz_i, i, d_dots * zd[j])
    np.add.at(dz_j, j, d_dots * zd[i])
    return dz_i + dz_j


# Oracles for the TSV loaders of `hin` and `espf`: each reads its file line
# by line and resolves ids one at a time, left before right.

def load_outcome(load, *args):
    """(result, None), or (None, (error type, error text)) for a loader's
    HinError or ValueError."""
    try:
        return load(*args), None
    except (HinError, ValueError) as err:
        return None, (type(err), str(err))


def reference_load_pairs(path):
    """Oracle for `hin.load_pairs`, as (line_number, left, right) triples."""
    out = []
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise RelationParseError(
                f"{path}:{lineno}: expected two tab-separated identifiers, got {raw!r}")
        out.append((lineno, parts[0], parts[1]))
    return out


def reference_load_relation(path, name, registry, mode="discover"):
    """Oracle for `hin.load_relation`."""
    if mode not in ("discover", "strict"):
        raise ValueError(f"unknown registry mode {mode!r}")
    source, target, _ = RELATIONS[name]
    pairs = []
    for lineno, left, right in reference_load_pairs(path):
        i = registry.add(source, left) if mode == "discover" else registry.index_of(source, left)
        j = registry.add(target, right) if mode == "discover" else registry.index_of(target, right)
        pairs.append((i, j))
        if source == target:
            pairs.append((j, i))
    return RelationMatrix.from_pairs((registry.count(source), registry.count(target)), pairs)


def reference_load_ddi(path, registry, mode="discover"):
    """Oracle for `hin.load_ddi`."""
    resolve = registry.add if mode == "discover" else registry.index_of
    pairs = []
    for lineno, left, right in reference_load_pairs(path):
        i, j = resolve(EntityKind.DRUG, left), resolve(EntityKind.DRUG, right)
        if i == j:
            raise RelationParseError(f"{path}:{lineno}: self-interaction {left!r}")
        pairs.append((i, j))
    return unique_rows(np.sort(pair_array(pairs), axis=1))


def reference_load_registry(path):
    """Oracle for `hin.load_registry`."""
    registry = EntityRegistry()
    kinds = {k.value: k for k in EntityKind}
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise RelationParseError(f"{path}:{lineno}: expected kind/index/id, got {raw!r}")
        kind_name, idx_str, ident = parts
        if kind_name not in kinds:
            raise RelationParseError(f"{path}:{lineno}: unknown entity kind {kind_name!r}")
        idx = registry.add(kinds[kind_name], ident)
        if idx != int(idx_str):
            raise SchemaError(
                f"{path}:{lineno}: index {idx_str} for {ident!r} is not dense (expected {idx})")
    return registry


def reference_load_fingerprints(path, registry, mode="discover"):
    """Oracle for `espf.load_fingerprints` on files that give each drug
    once: bitstrings parsed and relation pairs gathered line by line."""
    bit_index = [registry.add(EntityKind.SUBSTRUCTURE, f"fp_{bit:03d}")
                 for bit in range(FINGERPRINT_BITS)]
    rows = {}
    pairs = []
    for lineno, drug, bits in reference_load_pairs(path):
        if len(bits) != FINGERPRINT_BITS or set(bits) - {"0", "1"}:
            raise RelationParseError(
                f"{path}:{lineno}: drug {drug!r} needs a {FINGERPRINT_BITS}-character "
                f"0/1 bitstring, got {len(bits)} characters")
        d = (registry.add(EntityKind.DRUG, drug) if mode == "discover"
             else registry.index_of(EntityKind.DRUG, drug))
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


def reference_load_features(path, registry):
    """Oracle for `espf.load_features` on files that give each drug once
    and declare d0, for a registry of at least one drug."""
    mode = "espf"
    rows = {}
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
    for lineno, drug, bits in reference_load_pairs(path):
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
