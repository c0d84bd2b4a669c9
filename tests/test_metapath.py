"""Meta-path specs, commuting matrices vs the path-enumeration oracle."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hinddi import autodiff, metapath, pipeline
from hinddi.hin import EntityKind, SchemaError
from hinddi.metapath import (
    DENSE_PRODUCT_SHARE,
    PRODUCT_ROWS,
    TOP_K,
    CommutingMatrix,
    MetaPathSpec,
    MetaPathStep,
    builtin_spec_names,
    builtin_specs,
    commuting_matrix,
    neighbor_graph,
    spec_by_name,
)
from perfbench.workloads import PAPER_SPEC, generate_clustered, write_lines
from tests.conftest import (
    brute_force_path_counts,
    make_hin,
    random_hin,
    reference_neighbor_mask,
)


class TestBuiltinSpecs:
    def test_exactly_four_with_expected_steps(self):
        specs = {s.name: s for s in builtin_specs()}
        assert set(specs) == {"DID-1", "DID-2", "DID-3", "DID-4"}
        assert specs["DID-1"].steps == (MetaPathStep("T"), MetaPathStep("T", True))
        assert specs["DID-2"].steps == (MetaPathStep("T"), MetaPathStep("P"),
                                        MetaPathStep("T", True))
        assert specs["DID-3"].steps == (MetaPathStep("H"), MetaPathStep("H", True))
        assert specs["DID-4"].steps == (MetaPathStep("C"), MetaPathStep("C", True))

    def test_chaining_validated(self):
        with pytest.raises(SchemaError, match="step 0"):
            MetaPathSpec("bad", (MetaPathStep("T"), MetaPathStep("C", True)))
        with pytest.raises(SchemaError, match="drugs"):
            MetaPathSpec("bad", (MetaPathStep("T"),))


class TestCommutingMatrix:
    def test_shared_protein_counts_by_hand(self, toy_hin):
        # d0 targets {p0, p1}, d1 targets {p1}: (T T^t)[0,1] = 1, [0,0] = 2.
        m = commuting_matrix(toy_hin, builtin_specs()[0])
        np.testing.assert_array_equal(m.counts, [[2, 1], [1, 1]])

    def test_no_shared_entities_zero_off_diagonal(self):
        hin = make_hin(3, 3, 0, 0, t_pairs=[(0, 0), (1, 1), (2, 2)])
        m = commuting_matrix(hin, builtin_specs()[0])
        off = m.counts[~np.eye(3, dtype=bool)]
        assert np.all(off == 0)

    def test_drug_with_no_relations_counts_zero(self):
        hin = make_hin(3, 2, 0, 0, t_pairs=[(0, 0), (1, 0)])
        oracle = brute_force_path_counts(hin, builtin_specs()[0])
        for j in range(3):
            assert oracle[2, j] == 0

    def test_toy_brute_force_agrees(self, toy_hin):
        assert brute_force_path_counts(toy_hin, builtin_specs()[0])[0, 1] == 1

    def test_palindromic_specs_give_symmetric_counts(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            hin = random_hin(rng)
            for spec in builtin_specs():
                m = commuting_matrix(hin, spec).counts
                np.testing.assert_array_equal(m, m.T)

    def test_diagonals_equal_degrees(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            hin = random_hin(rng)
            t_deg = np.zeros(hin.n_drugs, dtype=np.int64)
            np.add.at(t_deg, hin.matrix("T").coords[:, 0], 1)
            h_deg = np.zeros(hin.n_drugs, dtype=np.int64)
            np.add.at(h_deg, hin.matrix("H").coords[:, 0], 1)
            specs = {s.name: s for s in builtin_specs()}
            np.testing.assert_array_equal(
                np.diag(commuting_matrix(hin, specs["DID-1"]).counts), t_deg)
            np.testing.assert_array_equal(
                np.diag(commuting_matrix(hin, specs["DID-3"]).counts), h_deg)

    @pytest.mark.parametrize("density", [0.25, 0.04])
    def test_matches_oracle_on_random_instances(self, density):
        # Exhaustive drug-pair comparison on small random networks; at 4%
        # most left factors stay sparse, at 25% most are densified.
        rng = np.random.default_rng(99)
        for _ in range(25):
            hin = random_hin(rng, max_per_kind=8, density=density)
            for spec in builtin_specs():
                counts = commuting_matrix(hin, spec).counts
                oracle = brute_force_path_counts(hin, spec)
                assert counts.dtype == np.int64
                for i in range(hin.n_drugs):
                    for j in range(hin.n_drugs):
                        assert counts[i, j] == oracle[i, j]

    @pytest.mark.parametrize("n_drugs", [3, 30])
    def test_large_counts_match_oracle(self, n_drugs):
        # d0 and d1 share n_shared (all 50, or 12) of the 50 proteins, side
        # effects and substructures, and the proteins form one complete PPI
        # block, so DID-2 counts n_shared * (n_shared - 1) paths between
        # them; every other drug has no relations. Their left factors are
        # 2 n_shared / (50 n_drugs) nonzero: 3 drugs densify the last step,
        # 30 keep it sparse.
        n_shared = 50 if n_drugs == 3 else 12
        shared = [(d, k) for d in (0, 1) for k in range(n_shared)]
        hin = make_hin(n_drugs, 50, 50, 50, t_pairs=shared, c_pairs=shared, h_pairs=shared,
                       p_pairs=[(p, q) for p in range(50) for q in range(p + 1, 50)])
        assert (2 * n_shared / (50 * n_drugs) >= DENSE_PRODUCT_SHARE) == (n_drugs == 3)
        for spec in builtin_specs():
            counts = commuting_matrix(hin, spec).counts
            assert counts.dtype == np.int64
            np.testing.assert_array_equal(counts, brute_force_path_counts(hin, spec))
            assert counts[0, 1] == (n_shared * (n_shared - 1) if spec.name == "DID-2"
                                    else n_shared)
            assert not counts[2:].any() and not counts[:, 2:].any()

    def test_row_blocks_match_sparse_product(self):
        # More drugs than one block holds, past the oracle's size limit, so
        # the integer product of the CSR steps is the reference.
        n = 2 * PRODUCT_ROWS + 3
        rng = np.random.default_rng(3)

        def pairs(rows, cols):
            return list(zip(*np.nonzero(rng.random((rows, cols)) < 0.3)))

        hin = make_hin(n, 12, 15, 20, t_pairs=pairs(n, 12), c_pairs=pairs(n, 15),
                       h_pairs=pairs(n, 20),
                       p_pairs=[(p, q) for p, q in pairs(12, 12) if p < q])
        for spec in builtin_specs():
            steps = [hin.matrix(s.matrix).to_csr() for s in spec.steps]
            steps = [m.T if s.transposed else m for m, s in zip(steps, spec.steps)]
            expected = steps[0]
            for m in steps[1:]:
                expected = expected @ m
            counts = commuting_matrix(hin, spec).counts
            assert counts.dtype == np.int64
            np.testing.assert_array_equal(counts, expected.toarray())

    def test_sparse_last_steps_equal_the_dense_integer_product(self):
        # Shares like paper-513's DID-1 and DID-2: every drug has 2 targets
        # of 120 and 6 side effects of 300, so DID-1, DID-2 and DID-4 keep
        # the last step sparse; numpy's int64 matmul of the dense steps is
        # the reference.
        n, n_proteins, n_side_effects = 200, 120, 300
        rng = np.random.default_rng(17)

        def pairs(rows, cols, per_row):
            return [(i, j) for i in range(rows)
                    for j in rng.choice(cols, per_row, replace=False)]

        hin = make_hin(n, n_proteins, n_side_effects, 4,
                       t_pairs=pairs(n, n_proteins, 2),
                       c_pairs=pairs(n, n_side_effects, 6),
                       p_pairs=[(p, q) for p, q in pairs(n_proteins, n_proteins, 1) if p < q])
        specs = {s.name: s for s in builtin_specs()}
        for name in ("DID-1", "DID-2", "DID-4"):
            steps = [hin.matrix(s.matrix).to_csr().toarray() for s in specs[name].steps]
            steps = [m.T if s.transposed else m for m, s in zip(steps, specs[name].steps)]
            left = steps[0]
            for m in steps[1:-1]:
                left = left @ m
            assert np.count_nonzero(left) < DENSE_PRODUCT_SHARE * left.size
            counts = commuting_matrix(hin, specs[name]).counts
            assert counts.dtype == np.int64
            np.testing.assert_array_equal(counts, left @ steps[-1])

    def test_counts_beyond_exact_float64_rejected(self, monkeypatch):
        hin = make_hin(2, 1, 0, 0, t_pairs=[(0, 0), (1, 0)])
        huge = sp.csr_matrix(np.array([[2 ** 52], [2]], dtype=np.int64))
        monkeypatch.setattr(metapath, "_step_csr",
                            lambda hin, step: huge.T.tocsr() if step.transposed else huge)
        with pytest.raises(SchemaError, match="2\\*\\*53"):
            commuting_matrix(hin, builtin_specs()[0])

    @pytest.mark.parametrize("count", [4095, 2 ** 25 + 1])
    def test_dense_product_exact_on_either_side_of_2_to_24(self, monkeypatch, count):
        # 4095**2 is under 2**24 and runs in float32; (2**25 + 1)**2 =
        # 2**50 + 2**26 + 1 runs in float64, as float32 would round it
        hin = make_hin(2, 1, 0, 0, t_pairs=[(0, 0), (1, 0)])
        step = sp.csr_matrix(np.array([[count], [3]], dtype=np.int64))
        monkeypatch.setattr(metapath, "_step_csr",
                            lambda hin, s: step.T.tocsr() if s.transposed else step)
        counts = commuting_matrix(hin, builtin_specs()[0]).counts
        np.testing.assert_array_equal(counts, [[count * count, 3 * count], [3 * count, 9]])

    def test_hierarchical_spec_against_oracle(self):
        rng = np.random.default_rng(5)
        hin = random_hin(rng, max_per_kind=8, ppi_density=0.3)
        spec = builtin_specs()[1]  # drug-protein-protein-drug
        counts = commuting_matrix(hin, spec).counts
        oracle = brute_force_path_counts(hin, spec)
        for i in range(hin.n_drugs):
            for j in range(hin.n_drugs):
                assert counts[i, j] == oracle[i, j]

    def test_oracle_refuses_large_instances(self):
        hin = make_hin(51, 1, 0, 0)
        with pytest.raises(SchemaError, match="exceeds"):
            brute_force_path_counts(hin, builtin_specs()[0])


class TestNeighborGraph:
    def test_edge_plus_self_loops(self):
        counts = np.zeros((3, 3), dtype=np.int64)
        counts[0, 1] = counts[1, 0] = 3
        g = neighbor_graph(CommutingMatrix("DID-1", counts))
        expect = np.eye(3, dtype=bool)
        expect[0, 1] = expect[1, 0] = True
        np.testing.assert_array_equal(g.adjacency, expect)

    def test_one_shared_path_instance_makes_an_edge(self):
        counts = np.zeros((3, 3), dtype=np.int64)
        counts[0, 2] = counts[2, 0] = 1
        g = neighbor_graph(CommutingMatrix("DID-1", counts))
        expect = np.eye(3, dtype=bool)
        expect[0, 2] = expect[2, 0] = True
        np.testing.assert_array_equal(g.adjacency, expect)

    def test_zero_matrix_gives_identity(self):
        g = neighbor_graph(CommutingMatrix("DID-1", np.zeros((4, 4), dtype=np.int64)))
        np.testing.assert_array_equal(g.adjacency, np.eye(4, dtype=bool))

    def test_every_row_has_a_neighbor(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            hin = random_hin(rng)
            for spec in builtin_specs():
                g = neighbor_graph(commuting_matrix(hin, spec))
                assert g.adjacency.any(axis=1).all()

    @pytest.mark.parametrize("seed", [41, 42, 43])
    def test_canonical_csr_matches_dense_oracle(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(10):
            hin = random_hin(rng)
            for spec in builtin_specs():
                counts = commuting_matrix(hin, spec).counts
                g = neighbor_graph(CommutingMatrix(spec.name, counts), top_k=0)
                mask = g.mask
                assert isinstance(mask, sp.csr_array) and mask.dtype == bool
                assert mask.data.all()
                # sorted and unique within each row: row-major keys strictly rise
                rows = np.repeat(np.arange(hin.n_drugs), np.diff(mask.indptr))
                assert np.all(np.diff(rows * hin.n_drugs + mask.indices) > 0)
                expect = (counts > 0) | np.eye(hin.n_drugs, dtype=bool)
                np.testing.assert_array_equal(mask.toarray(), expect)
                np.testing.assert_array_equal(g.adjacency, expect)
                assert g.n_nodes == hin.n_drugs

    @pytest.mark.parametrize("kind", ["random", "empty off the diagonal", "complete"])
    def test_columns_equal_the_flat_index_formula(self, kind):
        # the CSR arrays are byte-identical to those built from the column
        # indices of np.flatnonzero over the flattened mask
        n = 37
        counts = {"random": np.random.default_rng(5).integers(0, 2, (n, n)),
                  "empty off the diagonal": np.zeros((n, n), dtype=np.int64),
                  "complete": np.ones((n, n), dtype=np.int64)}[kind]
        adj = counts >= 1
        np.fill_diagonal(adj, True)
        idx = sp.get_index_dtype(maxval=adj.size)
        cols = (np.flatnonzero(adj) % n).astype(idx)
        mask = neighbor_graph(CommutingMatrix("DID-1", counts), top_k=0).mask
        assert mask.indices.dtype == cols.dtype
        assert mask.indices.tobytes() == cols.tobytes()
        assert mask.indptr.tobytes() == np.concatenate(
            [[0], np.cumsum(adj.sum(axis=1))]).astype(idx).tobytes()

    def test_adjacency_is_read_only(self):
        g = neighbor_graph(CommutingMatrix("DID-1", np.zeros((3, 3), dtype=np.int64)))
        with pytest.raises(ValueError, match="read-only"):
            g.adjacency[0, 1] = True

    def test_negative_top_k_rejected(self):
        with pytest.raises(ValueError, match="top_k must be >= 0, got -1"):
            neighbor_graph(CommutingMatrix("DID-1", np.zeros((2, 2), dtype=np.int64)),
                           top_k=-1)


def flat_index_csr(adj):
    """indices and indptr bytes of a dense bool mask, from np.flatnonzero."""
    n = len(adj)
    idx = sp.get_index_dtype(maxval=adj.size)
    return ((np.flatnonzero(adj) % n).astype(idx).tobytes(),
            np.concatenate([[0], np.cumsum(adj.sum(axis=1))]).astype(idx).tobytes())


@st.composite
def count_matrices(draw):
    """Square count matrices, symmetric like every built-in meta-path's or
    not. Small count ranges give many equal PathSim scores, counts up to
    2**40 rows too large for packed keys; a zeroed diagonal beside positive
    counts is what DID-2 can give."""
    n = draw(st.integers(1, 24))
    top = draw(st.sampled_from([1, 3, 40, 2 ** 40]))
    counts = draw(arrays(np.int64, (n, n), elements=st.integers(0, top)))
    if draw(st.booleans()):
        counts = np.triu(counts) + np.triu(counts, 1).T
    if draw(st.booleans()):
        np.fill_diagonal(counts, 0)
    return counts


class TestTopKPathSim:
    @settings(max_examples=300, deadline=None)
    @given(counts=count_matrices(), top_k=st.integers(0, 4) | st.integers(0, 26))
    def test_matches_the_brute_force_oracle(self, counts, top_k):
        expect = flat_index_csr(reference_neighbor_mask(counts, top_k))
        # packed keys where the counts allow them, and sorting everywhere
        for packed_bits in (metapath.PACKED_BITS, 0):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(metapath, "PACKED_BITS", packed_bits)
                mask = neighbor_graph(CommutingMatrix("DID-2", counts), top_k).mask
            assert (mask.indices.tobytes(), mask.indptr.tobytes()) == expect
            assert mask.dtype == bool and mask.data.all()

    @settings(max_examples=150, deadline=None)
    @given(counts=count_matrices(), top_k=st.integers(1, 8))
    def test_self_loops_and_symmetry_in_canonical_csr(self, counts, top_k):
        mask = neighbor_graph(CommutingMatrix("DID-3", counts), top_k).mask
        n = len(counts)
        assert isinstance(mask, sp.csr_array) and mask.has_canonical_format
        rows = np.repeat(np.arange(n), np.diff(mask.indptr))
        assert np.all(np.diff(rows * n + mask.indices) > 0)
        adj = mask.toarray()
        assert adj.diagonal().all()
        if (counts == counts.T).all():
            assert (adj == adj.T).all()
            # a cut row keeps k, a light row holds at most k, and each kept
            # edge adds at most its reverse
            assert mask.nnz <= (2 * top_k + 1) * n
        binarized = (counts > 0) | np.eye(n, dtype=bool)
        assert not (adj & ~(binarized | binarized.T)).any()
        # a row with at most top_k candidates is the binarized row
        light = binarized.sum(axis=1) <= top_k + 1
        assert (adj[light] == binarized[light]).all()
        assert (adj[~light].sum(axis=1) >= top_k + 1).all()

    def test_score_floor_covers_a_zero_diagonal(self):
        # no diagonal count: every denominator is the floor 1, so each drug
        # keeps the two others of its triangle, whose counts are highest
        counts = np.ones((6, 6), dtype=np.int64)
        triangles = np.kron(np.eye(2, dtype=np.int64), np.ones((3, 3), dtype=np.int64))
        counts += 8 * triangles
        np.fill_diagonal(counts, 0)
        adj = neighbor_graph(CommutingMatrix("DID-2", counts), top_k=2).adjacency
        np.testing.assert_array_equal(adj, triangles.astype(bool))

    def test_a_cut_that_gives_every_drug_back_keeps_the_binarized_row(self):
        # drug 0 has 3 candidates, each with only drug 0 as its own: cut to
        # 2, it gets the third back, so its row is the binarized one
        counts = np.diag([4, 4, 4, 4, 4]).astype(np.int64)
        counts[0, 1:4] = counts[1:4, 0] = [3, 2, 1]
        adj = neighbor_graph(CommutingMatrix("DID-2", counts), top_k=2).adjacency
        np.testing.assert_array_equal(adj, (counts > 0) | np.eye(5, dtype=bool))
        np.testing.assert_array_equal(adj, reference_neighbor_mask(counts, 2))
        # drug 3 no longer holds drug 0, so it gives nothing back: drug 0 is cut
        counts[3, 0] = 0
        adj = neighbor_graph(CommutingMatrix("DID-2", counts), top_k=2).adjacency
        np.testing.assert_array_equal(np.flatnonzero(adj[0]), [0, 1, 2])
        np.testing.assert_array_equal(adj, reference_neighbor_mask(counts, 2))

    def test_a_cut_row_beside_another_cut_row_is_scored(self):
        # drug 0's candidates are drug 1, which holds only drug 0, and drug
        # 2, which has more than k itself and keeps drug 3: cut, drug 0
        # keeps drug 1 and gets nothing back from drug 2
        counts = np.diag([10] * 6).astype(np.int64)
        for i, j, c in ((0, 1, 5), (0, 2, 1), (2, 3, 9), (2, 4, 2)):
            counts[i, j] = counts[j, i] = c
        adj = neighbor_graph(CommutingMatrix("DID-3", counts), top_k=1).adjacency
        np.testing.assert_array_equal(np.flatnonzero(adj[0]), [0, 1])
        np.testing.assert_array_equal(np.flatnonzero(adj[2]), [2, 3, 4])
        np.testing.assert_array_equal(adj, reference_neighbor_mask(counts, 1))

    def test_counts_too_large_to_pack_are_sorted(self):
        # with no diagonal the scores are the counts; 2**51 and 2**51 + 1
        # are 2 float64 steps apart, which packed keys would call a tie,
        # giving drug 0 column 1 instead of 2
        counts = np.zeros((4, 4), dtype=np.int64)
        counts[0, 1:] = [2 ** 51, 2 ** 51 + 1, 5]
        adj = neighbor_graph(CommutingMatrix("DID-2", counts), top_k=1).adjacency
        np.testing.assert_array_equal(np.flatnonzero(adj[0]), [0, 2])
        np.testing.assert_array_equal(adj, reference_neighbor_mask(counts, 1))

    def test_block_edges_match_the_oracle(self, monkeypatch):
        # rows scored a few at a time, so that blocks end mid-matrix
        counts = np.random.default_rng(8).integers(0, 4, (40, 40))
        counts = counts + counts.T
        expect = reference_neighbor_mask(counts, 5)
        for entries in (1, 40 * 3 + 7, 40 * 40):
            monkeypatch.setattr(metapath, "SCORE_ENTRIES", entries)
            adj = neighbor_graph(CommutingMatrix("DID-3", counts), 5).adjacency
            np.testing.assert_array_equal(adj, expect)

    def test_default_is_top_16(self):
        assert TOP_K == 16
        counts = np.ones((40, 40), dtype=np.int64)
        mask = neighbor_graph(CommutingMatrix("DID-3", counts)).mask
        # all scores tie: each drug keeps the 16 lowest other columns, so
        # the union gives drugs 0-15 every drug and the others 0-15 and
        # themselves
        np.testing.assert_array_equal(mask.toarray(), reference_neighbor_mask(counts, 16))
        assert np.diff(mask.indptr)[[0, 15, 16, 39]].tolist() == [40, 40, 17, 17]

    def test_paper_scale_graphs_stay_under_sparse_density(self, tmp_path):
        # (2k + 1) n edges would still be 6.4% of 513^2; the generated
        # paper-count network keeps all four graphs under SPARSE_DENSITY,
        # each the oracle's. DID-3 and DID-4 cut every row, scored in 17
        # blocks of SCORE_ENTRIES // 513 = 31 rows.
        write_lines(generate_clustered(PAPER_SPEC, 0), tmp_path)
        hin = pipeline.load_hin_inputs(pipeline.InputPaths.in_dir(tmp_path))
        graphs = pipeline.make_graphs(hin, builtin_spec_names())
        assert sorted(graphs) == ["DID-1", "DID-2", "DID-3", "DID-4"]
        for name, graph in graphs.items():
            n = graph.mask.shape[0]
            assert n == PAPER_SPEC.n_drugs
            assert graph.mask.nnz < autodiff.SPARSE_DENSITY * n * n, name
            counts = commuting_matrix(hin, spec_by_name(name)).counts
            if name in ("DID-3", "DID-4"):
                candidates = np.count_nonzero(counts, axis=1) - (np.diagonal(counts) > 0)
                assert (candidates > TOP_K).all(), name
            np.testing.assert_array_equal(graph.mask.toarray(),
                                          reference_neighbor_mask(counts, TOP_K), err_msg=name)
