"""Meta-path specs, commuting matrices vs the path-enumeration oracle."""

import numpy as np
import pytest
import scipy.sparse as sp

from hinddi import metapath
from hinddi.hin import EntityKind, SchemaError
from hinddi.metapath import (
    DENSE_PRODUCT_SHARE,
    PRODUCT_ROWS,
    CommutingMatrix,
    MetaPathSpec,
    MetaPathStep,
    builtin_specs,
    commuting_matrix,
    neighbor_graph,
)
from tests.conftest import brute_force_path_counts, make_hin, random_hin


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
        # d0 and d1 share all 50 proteins, side effects and substructures,
        # and the proteins form one complete PPI block, so DID-2 counts
        # 50 * 49 paths between them; every other drug has no relations.
        # Their left factors are 2 / n_drugs nonzero: 3 drugs densify the
        # last step, 30 keep it sparse.
        full = [(d, k) for d in (0, 1) for k in range(50)]
        hin = make_hin(n_drugs, 50, 50, 50, t_pairs=full, c_pairs=full, h_pairs=full,
                       p_pairs=[(p, q) for p in range(50) for q in range(p + 1, 50)])
        assert (2 / n_drugs >= DENSE_PRODUCT_SHARE) == (n_drugs == 3)
        for spec in builtin_specs():
            counts = commuting_matrix(hin, spec).counts
            assert counts.dtype == np.int64
            np.testing.assert_array_equal(counts, brute_force_path_counts(hin, spec))
            assert counts[0, 1] == (50 * 49 if spec.name == "DID-2" else 50)
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
        # Shares like paper-513's: every drug has 2 targets of 120 and 15
        # side effects of 300, so DID-1, DID-2 and DID-4 keep the last step
        # sparse; numpy's int64 matmul of the dense steps is the reference.
        n, n_proteins, n_side_effects = 200, 120, 300
        rng = np.random.default_rng(17)

        def pairs(rows, cols, per_row):
            return [(i, j) for i in range(rows)
                    for j in rng.choice(cols, per_row, replace=False)]

        hin = make_hin(n, n_proteins, n_side_effects, 4,
                       t_pairs=pairs(n, n_proteins, 2),
                       c_pairs=pairs(n, n_side_effects, 15),
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
        g = neighbor_graph(CommutingMatrix("DID-1", counts), threshold=1)
        expect = np.eye(3, dtype=bool)
        expect[0, 1] = expect[1, 0] = True
        np.testing.assert_array_equal(g.adjacency, expect)

    def test_threshold_filters(self):
        counts = np.zeros((3, 3), dtype=np.int64)
        counts[0, 1] = counts[1, 0] = 3
        g = neighbor_graph(CommutingMatrix("DID-1", counts), threshold=4)
        np.testing.assert_array_equal(g.adjacency, np.eye(3, dtype=bool))

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

    @pytest.mark.parametrize("threshold", [1, 2, 3])
    def test_canonical_csr_matches_dense_oracle(self, threshold):
        rng = np.random.default_rng(40 + threshold)
        for _ in range(10):
            hin = random_hin(rng)
            for spec in builtin_specs():
                counts = commuting_matrix(hin, spec).counts
                g = neighbor_graph(CommutingMatrix(spec.name, counts), threshold)
                mask = g.mask
                assert isinstance(mask, sp.csr_array) and mask.dtype == bool
                assert mask.data.all()
                # sorted and unique within each row: row-major keys strictly rise
                rows = np.repeat(np.arange(hin.n_drugs), np.diff(mask.indptr))
                assert np.all(np.diff(rows * hin.n_drugs + mask.indices) > 0)
                expect = (counts >= threshold) | np.eye(hin.n_drugs, dtype=bool)
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
        mask = neighbor_graph(CommutingMatrix("DID-1", counts)).mask
        assert mask.indices.dtype == cols.dtype
        assert mask.indices.tobytes() == cols.tobytes()
        assert mask.indptr.tobytes() == np.concatenate(
            [[0], np.cumsum(adj.sum(axis=1))]).astype(idx).tobytes()

    def test_adjacency_is_read_only(self):
        g = neighbor_graph(CommutingMatrix("DID-1", np.zeros((3, 3), dtype=np.int64)))
        with pytest.raises(ValueError, match="read-only"):
            g.adjacency[0, 1] = True

    def test_bad_threshold_rejected(self):
        with pytest.raises(ValueError):
            neighbor_graph(CommutingMatrix("DID-1", np.zeros((2, 2), dtype=np.int64)),
                           threshold=0)
