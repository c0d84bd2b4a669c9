"""The two split protocols and their negative sampling."""

import numpy as np
import pytest

import warnings

from hinddi import data
from hinddi.data import SplitError, purpose_rng, split_cold_start, split_edges
from tests.conftest import (
    reference_split_cold_start,
    reference_split_edges,
    setdiff_without,
)


def pair_set(pairs, label=None):
    return {(int(i), int(j)) for i, j, lab in pairs if label is None or lab == label}


def parts(bundle):
    return bundle.train, bundle.validation, bundle.test


def random_network(seed, n_drugs, n_pairs):
    """`n_pairs` distinct canonical pairs among `n_drugs` drugs, sorted."""
    rng = np.random.default_rng(seed)
    pairs = set()
    while len(pairs) < n_pairs:
        i, j = rng.integers(n_drugs, size=2)
        if i != j:
            pairs.add((min(int(i), int(j)), max(int(i), int(j))))
    return sorted(pairs)


def seeded_network():
    """The seeded 200-drug network: distinct pairs from 1,500 draws."""
    rng = np.random.default_rng(200)
    return sorted({(int(min(i, j)), int(max(i, j)))
                   for i, j in rng.integers(200, size=(1500, 2)) if i != j})


class TestSampleNegatives:
    """Negative sampling, through the splits: exclusion, count, scale and
    feasibility."""

    def test_forced_by_exclusion(self):
        # 4 drugs, a 3-pair star: the 3 negatives must be the other 3 pairs
        star = [(0, 1), (0, 2), (0, 3)]
        bundle = split_edges(star, 4, ratios=(1 / 3, 1 / 3, 1 / 3), seed=0)
        negs = [pair_set(p, 0) for p in parts(bundle)]
        assert [len(n) for n in negs] == [1, 1, 1]
        assert negs[0] | negs[1] | negs[2] == {(1, 2), (1, 3), (2, 3)}

    def test_count_zero(self):
        # an empty partition draws no negatives
        with pytest.warns(UserWarning, match="empty validation"):
            bundle = split_edges([(0, 1), (0, 2)], 4, ratios=(0.5, 0.0, 0.5), seed=0)
        assert bundle.validation.shape == (0, 3)
        assert len(pair_set(bundle.train, 0)) == len(pair_set(bundle.test, 0)) == 1

    def test_no_collisions_at_scale(self):
        positives = set(random_network(1, 100, 1600))
        bundle = split_edges(positives, 100, seed=1)
        negs = np.concatenate([p[p[:, 2] == 0] for p in parts(bundle)])
        assert len(negs) == 1600
        assert not (pair_set(negs) & positives)
        assert len(pair_set(negs)) == 1600  # without replacement

    def test_infeasible_count_rejected(self):
        # 4 of the 6 pairs of 4 drugs leave 2 for 4 train negatives
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(SplitError, match="cannot sample 4 negatives from 2"):
                split_edges([(0, 1), (0, 2), (0, 3), (1, 2)], 4,
                            ratios=(1.0, 0.0, 0.0), seed=0)

    def test_infeasible_cold_start_rejected(self):
        # every pair is positive, so no partition has a negative to draw
        complete = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        with pytest.raises(SplitError, match="cannot sample"):
            split_cold_start(complete, 4, 0.2, seed=0)


class TestSplitEdges:
    def ddis(self, n=10):
        return [(k, k + 10) for k in range(n)]

    def test_partition_sizes_80_10_10(self):
        bundle = split_edges(self.ddis(), 30, seed=0)
        assert len(pair_set(bundle.train, 1)) == 8
        assert len(pair_set(bundle.validation, 1)) == 1
        assert len(pair_set(bundle.test, 1)) == 1

    def test_array_layout(self):
        bundle = split_edges(random_network(2, 30, 40), 30, seed=2)
        for part in parts(bundle):
            assert part.dtype == np.int64 and part.ndim == 2 and part.shape[1] == 3
            m = len(part) // 2
            assert (part[:m, 2] == 1).all() and (part[m:, 2] == 0).all()
            assert (part[:, 0] < part[:, 1]).all()

    def test_one_to_one_negatives(self):
        bundle = split_edges(self.ddis(), 30, seed=0)
        for part in (bundle.train, bundle.validation, bundle.test):
            assert len(pair_set(part, 0)) == len(pair_set(part, 1))

    def test_partitions_disjoint_and_cover_positives(self):
        positives = set(self.ddis())
        bundle = split_edges(positives, 30, seed=3)
        tr, va, te = (pair_set(b, 1) for b in
                      (bundle.train, bundle.validation, bundle.test))
        assert tr | va | te == positives
        assert not (tr & va) and not (tr & te) and not (va & te)
        negs = [pair_set(b, 0) for b in (bundle.train, bundle.validation, bundle.test)]
        assert not (negs[0] & negs[1]) and not (negs[0] & negs[2]) and not (negs[1] & negs[2])
        for ns in negs:
            assert not (ns & positives)

    def test_same_seed_identical(self):
        a = split_edges(self.ddis(), 30, seed=7)
        b = split_edges(self.ddis(), 30, seed=7)
        for x, y in zip(parts(a), parts(b)):
            np.testing.assert_array_equal(x, y)

    def test_bad_ratios_rejected(self):
        with pytest.raises(SplitError):
            split_edges(self.ddis(), 30, ratios=(0.5, 0.5, 0.5), seed=0)

    def test_empty_partition_warns(self):
        with pytest.warns(UserWarning, match="empty"):
            split_edges([(0, 1), (1, 2)], 5, seed=0)


class TestSplitColdStart:
    def planted(self, n_drugs=20, seed=5):
        rng = np.random.default_rng(seed)
        ddis = set()
        while len(ddis) < 60:
            i, j = rng.integers(n_drugs, size=2)
            if i != j:
                ddis.add((min(int(i), int(j)), max(int(i), int(j))))
        return sorted(ddis)

    def test_held_out_size_is_ceiling(self):
        bundle = split_cold_start(self.planted(), 20, 0.2, seed=0)
        assert len(bundle.held_out) == 4
        bundle = split_cold_start(self.planted(), 20, 0.01, seed=0)
        assert len(bundle.held_out) == 1  # ceiling keeps at least one drug

    def test_no_train_pair_touches_held_out(self):
        bundle = split_cold_start(self.planted(), 20, 0.2, seed=1)
        held = bundle.held_out
        for part in (bundle.train, bundle.validation):
            for i, j, _ in part:
                assert i not in held and j not in held

    def test_every_test_positive_touches_held_out(self):
        bundle = split_cold_start(self.planted(), 20, 0.2, seed=2)
        held = bundle.held_out
        test_pos = pair_set(bundle.test, 1)
        assert test_pos
        for i, j in test_pos:
            assert i in held or j in held

    def test_test_negatives_follow_touching_rule(self):
        bundle = split_cold_start(self.planted(), 20, 0.2, seed=3)
        held = bundle.held_out
        for i, j in pair_set(bundle.test, 0):
            assert i in held or j in held

    def test_all_positives_hidden_is_error(self):
        with pytest.raises(SplitError, match="hides every positive"):
            split_cold_start([(0, 1)], 2, 0.9, seed=0)

    def test_scale_fraction_of_drug_count(self):
        # 20% of 513 drugs leaves ceil(0.2 * 513) = 103 held out.
        rng = np.random.default_rng(11)
        ddis = {(int(min(i, j)), int(max(i, j)))
                for i, j in rng.integers(513, size=(4000, 2)) if i != j}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            bundle = split_cold_start(sorted(ddis), 513, 0.2, seed=0)
        assert len(bundle.held_out) == 103

    def test_deterministic(self):
        a = split_cold_start(self.planted(), 20, 0.2, seed=9)
        b = split_cold_start(self.planted(), 20, 0.2, seed=9)
        np.testing.assert_array_equal(a.test, b.test)
        assert a.held_out == b.held_out


class TestPurposeStreams:
    def test_streams_are_independent(self):
        # consuming one purpose's stream must not shift another's draws
        a = purpose_rng(0, "split").random(4)
        _ = purpose_rng(0, "negatives").random(100)
        b = purpose_rng(0, "split").random(4)
        np.testing.assert_array_equal(a, b)

    def test_streams_differ_between_purposes(self):
        a = purpose_rng(0, "split").random(4)
        b = purpose_rng(0, "dropout").random(4)
        assert not np.array_equal(a, b)


class TestCandidatesMinusTaken:
    """Negatives drawn from the candidates minus the taken pair ids equal a
    draw from `np.setdiff1d` of the two."""

    @pytest.fixture
    def network(self):
        return seeded_network()

    def bundles(self, network, seed):
        return (split_edges(network, 200, seed=seed),
                split_cold_start(network, 200, 0.2, seed=seed))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_splits_match_setdiff_reference(self, network, seed, monkeypatch):
        got = self.bundles(network, seed)
        monkeypatch.setattr(data, "_without", setdiff_without)
        expected = self.bundles(network, seed)
        for a, b in zip(got, expected):
            for x, y in zip(parts(a), parts(b)):
                np.testing.assert_array_equal(x, y)
            assert a.held_out == b.held_out


class TestListReference:
    """The array splits equal the list-based reference row for row."""

    NETWORKS = {"seeded-200": (seeded_network, 200),
                "paper-513": (lambda: random_network(513, 513, 11845), 513)}

    @pytest.fixture(scope="class", params=sorted(NETWORKS))
    def network(self, request):
        make, n_drugs = self.NETWORKS[request.param]
        return make(), n_drugs

    @pytest.mark.parametrize("protocol", ["edges", "coldstart"])
    @pytest.mark.parametrize("seed", [0, 1, 5])
    def test_partitions_equal_reference(self, network, protocol, seed):
        pairs, n_drugs = network
        # one pair in three given as (j, i); the reference reads a list,
        # the split an array, as `Hin.ddi` holds them
        given = [(j, i) if k % 3 == 0 else (i, j) for k, (i, j) in enumerate(pairs)]
        split, reference = {"edges": (split_edges, reference_split_edges),
                            "coldstart": (split_cold_start, reference_split_cold_start)}[protocol]
        got = split(np.array(given), n_drugs, seed=seed)
        expected = reference(given, n_drugs, seed=seed)
        for x, y in zip(parts(got), parts(expected)):
            assert x.tolist() == [list(row) for row in y]
        assert got.held_out == expected.held_out
        assert len(got.train) > 0 and len(got.test) > 0
