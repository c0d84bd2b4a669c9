"""Negative sampling and the two split protocols."""

import numpy as np
import pytest

import warnings

from hinddi import data
from hinddi.data import (
    LabeledPair,
    SplitError,
    purpose_rng,
    sample_negatives,
    split_cold_start,
    split_edges,
)
from tests.conftest import setdiff_without


def pair_set(pairs, label=None):
    return {(p.i, p.j) for p in pairs if label is None or p.label == label}


class TestSampleNegatives:
    def test_forced_by_exclusion(self):
        negs = sample_negatives(3, [(0, 1)], 2, purpose_rng(0, "negatives"))
        assert pair_set(negs) == {(0, 2), (1, 2)}
        assert all(p.label == 0 for p in negs)

    def test_count_zero(self):
        assert sample_negatives(3, [(0, 1)], 0, purpose_rng(0, "negatives")) == []

    def test_no_collisions_at_scale(self):
        rng = np.random.default_rng(1)
        n = 100
        positives = set()
        while len(positives) < 800:
            i, j = rng.integers(n, size=2)
            if i != j:
                positives.add((min(int(i), int(j)), max(int(i), int(j))))
        negs = sample_negatives(n, positives, 3000, purpose_rng(1, "negatives"))
        assert len(negs) == 3000
        assert not (pair_set(negs) & positives)
        assert len(pair_set(negs)) == 3000  # without replacement

    def test_infeasible_count_rejected(self):
        with pytest.raises(SplitError, match="cannot sample"):
            sample_negatives(3, [(0, 1)], 3, purpose_rng(0, "negatives"))


class TestSplitEdges:
    def ddis(self, n=10):
        return [(k, k + 10) for k in range(n)]

    def test_partition_sizes_80_10_10(self):
        bundle = split_edges(self.ddis(), 30, seed=0)
        assert len(pair_set(bundle.train, 1)) == 8
        assert len(pair_set(bundle.validation, 1)) == 1
        assert len(pair_set(bundle.test, 1)) == 1

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
        assert a.train == b.train and a.validation == b.validation and a.test == b.test

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
            for p in part:
                assert p.i not in held and p.j not in held

    def test_every_test_positive_touches_held_out(self):
        bundle = split_cold_start(self.planted(), 20, 0.2, seed=2)
        held = bundle.held_out
        test_pos = [p for p in bundle.test if p.label == 1]
        assert test_pos
        for p in test_pos:
            assert p.i in held or p.j in held

    def test_test_negatives_follow_touching_rule(self):
        bundle = split_cold_start(self.planted(), 20, 0.2, seed=3)
        held = bundle.held_out
        for p in bundle.test:
            if p.label == 0:
                assert p.i in held or p.j in held

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
        assert a.test == b.test and a.held_out == b.held_out


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
        rng = np.random.default_rng(200)
        return sorted({(int(min(i, j)), int(max(i, j)))
                       for i, j in rng.integers(200, size=(1500, 2)) if i != j})

    def bundles(self, network, seed):
        return (split_edges(network, 200, seed=seed),
                split_cold_start(network, 200, 0.2, seed=seed))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_splits_match_setdiff_reference(self, network, seed, monkeypatch):
        got = self.bundles(network, seed)
        monkeypatch.setattr(data, "_without", setdiff_without)
        expected = self.bundles(network, seed)
        for a, b in zip(got, expected):
            assert (a.train, a.validation, a.test, a.held_out) == \
                (b.train, b.validation, b.test, b.held_out)

    def test_sample_negatives_with_duplicate_exclusions(self, network, monkeypatch):
        exclude = network[100:300] + network[200:250] + [(j, i) for i, j in network[:20]]
        got = sample_negatives(200, network[:400], 5000, purpose_rng(4, "negatives"),
                               exclude=exclude)
        monkeypatch.setattr(data, "_without", setdiff_without)
        assert got == sample_negatives(200, network[:400], 5000,
                                       purpose_rng(4, "negatives"), exclude=exclude)
