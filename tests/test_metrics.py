"""Threshold metrics and rank-based AUROC against the pair-count oracle."""

import numpy as np
import pytest

from hinddi.metrics import Metrics, UndefinedMetricError, auroc, evaluate
from tests.conftest import reference_auroc


def auroc_oracle(scores, labels):
    """Brute force over all positive-negative pairs: wins plus half-ties."""
    pos = [s for s, l in zip(scores, labels) if l == 1]
    neg = [s for s, l in zip(scores, labels) if l == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


class TestAuroc:
    def test_perfect_separation(self):
        area = auroc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
        # a Python float, which prints as a number, not np.float64(...)
        assert area == 1.0 and type(area) is float

    def test_all_equal_scores_half(self):
        assert auroc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(UndefinedMetricError):
            auroc([0.1, 0.9], [1, 1])

    def test_matches_pair_count_oracle_with_heavy_ties(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            n = int(rng.integers(4, 40))
            # quantized scores force plenty of ties
            scores = rng.integers(0, 5, size=n) / 4.0
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            assert auroc(scores, labels) == auroc_oracle(scores, labels)

    @pytest.mark.parametrize("n", [2, 7, 2370])
    def test_bit_identical_to_tie_loop_reference(self, n):
        rng = np.random.default_rng(n)
        for levels in (1, 2, 3, 17, 1000):
            # few score levels force long tie groups; -0.0 ties with 0.0
            scores = rng.integers(0, levels, size=n) / max(levels - 1, 1) - 0.5
            scores[rng.random(n) < 0.1] = -0.0
            scores[rng.random(n) < 0.1] = 0.0
            labels = rng.integers(0, 2, size=n)
            labels[:2] = (0, 1)
            assert auroc(scores, labels) == reference_auroc(scores, labels)

    def test_matches_oracle_on_continuous_scores(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(4, 30))
            scores = rng.random(n)
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            assert auroc(scores, labels) == auroc_oracle(scores, labels)


class TestEvaluate:
    def test_closed_form_counts(self):
        # TP=2, FP=1, FN=1 at threshold 0.5
        scores = np.array([0.9, 0.8, 0.7, 0.2, 0.1])
        labels = np.array([1, 1, 0, 1, 0])
        m = evaluate(scores, labels)
        assert (m.tp, m.fp, m.fn, m.tn) == (2, 1, 1, 1)
        assert m.precision == pytest.approx(2 / 3)
        assert m.recall == pytest.approx(2 / 3)
        assert m.f1 == pytest.approx(2 / 3)

    def test_perfectly_separable(self):
        m = evaluate(np.array([0.9, 0.8, 0.1, 0.2]), np.array([1, 1, 0, 0]))
        assert m.precision == m.recall == m.f1 == m.auroc == 1.0

    def test_zero_denominators(self):
        m = evaluate(np.array([0.1, 0.2]), np.array([0, 0]))
        assert m.precision == 0.0 and m.recall == 0.0 and m.f1 == 0.0
        assert m.auroc is None  # single class

    def test_counts_match_independent_recount(self):
        rng = np.random.default_rng(2)
        scores = rng.random(200)
        labels = rng.integers(0, 2, size=200)
        m = evaluate(scores, labels)
        tp = sum(1 for s, l in zip(scores, labels) if s >= 0.5 and l == 1)
        fp = sum(1 for s, l in zip(scores, labels) if s >= 0.5 and l == 0)
        fn = sum(1 for s, l in zip(scores, labels) if s < 0.5 and l == 1)
        tn = sum(1 for s, l in zip(scores, labels) if s < 0.5 and l == 0)
        assert (m.tp, m.fp, m.fn, m.tn) == (tp, fp, fn, tn)
        assert m.auroc == auroc_oracle(scores, labels)

    def test_f1_is_harmonic_mean(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            m = evaluate(rng.random(50), rng.integers(0, 2, size=50))
            if m.precision + m.recall:
                expect = 2 * m.precision * m.recall / (m.precision + m.recall)
                assert m.f1 == pytest.approx(expect)
            for v in (m.precision, m.recall, m.f1):
                assert 0 <= v <= 1

    def test_metric_lines_format(self):
        m = evaluate(np.array([0.9, 0.1]), np.array([1, 0]))
        lines = m.to_lines()
        assert "precision\t1" in lines
        assert any(line.startswith("auroc\t") for line in lines)
