"""Classification metrics at a threshold plus rank-based AUROC."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Metrics", "UndefinedMetricError", "auroc", "evaluate"]


class UndefinedMetricError(Exception):
    """The metric is undefined for this label set (single class)."""


@dataclass(frozen=True)
class Metrics:
    precision: float
    recall: float
    f1: float
    auroc: float | None
    threshold: float
    tp: int
    fp: int
    tn: int
    fn: int

    def to_lines(self) -> list[str]:
        def fmt(v):
            return "NA" if v is None else format(v, ".10g")
        return [f"precision\t{fmt(self.precision)}",
                f"recall\t{fmt(self.recall)}",
                f"f1\t{fmt(self.f1)}",
                f"auroc\t{fmt(self.auroc)}",
                f"threshold\t{fmt(self.threshold)}",
                f"tp\t{self.tp}", f"fp\t{self.fp}",
                f"tn\t{self.tn}", f"fn\t{self.fn}"]


def auroc(scores, labels) -> float:
    """Mann-Whitney rank statistic with average ranks for ties:
    (sum of positive ranks - n_pos(n_pos+1)/2) / (n_pos * n_neg)."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n = scores.size
    n_pos = int((labels == 1).sum())
    n_neg = n - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("AUROC needs both classes present")
    _, group, counts = np.unique(scores, return_inverse=True,
                                 return_counts=True, equal_nan=False)
    last = np.cumsum(counts)
    ranks = 0.5 * ((last - counts + 1) + last)  # average of ranks first .. last
    rank_sum = ranks[group][labels == 1].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def evaluate(scores, labels, threshold: float = 0.5) -> Metrics:
    """Confusion counts at the threshold (score >= threshold is positive),
    precision/recall/F1 with zero-denominator conventions, and AUROC when
    both classes are present."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape:
        raise ValueError(f"scores shape {scores.shape} vs labels {labels.shape}")
    if not np.isin(labels, (0, 1)).all():
        raise ValueError("labels must be 0 or 1")
    pred = scores >= threshold
    pos = labels == 1
    tp = int(np.sum(pred & pos))
    fp = int(np.sum(pred & ~pos))
    fn = int(np.sum(~pred & pos))
    tn = int(np.sum(~pred & ~pos))
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall else 0.0)
    try:
        area = auroc(scores, labels)
    except UndefinedMetricError:
        area = None
    return Metrics(precision=precision, recall=recall, f1=f1, auroc=area,
                   threshold=threshold, tp=tp, fp=fp, tn=tn, fn=fn)
