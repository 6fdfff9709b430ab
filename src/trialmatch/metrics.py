"""Binary classification metrics with exact tie handling.

Thresholded metrics predict positive when prob >= threshold (inclusive).
AUROC is the Mann-Whitney statistic computed by rank sum with tie correction,
exactly equal to the pairwise definition (ties credit 0.5). Average precision
is step-wise with no interpolation and takes each distinct score as one
threshold, so tied scores never depend on input order. Undefined metrics are
reported as absent, never coerced to 0 or 0.5.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DataError, UndefinedMetricError

CSV_COLUMNS = (
    "n",
    "n_pos",
    "threshold",
    "precision",
    "recall",
    "f1_pos",
    "f1_neg",
    "macro_f1",
    "auroc",
    "auprc",
)


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    tn: int
    fn: int
    threshold: float = 0.5

    @property
    def n(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


@dataclass(frozen=True)
class MetricReport:
    n: int
    n_positive: int
    threshold: float
    precision: float
    recall: float
    f1_positive: float
    f1_negative: float
    macro_f1: float
    auroc: Optional[float]
    auprc: Optional[float]

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "n_pos": self.n_positive,
            "threshold": self.threshold,
            "precision": self.precision,
            "recall": self.recall,
            "f1_pos": self.f1_positive,
            "f1_neg": self.f1_negative,
            "macro_f1": self.macro_f1,
            "auroc": self.auroc,
            "auprc": self.auprc,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    def to_csv_row(self) -> list[str]:
        out = []
        for column in CSV_COLUMNS:
            value = self.to_dict()[column]
            out.append("" if value is None else repr(value) if isinstance(value, float) else str(value))
        return out


def _check_pair(labels, scores) -> tuple[np.ndarray, np.ndarray]:
    y = np.asarray(labels, dtype=np.float64).reshape(-1)
    s = np.asarray(scores, dtype=np.float64).reshape(-1)
    if y.shape != s.shape:
        raise DataError(f"{y.shape[0]} labels but {s.shape[0]} scores")
    if y.shape[0] == 0:
        raise DataError("metrics need at least one sample")
    if not np.all(np.isin(y, (0.0, 1.0))):
        raise DataError("labels must be 0 or 1")
    if not np.all(np.isfinite(s)):
        raise DataError("scores must be finite")
    return y, s


def confusion(labels, probs, threshold: float = 0.5) -> ConfusionMatrix:
    """Counts under the inclusive rule: predict positive iff prob >= threshold."""
    y, p = _check_pair(labels, probs)
    pred = p >= threshold
    pos = y == 1.0
    return ConfusionMatrix(
        tp=int(np.sum(pred & pos)),
        fp=int(np.sum(pred & ~pos)),
        tn=int(np.sum(~pred & ~pos)),
        fn=int(np.sum(~pred & pos)),
        threshold=threshold,
    )


def precision_recall_f1(cm: ConfusionMatrix) -> tuple[float, float, float]:
    """Standard formulas with the 0/0 -> 0 convention."""
    precision = cm.tp / (cm.tp + cm.fp) if (cm.tp + cm.fp) > 0 else 0.0
    recall = cm.tp / (cm.tp + cm.fn) if (cm.tp + cm.fn) > 0 else 0.0
    f1 = (
        2.0 * precision * recall / (precision + recall)
        if (precision + recall) > 0
        else 0.0
    )
    return precision, recall, f1


def _complement(cm: ConfusionMatrix) -> ConfusionMatrix:
    return ConfusionMatrix(tp=cm.tn, fp=cm.fn, tn=cm.tp, fn=cm.fp, threshold=cm.threshold)


def macro_f1(labels, probs, threshold: float = 0.5) -> float:
    """Unweighted mean of the positive-class and negative-class F1."""
    cm = confusion(labels, probs, threshold)
    _, _, f1_pos = precision_recall_f1(cm)
    _, _, f1_neg = precision_recall_f1(_complement(cm))
    return (f1_pos + f1_neg) / 2.0


def _tied_ranks(scores: np.ndarray) -> np.ndarray:
    """1-based ranks with ties replaced by the group average.

    All ranks are integer multiples of 0.5, so sums up to the supported sizes
    stay exact in float64.
    """
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(scores.shape[0])
    i = 0
    n = scores.shape[0]
    while i < n:
        j = i
        while j + 1 < n and scores[order[j + 1]] == scores[order[i]]:
            j += 1
        # positions i..j (0-based) share the average of ranks i+1..j+1
        avg = (i + j + 2) / 2.0
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


def auroc(labels, scores) -> float:
    """Mann-Whitney AUROC: P(score_pos > score_neg) + 0.5 P(tie).

    Computed via rank sums with tie correction; equals the O(n^2) pairwise
    count exactly, not merely within tolerance.
    """
    y, s = _check_pair(labels, scores)
    n_pos = int(np.sum(y == 1.0))
    n_neg = y.shape[0] - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("AUROC undefined: both classes must be present")
    ranks = _tied_ranks(s)
    rank_sum_pos = float(np.sum(ranks[y == 1.0]))
    u = rank_sum_pos - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def auprc(labels, scores) -> float:
    """Step-wise average precision (no interpolation).

    Each distinct score is one threshold: AP is the sum over score groups, in
    descending order, of the group's positives times the precision at the
    group's end, divided by the number of positives. Without ties this is the
    usual sum of precision at each positive's rank.
    """
    y, s = _check_pair(labels, scores)
    n_pos = int(np.sum(y == 1.0))
    if n_pos == 0:
        raise UndefinedMetricError("AUPRC undefined without positive samples")
    order = np.argsort(-s, kind="stable")
    ranked = s[order]
    found = np.cumsum(y[order])
    ends = np.nonzero(np.append(ranked[1:] != ranked[:-1], True))[0]
    group_pos = np.diff(found[ends], prepend=0.0)
    # cumsum adds in rank order, as a running sum would.
    return float(np.cumsum(group_pos * (found[ends] / (ends + 1)))[-1]) / n_pos


def compute_report(labels, probs, threshold: float = 0.5) -> MetricReport:
    """All metrics in one report; undefined ones are set to None."""
    y, p = _check_pair(labels, probs)
    cm = confusion(y, p, threshold)
    precision, recall, f1_pos = precision_recall_f1(cm)
    _, _, f1_neg = precision_recall_f1(_complement(cm))
    try:
        roc: Optional[float] = auroc(y, p)
    except UndefinedMetricError:
        roc = None
    try:
        ap: Optional[float] = auprc(y, p)
    except UndefinedMetricError:
        ap = None
    return MetricReport(
        n=int(y.shape[0]),
        n_positive=int(np.sum(y == 1.0)),
        threshold=threshold,
        precision=precision,
        recall=recall,
        f1_positive=f1_pos,
        f1_negative=f1_neg,
        macro_f1=(f1_pos + f1_neg) / 2.0,
        auroc=roc,
        auprc=ap,
    )
