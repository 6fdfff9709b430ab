"""Binary classification metrics with exact tie handling.

``MetricReport`` is the metric part of one results.csv row: its fields, in
order, are the metric columns, and ``csv_cell`` is the one rule for how a
row's values are written. Thresholded metrics predict positive when prob >=
threshold (inclusive). AUROC is the Mann-Whitney statistic computed by rank
sum with tie correction, exactly equal to the pairwise definition (ties
credit 0.5). Average precision is step-wise with no interpolation and takes
each distinct score as one threshold, so tied scores never depend on input
order. ``auroc`` and ``auprc`` raise ``DataError`` on input where they are
undefined; ``compute_report`` tells from its class counts which ones are
defined and reports the others as absent, never coerced to 0 or 0.5.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Optional

import numpy as np

from .errors import DataError


def csv_cell(value) -> str:
    """One results.csv cell: absent is empty, a float its ``repr``."""
    if value is None:
        return ""
    return repr(value) if isinstance(value, float) else str(value)


@dataclass(frozen=True)
class MetricReport:
    n: int
    n_pos: int
    threshold: float
    precision: float
    recall: float
    f1_pos: float
    f1_neg: float
    macro_f1: float
    auroc: Optional[float]
    auprc: Optional[float]

    def to_dict(self) -> dict:
        return asdict(self)


CSV_COLUMNS = tuple(f.name for f in fields(MetricReport))


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


def _tied_ranks(scores: np.ndarray) -> np.ndarray:
    """1-based ranks with ties replaced by the group average.

    All ranks are integer multiples of 0.5, so sums up to the supported sizes
    stay exact in float64.
    """
    order = np.argsort(scores, kind="stable")
    ranked = scores[order]
    starts = np.flatnonzero(np.r_[True, ranked[1:] != ranked[:-1]])
    ends = np.r_[starts[1:], ranked.shape[0]] - 1
    # positions start..end (0-based) share the average of ranks start+1..end+1
    ranks = np.empty(ranked.shape[0])
    ranks[order] = np.repeat((starts + ends + 2) / 2.0, ends - starts + 1)
    return ranks


def auroc(labels, scores) -> float:
    """Mann-Whitney AUROC: P(score_pos > score_neg) + 0.5 P(tie).

    Computed via rank sums with tie correction; equals the O(n^2) pairwise
    count exactly, not merely within tolerance. Undefined unless both classes
    are present, a condition ``compute_report`` repeats from its counts.
    """
    y, s = _check_pair(labels, scores)
    n_pos = int(np.sum(y == 1.0))
    n_neg = y.shape[0] - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DataError("AUROC undefined: both classes must be present")
    ranks = _tied_ranks(s)
    rank_sum_pos = float(np.sum(ranks[y == 1.0]))
    u = rank_sum_pos - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def auprc(labels, scores) -> float:
    """Step-wise average precision (no interpolation).

    Each distinct score is one threshold: AP is the sum over score groups, in
    descending order, of the group's positives times the precision at the
    group's end, divided by the number of positives. Without ties this is the
    usual sum of precision at each positive's rank. Undefined without a
    positive, a condition ``compute_report`` repeats from its counts.
    """
    y, s = _check_pair(labels, scores)
    n_pos = int(np.sum(y == 1.0))
    if n_pos == 0:
        raise DataError("AUPRC undefined without positive samples")
    order = np.argsort(-s, kind="stable")
    ranked = s[order]
    found = np.cumsum(y[order])
    ends = np.nonzero(np.append(ranked[1:] != ranked[:-1], True))[0]
    group_pos = np.diff(found[ends], prepend=0.0)
    # cumsum adds in rank order, as a running sum would.
    return float(np.cumsum(group_pos * (found[ends] / (ends + 1)))[-1]) / n_pos


def _prf(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    """Precision, recall and F1 with the 0/0 -> 0 convention."""
    precision = tp / (tp + fp) if (tp + fp) > 0 else 0.0
    recall = tp / (tp + fn) if (tp + fn) > 0 else 0.0
    f1 = (
        2.0 * precision * recall / (precision + recall)
        if (precision + recall) > 0
        else 0.0
    )
    return precision, recall, f1


def compute_report(labels, probs, threshold: float = 0.5) -> MetricReport:
    """All metrics in one report. AUROC is None unless both classes are
    present, and AUPRC is None without a positive."""
    y, p = _check_pair(labels, probs)
    pred = p >= threshold
    pos = y == 1.0
    tp = int(np.sum(pred & pos))
    fp = int(np.sum(pred & ~pos))
    tn = int(np.sum(~pred & ~pos))
    fn = int(np.sum(~pred & pos))
    precision, recall, f1_pos = _prf(tp, fp, fn)
    _, _, f1_neg = _prf(tn, fn, fp)
    n, n_pos = int(y.shape[0]), tp + fn
    return MetricReport(
        n=n,
        n_pos=n_pos,
        threshold=threshold,
        precision=precision,
        recall=recall,
        f1_pos=f1_pos,
        f1_neg=f1_neg,
        macro_f1=(f1_pos + f1_neg) / 2.0,
        auroc=auroc(y, p) if 0 < n_pos < n else None,
        auprc=auprc(y, p) if n_pos else None,
    )
