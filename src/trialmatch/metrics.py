"""Binary classification metrics with exact tie handling.

``MetricReport`` is the metric part of one results.csv row: its fields, in
order, are the metric columns, and ``csv_cell`` is the one rule for how a
row's values are written. ``compute_report`` is the one scoring entry: it
checks its input once and sorts the scores once, descending and stable, with
tied scores grouped. Thresholded metrics predict positive when prob >=
threshold (inclusive). AUROC is the Mann-Whitney statistic counted over the
groups, the pairwise definition with a tie crediting 0.5. Every term of that
count is a multiple of 0.5, so below 2**52 pairs the sum is exact in float64
and equals the O(n^2) pairwise count. Average precision is step-wise with no
interpolation and takes each distinct score as one threshold, so tied scores
never depend on input order. The class counts alone decide which of the two
exist: AUROC needs both classes and AUPRC a positive. An undefined one is
reported as absent, never coerced to 0 or 0.5.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .errors import DataError, as_labels


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


CSV_COLUMNS = tuple(f.name for f in fields(MetricReport))


def _check_pair(labels, scores) -> tuple[np.ndarray, np.ndarray]:
    s = np.asarray(scores, dtype=np.float64).reshape(-1)
    y = as_labels(labels, s.shape[0])
    if y.shape[0] == 0:
        raise DataError("metrics need at least one sample")
    if not np.all(np.isfinite(s)):
        raise DataError("scores must be finite")
    return y, s


def _ranking(y: np.ndarray, s: np.ndarray) -> tuple[float, float]:
    """The Mann-Whitney count and the precision sum behind AUROC and AUPRC,
    from one stable descending sort with tied scores grouped.

    Each group's positives count the negatives below it plus half of those
    in it, and gain the precision at the group's end; ``compute_report``
    divides the two sums by the pair and positive counts.
    """
    order = np.argsort(-s, kind="stable")
    ranked = s[order]
    found = np.cumsum(y[order])
    ends = np.nonzero(np.append(ranked[1:] != ranked[:-1], True))[0]
    group_pos = np.diff(found[ends], prepend=0.0)
    negs = ends + 1 - found[ends]  # negatives down to each group's end
    group_neg = np.diff(negs, prepend=0.0)
    pairs_won = float(np.sum(group_pos * (negs[-1] - negs + 0.5 * group_neg)))
    # cumsum adds in rank order, as a running sum would.
    return pairs_won, float(np.cumsum(group_pos * (found[ends] / (ends + 1)))[-1])


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
    pairs = n_pos * (n - n_pos)
    pairs_won, precision_sum = _ranking(y, p)
    return MetricReport(
        n=n,
        n_pos=n_pos,
        threshold=threshold,
        precision=precision,
        recall=recall,
        f1_pos=f1_pos,
        f1_neg=f1_neg,
        macro_f1=(f1_pos + f1_neg) / 2.0,
        auroc=pairs_won / pairs if pairs else None,
        auprc=precision_sum / n_pos if n_pos else None,
    )
