"""Micro-averaged evaluation over (note, code) pairs: confusion counts at a
threshold, F1 with validation grid search, and threshold-free PR-AUC /
ROC-AUC, all read off one sorted sweep of the scores.

All metrics flatten the prediction matrix so every (note, code) pair is one
instance. A prediction is positive when its probability is >= the threshold
(closed lower bound). AUCs are undefined without both a positive and a
negative instance and are reported as None in that case.
"""

from dataclasses import dataclass

import numpy as np


def label_matrix(sparse_labels, num_classes):
    """Boolean [notes, K] label matrix from one index array per note, such
    as the sorted arrays ``LabelSet.indices_for`` returns."""
    y = np.zeros((len(sparse_labels), num_classes), dtype=bool)
    for row, idx in enumerate(sparse_labels):
        idx = np.asarray(idx, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= num_classes):
            raise ValueError(f"label index out of range for K={num_classes} in note {row}")
        y[row, idx] = True
    return y


class PredictionSet:
    """Per-note probability vectors plus sparse ground-truth label indices.

    ``probs`` and ``labels`` are read-only and fixed at construction, so the
    curve every metric reads is sorted once per set.
    """

    def __init__(self, probs, sparse_labels):
        probs = np.asarray(probs, dtype=np.float64).view()
        if probs.ndim != 2:
            raise ValueError(f"probs must be [notes, K], got shape {probs.shape}")
        if probs.size == 0:
            raise ValueError(f"probs has no (note, code) pairs, got shape {probs.shape}")
        if len(sparse_labels) != probs.shape[0]:
            raise ValueError("one label list per note is required")
        self.num_notes, self.num_classes = probs.shape
        probs.flags.writeable = False
        self._probs = probs
        self.labels = label_matrix(sparse_labels, self.num_classes)
        self.labels.flags.writeable = False
        self._curve = None

    @property
    def probs(self):
        return self._probs

    def flat(self):
        return self.probs.reshape(-1), self.labels.reshape(-1)

    def curve(self):
        """``_sweep`` of this set, sorted on first use."""
        if self._curve is None:
            self._curve = _sweep(self)
        return self._curve


def _sweep(preds):
    """The ranked curve: (neg_scores, tp, fp, n_pos, n_neg).

    ``neg_scores`` holds the negated distinct scores in ascending order, and
    ``tp[i]``/``fp[i]`` count the positive/negative pairs scoring >= the
    i-th distinct score from the top, after a (0, 0) anchor at index 0. Ties
    share one curve point, which makes trapezoidal ROC-AUC equal the
    pairwise rank statistic with ties counted one half. Each point is read
    at the last index of its tie run, so the sort need not be stable.
    """
    scores, y = preds.flat()
    n_pos = int(y.sum())
    n_neg = y.size - n_pos
    neg = -scores
    order = np.argsort(neg)
    s = neg[order]
    last = np.concatenate([np.nonzero(np.diff(s))[0], [s.size - 1]])
    tp = np.concatenate([[0], np.cumsum(y[order], dtype=np.int64)[last]])
    fp = np.concatenate([[0], last + 1]) - tp
    return s[last], tp, fp, n_pos, n_neg


def _counts_at(preds, thresholds):
    """(tp, fp, fn, tn) arrays, one entry per threshold, read off the curve
    with one ``searchsorted``: side="right" over the negated scores counts
    the distinct scores >= t, which keeps the closed lower bound."""
    neg_scores, tp, fp, n_pos, n_neg = preds.curve()
    i = np.searchsorted(neg_scores, -np.asarray(thresholds, dtype=np.float64), side="right")
    tp, fp = tp[i], fp[i]
    return tp, fp, n_pos - tp, n_neg - fp


def confusion_at(preds, threshold):
    """(TP, FP, FN, TN) pooled over all (note, code) pairs."""
    return tuple(int(c[0]) for c in _counts_at(preds, [threshold]))


def precision_recall_f1(tp, fp, fn):
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f1


def micro_f1(tp, fp, fn):
    return precision_recall_f1(tp, fp, fn)[2]


def default_grid():
    """Thresholds 0.01 .. 0.99 in steps of 0.01."""
    return [round(0.01 * i, 2) for i in range(1, 100)]


def best_threshold(preds):
    """Point of ``default_grid`` maximizing micro F1; ties resolve to the
    smallest threshold. The counts at every grid point come off the set's
    curve."""
    grid = default_grid()
    tp, fp, fn, _ = _counts_at(preds, grid)
    f1s = [micro_f1(*counts) for counts in zip(tp.tolist(), fp.tolist(), fn.tolist())]
    best_f1 = max(f1s)
    return min(t for t, f1 in zip(grid, f1s) if f1 == best_f1), best_f1


def roc_auc(preds):
    """Trapezoidal area under (FPR, TPR), anchored at (0, 0); None when a
    class is empty."""
    _, tp, fp, n_pos, n_neg = preds.curve()
    if n_pos == 0 or n_neg == 0:
        return None
    return float(np.trapezoid(tp / n_pos, fp / n_neg))


def pr_auc(preds):
    """Trapezoidal area under (recall, precision) across all distinct score
    thresholds, anchored at recall 0 with precision 1; None when a class is
    empty."""
    _, tp, fp, n_pos, n_neg = preds.curve()
    if n_pos == 0 or n_neg == 0:
        return None
    precision = np.concatenate([[1.0], tp[1:] / (tp[1:] + fp[1:])])
    return float(np.trapezoid(precision, tp / n_pos))


@dataclass
class EvalReport:
    threshold: float
    micro_precision: float
    micro_recall: float
    micro_f1: float
    pr_auc: object
    roc_auc: object
    tp: int
    fp: int
    fn: int
    tn: int


def evaluate(preds, threshold):
    """Confusion counts and F1 at ``threshold`` plus both AUCs, all read off
    the set's one curve. ``pr_auc`` reads it first, so when no threshold
    search came before, a profile times the sort under ``pr_auc``."""
    pr, roc = pr_auc(preds), roc_auc(preds)
    tp, fp, fn, tn = confusion_at(preds, threshold)
    p, r, f1 = precision_recall_f1(tp, fp, fn)
    return EvalReport(threshold=float(threshold), micro_precision=p, micro_recall=r,
                      micro_f1=f1, pr_auc=pr, roc_auc=roc, tp=tp, fp=fp, fn=fn, tn=tn)


def _fmt(v):
    return "NA" if v is None else f"{v:.6f}"


def format_report_kv(report):
    """Machine-readable key=value block, one metric per line."""
    fields = [
        ("threshold", f"{report.threshold:.2f}"),
        ("micro_precision", _fmt(report.micro_precision)),
        ("micro_recall", _fmt(report.micro_recall)),
        ("micro_f1", _fmt(report.micro_f1)),
        ("pr_auc", _fmt(report.pr_auc)),
        ("roc_auc", _fmt(report.roc_auc)),
        ("tp", str(report.tp)),
        ("fp", str(report.fp)),
        ("fn", str(report.fn)),
        ("tn", str(report.tn)),
    ]
    return "".join(f"{k}={v}\n" for k, v in fields)


def format_report_table(report):
    rows = [
        ("threshold", f"{report.threshold:.2f}"),
        ("micro precision", _fmt(report.micro_precision)),
        ("micro recall", _fmt(report.micro_recall)),
        ("micro F1", _fmt(report.micro_f1)),
        ("PR-AUC", _fmt(report.pr_auc)),
        ("ROC-AUC", _fmt(report.roc_auc)),
        ("TP/FP/FN/TN", f"{report.tp}/{report.fp}/{report.fn}/{report.tn}"),
    ]
    width = max(len(k) for k, _ in rows)
    lines = [f"{k.ljust(width)}  {v}" for k, v in rows]
    return "\n".join(lines) + "\n"
