"""Micro-averaged evaluation over (note, code) pairs: confusion counts at a
threshold, F1 with validation grid search, and threshold-free PR-AUC /
ROC-AUC computed in one streaming sweep over sorted scores.

All metrics flatten the prediction matrix so every (note, code) pair is one
instance. A prediction is positive when its probability is >= the threshold
(closed lower bound). AUCs are undefined without both a positive and a
negative instance and are reported as None in that case.
"""

from dataclasses import dataclass

import numpy as np


class PredictionSet:
    """Per-note probability vectors plus sparse ground-truth label indices."""

    def __init__(self, probs, sparse_labels):
        probs = np.asarray(probs, dtype=np.float64)
        if probs.ndim != 2:
            raise ValueError(f"probs must be [notes, K], got shape {probs.shape}")
        if len(sparse_labels) != probs.shape[0]:
            raise ValueError("one label list per note is required")
        self.probs = probs
        self.num_notes, self.num_classes = probs.shape
        self.labels = np.zeros(probs.shape, dtype=bool)
        for row, idx in enumerate(sparse_labels):
            idx = np.asarray(idx, dtype=np.int64)
            if idx.size and (idx.min() < 0 or idx.max() >= self.num_classes):
                raise ValueError(f"label index out of range in note {row}")
            self.labels[row, idx] = True

    def flat(self):
        return self.probs.reshape(-1), self.labels.reshape(-1)


def confusion_at(preds, threshold):
    """(TP, FP, FN, TN) pooled over all (note, code) pairs."""
    scores, y = preds.flat()
    pos = scores >= threshold
    tp = int(np.sum(pos & y))
    fp = int(np.sum(pos & ~y))
    fn = int(np.sum(~pos & y))
    tn = int(np.sum(~pos & ~y))
    return tp, fp, fn, tn


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


def best_threshold(preds, grid=None):
    """Grid point maximizing micro F1; ties resolve to the smallest
    threshold (strictly-greater update over an ascending scan).

    The scores are sorted once; the count of scores >= t at every grid
    point is then read with ``searchsorted`` (left side keeps the closed
    lower bound), instead of one full confusion pass per grid point.
    """
    if grid is None:
        grid = default_grid()
    if not len(grid):
        raise ValueError("threshold grid must be non-empty")
    grid = sorted(grid)
    scores, y = preds.flat()
    ranked, ranked_pos = np.sort(scores), np.sort(scores[y])
    t = np.asarray(grid, dtype=np.float64)
    tp = ranked_pos.size - np.searchsorted(ranked_pos, t, side="left")
    fp = ranked.size - np.searchsorted(ranked, t, side="left") - tp
    fn = ranked_pos.size - tp
    best_t, best_f1 = None, -1.0
    for threshold, *counts in zip(grid, tp.tolist(), fp.tolist(), fn.tolist()):
        f1 = micro_f1(*counts)
        if f1 > best_f1:
            best_t, best_f1 = threshold, f1
    return best_t, best_f1


def _sweep(preds):
    """Cumulative (tp, fp) after each distinct score, descending.

    Returns (tp_cum, fp_cum, n_pos, n_neg); ties share one curve point,
    which makes trapezoidal ROC-AUC equal the pairwise rank statistic with
    ties counted one half.
    """
    scores, y = preds.flat()
    n_pos = int(y.sum())
    n_neg = y.size - n_pos
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    yy = y[order].astype(np.int64)
    boundary = np.nonzero(np.diff(s))[0]
    last = np.concatenate([boundary, [s.size - 1]])
    tp_cum = np.cumsum(yy)[last]
    fp_cum = (last + 1) - tp_cum
    return tp_cum, fp_cum, n_pos, n_neg


def roc_auc(preds):
    """Trapezoidal area under (FPR, TPR), anchored at (0, 0); None when a
    class is empty."""
    tp, fp, n_pos, n_neg = _sweep(preds)
    if n_pos == 0 or n_neg == 0:
        return None
    tpr = np.concatenate([[0.0], tp / n_pos])
    fpr = np.concatenate([[0.0], fp / n_neg])
    return float(np.trapezoid(tpr, fpr))


def pr_auc(preds):
    """Trapezoidal area under (recall, precision) across all distinct score
    thresholds, anchored at recall 0 with precision 1; None when a class is
    empty."""
    tp, fp, n_pos, n_neg = _sweep(preds)
    if n_pos == 0 or n_neg == 0:
        return None
    recall = np.concatenate([[0.0], tp / n_pos])
    precision = np.concatenate([[1.0], tp / (tp + fp)])
    return float(np.trapezoid(precision, recall))


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
    tp, fp, fn, tn = confusion_at(preds, threshold)
    p, r, f1 = precision_recall_f1(tp, fp, fn)
    return EvalReport(threshold=float(threshold), micro_precision=p, micro_recall=r,
                      micro_f1=f1, pr_auc=pr_auc(preds), roc_auc=roc_auc(preds),
                      tp=tp, fp=fp, fn=fn, tn=tn)


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
