"""Micro-averaged metrics: confusion counts, threshold search, AUC sweeps.

Every metric reads one sorted curve, so each is checked against a
brute-force oracle that does not: mask counts for the confusion counts and
the threshold search, the pairwise rank statistic for ROC and a
per-distinct-threshold curve for PR.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segcoder.metrics import (
    EvalReport,
    PredictionSet,
    best_threshold,
    confusion_at,
    default_grid,
    evaluate,
    format_report_kv,
    format_report_table,
    micro_f1,
    pr_auc,
    precision_recall_f1,
    roc_auc,
)


def single_note(probs, label_indices):
    return PredictionSet(np.asarray([probs], dtype=np.float64), [label_indices])


def random_set(rng, n_notes=None, k=None, decimals=None):
    n = n_notes or int(rng.integers(1, 12))
    kk = k or int(rng.integers(1, 8))
    probs = rng.random((n, kk))
    if decimals is not None:
        probs = np.round(probs, decimals)  # heavy ties
    labels = [np.nonzero(rng.random(kk) < 0.4)[0] for _ in range(n)]
    return PredictionSet(probs, labels)


def pairwise_roc_oracle(scores, y):
    """Fraction of (positive, negative) pairs ranked correctly, ties half."""
    pos = scores[y]
    neg = scores[~y]
    if len(pos) == 0 or len(neg) == 0:
        return None
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def per_threshold_pr_oracle(scores, y):
    """PR curve evaluated at every distinct score, trapezoid from recall 0."""
    n_pos = int(y.sum())
    if n_pos == 0 or n_pos == y.size:
        return None
    points = [(0.0, 1.0)]
    for t in sorted(set(scores), reverse=True):
        predicted = scores >= t
        tp = int(np.sum(predicted & y))
        fp = int(np.sum(predicted & ~y))
        points.append((tp / n_pos, tp / (tp + fp)))
    recall = [r for r, _ in points]
    precision = [p for _, p in points]
    return float(np.trapezoid(precision, recall))


class TestPredictionSet:
    def test_dense_labels_from_sparse(self):
        ps = PredictionSet(np.zeros((2, 3)), [[0, 2], []])
        assert ps.labels.tolist() == [[True, False, True], [False, False, False]]

    def test_rejects_non_matrix(self):
        with pytest.raises(ValueError):
            PredictionSet(np.zeros(3), [[0]])

    def test_rejects_label_count_mismatch(self):
        with pytest.raises(ValueError):
            PredictionSet(np.zeros((2, 3)), [[0]])

    def test_rejects_out_of_range_label(self):
        with pytest.raises(ValueError):
            PredictionSet(np.zeros((1, 3)), [[3]])

    @pytest.mark.parametrize("shape", [(0, 3), (2, 0)])
    def test_rejects_empty_set(self, shape):
        with pytest.raises(ValueError, match="no \\(note, code\\) pairs"):
            PredictionSet(np.zeros(shape), [[] for _ in range(shape[0])])


class TestConfusion:
    def test_hand_counted_example(self):
        ps = single_note([0.2, 0.6, 0.8], [1, 2])
        assert confusion_at(ps, 0.5) == (2, 0, 0, 1)

    def test_threshold_zero_everything_positive(self):
        ps = random_set(np.random.default_rng(0), n_notes=5, k=4)
        tp, fp, fn, tn = confusion_at(ps, 0.0)
        assert fn == 0 and tn == 0
        assert tp + fp == 20

    def test_threshold_above_max_nothing_positive(self):
        ps = single_note([0.2, 0.6, 0.8], [1, 2])
        assert confusion_at(ps, 0.81) == (0, 0, 2, 1)

    def test_closed_lower_bound(self):
        # a prediction exactly at the threshold counts as positive
        ps = single_note([0.5], [0])
        assert confusion_at(ps, 0.5) == (1, 0, 0, 0)

    def test_counts_sum_to_pairs(self, rng):
        for _ in range(10):
            ps = random_set(rng)
            tp, fp, fn, tn = confusion_at(ps, float(rng.random()))
            assert tp + fp + fn + tn == ps.num_notes * ps.num_classes

    def test_note_order_invariance(self, rng):
        ps = random_set(rng, n_notes=8, k=5)
        perm = rng.permutation(8)
        shuffled = PredictionSet(ps.probs[perm],
                                 [np.nonzero(ps.labels[i])[0] for i in perm])
        for t in (0.2, 0.5, 0.8):
            assert confusion_at(ps, t) == confusion_at(shuffled, t)


class TestF1:
    def test_balanced_analytic(self):
        p, r, f1 = precision_recall_f1(2, 1, 1)
        assert p == pytest.approx(2 / 3)
        assert r == pytest.approx(2 / 3)
        assert f1 == pytest.approx(2 / 3)

    def test_zero_tp_gives_zero(self):
        assert micro_f1(0, 5, 5) == 0.0
        assert micro_f1(0, 0, 0) == 0.0

    def test_perfect(self):
        assert micro_f1(5, 0, 0) == 1.0

    def test_harmonic_mean_identity(self, rng):
        for _ in range(20):
            tp, fp, fn = (int(rng.integers(0, 20)) for _ in range(3))
            p, r, f1 = precision_recall_f1(tp, fp, fn)
            if p + r:
                assert f1 == pytest.approx(2 * p * r / (p + r))


class TestBestThreshold:
    def test_tie_resolves_to_smallest(self):
        # any t in (0.2, 0.6] scores F1=1; grid search must return 0.3
        ps = single_note([0.2, 0.6, 0.8], [1, 2])
        grid = [round(0.1 * i, 1) for i in range(1, 10)]
        t, f1 = best_threshold(ps, grid)
        assert t == pytest.approx(0.3)
        assert f1 == pytest.approx(1.0)

    def test_all_positive_prefers_smallest(self):
        ps = single_note([0.3, 0.7], [0, 1])
        t, f1 = best_threshold(ps, [round(0.1 * i, 1) for i in range(1, 10)])
        assert t == pytest.approx(0.1)
        assert f1 == pytest.approx(1.0)

    def test_single_grid_point(self):
        ps = single_note([0.4], [0])
        t, f1 = best_threshold(ps, [0.25])
        assert t == 0.25

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            best_threshold(single_note([0.4], [0]), [])

    def test_default_grid_shape(self):
        grid = default_grid()
        assert len(grid) == 99
        assert grid[0] == 0.01 and grid[-1] == 0.99

    def test_beats_every_other_grid_point(self, rng):
        # exhaustive check: returned F1 dominates the full grid
        for _ in range(10):
            ps = random_set(rng)
            t_best, f1_best = best_threshold(ps)
            for t in default_grid():
                f1 = micro_f1(*confusion_at(ps, t)[:3])
                assert f1_best >= f1 - 1e-12
                if f1 == f1_best:
                    assert t_best <= t + 1e-12


class TestRocAuc:
    def test_perfect_separation(self):
        ps = single_note([0.1, 0.2, 0.8, 0.9], [2, 3])
        assert roc_auc(ps) == pytest.approx(1.0)

    def test_reversed_separation(self):
        ps = single_note([0.8, 0.9, 0.1, 0.2], [2, 3])
        assert roc_auc(ps) == pytest.approx(0.0)

    def test_constant_scores_are_chance(self):
        ps = single_note([0.5, 0.5, 0.5, 0.5], [1, 3])
        assert roc_auc(ps) == pytest.approx(0.5)

    def test_undefined_without_both_classes(self):
        assert roc_auc(single_note([0.2, 0.6], [0, 1])) is None
        assert roc_auc(single_note([0.2, 0.6], [])) is None

    def test_matches_pairwise_oracle(self, rng):
        # 200 random prediction sets, including heavy score ties
        for i in range(200):
            ps = random_set(rng, decimals=1 if i % 3 == 0 else None)
            scores, y = ps.flat()
            oracle = pairwise_roc_oracle(scores, y)
            got = roc_auc(ps)
            if oracle is None:
                assert got is None
            else:
                assert got == pytest.approx(oracle, abs=1e-9)

    def test_monotone_transform_invariance(self, rng):
        ps = random_set(rng, n_notes=10, k=6)
        base = roc_auc(ps)
        squashed = PredictionSet(1.0 / (1.0 + np.exp(-5 * ps.probs)),
                                 [np.nonzero(ps.labels[i])[0] for i in range(10)])
        assert roc_auc(squashed) == pytest.approx(base, abs=1e-12)


class TestPrAuc:
    def test_perfect_separation(self):
        ps = single_note([0.1, 0.2, 0.8, 0.9], [2, 3])
        assert pr_auc(ps) == pytest.approx(1.0)

    def test_undefined_without_both_classes(self):
        assert pr_auc(single_note([0.2, 0.6], [0, 1])) is None
        assert pr_auc(single_note([0.2, 0.6], [])) is None

    def test_matches_per_threshold_oracle(self, rng):
        for i in range(200):
            ps = random_set(rng, decimals=1 if i % 3 == 0 else None)
            scores, y = ps.flat()
            oracle = per_threshold_pr_oracle(scores, y)
            got = pr_auc(ps)
            if oracle is None:
                assert got is None
            else:
                assert got == pytest.approx(oracle, abs=1e-9)

    def test_streaming_matches_oracle_at_scale(self, rng):
        # one larger set near the n<=500 bound
        probs = rng.random((100, 5))
        labels = [np.nonzero(rng.random(5) < 0.3)[0] for _ in range(100)]
        ps = PredictionSet(probs, labels)
        scores, y = ps.flat()
        assert pr_auc(ps) == pytest.approx(per_threshold_pr_oracle(scores, y), abs=1e-9)
        assert roc_auc(ps) == pytest.approx(pairwise_roc_oracle(scores, y), abs=1e-9)


class TestReport:
    def test_evaluate_fields_consistent(self, rng):
        ps = random_set(rng, n_notes=6, k=4)
        report = evaluate(ps, 0.5)
        assert report.tp + report.fp + report.fn + report.tn == 24
        p, r, f1 = precision_recall_f1(report.tp, report.fp, report.fn)
        assert report.micro_f1 == pytest.approx(f1)

    def test_evaluate_aucs_equal_standalone(self, rng):
        for i in range(50):
            ps = random_set(rng, decimals=1 if i % 3 == 0 else None)
            report = evaluate(ps, 0.5)
            fresh = PredictionSet(ps.probs, [np.nonzero(row)[0] for row in ps.labels])
            assert report.pr_auc == pr_auc(fresh)
            assert report.roc_auc == roc_auc(fresh)

    def test_threshold_search_and_evaluate_sort_once(self, rng, monkeypatch):
        sorts = []
        for name in ("sort", "argsort"):
            real = getattr(np, name)
            monkeypatch.setattr(np, name, lambda *a, _f=real, _n=name, **kw:
                                sorts.append(_n) or _f(*a, **kw))
        ps = random_set(rng, n_notes=5, k=4)
        threshold, _ = best_threshold(ps)
        evaluate(ps, threshold)
        assert sorts == ["argsort"]

    def test_probs_fixed_at_construction(self):
        probs = np.array([[0.1, 0.2, 0.8, 0.9]])
        ps = PredictionSet(probs, [[2, 3]])
        assert np.shares_memory(ps.probs, probs) and probs.flags.writeable  # a view
        assert roc_auc(ps) == 1.0
        with pytest.raises(AttributeError):
            ps.probs = 1.0 - ps.probs
        with pytest.raises(ValueError):
            ps.probs[0, 0] = 0.5   # read-only, so the cached curve cannot go stale
        assert roc_auc(ps) == 1.0

    def test_kv_format(self):
        report = EvalReport(threshold=0.5, micro_precision=1.0, micro_recall=0.5,
                            micro_f1=2 / 3, pr_auc=None, roc_auc=0.75,
                            tp=1, fp=0, fn=1, tn=2)
        text = format_report_kv(report)
        lines = dict(line.split("=") for line in text.strip().splitlines())
        assert lines["threshold"] == "0.50"
        assert lines["micro_f1"] == "0.666667"
        assert lines["pr_auc"] == "NA"
        assert lines["roc_auc"] == "0.750000"
        assert lines["tp"] == "1"

    def test_table_format_mentions_all_metrics(self):
        report = evaluate(single_note([0.9, 0.1], [0]), 0.5)
        table = format_report_table(report)
        for key in ("micro F1", "PR-AUC", "ROC-AUC", "TP/FP/FN/TN"):
            assert key in table


SCORE_VALUES = [0.0, 0.005, 0.01, 0.25, 0.5, 0.505, 0.99, 1.0]


@st.composite
def tied_sets(draw):
    """Small [notes, K] sets whose scores come from SCORE_VALUES, so ties and
    scores equal to a grid point are the common case."""
    n, k = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    probs = draw(st.lists(st.sampled_from(SCORE_VALUES), min_size=n * k, max_size=n * k))
    y = draw(st.lists(st.booleans(), min_size=n * k, max_size=n * k))
    return np.reshape(probs, (n, k)), np.reshape(y, (n, k))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=tied_sets())
def test_metrics_match_mask_counts_under_ties(case):
    """confusion_at, best_threshold and both AUCs against oracles that count
    pairs with boolean masks instead of reading the ranked curve."""
    probs, y = case
    ps = PredictionSet(probs, [np.nonzero(row)[0] for row in y])
    scores, labels = probs.reshape(-1), y.reshape(-1)

    def confusion(t):
        """(tp, fp, fn, tn) by masks."""
        hit = scores >= t
        return tuple(int(np.sum(a & b)) for a in (hit, ~hit) for b in (labels, ~labels))

    grid = default_grid()
    for t in grid + sorted(set(scores.tolist())):
        assert confusion_at(ps, t) == confusion(t)

    f1s = [micro_f1(*confusion(t)[:3]) for t in grid]
    expected = (grid[f1s.index(max(f1s))], max(f1s))  # first, so smallest t
    assert best_threshold(ps) == expected
    assert best_threshold(ps, grid[::-1]) == expected

    roc, pr = pairwise_roc_oracle(scores, labels), per_threshold_pr_oracle(scores, labels)
    if roc is None:
        assert roc_auc(ps) is None and pr_auc(ps) is None
    else:
        assert roc_auc(ps) == pytest.approx(roc, abs=1e-12)
        assert pr_auc(ps) == pytest.approx(pr, abs=1e-12)
