"""Loss definitions, batch semantics, determinism, and checkpoint retention."""

import math
from pathlib import Path

import numpy as np
import pytest

import segcoder.training as tr
from segcoder.cnn import CnnConfig
from segcoder.corpus import LabelSet, Note
from segcoder.metrics import EvalReport, label_matrix
from segcoder.model import CodingModel, new_model
from segcoder.tensor import Tensor, add, mul, no_grad, sigmoid, tensor_sum
from segcoder.tokenizer import PAD_TOKEN, UNK_TOKEN, Vocab
from segcoder.training import (
    TrainConfig,
    batch_loss,
    bce_loss,
    evaluate_model,
    prepare_examples,
    train_loop,
    train_step,
)
from segcoder.transformer import EncoderConfig

from conftest import (assert_parity, loss_and_grads, param_gradcheck, per_note_bce,
                      per_note_batch_loss)


def tiny_vocab():
    return Vocab([PAD_TOKEN, UNK_TOKEN] + [f"t{i}" for i in range(8)])


def tiny_model(num_codes=2, seed=0):
    config = EncoderConfig(num_blocks=1, hidden=16, heads=2, intermediate=32,
                           vocab_size=10, max_positions=8, type_vocab=2,
                           seg_len=8, include_pooler=False)
    label_set = LabelSet([f"C{i}" for i in range(num_codes)])
    return new_model("transformer", config, tiny_vocab(), label_set,
                     s_max=16, seed=seed)


def tiny_cnn_model(num_codes=2, seed=0):
    config = CnnConfig(embed_dim=6, filters=16, kernel=3, max_words=50)
    label_set = LabelSet([f"C{i}" for i in range(num_codes)])
    return new_model("cnn", config, tiny_vocab(), label_set, s_max=16, seed=seed)


def tiny_notes(n=6):
    # word t{i} marks code C{i%2}: a learnable signal
    return [Note(f"n{i}", f"t{i % 2} t{(i % 2) + 2} t{i % 2}", [f"C{i % 2}"])
            for i in range(n)]


class TestTrainConfig:
    def test_defaults_valid(self):
        TrainConfig().validate()

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0).validate()
        with pytest.raises(ValueError):
            TrainConfig(max_steps=10, eval_every=11).validate()
        with pytest.raises(ValueError):
            TrainConfig(max_seq_len=0).validate()
        with pytest.raises(ValueError):
            TrainConfig(eval_every=0).validate()

    @pytest.mark.parametrize("lr", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_non_finite_or_non_positive_lr(self, lr):
        with pytest.raises(ValueError, match="lr"):
            TrainConfig(lr=lr).validate()

    def test_zero_steps_allowed(self):
        TrainConfig(max_steps=0, eval_every=100).validate()


class TestLabelMatrix:
    def test_dense_matrix(self):
        y = label_matrix([np.array([1, 3]), np.array([0])], num_classes=4)
        assert y.dtype == bool
        assert y.astype(int).tolist() == [[0, 1, 0, 1], [1, 0, 0, 0]]

    def test_empty_is_all_negative(self):
        assert label_matrix([[]], num_classes=3).tolist() == [[False] * 3]

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="note 1"):
            label_matrix([[0], [3]], num_classes=3)
        with pytest.raises(ValueError):
            label_matrix([[-1]], num_classes=3)


class TestBceLoss:
    def test_single_class_half_probability(self):
        loss = bce_loss(Tensor(np.array([[0.5]])), [[1]])
        assert float(loss.data) == pytest.approx(math.log(2.0), rel=1e-6)

    def test_hand_computed_three_class(self):
        # y=[1,0,0], p=[0.9,0.1,0.2]: -ln.9 - ln.9 - ln.8
        probs = Tensor(np.array([[0.9, 0.1, 0.2]]))
        loss = bce_loss(probs, label_matrix([[0]], 3))
        expected = -math.log(0.9) - math.log(0.9) - math.log(0.8)
        assert float(loss.data) == pytest.approx(expected, rel=1e-6)
        assert expected == pytest.approx(0.4339, abs=1e-4)

    def test_mean_over_notes(self):
        # per-note losses -2 ln .9 - ln .8 (as above) and 3 ln 2, averaged
        probs = Tensor(np.array([[0.9, 0.1, 0.2], [0.5, 0.5, 0.5]]))
        loss = bce_loss(probs, label_matrix([[0], [1]], 3))
        expected = (-2 * math.log(0.9) - math.log(0.8) + 3 * math.log(2.0)) / 2
        assert float(loss.data) == pytest.approx(expected, rel=1e-12)

    def test_perfect_predictions_vanish(self):
        probs = Tensor(np.array([[1.0, 0.0, 0.0]]))
        loss = bce_loss(probs, label_matrix([[0]], 3))
        assert 0.0 <= float(loss.data) < 1e-5

    def test_loss_finite_at_extremes(self):
        # clamping keeps the wrong-by-saturation case finite
        probs = Tensor(np.array([[0.0, 1.0]]))
        loss = bce_loss(probs, label_matrix([[0]], 2))
        assert np.isfinite(loss.data)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            bce_loss(Tensor(np.zeros((1, 3))), label_matrix([[0]], 2))
        with pytest.raises(ValueError):
            bce_loss(Tensor(np.zeros(2)), label_matrix([[0]], 2))

    def test_gradient_is_p_minus_y_over_batch_through_sigmoid(self):
        logits = Tensor(np.array([[0.3, -1.2, 2.0], [1.1, 0.0, -0.4]]),
                        requires_grad=True)
        y = label_matrix([[0, 2], [1]], 3)
        p = sigmoid(logits)
        bce_loss(p, y).backward()
        assert np.allclose(logits.grad, (p.data - y) / 2, atol=1e-9)

    def test_gradient_matches_finite_differences(self, rng):
        logits = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
        y = label_matrix([[1, 3], [0]], 4)
        param_gradcheck([logits], lambda: bce_loss(sigmoid(logits), y),
                        rtol=1e-4, names=["logits"])


class TestBatchSemantics:
    def test_batch_gradient_is_mean_of_example_gradients(self):
        model = tiny_model()
        batch = prepare_examples(model, tiny_notes(2))

        for p in model.parameters():
            p.zero_grad()
        batch_loss(model, batch).backward()
        batch_grads = [p.grad.copy() for p in model.parameters()]

        singles = []
        for ex in batch:
            for p in model.parameters():
                p.zero_grad()
            batch_loss(model, [ex]).backward()
            singles.append([p.grad.copy() for p in model.parameters()])

        for i, bg in enumerate(batch_grads):
            mean = (singles[0][i] + singles[1][i]) / 2.0
            assert np.allclose(bg, mean, atol=1e-5), f"param {i} diverges"

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            batch_loss(tiny_model(), [])

    def test_truncation_consistency(self):
        # sequences at or under s_max pass through untouched
        model = tiny_model()
        short = Note("s", "t0 t1 t2", ["C0"])
        (seq, _), = prepare_examples(model, [short])
        assert seq.s == 3
        long_text = " ".join(["t0"] * 40)
        (seq_long, _), = prepare_examples(model, [Note("l", long_text, ["C0"])])
        assert seq_long.s == model.s_max

    def test_unknown_code_names_the_note(self):
        model = tiny_model(num_codes=2)
        with pytest.raises(ValueError, match=r"note 'odd'.*'C7'.*K=2"):
            prepare_examples(model, [Note("ok", "t0", ["C0"]),
                                     Note("odd", "t1", ["C1", "C7"])])


PARITY_MODELS = {
    "transformer": lambda: tiny_model(num_codes=3, seed=4),
    "cnn": lambda: tiny_cnn_model(num_codes=3, seed=4),
}

# a short note, one cut to s_max = 16, and one spanning two windows
PARITY_NOTES = [Note("a", "t0 t3", ["C0"]),
                Note("b", " ".join(f"t{i % 8}" for i in range(30)), ["C1", "C2"]),
                Note("c", "t1 t2 t5 t7 t1 t4 t6 t0 t2 t3", [])]


class TestBatchLossParity:
    """batch_loss and bce_loss against the per-note reference chain,
    conftest.per_note_batch_loss and per_note_bce."""

    @pytest.mark.parametrize("saturated", [False, True])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("size", [1, 3])
    @pytest.mark.parametrize("which", sorted(PARITY_MODELS))
    def test_loss_and_gradients_match_per_note_chain(self, which, size, dtype, saturated):
        model = PARITY_MODELS[which]()
        for _, t in model.named_parameters():
            t.data = t.data.astype(dtype)
        batch = prepare_examples(model, PARITY_NOTES[-size:])
        if saturated:
            # probabilities past both clamp bounds, for positive and negative labels
            model.head.b.data[:] = np.array([40.0, -40.0, 40.0], dtype=dtype)
            with no_grad():
                p = model.probs([seq for seq, _ in batch]).data
            assert (p > tr.CLAMP_HI).any() and (p < tr.CLAMP_LO).any()
        got, got_grads = loss_and_grads(model, lambda: batch_loss(model, batch))
        want, want_grads = loss_and_grads(model, lambda: per_note_batch_loss(model, batch))
        assert got.dtype == dtype
        assert_parity(got, want, dtype)
        for g, w in zip(got_grads, want_grads):
            assert_parity(g, w, dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bce_at_and_beyond_clamp_bounds(self, dtype):
        lo, hi = tr.CLAMP_LO, tr.CLAMP_HI
        values = np.array([[lo, hi, 0.0, 1.0],
                           [1e-9, 1.0 - 1e-9, 0.3, 0.7],
                           [lo, hi, 0.5, 1e-7 / 2]], dtype=dtype)
        indices = [np.array([0, 3]), np.array([1, 2]), np.array([], dtype=np.int64)]
        probs = Tensor(values, requires_grad=True)
        got = bce_loss(probs, label_matrix(indices, 4))
        got.backward()
        rows = [Tensor(v, requires_grad=True) for v in values]
        losses = [per_note_bce(r, i) for r, i in zip(rows, indices)]
        want = mul(add(add(losses[0], losses[1]), losses[2]), 1.0 / len(rows))
        want.backward()
        assert_parity(got.data, want.data, dtype)
        assert_parity(probs.grad, np.stack([r.grad for r in rows]), dtype)
        # zero gradient strictly outside [lo, hi]
        outside = (values < dtype(lo)) | (values > dtype(hi))
        assert outside.any() and not probs.grad[outside].any()


class TestTrainStep:
    def test_loss_decreases_on_repeated_example(self):
        model = tiny_model()
        batch = prepare_examples(model, [Note("n", "t0 t2 t0", ["C0"])])
        from segcoder.optim import init_adam
        state = init_adam(model.parameters(), lr=0.01)
        first = train_step(model, batch, state)
        last = first
        for _ in range(39):
            last = train_step(model, batch, state)
        assert last < first

    def test_zero_gradient_batch_leaves_parameters_unchanged(self):
        # saturate every probability past the clamp ceiling with all labels
        # positive: clamping zeroes the gradient, Adam moves nothing
        model = tiny_model()
        model.head.b.data[:] = 20.0
        notes = [Note("n", "t0 t1", ["C0", "C1"])]
        batch = prepare_examples(model, notes)
        before = [p.data.copy() for p in model.parameters()]
        from segcoder.optim import init_adam
        state = init_adam(model.parameters(), lr=0.01)
        train_step(model, batch, state)
        for p, b in zip(model.parameters(), before):
            assert np.array_equal(p.data, b)

    def test_identical_seeds_identical_losses(self):
        losses = []
        for _ in range(2):
            model = tiny_model(seed=3)
            batch = prepare_examples(model, tiny_notes(4))
            from segcoder.optim import init_adam
            state = init_adam(model.parameters(), lr=0.001)
            losses.append([train_step(model, batch, state) for _ in range(10)])
        assert losses[0] == losses[1]


class TestTrainLoop:
    def config(self, **kw):
        defaults = dict(lr=0.005, batch_size=2, max_steps=8, eval_every=4,
                        max_seq_len=16, seed=0)
        defaults.update(kw)
        return TrainConfig(**defaults)

    def test_empty_corpus_rejected(self, tmp_path):
        model = tiny_model()
        with pytest.raises(ValueError, match="empty"):
            train_loop(model, [], tiny_notes(2), self.config(), tmp_path)
        with pytest.raises(ValueError, match="empty"):
            train_loop(model, tiny_notes(2), [], self.config(), tmp_path)

    def test_zero_steps_returns_initial_checkpoint(self, tmp_path):
        model = tiny_model()
        initial = [p.data.copy() for p in model.parameters()]
        result = train_loop(model, tiny_notes(4), tiny_notes(2),
                            self.config(max_steps=0), tmp_path)
        assert result.best_step == 0
        reloaded = CodingModel.load(result.best_dir)
        for (name, t), arr in zip(reloaded.named_parameters(), initial):
            assert np.array_equal(t.data, arr), name

    def test_metrics_log_format(self, tmp_path):
        model = tiny_model()
        result = train_loop(model, tiny_notes(6), tiny_notes(2),
                            self.config(), tmp_path)
        lines = Path(result.log_path).read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2  # evals at steps 4 and 8
        for expected_step, line in zip((4, 8), lines):
            fields = line.split("\t")
            assert len(fields) == 5
            assert int(fields[0]) == expected_step
            float(fields[1])  # mean train loss parses
            float(fields[2])  # micro F1 parses
            for f in fields[3:]:
                assert f == "NA" or 0.0 <= float(f) <= 1.0

    def test_best_checkpoint_retention(self, tmp_path, monkeypatch):
        # scripted validation F1 trace [0.1, 0.5, 0.3] must retain the
        # weights saved at the second evaluation
        model = tiny_model()
        scripted = iter([0.1, 0.5, 0.3])
        snapshots = []

        def fake_eval(model_, examples, threshold=None):
            snapshots.append(model_.head.W.data.copy())
            f1 = next(scripted)
            return EvalReport(threshold=0.5, micro_precision=f1, micro_recall=f1,
                              micro_f1=f1, pr_auc=None, roc_auc=None,
                              tp=0, fp=0, fn=0, tn=0)

        monkeypatch.setattr(tr, "evaluate_model", fake_eval)
        result = train_loop(model, tiny_notes(4), tiny_notes(2),
                            self.config(max_steps=3, eval_every=1), tmp_path)
        assert result.best_step == 2
        assert result.best_val_f1 == pytest.approx(0.5)
        best = CodingModel.load(result.best_dir)
        assert np.array_equal(best.head.W.data, snapshots[1])
        latest = CodingModel.load(result.latest_dir)
        assert np.array_equal(latest.head.W.data, snapshots[2])

    def test_nan_gradient_stops_with_step_and_name(self, tmp_path, monkeypatch):
        # poison one gradient at step 3; no eval runs before step 4, so no
        # checkpoint may exist and the weights must be those after step 2
        model = tiny_model()
        backward = Tensor.backward
        calls = []
        before = []

        def poisoned(self):
            backward(self)
            calls.append(1)
            if len(calls) == 3:
                before.extend(p.data.copy() for p in model.parameters())
                model.head.W.grad[0, 0] = np.nan

        monkeypatch.setattr(Tensor, "backward", poisoned)
        with pytest.raises(RuntimeError, match=r"step 3: .*head\.W"):
            train_loop(model, tiny_notes(4), tiny_notes(2),
                       self.config(max_steps=4, eval_every=4), tmp_path)
        for p, b in zip(model.parameters(), before):
            assert np.array_equal(p.data, b)
        assert not (tmp_path / "best").exists()
        assert not (tmp_path / "latest").exists()

    def test_nan_loss_stops_with_step(self, tmp_path, monkeypatch):
        model = tiny_model()
        initial = [p.data.copy() for p in model.parameters()]
        loss = tr.batch_loss
        monkeypatch.setattr(tr, "batch_loss",
                            lambda m, batch: mul(loss(m, batch), float("nan")))
        with pytest.raises(RuntimeError, match="step 1: non-finite loss"):
            train_loop(model, tiny_notes(4), tiny_notes(2), self.config(), tmp_path)
        for p, b in zip(model.parameters(), initial):
            assert np.array_equal(p.data, b)
        assert not (tmp_path / "best").exists()

    @pytest.mark.parametrize("split", ["train", "val"])
    def test_empty_note_fails_before_first_step(self, tmp_path, monkeypatch, split):
        notes = {"train": tiny_notes(4), "val": tiny_notes(2)}
        notes[split].append(Note("blank", "   ", ["C0"]))
        steps = []
        monkeypatch.setattr(tr, "train_step", lambda *a: steps.append(1))
        with pytest.raises(ValueError, match=r"note 'blank': text has no tokens"):
            train_loop(tiny_model(), notes["train"], notes["val"], self.config(), tmp_path)
        assert steps == []
        assert not (tmp_path / "best").exists()
        assert not (tmp_path / "latest").exists()

    def test_seed_determinism_byte_identical_logs(self, tmp_path):
        logs = []
        for run in range(2):
            model = tiny_model(seed=1)
            result = train_loop(model, tiny_notes(6), tiny_notes(2),
                                self.config(max_steps=10, eval_every=5),
                                tmp_path / f"run{run}")
            logs.append(Path(result.log_path).read_bytes())
        assert logs[0] == logs[1]

    def test_loop_applies_configured_truncation(self, tmp_path):
        model = tiny_model()
        train_loop(model, tiny_notes(4), tiny_notes(2),
                   self.config(max_seq_len=8), tmp_path)
        assert model.s_max == 8

    def test_evaluate_model_grid_search_and_fixed_threshold(self):
        model = tiny_model()
        examples = prepare_examples(model, tiny_notes(4))
        searched = evaluate_model(model, examples)
        assert searched.threshold in [round(0.01 * i, 2) for i in range(1, 100)]
        fixed = evaluate_model(model, examples, threshold=0.5)
        assert fixed.threshold == 0.5
