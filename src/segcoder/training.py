"""Training loop: summed binary cross-entropy per example, mean reduction
over the batch, Adam updates, periodic validation with threshold grid
search, and best-checkpoint retention by validation micro F1.
"""

import math
import os
from dataclasses import dataclass

import numpy as np

from .metrics import PredictionSet, best_threshold, evaluate, label_matrix
from .optim import init_adam, step_with_grads
from .tensor import Tensor, add, clamp, log, mul, no_grad, sub, tensor_sum

CLAMP_LO = 1e-7
CLAMP_HI = 1.0 - 1e-7
METRICS_LOG_NAME = "metrics.tsv"


@dataclass
class TrainConfig:
    lr: float = 2e-4
    batch_size: int = 4
    max_steps: int = 1000
    eval_every: int = 100
    max_seq_len: int = 512
    seed: int = 0

    def validate(self):
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.max_steps < 0:
            raise ValueError(f"max_steps must be >= 0, got {self.max_steps}")
        if self.eval_every < 1:
            raise ValueError(f"eval_every must be >= 1, got {self.eval_every}")
        if self.max_steps and self.eval_every > self.max_steps:
            raise ValueError(
                f"eval_every {self.eval_every} exceeds max_steps {self.max_steps}")
        if self.max_seq_len < 1:
            raise ValueError(f"max_seq_len must be >= 1, got {self.max_seq_len}")


def bce_loss(probs, y):
    """Binary cross-entropy summed over classes and averaged over notes.

    ``probs`` is Tensor[B, K] and ``y`` the 0/1 label matrix [B, K];
    probabilities are clamped to [1e-7, 1 - 1e-7], so the gradient is zero
    outside that range.
    """
    if probs.data.ndim != 2 or probs.data.shape != np.shape(y):
        raise ValueError(f"probs shape {probs.data.shape} does not match "
                         f"labels shape {np.shape(y)}")
    p = clamp(probs, CLAMP_LO, CLAMP_HI)
    y = Tensor(np.asarray(y, dtype=p.data.dtype))
    one = Tensor(np.ones_like(p.data))
    ll = add(mul(y, log(p)), mul(sub(one, y), log(sub(one, p))))
    return mul(tensor_sum(ll), -1.0 / len(p.data))


def batch_loss(model, batch):
    """bce_loss of the batch's (seq, label indices) pairs."""
    if not batch:
        raise ValueError("batch must be non-empty")
    seqs, indices = zip(*batch)
    return bce_loss(model.probs(seqs), label_matrix(indices, model.num_classes))


def train_step(model, batch, state):
    """One Adam update on the batch loss; returns the loss value.

    A non-finite loss or gradient raises RuntimeError, naming the loss or
    the parameter, before any weight changes.
    """
    for p in model.parameters():
        p.zero_grad()
    loss = batch_loss(model, batch)
    loss.backward()
    if not np.isfinite(loss.data):
        raise RuntimeError(f"non-finite loss {float(loss.data)}")
    for name, p in model.named_parameters():
        if p.grad is not None and not np.isfinite(p.grad).all():
            raise RuntimeError(f"non-finite gradient for parameter {name}")
    step_with_grads(model.parameters(), state)
    return float(loss.data)


def prepare_examples(model, notes):
    """Tokenize once up front; returns (seq, label indices) pairs. A note
    with an unknown code or no tokens raises ValueError naming it."""
    out = []
    for n in notes:
        seq = model.token_sequence(n.text)
        if seq.s == 0:
            raise ValueError(f"note {n.note_id!r}: text has no tokens")
        try:
            indices = model.label_set.indices_for(n.codes)
        except ValueError as e:
            raise ValueError(f"note {n.note_id!r}: {e}") from None
        out.append((seq, indices))
    return out


def predict_probs(model, seqs):
    """Probability matrix [notes, K] under no_grad."""
    with no_grad():
        return model.probs(seqs).data.astype(np.float64)


def evaluate_model(model, examples, threshold=None):
    """EvalReport for prepared examples; searches ``default_grid`` for the
    threshold when none is given."""
    preds = PredictionSet(predict_probs(model, [s for s, _ in examples]),
                          [i for _, i in examples])
    if threshold is None:
        threshold, _ = best_threshold(preds)
    return evaluate(preds, threshold)


def _fmt_metric(v):
    return "NA" if v is None else f"{v:.6f}"


@dataclass
class TrainResult:
    best_step: int
    best_val_f1: float
    best_threshold: float
    best_dir: str
    latest_dir: str
    log_path: str


def train_loop(model, train_notes, val_notes, config, out_dir):
    """Alg.-style loop: sample batches, update, evaluate every eval_every
    steps, keep the checkpoint with the highest validation micro F1.

    The metrics log gets one row per evaluation:
    step, mean train loss since last eval, validation micro F1 (at the
    grid-searched threshold), validation PR-AUC, validation ROC-AUC.

    A non-finite loss or gradient stops the loop with a RuntimeError naming
    the step and the parameter; no checkpoint is written for that step.
    """
    config.validate()
    if not train_notes:
        raise ValueError("training corpus is empty")
    if not val_notes:
        raise ValueError("validation corpus is empty")
    model.s_max = config.max_seq_len
    os.makedirs(out_dir, exist_ok=True)
    best_dir = os.path.join(out_dir, "best")
    latest_dir = os.path.join(out_dir, "latest")
    log_path = os.path.join(out_dir, METRICS_LOG_NAME)

    train_ex = prepare_examples(model, train_notes)
    val_ex = prepare_examples(model, val_notes)

    state = init_adam(model.parameters(), lr=config.lr)
    rng = np.random.default_rng(config.seed)
    order = []
    best = TrainResult(best_step=0, best_val_f1=-1.0, best_threshold=0.5,
                       best_dir=best_dir, latest_dir=latest_dir, log_path=log_path)
    losses = []

    with open(log_path, "w", encoding="utf-8") as logf:
        def run_eval(step):
            report = evaluate_model(model, val_ex)
            logf.write(f"{step}\t{np.mean(losses) if losses else 0.0:.6f}\t"
                       f"{report.micro_f1:.6f}\t{_fmt_metric(report.pr_auc)}\t"
                       f"{_fmt_metric(report.roc_auc)}\n")
            logf.flush()
            losses.clear()
            model.save(latest_dir)
            if report.micro_f1 > best.best_val_f1:
                best.best_step = step
                best.best_val_f1 = report.micro_f1
                best.best_threshold = report.threshold
                model.save(best_dir)

        if config.max_steps == 0:
            model.save(best_dir)
            model.save(latest_dir)
            best.best_val_f1 = 0.0
            return best

        for step in range(1, config.max_steps + 1):
            if len(order) < config.batch_size:
                order.extend(rng.permutation(len(train_ex)).tolist())
            batch = [train_ex[i] for i in order[: config.batch_size]]
            del order[: config.batch_size]
            try:
                losses.append(train_step(model, batch, state))
            except RuntimeError as e:
                raise RuntimeError(f"step {step}: {e}") from None
            if step % config.eval_every == 0 or step == config.max_steps:
                run_eval(step)

    return best
