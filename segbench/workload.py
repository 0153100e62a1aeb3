"""One benchmark workload, run in a process of its own.

Makes the inputs from the seed (not timed), then drives the same Python API
the CLI drives, with one closed-loop client that waits for each reply, in
rounds of:

  set-up    corpus load, tokenization and model build or checkpoint load,
            timed as a whole;
  train     ``train_loop`` from the current weights, validating and
            checkpointing at its end;
  eval      the ``segcoder eval`` path: threshold search on the validation
            split, then the test split at that threshold;
  predict   the ``segcoder predict`` path: one raw-text note per
            ``rank_codes`` call.

Every operation's output is checked, and the measurements are written as
JSON to ``--out``. Rounds are started until ``--seconds`` have passed, or
``--rounds`` of them are done, but never fewer than the loss reference
covers. With ``--trace 1`` the layers
are wrapped by tracing.Tracer. run.py starts it as

    python3 segbench/workload.py --workload train-cnn --seed 1 --seconds 50 \
        --trace 0 --work-dir .bench_work --out result.json
"""

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import segcoder  # noqa: E402
from segcoder import kernels, training  # noqa: E402
from segcoder.cnn import CnnConfig, build_word_vocab  # noqa: E402
from segcoder.corpus import (LabelSet, SyntheticSpec, generate_synthetic,  # noqa: E402
                             load_corpus, load_notes, save_notes)
from segcoder.model import CodingModel, new_model  # noqa: E402
from segcoder.optim import init_adam  # noqa: E402
from segcoder.tokenizer import Vocab  # noqa: E402
from segcoder.transformer import EncoderConfig  # noqa: E402

# rank_codes and predict_probs run the same forward pass; they may differ
# only by float32 rounding.
AGREE_TOL = 1e-6
AGREE_CHECKS = 2
SPLITS = ("train", "val", "test")
# Batch order depends on the round only, so on mixed-length corpora every
# seed trains on the same sequence of note lengths; the seed varies the
# words and the initial weights.
TRAIN_ORDER_SEED = 0


def load_config(name, tiny):
    with open(Path(__file__).with_name("workloads.json"), encoding="utf-8") as f:
        cfg = json.load(f)[name]
    if tiny:
        _merge(cfg, cfg["tiny"])
    return cfg


def _merge(base, over):
    for k, v in over.items():
        if isinstance(v, dict):
            _merge(base[k], v)
        else:
            base[k] = v


def environment():
    """What the numbers depend on besides the code. BLAS threading is read,
    never set."""
    blas_threads = None
    with open("/proc/self/maps", encoding="utf-8") as f:
        libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_"):
            if hasattr(lib, sym):
                blas_threads = int(getattr(lib, sym)())
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads": blas_threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "kernels": kernels.active.name,
    }


def make_inputs(cfg, seed, work):
    """Synthetic corpus files, and for a served model its seeded checkpoint.

    One corpus is generated per note length in ``doc_lens``, each with an
    equal share of every split, so all seeds get the same note lengths and
    only the words differ.
    """
    c = dict(cfg["corpus"])
    lengths = c.pop("doc_lens")
    per = {f"n_{s}": c.pop(f"n_{s}") // len(lengths) for s in SPLITS}
    c["placement"] = tuple(c["placement"])
    c["codes_per_note"] = tuple(c["codes_per_note"])
    split_notes = {s: [] for s in SPLITS}
    for b, length in enumerate(lengths):
        spec = SyntheticSpec(**c, **per, doc_len=(length, length),
                             seed=seed * len(lengths) + b)
        paths = generate_synthetic(spec, work / f"len{length}")
        for s in SPLITS:
            for n in load_notes(paths[s]):
                n.note_id = f"len{length}-{n.note_id}"
                split_notes[s].append(n)
    files = {"codes": paths["codes"], "vocab": paths["vocab"]}
    for s in SPLITS:
        files[s] = str(work / f"{s}.jsonl")
        save_notes(split_notes[s], files[s])
    if cfg["model"]["from_checkpoint"]:
        files["checkpoint"] = str(work / "served")
        label_set = LabelSet.from_file(files["codes"])
        build_model(cfg, files, label_set, None, seed).save(files["checkpoint"])
    return files


def build_model(cfg, files, label_set, train_notes, seed):
    m = cfg["model"]
    s_max = cfg["train"]["max_seq_len"]
    if m["kind"] == "cnn":
        vocab = build_word_vocab(n.text for n in train_notes)
        enc = CnnConfig(**m["encoder"], vocab_size=len(vocab))
    else:
        vocab = Vocab.from_file(files["vocab"])
        enc = EncoderConfig(**m["encoder"], vocab_size=len(vocab))
    return new_model(m["kind"], enc, vocab, label_set, s_max=s_max, seed=seed)


def set_up(cfg, files, seed):
    """Everything before the first train step: the model, the corpora, and
    the tokenization and Adam state that train_loop prepares."""
    label_set = LabelSet.from_file(files["codes"])
    notes = {s: load_corpus(files[s], label_set)[0] for s in SPLITS}
    if cfg["model"]["from_checkpoint"]:
        model = CodingModel.load(files["checkpoint"])
    else:
        model = build_model(cfg, files, label_set, notes["train"], seed)
    model.s_max = cfg["train"]["max_seq_len"]
    training.prepare_examples(model, notes["train"])
    training.prepare_examples(model, notes["val"])
    init_adam(model.parameters(), lr=cfg["train"]["lr"])
    return model, notes


class Checks:
    """Output checks; one failed check fails the operation it belongs to."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def op(self, what, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{what}: {detail}")


def latency(seconds):
    """Per-step or per-request times. ``p50`` over the whole run is the
    end-to-end figure: the machines this runs on are shared, and another
    tenant on the same cores slows this one by 1.3x to 2.3x for seconds to
    minutes at a time, so a run samples every phase all through its length
    and its median covers the states the run saw. p90 is kept only where
    ten samples lie beyond it."""
    ms = np.asarray(seconds) * 1e3
    return {
        "n": len(ms),
        "p50": float(np.median(ms)),
        "p90": float(np.percentile(ms, 90)) if len(ms) >= 100 else None,
        "samples_ms": ms.tolist(),
    }


class Recorder:
    """Times every train step from outside, through the name train_loop
    looks up."""

    def __init__(self):
        self.steps = []       # (start, seconds, loss, real tokens)
        self._inner = None

    def install(self):
        self._inner = inner = training.train_step

        def timed_step(model, batch, state):
            t0 = perf_counter()
            loss = inner(model, batch, state)
            self.steps.append((t0, perf_counter() - t0, loss, sum(seq.s for seq, _ in batch)))
            return loss
        training.train_step = timed_step

    def uninstall(self):
        training.train_step = self._inner


def train_round(cfg, model, notes, steps, r, work, recorder):
    """One train_loop call, validating once at its end; returns the steps it
    made and its wall time from the first step on."""
    t = cfg["train"]
    tc = training.TrainConfig(lr=t["lr"], batch_size=t["batch_size"], max_steps=steps,
                              eval_every=steps, max_seq_len=t["max_seq_len"],
                              seed=TRAIN_ORDER_SEED + r)
    first = len(recorder.steps)
    training.train_loop(model, notes["train"], notes["val"], tc, str(work / "run"))
    made = recorder.steps[first:]
    return made, perf_counter() - made[0][0]


def eval_pass(model, notes, checks):
    t0 = perf_counter()
    val_ex = training.prepare_examples(model, notes["val"])
    threshold = training.evaluate_model(model, val_ex).threshold
    test_ex = training.prepare_examples(model, notes["test"])
    rep = training.evaluate_model(model, test_ex, threshold=threshold)
    seconds = perf_counter() - t0
    nk = len(test_ex) * model.num_classes
    total = rep.tp + rep.fp + rep.fn + rep.tn
    aucs = (rep.pr_auc, rep.roc_auc)
    checks.op("eval", total == nk and all(a is not None and 0.0 <= a <= 1.0 for a in aucs),
              f"tp+fp+fn+tn={total} vs N*K={nk}, AUCs {aucs}")
    return seconds


def predict_request(model, text, checks):
    t0 = perf_counter()
    ranked = model.rank_codes(text)
    seconds = perf_counter() - t0
    K = model.num_classes
    probs = np.array([p for _, p in ranked])
    checks.op("predict", len(ranked) == K and bool(np.all(np.isfinite(probs)))
              and bool(np.all((probs >= 0.0) & (probs <= 1.0)))
              and bool(np.all(np.diff(probs) <= 0.0)),
              f"{len(ranked)} codes for K={K}, not finite, outside [0,1] or unsorted")
    return seconds, ranked


def check_agreement(model, answered, checks):
    """rank_codes must give the probabilities predict_probs gives."""
    for text, ranked in answered:
        ref = training.predict_probs(model, [model.token_sequence(text)])[0]
        by_code = dict(ranked)
        got = np.array([by_code[c] for c in model.label_set.codes])
        diff = float(np.max(np.abs(got - ref)))
        checks.op("rank_codes vs predict_probs", diff <= AGREE_TOL, f"max diff {diff:.3g}")


def measure(cfg, files, seed, seconds, rounds, work, checks):
    """All rounds of one run: ``rounds`` of them, or as many as start within
    ``seconds``, but never fewer than the ones the loss reference covers.
    Each round sets up once (only the first round's model is kept), trains,
    evaluates and serves, so that every metric is sampled across the whole
    run. The loss is checked, and the peak resident set read, at the end of
    those first rounds: a fixed amount of work, however many rounds the
    machine's speed lets the run make after them."""
    steps, per_round = cfg["round"]["steps"], cfg["round"]["requests"]
    ref = cfg.get("loss_ref")
    min_rounds = -(-ref["steps"] // steps) if ref else 1
    rng = np.random.default_rng(seed)
    recorder = Recorder()
    setup_s, eval_s, predict_s, predict_notes, rate = [], [], [], [], []
    train_wall = 0.0
    start = perf_counter()
    recorder.install()
    try:
        r = 0
        while r < min_rounds or (r < rounds if rounds else perf_counter() - start < seconds):
            t0 = perf_counter()
            fresh = set_up(cfg, files, seed)
            setup_s.append(perf_counter() - t0)
            if r == 0:
                model, notes = fresh
                texts = [n.text for n in notes["test"]]
            del fresh
            made, wall = train_round(cfg, model, notes, steps, r, work, recorder)
            train_wall += wall
            rate.append(sum(m[3] for m in made) / wall)
            eval_s.append(eval_pass(model, notes, checks))
            # consecutive test notes, shuffled: a round of k * len(texts)
            # requests sends every note k times
            answered = []
            for i in rng.permutation(np.arange(r * per_round, (r + 1) * per_round) % len(texts)):
                dt, ranked = predict_request(model, texts[i], checks)
                predict_s.append(dt)
                predict_notes.append(int(i))
                if len(answered) < AGREE_CHECKS:
                    answered.append((texts[i], ranked))
            r += 1
            if r == min_rounds:
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        recorder.uninstall()

    losses = [m[2] for m in recorder.steps]
    for i, loss in enumerate(losses, 1):
        checks.op("train step", math.isfinite(loss), f"step {i} loss {loss}")
    # the training trajectory depends on the seed and the step count only,
    # so the loss is checked at the step the reference was taken at
    ref_loss = None
    if ref is not None:
        ref_loss = float(np.mean(losses[ref["steps"] - steps:ref["steps"]]))
        checks.op("reference loss", ref["lo"] <= ref_loss <= ref["hi"],
                  f"mean loss of steps {ref['steps'] - steps + 1}-{ref['steps']} "
                  f"{ref_loss:.4f} outside [{ref['lo']}, {ref['hi']}]")
    predict_wall = float(sum(predict_s))
    return model, answered, {
        "rounds": r,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setup_s),
        "setup_samples_s": setup_s,
        "train": {
            "steps": len(losses),
            "reference_loss": ref_loss,
            "wall_s": train_wall,
            "tokens_per_s": sum(m[3] for m in recorder.steps) / train_wall,
            "round_tokens_per_s": rate,
            "step_ms": latency([m[1] for m in recorder.steps]),
        },
        "eval": {"samples_s": eval_s, "eval_s": statistics.median(eval_s)},
        "predict": {"predict_ms": latency(predict_s), "wall_s": predict_wall,
                    "notes": predict_notes},
        "measured_wall_s": train_wall + sum(eval_s) + predict_wall,
    }


def run(args):
    if Path(segcoder.__file__).resolve().parent != (ROOT / "src" / "segcoder").resolve():
        raise SystemExit(f"segcoder imported from {segcoder.__file__}, not {ROOT / 'src'}")
    cfg = load_config(args.workload, args.tiny)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.work_dir))
    try:
        files = make_inputs(cfg, args.seed, work)
        tracer = None
        if args.trace:
            from tracing import Tracer
            tracer = Tracer()
            tracer.install()
        checks = Checks()
        try:
            model, answered, measured = measure(cfg, files, args.seed, args.seconds,
                                                args.rounds, work, checks)
        finally:
            if tracer is not None:
                tracer.uninstall()
        check_agreement(model, answered, checks)
        result = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "env": environment(),
            "config": cfg,
            **measured,
            "attempted": checks.attempted,
            "failed": checks.failed,
            "failures": checks.failures,
        }
        if tracer is not None:
            result["per_layer"] = tracer.per_layer()
            tracer.save_spans(Path(args.out).with_suffix(".spans.npz"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(result, f, indent=1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--rounds", type=int, default=0,
                    help="run exactly this many rounds instead of --seconds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--out", required=True)
    run(ap.parse_args())


if __name__ == "__main__":
    main()
