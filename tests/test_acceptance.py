"""Acceptance gate: one test per shipped guarantee.

Each test prints one `criterion N: PASS/FAIL` line to the real stdout so the
gate's outcome stays visible under pytest's output capture. The two training
criteria (6 and 7) run real end-to-end experiments and dominate the runtime;
everything else finishes in seconds.
"""

import math
import sys
import time

import numpy as np
import pytest

import segcoder.tensor as T
from segcoder.cnn import CnnConfig, build_word_vocab
from segcoder.corpus import (LabelSet, Note, SyntheticSpec, generate_synthetic,
                             load_corpus)
from segcoder.label_attention import LabelHeadParams, attention_weights, predict
from segcoder.metrics import (PredictionSet, best_threshold, confusion_at,
                              default_grid, label_matrix, micro_f1, pr_auc, roc_auc)
from segcoder.model import CodingModel, new_model
from segcoder.segments import encode_long, plan_segments
from segcoder.tokenizer import PAD_TOKEN, UNK_TOKEN, TokenSequence, Vocab
from segcoder.training import (TrainConfig, bce_loss, evaluate_model,
                               prepare_examples, train_loop, train_step)
from segcoder.transformer import EncoderConfig, EncoderParams, count_parameters, encode_segment

from conftest import param_gradcheck


_capman = None


@pytest.fixture(autouse=True)
def _terminal(request):
    # pytest captures at the fd level, so even sys.__stdout__ is swallowed;
    # route liveness lines through the capture manager instead
    global _capman
    _capman = request.config.pluginmanager.getplugin("capturemanager")


def _emit(line):
    if _capman is not None:
        with _capman.global_and_fixture_disabled():
            print(line, file=sys.stderr, flush=True)
    else:
        print(line, file=sys.stderr, flush=True)


def report(num, ok, detail):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    _emit(line)
    assert ok, line


def note(msg):
    _emit(f"    {msg}")


# -------------------------------------------------------------------------
# 1. parameter accounting, zero tolerance
# -------------------------------------------------------------------------

def test_criterion_1_parameter_accounting():
    cfg = EncoderConfig(num_blocks=2, hidden=256, heads=4, intermediate=1024,
                        vocab_size=30522, max_positions=512, type_vocab=2,
                        seg_len=512, include_pooler=True)
    encoder_total = count_parameters(cfg)
    heads = {k: dict(LabelHeadParams(k, 256, rng=None).named()) for k in (50, 8_921, 72_748)}
    attn = {k: h["head.Q"].data.size for k, h in heads.items()}
    clf = {k: h["head.W"].data.size + h["head.b"].data.size for k, h in heads.items()}
    ok = (encoder_total == 9_591_040
          and attn == {50: 12_800, 8_921: 2_283_776, 72_748: 18_623_488}
          and clf == {50: 12_850, 8_921: 2_292_697, 72_748: 18_696_236})
    report(1, ok, f"encoder={encoder_total:,}; attention={attn}; classifier={clf}")


# -------------------------------------------------------------------------
# 2. finite-difference gradient checks: every op, then the composed model
# -------------------------------------------------------------------------

def _weighted_loss(fn, tensors):
    """Scalar probe over an op's output; the weight is fixed so repeated
    calls evaluate the same function."""
    with T.no_grad():
        shape = fn(*tensors).data.shape
    w = T.Tensor(np.random.default_rng(11).normal(size=shape))
    return lambda: T.tensor_sum(T.mul(fn(*tensors), w))


def test_criterion_2_gradient_correctness():
    rng = np.random.default_rng(7)

    def arr(*shape):
        return rng.normal(size=shape)

    ids = np.array([1, 3, 1, 0])
    mask = np.array([[False, True, False], [True, False, False]])
    ops = [
        ("add", lambda a, b: T.add(a, b), [arr(3, 4), arr(3, 4)]),
        ("add broadcast", lambda a, b: T.add(a, b), [arr(3, 4), arr(4)]),
        ("mul", lambda a, b: T.mul(a, b), [arr(3, 4), arr(3, 4)]),
        ("sub", lambda a, b: T.sub(a, b), [arr(3, 4), arr(3, 4)]),
        ("matmul", lambda a, b: T.matmul(a, b), [arr(3, 4), arr(4, 2)]),
        ("matmul batched", lambda a, b: T.matmul(a, b), [arr(2, 3, 4), arr(2, 4, 2)]),
        ("reshape", lambda a: T.reshape(a, (12,)), [arr(3, 4)]),
        ("transpose", T.transpose, [arr(3, 4)]),
        ("transpose axes", lambda a: T.transpose(a, (1, 0, 2)), [arr(2, 3, 4)]),
        ("sum", T.tensor_sum, [arr(3, 4)]),
        ("sum axis", lambda a: T.tensor_sum(a, axis=0), [arr(3, 4)]),
        ("log", T.log, [np.abs(arr(3, 4)) + 0.5]),
        ("clamp", lambda a: T.clamp(a, -0.8, 0.8), [arr(3, 4) * 0.4]),
        ("tanh", T.tanh, [arr(3, 4)]),
        ("sigmoid", T.sigmoid, [arr(3, 4)]),
        ("gelu", T.gelu, [arr(3, 4)]),
        ("softmax", T.softmax, [arr(3, 4)]),
        ("layer_norm", lambda a, g, b: T.layer_norm(a, g, b),
         [arr(3, 4), np.abs(arr(4)) + 0.5, arr(4)]),
        ("embedding_gather", lambda t: T.embedding_gather(t, ids), [arr(5, 4)]),
        ("masked softmax", lambda a: T.softmax(a, mask, 0.5), [arr(2, 3)]),
        ("concat_rows", lambda a, b: T.concat_rows([a, b]), [arr(2, 4), arr(3, 4)]),
        ("slice_rows", lambda a: T.slice_rows(a, 1, 3), [arr(4, 3)]),
        # its own generator, so the composed model below keeps its weights
        ("unfold_rows", lambda a: T.unfold_rows(a, 3),
         [np.random.default_rng(8).normal(size=(4, 3))]),
    ]
    t0 = time.time()
    for name, fn, arrays in ops:
        tensors = [T.Tensor(a.astype(np.float64), requires_grad=True) for a in arrays]
        param_gradcheck(tensors, _weighted_loss(fn, tensors),
                        rtol=1e-4, names=[f"{name}[{i}]" for i in range(len(tensors))])

    cfg = EncoderConfig(num_blocks=1, hidden=8, heads=2, intermediate=16,
                        vocab_size=12, max_positions=4, type_vocab=2,
                        seg_len=4, include_pooler=False)
    params = EncoderParams(cfg, rng, dtype=np.float64)
    head = LabelHeadParams(3, 8, rng, dtype=np.float64)
    seq = TokenSequence(rng.integers(0, 12, size=10))
    plan = plan_segments(seq.s, cfg.seg_len)
    labels = label_matrix([[0, 2]], 3)

    def loss():
        enc = lambda i, m: encode_segment(params, cfg, i, m)
        return bce_loss(T.reshape(predict(encode_long(enc, seq, plan), head), (1, 3)),
                        labels)

    named = params.named() + head.named()
    tensors = [t for _, t in named]
    names = [n for n, _ in named]
    param_gradcheck(tensors, loss, rtol=1e-3, names=names)
    report(2, True, f"{len(ops)} ops at rel err < 1e-4, composed model "
                    f"({sum(t.data.size for t in tensors)} params) at < 1e-3 "
                    f"in {time.time() - t0:.1f}s")


# -------------------------------------------------------------------------
# 3. segmented encoding equals single-segment encoding; stride-0 locality
# -------------------------------------------------------------------------

def test_criterion_3_segment_equivalence_and_locality():
    rng = np.random.default_rng(3)
    cfg = EncoderConfig(num_blocks=1, hidden=16, heads=2, intermediate=32,
                        vocab_size=20, max_positions=8, type_vocab=2,
                        seg_len=8, include_pooler=False)
    params = EncoderParams(cfg, rng)
    enc = lambda i, m: encode_segment(params, cfg, i, m)

    max_diff = 0.0
    for s in (1, 5, 8):
        ids = rng.integers(1, 20, size=s)
        padded = np.zeros(cfg.seg_len, dtype=np.int64)
        padded[:s] = ids
        with T.no_grad():
            long_out = encode_long(enc, TokenSequence(ids), plan_segments(s, cfg.seg_len)).data
            single = encode_segment(params, cfg, padded[None],
                                    (np.arange(cfg.seg_len) >= s)[None]).data[0, :s]
        max_diff = max(max_diff, float(np.max(np.abs(long_out - single))))
    equiv_ok = max_diff <= 1e-6

    s = 3 * cfg.seg_len
    ids = rng.integers(1, 20, size=s)
    seq = TokenSequence(ids)
    plan = plan_segments(s, cfg.seg_len)
    with T.no_grad():
        base = encode_long(enc, seq, plan).data
    edited = ids.copy()
    edited[2 * cfg.seg_len + 3] = (edited[2 * cfg.seg_len + 3] % 19) + 1
    with T.no_grad():
        after = encode_long(enc, TokenSequence(edited), plan).data
    local_ok = bool(np.array_equal(base[: 2 * cfg.seg_len], after[: 2 * cfg.seg_len]))
    changed = not np.array_equal(base[2 * cfg.seg_len:], after[2 * cfg.seg_len:])

    report(3, equiv_ok and local_ok and changed,
           f"single-segment max |diff| {max_diff:.2e} (<= 1e-6); "
           f"edit in last segment left first two segments bit-identical")


# -------------------------------------------------------------------------
# 4. attention invariants on 100 random inputs
# -------------------------------------------------------------------------

def test_criterion_4_attention_invariants():
    rng = np.random.default_rng(4)
    worst_sum = 0.0
    for _ in range(100):
        s = int(rng.integers(1, 12))
        d = int(rng.integers(2, 9))
        k = int(rng.integers(1, 5))
        E_arr = rng.normal(size=(s, d))
        head = LabelHeadParams(k, d, rng, dtype=np.float64)
        q_arr = head.Q.data[0]

        alpha = attention_weights(T.Tensor(E_arr), T.Tensor(q_arr)).data
        worst_sum = max(worst_sum, abs(float(alpha.sum()) - 1.0))

        # adding a vector with q-dot 1.7 to every row shifts all scores
        # equally; the softmax must not move
        shift = q_arr * (1.7 / float(q_arr @ q_arr))
        shifted = attention_weights(T.Tensor(E_arr + shift), T.Tensor(q_arr)).data
        assert np.allclose(alpha, shifted, atol=1e-6)

        probs = predict(T.Tensor(E_arr), head).data
        perm = rng.permutation(s)
        permuted = predict(T.Tensor(E_arr[perm]), head).data
        assert np.allclose(probs, permuted, atol=1e-9)

        # padded key positions must get exactly zero attention mass
        n = int(rng.integers(2, 7))
        scores = rng.normal(size=(n, n))
        pad = np.zeros(n, dtype=bool)
        pad[int(rng.integers(1, n)):] = True
        masked = T.softmax(T.Tensor(scores), key_mask=pad[None, :]).data
        assert np.all(masked[:, pad] == 0.0)
        assert np.allclose(masked.sum(axis=1), 1.0, atol=1e-6)

    report(4, worst_sum <= 1e-6,
           f"100 inputs: weight sums off by <= {worst_sum:.2e}; shift and "
           f"permutation invariance hold; padded positions get zero mass")


# -------------------------------------------------------------------------
# 5. streaming metrics equal brute-force oracles
# -------------------------------------------------------------------------

def test_criterion_5_metric_oracles():
    rng = np.random.default_rng(5)
    worst_roc = worst_pr = 0.0
    for i in range(200):
        notes = int(rng.integers(1, 51))
        k = int(rng.integers(1, 11))
        probs = rng.random((notes, k))
        if i % 3 == 0:
            probs = np.round(probs, 1)  # heavy ties
        labels = [np.nonzero(rng.random(k) < 0.35)[0] for _ in range(notes)]
        ps = PredictionSet(probs, labels)
        scores, y = ps.flat()
        assert scores.size <= 500

        pos, neg = scores[y], scores[~y]
        if pos.size and neg.size:
            wins = (pos[:, None] > neg[None, :]).sum()
            ties = (pos[:, None] == neg[None, :]).sum()
            oracle_roc = (wins + 0.5 * ties) / (pos.size * neg.size)
            worst_roc = max(worst_roc, abs(roc_auc(ps) - oracle_roc))

            points = [(0.0, 1.0)]
            for t in sorted(set(scores), reverse=True):
                hit = scores >= t
                tp = int(np.sum(hit & y))
                fp = int(np.sum(hit & ~y))
                points.append((tp / pos.size, tp / (tp + fp)))
            oracle_pr = float(np.trapezoid([p for _, p in points],
                                           [r for r, _ in points]))
            worst_pr = max(worst_pr, abs(pr_auc(ps) - oracle_pr))
        else:
            assert roc_auc(ps) is None and pr_auc(ps) is None

        got_t, got_f1 = best_threshold(ps)
        f1s = [micro_f1(*confusion_at(ps, t)[:3]) for t in default_grid()]
        exhaustive_f1 = max(f1s)
        exhaustive_t = default_grid()[f1s.index(exhaustive_f1)]
        assert got_t == exhaustive_t and got_f1 == exhaustive_f1

    ok = worst_roc <= 1e-9 and worst_pr <= 1e-9
    report(5, ok, f"200 sets: ROC off by <= {worst_roc:.2e}, PR off by <= "
                  f"{worst_pr:.2e}; best_threshold matches exhaustive search exactly")


# -------------------------------------------------------------------------
# 6. longer visible context strictly improves test micro F1
# -------------------------------------------------------------------------

SEG = 64
LONG_CTX = {
    "spec": dict(num_codes=20, vocab_size=500, doc_len=(4 * SEG, 4 * SEG),
                 placement=(0, 4 * SEG - 2), codes_per_note=(1, 3), seed=0,
                 n_train=2000, n_val=200, n_test=200),
    "lr": 3e-3,
    "batch": 8,
    "steps": {64: 3500, 128: 4500, 192: 3500, 256: 2000},
    "eval_every": 500,
}


def _toy_encoder_config(vocab):
    return EncoderConfig(num_blocks=1, hidden=32, heads=2, intermediate=128,
                         vocab_size=len(vocab), max_positions=SEG, type_vocab=2,
                         seg_len=SEG, include_pooler=False)


def _train_and_test(kind, enc_cfg, vocab, label_set, notes, s_max, tc, out_dir):
    model = new_model(kind, enc_cfg, vocab, label_set, s_max=s_max, seed=0)
    result = train_loop(model, notes["train"], notes["val"], tc, str(out_dir))
    best = CodingModel.load(result.best_dir)
    test_ex = prepare_examples(best, notes["test"])
    rep = evaluate_model(best, test_ex, threshold=result.best_threshold)
    return result, rep


def _load_splits(paths):
    label_set = LabelSet.from_file(paths["codes"])
    out = {}
    for split in ("train", "val", "test"):
        out[split], _ = load_corpus(paths[split], label_set)
    return out, label_set


@pytest.mark.slow
def test_criterion_6_long_context_effect(tmp_path):
    t0 = time.time()
    paths = generate_synthetic(SyntheticSpec(**LONG_CTX["spec"]), tmp_path / "corpus")
    notes, label_set = _load_splits(paths)
    vocab = Vocab.from_file(paths["vocab"])
    enc_cfg = _toy_encoder_config(vocab)

    f1 = {}
    for s_max in (64, 128, 192, 256):
        tc = TrainConfig(lr=LONG_CTX["lr"], batch_size=LONG_CTX["batch"],
                         max_steps=LONG_CTX["steps"][s_max],
                         eval_every=LONG_CTX["eval_every"],
                         max_seq_len=s_max, seed=0)
        result, rep = _train_and_test("transformer", enc_cfg, vocab, label_set,
                                      notes, s_max, tc, tmp_path / f"run{s_max}")
        f1[s_max] = rep.micro_f1
        note(f"s_max={s_max}: test F1 {rep.micro_f1:.4f} "
             f"(best step {result.best_step}, threshold {result.best_threshold:.2f}, "
             f"{time.time() - t0:.0f}s elapsed)")

    values = [f1[s] for s in (64, 128, 192, 256)]
    increasing = all(b > a for a, b in zip(values, values[1:]))
    gap = f1[256] - f1[64]
    ok = increasing and gap >= 0.25 and f1[256] >= 0.85
    report(6, ok, f"test F1 by s_max {{64: {f1[64]:.3f}, 128: {f1[128]:.3f}, "
                  f"192: {f1[192]:.3f}, 256: {f1[256]:.3f}}}; "
                  f"strictly increasing={increasing}, gap={gap:.3f} (>= 0.25), "
                  f"F1(256) >= 0.85; {time.time() - t0:.0f}s")


# -------------------------------------------------------------------------
# 7. CNN baseline trains through the identical harness
# -------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_7_encoder_comparison(tmp_path):
    t0 = time.time()
    spec = SyntheticSpec(num_codes=20, vocab_size=500, doc_len=(4 * SEG, 4 * SEG),
                         placement=(0, SEG - 2), codes_per_note=(1, 3), seed=1,
                         n_train=2000, n_val=200, n_test=200)
    paths = generate_synthetic(spec, tmp_path / "corpus")
    notes, label_set = _load_splits(paths)

    rows = []
    vocab = Vocab.from_file(paths["vocab"])
    tc = TrainConfig(lr=3e-3, batch_size=4, max_steps=1500, eval_every=300,
                     max_seq_len=SEG, seed=0)
    _, rep = _train_and_test("transformer", _toy_encoder_config(vocab), vocab,
                             label_set, notes, SEG, tc, tmp_path / "run_tr")
    rows.append(("transformer", SEG, rep))

    word_vocab = build_word_vocab(n.text for n in notes["train"])
    cnn_cfg = CnnConfig(embed_dim=32, filters=32, kernel=9, max_words=4 * SEG,
                        vocab_size=len(word_vocab))
    tc = TrainConfig(lr=1e-2, batch_size=4, max_steps=2500, eval_every=500,
                     max_seq_len=SEG, seed=0)
    _, rep = _train_and_test("cnn", cnn_cfg, word_vocab, label_set, notes,
                             SEG, tc, tmp_path / "run_cnn")
    rows.append(("cnn", SEG, rep))

    header = (f"{'encoder':<12} {'seq len':>7} {'micro F1':>9} {'precision':>9} "
              f"{'recall':>7} {'PR-AUC':>7} {'ROC-AUC':>8}")
    note(header)
    for name, s_max, rep in rows:
        note(f"{name:<12} {s_max:>7} {rep.micro_f1:>9.4f} "
             f"{rep.micro_precision:>9.4f} {rep.micro_recall:>7.4f} "
             f"{rep.pr_auc:>7.4f} {rep.roc_auc:>8.4f}")

    ok = all(rep.micro_f1 > 0.8 for _, _, rep in rows)
    report(7, ok, "both encoders exceed micro F1 0.8 on the front-placed "
                  f"corpus ({', '.join(f'{n}={r.micro_f1:.3f}' for n, _, r in rows)}); "
                  f"{time.time() - t0:.0f}s")


# -------------------------------------------------------------------------
# 8. a single example is overfit to near-zero loss
# -------------------------------------------------------------------------

def test_criterion_8_single_example_overfit():
    from segcoder.optim import init_adam

    vocab = Vocab([PAD_TOKEN, UNK_TOKEN] + [f"t{i}" for i in range(8)])
    cfg = EncoderConfig(num_blocks=1, hidden=16, heads=2, intermediate=64,
                        vocab_size=len(vocab), max_positions=8, type_vocab=2,
                        seg_len=8, include_pooler=False)
    model = new_model("transformer", cfg, vocab, LabelSet(["A", "B", "C", "D"]),
                      s_max=16, seed=0)
    batch = prepare_examples(
        model, [Note("n", "t0 t1 t2 t3 t4 t5 t6 t7 t0 t1", ["A", "C"])])
    state = init_adam(model.parameters(), lr=0.01)

    loss = math.inf
    steps = 0
    for steps in range(1, 501):
        loss = train_step(model, batch, state)
        if loss < 0.01:
            break
    report(8, loss < 0.01,
           f"loss {loss:.6f} after {steps} steps (< 0.01 within 500)")


# -------------------------------------------------------------------------
# 9. bit-identical reruns: corpora and training logs
# -------------------------------------------------------------------------

def test_criterion_9_determinism(tmp_path):
    spec_kw = dict(num_codes=4, vocab_size=30, doc_len=(20, 24),
                   placement=(0, 16), codes_per_note=(1, 2), seed=7,
                   n_train=20, n_val=8, n_test=8)
    p1 = generate_synthetic(SyntheticSpec(**spec_kw), tmp_path / "c1")
    p2 = generate_synthetic(SyntheticSpec(**spec_kw), tmp_path / "c2")
    corpora_ok = all(
        open(p1[k], "rb").read() == open(p2[k], "rb").read()
        for k in ("train", "val", "test", "codes", "vocab"))

    label_set = LabelSet.from_file(p1["codes"])
    train_notes, _ = load_corpus(p1["train"], label_set)
    val_notes, _ = load_corpus(p1["val"], label_set)
    vocab = Vocab.from_file(p1["vocab"])
    cfg = EncoderConfig(num_blocks=1, hidden=16, heads=2, intermediate=32,
                        vocab_size=len(vocab), max_positions=8, type_vocab=2,
                        seg_len=8, include_pooler=False)
    logs = []
    for run in range(2):
        model = new_model("transformer", cfg, vocab, label_set, s_max=16, seed=5)
        tc = TrainConfig(lr=1e-3, batch_size=4, max_steps=50, eval_every=10,
                         max_seq_len=16, seed=5)
        result = train_loop(model, train_notes, val_notes, tc, tmp_path / f"r{run}")
        logs.append(open(result.log_path, "rb").read())
    logs_ok = logs[0] == logs[1]

    report(9, corpora_ok and logs_ok,
           f"same-seed corpora byte-identical={corpora_ok}; "
           f"50-step metrics logs bit-identical={logs_ok}")
