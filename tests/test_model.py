"""End-to-end model wrapper: dispatch, persistence, ranking."""

import hashlib
import json
import re
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import segcoder.model as model_mod
import segcoder.transformer as transformer_mod
from segcoder import kernels
from segcoder.cnn import CnnConfig
from segcoder.corpus import LabelSet
from segcoder.model import CodingModel, new_model
from segcoder.optim import init_adam, step_with_grads
from segcoder.tensor import Tensor, add, mul, no_grad, tensor_sum
from segcoder.tokenizer import PAD_TOKEN, UNK_TOKEN, TokenSequence, Vocab
from segcoder.transformer import EncoderConfig

from conftest import assert_parity, loss_and_grads, per_note_probs


def make_vocab():
    return Vocab([PAD_TOKEN, UNK_TOKEN] + [f"t{i}" for i in range(8)])


def transformer_model(seed=0):
    config = EncoderConfig(num_blocks=1, hidden=16, heads=2, intermediate=32,
                           vocab_size=10, max_positions=8, type_vocab=2,
                           seg_len=8, include_pooler=False)
    return new_model("transformer", config, make_vocab(), LabelSet(["A", "B", "C"]),
                     s_max=24, seed=seed)


def cnn_model(seed=0):
    config = CnnConfig(embed_dim=6, filters=16, kernel=3, max_words=50)
    return new_model("cnn", config, make_vocab(), LabelSet(["A", "B", "C"]),
                     s_max=24, seed=seed)


def text_probs(model, text):
    """The [K] probability row of one raw-text note, under no_grad."""
    with no_grad():
        return model.probs([model.token_sequence(text)]).data[0]


class TestConstruction:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            new_model("rnn", CnnConfig(), make_vocab(), LabelSet(["A"]), s_max=8)

    @pytest.mark.parametrize("s_max", [0, -3])
    def test_rejects_input_length_below_one(self, s_max):
        with pytest.raises(ValueError, match=f"s_max must be >= 1, got {s_max}"):
            new_model("cnn", CnnConfig(embed_dim=6, filters=16, kernel=3),
                      make_vocab(), LabelSet(["A"]), s_max=s_max)

    def test_rejects_empty_label_set(self):
        with pytest.raises(ValueError, match="empty"):
            new_model("cnn", CnnConfig(embed_dim=6, filters=16, kernel=3),
                      make_vocab(), LabelSet([]), s_max=8)

    def test_vocab_size_follows_vocab(self):
        model = transformer_model()
        assert model.enc_config.vocab_size == 10
        cm = cnn_model()
        assert cm.enc_config.vocab_size == 10

    def test_same_seed_same_weights(self):
        a, b = transformer_model(seed=5), transformer_model(seed=5)
        for (name, ta), (_, tb) in zip(a.named_parameters(), b.named_parameters()):
            assert np.array_equal(ta.data, tb.data), name

    @pytest.mark.parametrize("factory, seed, digest", [
        (transformer_model, 0,
         "f260d703966caa776ffcc289b7c83fcee18b262c6584c6db128cf63c2c88c863"),
        (cnn_model, 5,
         "404d622890892949be1a256e0727d012d6a713d58bf338dfae57aa84e8888ea2"),
    ])
    def test_fresh_weights_pinned(self, factory, seed, digest):
        # the draws of a fresh model, in order, as they have always been
        h = hashlib.sha256()
        for _, t in factory(seed=seed).named_parameters():
            h.update(np.ascontiguousarray(t.data, dtype="<f4").tobytes())
        assert h.hexdigest() == digest


class TestPrediction:
    @pytest.mark.parametrize("factory", [transformer_model, cnn_model])
    def test_probability_vector_shape_and_range(self, factory):
        model = factory()
        p = text_probs(model, "t0 t1 t2")
        assert p.shape == (3,)
        assert np.all(p > 0) and np.all(p < 1)

    def test_multi_segment_document(self):
        # 20 tokens with seg_len 8 spans three windows
        model = transformer_model()
        p = text_probs(model, " ".join(f"t{i % 8}" for i in range(20)))
        assert p.shape == (3,)

    def test_empty_text_rejected(self):
        model = transformer_model()
        with pytest.raises(ValueError, match="empty"):
            text_probs(model, "")

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="no token sequences"):
            transformer_model().probs([])

    @pytest.mark.parametrize("factory", [transformer_model, cnn_model])
    def test_token_sequence_truncates(self, factory):
        model = factory()
        seq = model.token_sequence(" ".join(["t0"] * 100))
        assert seq.s == model.s_max and len(seq.ids) == model.s_max
        assert np.array_equal(text_probs(model, " ".join(["t0"] * 100)),
                              text_probs(model, " ".join(["t0"] * model.s_max)))

    def test_cnn_truncates_to_max_words(self):
        model = cnn_model()
        model.s_max = 1000
        assert model.token_sequence(" ".join(["t1"] * 80)).s == model.enc_config.max_words

    def test_rank_codes_descending_and_topn(self):
        model = transformer_model()
        ranked = model.rank_codes("t0 t1 t2 t3")
        assert len(ranked) == 3
        probs = [p for _, p in ranked]
        assert probs == sorted(probs, reverse=True)
        assert {c for c, _ in ranked} == {"A", "B", "C"}
        assert model.rank_codes("t0 t1", top_n=2) == ranked[:2] or \
               len(model.rank_codes("t0 t1", top_n=2)) == 2

    @pytest.mark.parametrize("top_n", [None, 0, 4, 50])
    def test_rank_codes_matches_listcomp_under_ties(self, monkeypatch, top_n):
        model = transformer_model()
        model.label_set = LabelSet([f"C{i:02d}" for i in range(12)])
        probs = np.array([0.5, 0.25, 0.5, 0.9, 0.25, 0.1, 0.5, 0.9, 0.0, 1.0,
                          0.25, 0.3], dtype=np.float32)
        probs[11] = np.nextafter(probs[11], np.float32(1))
        monkeypatch.setattr(model, "probs", lambda seqs: Tensor(probs[None, :]))
        p64 = probs.astype(np.float64)
        order = np.argsort(-p64, kind="stable")
        if top_n is not None:
            order = order[:top_n]
        want = [(model.label_set.codes[i], float(p64[i])) for i in order]
        got = model.rank_codes("t0", top_n=top_n)
        assert got == want
        assert all(type(c) is str and type(p) is float for c, p in got)
        # ties keep code order
        assert [c for c, _ in got[:3]] == ["C09", "C03", "C07"][:len(got)]

    def test_cnn_uses_word_ids(self):
        model = cnn_model()
        seq = model.token_sequence("t0 unseen t1")
        assert seq.s == 3
        assert seq.ids[1] == model.vocab.unk_id


class TestPersistence:
    @pytest.mark.parametrize("factory", [transformer_model, cnn_model])
    def test_round_trip_probabilities_bit_exact(self, factory, tmp_path):
        model = factory()
        text = "t0 t1 t2 t3 t4"
        before = text_probs(model, text)
        model.save(tmp_path / "ckpt")
        reloaded = CodingModel.load(tmp_path / "ckpt")
        after = text_probs(reloaded, text)
        assert np.array_equal(before, after)

    def test_round_trip_preserves_configuration(self, tmp_path):
        model = transformer_model()
        model.save(tmp_path / "ckpt")
        reloaded = CodingModel.load(tmp_path / "ckpt")
        assert reloaded.kind == "transformer"
        assert reloaded.s_max == model.s_max
        assert reloaded.enc_config == model.enc_config
        assert reloaded.label_set.codes == ["A", "B", "C"]
        assert reloaded.vocab.tokens == model.vocab.tokens

    def test_legacy_stride_zero_config_loads_bit_exact(self, tmp_path):
        # checkpoints written while windows could overlap hold "stride": 0
        model = transformer_model()
        text = "t0 t1 t2 t3 t4 t5 t6 t7 t0 t1"
        model.save(tmp_path / "ckpt")
        path = tmp_path / "ckpt" / "config.json"
        cfg = json.loads(path.read_text())
        assert "stride" not in cfg
        path.write_text(json.dumps(dict(cfg, stride=0)))
        after = text_probs(CodingModel.load(tmp_path / "ckpt"), text)
        assert np.array_equal(text_probs(model, text).view(np.uint32), after.view(np.uint32))

    @pytest.mark.parametrize("stride", [3, 1, True])
    def test_legacy_overlap_stride_refused(self, tmp_path, stride):
        transformer_model().save(tmp_path / "ckpt")
        path = tmp_path / "ckpt" / "config.json"
        path.write_text(json.dumps(dict(json.loads(path.read_text()), stride=stride)))
        with pytest.raises(ValueError, match="^" + re.escape(f"{path}: stride {stride!r}: "
                                                             "overlapping windows are no "
                                                             "longer supported")):
            CodingModel.load(tmp_path / "ckpt")

    @pytest.mark.parametrize("stride", [False, 0.0, "0", None])
    def test_legacy_stride_of_another_type_refused(self, tmp_path, stride):
        # only an int 0 loads; a value merely equal to 0 is a type fault
        transformer_model().save(tmp_path / "ckpt")
        path = tmp_path / "ckpt" / "config.json"
        path.write_text(json.dumps(dict(json.loads(path.read_text()), stride=stride)))
        with pytest.raises(ValueError, match="^" + re.escape(f"{path}: field 'stride': "
                                                             f"expected int, got {stride!r}")):
            CodingModel.load(tmp_path / "ckpt")

    def test_parameter_names_stable(self, tmp_path):
        model = cnn_model()
        model.save(tmp_path / "ckpt")
        reloaded = CodingModel.load(tmp_path / "ckpt")
        assert [n for n, _ in reloaded.named_parameters()] == \
               [n for n, _ in model.named_parameters()]

    def test_missing_tensor_detected(self, tmp_path):
        model = cnn_model()
        model.save(tmp_path / "ckpt")
        manifest = tmp_path / "ckpt" / "weights.manifest"
        lines = manifest.read_text().splitlines(keepends=True)
        manifest.write_text("".join(l for l in lines if not l.startswith("head.b")))
        with pytest.raises(ValueError, match="head.b"):
            CodingModel.load(tmp_path / "ckpt")

    @pytest.mark.parametrize("factory", [transformer_model, cnn_model])
    def test_load_draws_nothing(self, factory, tmp_path, monkeypatch):
        model = factory()
        text = "t0 t1 t2 t3 t4"
        before = text_probs(model, text)
        model.save(tmp_path / "ckpt")

        def no_draws(*args, **kwargs):
            raise AssertionError("load drew random numbers")

        monkeypatch.setattr(transformer_mod, "truncated_normal", no_draws)
        monkeypatch.setattr(model_mod.np.random, "default_rng", no_draws)
        after = text_probs(CodingModel.load(tmp_path / "ckpt"), text)
        assert np.array_equal(before.view(np.uint32), after.view(np.uint32))

    @pytest.mark.parametrize("factory", [transformer_model, cnn_model])
    def test_loaded_parameters_own_disjoint_memory(self, factory, tmp_path):
        model = factory()
        model.save(tmp_path / "ckpt")
        reloaded = CodingModel.load(tmp_path / "ckpt")
        data = [t.data for t in reloaded.parameters()]
        for arr in data:
            assert arr.dtype == np.float32
            assert arr.flags.writeable and arr.flags.c_contiguous
        for a, b in combinations(data, 2):
            assert not np.shares_memory(a, b)

        # one Adam step on each gives the same weights, bit for bit
        seq = model.token_sequence("t0 t1 t2 t3 t4 t5 t6 t7 t0 t1")
        for m in (model, reloaded):
            params = m.parameters()
            state = init_adam(params, lr=1e-2)
            tensor_sum(m.probs([seq])).backward()
            step_with_grads(params, state)
        for (name, a), (_, b) in zip(model.named_parameters(), reloaded.named_parameters()):
            assert np.array_equal(a.data.view(np.uint32), b.data.view(np.uint32)), name


class TestBatchedEncoding:
    def test_one_encoder_pass_and_one_scatter_per_note(self, monkeypatch):
        # a 37-token note spans 5 windows of 8; all of them go through one
        # encode_segment call, so the token-embedding lookup scatters once
        config = EncoderConfig(num_blocks=1, hidden=16, heads=2, intermediate=32,
                               vocab_size=10, max_positions=8, type_vocab=2,
                               seg_len=8, include_pooler=False)
        model = new_model("transformer", config, make_vocab(), LabelSet(["A", "B"]),
                          s_max=40, seed=0)
        calls = {"encode_segment": 0, "scatter_add": 0}
        encode, scatter = model_mod.encode_segment, kernels.active.scatter_add

        def counting_encode(*args):
            calls["encode_segment"] += 1
            return encode(*args)

        def counting_scatter(*args):
            calls["scatter_add"] += 1
            return scatter(*args)

        monkeypatch.setattr(model_mod, "encode_segment", counting_encode)
        monkeypatch.setattr(kernels.active, "scatter_add", counting_scatter)
        ids = np.random.default_rng(3).integers(2, 10, size=37)
        tensor_sum(model.probs([TokenSequence(ids)])).backward()
        assert calls == {"encode_segment": 1, "scatter_add": 1}


PARITY_MODELS = {
    "transformer": lambda: transformer_model(seed=2),
    "cnn": lambda: cnn_model(seed=2),
}


class TestProbsParity:
    """probs against the per-note reference loop, conftest.per_note_probs."""

    @pytest.mark.parametrize("which", sorted(PARITY_MODELS))
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(notes=st.lists(st.integers(1, 40).flatmap(
        lambda n: st.lists(st.integers(0, 7), min_size=n, max_size=n)), min_size=1, max_size=3))
    def test_probs_match_per_note_loop_over_note_lengths(self, which, notes):
        # s_max is 24 and seg_len 8: lengths up to 40 draw one window,
        # several, a ragged last window and notes cut by token_sequence;
        # the oracle gets each note uncut (word t{i} is vocab id i + 2)
        model = PARITY_MODELS[which]()
        texts = [" ".join(f"t{i}" for i in note) for note in notes]
        with no_grad():
            got = model.probs([model.token_sequence(t) for t in texts]).data
            want = np.stack([
                per_note_probs(model, TokenSequence(np.array(note) + 2)).data
                for note in notes])
        assert_parity(got, want, np.float32)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("lengths", [(5,), (3, 20, 11)])
    @pytest.mark.parametrize("which", sorted(PARITY_MODELS))
    def test_probs_and_gradients_match_per_note_loop(self, which, lengths, dtype):
        model = PARITY_MODELS[which]()
        for _, t in model.named_parameters():
            t.data = t.data.astype(dtype)
        rng = np.random.default_rng(len(lengths))
        seqs = [TokenSequence(rng.integers(2, 10, size=n)) for n in lengths]
        weights = rng.normal(size=(len(seqs), model.num_classes)).astype(dtype)

        got, got_grads = loss_and_grads(
            model, lambda: tensor_sum(mul(model.probs(seqs), Tensor(weights))))
        with no_grad():
            rows = model.probs(seqs).data
        assert rows.shape == (len(seqs), model.num_classes) and rows.dtype == dtype

        def oracle():
            total = None
            for seq, w in zip(seqs, weights):
                term = tensor_sum(mul(per_note_probs(model, seq), Tensor(w)))
                total = term if total is None else add(total, term)
            return total

        want, want_grads = loss_and_grads(model, oracle)
        with no_grad():
            want_rows = np.stack([per_note_probs(model, s).data for s in seqs])
        assert_parity(rows, want_rows, dtype)
        assert_parity(got, want, dtype)
        for (name, _), g, w in zip(model.named_parameters(), got_grads, want_grads):
            assert g.dtype == dtype, name
            assert_parity(g, w, dtype)
