"""End-to-end model wrapper: dispatch, persistence, ranking."""

import numpy as np
import pytest

import segcoder.model as model_mod
from segcoder import kernels
from segcoder.cnn import CnnConfig
from segcoder.corpus import LabelSet
from segcoder.model import CodingModel, new_model
from segcoder.tensor import Tensor, no_grad, tensor_sum
from segcoder.tokenizer import PAD_TOKEN, UNK_TOKEN, TokenSequence, Vocab
from segcoder.transformer import EncoderConfig


def make_vocab():
    return Vocab([PAD_TOKEN, UNK_TOKEN] + [f"t{i}" for i in range(8)])


def transformer_model(seed=0, stride=0):
    config = EncoderConfig(num_blocks=1, hidden=16, heads=2, intermediate=32,
                           vocab_size=10, max_positions=8, type_vocab=2,
                           seg_len=8, include_pooler=False)
    return new_model("transformer", config, make_vocab(), LabelSet(["A", "B", "C"]),
                     s_max=24, stride=stride, seed=seed)


def cnn_model(seed=0):
    config = CnnConfig(embed_dim=6, filters=16, kernel=3, max_words=50)
    return new_model("cnn", config, make_vocab(), LabelSet(["A", "B", "C"]),
                     s_max=24, seed=seed)


class TestConstruction:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            new_model("rnn", CnnConfig(), make_vocab(), LabelSet(["A"]), s_max=8)

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


class TestPrediction:
    @pytest.mark.parametrize("factory", [transformer_model, cnn_model])
    def test_probability_vector_shape_and_range(self, factory):
        model = factory()
        with no_grad():
            p = model.probs_for_text("t0 t1 t2").data
        assert p.shape == (3,)
        assert np.all(p > 0) and np.all(p < 1)

    def test_multi_segment_document(self):
        # 20 tokens with seg_len 8 spans three windows
        model = transformer_model()
        with no_grad():
            p = model.probs_for_text(" ".join(f"t{i % 8}" for i in range(20))).data
        assert p.shape == (3,)

    def test_empty_text_rejected(self):
        model = transformer_model()
        with pytest.raises(ValueError, match="empty"):
            model.probs_for_text("")

    def test_truncation_applied(self):
        model = transformer_model()
        long_text = " ".join(["t0"] * 100)
        seq = model.token_sequence(long_text)
        assert seq.s == 100
        with no_grad():
            model.probs_for_ids(seq)  # must not exceed s_max internally
        short = model.token_sequence(" ".join(["t0"] * model.s_max))
        with no_grad():
            a = model.probs_for_ids(seq).data
            b = model.probs_for_ids(short).data
        assert np.array_equal(a, b)

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
        monkeypatch.setattr(model, "probs_for_text", lambda text: Tensor(probs))
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
        with no_grad():
            before = model.probs_for_text(text).data.copy()
        model.save(tmp_path / "ckpt")
        reloaded = CodingModel.load(tmp_path / "ckpt")
        with no_grad():
            after = reloaded.probs_for_text(text).data
        assert np.array_equal(before, after)

    def test_round_trip_preserves_configuration(self, tmp_path):
        model = transformer_model(stride=4)
        model.save(tmp_path / "ckpt")
        reloaded = CodingModel.load(tmp_path / "ckpt")
        assert reloaded.kind == "transformer"
        assert reloaded.stride == 4
        assert reloaded.s_max == model.s_max
        assert reloaded.enc_config == model.enc_config
        assert reloaded.label_set.codes == ["A", "B", "C"]
        assert reloaded.vocab.tokens == model.vocab.tokens

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
        tensor_sum(model.probs_for_ids(TokenSequence(ids=ids, s=37))).backward()
        assert calls == {"encode_segment": 1, "scatter_add": 1}
