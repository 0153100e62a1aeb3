"""Convolutional baseline encoder: vocabulary, shapes, equivariance, gradients."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import segcoder
from segcoder import kernels
from segcoder.cnn import CnnConfig, CnnParams, build_word_vocab, encode_cnn, word_ids
from segcoder.label_attention import LabelHeadParams, predict
from segcoder.tensor import (Tensor, add, concat_rows, embedding_gather, matmul, mul,
                             reshape, tanh, tensor_sum)

from conftest import param_gradcheck


def make_params(rng, vocab_size=10, embed_dim=3, filters=4, kernel=3, dtype=np.float64):
    config = CnnConfig(embed_dim=embed_dim, filters=filters, kernel=kernel,
                       vocab_size=vocab_size)
    return CnnParams(config, rng, dtype=dtype), config


def encode_cnn_oracle(params, config, ids):
    """The convolution as first written: zero-pad the embeddings, gather
    every window's rows by index, flatten to patches. Its backward
    scatters n·k window rows."""
    n, k, de = ids.size, config.kernel, config.embed_dim
    emb = embedding_gather(params.word_emb, ids)
    half = k // 2
    if half:
        zero = Tensor(np.zeros((half, de), dtype=emb.data.dtype))
        padded = concat_rows([zero, emb, zero])
    else:
        padded = emb
    windows = np.arange(n)[:, None] + np.arange(k)[None, :]
    patches = reshape(embedding_gather(padded, windows), (n, k * de))
    return tanh(add(matmul(patches, params.conv_w), params.conv_b))


class TestWordVocab:
    def test_min_freq_and_order(self):
        texts = ["b a a", "a b c", "b a"]
        # counts: a=4, b=3, c=1; min_freq 3 keeps a and b, lexicographic
        vocab = build_word_vocab(texts, min_freq=3)
        assert vocab.tokens[:2] == ["[PAD]", "[UNK]"]
        assert vocab.tokens[2:] == ["a", "b"]

    def test_lowercasing(self):
        vocab = build_word_vocab(["Fever FEVER fever"], min_freq=3)
        assert "fever" in vocab.token_to_id

    def test_word_ids_lookup_and_unk(self):
        vocab = build_word_vocab(["a a a b b b"], min_freq=3)
        seq = word_ids("A zzz b", vocab)
        assert seq.s == 3
        assert seq.ids[0] == vocab.token_to_id["a"]
        assert seq.ids[1] == vocab.unk_id
        assert seq.ids[2] == vocab.token_to_id["b"]

    def test_empty_text_gives_empty_sequence(self):
        vocab = build_word_vocab(["a a a"], min_freq=3)
        assert word_ids("", vocab).s == 0


class TestEncodeCnn:
    def test_output_shape(self, rng):
        params, config = make_params(rng, filters=5, kernel=3)
        out = encode_cnn(params, config, np.array([1, 2, 3, 4, 5, 6]))
        assert out.data.shape == (6, 5)

    def test_kernel_one_is_per_word_affine(self, rng):
        # with k=1 the convolution degenerates to tanh(E @ W + b) row by row
        params, config = make_params(rng, kernel=1)
        ids = np.array([2, 5, 2, 7])
        out = encode_cnn(params, config, ids).data
        emb = params.word_emb.data[ids]
        expected = np.tanh(emb @ params.conv_w.data + params.conv_b.data)
        assert np.allclose(out, expected, atol=1e-12)

    def test_matches_direct_convolution(self, rng):
        # k=3 same-padded conv written out with explicit zero padding
        params, config = make_params(rng, kernel=3)
        ids = np.array([1, 4, 2, 8, 3])
        out = encode_cnn(params, config, ids).data
        emb = params.word_emb.data[ids]
        padded = np.vstack([np.zeros((1, 3)), emb, np.zeros((1, 3))])
        for i in range(len(ids)):
            patch = padded[i:i + 3].reshape(-1)
            expected = np.tanh(patch @ params.conv_w.data + params.conv_b.data)
            assert np.allclose(out[i], expected, atol=1e-12)

    def test_translation_equivariance_away_from_edges(self, rng):
        # interior rows depend only on their receptive field, so shifting the
        # sequence shifts the outputs
        params, config = make_params(rng, kernel=3)
        base = rng.integers(1, 10, size=12)
        prefix = rng.integers(1, 10, size=3)
        shifted = np.concatenate([prefix, base])
        out_base = encode_cnn(params, config, base).data
        out_shift = encode_cnn(params, config, shifted).data
        half = config.kernel // 2
        for i in range(half, len(base) - half):
            assert np.allclose(out_base[i], out_shift[i + 3], atol=1e-12)

    def test_constant_sequence_interior_rows_equal(self, rng):
        params, config = make_params(rng, kernel=5)
        out = encode_cnn(params, config, np.full(9, 4)).data
        half = config.kernel // 2
        interior = out[half:9 - half]
        assert np.allclose(interior, interior[0], atol=1e-12)

    def test_output_bounded_by_tanh(self, rng):
        params, config = make_params(rng)
        out = encode_cnn(params, config, rng.integers(0, 10, size=20)).data
        assert np.all(np.abs(out) < 1.0)

    def test_single_word_sequence(self, rng):
        params, config = make_params(rng, kernel=3)
        out = encode_cnn(params, config, np.array([3]))
        assert out.data.shape == (1, config.filters)

    def test_empty_sequence_rejected(self, rng):
        params, config = make_params(rng)
        with pytest.raises(ValueError):
            encode_cnn(params, config, np.array([], dtype=np.int64))

    def test_determinism(self, rng):
        params, config = make_params(rng)
        ids = rng.integers(0, 10, size=15)
        a = encode_cnn(params, config, ids).data
        b = encode_cnn(params, config, ids).data
        assert np.array_equal(a, b)


class TestMatchesOracle:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("n,kernel", [(12, 3), (40, 9), (3, 9), (1, 9), (6, 1)])
    def test_forward_and_gradients(self, dtype, n, kernel):
        rng = np.random.default_rng(n * 100 + kernel)
        ids = rng.integers(0, 6, size=n)   # vocabulary of 6: ids repeat
        w = rng.normal(size=(n, 5)).astype(dtype)
        results = []
        for encode in (encode_cnn_oracle, encode_cnn):
            params, config = make_params(np.random.default_rng(0), vocab_size=6,
                                         embed_dim=4, filters=5, kernel=kernel,
                                         dtype=dtype)
            out = encode(params, config, ids)
            tensor_sum(mul(out, Tensor(w))).backward()
            results.append([out.data] + [t.grad for _, t in params.named()])
        names = ["output", "word_emb", "conv_w", "conv_b"]
        for name, want, got in zip(names, *results):
            assert got.dtype == dtype
            scale = 1.0 if dtype == np.float64 else max(1.0, float(np.abs(want).max()))
            atol = 1e-12 if dtype == np.float64 else 1e-6 * scale
            np.testing.assert_allclose(got, want, rtol=0, atol=atol, err_msg=name)


class TestScatterCount:
    def test_only_the_word_embedding_scatters(self, rng, monkeypatch):
        calls = []
        scatter = kernels.active.scatter_add

        def counting(table, ids, rows):
            calls.append(rows.shape)
            return scatter(table, ids, rows)

        monkeypatch.setattr(kernels.active, "scatter_add", counting)
        params, config = make_params(rng, kernel=9)
        ids = rng.integers(0, 10, size=20)
        tensor_sum(encode_cnn(params, config, ids)).backward()
        assert calls == [(20, config.embed_dim)]


class TestHeadCompatibility:
    def test_label_attention_accepts_cnn_output(self, rng):
        # the same classification head must work behind either encoder
        params, config = make_params(rng, filters=4)
        head = LabelHeadParams(3, 4, rng, dtype=np.float64)
        E = encode_cnn(params, config, np.array([1, 2, 3, 4, 5]))
        p = predict(E, head).data
        assert p.shape == (3,)
        assert np.all(p > 0) and np.all(p < 1)


class TestGradients:
    def test_gradcheck_through_encoder_and_head(self, rng):
        params, config = make_params(rng, vocab_size=7, embed_dim=3,
                                     filters=2, kernel=3)
        head = LabelHeadParams(2, 2, rng, dtype=np.float64)
        ids = np.array([1, 4, 1, 6])  # repeated id exercises scatter-add
        w = rng.normal(size=2)
        named = params.named() + head.named()
        tensors = [t for _, t in named]
        names = [n for n, _ in named]

        def loss():
            return tensor_sum(mul(predict(encode_cnn(params, config, ids), head), Tensor(w)))

        param_gradcheck(tensors, loss, rtol=1e-3, names=names)


# Builds a model of the kind given in argv[1], scores a note and makes one
# train step, then prints whether scipy.special was ever imported.
_SCORE_ONE_NOTE = textwrap.dedent("""
    import sys
    import segcoder.cli
    from segcoder.cnn import CnnConfig, build_word_vocab
    from segcoder.corpus import LabelSet, Note
    from segcoder.model import new_model
    from segcoder.optim import init_adam
    from segcoder.tokenizer import PAD_TOKEN, UNK_TOKEN, Vocab
    from segcoder.training import prepare_examples, train_step
    from segcoder.transformer import EncoderConfig

    kind = sys.argv[1]
    note = Note("n1", "fever and cough fever cough fever and cough", ["A", "B"])
    if kind == "cnn":
        vocab = build_word_vocab([note.text])
        enc = CnnConfig(embed_dim=4, filters=4, kernel=3, vocab_size=len(vocab))
    else:
        vocab = Vocab([PAD_TOKEN, UNK_TOKEN, "fever", "and", "cough"])
        enc = EncoderConfig(num_blocks=1, hidden=8, heads=2, intermediate=16,
                            vocab_size=len(vocab), max_positions=4, seg_len=4)
    model = new_model(kind, enc, vocab, LabelSet(note.codes), s_max=16)
    assert len(model.rank_codes(note.text)) == 2
    train_step(model, prepare_examples(model, [note]), init_adam(model.parameters(), lr=1e-3))
    print("scipy.special" in sys.modules)
""")


class TestNoScipyForCnn:
    """scipy.special is only needed by GELU's erf; a CNN process (CLI
    imported, a note scored, one train step) must never import it."""

    @staticmethod
    def _loads_scipy_special(kind):
        env = dict(os.environ, PYTHONPATH=str(Path(segcoder.__file__).resolve().parents[1]))
        out = subprocess.run([sys.executable, "-c", _SCORE_ONE_NOTE, kind], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        return out.stdout.split()[-1] == "True"

    def test_cnn_never_imports_scipy_special(self):
        assert not self._loads_scipy_special("cnn")

    def test_transformer_imports_it_for_gelu(self):
        # the same probe sees the import where GELU runs
        assert self._loads_scipy_special("transformer")
