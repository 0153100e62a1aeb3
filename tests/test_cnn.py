"""Convolutional baseline encoder: vocabulary, shapes, equivariance, gradients."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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


def list_word_ids(text, vocab):
    """Oracle for word_ids: the per-word list comprehension it replaced."""
    return [vocab.token_to_id.get(w, vocab.unk_id) for w in text.lower().split()]


class TestWordIdsMatchesLoop:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(text=st.text(alphabet="abAB zZ\t\n\x0b\x1c\x85\u2028\u3000\u0130\u00df\U0001f600\ud800",
                        max_size=60))
    @example(text="")
    @example(text="   \n\t ")
    @example(text="A zzz b \u0130 STRASSE stra\u00dfe x\ud800y \U0001f600")
    def test_ids_equal_the_list_comprehension(self, text):
        vocab = build_word_vocab(["a a a b b b \u0130 \u0130 \u0130 stra\u00dfe " * 3
                                  + "\U0001f600 " * 3 + "i\u0307 " * 3])
        seq = word_ids(text, vocab)
        assert seq.ids.dtype == np.int64
        assert seq.ids.tolist() == list_word_ids(text, vocab)


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
