"""Transformer encoder: configuration invariants, exact parameter
accounting, pad masking, and a full-segment gradient check."""

import numpy as np
import pytest

from conftest import param_gradcheck
from segcoder.tensor import Tensor, mul, no_grad, tensor_sum
from segcoder.transformer import (EncoderConfig, EncoderParams,
                                  count_parameters, encode_segment,
                                  truncated_normal)

TINY = dict(num_blocks=1, hidden=8, heads=2, intermediate=16, vocab_size=10,
            max_positions=4, type_vocab=2, seg_len=4, include_pooler=False)


class TestConfig:
    def test_hidden_divisible_by_heads(self):
        with pytest.raises(ValueError):
            EncoderConfig(hidden=10, heads=4)

    def test_seg_len_bounded_by_positions(self):
        with pytest.raises(ValueError):
            EncoderConfig(seg_len=1024, max_positions=512)


class TestCountParameters:
    def test_default_config_count_is_exact(self):
        assert count_parameters(EncoderConfig()) == 9_591_040

    def test_degenerate_analytic(self):
        cfg = EncoderConfig(num_blocks=0, hidden=1, heads=1, intermediate=1,
                            vocab_size=1, max_positions=1, type_vocab=1,
                            seg_len=1, include_pooler=False)
        assert count_parameters(cfg) == 5

    def test_enumeration_oracle_tiny_config(self):
        # independently list every tensor's shape and sum element counts
        d, i, v, p, tv = 8, 16, 10, 4, 2
        shapes = [(v, d), (p, d), (tv, d), (d,), (d,)]          # embeddings + LN
        shapes += [(d, d), (d,)] * 4                            # Q, K, V, O
        shapes += [(d,), (d,)]                                  # attention LN
        shapes += [(d, i), (i,), (i, d), (d,)]                  # FFN
        shapes += [(d,), (d,)]                                  # FFN LN
        expected = sum(int(np.prod(s)) for s in shapes)
        assert count_parameters(EncoderConfig(**TINY)) == expected

    @pytest.mark.parametrize("overrides", [
        {},
        {"include_pooler": True},
        {"num_blocks": 3, "hidden": 12, "heads": 3, "intermediate": 7},
        {"vocab_size": 31, "max_positions": 9, "seg_len": 9, "type_vocab": 1},
    ])
    def test_allocation_matches_count(self, overrides, rng):
        cfg = EncoderConfig(**{**TINY, **overrides})
        params = EncoderParams(cfg, rng)
        assert sum(t.data.size for _, t in params.named()) == count_parameters(cfg)


class TestTruncatedNormal:
    def test_bounded_at_two_sigma(self, rng):
        x = truncated_normal(rng, (5000,))
        assert np.all(np.abs(x) <= 2.0 * 0.02 + 1e-9)
        assert x.dtype == np.float32
        assert abs(float(x.mean())) < 0.002


class TestEncodeSegment:
    def setup_method(self):
        self.cfg = EncoderConfig(**TINY)
        self.params = EncoderParams(self.cfg, np.random.default_rng(7))

    def test_output_shape(self):
        out = encode_segment(self.params, self.cfg, [[1, 2, 3, 4]], [[False] * 4])
        assert out.data.shape == (1, 4, 8)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            encode_segment(self.params, self.cfg, [[1, 2, 3]], [[False] * 3])

    def test_single_unstacked_window_rejected(self):
        with pytest.raises(ValueError, match="ids per window"):
            encode_segment(self.params, self.cfg, [1, 2, 3, 4], [False] * 4)

    def test_stacked_windows_of_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="ids per window"):
            encode_segment(self.params, self.cfg, np.ones((2, 5), dtype=np.int64),
                           np.zeros((2, 5), dtype=bool))

    def test_mismatched_pad_mask_rejected(self):
        ids = np.ones((2, 4), dtype=np.int64)
        for mask in (np.zeros(4, dtype=bool), np.zeros((3, 4), dtype=bool),
                     np.zeros(8, dtype=bool)):
            with pytest.raises(ValueError, match="pad_mask shape"):
                encode_segment(self.params, self.cfg, ids, mask)

    def test_id_out_of_range(self):
        with pytest.raises(IndexError):
            encode_segment(self.params, self.cfg, [[1, 2, 3, 10]], [[False] * 4])

    def test_masked_positions_do_not_leak(self):
        mask = [[False, False, True, True]]
        with no_grad():
            a = encode_segment(self.params, self.cfg, [[1, 2, 3, 4]], mask)
            b = encode_segment(self.params, self.cfg, [[1, 2, 5, 9]], mask)
        np.testing.assert_array_equal(a.data[0, :2], b.data[0, :2])

    def test_pad_tail_permutation_invariance(self):
        mask = [[False, False, True, True]]
        with no_grad():
            a = encode_segment(self.params, self.cfg, [[1, 2, 3, 4]], mask)
            b = encode_segment(self.params, self.cfg, [[1, 2, 4, 3]], mask)
        np.testing.assert_array_equal(a.data[0, :2], b.data[0, :2])

    def test_deterministic(self):
        with no_grad():
            a = encode_segment(self.params, self.cfg, [[5, 6, 7, 8]], [[False] * 4])
            b = encode_segment(self.params, self.cfg, [[5, 6, 7, 8]], [[False] * 4])
        np.testing.assert_array_equal(a.data, b.data)

    def test_attention_rows_over_real_keys_sum_to_one(self, monkeypatch):
        import segcoder.transformer as tr
        captured = []
        orig = tr.softmax

        def spy(x, key_mask=None, scale=None):
            out = orig(x, key_mask, scale)
            captured.append(out.data.copy())
            return out

        monkeypatch.setattr(tr, "softmax", spy)
        mask = np.array([False, False, True, True])
        with no_grad():
            encode_segment(self.params, self.cfg, [[1, 2, 3, 4]], mask[None])
        assert captured, "no attention softmax recorded"
        for attn in captured:
            np.testing.assert_allclose(attn.sum(axis=-1),
                                       np.ones(attn.shape[:-1]), atol=1e-6)
            assert np.all(attn[..., mask] == 0.0)

    def test_nodes_per_block_pinned(self, monkeypatch):
        # a block records 29 nodes: the q, k and v linears (matmul, add) and
        # head splits (reshape, transpose); k's transpose; q k^T; one
        # attention softmax; attn v; the head merge (transpose, reshape);
        # the o linear; a residual add; a layer norm; two FFN linears, GELU,
        # a residual add and a layer norm. The embeddings and the output
        # reshape record 8.
        import segcoder.tensor as tensor_mod
        recorded = []
        orig = tensor_mod._make

        def counting(data, parents, backward):
            out = orig(data, parents, backward)
            recorded.append(out._backward is not None)
            return out

        monkeypatch.setattr(tensor_mod, "_make", counting)
        ids = np.array([[1, 2, 3, 4], [5, 6, 0, 0]])
        counts = []
        for blocks in (1, 2):
            cfg = EncoderConfig(**{**TINY, "num_blocks": blocks})
            recorded.clear()
            encode_segment(EncoderParams(cfg, np.random.default_rng(7)), cfg, ids, ids == 0)
            counts.append(sum(recorded))
        assert counts == [8 + 29, 8 + 2 * 29]

    def test_gradient_full_segment(self):
        cfg = EncoderConfig(**TINY)
        params = EncoderParams(cfg, np.random.default_rng(3), dtype=np.float64)
        ids = np.array([[1, 5, 2, 0]])
        mask = np.array([[False, False, False, True]])
        w = np.random.default_rng(11).normal(size=(1, 4, 8))
        probe = Tensor(w)

        def loss():
            return tensor_sum(mul(encode_segment(params, cfg, ids, mask), probe))

        named = params.named()
        param_gradcheck([t for _, t in named], loss, rtol=1e-3, atol=1e-6,
                        names=[n for n, _ in named])
