"""Window planning and long-document stitching semantics."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import encode_long_oracle, param_gradcheck
from segcoder.segments import encode_long, plan_segments
from segcoder.tensor import Tensor, mul, no_grad, reshape, tensor_sum
from segcoder.tokenizer import TokenSequence
from segcoder.transformer import EncoderConfig, EncoderParams, encode_segment

TINY = dict(num_blocks=1, hidden=8, heads=2, intermediate=16, vocab_size=12,
            max_positions=4, type_vocab=2, seg_len=4, include_pooler=False)


def tiny_encoder(seed=7, dtype=np.float32):
    cfg = EncoderConfig(**TINY)
    params = EncoderParams(cfg, np.random.default_rng(seed), dtype=dtype)

    def enc(ids, pad_mask):
        return encode_segment(params, cfg, ids, pad_mask)

    return enc, params, cfg


class TestPlanSegments:
    def test_disjoint_two_windows(self):
        assert plan_segments(1024, 512).segments == [(0, 512), (512, 1024)]

    def test_single_window(self):
        for seg in (1, 4, 512):
            assert plan_segments(seg, seg).segments == [(0, seg)]

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(s=st.integers(1, 400), seg=st.integers(1, 48))
    @example(s=512, seg=512)   # exact multiple: no padding added
    @example(s=513, seg=512)   # one token over: two windows
    @example(s=8192, seg=512)  # sixteen windows
    def test_every_position_covered_exactly_once(self, s, seg):
        plan = plan_segments(s, seg)
        windows = math.ceil(s / seg)
        assert plan.seg_len == seg
        assert (windows - 1) * seg < s <= windows * seg
        # contiguous, in order, each seg_len long: [0, W*seg_len) tiled once
        assert plan.segments == [(i * seg, (i + 1) * seg) for i in range(windows)]

    def test_empty_note_rejected(self):
        for seg in (1, 4, 512):
            with pytest.raises(ValueError, match="s >= 1"):
                plan_segments(0, seg)


class TestEncodeLong:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(s=st.integers(1, 400), seg=st.integers(1, 48), other=st.integers(1, 400))
    @example(s=512, seg=512, other=1)
    @example(s=513, seg=512, other=512)
    @example(s=8192, seg=512, other=8193)
    def test_windows_tile_the_padded_note(self, s, seg, other):
        plan = plan_segments(s, seg)
        windows = len(plan.segments)
        calls = []

        def encoder(ids, pad_mask):
            # row i of the output holds position i
            calls.append((ids, pad_mask))
            return Tensor(np.arange(ids.size, dtype=np.float64).reshape(ids.shape + (1,)))

        seq = TokenSequence(np.arange(s) % 7 + 1)
        out = encode_long(encoder, seq, plan).data
        np.testing.assert_array_equal(out[:, 0], np.arange(s))
        (ids, pad_mask), = calls
        assert ids.shape == pad_mask.shape == (windows, seg)
        np.testing.assert_array_equal(ids.reshape(-1)[:s], seq.ids)
        np.testing.assert_array_equal(ids.reshape(-1)[s:], 0)
        np.testing.assert_array_equal(pad_mask.reshape(-1), np.arange(windows * seg) >= s)

        if math.ceil(other / seg) == windows:
            assert plan_segments(other, seg) == plan
        else:
            with pytest.raises(ValueError, match="does not tile"):
                encode_long(encoder, seq, plan_segments(other, seg))

    def test_row_count_always_s(self):
        enc, params, cfg = tiny_encoder()
        for s in (1, 3, 4, 5, 9):
            seq = TokenSequence(np.ones(s, dtype=np.int64))
            with no_grad():
                out = encode_long(enc, seq, plan_segments(s, cfg.seg_len))
            assert out.data.shape == (s, cfg.hidden)

    def test_pad_preserves_prefix_and_pads_zero(self):
        calls = []

        def encoder(ids, pad_mask):
            calls.append((ids, pad_mask))
            return Tensor(np.zeros(ids.shape + (1,)))

        encode_long(encoder, TokenSequence([7, 8, 9]), plan_segments(3, 4))
        (ids, pad_mask), = calls
        np.testing.assert_array_equal(ids, [[7, 8, 9, 0]])
        np.testing.assert_array_equal(pad_mask, [[False, False, False, True]])

    def test_single_segment_equivalence(self):
        enc, params, cfg = tiny_encoder()
        seq = TokenSequence([3, 5, 1])
        plan = plan_segments(seq.s, cfg.seg_len)
        with no_grad():
            long_out = encode_long(enc, seq, plan)
            direct = enc(np.array([[3, 5, 1, 0]]), np.array([[False, False, False, True]]))
        assert long_out.data.shape == (3, cfg.hidden)
        np.testing.assert_allclose(long_out.data, direct.data[0, :3], atol=1e-6)

    def test_two_disjoint_segments_concatenate(self):
        enc, params, cfg = tiny_encoder()
        ids = np.arange(8) % 12
        seq = TokenSequence(ids)
        plan = plan_segments(8, 4)
        with no_grad():
            long_out = encode_long(enc, seq, plan)
            first = enc(ids[None, :4], np.zeros((1, 4), bool))
            second = enc(ids[None, 4:], np.zeros((1, 4), bool))
        np.testing.assert_array_equal(long_out.data[:4], first.data[0])
        np.testing.assert_array_equal(long_out.data[4:], second.data[0])

    def test_locality_bit_exact_under_distant_edit(self):
        enc, params, cfg = tiny_encoder()
        ids_a = np.array([1, 2, 3, 4, 5, 6, 7, 8])
        ids_b = ids_a.copy()
        ids_b[6] = 11  # edit inside the second window only
        plan = plan_segments(8, 4)
        with no_grad():
            out_a = encode_long(enc, TokenSequence(ids_a), plan)
            out_b = encode_long(enc, TokenSequence(ids_b), plan)
        np.testing.assert_array_equal(out_a.data[:4], out_b.data[:4])
        assert not np.array_equal(out_a.data[4:], out_b.data[4:])

    def test_plan_length_mismatch_rejected(self):
        enc, params, cfg = tiny_encoder()
        seq = TokenSequence(np.ones(8, dtype=np.int64))
        with pytest.raises(ValueError):
            encode_long(enc, seq, plan_segments(12, 4))

    def test_gradients_flow_from_every_segment(self):
        enc, params, cfg = tiny_encoder()
        seq = TokenSequence(np.arange(8) % 12)
        plan = plan_segments(8, 4)
        out = encode_long(enc, seq, plan)
        tensor_sum(out).backward()
        # position embeddings are used by both windows; token embedding rows
        # for ids appearing only in the second window must still get grads
        assert params.pos_emb.grad is not None and np.any(params.pos_emb.grad != 0)
        only_second = int(seq.ids[6])
        assert np.any(params.token_emb.grad[only_second] != 0)

    def test_gradient_matches_finite_differences(self):
        enc, params, cfg = tiny_encoder(dtype=np.float64)
        seq = TokenSequence(np.arange(8) % 12)
        plan = plan_segments(8, 4)
        probe = Tensor(np.random.default_rng(5).normal(size=(8, 8)))

        def loss():
            return tensor_sum(mul(encode_long(enc, seq, plan), probe))

        named = params.named()
        param_gradcheck([t for _, t in named], loss, rtol=1e-3, atol=1e-6,
                        names=[n for n, _ in named])


class TestBatchedAgainstLoop:
    """The one-call ``encode_long`` against the per-window loop it replaced:
    output and every encoder parameter gradient, each within ``tol`` times
    the larger of 1 and the oracle's largest magnitude."""

    @staticmethod
    def _run(fn, dtype, seq, plan):
        enc, params, cfg = tiny_encoder(seed=11, dtype=dtype)
        out = fn(enc, seq, plan)
        probe = np.random.default_rng(2).normal(size=out.data.shape).astype(dtype)
        tensor_sum(mul(out, Tensor(probe))).backward()
        return [("out", out.data)] + [(n, t.grad) for n, t in params.named()]

    @pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-12), (np.float32, 1e-6)])
    @pytest.mark.parametrize("s,padded", [
        (3, 4),       # s < seg_len
        (12, 12),     # s = 3 * seg_len
        (9, 12),      # ragged s
        (7, 8),       # ragged s ending inside the second of two windows
    ])
    def test_output_and_gradients(self, s, padded, dtype, tol):
        seq = TokenSequence(np.random.default_rng(s * 7).integers(1, 12, size=padded)[:s])
        plan = plan_segments(s, 4)
        assert len(plan.segments) * plan.seg_len == padded
        got = self._run(encode_long, dtype, seq, plan)
        want = self._run(encode_long_oracle, dtype, seq, plan)
        for (name, g), (_, w) in zip(got, want):
            assert g.dtype == dtype, name
            scale = max(1.0, float(np.abs(w).max()))
            err = float(np.abs(g - w).max())
            assert err <= tol * scale, f"{name}: max |diff| {err:.3e}"

    def test_stacked_call_equals_one_call_per_window(self):
        enc, params, cfg = tiny_encoder()
        ids = np.array([[1, 2, 3, 4], [5, 6, 7, 8], [9, 10, 11, 1]])
        mask = np.array([[False, False, False, False],
                         [False, False, True, True],
                         [False, True, True, True]])
        with no_grad():
            stacked = enc(ids, mask).data
            single = np.stack([enc(i[None], m[None]).data[0] for i, m in zip(ids, mask)])
        assert stacked.shape == (3, cfg.seg_len, cfg.hidden)
        np.testing.assert_allclose(stacked, single, rtol=0, atol=1e-6)
