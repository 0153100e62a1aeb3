"""Small bidirectional transformer encoder producing per-token vectors.

A stack of W windows of ``seg_len`` token ids, encoded in one pass, goes
through token + position + type embeddings and ``num_blocks``
post-layer-norm blocks (self-attention within each window with additive
key masking of pad positions, then a GELU feed-forward).
Defaults match the 2-block, 256-dim configuration whose total parameter count is
9,591,040.

The pooler projection is allocated so parameter accounting matches that
total, but the forward pass never uses it: downstream consumers pool token
vectors with label attention instead of reading a summary token.
"""

import math
from dataclasses import dataclass

import numpy as np

from .tensor import (
    Tensor,
    add,
    embedding_gather,
    gelu,
    layer_norm,
    matmul,
    reshape,
    slice_rows,
    softmax,
    transpose,
)

INIT_STD = 0.02


@dataclass
class EncoderConfig:
    num_blocks: int = 2
    hidden: int = 256
    heads: int = 4
    intermediate: int = 1024
    vocab_size: int = 30522
    max_positions: int = 512
    type_vocab: int = 2
    seg_len: int = 512
    include_pooler: bool = True

    def __post_init__(self):
        if min(self.hidden, self.heads, self.seg_len) < 1:
            raise ValueError(f"hidden, heads and seg_len must be >= 1, got hidden "
                             f"{self.hidden}, heads {self.heads}, seg_len {self.seg_len}")
        if self.hidden % self.heads != 0:
            raise ValueError(f"hidden {self.hidden} not divisible by heads {self.heads}")
        if self.seg_len > self.max_positions:
            raise ValueError(
                f"seg_len {self.seg_len} exceeds max_positions {self.max_positions}"
            )

    @property
    def head_dim(self):
        return self.hidden // self.heads


def truncated_normal(rng, shape, dtype=np.float32):
    """Normal(0, INIT_STD) with draws beyond two stddev resampled."""
    out = rng.standard_normal(shape)
    bad = np.abs(out) > 2.0
    while bad.any():
        out[bad] = rng.standard_normal(int(bad.sum()))
        bad = np.abs(out) > 2.0
    return (out * INIT_STD).astype(dtype)


def init_weight(rng, shape, dtype=np.float32):
    """Truncated-normal weights drawn from ``rng``; with ``rng=None``, an
    uninitialised array that draws nothing, for a checkpoint to fill."""
    if rng is None:
        return np.empty(shape, dtype=dtype)
    return truncated_normal(rng, shape, dtype=dtype)


class EncoderParams:
    """All weight tensors of the encoder, in a fixed named order; ``rng``
    as for ``init_weight``."""

    def __init__(self, config, rng, dtype=np.float32):
        d, i = config.hidden, config.intermediate

        def param(shape):
            return Tensor(init_weight(rng, shape, dtype=dtype), requires_grad=True)

        def ones(shape):
            return Tensor(np.ones(shape, dtype=dtype), requires_grad=True)

        def zeros(shape):
            return Tensor(np.zeros(shape, dtype=dtype), requires_grad=True)

        self.config = config
        self.token_emb = param((config.vocab_size, d))
        self.pos_emb = param((config.max_positions, d))
        self.type_emb = param((config.type_vocab, d))
        self.emb_ln_g = ones(d)
        self.emb_ln_b = zeros(d)
        self.blocks = []
        for _ in range(config.num_blocks):
            self.blocks.append(
                {
                    "q_w": param((d, d)), "q_b": zeros(d),
                    "k_w": param((d, d)), "k_b": zeros(d),
                    "v_w": param((d, d)), "v_b": zeros(d),
                    "o_w": param((d, d)), "o_b": zeros(d),
                    "attn_ln_g": ones(d), "attn_ln_b": zeros(d),
                    "ffn_w1": param((d, i)), "ffn_b1": zeros(i),
                    "ffn_w2": param((i, d)), "ffn_b2": zeros(d),
                    "ffn_ln_g": ones(d), "ffn_ln_b": zeros(d),
                }
            )
        if config.include_pooler:
            self.pooler_w = param((d, d))
            self.pooler_b = zeros(d)
        else:
            self.pooler_w = None
            self.pooler_b = None

    def named(self):
        pairs = [
            ("token_emb", self.token_emb),
            ("pos_emb", self.pos_emb),
            ("type_emb", self.type_emb),
            ("emb_ln_g", self.emb_ln_g),
            ("emb_ln_b", self.emb_ln_b),
        ]
        for bi, blk in enumerate(self.blocks):
            for key, t in blk.items():
                pairs.append((f"block{bi}.{key}", t))
        if self.pooler_w is not None:
            pairs.append(("pooler_w", self.pooler_w))
            pairs.append(("pooler_b", self.pooler_b))
        return pairs


def count_parameters(config):
    """Exact scalar count of an EncoderParams allocation for ``config``."""
    d, i = config.hidden, config.intermediate
    total = (config.vocab_size + config.max_positions + config.type_vocab) * d + 2 * d
    per_block = 4 * (d * d + d) + 2 * d + (d * i + i) + (i * d + d) + 2 * d
    total += config.num_blocks * per_block
    if config.include_pooler:
        total += d * d + d
    return total


def _linear(x, w, b):
    return add(matmul(x, w), b)


def encode_segment(params, config, segment_ids, pad_mask):
    """Per-token representations for a stack of segments.

    ``segment_ids`` holds ``[W, seg_len]`` ids for W windows encoded in one
    pass; ``pad_mask`` has the same shape and is True at padded positions,
    which are excluded as attention keys within their own window. The
    result is ``[W, seg_len, d]``. Windows never see each
    other: the linears and layer norms act row by row over ``[W*seg_len, d]``
    and attention runs per window over ``[W, heads, seg_len, seg_len]``.
    Padded positions still produce output rows; callers drop them downstream.
    """
    ids = np.asarray(segment_ids, dtype=np.int64)
    if ids.ndim != 2 or ids.shape[1] != config.seg_len:
        raise ValueError(f"expected {config.seg_len} ids per window as "
                         f"[W, {config.seg_len}], got shape {ids.shape}")
    pad_mask = np.asarray(pad_mask, dtype=bool)
    if pad_mask.shape != ids.shape:
        raise ValueError(
            f"pad_mask shape {pad_mask.shape} must match segment_ids {ids.shape}")
    w, n = ids.shape
    d, a, dh = config.hidden, config.heads, config.head_dim

    x = embedding_gather(params.token_emb, ids)                   # [W, n, d]
    x = add(x, slice_rows(params.pos_emb, 0, n))
    x = add(x, slice_rows(params.type_emb, 0, 1))  # type-0 row, broadcast
    x = reshape(layer_norm(x, params.emb_ln_g, params.emb_ln_b), (w * n, d))

    key_mask = pad_mask.reshape(w, 1, 1, n)
    scale = 1.0 / math.sqrt(dh)
    for blk in params.blocks:
        def split_heads(t):
            return transpose(reshape(t, (w, n, a, dh)), (0, 2, 1, 3))

        q = split_heads(_linear(x, blk["q_w"], blk["q_b"]))
        k = split_heads(_linear(x, blk["k_w"], blk["k_b"]))
        v = split_heads(_linear(x, blk["v_w"], blk["v_b"]))
        attn = softmax(matmul(q, transpose(k, (0, 1, 3, 2))), key_mask, scale)
        ctx = reshape(transpose(matmul(attn, v), (0, 2, 1, 3)), (w * n, d))
        x = layer_norm(
            add(x, _linear(ctx, blk["o_w"], blk["o_b"])),
            blk["attn_ln_g"],
            blk["attn_ln_b"],
        )
        h = gelu(_linear(x, blk["ffn_w1"], blk["ffn_b1"]))
        x = layer_norm(
            add(x, _linear(h, blk["ffn_w2"], blk["ffn_b2"])),
            blk["ffn_ln_g"],
            blk["ffn_ln_b"],
        )
    return reshape(x, (w, n, d))
