"""Long-document handling: window planning and batched window encoding.

A note of s tokens is tiled by ceil(s / seg_len) disjoint fixed-length
windows, the last padded past s. This module is the one place that pads:
all windows are stacked and encoded in one batched pass, each attending
only within itself, and the per-token vectors are joined back into one
long sequence, so a token's representation depends only on its own window.
"""

from dataclasses import dataclass

import numpy as np

from .tensor import reshape, slice_rows


@dataclass
class SegmentPlan:
    seg_len: int
    segments: list          # (start, end) pairs tiling [0, W * seg_len)


def plan_segments(s, seg_len):
    """The ceil(s / seg_len) disjoint windows of ``seg_len`` tokens that
    cover a note of ``s`` >= 1 tokens."""
    if s < 1 or seg_len < 1:
        raise ValueError(f"need s >= 1 and seg_len >= 1, got s {s}, seg_len {seg_len}")
    end = -(-s // seg_len) * seg_len
    return SegmentPlan(seg_len=seg_len,
                       segments=[(i, i + seg_len) for i in range(0, end, seg_len)])


def encode_long(encoder, seq, plan):
    """Joined per-token representations for a whole document.

    ``plan`` must be ``plan_segments(seq.s, plan.seg_len)``. The ids are
    written into zeroed ``[W, seg_len]`` windows (``[PAD]`` is id 0) and
    ``encoder`` maps (ids, pad_mask) of that shape to a [W, seg_len, d]
    tensor, so every window is encoded in one call. The windows' rows are
    stacked in order and the padded tail is dropped, so the result has
    exactly ``seq.s`` rows.
    """
    if plan != plan_segments(seq.s, plan.seg_len):
        raise ValueError(f"plan of {len(plan.segments)} windows of {plan.seg_len} "
                         f"does not tile {seq.s} tokens")
    shape = (len(plan.segments), plan.seg_len)
    ids = np.zeros(shape, dtype=np.int64)
    ids.reshape(-1)[: seq.s] = seq.ids
    pad_mask = (np.arange(ids.size) >= seq.s).reshape(shape)
    out = encoder(ids, pad_mask)
    return slice_rows(reshape(out, (ids.size, out.data.shape[-1])), 0, seq.s)
