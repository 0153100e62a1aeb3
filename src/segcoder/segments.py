"""Long-document handling: window planning and batched window encoding.

A padded token sequence is tiled by disjoint fixed-length windows. All
windows are stacked and encoded in one batched pass, each attending only
within itself, and the per-token vectors are joined back into one long
sequence, so a token's representation depends only on its own window.
"""

from dataclasses import dataclass

import numpy as np

from .tensor import reshape, slice_rows


@dataclass
class SegmentPlan:
    seg_len: int
    segments: list          # (start, end) pairs tiling [0, padded_len)

    @property
    def padded_len(self):
        return len(self.segments) * self.seg_len


def plan_segments(padded_len, seg_len):
    """Disjoint windows of ``seg_len`` tokens tiling a padded sequence whose
    length is a multiple of ``seg_len``."""
    if padded_len < seg_len:
        raise ValueError(f"padded length {padded_len} shorter than segment {seg_len}")
    if padded_len % seg_len != 0:
        raise ValueError(
            f"padded length {padded_len} is not a multiple of seg_len {seg_len}"
        )
    return SegmentPlan(seg_len=seg_len,
                       segments=[(s, s + seg_len) for s in range(0, padded_len, seg_len)])


def encode_long(encoder, seq, plan):
    """Joined per-token representations for a whole document.

    ``encoder`` maps (ids, pad_mask) of shape [W, seg_len] to a
    [W, seg_len, d] tensor, so every window of the plan is encoded in one
    call. The windows' rows are stacked in order and the padded tail is
    dropped, so the result has exactly ``seq.s`` rows.
    """
    padded = len(seq.ids)
    if plan.padded_len != padded:
        raise ValueError(f"plan covers {plan.padded_len} tokens, sequence has {padded}")
    shape = (len(plan.segments), plan.seg_len)
    pad_mask = np.arange(padded) >= seq.s
    out = encoder(np.asarray(seq.ids).reshape(shape), pad_mask.reshape(shape))
    return slice_rows(reshape(out, (padded, out.data.shape[-1])), 0, seq.s)
