"""Long-document handling: window planning and batched window encoding.

A padded token sequence is split into fixed-length windows (disjoint by
default, overlapping when ``stride > 0``). All windows are stacked and
encoded in one batched pass, each attending only within itself, and the
per-token vectors are stitched back into one long sequence. With overlap,
each token's vector comes from the window whose center is nearest (ties to
the earlier window), so every position is owned by exactly one window.
"""

from dataclasses import dataclass

import numpy as np

from .tensor import embedding_gather, reshape, slice_rows


@dataclass
class SegmentPlan:
    seg_len: int
    stride: int
    segments: list          # (start, end) pairs covering [0, padded_len)
    owner: np.ndarray       # per-token index of the owning segment

    @property
    def padded_len(self):
        return len(self.owner)


def plan_segments(padded_len, seg_len, stride=0):
    """Window layout for a padded sequence.

    stride=0 tiles the sequence with disjoint windows (padded_len must be a
    multiple of seg_len); stride>0 advances windows by seg_len - stride and
    appends a final flush-right window if needed.
    """
    if not 0 <= stride < seg_len:
        raise ValueError(f"stride must satisfy 0 <= stride < seg_len, got {stride}")
    if padded_len < seg_len:
        raise ValueError(f"padded length {padded_len} shorter than segment {seg_len}")
    if stride == 0:
        if padded_len % seg_len != 0:
            raise ValueError(
                f"padded length {padded_len} is not a multiple of seg_len {seg_len}"
            )
        starts = list(range(0, padded_len, seg_len))
    else:
        step = seg_len - stride
        starts = list(range(0, padded_len - seg_len + 1, step))
        if starts[-1] + seg_len < padded_len:
            starts.append(padded_len - seg_len)
    segments = [(s, s + seg_len) for s in starts]
    centers = np.array([(s + e) / 2.0 for s, e in segments])
    lo = np.array([s for s, _ in segments])
    hi = np.array([e for _, e in segments])
    positions = np.arange(padded_len)
    # a token may only be owned by a window containing it; among those the
    # nearest center wins, with argmin breaking ties toward the earlier one
    dist = np.abs(positions[:, None] - centers[None, :])
    contained = (positions[:, None] >= lo[None, :]) & (positions[:, None] < hi[None, :])
    dist = np.where(contained, dist, np.inf)
    owner = np.argmin(dist, axis=1).astype(np.int64)
    return SegmentPlan(seg_len=seg_len, stride=stride, segments=segments, owner=owner)


def encode_long(encoder, seq, plan):
    """Stitched per-token representations for a whole document.

    ``encoder`` maps (ids, pad_mask) of shape [W, seg_len] to a
    [W, seg_len, d] tensor, so every window of the plan is encoded in one
    call. Each real token position i < s takes its row from its owner
    window, and the padded tail is dropped, so the result has exactly
    ``seq.s`` rows. Disjoint windows own their rows in order, so the result
    is a prefix of the stacked rows; with overlap the owned rows are
    gathered in one step.
    """
    padded = len(seq.ids)
    if plan.padded_len != padded:
        raise ValueError(f"plan covers {plan.padded_len} tokens, sequence has {padded}")
    n = plan.seg_len
    starts = np.array([start for start, _ in plan.segments])
    window = starts[:, None] + np.arange(n)                       # [W, n]
    out = encoder(np.asarray(seq.ids)[window], window >= seq.s)
    flat = reshape(out, (len(starts) * n, out.data.shape[-1]))
    if plan.stride == 0:
        return slice_rows(flat, 0, seq.s)
    owner = plan.owner[: seq.s]
    return embedding_gather(flat, owner * n + np.arange(seq.s) - starts[owner])
