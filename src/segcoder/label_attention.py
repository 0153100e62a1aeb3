"""Per-class attention pooling and binary classifiers.

Each class c owns an attention vector q_c used to pool the s token vectors
into one document vector z_c = softmax(E q_c)^T E, and a linear classifier
(w_c, b_c) whose sigmoid output is the class probability. The attention
layer holds d*K scalars and the classifier layer (d+1)*K.

The head is one autodiff op for the K logits. It visits the codes in blocks
and reuses one [block, s] buffer per worker for their scores, so the working
memory is O(workers * block * s) rather than O(K * s), and no [K, s] array
is kept in the graph. A head of at most ``BLOCK`` codes is one block on the
calling thread. A larger one runs contiguous ranges of whole blocks of
``BLOCK // workers`` codes, one range per worker of ``kernels``' pool, so
workers * block stays at most ``BLOCK``: blocks are independent in forward,
and in backward each range sums its own share of dE. Forward shifts each
block's scores by their row max, takes exp in place, and gets the row sums
as a GEMV against a ones vector: BLAS reads the buffer several times faster
than a numpy row reduction. Backward recomputes each block's attention
weights from the saved row maxima and sums instead of storing them, in the
manner of FlashAttention (Dao et al., 2022), and folds the max and the sum
into the GEMMs the recompute already runs, so it makes no separate pass over
a [block, s] buffer to subtract or divide them.
"""

from functools import partial

import numpy as np

from . import kernels
from .tensor import Tensor, _make, matmul, reshape, sigmoid, softmax
from .transformer import init_weight

# Codes in flight at once: the block of a serial head, or the blocks of all
# workers together. It bounds the scratch; at K = 8,922 and d = 32, totals
# of 256-2,048 ran within the host's noise of each other at 1 and 2 workers.
BLOCK = 512


class LabelHeadParams:
    """Attention vectors Q and classifiers (W, b); ``rng`` as for
    ``init_weight``."""

    def __init__(self, num_classes, hidden, rng, dtype=np.float32):
        self.num_classes = num_classes
        self.hidden = hidden
        self.Q = Tensor(init_weight(rng, (num_classes, hidden), dtype=dtype), requires_grad=True)
        self.W = Tensor(init_weight(rng, (num_classes, hidden), dtype=dtype), requires_grad=True)
        self.b = Tensor(np.zeros(num_classes, dtype=dtype), requires_grad=True)

    def named(self):
        return [("head.Q", self.Q), ("head.W", self.W), ("head.b", self.b)]


def _require_tokens(E):
    if E.data.ndim != 2 or E.data.shape[0] < 1:
        raise ValueError(f"need at least one token row, got shape {E.data.shape}")


def attention_weights(E, q_c):
    """Softmax attention over tokens for one class vector q_c."""
    _require_tokens(E)
    s, d = E.data.shape
    scores = reshape(matmul(E, reshape(q_c, (d, 1))), (1, s))
    return reshape(softmax(scores), (s,))


def _forward_blocks(e, q, z, row_max, row_sum, start, stop, block):
    """Codes start:stop of the forward, ``block`` rows at a time through one
    scratch buffer: their rows of z, row_max and row_sum."""
    s = e.shape[0]
    ones = np.ones(s, dtype=e.dtype)
    buf = np.empty((min(block, stop - start), s), dtype=e.dtype)
    for lo in range(start, stop, block):
        hi = min(lo + block, stop)
        a = buf[: hi - lo]
        np.matmul(q[lo:hi], e.T, out=a)
        np.max(a, axis=1, keepdims=True, out=row_max[lo:hi])
        a -= row_max[lo:hi]
        np.exp(a, out=a)
        np.matmul(a, ones, out=row_sum[lo:hi, 0])
        np.matmul(a, e, out=z[lo:hi])
        z[lo:hi] /= row_sum[lo:hi]


def _backward_blocks(e, e1, q, w, z, row_max, row_sum, gk, dQ, start, stop, block):
    """Codes start:stop of the backward: writes their rows of dQ and returns
    their share of dE.

    With e1 = [e | 1], exp([q | -max] @ e1.T) is alpha * sum, and
    ([dz | -dz.z] / sum) @ e1.T times it is dscores: one GEMM of both
    stacked rows against e1 replaces the passes over [block, s] that
    subtract the max and divide by the sum. dE gets alpha.T @ dz +
    dscores.T @ q as one GEMM over both halves.
    """
    s, d = e.shape
    dE = np.zeros_like(e)
    nmax = 2 * min(block, stop - start)
    lhs = np.empty((nmax, d + 1), dtype=e.dtype)   # [q | -max; dz | -dz.z]
    rhs = np.empty((nmax, d), dtype=e.dtype)       # [dz / sum; q]
    buf = np.empty((nmax, s), dtype=e.dtype)       # [alpha * sum; dscores]
    for lo in range(start, stop, block):
        hi = min(lo + block, stop)
        nb = hi - lo
        lhs[:nb, :d] = q[lo:hi]
        lhs[:nb, d] = -row_max[lo:hi, 0]
        dz = lhs[nb:2 * nb, :d]
        np.multiply(gk[lo:hi], w[lo:hi], out=dz)
        lhs[nb:2 * nb, d] = -np.einsum("kd,kd->k", dz, z[lo:hi])
        lhs[nb:2 * nb] /= row_sum[lo:hi]
        np.matmul(lhs[:2 * nb], e1.T, out=buf[:2 * nb])
        ex, da = buf[:nb], buf[nb:2 * nb]
        np.exp(ex, out=ex)
        da *= ex                                       # dscores
        rhs[:nb] = dz
        rhs[nb:2 * nb] = q[lo:hi]
        dE += buf[:2 * nb].T @ rhs[:2 * nb]
        np.matmul(da, e, out=dQ[lo:hi])
    return dE


def _over_ranges(K, fn, *args):
    """``fn(*args, start, stop, block)`` for each range of codes (see the
    module docstring), as a list of results in range order. A head of at
    most BLOCK codes is one call here and never touches the pool or BLAS."""
    if K <= BLOCK:
        return [fn(*args, 0, K, BLOCK)]
    n = kernels.workers()
    block = max(1, BLOCK // n)
    nblocks = -(-K // block)
    n = min(n, nblocks)
    cuts = [min(K, i * nblocks // n * block) for i in range(n + 1)]
    return kernels.run_ranges(partial(fn, *args),
                              [(lo, hi, block) for lo, hi in zip(cuts, cuts[1:])])


def label_logits(E, Q, W, b):
    """Logits [K] of the label-attention head over tokens E [s, d].

    logit_c = w_c . softmax(E q_c)^T E + b_c, computed block by block over
    the codes; see the module docstring. Forward keeps only z [K, d] and
    the per-code row max and sum; backward folds both into the GEMMs that
    recompute each block's attention weights. Each range of blocks writes
    its own rows; the ranges' dE are summed in range order.
    """
    dtype = np.result_type(E.data, Q.data, W.data, b.data)
    e, q, w = (np.asarray(t.data, dtype=dtype) for t in (E, Q, W))
    K, s = q.shape[0], e.shape[0]
    z = np.empty((K, e.shape[1]), dtype=dtype)
    row_max = np.empty((K, 1), dtype=dtype)
    row_sum = np.empty((K, 1), dtype=dtype)
    _over_ranges(K, _forward_blocks, e, q, z, row_max, row_sum)

    def backward(g):
        gk = g[:, None]
        e1 = np.concatenate([e, np.ones((s, 1), dtype=dtype)], axis=1)
        dQ = np.empty_like(q)
        dE, *rest = _over_ranges(K, _backward_blocks, e, e1, q, w, z, row_max, row_sum,
                                 gk, dQ)
        for part in rest:
            dE += part
        return dE, dQ, gk * z, g
    return _make(np.einsum("kd,kd->k", z, w) + b.data, (E, Q, W, b), backward)


def predict(E, head):
    """Probabilities for all classes from token representations E [s, d]."""
    _require_tokens(E)
    if E.data.shape[1] != head.hidden:
        raise ValueError(f"token dim {E.data.shape[1]} != head dim {head.hidden}")
    return sigmoid(label_logits(E, head.Q, head.W, head.b))
