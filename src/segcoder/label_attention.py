"""Per-class attention pooling and binary classifiers.

Each class c owns an attention vector q_c used to pool the s token vectors
into one document vector z_c = softmax(E q_c)^T E, and a linear classifier
(w_c, b_c) whose sigmoid output is the class probability. The attention
layer holds d*K scalars and the classifier layer (d+1)*K.

The head is one autodiff op for the K logits. It visits the codes in blocks
of ``BLOCK`` rows and reuses one [block, s] buffer for their scores, so the
working memory is O(block * s) rather than O(K * s), and no [K, s] array is
kept in the graph. Forward shifts each block's scores by their row max,
takes exp in place, and gets the row sums as a GEMV against a ones vector:
BLAS reads the buffer several times faster than a numpy row reduction.
Backward recomputes each block's attention weights from the saved row
maxima and sums instead of storing them, in the manner of FlashAttention
(Dao et al., 2022), and folds the max and the sum into the GEMMs the
recompute already runs, so it makes no separate pass over a [block, s]
buffer to subtract or divide them.
"""

import numpy as np

from .tensor import Tensor, _make, matmul, reshape, sigmoid, softmax
from .transformer import init_weight

BLOCK = 512  # codes per block; 256-2048 run equally fast


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


def label_logits(E, Q, W, b):
    """Logits [K] of the label-attention head over tokens E [s, d].

    logit_c = w_c . softmax(E q_c)^T E + b_c, computed block by block over
    the codes; see the module docstring. Forward keeps only z [K, d] and
    the per-code row max and sum; backward folds both into the GEMMs that
    recompute each block's attention weights.
    """
    dtype = np.result_type(E.data, Q.data, W.data, b.data)
    e, q, w = (np.asarray(t.data, dtype=dtype) for t in (E, Q, W))
    K, s = q.shape[0], e.shape[0]
    z = np.empty((K, e.shape[1]), dtype=dtype)
    row_max = np.empty((K, 1), dtype=dtype)
    row_sum = np.empty((K, 1), dtype=dtype)
    ones = np.ones(s, dtype=dtype)
    buf = np.empty((min(BLOCK, K), s), dtype=dtype)
    for lo in range(0, K, BLOCK):
        hi = min(lo + BLOCK, K)
        a = buf[: hi - lo]
        np.matmul(q[lo:hi], e.T, out=a)
        np.max(a, axis=1, keepdims=True, out=row_max[lo:hi])
        a -= row_max[lo:hi]
        np.exp(a, out=a)
        np.matmul(a, ones, out=row_sum[lo:hi, 0])
        np.matmul(a, e, out=z[lo:hi])
        z[lo:hi] /= row_sum[lo:hi]

    def backward(g):
        # With e1 = [e | 1], exp([q | -max] @ e1.T) is alpha * sum, and
        # ([dz | -dz.z] / sum) @ e1.T times it is dscores: one GEMM of
        # both stacked rows against e1 replaces the passes over
        # [block, s] that subtract the max and divide by the sum. dE
        # gets alpha.T @ dz + dscores.T @ q as one GEMM over both halves.
        gk = g[:, None]
        d = e.shape[1]
        e1 = np.concatenate([e, np.ones((s, 1), dtype=dtype)], axis=1)
        dE = np.zeros_like(e)
        dQ = np.empty_like(q)
        nmax = 2 * min(BLOCK, K)
        lhs = np.empty((nmax, d + 1), dtype=dtype)   # [q | -max; dz | -dz.z]
        rhs = np.empty((nmax, d), dtype=dtype)       # [dz / sum; q]
        buf = np.empty((nmax, s), dtype=dtype)       # [alpha * sum; dscores]
        for lo in range(0, K, BLOCK):
            hi = min(lo + BLOCK, K)
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
        return dE, dQ, gk * z, g
    return _make(np.einsum("kd,kd->k", z, w) + b.data, (E, Q, W, b), backward)


def predict(E, head):
    """Probabilities for all classes from token representations E [s, d]."""
    _require_tokens(E)
    if E.data.shape[1] != head.hidden:
        raise ValueError(f"token dim {E.data.shape[1]} != head dim {head.hidden}")
    return sigmoid(label_logits(E, head.Q, head.W, head.b))
