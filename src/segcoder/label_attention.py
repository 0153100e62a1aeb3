"""Per-class attention pooling and binary classifiers.

Each class c owns an attention vector q_c used to pool the s token vectors
into one document vector z_c = softmax(E q_c)^T E, and a linear classifier
(w_c, b_c) whose sigmoid output is the class probability. The attention
layer holds d*K scalars and the classifier layer (d+1)*K.

The head is one autodiff op for the K logits. It visits the codes in blocks
of ``BLOCK`` rows and reuses one [block, s] buffer for their scores, so the
working memory is O(block * s) rather than O(K * s), and no [K, s] array is
kept in the graph. Backward recomputes each block's attention weights from
the saved row maxima and sums instead of storing them, in the manner of
FlashAttention (Dao et al., 2022).
"""

import numpy as np

from .tensor import Tensor, _make, matmul, reshape, sigmoid, softmax
from .transformer import truncated_normal

BLOCK = 512  # codes per block; 256-2048 run equally fast


class LabelHeadParams:
    def __init__(self, num_classes, hidden, rng, dtype=np.float32):
        self.num_classes = num_classes
        self.hidden = hidden
        self.Q = Tensor(truncated_normal(rng, (num_classes, hidden), dtype=dtype), requires_grad=True)
        self.W = Tensor(truncated_normal(rng, (num_classes, hidden), dtype=dtype), requires_grad=True)
        self.b = Tensor(np.zeros(num_classes, dtype=dtype), requires_grad=True)

    def named(self):
        return [("head.Q", self.Q), ("head.W", self.W), ("head.b", self.b)]

    def tensors(self):
        return [t for _, t in self.named()]


def attention_param_count(hidden, num_classes):
    return hidden * num_classes


def classifier_param_count(hidden, num_classes):
    return (hidden + 1) * num_classes


def _require_tokens(E):
    if E.data.ndim != 2 or E.data.shape[0] < 1:
        raise ValueError(f"need at least one token row, got shape {E.data.shape}")


def attention_weights(E, q_c):
    """Softmax attention over tokens for one class vector q_c."""
    _require_tokens(E)
    s, d = E.data.shape
    scores = reshape(matmul(E, reshape(q_c, (d, 1))), (1, s))
    return reshape(softmax(scores, axis=-1), (s,))


def label_logits(E, Q, W, b):
    """Logits [K] of the label-attention head over tokens E [s, d].

    logit_c = w_c . softmax(E q_c)^T E + b_c, computed block by block over
    the codes; see the module docstring.
    """
    dtype = np.result_type(E.data, Q.data, W.data, b.data)
    e, q, w = (np.asarray(t.data, dtype=dtype) for t in (E, Q, W))
    K, s = q.shape[0], e.shape[0]
    z = np.empty((K, e.shape[1]), dtype=dtype)
    row_max = np.empty((K, 1), dtype=dtype)
    row_sum = np.empty((K, 1), dtype=dtype)
    buf = np.empty((min(BLOCK, K), s), dtype=dtype)
    for lo in range(0, K, BLOCK):
        hi = min(lo + BLOCK, K)
        a = buf[: hi - lo]
        np.matmul(q[lo:hi], e.T, out=a)
        np.max(a, axis=1, keepdims=True, out=row_max[lo:hi])
        a -= row_max[lo:hi]
        np.exp(a, out=a)
        np.sum(a, axis=1, keepdims=True, out=row_sum[lo:hi])
        np.matmul(a, e, out=z[lo:hi])
        z[lo:hi] /= row_sum[lo:hi]
    out = _make(np.einsum("kd,kd->k", z, w) + b.data, (E, Q, W, b))
    if out.requires_grad:
        def _bw():
            g = out.grad[:, None]
            if W.requires_grad:
                W._accum(g * z)
            if b.requires_grad:
                b._accum(out.grad)
            dz = g * w
            dE = np.zeros_like(e)
            dQ = np.empty_like(q)
            alphas = np.empty((min(BLOCK, K), s), dtype=dtype)
            dalphas = np.empty_like(alphas)
            for lo in range(0, K, BLOCK):
                hi = min(lo + BLOCK, K)
                alpha, da = alphas[: hi - lo], dalphas[: hi - lo]
                np.matmul(q[lo:hi], e.T, out=alpha)
                alpha -= row_max[lo:hi]
                np.exp(alpha, out=alpha)
                alpha /= row_sum[lo:hi]
                np.matmul(dz[lo:hi], e.T, out=da)
                da -= np.einsum("kd,kd->k", dz[lo:hi], z[lo:hi])[:, None]
                da *= alpha                                    # dscores
                dE += alpha.T @ dz[lo:hi]
                dE += da.T @ q[lo:hi]
                np.matmul(da, e, out=dQ[lo:hi])
            if E.requires_grad:
                E._accum(dE)
            if Q.requires_grad:
                Q._accum(dQ)
        out._backward = _bw
    return out


def predict(E, head):
    """Probabilities for all classes from token representations E [s, d]."""
    _require_tokens(E)
    if E.data.shape[1] != head.hidden:
        raise ValueError(f"token dim {E.data.shape[1]} != head dim {head.hidden}")
    return sigmoid(label_logits(E, head.Q, head.W, head.b))
