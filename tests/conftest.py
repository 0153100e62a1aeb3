"""Shared test helpers: the central finite-difference gradient oracle, and
the per-note scoring and loss oracles.

Analytic gradients come from the reverse-mode pass; the oracle perturbs
each input scalar by +-h on a float64 path and compares. Keeping the oracle
here makes every gradient test in the suite use the same comparison rule.

``composed_masked_softmax`` is the attention softmax as three ops, a
scale ``mul``, a masked fill and a plain ``softmax``.
``composed_encode_segment`` is the encoder block as first composed from
small ops, with that softmax, and ``composed_encode_cnn`` the CNN with its
linear as a matmul and an add: the oracles that ``encode_segment`` and
``encode_cnn``, built on the one-node ``linear``, ``attention`` and
``add_layer_norm``, must match bit for bit, forward and backward.

``composed_gelu_fwd`` and ``composed_gelu_bwd`` are GELU as first
written, each with its own ``scipy.special.erf`` call: the oracle the
kernels' one-``erf`` GELU must match bit for bit.

``serial_label_logits`` is the label head as it was before its code
blocks ran on a pool: one loop over blocks of ``SERIAL_BLOCK`` codes on
the calling thread. The pooled head with one worker must match it bit for
bit.

``encode_long_oracle`` is the per-window loop the one-call ``encode_long``
replaced: one encoder call per window.

``per_note_probs`` and ``per_note_batch_loss`` are reference versions of
``CodingModel.probs`` and ``training.batch_loss`` that work one note at a
time: one Tensor[K] and one summed binary cross-entropy chain per note,
added up, where the package builds one [B, K] matrix and one loss over it.
``per_note_probs`` encodes a transformer note through ``encode_long_oracle``,
so it shares no window code with ``probs``.
"""

import math

import numpy as np
import pytest
from scipy.special import erf

from segcoder.cnn import encode_cnn
from segcoder.label_attention import predict
from segcoder.segments import plan_segments
from segcoder.tensor import (MASK_FILL_VALUE, Tensor, _make, add, clamp, concat_rows,
                             embedding_gather, gelu, layer_norm, log, matmul, mul, no_grad,
                             reshape, slice_rows, softmax, sub, tanh, tensor_sum, transpose,
                             unfold_rows)
from segcoder.tokenizer import truncate
from segcoder.transformer import encode_segment

FD_H = 1e-4
SERIAL_BLOCK = 512


def fd_gradients(fn, tensors, h=FD_H):
    """Central-difference gradients of scalar fn(*tensors) w.r.t. each input."""
    grads = []
    with no_grad():
        for t in tensors:
            # perturb a C-contiguous copy, whose reshape is a view (for a
            # transposed input, t.data.reshape(-1) is a detached copy), and
            # hand the original array back after
            data = t.data
            t.data = np.array(data, order="C")
            flat = t.data.reshape(-1)
            g = np.zeros_like(flat)
            try:
                for i in range(flat.size):
                    orig = flat[i]
                    flat[i] = orig + h
                    fp = float(fn(*tensors).data)
                    flat[i] = orig - h
                    fm = float(fn(*tensors).data)
                    flat[i] = orig
                    g[i] = (fp - fm) / (2.0 * h)
            finally:
                t.data = data
            grads.append(g.reshape(data.shape))
    return grads


def param_gradcheck(tensors, loss_fn, rtol=1e-4, atol=1e-7, h=FD_H, names=None):
    """Assert reverse-mode gradients of scalar ``loss_fn()`` w.r.t. the given
    leaf tensors match central finite differences.

    ``loss_fn`` closes over the tensors and rebuilds the graph per call;
    the tensors should be float64 for a tight tolerance.
    """
    for t in tensors:
        t.zero_grad()
    out = loss_fn()
    assert out.data.size == 1, "gradcheck needs a scalar function"
    out.backward()
    analytic = [t.grad.copy() if t.grad is not None else np.zeros_like(t.data)
                for t in tensors]
    numeric = fd_gradients(lambda *_: loss_fn(), tensors, h=h)
    for i, (ana, num) in enumerate(zip(analytic, numeric)):
        err = np.abs(ana - num)
        tol = atol + rtol * np.maximum(np.abs(ana), np.abs(num))
        if not np.all(err <= tol):
            worst = float((err - tol).max())
            label = names[i] if names else f"input {i}"
            raise AssertionError(
                f"gradient mismatch on {label}: worst excess {worst:.3e}\n"
                f"analytic={ana}\nnumeric={num}")


def gradcheck(fn, arrays, rtol=1e-4, atol=1e-7, h=FD_H):
    """param_gradcheck over fresh float64 leaf tensors built from arrays."""
    tensors = [Tensor(np.asarray(a, dtype=np.float64), requires_grad=True)
               for a in arrays]
    param_gradcheck(tensors, lambda: fn(*tensors), rtol=rtol, atol=atol, h=h)
    return tensors


def composed_masked_softmax(a, key_mask, scale):
    """softmax(fill(a * scale)), where the fill sets entries at ``key_mask``
    to MASK_FILL_VALUE and gives them zero gradient."""
    scaled = mul(a, scale)
    filled = _make(np.where(key_mask, scaled.data.dtype.type(MASK_FILL_VALUE), scaled.data),
                   (scaled,), lambda g: (np.where(key_mask, 0.0, g),))
    return softmax(filled)


def composed_encode_segment(params, config, segment_ids, pad_mask):
    """``encode_segment`` with every block composed of small ops: each linear
    a ``matmul`` and an ``add``, attention as head-split reshapes and
    transposes, two batched matmuls and ``composed_masked_softmax`` over
    every window, and each residual an ``add`` before a ``layer_norm``."""
    ids = np.asarray(segment_ids, dtype=np.int64)
    w, n = ids.shape
    d, a = config.hidden, config.heads
    dh = d // a

    def lin(x, wt, b):
        return add(matmul(x, wt), b)

    def split_heads(t):
        return transpose(reshape(t, (w, n, a, dh)), (0, 2, 1, 3))

    x = embedding_gather(params.token_emb, ids)
    x = add(x, slice_rows(params.pos_emb, 0, n))
    x = add(x, slice_rows(params.type_emb, 0, 1))
    x = reshape(layer_norm(x, params.emb_ln_g, params.emb_ln_b), (w * n, d))
    key_mask = np.asarray(pad_mask, dtype=bool).reshape(w, 1, 1, n)
    for blk in params.blocks:
        q = split_heads(lin(x, blk["q_w"], blk["q_b"]))
        k = split_heads(lin(x, blk["k_w"], blk["k_b"]))
        v = split_heads(lin(x, blk["v_w"], blk["v_b"]))
        attn = composed_masked_softmax(matmul(q, transpose(k, (0, 1, 3, 2))), key_mask,
                                       1.0 / math.sqrt(dh))
        ctx = reshape(transpose(matmul(attn, v), (0, 2, 1, 3)), (w * n, d))
        x = layer_norm(add(x, lin(ctx, blk["o_w"], blk["o_b"])),
                       blk["attn_ln_g"], blk["attn_ln_b"])
        h = gelu(lin(x, blk["ffn_w1"], blk["ffn_b1"]))
        x = layer_norm(add(x, lin(h, blk["ffn_w2"], blk["ffn_b2"])),
                       blk["ffn_ln_g"], blk["ffn_ln_b"])
    return reshape(x, (w, n, d))


def composed_encode_cnn(params, config, ids):
    """``encode_cnn`` with its linear as a ``matmul`` and an ``add``."""
    patches = unfold_rows(embedding_gather(params.word_emb, np.asarray(ids)), config.kernel)
    return tanh(add(matmul(patches, params.conv_w), params.conv_b))


def composed_gelu_fwd(x):
    """x Phi(x) = 0.5 x (1 + erf(x / sqrt 2))."""
    return 0.5 * x * (1.0 + erf(x * 0.7071067811865476))


def composed_gelu_bwd(dy, x):
    """dy (Phi(x) + x phi(x)), erf computed again from x."""
    cdf = 0.5 * (1.0 + erf(x * 0.7071067811865476))
    pdf = np.exp(-0.5 * x * x) * 0.3989422804014327
    return dy * (cdf + x * pdf)


def serial_label_logits(E, Q, W, b):
    """Reference oracle: the label head's logits [K] over tokens E [s, d].

    logit_c = w_c . softmax(E q_c)^T E + b_c, computed block by block over
    the codes; see label_attention's docstring. Forward keeps only z [K, d] and
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
    buf = np.empty((min(SERIAL_BLOCK, K), s), dtype=dtype)
    for lo in range(0, K, SERIAL_BLOCK):
        hi = min(lo + SERIAL_BLOCK, K)
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
        nmax = 2 * min(SERIAL_BLOCK, K)
        lhs = np.empty((nmax, d + 1), dtype=dtype)   # [q | -max; dz | -dz.z]
        rhs = np.empty((nmax, d), dtype=dtype)       # [dz / sum; q]
        buf = np.empty((nmax, s), dtype=dtype)       # [alpha * sum; dscores]
        for lo in range(0, K, SERIAL_BLOCK):
            hi = min(lo + SERIAL_BLOCK, K)
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


def encode_long_oracle(encoder, seq, plan):
    """Reference oracle: the per-window loop the batched ``encode_long``
    replaced. The ids are zero-padded to whole windows, the encoder is
    called once per window, the rows concatenated, then the padded tail
    dropped."""
    n = len(plan.segments) * plan.seg_len
    ids = np.zeros(n, dtype=np.int64)
    ids[: seq.s] = seq.ids
    pad_mask = np.arange(n) >= seq.s
    pieces = []
    for start, end in plan.segments:
        out = encoder(ids[None, start:end], pad_mask[None, start:end])
        pieces.append(reshape(out, (end - start, out.data.shape[-1])))
    return slice_rows(concat_rows(pieces), 0, seq.s)


def per_note_probs(model, seq):
    """Per-class probabilities, Tensor[K], of one token sequence."""
    limit = model.s_max
    if model.kind == "cnn":
        limit = min(limit, model.enc_config.max_words)
    seq = truncate(seq, limit)
    if seq.s == 0:
        raise ValueError("cannot encode an empty token sequence")
    if model.kind == "transformer":
        cfg = model.enc_config
        def enc(ids, pad_mask):
            return encode_segment(model.enc_params, cfg, ids, pad_mask)
        hidden = encode_long_oracle(enc, seq, plan_segments(seq.s, cfg.seg_len))
    else:
        hidden = encode_cnn(model.enc_params, model.enc_config, seq.ids)
    return predict(hidden, model.head)


def per_note_bce(probs, indices):
    """Summed binary cross-entropy of one note's Tensor[K], probabilities
    clamped to [1e-7, 1 - 1e-7]."""
    p = clamp(probs, 1e-7, 1.0 - 1e-7)
    dense = np.zeros(p.data.shape, dtype=p.data.dtype)
    dense[np.asarray(indices, dtype=np.int64)] = 1
    y = Tensor(dense)
    one = Tensor(np.ones_like(p.data))
    ll = add(mul(y, log(p)), mul(sub(one, y), log(sub(one, p))))
    return mul(tensor_sum(ll), -1.0)


def per_note_batch_loss(model, batch):
    """Mean of per_note_bce over (seq, label indices) pairs."""
    total = None
    for seq, indices in batch:
        loss = per_note_bce(per_note_probs(model, seq), indices)
        total = loss if total is None else add(total, loss)
    return mul(total, 1.0 / len(batch))


def loss_and_grads(model, loss_fn):
    """Value of the scalar ``loss_fn()`` and every parameter's gradient."""
    for p in model.parameters():
        p.zero_grad()
    loss = loss_fn()
    loss.backward()
    return loss.data.copy(), [np.zeros_like(p.data) if p.grad is None else p.grad.copy()
                              for p in model.parameters()]


def assert_parity(got, want, dtype):
    """float64: within 1e-12; float32: within 1e-6 x max(1, max |want|)."""
    want = np.asarray(want, dtype=np.float64)
    if np.dtype(dtype) == np.float64:
        tol = 1e-12
    else:
        tol = 1e-6 * max(1.0, float(np.max(np.abs(want), initial=0.0)))
    err = float(np.max(np.abs(np.asarray(got, dtype=np.float64) - want), initial=0.0))
    assert err <= tol, f"max abs error {err:.3e} > {tol:.3e}"


@pytest.fixture
def rng():
    return np.random.default_rng(0)
