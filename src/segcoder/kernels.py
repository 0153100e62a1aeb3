"""Numeric kernels behind the autodiff ops.

The hot row-wise and elementwise inner loops, as plain numpy functions.
Matrix products are not here; they stay on numpy's BLAS path. All kernels
are single-threaded and deterministic.

Shapes:

- ``softmax_fwd``/``softmax_bwd`` and ``layernorm_fwd``/``layernorm_bwd``
  work row-wise on 2-D ``[n, d]`` arrays; ``layernorm_*`` also return or
  take the normalized rows ``xhat`` and the per-row ``rstd`` of shape ``[n]``.
- ``gelu_*``, ``sigmoid_*`` and ``adam_update`` are elementwise and take
  arrays of any shape and layout; ``adam_update`` writes ``p``, ``m`` and
  ``v`` in place.
- ``scatter_add(table, ids, rows)`` adds ``rows[i]`` (``[n, d]``) into
  ``table[ids[i]]`` for an ``[n]`` id array, summing duplicate ids.

The ops reach them through ``active``, so one place can wrap all ten.
"""

from types import SimpleNamespace

import numpy as np

_INV_SQRT2 = 0.7071067811865476
_INV_SQRT2PI = 0.3989422804014327


def _erf(x):
    # scipy.special is imported on the first GELU: the import alone costs a
    # process about 25 MB of RSS and 0.2-0.4 s, and a CNN never calls erf
    from scipy.special import erf
    return erf(x)


def _softmax_fwd(x):
    m = np.max(x, axis=1, keepdims=True)
    e = np.exp(x - m)
    return e / np.sum(e, axis=1, keepdims=True)


def _softmax_bwd(dy, y):
    inner = np.sum(dy * y, axis=1, keepdims=True)
    return y * (dy - inner)


def _layernorm_fwd(x, gamma, beta, eps):
    mean = np.mean(x, axis=1)
    xc = x - mean[:, None]
    rstd = 1.0 / np.sqrt(np.mean(xc ** 2, axis=1) + eps)
    xhat = xc * rstd[:, None]
    return xhat * gamma + beta, xhat, rstd


def _layernorm_bwd(dy, xhat, gamma, rstd):
    dgamma = np.sum(dy * xhat, axis=0)
    dbeta = np.sum(dy, axis=0)
    dxhat = dy * gamma
    m1 = np.mean(dxhat, axis=1, keepdims=True)
    m2 = np.mean(dxhat * xhat, axis=1, keepdims=True)
    dx = rstd[:, None] * (dxhat - m1 - xhat * m2)
    return dx, dgamma, dbeta


def _gelu_fwd(x):
    return 0.5 * x * (1.0 + _erf(x * _INV_SQRT2))


def _gelu_bwd(dy, x):
    cdf = 0.5 * (1.0 + _erf(x * _INV_SQRT2))
    pdf = np.exp(-0.5 * x * x) * _INV_SQRT2PI
    return dy * (cdf + x * pdf)


def _sigmoid_fwd(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _sigmoid_bwd(dy, y):
    return dy * y * (1.0 - y)


def _adam_update(p, g, m, v, t, lr, beta1, beta2, eps):
    # m = beta1 m + (1 - beta1) g; v = beta2 v + ((1 - beta2) g) g;
    # p -= (lr (m / c1)) / (sqrt(v / c2) + eps): the same operations in the
    # same order as the textbook expression, in place with two scratch arrays
    c1 = 1.0 - beta1 ** t
    c2 = 1.0 - beta2 ** t
    a = np.multiply(g, 1.0 - beta1)
    m *= beta1
    m += a
    np.multiply(g, 1.0 - beta2, out=a)
    a *= g
    v *= beta2
    v += a
    np.divide(m, c1, out=a)
    a *= lr
    r = np.divide(v, c2)
    np.sqrt(r, out=r)
    r += eps
    a /= r
    p -= a


def _scatter_add(table, ids, rows):
    np.add.at(table, ids, rows)


active = SimpleNamespace(
    name="numpy",
    softmax_fwd=_softmax_fwd,
    softmax_bwd=_softmax_bwd,
    layernorm_fwd=_layernorm_fwd,
    layernorm_bwd=_layernorm_bwd,
    gelu_fwd=_gelu_fwd,
    gelu_bwd=_gelu_bwd,
    sigmoid_fwd=_sigmoid_fwd,
    sigmoid_bwd=_sigmoid_bwd,
    adam_update=_adam_update,
    scatter_add=_scatter_add,
)
