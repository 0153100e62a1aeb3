"""Numeric kernels behind the autodiff ops.

The hot row-wise and elementwise inner loops, as plain numpy functions.
Matrix products are not here; they stay on numpy's BLAS path. All kernels
are single-threaded and deterministic, and run on the calling thread.

Shapes:

- ``softmax_fwd``/``softmax_bwd`` and ``layernorm_fwd``/``layernorm_bwd``
  work row-wise on 2-D ``[n, d]`` arrays; ``layernorm_*`` also return or
  take the normalized rows ``xhat`` and the per-row ``rstd`` of shape ``[n]``.
- ``gelu_*``, ``sigmoid_*`` and ``adam_update`` are elementwise and take
  arrays of any shape and layout; ``adam_update`` writes ``p``, ``m`` and
  ``v`` in place. ``gelu_fwd`` returns the output and the term
  ``1 + erf(x/sqrt(2))``, which ``gelu_bwd`` takes back, so a GELU runs one
  ``erf`` pass.
- ``scatter_add(table, ids, rows)`` adds ``rows[i]`` (``[n, d]``) into
  ``table[ids[i]]`` of a C-contiguous ``[V, d]`` table for an ``[n]`` id
  array, summing duplicate ids.

The ops reach them through ``active``, so one place can wrap all ten.

The module also owns the package's one worker pool, which only the label
head uses: it runs the head's independent ranges of code blocks, one range
per worker (``workers``, ``run_ranges``). Pool threads run numpy directly
and call nothing in ``active``. The first use sets the loaded OpenBLAS to
one thread for the rest of the process: OpenBLAS's own threads spin after
each threaded call and would take the core a pool worker needs.
"""

import os
from types import SimpleNamespace

import numpy as np

_INV_SQRT2 = 0.7071067811865476
_INV_SQRT2PI = 0.3989422804014327


# The coefficients of the Cephes erf (ndtr.c). U and Q are monic: their
# leading 1 is not stored.
_ERF_T = (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
          7.00332514112805075473E3, 5.55923013010394962768E4)
_ERF_U = (3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
          2.26290000613890934246E4, 4.92673942608635921086E4)
_ERFC_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
           4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
           9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2)
_ERFC_Q = (1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
           9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
           1.65666309194161350182E3, 5.57535340817727675546E2)
_ERF_CLIP = 6.0  # erf(6) rounds to 1.0 in float64, and so does all beyond
_ERF_CHUNK = 32768  # elements per pass: four float64 scratch rows, 1 MiB


def _polevl(x, coefs, out):
    """Cephes polevl: coefs[0] x^N + ... + coefs[N] by Horner's rule."""
    np.multiply(x, coefs[0], out=out)
    out += coefs[1]
    for c in coefs[2:]:
        out *= x
        out += c
    return out


def _p1evl(x, coefs, out):
    """Cephes p1evl: polevl with an implicit leading coefficient of 1."""
    np.add(x, coefs[0], out=out)
    for c in coefs[1:]:
        out *= x
        out += c
    return out


def _erf(x):
    """Elementwise erf of a float array, in its dtype.

    The Cephes erf in float64, step for step: ``x T(x^2) / U(x^2)`` for
    |x| <= 1, else ``1 - y`` with ``y = exp(-x^2) P(|x|) / Q(|x|)`` (the
    erfc of |x|), given the sign of x. Inputs are clipped to +-6 first.
    Every element gets the |x| <= 1 ratio; the few above 1 are gathered,
    given the erfc branch and put back. Work runs through a bounded scratch
    buffer, one chunk at a time. On float32 inputs the result equals the
    compiled Cephes erf's bit for bit (tests/test_kernels.py); float64
    results can differ from it in the last bit, where numpy's exp does.
    """
    src = x.reshape(-1)
    out = np.empty(src.shape, x.dtype)
    n = src.size
    size = max(1, min(n, _ERF_CHUNK))
    scratch = np.empty((4, size))
    for lo in range(0, n, size):
        hi = min(lo + size, n)
        v, z, r, u = scratch[:, : hi - lo]
        np.clip(src[lo:hi], -_ERF_CLIP, _ERF_CLIP, out=v)
        np.multiply(v, v, out=z)
        _polevl(z, _ERF_T, r)
        _p1evl(z, _ERF_U, u)
        r *= v
        r /= u
        big = np.flatnonzero(z > 1.0)  # |x| > 1; NaN stays on the ratio
        if big.size:
            xb = v.take(big)
            a = np.abs(xb)
            y = z.take(big)
            np.negative(y, out=y)
            np.exp(y, out=y)
            poly = _polevl(a, _ERFC_P, np.empty_like(a))
            y *= poly
            y /= _p1evl(a, _ERFC_Q, poly)
            np.subtract(1.0, y, out=y)
            r.put(big, np.copysign(y, xb, out=y))
        out[lo:hi] = r
    return out.reshape(x.shape)


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
    term = 1.0 + _erf(x * _INV_SQRT2)
    return 0.5 * x * term, term


def _gelu_bwd(dy, x, term):
    cdf = 0.5 * term
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
    # one flat add.at over table's elements: duplicate ids are added in the
    # same order as a 2-D add.at, and the call is about 3x faster
    if not table.flags.c_contiguous:
        raise ValueError("scatter_add needs a C-contiguous table")
    d = table.shape[1]
    flat = np.asarray(ids, dtype=np.intp)[:, None] * d + np.arange(d)
    np.add.at(table.reshape(-1), flat.reshape(-1), rows.reshape(-1))


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


# OpenBLAS's thread-count setter, by build: plain, with 64-bit integers,
# and the scipy-openblas build that numpy wheels bundle
_BLAS_SETTERS = ("openblas_set_num_threads", "openblas_set_num_threads64_",
                 "scipy_openblas_set_num_threads64_")
_workers = None  # fixed on first use
_pool = None     # workers - 1 threads; the caller is the other worker


def _pin_blas():
    """Set every loaded OpenBLAS to one thread; False if no setter is found."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    except OSError:
        return False
    pinned = False
    for path in libs:
        lib = ctypes.CDLL(path)
        setter = next((getattr(lib, sym) for sym in _BLAS_SETTERS if hasattr(lib, sym)), None)
        if setter is not None:
            setter(1)
            pinned = True
    return pinned


def workers():
    """The pool's size: one worker per core this process may run on. The
    first call pins OpenBLAS to one thread; with no setter found, the size
    is 1 and BLAS keeps its threads."""
    global _workers
    if _workers is None:
        _workers = len(os.sched_getaffinity(0)) if _pin_blas() else 1
    return _workers


def run_ranges(fn, ranges):
    """``[fn(*r) for r in ranges]``, the first range on the calling thread and
    the others on the pool. If any call raises, the first exception in range
    order is re-raised once every call has finished."""
    if len(ranges) == 1:
        return [fn(*ranges[0])]
    global _pool
    if _pool is None:
        from concurrent.futures import ThreadPoolExecutor
        _pool = ThreadPoolExecutor(workers() - 1, thread_name_prefix="segcoder")
    futures = [_pool.submit(fn, *r) for r in ranges[1:]]
    try:
        first = fn(*ranges[0])
    finally:
        for f in futures:
            f.exception()  # waits without raising
    return [first] + [f.result() for f in futures]


def _forget_pool():
    # a forked child has none of its parent's threads; it makes its own pool
    global _pool
    _pool = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)
