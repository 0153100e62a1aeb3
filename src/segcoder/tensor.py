"""Dense float tensors with reverse-mode automatic differentiation.

A ``Tensor`` wraps a numpy float array (float32 by default; float64 is used
by the finite-difference gradient tests). Each op records its parents and a
``backward(g)`` function that returns one gradient per parent (None where a
parent needs none). Calling ``backward()`` on a scalar result walks the
graph in reverse topological order and accumulates gradients into every
reachable tensor with ``requires_grad=True``.

``Tensor.backward`` alone reduces the gradients ops return to their
parents' shapes and accumulates them, keeping a first gradient without a
copy only when it has the tensor's dtype and strides and shares no memory
with the gradient it was computed from.

Tensors are immutable once they enter a forward graph.
"""

from __future__ import annotations

import numpy as np

from . import kernels

_grad_enabled = True

MASK_FILL_VALUE = -1e9  # additive -inf surrogate; underflows to 0 after softmax
LAYER_NORM_EPS = 1e-12  # BERT's (Devlin et al., 2019)


class no_grad:
    """Context manager that disables graph recording (inference mode)."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


class Tensor:
    def __init__(self, data, requires_grad=False):
        if isinstance(data, (np.ndarray, np.floating)):
            arr = np.asarray(data)
            # keep float32/float64 as-is (no copy); cast everything else down
            self.data = arr if arr.dtype in (np.float32, np.float64) else arr.astype(np.float32)
        else:
            self.data = np.asarray(data, dtype=np.float32)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._backward = None

    def _accum(self, g, upstream):
        """Add gradient ``g``, computed from ``upstream``, into ``self.grad``.

        A first gradient becomes ``self.grad`` without a copy only when no
        other node can hold it: a writeable array of this tensor's dtype and
        strides that shares no memory with ``upstream`` (``add`` returns
        ``upstream`` itself; ``reshape``, ``transpose`` and ``concat_rows``
        return views of it). Otherwise it is copied into a new array in
        ``data``'s layout. Later gradients are added in place.
        """
        if self.grad is not None:
            self.grad += g
        elif (g.flags.writeable and g.dtype == self.data.dtype
              and g.strides == self.data.strides
              and not np.may_share_memory(g, upstream)):
            self.grad = g
        else:
            self.grad = np.empty_like(self.data)
            self.grad[...] = g

    def zero_grad(self):
        self.grad = None

    def backward(self):
        """Accumulate gradients of this scalar tensor (a loss) w.r.t. every
        graph leaf. A tensor of more than one element raises ValueError. A
        tensor that requires no gradient (built under ``no_grad`` or from
        tensors that require none) raises RuntimeError, as does a second
        ``backward()`` through a graph, which is released as it is walked.
        """
        if not self.requires_grad:
            raise RuntimeError(
                "backward() on a tensor that requires no gradient: it was built "
                "under no_grad() or from tensors that require none")
        if self.data.size != 1:
            raise ValueError(f"backward() requires a scalar tensor, got shape {self.data.shape}")
        seed = np.ones_like(self.data)
        topo = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))
        self._accum(seed, seed)
        # Each node is released once it has run: its backward function (which
        # holds its parents and their saved arrays) is dropped, so the graph
        # is freed by reference counting as the walk goes, not later by the
        # cyclic collector.
        while topo:
            node = topo.pop()
            if node._backward is None:
                continue
            g = node.grad
            if g is not None:
                for p, pg in zip(node._parents, node._backward(g), strict=True):
                    if pg is not None and p.requires_grad:
                        p._accum(_unbroadcast(pg, p.data.shape), g)
            node._backward = _released
            node._parents = ()


def _released(g):
    raise RuntimeError(
        "backward() through a graph that an earlier backward() already "
        "released; run the forward pass again")


def _make(data, parents, backward):
    """Result tensor of an op; records ``parents`` and ``backward`` when a
    parent requires a gradient and recording is on."""
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _unbroadcast(grad, shape):
    """Reduce ``grad`` back to ``shape`` after a broadcasting op."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] > 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _coerce_pair(a, b):
    if not isinstance(a, Tensor) and not isinstance(b, Tensor):
        raise TypeError("at least one operand must be a Tensor")
    if not isinstance(a, Tensor):
        a = Tensor(np.asarray(a, dtype=b.data.dtype))
    if not isinstance(b, Tensor):
        b = Tensor(np.asarray(b, dtype=a.data.dtype))
    return a, b


# ---------------------------------------------------------------------------
# elementwise / structural ops
# ---------------------------------------------------------------------------

def add(a, b):
    a, b = _coerce_pair(a, b)
    return _make(a.data + b.data, (a, b), lambda g: (g, g))


def mul(a, b):
    a, b = _coerce_pair(a, b)
    return _make(a.data * b.data, (a, b),
                 lambda g: (g * b.data if a.requires_grad else None,
                            g * a.data if b.requires_grad else None))


def sub(a, b):
    a, b = _coerce_pair(a, b)
    return _make(a.data - b.data, (a, b),
                 lambda g: (g, -g if b.requires_grad else None))


def matmul(a, b):
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ValueError(f"matmul expects >=2-D operands, got {a.data.shape} @ {b.data.shape}")
    if a.data.shape[-1] != b.data.shape[-2] or a.data.shape[:-2] != b.data.shape[:-2]:
        raise ValueError(f"matmul shape mismatch: {a.data.shape} @ {b.data.shape}")
    return _make(a.data @ b.data, (a, b),
                 lambda g: (g @ np.swapaxes(b.data, -1, -2) if a.requires_grad else None,
                            np.swapaxes(a.data, -1, -2) @ g if b.requires_grad else None))


def reshape(a, shape):
    return _make(a.data.reshape(shape), (a,), lambda g: (g.reshape(a.data.shape),))


def transpose(a, axes=None):
    return _make(np.transpose(a.data, axes), (a,),
                 lambda g: (np.transpose(g, None if axes is None else np.argsort(axes)),))


def tensor_sum(a, axis=None):
    def backward(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.data.shape),)
    return _make(np.sum(a.data, axis=axis, keepdims=False), (a,), backward)


def log(a):
    return _make(np.log(a.data), (a,), lambda g: (g / a.data,))


def clamp(a, lo, hi):
    """Clip values to [lo, hi]; gradient is zero where clipping bound."""
    return _make(np.clip(a.data, lo, hi), (a,),
                 lambda g: (g * ((a.data >= lo) & (a.data <= hi)),))


def tanh(a):
    y = np.tanh(a.data)
    return _make(y, (a,), lambda g: (g * (1.0 - y * y),))


def sigmoid(a):
    y = kernels.active.sigmoid_fwd(a.data)
    return _make(y, (a,), lambda g: (kernels.active.sigmoid_bwd(g, y),))


def gelu(a):
    y, term = kernels.active.gelu_fwd(a.data)
    return _make(y, (a,), lambda g: (kernels.active.gelu_bwd(g, a.data, term),))


def softmax(a, key_mask=None, scale=None):
    """Numerically stable softmax over the last axis (max-subtraction).

    Attention first multiplies by ``scale`` and sets the keys True in
    ``key_mask`` to MASK_FILL_VALUE; those get zero gradient, even in a
    fully masked row, whose weights come out uniform."""
    x = a.data
    if scale is not None:
        scale = x.dtype.type(scale)
        x = x * scale
    if key_mask is not None:
        x = np.where(key_mask, x.dtype.type(MASK_FILL_VALUE), x)
    shape, n = x.shape, x.shape[-1]
    y2 = kernels.active.softmax_fwd(np.ascontiguousarray(x.reshape(-1, n)))

    def backward(g):
        dx = kernels.active.softmax_bwd(
            np.ascontiguousarray(g.reshape(-1, n)), y2).reshape(shape)
        if key_mask is not None:
            dx = np.where(key_mask, 0.0, dx)
        return (dx if scale is None else dx * scale,)
    return _make(y2.reshape(shape), (a,), backward)


def layer_norm(x, gamma, beta):
    """Per-row normalization over the last axis, then affine scale/shift;
    LAYER_NORM_EPS guards the variance."""
    d = x.data.shape[-1]
    y2, xhat, rstd = kernels.active.layernorm_fwd(
        np.ascontiguousarray(x.data.reshape(-1, d)), gamma.data, beta.data, LAYER_NORM_EPS)

    def backward(g):
        dx2, dgamma, dbeta = kernels.active.layernorm_bwd(
            np.ascontiguousarray(g.reshape(-1, d)), xhat, gamma.data, rstd)
        return dx2.reshape(x.data.shape), dgamma, dbeta
    return _make(y2.reshape(x.data.shape), (x, gamma, beta), backward)


def embedding_gather(table, ids):
    """Select rows of a 2-D ``table`` by an integer id array.

    Output shape is ``ids.shape + (d,)``; backward sums gradients of
    duplicate ids into the same table row.
    """
    ids = np.asarray(ids, dtype=np.int64)
    n_rows = table.data.shape[0]
    if ids.size and (ids.min() < 0 or ids.max() >= n_rows):
        bad = ids[(ids < 0) | (ids >= n_rows)][0]
        raise IndexError(f"id {bad} out of range for table with {n_rows} rows")

    def backward(g):
        dtable = np.zeros(table.data.shape, table.data.dtype)
        kernels.active.scatter_add(dtable, ids.reshape(-1), g.reshape(-1, dtable.shape[1]))
        return (dtable,)
    return _make(table.data[ids], (table,), backward)


def concat_rows(tensors):
    """Concatenate along axis 0."""
    def backward(g):
        offsets = np.cumsum([0] + [t.data.shape[0] for t in tensors])
        return tuple(g[lo:hi] for lo, hi in zip(offsets[:-1], offsets[1:]))
    return _make(np.concatenate([t.data for t in tensors], axis=0), tuple(tensors), backward)


def slice_rows(a, start, stop):
    """Rows [start, stop) along axis 0."""
    def backward(g):
        da = np.zeros_like(a.data)
        da[start:stop] = g
        return (da,)
    return _make(a.data[start:stop], (a,), backward)


def unfold_rows(a, k):
    """Same-padded sliding windows of ``k`` rows over a 2-D ``[n, d]`` tensor.

    Row i of the ``[n, k*d]`` output is rows i-k//2 .. i+k//2 of ``a``
    flattened, with zero rows past either end (im2col for a 1-D
    convolution). ``k`` must be odd. Backward sums k shifted row slices of
    the gradient, so it needs no index array and no scatter.
    """
    if a.data.ndim != 2:
        raise ValueError(f"unfold_rows expects a 2-D tensor, got shape {a.data.shape}")
    if k < 1 or k % 2 != 1:
        raise ValueError(f"unfold_rows needs an odd window width, got {k}")
    n, d = a.data.shape
    half = k // 2
    padded = np.zeros((n + k - 1, d), dtype=a.data.dtype)
    padded[half:half + n] = a.data
    windows = np.lib.stride_tricks.sliding_window_view(padded, (k, d))[:, 0]

    def backward(g):
        g = g.reshape(n, k, d)
        dpadded = np.zeros((n + k - 1, d), dtype=g.dtype)
        for j in range(k):
            dpadded[j:j + n] += g[:, j]
        return (dpadded[half:half + n],)
    return _make(np.ascontiguousarray(windows).reshape(n, k * d), (a,), backward)
