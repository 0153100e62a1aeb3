"""Dense float tensors with reverse-mode automatic differentiation.

A ``Tensor`` wraps a numpy float array (float32 by default; float64 is used
by the finite-difference gradient tests) and records the backward closure of
the op that produced it. Calling ``backward()`` on a scalar result walks the
graph in reverse topological order and accumulates gradients into every
reachable tensor with ``requires_grad=True``.

Tensors are immutable once they enter a forward graph. Set
``SEGCODER_CHECK_FINITE=1`` to assert that every op output is finite.
"""

from __future__ import annotations

import math
import os

import numpy as np

from . import kernels

_CHECK_FINITE = os.environ.get("SEGCODER_CHECK_FINITE", "0") == "1"
_grad_enabled = True

MASK_FILL_VALUE = -1e9  # additive -inf surrogate; underflows to 0 after softmax


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

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    def item(self):
        return float(self.data.reshape(()))

    def _accum(self, g):
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def zero_grad(self):
        self.grad = None

    def backward(self, seed=None):
        """Accumulate gradients of this tensor w.r.t. every graph leaf.

        ``seed`` defaults to ones, which is only meaningful for scalar
        outputs (the usual loss case). The graph is released as it is
        walked, so a second ``backward()`` through it raises RuntimeError.
        """
        if seed is None:
            if self.data.size != 1:
                raise ValueError("backward() without a seed requires a scalar tensor")
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
        self._accum(seed)
        # Each node is released once it has run: its closure (which holds
        # the node itself, its parents and their saved arrays) is dropped,
        # so the graph is freed by reference counting as the walk goes,
        # not later by the cyclic collector.
        while topo:
            node = topo.pop()
            if node._backward is None:
                continue
            if node.grad is not None:
                node._backward()
            node._backward = _released
            node._parents = ()

    # operator sugar
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return neg(self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __matmul__(self, other):
        return matmul(self, other)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) > 1 else shape[0])

    def transpose(self, *axes):
        return transpose(self, axes if axes else None)

    def sum(self, axis=None):
        return tensor_sum(self, axis)

    def mean(self, axis=None):
        return tensor_mean(self, axis)


def _released():
    raise RuntimeError(
        "backward() through a graph that an earlier backward() already "
        "released; run the forward pass again")


def as_tensor(x, dtype=None):
    if isinstance(x, Tensor):
        return x
    arr = np.asarray(x, dtype=dtype if dtype is not None else np.float32)
    return Tensor(arr)


def _make(data, parents):
    if _CHECK_FINITE and not np.all(np.isfinite(data)):
        raise FloatingPointError("non-finite values in op output")
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
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
    out = _make(a.data + b.data, (a, b))
    if out.requires_grad:
        def _bw():
            if a.requires_grad:
                a._accum(_unbroadcast(out.grad, a.data.shape))
            if b.requires_grad:
                b._accum(_unbroadcast(out.grad, b.data.shape))
        out._backward = _bw
    return out


def mul(a, b):
    a, b = _coerce_pair(a, b)
    out = _make(a.data * b.data, (a, b))
    if out.requires_grad:
        def _bw():
            if a.requires_grad:
                a._accum(_unbroadcast(out.grad * b.data, a.data.shape))
            if b.requires_grad:
                b._accum(_unbroadcast(out.grad * a.data, b.data.shape))
        out._backward = _bw
    return out


def neg(a):
    out = _make(-a.data, (a,))
    if out.requires_grad:
        def _bw():
            a._accum(-out.grad)
        out._backward = _bw
    return out


def sub(a, b):
    a, b = _coerce_pair(a, b)
    out = _make(a.data - b.data, (a, b))
    if out.requires_grad:
        def _bw():
            if a.requires_grad:
                a._accum(_unbroadcast(out.grad, a.data.shape))
            if b.requires_grad:
                b._accum(_unbroadcast(-out.grad, b.data.shape))
        out._backward = _bw
    return out


def matmul(a, b):
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ValueError(f"matmul expects >=2-D operands, got {a.data.shape} @ {b.data.shape}")
    if a.data.shape[-1] != b.data.shape[-2] or a.data.shape[:-2] != b.data.shape[:-2]:
        raise ValueError(f"matmul shape mismatch: {a.data.shape} @ {b.data.shape}")
    out = _make(a.data @ b.data, (a, b))
    if out.requires_grad:
        def _bw():
            if a.requires_grad:
                a._accum(out.grad @ np.swapaxes(b.data, -1, -2))
            if b.requires_grad:
                b._accum(np.swapaxes(a.data, -1, -2) @ out.grad)
        out._backward = _bw
    return out


def reshape(a, shape):
    out = _make(a.data.reshape(shape), (a,))
    if out.requires_grad:
        def _bw():
            a._accum(out.grad.reshape(a.data.shape))
        out._backward = _bw
    return out


def transpose(a, axes=None):
    out = _make(np.transpose(a.data, axes), (a,))
    if out.requires_grad:
        inv = np.argsort(axes) if axes is not None else None
        def _bw():
            a._accum(np.transpose(out.grad, inv))
        out._backward = _bw
    return out


def tensor_sum(a, axis=None):
    out = _make(np.sum(a.data, axis=axis, keepdims=False), (a,))
    if out.requires_grad:
        def _bw():
            g = out.grad
            if axis is not None:
                g = np.expand_dims(g, axis)
            a._accum(np.broadcast_to(g, a.data.shape))
        out._backward = _bw
    return out


def tensor_mean(a, axis=None):
    n = a.data.size if axis is None else a.data.shape[axis]
    return mul(tensor_sum(a, axis), 1.0 / n)


def log(a):
    out = _make(np.log(a.data), (a,))
    if out.requires_grad:
        def _bw():
            a._accum(out.grad / a.data)
        out._backward = _bw
    return out


def clamp(a, lo, hi):
    """Clip values to [lo, hi]; gradient is zero where clipping bound."""
    out = _make(np.clip(a.data, lo, hi), (a,))
    if out.requires_grad:
        mask = (a.data >= lo) & (a.data <= hi)
        def _bw():
            a._accum(out.grad * mask)
        out._backward = _bw
    return out


def tanh(a):
    out = _make(np.tanh(a.data), (a,))
    if out.requires_grad:
        def _bw():
            a._accum(out.grad * (1.0 - out.data * out.data))
        out._backward = _bw
    return out


def sigmoid(a):
    flat = np.ascontiguousarray(a.data.reshape(-1))
    y = kernels.active.sigmoid_fwd(flat).reshape(a.data.shape)
    out = _make(y, (a,))
    if out.requires_grad:
        def _bw():
            dx = kernels.active.sigmoid_bwd(
                np.ascontiguousarray(out.grad.reshape(-1)),
                np.ascontiguousarray(out.data.reshape(-1)),
            )
            a._accum(dx.reshape(a.data.shape))
        out._backward = _bw
    return out


def gelu(a):
    flat = np.ascontiguousarray(a.data.reshape(-1))
    y = kernels.active.gelu_fwd(flat).reshape(a.data.shape)
    out = _make(y, (a,))
    if out.requires_grad:
        def _bw():
            dx = kernels.active.gelu_bwd(
                np.ascontiguousarray(out.grad.reshape(-1)), flat
            )
            a._accum(dx.reshape(a.data.shape))
        out._backward = _bw
    return out


def softmax(a, axis=-1):
    """Numerically stable softmax along ``axis`` (max-subtraction)."""
    ax = axis % a.data.ndim
    last = a.data.ndim - 1
    x = a.data if ax == last else np.moveaxis(a.data, ax, -1)
    n = x.shape[-1]
    x2 = np.ascontiguousarray(x.reshape(-1, n))
    y2 = kernels.active.softmax_fwd(x2)
    y = y2.reshape(x.shape)
    if ax != last:
        y = np.moveaxis(y, -1, ax)
    out = _make(y, (a,))
    if out.requires_grad:
        def _bw():
            g = out.grad if ax == last else np.moveaxis(out.grad, ax, -1)
            dx2 = kernels.active.softmax_bwd(np.ascontiguousarray(g.reshape(-1, n)), y2)
            dx = dx2.reshape(x.shape)
            if ax != last:
                dx = np.moveaxis(dx, -1, ax)
            a._accum(dx)
        out._backward = _bw
    return out


def layer_norm(x, gamma, beta, eps=1e-12):
    """Per-row normalization over the last axis, then affine scale/shift."""
    d = x.data.shape[-1]
    x2 = np.ascontiguousarray(x.data.reshape(-1, d))
    y2, mean, rstd = kernels.active.layernorm_fwd(x2, gamma.data, beta.data, eps)
    out = _make(y2.reshape(x.data.shape), (x, gamma, beta))
    if out.requires_grad:
        def _bw():
            dy2 = np.ascontiguousarray(out.grad.reshape(-1, d))
            dx2, dgamma, dbeta = kernels.active.layernorm_bwd(
                dy2, x2, gamma.data, mean, rstd
            )
            if x.requires_grad:
                x._accum(dx2.reshape(x.data.shape))
            if gamma.requires_grad:
                gamma._accum(dgamma)
            if beta.requires_grad:
                beta._accum(dbeta)
        out._backward = _bw
    return out


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
    out = _make(table.data[ids], (table,))
    if out.requires_grad:
        d = table.data.shape[1]
        def _bw():
            if table.grad is None:
                table.grad = np.zeros_like(table.data)
            rows = np.ascontiguousarray(out.grad.reshape(-1, d))
            kernels.active.scatter_add(table.grad, ids.reshape(-1), rows)
        out._backward = _bw
    return out


def mask_fill(a, mask, value=MASK_FILL_VALUE):
    """Replace entries where ``mask`` is True; their gradient is zero."""
    mask = np.asarray(mask, dtype=bool)
    out = _make(np.where(mask, a.data.dtype.type(value), a.data), (a,))
    if out.requires_grad:
        def _bw():
            g = np.where(mask, 0.0, out.grad)
            a._accum(_unbroadcast(g, a.data.shape))
        out._backward = _bw
    return out


def concat_rows(tensors):
    """Concatenate along axis 0."""
    out = _make(np.concatenate([t.data for t in tensors], axis=0), tuple(tensors))
    if out.requires_grad:
        offsets = np.cumsum([0] + [t.data.shape[0] for t in tensors])
        def _bw():
            for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
                if t.requires_grad:
                    t._accum(out.grad[lo:hi])
        out._backward = _bw
    return out


def slice_rows(a, start, stop):
    """Rows [start, stop) along axis 0."""
    out = _make(a.data[start:stop], (a,))
    if out.requires_grad:
        def _bw():
            if a.grad is None:
                a.grad = np.zeros_like(a.data)
            a.grad[start:stop] += out.grad
        out._backward = _bw
    return out
