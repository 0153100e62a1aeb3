"""Shared test helpers: the central finite-difference gradient oracle.

Analytic gradients come from the reverse-mode pass; the oracle perturbs
each input scalar by +-h on a float64 path and compares. Keeping the oracle
here makes every gradient test in the suite use the same comparison rule.
"""

import numpy as np
import pytest

from segcoder.tensor import Tensor, no_grad

FD_H = 1e-4


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


@pytest.fixture
def rng():
    return np.random.default_rng(0)
