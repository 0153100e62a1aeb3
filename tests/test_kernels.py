"""The numpy kernels behind the autodiff ops, each against a scipy or
direct-formula reference."""

import numpy as np
import pytest
from scipy.special import erf, expit
from scipy.special import softmax as scipy_softmax

from segcoder import kernels


@pytest.fixture(params=[kernels.active.name])
def impl(request):
    """The active kernel set; the test id names it."""
    return kernels.active


class TestReference:
    def test_softmax_matches_scipy(self, impl, rng):
        x = rng.normal(size=(6, 9)).astype(np.float32) * 4
        np.testing.assert_allclose(impl.softmax_fwd(x), scipy_softmax(x, axis=-1),
                                   rtol=1e-5, atol=1e-7)

    def test_gelu_matches_erf_form(self, impl, rng):
        x = rng.normal(size=64).astype(np.float64) * 2
        expected = 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))
        np.testing.assert_allclose(impl.gelu_fwd(x), expected, rtol=1e-12)

    def test_sigmoid_matches_expit_and_is_stable(self, impl):
        x = np.array([-1000.0, -30.0, -1.0, 0.0, 1.0, 30.0, 1000.0], dtype=np.float64)
        y = impl.sigmoid_fwd(x)
        np.testing.assert_allclose(y, expit(x), rtol=1e-12, atol=1e-300)
        assert np.all(np.isfinite(y))

    def test_layernorm_matches_direct(self, impl, rng):
        x = rng.normal(size=(4, 7)).astype(np.float64)
        gamma = rng.normal(size=7) + 1.0
        beta = rng.normal(size=7)
        y, xhat, rstd = impl.layernorm_fwd(x, gamma, beta, 1e-12)
        mu = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        expected_xhat = (x - mu) / np.sqrt(var + 1e-12)
        np.testing.assert_allclose(xhat, expected_xhat, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(rstd, 1.0 / np.sqrt(var.reshape(-1) + 1e-12), rtol=1e-12)
        np.testing.assert_allclose(y, expected_xhat * gamma + beta, rtol=1e-9)

    def test_adam_update_first_step(self, impl):
        p = np.array([1.0, -2.0, 0.5], dtype=np.float64)
        g = np.array([0.3, -0.1, 0.7], dtype=np.float64)
        m = np.zeros(3)
        v = np.zeros(3)
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        expected = p - lr * g / (np.abs(g) + eps)
        impl.adam_update(p, g, m, v, 1, lr, b1, b2, eps)
        np.testing.assert_allclose(p, expected, rtol=1e-9)

    def test_adam_update_two_steps_reference(self, impl):
        # the same values as a 1-D array, a 2-D array and a transposed
        # (non-contiguous) view; element 0 is the original scalar case
        p0 = np.array([0.5, -1.0, 2.0, 0.1, -0.3, 0.7])
        grads = np.array([[0.4, 0.3, -1.5, 0.0, 2.0, -0.6],
                          [-0.2, 0.3, 0.8, 1.1, -0.1, 0.0]])
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        ref_p, ref_m, ref_v = p0, np.zeros(6), np.zeros(6)
        for t, g in enumerate(grads, 1):
            ref_m = b1 * ref_m + (1 - b1) * g
            ref_v = b2 * ref_v + (1 - b2) * g * g
            mhat = ref_m / (1 - b1 ** t)
            vhat = ref_v / (1 - b2 ** t)
            ref_p = ref_p - lr * mhat / (np.sqrt(vhat) + eps)
        layouts = (lambda a: a.copy(), lambda a: a.reshape(2, 3).copy(),
                   lambda a: a.reshape(3, 2).copy().T)
        results = []
        for lay in layouts:
            p, m, v = lay(p0), lay(np.zeros(6)), lay(np.zeros(6))
            for t, g in enumerate(grads, 1):
                impl.adam_update(p, lay(g), m, v, t, lr, b1, b2, eps)
            np.testing.assert_allclose(p, lay(ref_p), rtol=1e-12)
            np.testing.assert_allclose(m, lay(ref_m), rtol=1e-12)
            np.testing.assert_allclose(v, lay(ref_v), rtol=1e-12)
            results.append((p, m, v))
            for got, want in zip(results[-1], results[0]):
                np.testing.assert_array_equal(got, lay(want))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("transposed", [False, True])
    def test_adam_update_bit_identical_to_formula(self, impl, rng, dtype, transposed):
        # the in-place kernel against the expression it replaced, bit for bit
        def formula(p, g, m, v, t, lr, beta1, beta2, eps):
            m[...] = beta1 * m + (1.0 - beta1) * g
            v[...] = beta2 * v + (1.0 - beta2) * g * g
            c1 = 1.0 - beta1 ** t
            c2 = 1.0 - beta2 ** t
            p -= lr * (m / c1) / (np.sqrt(v / c2) + eps)

        def lay(a):
            return a.T.copy().T if transposed else a.copy()

        p0 = rng.normal(size=(37, 5)).astype(dtype)
        got = [lay(p0), lay(np.zeros_like(p0)), lay(np.zeros_like(p0))]
        want = [p0.copy(), np.zeros_like(p0), np.zeros_like(p0)]
        assert got[0].flags.c_contiguous != transposed
        for t in range(1, 31):
            g = (rng.normal(size=p0.shape) * 10.0 ** rng.integers(-6, 2)).astype(dtype)
            impl.adam_update(*got[:1], lay(g), *got[1:], t, 3e-3, 0.9, 0.999, 1e-8)
            formula(*want[:1], g, *want[1:], t, 3e-3, 0.9, 0.999, 1e-8)
            for a, b in zip(got, want):
                assert a.dtype == dtype
                np.testing.assert_array_equal(a, b)

    def test_scatter_add_matches_add_at(self, impl, rng):
        table = rng.normal(size=(6, 3))
        ids = np.array([0, 5, 5, 2, 0, 0], dtype=np.int64)
        rows = rng.normal(size=(6, 3))
        expected = table.copy()
        np.add.at(expected, ids, rows)
        got = table.copy()
        impl.scatter_add(got, ids, rows)
        np.testing.assert_allclose(got, expected, rtol=1e-12)
