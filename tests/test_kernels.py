"""The numpy kernels behind the autodiff ops, each against a scipy or
direct-formula reference."""

import numpy as np
import pytest
from scipy.special import erf, expit
from scipy.special import softmax as scipy_softmax

from segcoder import kernels
from segcoder.tensor import Tensor, gelu, mul, tensor_sum

from conftest import assert_parity, composed_gelu_bwd, composed_gelu_fwd, gradcheck


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
        term = 1.0 + erf(x / np.sqrt(2.0))
        y, got_term = impl.gelu_fwd(x)
        np.testing.assert_allclose(y, 0.5 * x * term, rtol=1e-12)
        np.testing.assert_allclose(got_term, term, rtol=1e-12)

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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("ids,d", [
        ([0, 5, 5, 2, 0, 0], 3),          # duplicate ids
        ([], 3),                          # no ids
        ([4, 4, 1, 4, 0, 1, 1, 4], 1),    # d = 1
        (list(np.random.default_rng(1).integers(0, 6, size=300)), 32),
    ])
    def test_scatter_add_bit_identical_to_2d_add_at(self, impl, rng, dtype, ids, d):
        # the flat 1-D add.at against the 2-D call it replaced, bit for bit:
        # duplicates must be summed in the same order
        ids = np.asarray(ids, dtype=np.int64)
        table = (rng.normal(size=(6, d)) * 10.0 ** rng.integers(-3, 4, size=(6, d))).astype(dtype)
        rows = (rng.normal(size=(ids.size, d)) * 10.0 ** rng.integers(-3, 4, size=(ids.size, d))
                ).astype(dtype)
        expected = table.copy()
        np.add.at(expected, ids, rows)
        got = table.copy()
        impl.scatter_add(got, ids, rows)
        assert got.dtype == dtype
        np.testing.assert_array_equal(got, expected)

    def test_scatter_add_refuses_a_table_it_cannot_flatten_in_place(self, impl):
        table = np.zeros((3, 4)).T
        with pytest.raises(ValueError, match="C-contiguous"):
            impl.scatter_add(table, np.array([0, 1]), np.ones((2, 3)))


def _f32_bits(values):
    return np.asarray(values, dtype=np.uint32).view(np.float32)


def _assert_same_bits(got, want):
    """Equal bit patterns, except that any NaN matches any NaN."""
    got, want = np.asarray(got).reshape(-1), np.asarray(want).reshape(-1)
    assert got.dtype == want.dtype
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    width = np.uint32 if got.dtype == np.float32 else np.uint64
    diff = np.flatnonzero(got.view(width)[~nan] != want.view(width)[~nan])
    assert diff.size == 0, (f"{diff.size} mismatches, first at x={want[~nan][diff[0]]!r}: "
                            f"{got[~nan][diff[0]]!r}")


class TestErf:
    """The numpy Cephes erf against scipy.special.erf, which computes the
    same Cephes routine in C. A one-off sweep of all 2^32 float32 bit
    patterns found no mismatch; Tier-1 checks a stride of them and the
    patterns near the branch points."""

    def test_float32_stride_bit_identical(self):
        x = _f32_bits(np.arange(0, 2 ** 32, 4096, dtype=np.uint64) + 1234)
        with np.errstate(invalid="ignore"):   # the signalling NaN patterns
            _assert_same_bits(kernels._erf(x), erf(x))

    @pytest.mark.parametrize("edge", [1.0, 6.0])
    def test_float32_branch_points_bit_identical(self, edge):
        # every pattern within 2^16 ulps of |x| = 1 (the erfc branch) and
        # |x| = 6 (the clip), both signs
        base = int(np.float32(edge).view(np.uint32))
        near = _f32_bits(np.arange(base - 2 ** 16, base + 2 ** 16 + 1))
        for x in (near, -near):
            _assert_same_bits(kernels._erf(x), erf(x))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_special_values(self, dtype):
        info = np.finfo(dtype)
        x = np.array([0.0, -0.0, info.smallest_subnormal, -info.smallest_subnormal,
                      info.smallest_normal / 3, -info.smallest_normal / 3,
                      info.smallest_normal, -info.smallest_normal, info.max, -info.max,
                      np.inf, -np.inf, np.nan, 1.0, -1.0, 6.0, -6.0], dtype=dtype)
        got = kernels._erf(x)
        assert got.dtype == dtype
        _assert_same_bits(got, erf(x))
        assert np.signbit(got[1]) and not np.signbit(got[0])
        assert list(got[10:12]) == [1.0, -1.0]

    def test_float64_within_two_ulp(self, rng):
        x = np.concatenate([rng.uniform(-30.0, 30.0, 200_000), rng.normal(size=200_000),
                            rng.uniform(-6.5, 6.5, 200_000)])
        want = erf(x)
        ulps = np.abs(kernels._erf(x) - want) / np.spacing(np.abs(want))
        assert ulps.max() <= 2.0

    def test_shapes_layouts_and_chunk_edges(self, rng):
        # more than one chunk, a ragged last chunk, a transposed view, a
        # scalar array and an empty one
        n = 2 * kernels._ERF_CHUNK + 7
        x = (rng.normal(size=n) * 2).astype(np.float32)
        _assert_same_bits(kernels._erf(x), erf(x))
        xt = x[: 6 * 100].reshape(6, 100).T
        got = kernels._erf(xt)
        assert got.shape == (100, 6)
        _assert_same_bits(got, erf(xt))
        scalar = np.array(-1.5, dtype=np.float32)
        assert kernels._erf(scalar).shape == ()
        _assert_same_bits(kernels._erf(scalar), erf(scalar))
        assert kernels._erf(np.zeros((0, 3), np.float32)).shape == (0, 3)


def _gelu_inputs(dtype, rng):
    """Values across both erf branches, the clip, and the boundaries."""
    edges = np.array([0.0, -0.0, 1e-30, np.sqrt(2.0), -np.sqrt(2.0), 8.4, -8.4, 9.0, -9.0,
                      40.0, -40.0])
    return np.concatenate([rng.normal(size=3989) * 2.5, edges]).astype(dtype).reshape(-1, 5)


class TestGeluOneErf:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_forward_and_backward_bit_identical_to_composition(self, impl, rng, dtype):
        x = _gelu_inputs(dtype, rng)
        dy = rng.normal(size=x.shape).astype(dtype)
        y, term = impl.gelu_fwd(x)
        want_y = composed_gelu_fwd(x)
        want_dx = composed_gelu_bwd(dy, x)
        got_dx = impl.gelu_bwd(dy, x, term)
        for got, want in ((y, want_y), (got_dx, want_dx)):
            assert got.dtype == dtype
            if dtype == np.float32:
                np.testing.assert_array_equal(got, want)
            else:
                assert_parity(got, want, dtype)

    def test_tensor_gelu_bit_identical_to_composition(self, rng):
        x = _gelu_inputs(np.float32, rng)
        w = rng.normal(size=x.shape).astype(np.float32)
        t = Tensor(x, requires_grad=True)
        out = gelu(t)
        tensor_sum(mul(out, Tensor(w))).backward()
        np.testing.assert_array_equal(out.data, composed_gelu_fwd(x))
        np.testing.assert_array_equal(t.grad, composed_gelu_bwd(w, x))

    def test_float64_gradcheck_across_branches(self, rng):
        x = np.array([-9.0, -3.0, -1.5, -np.sqrt(2.0) - 1e-3, -0.4, 0.0, 0.3,
                      np.sqrt(2.0) + 1e-3, 1.9, 4.0, 8.0])
        w = rng.normal(size=x.shape)
        gradcheck(lambda t: tensor_sum(mul(gelu(t), Tensor(w))), [x])
