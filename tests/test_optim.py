"""Adam optimizer contract: bias-corrected updates, zero-gradient no-op,
first-step identity, convergence on a scalar quadratic, determinism."""

import numpy as np
import pytest

from segcoder.optim import init_adam, step_with_grads
from segcoder.tensor import Tensor


def make_params(rng, shapes):
    return [Tensor(rng.normal(size=s).astype(np.float32), requires_grad=True)
            for s in shapes]


def step_on(params, grads, state):
    """step_with_grads on the given gradients."""
    for p, g in zip(params, grads):
        p.grad = g
    step_with_grads(params, state)


class TestAdamStep:
    def test_zero_gradient_leaves_params_t_incremented(self, rng):
        params = make_params(rng, [(3, 2), (4,)])
        before = [p.data.copy() for p in params]
        state = init_adam(params, lr=0.1)
        step_on(params, [np.zeros_like(p.data) for p in params], state)
        assert state.t == 1
        for p, b in zip(params, before):
            np.testing.assert_array_equal(p.data, b)

    def test_none_gradient_treated_as_zero(self, rng):
        params = make_params(rng, [(2, 2)])
        before = params[0].data.copy()
        state = init_adam(params, lr=0.1)
        step_on(params, [None], state)
        np.testing.assert_array_equal(params[0].data, before)

    def test_first_step_identity(self, rng):
        params = make_params(rng, [(5,)])
        g = rng.normal(size=5).astype(np.float32)
        expected = params[0].data - 0.01 * g / (np.abs(g) + 1e-8)
        state = init_adam(params, lr=0.01)
        step_on(params, [g], state)
        np.testing.assert_allclose(params[0].data, expected, rtol=1e-5)

    def test_transposed_parameter_updated_in_place(self, rng):
        # a non-C-contiguous parameter must be updated where it lives, with
        # the same bits as the same update on a contiguous copy
        base = rng.normal(size=(3, 2)).astype(np.float32)
        before = base.T.copy()
        grads = rng.normal(size=(2, 3, 2)).astype(np.float32)
        p_t = Tensor(base.T, requires_grad=True)
        p_c = Tensor(before.copy(), requires_grad=True)
        assert not p_t.data.flags.c_contiguous
        s_t, s_c = init_adam([p_t], lr=0.1), init_adam([p_c], lr=0.1)
        for g in grads:
            step_on([p_t], [g.T], s_t)
            step_on([p_c], [np.ascontiguousarray(g.T)], s_c)
        assert not np.array_equal(p_t.data, before)
        np.testing.assert_array_equal(base.T, p_t.data)
        np.testing.assert_array_equal(p_t.data, p_c.data)
        np.testing.assert_array_equal(s_t.m[0], s_c.m[0])
        np.testing.assert_array_equal(s_t.v[0], s_c.v[0])

    def test_shape_mismatch_rejected(self, rng):
        params = make_params(rng, [(3,)])
        state = init_adam(params, lr=0.1)
        with pytest.raises(ValueError):
            step_on(params, [np.zeros(4, dtype=np.float32)], state)

    def test_state_size_mismatch_rejected(self, rng):
        params = make_params(rng, [(3,), (2,)])
        state = init_adam(params[:1], lr=0.1)
        with pytest.raises(ValueError):
            step_on(params, [np.zeros(3), np.zeros(2)], state)

    def test_quadratic_convergence(self):
        # 100 steps on f(w) = w^2 from w=1 with lr=0.1 must reach |w| < 0.5
        w = Tensor(np.array([1.0], dtype=np.float64), requires_grad=True)
        state = init_adam([w], lr=0.1)
        for _ in range(100):
            step_on([w], [2.0 * w.data], state)
        assert abs(float(w.data[0])) < 0.5

    def test_deterministic(self, rng):
        g = rng.normal(size=(3, 3)).astype(np.float32)
        results = []
        for _ in range(2):
            p = Tensor(np.ones((3, 3), dtype=np.float32), requires_grad=True)
            state = init_adam([p], lr=0.05)
            for t in range(5):
                step_on([p], [g * (t + 1)], state)
            results.append(p.data.copy())
        np.testing.assert_array_equal(results[0], results[1])


class TestStepWithGrads:
    def test_uses_and_clears_grads(self, rng):
        p = Tensor(np.zeros(4, dtype=np.float32), requires_grad=True)
        p.grad = np.ones(4, dtype=np.float32)
        state = init_adam([p], lr=0.01)
        step_with_grads([p], state)
        assert p.grad is None
        assert np.all(p.data != 0)
