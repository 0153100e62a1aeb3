"""Tensor op semantics and reverse-mode gradients against the
finite-difference oracle (20 random small inputs per differentiable op)."""

import gc
import weakref

import numpy as np
import pytest

from conftest import gradcheck
from segcoder.tensor import (MASK_FILL_VALUE, Tensor, add, clamp, concat_rows,
                             embedding_gather, gelu, layer_norm, log,
                             mask_fill, matmul, mul, neg, no_grad, reshape,
                             sigmoid, slice_rows, softmax, sub, tanh,
                             tensor_mean, tensor_sum, transpose)

SEEDS = range(20)


def weighted(op_out, w):
    """Scalar probe: sum(op_out * w) so every output element matters."""
    return tensor_sum(mul(op_out, Tensor(w)))


class TestForward:
    def test_matmul_identity(self):
        x = np.array([[2.0, -1.0], [0.5, 3.0]], dtype=np.float32)
        eye = Tensor(np.eye(2, dtype=np.float32))
        np.testing.assert_allclose(matmul(eye, Tensor(x)).data, x)

    def test_matmul_analytic(self):
        a = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        b = Tensor(np.array([[1.0], [1.0]]))
        np.testing.assert_allclose(matmul(a, b).data, [[3.0], [7.0]])

    def test_matmul_shape_error_names_both_shapes(self):
        a = Tensor(np.zeros((2, 3), dtype=np.float32))
        b = Tensor(np.zeros((4, 5), dtype=np.float32))
        with pytest.raises(ValueError) as exc:
            matmul(a, b)
        assert "(2, 3)" in str(exc.value) and "(4, 5)" in str(exc.value)

    def test_softmax_uniform_on_equal_scores(self):
        for s in (1, 2, 5, 9):
            out = softmax(Tensor(np.full((1, s), 0.7, dtype=np.float32)))
            np.testing.assert_allclose(out.data, np.full((1, s), 1.0 / s), rtol=1e-6)

    def test_softmax_analytic_log2(self):
        out = softmax(Tensor(np.array([[0.0, np.log(2.0)]])))
        np.testing.assert_allclose(out.data, [[1 / 3, 2 / 3]], rtol=1e-6)

    def test_softmax_rows_sum_to_one_and_positive(self, rng):
        x = Tensor(rng.normal(size=(7, 11)).astype(np.float32) * 5)
        y = softmax(x).data
        np.testing.assert_allclose(y.sum(axis=-1), np.ones(7), atol=1e-6)
        assert np.all(y > 0)

    def test_layer_norm_constant_row_is_zero(self):
        x = Tensor(np.full((3, 4), 2.5, dtype=np.float32))
        g = Tensor(np.ones(4, dtype=np.float32))
        b = Tensor(np.zeros(4, dtype=np.float32))
        np.testing.assert_allclose(layer_norm(x, g, b).data, np.zeros((3, 4)), atol=1e-5)

    def test_layer_norm_analytic_two_values(self):
        x = Tensor(np.array([[1.0, 3.0]]))
        g = Tensor(np.ones(2))
        b = Tensor(np.zeros(2))
        np.testing.assert_allclose(layer_norm(x, g, b).data, [[-1.0, 1.0]], atol=1e-5)

    def test_sigmoid_zero_is_half(self):
        assert sigmoid(Tensor(np.zeros(1, dtype=np.float32))).data[0] == pytest.approx(0.5)

    def test_gather_duplicates_rows(self):
        table = Tensor(np.arange(6, dtype=np.float32).reshape(3, 2), requires_grad=True)
        out = embedding_gather(table, np.array([0, 0]))
        np.testing.assert_allclose(out.data, [[0, 1], [0, 1]])
        tensor_sum(out).backward()
        np.testing.assert_allclose(table.grad, [[2, 2], [0, 0], [0, 0]])

    def test_gather_out_of_range(self):
        table = Tensor(np.zeros((3, 2), dtype=np.float32))
        with pytest.raises(IndexError):
            embedding_gather(table, np.array([3]))
        with pytest.raises(IndexError):
            embedding_gather(table, np.array([-1]))

    def test_mask_fill_value_and_zero_after_softmax(self):
        x = Tensor(np.zeros((1, 4), dtype=np.float32), requires_grad=True)
        mask = np.array([[False, True, False, True]])
        filled = mask_fill(x, mask)
        assert filled.data[0, 1] == np.float32(MASK_FILL_VALUE)
        probs = softmax(filled)
        assert probs.data[0, 1] == 0.0 and probs.data[0, 3] == 0.0
        np.testing.assert_allclose(probs.data[0, [0, 2]], [0.5, 0.5], rtol=1e-6)

    def test_clamp_boundaries(self):
        x = Tensor(np.array([-1.0, 0.5, 2.0], dtype=np.float32), requires_grad=True)
        y = clamp(x, 0.0, 1.0)
        np.testing.assert_allclose(y.data, [0.0, 0.5, 1.0])
        tensor_sum(y).backward()
        np.testing.assert_allclose(x.grad, [0.0, 1.0, 0.0])

    def test_no_grad_blocks_graph(self):
        x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        with no_grad():
            y = mul(x, x)
        assert not y.requires_grad and y._backward is None

    def test_backward_requires_scalar(self):
        x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        with pytest.raises(ValueError):
            mul(x, x).backward()

    def test_accumulation_linearity(self, rng):
        x = rng.normal(size=(4, 3))
        a = Tensor(x.copy(), requires_grad=True)
        loss = tensor_sum(mul(a, a))
        add(loss, loss).backward()
        doubled = a.grad.copy()
        b = Tensor(x.copy(), requires_grad=True)
        mul(tensor_sum(mul(b, b)), 2.0).backward()
        np.testing.assert_allclose(doubled, b.grad, atol=1e-6)


class TestGraphRelease:
    def test_interior_tensor_freed_without_cyclic_gc(self):
        x = Tensor(np.ones((3, 2)), requires_grad=True)
        gc.disable()
        try:
            h = tanh(mul(x, 2.0))
            ref = weakref.ref(h)
            loss = tensor_sum(mul(h, h))
            del h
            loss.backward()
            del loss
            assert ref() is None
        finally:
            gc.enable()
        np.testing.assert_allclose(x.grad, 4 * np.tanh(2.0) * (1 - np.tanh(2.0) ** 2))

    def test_second_backward_raises(self):
        x = Tensor(np.ones(3), requires_grad=True)
        loss = tensor_sum(mul(x, x))
        loss.backward()
        with pytest.raises(RuntimeError, match="released"):
            loss.backward()

    def test_reusing_released_interior_raises(self):
        x = Tensor(np.ones(3), requires_grad=True)
        h = mul(x, x)
        tensor_sum(h).backward()
        with pytest.raises(RuntimeError, match="released"):
            tensor_sum(mul(h, 2.0)).backward()


class TestGradients:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_add_mul_sub_neg(self, seed):
        r = np.random.default_rng(seed)
        a, b = r.normal(size=(3, 4)), r.normal(size=(3, 4))
        w = r.normal(size=(3, 4))
        gradcheck(lambda x, y: weighted(add(x, y), w), [a, b])
        gradcheck(lambda x, y: weighted(mul(x, y), w), [a, b])
        gradcheck(lambda x, y: weighted(sub(x, y), w), [a, b])
        gradcheck(lambda x: weighted(neg(x), w), [a])

    @pytest.mark.parametrize("seed", SEEDS)
    def test_broadcast_add_mul(self, seed):
        r = np.random.default_rng(seed)
        a, b = r.normal(size=(3, 4)), r.normal(size=(4,))
        w = r.normal(size=(3, 4))
        gradcheck(lambda x, y: weighted(add(x, y), w), [a, b])
        gradcheck(lambda x, y: weighted(mul(x, y), w), [a, b])

    @pytest.mark.parametrize("seed", SEEDS)
    def test_matmul(self, seed):
        r = np.random.default_rng(seed)
        a, b = r.normal(size=(3, 4)), r.normal(size=(4, 2))
        w = r.normal(size=(3, 2))
        gradcheck(lambda x, y: weighted(matmul(x, y), w), [a, b])

    @pytest.mark.parametrize("seed", SEEDS)
    def test_batched_matmul(self, seed):
        r = np.random.default_rng(seed)
        a, b = r.normal(size=(2, 3, 4)), r.normal(size=(2, 4, 2))
        w = r.normal(size=(2, 3, 2))
        gradcheck(lambda x, y: weighted(matmul(x, y), w), [a, b])

    @pytest.mark.parametrize("seed", SEEDS)
    def test_softmax(self, seed):
        r = np.random.default_rng(seed)
        x = r.normal(size=(1, 8)) * 3
        w = r.normal(size=(1, 8))
        gradcheck(lambda t: weighted(softmax(t), w), [x])

    @pytest.mark.parametrize("seed", SEEDS)
    def test_softmax_other_axis(self, seed):
        r = np.random.default_rng(seed)
        x = r.normal(size=(4, 3)) * 2
        w = r.normal(size=(4, 3))
        gradcheck(lambda t: weighted(softmax(t, axis=0), w), [x])

    @pytest.mark.parametrize("seed", SEEDS)
    def test_layer_norm(self, seed):
        r = np.random.default_rng(seed)
        x = r.normal(size=(3, 5))
        g = r.normal(size=(5,)) + 1.0
        b = r.normal(size=(5,))
        w = r.normal(size=(3, 5))
        gradcheck(lambda t, gg, bb: weighted(layer_norm(t, gg, bb), w), [x, g, b])

    @pytest.mark.parametrize("seed", SEEDS)
    def test_unary_ops(self, seed):
        r = np.random.default_rng(seed)
        x = r.normal(size=(6,))
        w = r.normal(size=(6,))
        gradcheck(lambda t: weighted(sigmoid(t), w), [x])
        gradcheck(lambda t: weighted(gelu(t), w), [x])
        gradcheck(lambda t: weighted(tanh(t), w), [x])
        pos = r.uniform(0.2, 3.0, size=(6,))
        gradcheck(lambda t: weighted(log(t), w), [pos])

    @pytest.mark.parametrize("seed", SEEDS)
    def test_clamp(self, seed):
        r = np.random.default_rng(seed)
        # keep samples away from the clamp kinks at +-1
        x = np.concatenate([r.uniform(-0.9, 0.9, 3), r.uniform(1.2, 2.0, 2),
                            r.uniform(-2.0, -1.2, 2)])
        w = r.normal(size=x.shape)
        gradcheck(lambda t: weighted(clamp(t, -1.0, 1.0), w), [x])

    @pytest.mark.parametrize("seed", SEEDS)
    def test_shape_ops(self, seed):
        r = np.random.default_rng(seed)
        x = r.normal(size=(3, 4))
        w1 = r.normal(size=(12,))
        gradcheck(lambda t: weighted(reshape(t, (12,)), w1), [x])
        w2 = r.normal(size=(4, 3))
        gradcheck(lambda t: weighted(transpose(t), w2), [x])
        gradcheck(lambda t: tensor_sum(t), [x])
        gradcheck(lambda t: tensor_mean(t), [x])
        w3 = r.normal(size=(4,))
        gradcheck(lambda t: weighted(tensor_sum(t, axis=0), w3), [x])

    @pytest.mark.parametrize("seed", SEEDS)
    def test_gather_mask_concat_slice(self, seed):
        r = np.random.default_rng(seed)
        table = r.normal(size=(5, 3))
        ids = np.array([0, 2, 2, 4, 1])
        w = r.normal(size=(5, 3))
        gradcheck(lambda t: weighted(embedding_gather(t, ids), w), [table])

        x = r.normal(size=(2, 4))
        mask = np.array([[False, True, False, False], [True, False, False, True]])
        wm = r.normal(size=(2, 4))
        # small fill value keeps the finite-difference probe well conditioned;
        # the gradient rule (zero at masked entries) is value-independent
        gradcheck(lambda t: weighted(mask_fill(t, mask, value=0.5), wm), [x])

        a, b = r.normal(size=(2, 3)), r.normal(size=(3, 3))
        wc = r.normal(size=(5, 3))
        gradcheck(lambda u, v: weighted(concat_rows([u, v]), wc), [a, b])

        y = r.normal(size=(6, 2))
        ws = r.normal(size=(3, 2))
        gradcheck(lambda t: weighted(slice_rows(t, 1, 4), ws), [y])

    @pytest.mark.parametrize("seed", range(5))
    def test_diamond_graph_reuse(self, seed):
        # one tensor feeding two branches must accumulate both gradients
        r = np.random.default_rng(seed)
        x = r.normal(size=(3, 3))
        gradcheck(lambda t: add(tensor_sum(mul(t, t)), tensor_sum(matmul(t, t))), [x])

    def test_float64_preserved_throughout(self, rng):
        x = Tensor(rng.normal(size=(2, 3)).astype(np.float64), requires_grad=True)
        out = tensor_sum(gelu(softmax(x)))
        assert out.data.dtype == np.float64
        out.backward()
        assert x.grad.dtype == np.float64
