"""Per-class attention pooling: worked examples, invariants, gradients, and
the fused head against the unfused composition it replaced."""

import math
import tracemalloc

import numpy as np
import pytest

from segcoder.label_attention import (
    BLOCK,
    LabelHeadParams,
    attention_weights,
    predict,
)
from segcoder.tensor import (Tensor, add, matmul, mul, reshape, sigmoid, softmax,
                             tensor_sum, transpose)

from conftest import param_gradcheck


def unfused_predict(E, head):
    """Reference oracle: the head as a composition of generic ops, which
    builds and keeps the full [K, s] scores and weights."""
    scores = transpose(matmul(E, transpose(head.Q)))          # [K, s]
    alpha = softmax(scores)
    z = matmul(alpha, E)                                      # [K, d]
    return sigmoid(add(tensor_sum(mul(z, head.W), axis=1), head.b))


def pool_document(E, q_c):
    """Per-class oracle: attention-weighted sum of token vectors."""
    s = E.data.shape[0]
    alpha = attention_weights(E, q_c)
    return reshape(matmul(reshape(alpha, (1, s)), E), (E.data.shape[1],))


def head_from_arrays(Q, W, b):
    rng = np.random.default_rng(0)
    K, d = np.asarray(Q).shape
    head = LabelHeadParams(K, d, rng, dtype=np.float64)
    head.Q.data = np.asarray(Q, dtype=np.float64)
    head.W.data = np.asarray(W, dtype=np.float64)
    head.b.data = np.asarray(b, dtype=np.float64)
    return head


class TestAttentionWeights:
    def test_zero_query_is_uniform(self):
        E = Tensor(np.arange(12, dtype=np.float64).reshape(4, 3))
        q = Tensor(np.zeros(3))
        alpha = attention_weights(E, q).data
        assert np.allclose(alpha, np.full(4, 0.25), atol=1e-12)

    def test_single_token_weight_is_one(self):
        E = Tensor(np.random.default_rng(3).normal(size=(1, 5)))
        q = Tensor(np.random.default_rng(4).normal(size=5))
        alpha = attention_weights(E, q).data
        assert alpha.shape == (1,)
        assert alpha[0] == pytest.approx(1.0, abs=1e-12)

    def test_log_ratio_scores(self):
        # scores [0, ln2, ln2] give weights proportional to [1, 2, 2]
        E = Tensor(np.array([[0.0], [math.log(2.0)], [math.log(2.0)]]))
        q = Tensor(np.array([1.0]))
        alpha = attention_weights(E, q).data
        assert np.allclose(alpha, [0.2, 0.4, 0.4], atol=1e-12)

    def test_weights_sum_to_one(self, rng):
        for _ in range(20):
            s = int(rng.integers(1, 9))
            d = int(rng.integers(1, 7))
            E = Tensor(rng.normal(size=(s, d)))
            q = Tensor(rng.normal(size=d))
            alpha = attention_weights(E, q).data
            assert alpha.shape == (s,)
            assert alpha.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(alpha > 0)

    def test_score_shift_invariance(self, rng):
        # adding a constant vector along q's nullspace-complement shifts every
        # score equally, leaving the softmax unchanged
        E = Tensor(rng.normal(size=(5, 3)))
        q_arr = rng.normal(size=3)
        q = Tensor(q_arr)
        base = attention_weights(E, q).data
        shift = q_arr * (1.7 / float(q_arr @ q_arr))  # adds 1.7 to each score
        shifted = attention_weights(Tensor(E.data + shift), q).data
        assert np.allclose(base, shifted, atol=1e-9)

    def test_empty_input_rejected(self):
        E = Tensor(np.zeros((0, 3)))
        q = Tensor(np.zeros(3))
        with pytest.raises(ValueError):
            attention_weights(E, q)


class TestPooling:
    def test_constant_rows_pool_to_that_row(self, rng):
        row = rng.normal(size=4)
        E = Tensor(np.tile(row, (6, 1)))
        q = Tensor(rng.normal(size=4))
        z = pool_document(E, q).data
        assert np.allclose(z, row, atol=1e-9)

    def test_pool_is_convex_combination(self, rng):
        E_arr = rng.normal(size=(7, 3))
        q = Tensor(rng.normal(size=3))
        alpha = attention_weights(Tensor(E_arr), q).data
        z = pool_document(Tensor(E_arr), q).data
        assert np.allclose(z, alpha @ E_arr, atol=1e-9)

    def test_extreme_query_selects_max_score_token(self):
        E_arr = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
        q = Tensor(np.array([50.0, 0.0]))  # token 0 dominates
        z = pool_document(Tensor(E_arr), q).data
        assert np.allclose(z, E_arr[0], atol=1e-6)


class TestPredict:
    def test_hand_computed_probabilities(self):
        # s=3 tokens in d=2, K=2 classes; every number checked by hand.
        E = Tensor(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
        Q = [[0.0, 0.0], [math.log(2.0), 0.0]]
        W = [[1.0, 2.0], [3.0, 0.0]]
        b = [0.5, -1.0]
        head = head_from_arrays(Q, W, b)
        p = predict(E, head).data

        # class 0: uniform weights -> z = [2/3, 2/3], logit = 2/3+4/3+0.5 = 2.5
        assert p[0] == pytest.approx(1.0 / (1.0 + math.exp(-2.5)), rel=1e-9)
        # class 1: scores [ln2, 0, ln2] -> alpha [0.4, 0.2, 0.4]
        # z = [0.8, 0.6], logit = 3*0.8 - 1 = 1.4
        assert p[1] == pytest.approx(1.0 / (1.0 + math.exp(-1.4)), rel=1e-9)

    def test_zero_classifier_gives_sigmoid_bias(self, rng):
        E = Tensor(rng.normal(size=(5, 3)))
        head = head_from_arrays(rng.normal(size=(2, 3)), np.zeros((2, 3)), [0.0, 1.0])
        p = predict(E, head).data
        assert p[0] == pytest.approx(0.5, abs=1e-9)
        assert p[1] == pytest.approx(1.0 / (1.0 + math.exp(-1.0)), rel=1e-9)

    def test_matches_per_class_loop(self, rng):
        # batched predict equals pooling one class at a time
        E_arr = rng.normal(size=(6, 4))
        K = 3
        Q = rng.normal(size=(K, 4))
        W = rng.normal(size=(K, 4))
        b = rng.normal(size=K)
        head = head_from_arrays(Q, W, b)
        p = predict(Tensor(E_arr), head).data
        for c in range(K):
            z = pool_document(Tensor(E_arr), Tensor(Q[c])).data
            logit = float(z @ W[c] + b[c])
            assert p[c] == pytest.approx(1.0 / (1.0 + math.exp(-logit)), rel=1e-9)

    def test_probabilities_in_unit_interval(self, rng):
        E = Tensor(rng.normal(size=(8, 5)) * 3.0)
        head = LabelHeadParams(7, 5, rng, dtype=np.float64)
        p = predict(E, head).data
        assert p.shape == (7,)
        assert np.all(p > 0) and np.all(p < 1)

    def test_token_permutation_invariance(self, rng):
        # attention pooling ignores token order
        E_arr = rng.normal(size=(6, 4))
        head = LabelHeadParams(3, 4, rng, dtype=np.float64)
        base = predict(Tensor(E_arr), head).data
        perm = rng.permutation(6)
        permuted = predict(Tensor(E_arr[perm]), head).data
        assert np.allclose(base, permuted, atol=1e-12)

    def test_bias_monotonicity(self, rng):
        # raising one class bias raises exactly that probability
        E = Tensor(rng.normal(size=(4, 3)))
        Q = rng.normal(size=(2, 3))
        W = rng.normal(size=(2, 3))
        lo = predict(E, head_from_arrays(Q, W, [0.0, 0.0])).data
        hi = predict(E, head_from_arrays(Q, W, [1.0, 0.0])).data
        assert hi[0] > lo[0]
        assert hi[1] == pytest.approx(lo[1], abs=1e-12)

    def test_dimension_mismatch_rejected(self, rng):
        E = Tensor(rng.normal(size=(4, 3)))
        head = LabelHeadParams(2, 5, rng)
        with pytest.raises(ValueError):
            predict(E, head)


class TestParamCounts:
    @pytest.mark.parametrize("d,K,attn,clf", [
        (256, 50, 12_800, 12_850),
        (256, 8_921, 2_283_776, 2_292_697),
        (256, 72_748, 18_623_488, 18_696_236),
    ])
    def test_reference_configurations(self, d, K, attn, clf):
        # attention holds Q [K, d]; the classifiers hold W [K, d] and b [K]
        sizes = {n: t.data.size for n, t in LabelHeadParams(K, d, rng=None).named()}
        assert sizes["head.Q"] == attn
        assert sizes["head.W"] + sizes["head.b"] == clf

    def test_counts_match_allocation(self, rng):
        head = LabelHeadParams(11, 6, rng)
        assert [(n, t.data.shape) for n, t in head.named()] == [
            ("head.Q", (11, 6)), ("head.W", (11, 6)), ("head.b", (11,))]


class TestGradients:
    def test_gradcheck_through_head(self, rng):
        E = Tensor(rng.normal(size=(5, 4)).astype(np.float64), requires_grad=True)
        head = LabelHeadParams(3, 4, rng, dtype=np.float64)
        w = rng.normal(size=3)
        params = [E] + [t for _, t in head.named()]
        names = ["E", "Q", "W", "b"]

        def loss():
            return tensor_sum(mul(predict(E, head), Tensor(w)))

        param_gradcheck(params, loss, rtol=1e-4, names=names)

    def test_gradcheck_attention_weights(self, rng):
        E = Tensor(rng.normal(size=(4, 3)).astype(np.float64), requires_grad=True)
        q = Tensor(rng.normal(size=3).astype(np.float64), requires_grad=True)
        w = rng.normal(size=4)

        def loss():
            return tensor_sum(mul(attention_weights(E, q), Tensor(w)))

        param_gradcheck([E, q], loss, rtol=1e-4, names=["E", "q"])


def _probs_and_grads(fn, arrays, dtype, probe):
    E, Q, W, b = (Tensor(a.astype(dtype), requires_grad=True) for a in arrays)
    head = LabelHeadParams(Q.data.shape[0], Q.data.shape[1],
                           np.random.default_rng(0), dtype=dtype)
    head.Q, head.W, head.b = Q, W, b
    p = fn(E, head)
    tensor_sum(mul(p, Tensor(probe.astype(dtype)))).backward()
    return [p.data, E.grad, Q.grad, W.grad, b.grad]


def _assert_parity(got, want, dtype, tol):
    for name, g, w in zip(["probs", "E", "Q", "W", "b"], got, want):
        assert g.dtype == dtype, name
        assert np.all(np.isfinite(g)), name
        scale = max(1.0, float(np.abs(w).max()))
        err = float(np.abs(g - w).max())
        assert err <= tol * scale, f"{name}: max |diff| {err:.3e}"


class TestFusedParity:
    """The fused head against the unfused oracle. Each array must agree to
    ``tol`` times the larger of 1 and the oracle's largest magnitude: the
    E gradient sums over all K codes, so in float32 its rounding grows with
    its size."""

    @pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-12), (np.float32, 1e-6)])
    @pytest.mark.parametrize("K,s,d", [
        (3, 7, 4),                 # K < block
        (2 * BLOCK + 3, 9, 5),     # ragged last block
        (2 * BLOCK + 3, 1, 4),     # a single token
        (4, 1, 3),
    ])
    def test_forward_and_gradients(self, K, s, d, dtype, tol):
        rng = np.random.default_rng(K * 31 + s)
        arrays = [rng.normal(size=(s, d)), rng.normal(size=(K, d)),
                  rng.normal(size=(K, d)), rng.normal(size=K)]
        probe = rng.normal(size=K)
        got = _probs_and_grads(predict, arrays, dtype, probe)
        _assert_parity(got, _probs_and_grads(unfused_predict, arrays, dtype, probe),
                       dtype, tol)

    def test_long_rows_float64(self):
        # the folded backward GEMMs accumulate over every token of a block
        K, s, d = 2 * BLOCK + 3, 300, 6
        rng = np.random.default_rng(17)
        arrays = [rng.normal(size=(s, d)), rng.normal(size=(K, d)),
                  rng.normal(size=(K, d)), rng.normal(size=K)]
        probe = rng.normal(size=K)
        got = _probs_and_grads(predict, arrays, np.float64, probe)
        _assert_parity(got, _probs_and_grads(unfused_predict, arrays, np.float64, probe),
                       np.float64, 1e-12)

    def test_no_k_by_s_array(self):
        # forward and backward together stay well under one [K, s] array
        K, s, d = 8 * BLOCK, 512, 4
        rng = np.random.default_rng(1)
        E = Tensor(rng.normal(size=(s, d)), requires_grad=True)
        head = LabelHeadParams(K, d, rng, dtype=np.float64)
        full = K * s * 8
        tracemalloc.start()
        try:
            tensor_sum(predict(E, head)).backward()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < full / 2, f"peak {peak} B vs one [K, s] array {full} B"


class TestLongRowsAndLargeScores:
    """Many tokens per code, where the forward's GEMV row sums and the
    backward's GEMMs accumulate over the whole row, and scores in the
    hundreds, where only the row-max shift keeps exp finite. Both dtypes
    are held to the float64 unfused oracle on eight seeds each. The bounds
    are measured rather than TestFusedParity's: over seeds 0-39 at these
    shapes the unfused float32 head itself misses the float64 oracle by up
    to 1.3e-6 (s = 1,024) and 2.6e-3 (scores x 100, whose float32 rounding
    is ~1e-5 in the exponent). Each bound is 3-5x this head's worst seed."""

    K, d = 2 * BLOCK + 3, 4                  # ragged last block

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("s,e_scale,tol64,tol32", [
        (1024, 1.0, 1e-12, 1e-5),     # worst of 40 seeds: 5.8e-15, 2.1e-6
        (64, 100.0, 1e-11, 1e-2),     # worst of 40 seeds: 3.4e-12, 2.6e-3
    ])
    def test_against_float64_oracle(self, seed, s, e_scale, tol64, tol32):
        rng = np.random.default_rng(seed)
        arrays = [rng.normal(size=(s, self.d)) * e_scale, rng.normal(size=(self.K, self.d)),
                  rng.normal(size=(self.K, self.d)), rng.normal(size=self.K)]
        probe = rng.normal(size=self.K)
        want = _probs_and_grads(unfused_predict, arrays, np.float64, probe)
        for dtype, tol in [(np.float64, tol64), (np.float32, tol32)]:
            _assert_parity(_probs_and_grads(predict, arrays, dtype, probe), want, dtype, tol)
