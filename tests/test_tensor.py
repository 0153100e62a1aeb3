"""Tensor op semantics and reverse-mode gradients against the
finite-difference oracle (20 random small inputs per differentiable op)."""

import ast
import gc
import weakref
from pathlib import Path

import numpy as np
import pytest

import segcoder
from conftest import composed_masked_softmax, fd_gradients, gradcheck
from segcoder.tensor import (Tensor, add, clamp, concat_rows, embedding_gather,
                             gelu, layer_norm, log, matmul, mul, no_grad,
                             reshape, sigmoid, slice_rows, softmax, sub, tanh,
                             tensor_sum, transpose, unfold_rows)

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

    @pytest.mark.parametrize("op", [sigmoid, gelu])
    def test_elementwise_on_transposed_input_matches_contiguous(self, op, rng):
        xt = rng.normal(size=(4, 3)).astype(np.float32).T * 3
        w = rng.normal(size=(3, 4)).astype(np.float32)
        assert xt.shape == (3, 4) and not xt.flags.c_contiguous
        runs = []
        for x in (xt, np.ascontiguousarray(xt)):
            t = Tensor(x, requires_grad=True)
            out = op(t)
            weighted(out, w).backward()
            runs.append((out.data, t.grad))
        np.testing.assert_array_equal(runs[0][0], runs[1][0])
        np.testing.assert_array_equal(runs[0][1], runs[1][1])

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

    def test_unfold_rows_same_padded_windows(self):
        x = np.arange(1.0, 7.0).reshape(3, 2)
        out = unfold_rows(Tensor(x), 3).data
        np.testing.assert_array_equal(out, [[0, 0, 1, 2, 3, 4],
                                            [1, 2, 3, 4, 5, 6],
                                            [3, 4, 5, 6, 0, 0]])
        assert out.flags.c_contiguous

    def test_unfold_rows_rejects_even_width_and_non_matrix(self):
        with pytest.raises(ValueError, match="odd"):
            unfold_rows(Tensor(np.zeros((3, 2))), 2)
        with pytest.raises(ValueError, match="2-D"):
            unfold_rows(Tensor(np.zeros(3)), 1)

    def test_masked_keys_get_exactly_zero_weight(self):
        x = Tensor(np.zeros((1, 4), dtype=np.float32), requires_grad=True)
        mask = np.array([[False, True, False, True]])
        probs = softmax(x, key_mask=mask, scale=0.25)
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
        with pytest.raises(ValueError, match=r"scalar tensor, got shape \(3,\)"):
            mul(x, x).backward()
        assert x.grad is None

    def test_backward_without_gradient_raises(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            recorded_off = tensor_sum(mul(x, x))
        constant = tensor_sum(mul(Tensor(np.ones(3)), 2.0))
        for loss in (recorded_off, constant):
            with pytest.raises(RuntimeError, match="requires no gradient"):
                loss.backward()
        assert x.grad is None

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


class TestGradientOwnership:
    """The first gradient into a tensor is kept only if no other node holds
    it. Interior ``.grad`` arrays are checked after ``backward()``: an
    aliased one would have been changed by accumulation into its parents."""

    def test_tensor_used_twice_by_one_op(self, rng):
        x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        w = rng.normal(size=(2, 3))
        h = mul(x, 3.0)
        y = add(h, h)
        tensor_sum(mul(y, Tensor(w))).backward()
        np.testing.assert_array_equal(y.grad, w)
        np.testing.assert_array_equal(h.grad, 2 * w)
        np.testing.assert_array_equal(x.grad, 6 * w)

        x2 = Tensor(x.data.copy(), requires_grad=True)
        h2 = mul(x2, 3.0)
        y2 = mul(h2, h2)
        tensor_sum(mul(y2, Tensor(w))).backward()
        np.testing.assert_array_equal(y2.grad, w)
        np.testing.assert_allclose(h2.grad, 2 * h2.data * w, rtol=1e-15)
        np.testing.assert_allclose(x2.grad, 18 * x.data * w, rtol=1e-15)

    def test_tensor_with_two_consumers(self, rng):
        x = Tensor(rng.normal(size=(3,)), requires_grad=True)
        w1, w2 = rng.normal(size=(3,)), rng.normal(size=(3,))
        h = mul(x, 2.0)
        u = add(h, Tensor(np.ones(3)))
        v = mul(h, 3.0)
        loss = add(tensor_sum(mul(u, Tensor(w1))), tensor_sum(mul(v, Tensor(w2))))
        loss.backward()
        np.testing.assert_array_equal(loss.grad, 1.0)
        np.testing.assert_array_equal(u.grad, w1)
        np.testing.assert_array_equal(v.grad, w2)
        np.testing.assert_allclose(h.grad, w1 + 3 * w2, rtol=1e-15)
        np.testing.assert_allclose(x.grad, 2 * (w1 + 3 * w2), rtol=1e-15)

    def test_leaf_reached_through_views(self, rng):
        # transpose, reshape, concat_rows and tensor_sum hand on views of the
        # gradient they receive; each path below reaches the same leaf
        x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        w_t, w_r, w_c = rng.normal(size=(3, 2)), rng.normal(size=(6,)), rng.normal(size=(4, 3))
        t = transpose(x)
        r = reshape(x, (6,))
        c = concat_rows([x, x])
        s = tensor_sum(x, axis=1)
        loss = add(add(tensor_sum(mul(t, Tensor(w_t))), tensor_sum(mul(r, Tensor(w_r)))),
                   add(tensor_sum(mul(c, Tensor(w_c))), tensor_sum(s)))
        loss.backward()
        for node, w in ((t, w_t), (r, w_r), (c, w_c), (s, np.ones(2))):
            np.testing.assert_array_equal(node.grad, w)
        expected = w_t.T + w_r.reshape(2, 3) + w_c[:2] + w_c[2:] + 1.0
        np.testing.assert_allclose(x.grad, expected, rtol=1e-14)

    def test_float64_gradient_into_float32_tensor(self, rng):
        x = Tensor(rng.normal(size=(2, 3)).astype(np.float32), requires_grad=True)
        w = rng.normal(size=(2, 3))
        y = add(x, Tensor(np.zeros((2, 3))))
        assert y.data.dtype == np.float64
        tensor_sum(mul(y, Tensor(w))).backward()
        assert x.grad.dtype == np.float32
        np.testing.assert_array_equal(x.grad, w.astype(np.float32))
        np.testing.assert_array_equal(y.grad, w)

    def test_zero_dim_gradients_are_owned_arrays(self):
        # a product of 0-d arrays is a numpy scalar, and tensor_sum's
        # broadcast of one is read-only: neither can take a later += in place
        x = Tensor(np.array(2.0), requires_grad=True)
        s = tensor_sum(mul(x, 3.0))
        add(mul(s, 2.0), mul(x, 5.0)).backward()
        assert isinstance(x.grad, np.ndarray) and x.grad.flags.writeable
        assert x.grad == 11.0
        assert isinstance(s.grad, np.ndarray) and s.grad == 2.0

    def test_transposed_leaf_keeps_its_layout(self, rng):
        x = Tensor(rng.normal(size=(3, 2)).T, requires_grad=True)
        w = rng.normal(size=(2, 3))
        tensor_sum(mul(mul(x, 2.0), Tensor(w))).backward()
        assert x.grad.strides == x.data.strides and not x.grad.flags.c_contiguous
        np.testing.assert_array_equal(x.grad, 2 * w)


def test_only_tensor_accumulates_gradients():
    # every gradient reaches a tensor through Tensor.backward: no op, and no
    # module outside Tensor, calls _accum or writes .grad itself
    def grad_target(node):
        while isinstance(node, ast.Subscript):
            node = node.value
        return isinstance(node, ast.Attribute) and node.attr == "grad"

    offenders = []
    for path in sorted(Path(segcoder.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        tensor_class = {id(n) for c in tree.body
                        if isinstance(c, ast.ClassDef) and c.name == "Tensor"
                        for n in ast.walk(c)}
        for node in ast.walk(tree):
            if id(node) in tensor_class:
                continue
            if isinstance(node, ast.Assign):
                bad = any(grad_target(t) for t in node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                bad = grad_target(node.target)
            elif isinstance(node, ast.Call):
                bad = (isinstance(node.func, ast.Attribute) and node.func.attr == "_accum"
                       or any(k.arg == "out" and grad_target(k.value) for k in node.keywords))
            else:
                bad = False
            if bad:
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


UNUSED_BY_DESIGN = [
    # only tests call it until the planned --explain output (ROADMAP item 3)
    # shows a code's attention over the note's tokens
    "label_attention.attention_weights",
    # criterion 1 checks the encoder's size against BERT's arithmetic
    "transformer.count_parameters",
]

# defaulted parameters that only tests set
SET_BY_TESTS_ONLY = {
    "tensor.tensor_sum(axis)": "the unfused head oracle and criterion 2 sum over one axis",
    "cli.main(argv)": "the tests' entry point; the console script reads sys.argv",
    "transformer.EncoderParams(dtype)": "the float64 gradchecks build float64 weights",
    "cnn.CnnParams(dtype)": "the float64 gradchecks build float64 weights",
    "label_attention.LabelHeadParams(dtype)": "the float64 gradchecks build float64 weights",
}


def _sources():
    """Parsed modules of the package and of the benchmark."""
    package = Path(segcoder.__file__).parent
    bench = package.parent.parent / "segbench"
    assert bench.is_dir()
    return ({p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(package.glob("*.py"))},
            [ast.parse(p.read_text(encoding="utf-8")) for p in bench.glob("*.py")])


def _public_functions(modules):
    """(qualified name, def, is_method) for every public function, every
    public method of a public class, and every public class's __init__,
    which its callers reach through the class name."""
    for stem, tree in modules.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                yield f"{stem}.{node.name}", node, False
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for m in node.body:
                    if not isinstance(m, ast.FunctionDef):
                        continue
                    if m.name == "__init__":
                        yield f"{stem}.{node.name}", m, True
                    elif not m.name.startswith("_"):
                        yield f"{stem}.{node.name}.{m.name}", m, True


def test_package_keeps_only_what_it_runs():
    # every public function, and every public method of a public class, in
    # any segcoder module is referenced from the package or the benchmark
    # other than at its own definition or a re-export in __init__.py
    modules, bench = _sources()
    names, attrs = set(), set()
    for tree in [*modules.values(), *bench]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
    unused = [name for name, node, is_method in _public_functions(modules)
              if node.name != "__init__"
              and node.name not in (attrs if is_method else names | attrs)]
    assert unused == UNUSED_BY_DESIGN


def test_package_sets_every_defaulted_parameter():
    # a parameter with a default is an option; some call in the package or
    # the benchmark sets it, by keyword or by position, or it is a constant
    modules, bench = _sources()
    calls = [node for tree in [*modules.values(), *bench] for node in ast.walk(tree)
             if isinstance(node, ast.Call)]

    def callee(call):
        f = call.func
        return f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None

    unset = []
    for name, node, is_method in _public_functions(modules):
        called = name.rsplit(".", 1)[1]
        mine = [c for c in calls if callee(c) == called]
        positional = [*node.args.posonlyargs, *node.args.args][int(is_method):]
        defaulted = positional[len(positional) - len(node.args.defaults):]
        defaulted += [a for a, d in zip(node.args.kwonlyargs, node.args.kw_defaults) if d is not None]
        for arg in defaulted:
            index = positional.index(arg) if arg in positional else None
            if not any(any(k.arg in (arg.arg, None) for k in c.keywords)
                       or index is not None and (len(c.args) > index
                                                 or any(isinstance(a, ast.Starred) for a in c.args))
                       for c in mine):
                unset.append(f"{name}({arg.arg})")
    assert sorted(unset) == sorted(SET_BY_TESTS_ONLY), sorted(set(unset) ^ set(SET_BY_TESTS_ONLY))


def test_tensor_has_no_operator_sugar():
    # the model composes the functional ops
    binary = ("add", "sub", "mul", "matmul", "truediv", "floordiv", "mod", "pow")
    dunders = [f"__{p}{op}__" for op in binary for p in ("", "r", "i")]
    dunders += ["__neg__", "__pos__", "__abs__"]
    assert [d for d in dunders if hasattr(Tensor, d)] == []


class TestGradients:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_add_mul_sub(self, seed):
        r = np.random.default_rng(seed)
        a, b = r.normal(size=(3, 4)), r.normal(size=(3, 4))
        w = r.normal(size=(3, 4))
        gradcheck(lambda x, y: weighted(add(x, y), w), [a, b])
        gradcheck(lambda x, y: weighted(mul(x, y), w), [a, b])
        gradcheck(lambda x, y: weighted(sub(x, y), w), [a, b])

    @pytest.mark.parametrize("seed", SEEDS)
    def test_broadcast_add_mul(self, seed):
        r = np.random.default_rng(seed)
        a, b = r.normal(size=(3, 4)), r.normal(size=(4,))
        w = r.normal(size=(3, 4))
        gradcheck(lambda x, y: weighted(add(x, y), w), [a, b])
        gradcheck(lambda x, y: weighted(mul(x, y), w), [a, b])

    def test_fd_oracle_on_transposed_input(self):
        # a transposed float64 input stays a non-contiguous view
        x = Tensor(np.arange(6, dtype=np.float64).reshape(3, 2).T)
        assert not x.data.flags.c_contiguous
        before = x.data
        (g,) = fd_gradients(lambda t: tensor_sum(mul(t, t)), [x])
        np.testing.assert_allclose(g, 2 * x.data, atol=1e-8)
        assert x.data is before
        np.testing.assert_array_equal(before, np.arange(6).reshape(3, 2).T)

    @pytest.mark.parametrize("seed", SEEDS[:5])
    def test_matmul_transposed_inputs(self, seed):
        r = np.random.default_rng(seed)
        a, b = r.normal(size=(4, 3)).T, r.normal(size=(2, 4)).T
        w = r.normal(size=(3, 2))
        gradcheck(lambda x, y: weighted(matmul(x, y), w), [a, b])

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
    def test_masked_softmax_over_attention_scores(self, seed):
        # the attention path: [windows, heads, queries, keys] scores,
        # scaled, padded keys masked, then a softmax over every row
        r = np.random.default_rng(seed)
        x = r.normal(size=(2, 3, 4, 5)) * 2
        key_mask = r.random(size=(2, 1, 1, 5)) < 0.4
        key_mask[..., 0] = False  # every row keeps a real key
        w = r.normal(size=(2, 3, 4, 5))
        gradcheck(lambda t: weighted(softmax(t, key_mask, 1 / np.sqrt(8)), w), [x])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("scale", [0.25, 0.125, 1 / np.sqrt(32)])
    def test_masked_softmax_bit_identical_to_composition(self, dtype, scale):
        # one node against the scale mul, fill and softmax it replaced,
        # output and gradient bit for bit (zero signs included); window 1 is
        # fully padded, so its weights are uniform and its gradient zero
        r = np.random.default_rng(0)
        x = (r.normal(size=(3, 2, 5, 5)) * 4).astype(dtype)
        key_mask = r.random(size=(3, 1, 1, 5)) < 0.4
        key_mask[0] = False
        key_mask[1] = True
        key_mask[2, ..., :2] = [False, True]
        w = r.normal(size=x.shape).astype(dtype)
        runs = []
        for op in (softmax, composed_masked_softmax):
            t = Tensor(x, requires_grad=True)
            out = op(t, key_mask, scale)
            weighted(out, w).backward()
            runs.append((out.data, t.grad))
        for got, want in zip(*runs):
            assert got.dtype == want.dtype == dtype
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(np.signbit(got), np.signbit(want))
        np.testing.assert_allclose(runs[0][0][1], 0.2, rtol=1e-6)
        assert np.all(runs[0][1][1] == 0.0)

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
        w3 = r.normal(size=(4,))
        gradcheck(lambda t: weighted(tensor_sum(t, axis=0), w3), [x])

    @pytest.mark.parametrize("seed", SEEDS)
    def test_gather_concat_slice(self, seed):
        r = np.random.default_rng(seed)
        table = r.normal(size=(5, 3))
        ids = np.array([0, 2, 2, 4, 1])
        w = r.normal(size=(5, 3))
        gradcheck(lambda t: weighted(embedding_gather(t, ids), w), [table])

        a, b = r.normal(size=(2, 3)), r.normal(size=(3, 3))
        wc = r.normal(size=(5, 3))
        gradcheck(lambda u, v: weighted(concat_rows([u, v]), wc), [a, b])

        y = r.normal(size=(6, 2))
        ws = r.normal(size=(3, 2))
        gradcheck(lambda t: weighted(slice_rows(t, 1, 4), ws), [y])

    @pytest.mark.parametrize("n,k", [(5, 1), (1, 9), (3, 9), (6, 3)])
    def test_unfold_rows(self, n, k):
        # k=1 is the identity; n=1 and n < k//2 have windows wider than the input
        r = np.random.default_rng(n * 10 + k)
        x = r.normal(size=(n, 2))
        w = r.normal(size=(n, k * 2))
        gradcheck(lambda t: weighted(unfold_rows(t, k), w), [x])

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
