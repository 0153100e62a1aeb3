"""The label head's code blocks on kernels' worker pool: parity with the
serial head, where the pool and the OpenBLAS pin reach, fork and error
safety, and what the pool threads may call."""

import importlib.util
import json
import multiprocessing
import os
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import segcoder
from segcoder import kernels, label_attention, training
from segcoder.corpus import LabelSet, Note
from segcoder.label_attention import BLOCK, label_logits
from segcoder.model import new_model
from segcoder.optim import init_adam
from segcoder.tensor import Tensor, mul, tensor_sum
from segcoder.tokenizer import PAD_TOKEN, UNK_TOKEN, Vocab
from segcoder.transformer import EncoderConfig

from conftest import serial_label_logits

ROOT = Path(__file__).resolve().parents[1]
RAGGED = 2 * BLOCK + 3


@pytest.fixture
def pool_of(monkeypatch):
    """Sets the pool's size for one test. OpenBLAS is pinned first, as the
    first head of more than BLOCK codes pins it; a pool the test starts is
    shut down after it."""
    kernels.workers()

    def use(n):
        monkeypatch.setattr(kernels, "_workers", n)
        monkeypatch.setattr(kernels, "_pool", None)
    yield use
    if kernels._pool is not None:
        kernels._pool.shutdown()


def head_arrays(seed, K, s, d):
    rng = np.random.default_rng(seed)
    return ([rng.normal(size=(s, d)), rng.normal(size=(K, d)), rng.normal(size=(K, d)),
             rng.normal(size=K)], rng.normal(size=K))


def logits_and_grads(fn, arrays, probe, dtype):
    E, Q, W, b = (Tensor(a.astype(dtype), requires_grad=True) for a in arrays)
    out = fn(E, Q, W, b)
    tensor_sum(mul(out, Tensor(probe.astype(dtype)))).backward()
    return [out.data, E.grad, Q.grad, W.grad, b.grad]


NAMES = ["logits", "E", "Q", "W", "b"]


class TestParity:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("K,s,d", [
        (RAGGED, 9, 5),            # ragged last block
        (RAGGED, 1, 4),            # a single token
        (3 * BLOCK, 40, 8),        # whole blocks only
    ])
    def test_one_worker_is_the_serial_head(self, pool_of, K, s, d, dtype):
        pool_of(1)
        arrays, probe = head_arrays(K + s, K, s, d)
        got = logits_and_grads(label_logits, arrays, probe, dtype)
        want = logits_and_grads(serial_label_logits, arrays, probe, dtype)
        for name, g, w in zip(NAMES, got, want):
            assert g.dtype == dtype and np.array_equal(g, w), name
        assert kernels._pool is None

    @pytest.mark.parametrize("K", [1, 3, BLOCK])
    def test_one_block_heads_skip_the_pool(self, pool_of, K):
        pool_of(2)
        arrays, probe = head_arrays(K, K, 7, 4)
        for dtype in (np.float32, np.float64):
            got = logits_and_grads(label_logits, arrays, probe, dtype)
            want = logits_and_grads(serial_label_logits, arrays, probe, dtype)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))
        assert kernels._pool is None

    # Each array must agree with the serial head to tol x max(1, max |serial|).
    # Only the order in which the ranges' dE are summed, and at 3 workers the
    # 170-row GEMMs, differ. Over seeds 0-39 at these shapes the worst was
    # 1.75e-6 in float32 and 2.9e-15 in float64, both in dE; the bounds are
    # about 3x that.
    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("dtype,tol", [(np.float32, 5e-6), (np.float64, 1e-14)])
    @pytest.mark.parametrize("K,s,d", [(RAGGED, 9, 5), (RAGGED, 1, 4), (3 * BLOCK + 100, 200, 16)])
    def test_workers_agree_with_the_serial_head(self, pool_of, workers, K, s, d, dtype, tol):
        pool_of(workers)
        for seed in range(20):
            arrays, probe = head_arrays(seed, K, s, d)
            got = logits_and_grads(label_logits, arrays, probe, dtype)
            want = logits_and_grads(serial_label_logits, arrays, probe, dtype)
            for name, g, w in zip(NAMES, got, want):
                assert g.dtype == dtype and np.all(np.isfinite(g)), name
                err = float(np.abs(g - w).max())
                assert err <= tol * max(1.0, float(np.abs(w).max())), (seed, name, err)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_two_calls_are_bit_identical(self, pool_of, workers):
        pool_of(workers)
        arrays, probe = head_arrays(5, 3 * BLOCK + 100, 64, 8)
        first = logits_and_grads(label_logits, arrays, probe, np.float32)
        second = logits_and_grads(label_logits, arrays, probe, np.float32)
        assert all(np.array_equal(a, b) for a, b in zip(first, second))

    @pytest.mark.parametrize("workers", [1, 2, 3, 4, 7])
    @pytest.mark.parametrize("K", [BLOCK + 1, RAGGED, 5 * BLOCK, 8_922])
    def test_ranges_are_whole_blocks_covering_every_code(self, pool_of, workers, K):
        pool_of(workers)
        ranges = label_attention._over_ranges(K, lambda start, stop, block: (start, stop, block))
        block = ranges[0][2]
        assert block * workers <= BLOCK and len(ranges) == min(workers, -(-K // block))
        assert [r[0] for r in ranges] == [0] + [r[1] for r in ranges[:-1]]
        assert ranges[-1][1] == K
        assert all(r[0] % block == 0 and r[1] > r[0] and r[2] == block for r in ranges)


class TestFailures:
    @pytest.mark.parametrize("failing", ["first", "other"])
    def test_a_failing_range_raises_after_every_range_finished(self, pool_of, monkeypatch,
                                                                failing):
        pool_of(2)
        finished = []
        real = label_attention._forward_blocks

        def flaky(*args):
            start = args[-3]
            if (start == 0) == (failing == "first"):
                raise RuntimeError(f"injected at {start}")
            time.sleep(0.2)
            real(*args)
            finished.append(start)
        monkeypatch.setattr(label_attention, "_forward_blocks", flaky)
        arrays, probe = head_arrays(0, RAGGED, 9, 5)
        with pytest.raises(RuntimeError, match="injected"):
            logits_and_grads(label_logits, arrays, probe, np.float64)
        assert len(finished) == 1
        monkeypatch.setattr(label_attention, "_forward_blocks", real)
        got = logits_and_grads(label_logits, arrays, probe, np.float64)
        want = logits_and_grads(serial_label_logits, arrays, probe, np.float64)
        np.testing.assert_allclose(got[0], want[0], rtol=0, atol=1e-14)

    def test_first_failure_in_range_order_is_raised(self, pool_of):
        pool_of(3)

        def fail(i):
            if i:
                time.sleep(0.1 * (3 - i))  # range 2 raises before range 1
                raise ValueError(str(i))
        with pytest.raises(ValueError, match="^1$"):
            kernels.run_ranges(fail, [(0,), (1,), (2,)])

    def test_forked_child_starts_its_own_pool(self, pool_of):
        pool_of(2)
        arrays, probe = head_arrays(3, RAGGED, 40, 8)
        want = logits_and_grads(label_logits, arrays, probe, np.float32)
        assert kernels._pool is not None
        ctx = multiprocessing.get_context("fork")
        recv, send = ctx.Pipe(duplex=False)

        def child():
            send.send(logits_and_grads(label_logits, arrays, probe, np.float32))
        proc = ctx.Process(target=child)
        proc.start()
        try:
            assert recv.poll(60), "the forked child's head hung"
            got = recv.recv()
        finally:
            proc.join(10)
            if proc.is_alive():
                proc.kill()
                proc.join()
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


def _segbench_tracing():
    spec = importlib.util.spec_from_file_location("segbench_tracing",
                                                  ROOT / "segbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tiny_transformer(num_codes):
    note = Note("n1", "fever and cough fever cough fever and cough", ["C0", "C1"])
    vocab = Vocab([PAD_TOKEN, UNK_TOKEN, "fever", "and", "cough"])
    enc = EncoderConfig(num_blocks=1, hidden=8, heads=2, intermediate=16,
                        vocab_size=len(vocab), max_positions=4, seg_len=4)
    codes = [f"C{i}" for i in range(num_codes)]
    return new_model("transformer", enc, vocab, LabelSet(codes), s_max=16), note


class TestTracerContract:
    def test_kernels_active_is_what_segbench_wraps(self):
        tracing = _segbench_tracing()
        assert set(vars(kernels.active)) == set(tracing.KERNELS) | {"name"}

    def test_pool_threads_call_nothing_segbench_traces(self, pool_of):
        # segbench's span stack is not thread-safe: every traced name must
        # run on the thread that drives the model
        pool_of(2)
        tracing = _segbench_tracing()
        seen = set()

        class ThreadRecordingTracer(tracing.Tracer):
            def wrap(self, name, fn, count=None):
                traced = super().wrap(name, fn, count)

                def recorded(*args, **kwargs):
                    seen.add((name, threading.get_ident()))
                    return traced(*args, **kwargs)
                return recorded

        model, note = _tiny_transformer(RAGGED)
        tracer = ThreadRecordingTracer()
        tracer.install()
        try:
            state = init_adam(model.parameters(), lr=1e-3)
            training.train_step(model, training.prepare_examples(model, [note]), state)
        finally:
            tracer.uninstall()
        names = {name for name, _ in seen}
        assert {"label_attention.predict", "tensor.backward",
                "kernels.sigmoid_fwd", "kernels.adam_update"} <= names
        assert kernels._pool is not None
        assert {ident for _, ident in seen} == {threading.get_ident()}


# Prints the OpenBLAS thread count before and after BODY runs, whether a
# pool was started, and how many threads the process has.
_SCOPE = textwrap.dedent("""
    import ctypes, json, sys, threading
    sys.path.insert(0, {tests!r})
    import numpy as np
    from segcoder import kernels
    GETTERS = [sym.replace("_set_", "_get_") for sym in kernels._BLAS_SETTERS]

    def blas_threads():
        with open("/proc/self/maps", encoding="utf-8") as f:
            libs = sorted({{l.split()[-1] for l in f if "openblas" in l.lower()}})
        for path in libs:
            lib = ctypes.CDLL(path)
            for get in GETTERS:
                if hasattr(lib, get):
                    return getattr(lib, get)()
        return None

    before = blas_threads()
    {body}
    print(json.dumps({{"before": before, "after": blas_threads(),
                      "pool": kernels._pool is not None, "workers": kernels._workers,
                      "threads": threading.active_count(),
                      "futures": "concurrent.futures" in sys.modules, "extra": extra}}))
""")

_HEAD = textwrap.dedent("""
    from segcoder.label_attention import BLOCK, label_logits
    from segcoder.tensor import Tensor, tensor_sum
    from conftest import serial_label_logits
    rng = np.random.default_rng(0)
    arrays = [rng.normal(size=(30, 8)), rng.normal(size=(2 * BLOCK + 3, 8)),
              rng.normal(size=(2 * BLOCK + 3, 8)), rng.normal(size=2 * BLOCK + 3)]
    def run(fn):
        ts = [Tensor(a.astype(np.float32), requires_grad=True) for a in arrays]
        out = fn(*ts)
        tensor_sum(out).backward()
        return [out.data] + [t.grad for t in ts]
    got = run(label_logits)
    extra = all(np.array_equal(a, b) for a, b in zip(got, run(serial_label_logits)))
""")


def _scope(body):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2",
               PYTHONPATH=str(Path(segcoder.__file__).resolve().parents[1]))
    script = _SCOPE.format(tests=str(Path(__file__).parent), body=body)
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    if result["before"] is None:
        pytest.skip("numpy's BLAS here is not OpenBLAS")
    return result


class TestScope:
    """Each case runs in a process of its own, since the pin lasts for the
    rest of the process."""

    def test_one_block_model_leaves_blas_and_starts_no_pool(self):
        r = _scope(textwrap.dedent("""
            from segcoder.corpus import LabelSet, Note
            from segcoder.label_attention import BLOCK
            from segcoder.model import new_model
            from segcoder.optim import init_adam
            from segcoder.tokenizer import PAD_TOKEN, UNK_TOKEN, Vocab
            from segcoder.training import prepare_examples, train_step
            from segcoder.transformer import EncoderConfig
            note = Note("n1", "fever and cough fever cough fever and cough", ["C0", "C1"])
            vocab = Vocab([PAD_TOKEN, UNK_TOKEN, "fever", "and", "cough"])
            enc = EncoderConfig(num_blocks=1, hidden=8, heads=2, intermediate=16,
                                vocab_size=len(vocab), max_positions=4, seg_len=4)
            model = new_model("transformer", enc, vocab,
                              LabelSet([f"C{i}" for i in range(BLOCK)]), s_max=16)
            extra = len(model.rank_codes(note.text))
            train_step(model, prepare_examples(model, [note]),
                       init_adam(model.parameters(), lr=1e-3))
        """))
        assert (r["after"], r["pool"], r["workers"], r["threads"], r["futures"]) == (
            r["before"], False, None, 1, False)
        assert r["extra"] == BLOCK

    def test_large_head_pins_blas_and_starts_workers_minus_one_threads(self):
        r = _scope(_HEAD)
        workers = len(os.sched_getaffinity(0))
        assert (r["after"], r["workers"], r["threads"]) == (1, workers, workers)
        assert r["pool"] == (workers > 1)

    def test_no_setter_means_one_worker_and_the_serial_head(self):
        r = _scope('kernels._BLAS_SETTERS = ("no_such_setter",)\n' + _HEAD)
        assert (r["after"], r["pool"], r["workers"], r["threads"]) == (r["before"], False, 1, 1)
        assert r["extra"] is True
