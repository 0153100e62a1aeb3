"""Per-layer tracing from outside the program.

Every layer is measured by wrapping its public functions where the caller
looks them up (modules import functions by name, so ``segcoder.model.predict``
is patched, not ``segcoder.label_attention.predict``). Each wrapped call
records a span: name, start, end and the span that was open when it began.
Spans stay in compact arrays in memory; self time is a span's duration minus
the time its direct children cover. Work counts are taken at the same
boundaries, and ``gc.callbacks`` reports the cyclic collector's pauses.
"""

import gc
from array import array
from collections import defaultdict
from time import perf_counter
from types import SimpleNamespace

import numpy as np

import segcoder.checkpoint
import segcoder.kernels
import segcoder.metrics
import segcoder.model
import segcoder.tensor
import segcoder.training

KERNELS = ("softmax_fwd", "softmax_bwd", "layernorm_fwd", "layernorm_bwd",
           "gelu_fwd", "gelu_bwd", "sigmoid_fwd", "sigmoid_bwd",
           "adam_update", "scatter_add")


def _nbytes(value):
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, tuple):
        return sum(_nbytes(v) for v in value)
    return 0


def _count_kernel_bytes(name):
    key = f"kernels.{name}.bytes"

    def count(counts, args, out):
        counts[key] += _nbytes(args) + _nbytes(out)
    return count


def _count_encode_long(counts, args, out):
    _, seq, plan = args
    encoded = len(plan.segments) * plan.seg_len
    counts["segments.windows"] += len(plan.segments)
    counts["segments.encoded_positions"] += encoded
    counts["segments.padded_positions"] += encoded - seq.s


def _segment_flops(config):
    """Forward FLOPs of one encode_segment call: projections, attention
    scores and context, feed-forward (multiply-adds count as two)."""
    n, d, i = config.seg_len, config.hidden, config.intermediate
    return config.num_blocks * (8 * n * d * d + 4 * n * n * d + 4 * n * d * i)


def _count_encode_segment(counts, args, out):
    counts["transformer.flops"] += _segment_flops(args[1])


def _count_predict(counts, args, out):
    E, head = args
    counts["label_attention.scores"] += head.num_classes * E.data.shape[0]


def _count_evaluate_model(counts, args, out):
    model, examples = args[0], args[1]
    counts["metrics.pairs"] += len(examples) * model.num_classes


def _count_tokenize(counts, args, out):
    counts["tokenizer.tokens"] += out.s


def _count_step(counts, args, out):
    n = sum(p.data.size for p in args[0])
    counts["optim.params"] = max(counts["optim.params"], n)


def _count_save(counts, args, out):
    counts["checkpoint.save_tensors.bytes"] += sum(
        np.asarray(a).size * 4 for _, a in args[1])


def _count_load(counts, args, out):
    counts["checkpoint.load_tensors.bytes"] += sum(a.nbytes for a in out.values())


class Tracer:
    """Installs span wrappers on segcoder's public functions; ``uninstall``
    puts the originals back."""

    def __init__(self):
        self.names = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = []
        self.counts = defaultdict(float)
        self._patches = []
        self.gc_collections = 0
        self.gc_pause_s = 0.0
        self._gc_t0 = 0.0

    def wrap(self, name, fn, count=None):
        nid = len(self.names)
        self.names.append(name)

        def traced(*args, **kwargs):
            i = len(self.span_start)
            self.span_name.append(nid)
            self.span_parent.append(self._stack[-1] if self._stack else -1)
            self.span_end.append(0.0)
            self._stack.append(i)
            self.span_start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.span_end[i] = perf_counter()
                self._stack.pop()
            if count is not None:
                count(self.counts, args, out)
            return out
        return traced

    def patch(self, owner, attr, name, count=None):
        orig = getattr(owner, attr)
        self._patches.append((owner, attr, orig))
        setattr(owner, attr, self.wrap(name, orig, count))

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_t0 = perf_counter()
        else:
            self.gc_collections += 1
            self.gc_pause_s += perf_counter() - self._gc_t0

    def install(self):
        training, model = segcoder.training, segcoder.model
        self.patch(segcoder.tensor.Tensor, "backward", "tensor.backward")
        self.patch(training, "train_step", "training.train_step")
        self.patch(training, "prepare_examples", "training.prepare_examples")
        self.patch(training, "evaluate_model", "training.evaluate_model",
                   _count_evaluate_model)
        self.patch(training, "step_with_grads", "optim.step_with_grads", _count_step)
        self.patch(training, "best_threshold", "metrics.best_threshold")
        self.patch(segcoder.metrics, "pr_auc", "metrics.pr_auc")
        self.patch(segcoder.metrics, "roc_auc", "metrics.roc_auc")
        self.patch(model, "encode_long", "segments.encode_long", _count_encode_long)
        self.patch(model, "encode_segment", "transformer.encode_segment",
                   _count_encode_segment)
        self.patch(model, "predict", "label_attention.predict", _count_predict)
        self.patch(model, "tokenize", "tokenizer.tokenize", _count_tokenize)
        self.patch(model, "encode_cnn", "cnn.encode_cnn")
        self.patch(segcoder.checkpoint, "save_tensors", "checkpoint.save_tensors",
                   _count_save)
        self.patch(segcoder.checkpoint, "load_tensors", "checkpoint.load_tensors",
                   _count_load)
        active = segcoder.kernels.active
        wrapped = {k: self.wrap(f"kernels.{k}", getattr(active, k), _count_kernel_bytes(k))
                   for k in KERNELS}
        self._patches.append((segcoder.kernels, "active", active))
        segcoder.kernels.active = SimpleNamespace(name=active.name, **wrapped)
        gc.callbacks.append(self._on_gc)

    def uninstall(self):
        gc.callbacks.remove(self._on_gc)
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def totals(self):
        """Per span name: (calls, busy seconds, self seconds)."""
        n = len(self.span_start)
        name = np.frombuffer(self.span_name, dtype=np.int32, count=n)
        parent = np.frombuffer(self.span_parent, dtype=np.int32, count=n)
        dur = (np.frombuffer(self.span_end, dtype=np.float64, count=n)
               - np.frombuffer(self.span_start, dtype=np.float64, count=n))
        covered = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        busy = np.bincount(name, weights=dur, minlength=k)
        own = np.bincount(name, weights=dur - covered, minlength=k)
        return {nm: (int(calls[i]), float(busy[i]), float(own[i]))
                for i, nm in enumerate(self.names)}

    def save_spans(self, path):
        n = len(self.span_start)
        np.savez_compressed(
            path, names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32, count=n),
            parent=np.frombuffer(self.span_parent, dtype=np.int32, count=n),
            start=np.frombuffer(self.span_start, dtype=np.float64, count=n),
            end=np.frombuffer(self.span_end, dtype=np.float64, count=n))

    def per_layer(self):
        """The per-layer metrics, as {name: value}; layers a workload never
        reaches read 0."""
        t = self.totals()
        c = self.counts

        def calls(name):
            return t.get(name, (0, 0.0, 0.0))[0]

        def busy(name):
            return t.get(name, (0, 0.0, 0.0))[1]

        def ratio(a, b):
            return a / b if b else 0.0

        m = {
            "tensor.backward.calls": calls("tensor.backward"),
            "tensor.backward.s": busy("tensor.backward"),
            "runtime.gc_collections": self.gc_collections,
            "runtime.gc_pause_s": self.gc_pause_s,
            "training.train_step.s": busy("training.train_step"),
            "training.forward.s": (busy("training.train_step") - busy("tensor.backward")
                                   - busy("optim.step_with_grads")),
            "training.prepare_examples.s": busy("training.prepare_examples"),
            "training.evaluate_model.s": busy("training.evaluate_model"),
            "segments.encode_long.calls": calls("segments.encode_long"),
            "segments.encode_long.self_s": t.get("segments.encode_long", (0, 0.0, 0.0))[2],
            "segments.windows": int(c["segments.windows"]),
            "segments.pad_share": ratio(c["segments.padded_positions"],
                                        c["segments.encoded_positions"]),
            "transformer.encode_segment.calls": calls("transformer.encode_segment"),
            "transformer.encode_segment.s": busy("transformer.encode_segment"),
            "transformer.gflop_per_s": ratio(c["transformer.flops"] / 1e9,
                                             busy("transformer.encode_segment")),
        }
        for k in KERNELS:
            m[f"kernels.{k}.calls"] = calls(f"kernels.{k}")
            m[f"kernels.{k}.s"] = busy(f"kernels.{k}")
            m[f"kernels.{k}.bytes"] = int(c[f"kernels.{k}.bytes"])
        m.update({
            "optim.step_with_grads.s": busy("optim.step_with_grads"),
            "optim.params": int(c["optim.params"]),
            "label_attention.predict.calls": calls("label_attention.predict"),
            "label_attention.predict.s": busy("label_attention.predict"),
            "label_attention.scores": int(c["label_attention.scores"]),
            "metrics.best_threshold.s": busy("metrics.best_threshold"),
            "metrics.pr_auc.s": busy("metrics.pr_auc"),
            "metrics.roc_auc.s": busy("metrics.roc_auc"),
            "metrics.pairs": int(c["metrics.pairs"]),
            "tokenizer.tokenize.calls": calls("tokenizer.tokenize"),
            "tokenizer.tokenize.s": busy("tokenizer.tokenize"),
            "tokenizer.tokens_per_s": ratio(c["tokenizer.tokens"], busy("tokenizer.tokenize")),
            "checkpoint.save_tensors.s": busy("checkpoint.save_tensors"),
            "checkpoint.save_tensors.bytes": int(c["checkpoint.save_tensors.bytes"]),
            "checkpoint.load_tensors.s": busy("checkpoint.load_tensors"),
            "checkpoint.load_tensors.bytes": int(c["checkpoint.load_tensors.bytes"]),
            "cnn.encode_cnn.calls": calls("cnn.encode_cnn"),
            "cnn.encode_cnn.s": busy("cnn.encode_cnn"),
        })
        return m
