"""End-to-end coding model: tokenizer + document encoder + per-class
attention head, with directory-based save/load.

Two encoder kinds share the identical head and downstream pipeline:
``transformer`` (subword ids, segmented long-document encoding) and ``cnn``
(whole-word ids, single same-padded convolution).
"""

import dataclasses
import json
import os

import numpy as np

from . import checkpoint
from .cnn import CnnConfig, CnnParams, encode_cnn, word_ids
from .corpus import LabelSet
from .label_attention import LabelHeadParams, predict
from .segments import encode_long, plan_segments
from .tensor import concat_rows, no_grad, reshape
from .tokenizer import Vocab, tokenize, truncate
from .transformer import EncoderConfig, EncoderParams, encode_segment

CONFIG_NAME = "config.json"
VOCAB_NAME = "vocab.txt"
CODES_NAME = "codes.txt"
KINDS = ("transformer", "cnn")


class CodingModel:
    def __init__(self, kind, enc_config, enc_params, head, vocab, label_set, s_max):
        if kind not in KINDS:
            raise ValueError(f"encoder kind must be one of {KINDS}, got {kind!r}")
        if s_max < 1:
            raise ValueError(f"s_max must be >= 1, got {s_max}")
        self.kind = kind
        self.enc_config = enc_config
        self.enc_params = enc_params
        self.head = head
        self.vocab = vocab
        self.label_set = label_set
        self.s_max = int(s_max)

    @property
    def num_classes(self):
        return len(self.label_set)

    def named_parameters(self):
        return list(self.enc_params.named()) + list(self.head.named())

    def parameters(self):
        return [t for _, t in self.named_parameters()]

    def token_sequence(self, text):
        """Tokenize under the encoder's own scheme (subword vs word) and
        truncate to the model's input length: the one place notes are cut."""
        if self.kind == "transformer":
            return truncate(tokenize(text, self.vocab), self.s_max)
        return truncate(word_ids(text, self.vocab),
                        min(self.s_max, self.enc_config.max_words))

    def probs(self, seqs):
        """Per-class probabilities, Tensor[B, K], one row per token sequence.

        Each note is encoded and scored on its own (one ``encode_long`` or
        ``encode_cnn`` call and one ``predict`` call per note); the rows are
        joined into one matrix.
        """
        if not seqs:
            raise ValueError("no token sequences to score")
        cfg = self.enc_config

        def enc(ids, pad_mask):
            return encode_segment(self.enc_params, cfg, ids, pad_mask)

        rows = []
        for seq in seqs:
            if seq.s == 0:
                raise ValueError("cannot encode an empty token sequence")
            if self.kind == "transformer":
                hidden = encode_long(enc, seq, plan_segments(seq.s, cfg.seg_len))
            else:
                hidden = encode_cnn(self.enc_params, cfg, seq.ids)
            rows.append(predict(hidden, self.head))
        return reshape(concat_rows(rows), (len(rows), self.num_classes))

    def rank_codes(self, text, top_n=None):
        """(code, probability) pairs sorted by descending probability."""
        with no_grad():
            probs = self.probs([self.token_sequence(text)]).data[0].astype(np.float64)
        order = np.argsort(-probs, kind="stable")
        if top_n is not None:
            order = order[:top_n]
        codes = self.label_set.codes
        return list(zip([codes[i] for i in order.tolist()], probs[order].tolist()))

    def save(self, directory):
        os.makedirs(directory, exist_ok=True)
        cfg = {
            "kind": self.kind,
            "s_max": self.s_max,
            "encoder": dataclasses.asdict(self.enc_config),
        }
        with open(os.path.join(directory, CONFIG_NAME), "w", encoding="utf-8") as f:
            json.dump(cfg, f, indent=2, sort_keys=True)
            f.write("\n")
        self.vocab.save(os.path.join(directory, VOCAB_NAME))
        self.label_set.save(os.path.join(directory, CODES_NAME))
        checkpoint.save_tensors(directory, [(n, t.data) for n, t in self.named_parameters()])

    @classmethod
    def load(cls, directory):
        """The model saved in ``directory``. Its parameters are views of the
        checkpoint's one blob buffer; nothing is drawn at random."""
        kind, enc_config, s_max = _read_config(os.path.join(directory, CONFIG_NAME))
        vocab = Vocab.from_file(os.path.join(directory, VOCAB_NAME))
        label_set = LabelSet.from_file(os.path.join(directory, CODES_NAME))
        model = _build(kind, enc_config, vocab, label_set, s_max, rng=None)
        arrays = checkpoint.load_tensors(directory)
        named = dict(model.named_parameters())
        if set(arrays) != set(named):
            missing = sorted(set(named) - set(arrays))
            extra = sorted(set(arrays) - set(named))
            raise ValueError(f"checkpoint mismatch: missing={missing} extra={extra}")
        for name, arr in arrays.items():
            t = named[name]
            if arr.shape != t.data.shape:
                raise ValueError(f"{name}: stored shape {arr.shape} != expected {t.data.shape}")
            t.data = arr
        return model


def _read_config(path):
    """``(kind, encoder config, s_max)`` from a saved config.json. Every
    fault raises ValueError naming the file and the field. Checkpoints from
    before overlapping windows were removed hold ``"stride": 0``, which is
    accepted; a nonzero or true stride asks for overlapping windows and any
    other value is a type fault, so both are refused."""
    with open(path, encoding="utf-8") as f:
        try:
            cfg = json.load(f)
        except json.JSONDecodeError as e:
            raise ValueError(f"{path}: {e}") from e
    _check_fields(path, "", cfg, {"kind": "", "s_max": 1, "encoder": {}}, optional=("stride",))
    stride = cfg.get("stride", 0)
    if type(stride) in (int, bool) and stride:
        raise ValueError(f"{path}: stride {stride!r}: overlapping windows are "
                         f"no longer supported; only disjoint windows (stride 0) load")
    if type(stride) is not int:
        raise ValueError(f"{path}: field 'stride': expected int, got {stride!r}")
    kind, s_max = cfg["kind"], cfg["s_max"]
    if kind not in KINDS:
        raise ValueError(f"{path}: encoder kind must be one of {KINDS}, got {kind!r}")
    if s_max < 1:
        raise ValueError(f"{path}: field 's_max' must be >= 1, got {s_max}")
    config_cls = EncoderConfig if kind == "transformer" else CnnConfig
    _check_fields(path, "encoder ", cfg["encoder"],
                  {f.name: f.default for f in dataclasses.fields(config_cls)})
    try:
        return kind, config_cls(**cfg["encoder"]), s_max
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from e


def _check_fields(path, what, obj, expected, optional=()):
    """``obj`` holds each key of ``expected`` with the type of its value
    there (an int is never a bool or a float), and no other key outside
    ``optional``."""
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: expected a JSON object of {what}fields, got {obj!r}")
    for fault, names in (("missing", [n for n in expected if n not in obj]),
                         ("unknown", sorted(set(obj) - set(expected) - set(optional)))):
        if names:
            raise ValueError(f"{path}: {fault} {what}field(s) {', '.join(map(repr, names))}")
    for name, like in expected.items():
        if type(obj[name]) is not type(like):
            raise ValueError(f"{path}: {what}field {name!r}: expected "
                             f"{type(like).__name__}, got {obj[name]!r}")


def new_model(kind, enc_config, vocab, label_set, s_max, seed=0):
    """Freshly initialized model; all weights drawn from one seeded stream."""
    return _build(kind, enc_config, vocab, label_set, s_max, np.random.default_rng(seed))


def _build(kind, enc_config, vocab, label_set, s_max, rng):
    """A model whose weights come from ``rng``, or are left uninitialised
    for a checkpoint to fill when ``rng`` is None."""
    if len(label_set) == 0:
        raise ValueError("label set is empty; training needs at least one code")
    if kind == "transformer":
        if len(vocab) != enc_config.vocab_size:
            enc_config = dataclasses.replace(enc_config, vocab_size=len(vocab))
        enc_params = EncoderParams(enc_config, rng)
        hidden = enc_config.hidden
    elif kind == "cnn":
        if enc_config.vocab_size != len(vocab):
            enc_config = dataclasses.replace(enc_config, vocab_size=len(vocab))
        enc_params = CnnParams(enc_config, rng)
        hidden = enc_config.filters
    else:
        raise ValueError(f"encoder kind must be one of {KINDS}, got {kind!r}")
    head = LabelHeadParams(len(label_set), hidden, rng)
    return CodingModel(kind, enc_config, enc_params, head, vocab, label_set, s_max=s_max)
