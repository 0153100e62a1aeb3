"""Command-line entry point.

Subcommands: gen-corpus | train | eval | predict | stats. Every option can
also come from a plain key=value config file (``--config``); command-line
flags win. Each run emits a resolved-config dump listing every option,
defaults included, so the run is reproducible from the dump alone.

Exit codes: 0 success, 2 usage error, 1 runtime failure.
"""

import argparse
import os
import sys

from .cnn import CnnConfig, build_word_vocab
from .corpus import (LabelSet, SyntheticSpec, format_cdf, generate_synthetic,
                     load_corpus, load_notes, restrict_to_labels,
                     token_length_cdf)
from .metrics import format_report_kv, format_report_table
from .model import CodingModel, new_model
from .tokenizer import Vocab, tokenize
from .training import TrainConfig, evaluate_model, prepare_examples, train_loop
from .transformer import EncoderConfig

RESOLVED_NAME = "config.resolved.txt"


class UsageError(Exception):
    pass


# One {option: default} table per subcommand. Each key is a config-file key
# and, with "_" spelled "-", a --flag; the default's type (int, float,
# otherwise str) parses both.
OPTIONS = {
    "gen-corpus": {
        "out_dir": None, "num_codes": 20, "vocab_size": 500,
        "doc_len_min": 256, "doc_len_max": 256, "evidence_per_code": 1,
        "place_min": 0, "place_max": 254, "codes_min": 1, "codes_max": 3,
        "train_notes": 2000, "val_notes": 200, "test_notes": 200, "seed": 0,
    },
    "train": {
        "corpus": None, "val": None, "codes": None, "vocab": None, "out_dir": None,
        "encoder": "transformer", "seg_len": 512, "max_seq_len": 512,
        "hidden": 256, "blocks": 2, "heads": 4, "intermediate": 1024,
        "cnn_embed": 100, "cnn_filters": 256, "cnn_kernel": 9, "cnn_max_words": 2500,
        "lr": 2e-4, "batch_size": 4, "max_steps": 1000, "eval_every": 100, "seed": 0,
    },
    "eval": {
        "checkpoint": None, "test": None, "val": None, "codes": None,
        "threshold": -1.0,
    },
    "predict": {
        "checkpoint": None, "text": None, "file": None, "top_n": 10,
    },
    "stats": {
        "corpus": None, "vocab": None, "out": None,
    },
}


def option_type(default):
    return str if default is None else type(default)


def parse_config_file(path):
    opts = {}
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key=value")
            k, v = line.split("=", 1)
            opts[k.strip().replace("-", "_")] = v.strip()
    return opts


def resolve_options(args, defaults):
    """Layer defaults < config file < explicit flags."""
    resolved = dict(defaults)
    if getattr(args, "config", None):
        if not os.path.isfile(args.config):
            raise UsageError(f"--config: no such file: {args.config}")
        for k, raw in parse_config_file(args.config).items():
            if k not in resolved:
                raise UsageError(f"unknown config key {k!r}")
            try:
                resolved[k] = option_type(defaults[k])(raw)
            except ValueError:
                raise UsageError(f"config key {k!r}: cannot parse {raw!r}") from None
    for k in resolved:
        v = getattr(args, k, None)
        if v is not None:
            resolved[k] = v
    return resolved


def emit_resolved(resolved, command, out_dir=None):
    lines = [f"command={command}"]
    lines += [f"{k}={resolved[k]}" for k in sorted(resolved)]
    text = "\n".join(lines) + "\n"
    sys.stderr.write(text)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, RESOLVED_NAME), "w", encoding="utf-8") as f:
            f.write(text)


def _require(resolved, key, flag):
    v = resolved.get(key)
    if not v:
        raise UsageError(f"{flag} is required")
    return v


def _require_file(resolved, key, flag):
    path = _require(resolved, key, flag)
    if not os.path.isfile(path):
        raise UsageError(f"{flag}: no such file: {path}")
    return path


def _require_dir(resolved, key, flag):
    path = _require(resolved, key, flag)
    if not os.path.isdir(path):
        raise UsageError(f"{flag}: no such directory: {path}")
    return path


def cmd_gen_corpus(opt):
    out_dir = _require(opt, "out_dir", "--out-dir")
    spec = SyntheticSpec(
        num_codes=opt["num_codes"], vocab_size=opt["vocab_size"],
        doc_len=(opt["doc_len_min"], opt["doc_len_max"]),
        evidence_per_code=opt["evidence_per_code"],
        placement=(opt["place_min"], opt["place_max"]),
        codes_per_note=(opt["codes_min"], opt["codes_max"]),
        seed=opt["seed"], n_train=opt["train_notes"], n_val=opt["val_notes"],
        n_test=opt["test_notes"],
    )
    try:
        spec.validate()
    except ValueError as e:
        raise UsageError(str(e)) from None
    emit_resolved(opt, "gen-corpus", out_dir)
    paths = generate_synthetic(spec, out_dir)
    for name in ("train", "val", "test", "codes", "vocab"):
        print(f"{name}={paths[name]}")
    return 0


def _build_model(opt, train_notes, label_set):
    kind = opt["encoder"]
    if kind == "transformer":
        vocab = Vocab.from_file(_require_file(opt, "vocab", "--vocab"))
        config_cls, fields = EncoderConfig, dict(
            num_blocks=opt["blocks"], hidden=opt["hidden"], heads=opt["heads"],
            intermediate=opt["intermediate"], vocab_size=len(vocab),
            max_positions=opt["seg_len"], seg_len=opt["seg_len"], include_pooler=False,
        )
    elif kind == "cnn":
        if opt["vocab"]:
            vocab = Vocab.from_file(_require_file(opt, "vocab", "--vocab"))
        else:
            vocab = build_word_vocab(n.text for n in train_notes)
        config_cls, fields = CnnConfig, dict(
            embed_dim=opt["cnn_embed"], filters=opt["cnn_filters"],
            kernel=opt["cnn_kernel"], max_words=opt["cnn_max_words"],
            vocab_size=len(vocab),
        )
    else:
        raise UsageError(f"--encoder must be transformer or cnn, got {kind!r}")
    try:
        cfg = config_cls(**fields)
    except ValueError as e:  # an encoder shape these flags cannot build
        raise UsageError(str(e)) from None
    return new_model(kind, cfg, vocab, label_set, s_max=opt["max_seq_len"],
                     seed=opt["seed"])


def cmd_train(opt):
    corpus_path = _require_file(opt, "corpus", "--corpus")
    val_path = _require_file(opt, "val", "--val")
    out_dir = _require(opt, "out_dir", "--out-dir")
    if opt["codes"]:
        _require_file(opt, "codes", "--codes")
    if opt["vocab"]:
        _require_file(opt, "vocab", "--vocab")

    label_set = LabelSet.from_file(opt["codes"]) if opt["codes"] else None
    train_notes, label_set = load_corpus(corpus_path, label_set)
    if not train_notes:
        raise ValueError(f"training corpus {corpus_path} is empty")
    val_notes, _ = load_corpus(val_path, label_set)
    val_notes, dropped = restrict_to_labels(val_notes, label_set)
    if dropped:
        sys.stderr.write(f"ignored {dropped} validation code instances "
                         f"outside the label set\n")

    tc = TrainConfig(lr=opt["lr"], batch_size=opt["batch_size"],
                     max_steps=opt["max_steps"], eval_every=opt["eval_every"],
                     max_seq_len=opt["max_seq_len"], seed=opt["seed"])
    try:
        tc.validate()
    except ValueError as e:
        raise UsageError(str(e)) from None
    model = _build_model(opt, train_notes, label_set)
    emit_resolved(opt, "train", out_dir)
    result = train_loop(model, train_notes, val_notes, tc, out_dir)
    print(f"best_step={result.best_step}")
    print(f"best_val_micro_f1={result.best_val_f1:.6f}")
    print(f"best_threshold={result.best_threshold:.2f}")
    print(f"best_checkpoint={result.best_dir}")
    print(f"metrics_log={result.log_path}")
    return 0


def _load_examples(model, path, what):
    notes, _ = load_corpus(path, model.label_set)
    notes, dropped = restrict_to_labels(notes, model.label_set)
    if dropped:
        sys.stderr.write(f"ignored {dropped} {what} code instances "
                         f"outside the label set\n")
    if not notes:
        raise ValueError(f"{what} corpus {path} is empty")
    return prepare_examples(model, notes)


def cmd_eval(opt):
    ckpt = _require_dir(opt, "checkpoint", "--checkpoint")
    test_path = _require_file(opt, "test", "--test")
    emit_resolved(opt, "eval")
    model = CodingModel.load(ckpt)
    if opt["codes"]:
        given = LabelSet.from_file(_require_file(opt, "codes", "--codes"))
        if given.codes != model.label_set.codes:
            extra = [c for c in given.codes if c not in model.label_set]
            missing = [c for c in model.label_set.codes if c not in given]
            first = (f"--codes lists {extra[0]!r}, which the checkpoint lacks" if extra
                     else f"the checkpoint has {missing[0]!r}, which --codes lacks")
            raise ValueError(
                f"label-space mismatch: --codes has K={len(given)}, "
                f"checkpoint has K={model.num_classes}; {first}")
    threshold = opt["threshold"]
    if threshold == OPTIONS["eval"]["threshold"]:  # unset: search on --val
        if not opt["val"]:
            raise UsageError("--val is required unless --threshold is given")
        val_ex = _load_examples(model, _require_file(opt, "val", "--val"), "validation")
        threshold = evaluate_model(model, val_ex).threshold
    elif not 0.0 <= threshold <= 1.0:
        raise UsageError(f"--threshold must be in [0,1], got {threshold}")
    test_ex = _load_examples(model, test_path, "test")
    report = evaluate_model(model, test_ex, threshold=threshold)
    sys.stdout.write(format_report_kv(report))
    sys.stdout.write("\n" + format_report_table(report))
    return 0


def cmd_predict(opt):
    ckpt = _require_dir(opt, "checkpoint", "--checkpoint")
    emit_resolved(opt, "predict")
    if opt["file"] and opt["text"]:
        raise UsageError("pass either --text or --file, not both")
    if opt["file"]:
        with open(_require_file(opt, "file", "--file"), encoding="utf-8") as f:
            text = f.read()
    else:
        text = opt["text"] or ""
    if not text.strip():
        raise UsageError("empty input text; pass --text or --file")
    top_n = opt["top_n"]
    if top_n < 1:
        raise UsageError(f"--top-n must be >= 1, got {top_n}")
    model = CodingModel.load(ckpt)
    for code, prob in model.rank_codes(text, top_n=top_n):
        print(f"{code}\t{prob:.6f}")
    return 0


def cmd_stats(opt):
    corpus_path = _require_file(opt, "corpus", "--corpus")
    emit_resolved(opt, "stats")
    notes = load_notes(corpus_path)
    if opt["vocab"]:
        vocab = Vocab.from_file(_require_file(opt, "vocab", "--vocab"))
        counter = lambda text: tokenize(text, vocab).s
    else:
        counter = lambda text: len(text.split())
    cdf = token_length_cdf(notes, counter)
    text = format_cdf(cdf)
    if opt["out"]:
        with open(opt["out"], "w", encoding="utf-8") as f:
            f.write(text)
        print(f"wrote {opt['out']}")
    else:
        sys.stdout.write(text)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="segcoder",
        description="Segmented long-document encoder with per-class label "
                    "attention for multi-label code assignment.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, help_text in (
            ("gen-corpus", cmd_gen_corpus, "write a synthetic planted-evidence corpus"),
            ("train", cmd_train, "train a model and keep the best checkpoint"),
            ("eval", cmd_eval, "evaluate a checkpoint on a test corpus"),
            ("predict", cmd_predict, "rank codes for one note"),
            ("stats", cmd_stats, "token-length CDF of a corpus")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="key=value config file; flags override")
        for key, default in OPTIONS[name].items():
            p.add_argument("--" + key.replace("_", "-"), type=option_type(default))
        p.set_defaults(func=func)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(resolve_options(args, OPTIONS[args.command]))
    except UsageError as e:
        sys.stderr.write(f"error: {e}\n")
        return 2
    except (OSError, ValueError, RuntimeError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
