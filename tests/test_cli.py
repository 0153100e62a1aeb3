"""Command-line interface: subcommands, exit codes, config layering."""

import ast
import json
import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import segcoder
import segcoder.cli as cli
from segcoder.cli import (OPTIONS, RESOLVED_NAME, build_parser, emit_resolved,
                          main, option_type, parse_config_file, resolve_options)
from segcoder.corpus import format_cdf, load_notes, token_length_cdf
from segcoder.tokenizer import Vocab, tokenize


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    rc = main([
        "gen-corpus", "--out-dir", str(out), "--num-codes", "4",
        "--vocab-size", "30", "--doc-len-min", "20", "--doc-len-max", "24",
        "--place-min", "0", "--place-max", "16", "--codes-min", "1",
        "--codes-max", "2", "--train-notes", "12", "--val-notes", "6",
        "--test-notes", "6", "--seed", "0",
    ])
    assert rc == 0
    return out


TINY_TRAIN_FLAGS = [
    "--seg-len", "8", "--max-positions", "8", "--max-seq-len", "16",
    "--hidden", "16", "--blocks", "1", "--heads", "2", "--intermediate", "32",
    "--batch-size", "2", "--max-steps", "4", "--eval-every", "2",
]


@pytest.fixture(scope="module")
def checkpoint_dir(corpus_dir, tmp_path_factory):
    run = tmp_path_factory.mktemp("run")
    rc = main([
        "train", "--corpus", str(corpus_dir / "train.jsonl"),
        "--val", str(corpus_dir / "val.jsonl"),
        "--codes", str(corpus_dir / "codes.txt"),
        "--vocab", str(corpus_dir / "vocab.txt"),
        "--out-dir", str(run), *TINY_TRAIN_FLAGS,
    ])
    assert rc == 0
    return run / "best"


class TestGenCorpus:
    def test_writes_all_files_and_resolved_dump(self, corpus_dir):
        for name in ("train.jsonl", "val.jsonl", "test.jsonl",
                     "codes.txt", "vocab.txt", RESOLVED_NAME):
            assert (corpus_dir / name).is_file(), name

    def test_prints_paths(self, corpus_dir, tmp_path, capsys):
        rc = main(["gen-corpus", "--out-dir", str(tmp_path), "--num-codes", "2",
                   "--vocab-size", "20", "--doc-len-min", "10",
                   "--doc-len-max", "10", "--place-max", "8",
                   "--codes-max", "1", "--train-notes", "2",
                   "--val-notes", "1", "--test-notes", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        for key in ("train=", "val=", "test=", "codes=", "vocab="):
            assert key in out

    def test_missing_out_dir_is_usage_error(self, capsys):
        rc = main(["gen-corpus", "--num-codes", "2"])
        assert rc == 2
        assert "--out-dir" in capsys.readouterr().err

    def test_infeasible_spec_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "gc_out"
        rc = main(["gen-corpus", "--out-dir", str(out),
                   "--doc-len-min", "10", "--doc-len-max", "10",
                   "--place-max", "30"])
        assert rc == 2
        assert "placement" in capsys.readouterr().err
        assert not out.exists()

    def test_resolved_dump_lists_every_option(self, corpus_dir):
        text = (corpus_dir / RESOLVED_NAME).read_text()
        assert text.startswith("command=gen-corpus\n")
        for key in ("num_codes=4", "seed=0", "vocab_size=30"):
            assert key in text


class TestTrain:
    def test_reports_best_checkpoint(self, corpus_dir, tmp_path, capsys):
        rc = main([
            "train", "--corpus", str(corpus_dir / "train.jsonl"),
            "--val", str(corpus_dir / "val.jsonl"),
            "--vocab", str(corpus_dir / "vocab.txt"),
            "--out-dir", str(tmp_path), *TINY_TRAIN_FLAGS,
        ])
        assert rc == 0
        out = capsys.readouterr().out
        for key in ("best_step=", "best_val_micro_f1=", "best_threshold=",
                    "best_checkpoint=", "metrics_log="):
            assert key in out
        assert (tmp_path / "best").is_dir()
        assert (tmp_path / "latest").is_dir()
        assert (tmp_path / "metrics.tsv").is_file()
        assert (tmp_path / RESOLVED_NAME).is_file()

    def test_missing_corpus_flag(self, capsys):
        rc = main(["train", "--val", "x", "--out-dir", "y"])
        assert rc == 2
        assert "--corpus" in capsys.readouterr().err

    def test_nonexistent_corpus_file(self, tmp_path, capsys):
        rc = main(["train", "--corpus", str(tmp_path / "nope.jsonl"),
                   "--val", "x", "--out-dir", str(tmp_path)])
        assert rc == 2
        assert "no such file" in capsys.readouterr().err

    def test_cnn_encoder_builds_word_vocab(self, corpus_dir, tmp_path, capsys):
        rc = main([
            "train", "--encoder", "cnn",
            "--corpus", str(corpus_dir / "train.jsonl"),
            "--val", str(corpus_dir / "val.jsonl"),
            "--out-dir", str(tmp_path),
            "--cnn-embed", "8", "--cnn-filters", "16", "--cnn-kernel", "3",
            "--max-seq-len", "16", "--batch-size", "2",
            "--max-steps", "2", "--eval-every", "2",
        ])
        assert rc == 0
        assert "best_checkpoint=" in capsys.readouterr().out

    def test_invalid_train_config_is_usage_error(self, corpus_dir, tmp_path, capsys):
        rc = main([
            "train", "--corpus", str(corpus_dir / "train.jsonl"),
            "--val", str(corpus_dir / "val.jsonl"),
            "--vocab", str(corpus_dir / "vocab.txt"),
            "--out-dir", str(tmp_path), "--max-steps", "2", "--eval-every", "5",
        ])
        assert rc == 2

    @pytest.mark.parametrize("lr", ["nan", "-1.0"])
    def test_bad_lr_is_usage_error(self, corpus_dir, tmp_path, capsys, lr):
        rc = main([
            "train", "--corpus", str(corpus_dir / "train.jsonl"),
            "--val", str(corpus_dir / "val.jsonl"),
            "--vocab", str(corpus_dir / "vocab.txt"),
            "--out-dir", str(tmp_path), "--max-steps", "2", "--eval-every", "2",
            "--lr", lr,
        ])
        assert rc == 2
        assert "lr must be finite and > 0" in capsys.readouterr().err
        assert not (tmp_path / "metrics.tsv").exists()

    def test_code_outside_codes_file_names_note(self, corpus_dir, tmp_path, capsys):
        train = (corpus_dir / "train.jsonl").read_text()
        assert '"C0003"' in train
        codes3 = tmp_path / "codes3.txt"
        codes3.write_text("C0000\nC0001\nC0002\n")
        rc = main([
            "train", "--corpus", str(corpus_dir / "train.jsonl"),
            "--val", str(corpus_dir / "val.jsonl"), "--codes", str(codes3),
            "--vocab", str(corpus_dir / "vocab.txt"),
            "--out-dir", str(tmp_path / "run"), *TINY_TRAIN_FLAGS,
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error: note " in err and "'C0003'" in err and "K=3" in err

    @pytest.mark.parametrize("flags, named", [
        (["--hidden", "30", "--heads", "4"], "hidden 30 not divisible by heads 4"),
        (["--seg-len", "16", "--max-positions", "8"], "seg_len 16 exceeds max_positions 8"),
        (["--seg-len", "0"], "got hidden 16, heads 2, seg_len 0"),
        (["--heads", "0"], "got hidden 16, heads 0, seg_len 8"),
        (["--hidden", "0"], "got hidden 0, heads 2, seg_len 8"),
        (["--encoder", "cnn", "--cnn-filters", "0"], "must be >= 1, got 100, 0, 2500"),
        (["--encoder", "cnn", "--cnn-kernel", "4"], "kernel width must be odd"),
        (["--max-seq-len", "0"], "max_seq_len must be >= 1, got 0"),
    ], ids=["hidden-not-divisible", "seg-len-past-positions", "seg-len-zero", "heads-zero",
            "hidden-zero", "cnn-filters-zero", "cnn-kernel-even", "max-seq-len-zero"])
    def test_unbuildable_encoder_is_usage_error(self, corpus_dir, tmp_path, capsys,
                                                flags, named):
        rc = main([
            "train", "--corpus", str(corpus_dir / "train.jsonl"),
            "--val", str(corpus_dir / "val.jsonl"),
            "--vocab", str(corpus_dir / "vocab.txt"),
            "--out-dir", str(tmp_path / "run"), *TINY_TRAIN_FLAGS, *flags,
        ])
        assert rc == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_unknown_encoder_writes_nothing(self, corpus_dir, tmp_path, capsys, source):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("encoder = rnn\n")
        chosen = ["--encoder", "rnn"] if source == "flag" else ["--config", str(cfg)]
        rc = main([
            "train", "--corpus", str(corpus_dir / "train.jsonl"),
            "--val", str(corpus_dir / "val.jsonl"),
            "--vocab", str(corpus_dir / "vocab.txt"),
            "--out-dir", str(tmp_path / "run"), *chosen, *TINY_TRAIN_FLAGS,
        ])
        assert rc == 2
        assert "--encoder" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()


class TestEval:
    def test_fixed_threshold(self, corpus_dir, checkpoint_dir, capsys):
        rc = main(["eval", "--checkpoint", str(checkpoint_dir),
                   "--test", str(corpus_dir / "test.jsonl"),
                   "--threshold", "0.5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "threshold=0.50" in out
        assert "micro_f1=" in out
        assert "PR-AUC" in out  # human table follows the kv block

    def test_grid_search_via_val(self, corpus_dir, checkpoint_dir, capsys):
        rc = main(["eval", "--checkpoint", str(checkpoint_dir),
                   "--test", str(corpus_dir / "test.jsonl"),
                   "--val", str(corpus_dir / "val.jsonl")])
        assert rc == 0
        assert "micro_f1=" in capsys.readouterr().out

    def test_threshold_or_val_required(self, corpus_dir, checkpoint_dir, capsys):
        rc = main(["eval", "--checkpoint", str(checkpoint_dir),
                   "--test", str(corpus_dir / "test.jsonl")])
        assert rc == 2
        assert "--val" in capsys.readouterr().err

    @pytest.mark.parametrize("threshold", ["1.5", "-0.5"])
    def test_threshold_out_of_range(self, corpus_dir, checkpoint_dir, capsys, threshold):
        # only the unset default (-1) searches on --val; -0.5 must not
        rc = main(["eval", "--checkpoint", str(checkpoint_dir),
                   "--test", str(corpus_dir / "test.jsonl"),
                   "--val", str(corpus_dir / "val.jsonl"),
                   "--threshold", threshold])
        assert rc == 2
        assert f"got {float(threshold)}" in capsys.readouterr().err

    def test_label_space_mismatch_names_both(self, corpus_dir, checkpoint_dir,
                                             tmp_path, capsys):
        bad_codes = tmp_path / "codes.txt"
        bad_codes.write_text("C0000\nC0001\n")
        rc = main(["eval", "--checkpoint", str(checkpoint_dir),
                   "--test", str(corpus_dir / "test.jsonl"),
                   "--threshold", "0.5", "--codes", str(bad_codes)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "K=2" in err and "K=4" in err

    @pytest.mark.parametrize("codes,named", [
        ("X1\nX2\nX3\nX4\n", "--codes lists 'X1', which the checkpoint lacks"),
        ("C0000\nC0001\nC0002\n", "the checkpoint has 'C0003', which --codes lacks"),
    ], ids=["same-k", "fewer-codes"])
    def test_label_space_mismatch_names_first_differing_code(
            self, corpus_dir, checkpoint_dir, tmp_path, capsys, codes, named):
        other_codes = tmp_path / "codes.txt"
        other_codes.write_text(codes)
        rc = main(["eval", "--checkpoint", str(checkpoint_dir),
                   "--test", str(corpus_dir / "test.jsonl"),
                   "--threshold", "0.5", "--codes", str(other_codes)])
        assert rc == 1
        assert named in capsys.readouterr().err

    def test_matching_codes_file_accepted(self, corpus_dir, checkpoint_dir):
        rc = main(["eval", "--checkpoint", str(checkpoint_dir),
                   "--test", str(corpus_dir / "test.jsonl"), "--threshold", "0.5",
                   "--codes", str(corpus_dir / "codes.txt")])
        assert rc == 0

    def test_missing_checkpoint_dir(self, corpus_dir, tmp_path, capsys):
        rc = main(["eval", "--checkpoint", str(tmp_path / "none"),
                   "--test", str(corpus_dir / "test.jsonl"),
                   "--threshold", "0.5"])
        assert rc == 2


class TestPredict:
    def test_ranks_codes(self, checkpoint_dir, capsys):
        rc = main(["predict", "--checkpoint", str(checkpoint_dir),
                   "--text", "w00001 w00002 ev00000a ev00000b"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 4  # K=4 codes, top_n default 10
        probs = []
        for line in lines:
            code, prob = line.split("\t")
            assert code.startswith("C")
            probs.append(float(prob))
        assert probs == sorted(probs, reverse=True)

    def test_top_n_limits_output(self, checkpoint_dir, capsys):
        rc = main(["predict", "--checkpoint", str(checkpoint_dir),
                   "--text", "w00001", "--top-n", "2"])
        assert rc == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 2

    def test_file_input(self, checkpoint_dir, tmp_path, capsys):
        note = tmp_path / "note.txt"
        note.write_text("w00003 w00004 w00005")
        rc = main(["predict", "--checkpoint", str(checkpoint_dir),
                   "--file", str(note)])
        assert rc == 0
        assert capsys.readouterr().out.strip()

    def test_empty_text_is_usage_error(self, checkpoint_dir, capsys):
        rc = main(["predict", "--checkpoint", str(checkpoint_dir),
                   "--text", "   "])
        assert rc == 2
        assert "empty" in capsys.readouterr().err

    def test_text_and_file_together_is_usage_error(self, checkpoint_dir, tmp_path,
                                                   capsys):
        note = tmp_path / "note.txt"
        note.write_text("w00003 w00004 w00005")
        rc = main(["predict", "--checkpoint", str(checkpoint_dir),
                   "--text", "w00001", "--file", str(note)])
        assert rc == 2
        assert capsys.readouterr().err.splitlines()[-1] == \
            "error: pass either --text or --file, not both"

    def test_bad_top_n(self, checkpoint_dir, capsys):
        rc = main(["predict", "--checkpoint", str(checkpoint_dir),
                   "--text", "w00001", "--top-n", "0"])
        assert rc == 2

    def test_bad_top_n_checked_before_checkpoint_is_read(self, tmp_path, capsys):
        rc = main(["predict", "--checkpoint", str(tmp_path), "--text", "hi",
                   "--top-n", "0"])
        assert rc == 2
        assert "--top-n must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, named", [
        (lambda cfg: cfg["encoder"].update(extra_field=1),
         "unknown encoder field(s) 'extra_field'"),
        (lambda cfg: cfg.pop("kind"), "missing field(s) 'kind'"),
        (lambda cfg: cfg.update(kind="rnn"), "got 'rnn'"),
        (lambda cfg: cfg["encoder"].update(heads=3), "not divisible by heads 3"),
        (lambda cfg: cfg.update(s_max=-5), "field 's_max' must be >= 1, got -5"),
        (lambda cfg: cfg.update(s_max=0), "field 's_max' must be >= 1, got 0"),
        (lambda cfg: cfg.update(s_max=3.7), "field 's_max': expected int, got 3.7"),
        (lambda cfg: cfg.update(s_max=True), "field 's_max': expected int, got True"),
        (lambda cfg: cfg.update(s_max="12"), "field 's_max': expected int, got '12'"),
        (lambda cfg: cfg["encoder"].update(hidden=8.0),
         "encoder field 'hidden': expected int, got 8.0"),
        (lambda cfg: cfg["encoder"].update(heads=True),
         "encoder field 'heads': expected int, got True"),
        (lambda cfg: cfg["encoder"].update(include_pooler="no"),
         "encoder field 'include_pooler': expected bool, got 'no'"),
    ], ids=["extra-key", "missing-key", "unknown-kind", "invalid-value",
            "s_max-negative", "s_max-zero", "s_max-float", "s_max-bool", "s_max-string",
            "hidden-float", "heads-bool", "include_pooler-string"])
    def test_config_fault_is_located(self, checkpoint_dir, tmp_path, capsys,
                                     edit, named):
        ckpt = tmp_path / "ckpt"
        shutil.copytree(checkpoint_dir, ckpt)
        path = ckpt / "config.json"
        cfg = json.loads(path.read_text())
        edit(cfg)
        path.write_text(json.dumps(cfg))
        rc = main(["predict", "--checkpoint", str(ckpt), "--text", "w00001"])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()[-1]
        assert err.startswith(f"error: {path}: ") and named in err


class TestStats:
    def test_whitespace_counts(self, corpus_dir, capsys):
        rc = main(["stats", "--corpus", str(corpus_dir / "train.jsonl")])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines
        fracs = []
        for line in lines:
            length, frac = line.split("\t")
            assert 20 <= int(length) <= 24
            fracs.append(float(frac))
        assert fracs == sorted(fracs)
        assert fracs[-1] == pytest.approx(1.0)

    def test_wordpiece_counts_with_vocab(self, corpus_dir, capsys):
        rc = main(["stats", "--corpus", str(corpus_dir / "train.jsonl"),
                   "--vocab", str(corpus_dir / "vocab.txt")])
        assert rc == 0
        vocab = Vocab.from_file(corpus_dir / "vocab.txt")
        notes = load_notes(corpus_dir / "train.jsonl")
        want = format_cdf(token_length_cdf(notes, lambda t: tokenize(t, vocab).s))
        assert capsys.readouterr().out == want

    def test_out_file(self, corpus_dir, tmp_path, capsys):
        dest = tmp_path / "cdf.tsv"
        rc = main(["stats", "--corpus", str(corpus_dir / "train.jsonl"),
                   "--out", str(dest)])
        assert rc == 0
        assert dest.is_file()
        assert "wrote" in capsys.readouterr().out


class TestConfigFile:
    def test_file_values_then_flag_override(self, corpus_dir, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# комментарий and blank lines are fine\n"
            "\n"
            "num-codes = 3\n"
            "vocab-size = 25   # inline comment\n"
            "doc-len-min = 12\n"
            "doc-len-max = 12\n"
            "place-max = 10\n"
            "codes-max = 2\n"
            "train-notes = 2\n"
            "val-notes = 1\n"
            "test-notes = 1\n")
        out = tmp_path / "c"
        rc = main(["gen-corpus", "--config", str(cfg), "--out-dir", str(out),
                   "--num-codes", "5"])  # flag beats file
        assert rc == 0
        resolved = (out / RESOLVED_NAME).read_text()
        assert "num_codes=5" in resolved
        assert "vocab_size=25" in resolved

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("learning-rate-warmup = 5\n")
        rc = main(["gen-corpus", "--config", str(cfg), "--out-dir", str(tmp_path)])
        assert rc == 2
        assert "unknown config key" in capsys.readouterr().err

    def test_malformed_line_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("just words\n")
        rc = main(["gen-corpus", "--config", str(cfg), "--out-dir", str(tmp_path)])
        assert rc == 2
        assert "key=value" in capsys.readouterr().err

    def test_unparsable_int_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("num-codes = many\n")
        rc = main(["gen-corpus", "--config", str(cfg), "--out-dir", str(tmp_path)])
        assert rc == 2
        assert "cannot parse" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["gen-corpus", "--config", str(tmp_path / "none.cfg"),
                   "--out-dir", str(tmp_path)])
        assert rc == 2

    def test_parse_config_file_shape(self, tmp_path):
        cfg = tmp_path / "a.cfg"
        cfg.write_text("seg-len=128\nlr = 0.01\n")
        assert parse_config_file(cfg) == {"seg_len": "128", "lr": "0.01"}


class TestOptionTable:
    SAMPLE = {int: "7", float: "0.5", str: "x"}

    @pytest.mark.parametrize("command", sorted(OPTIONS))
    def test_every_option_is_a_flag_a_config_key_and_a_dump_line(
            self, command, tmp_path, capsys):
        parser = build_parser()
        for key, default in OPTIONS[command].items():
            kind = option_type(default)
            raw = self.SAMPLE[kind]
            args = parser.parse_args([command, "--" + key.replace("_", "-"), raw])
            assert getattr(args, key) == kind(raw), key
            assert type(getattr(args, key)) is kind, key

            cfg = tmp_path / f"{key}.cfg"
            cfg.write_text(f"{key}={raw}\n")
            resolved = resolve_options(parser.parse_args([command, "--config", str(cfg)]),
                                       OPTIONS[command])
            assert resolved[key] == kind(raw), key
            assert type(resolved[key]) is kind, key

        emit_resolved(resolve_options(parser.parse_args([command]), OPTIONS[command]),
                      command)
        lines = capsys.readouterr().err.splitlines()
        assert lines[0] == f"command={command}"
        assert sorted(line.split("=", 1)[0] for line in lines[1:]) == sorted(OPTIONS[command])


    def test_every_option_is_read_by_its_command(self):
        # a deleted code path cannot leave a dead flag behind
        tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
        funcs = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
        for command, options in OPTIONS.items():
            read = keys_read(funcs, "cmd_" + command.replace("-", "_"), "opt")
            assert sorted(set(options) - read) == [], command


def keys_read(funcs, name, param, seen=()):
    """Option keys that cli.py's function ``name`` reads from its argument
    ``param``: ``param["key"]``, a key literal passed right after ``param``
    (``_require(opt, "out_dir", ...)``), and the same in every cli.py
    function that ``param`` is handed to, such as ``_build_model``."""
    def is_param(node):
        return isinstance(node, ast.Name) and node.id == param

    keys = set()
    for node in ast.walk(funcs[name]):
        if isinstance(node, ast.Subscript) and is_param(node.value) \
                and isinstance(node.slice, ast.Constant):
            keys.add(node.slice.value)
        if not isinstance(node, ast.Call):
            continue
        for i, arg in enumerate(node.args):
            if not is_param(arg):
                continue
            following = node.args[i + 1:i + 2]
            if following and isinstance(following[0], ast.Constant):
                keys.add(following[0].value)
            callee = getattr(node.func, "id", None)
            if callee in funcs and callee not in seen:
                keys |= keys_read(funcs, callee, funcs[callee].args.args[i].arg,
                                  seen + (callee,))
    return keys


class TestParser:
    def test_unknown_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_no_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


# Imports the CLI, then for each model kind scores a note and makes one
# train step, and prints every scipy module the process has loaded.
_SCORE_AND_TRAIN = textwrap.dedent("""
    import json
    import sys
    import segcoder.cli
    from segcoder.cnn import CnnConfig, build_word_vocab
    from segcoder.corpus import LabelSet, Note
    from segcoder.model import new_model
    from segcoder.optim import init_adam
    from segcoder.tokenizer import PAD_TOKEN, UNK_TOKEN, Vocab
    from segcoder.training import prepare_examples, train_step
    from segcoder.transformer import EncoderConfig

    note = Note("n1", "fever and cough fever cough fever and cough", ["A", "B"])
    for kind in ("cnn", "transformer"):
        if kind == "cnn":
            vocab = build_word_vocab([note.text])
            enc = CnnConfig(embed_dim=4, filters=4, kernel=3, vocab_size=len(vocab))
        else:
            vocab = Vocab([PAD_TOKEN, UNK_TOKEN, "fever", "and", "cough"])
            enc = EncoderConfig(num_blocks=1, hidden=8, heads=2, intermediate=16,
                                vocab_size=len(vocab), max_positions=4, seg_len=4)
        model = new_model(kind, enc, vocab, LabelSet(note.codes), s_max=16)
        assert len(model.rank_codes(note.text)) == 2
        train_step(model, prepare_examples(model, [note]),
                   init_adam(model.parameters(), lr=1e-3))
    print(json.dumps(sorted(m for m in sys.modules if m.startswith("scipy"))))
""")


class TestNoScipy:
    """numpy is the only runtime dependency: GELU's erf is computed in
    kernels.py, so neither kind of model ever imports scipy."""

    def test_cli_scoring_and_training_load_no_scipy(self):
        env = dict(os.environ, PYTHONPATH=str(Path(segcoder.__file__).resolve().parents[1]))
        out = subprocess.run([sys.executable, "-c", _SCORE_AND_TRAIN], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout.splitlines()[-1]) == []
