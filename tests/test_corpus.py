"""Corpus I/O, label vocabulary, length statistics, synthetic generator."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from segcoder.corpus import (
    EVIDENCE_PHRASE_LEN,
    LabelSet,
    Note,
    SyntheticSpec,
    evidence_phrases,
    generate_synthetic,
    filler_words,
    format_cdf,
    load_corpus,
    load_notes,
    restrict_to_labels,
    save_notes,
    synthetic_codes,
    token_length_cdf,
)
from segcoder.tokenizer import PAD_TOKEN, UNK_TOKEN, Vocab


def tiny_spec(**kw):
    defaults = dict(num_codes=4, vocab_size=30, doc_len=(20, 24),
                    placement=(0, 18), codes_per_note=(1, 2), seed=0,
                    n_train=12, n_val=4, n_test=4)
    defaults.update(kw)
    return SyntheticSpec(**defaults)


class TestLabelSet:
    def test_lexicographic_indices(self):
        ls = LabelSet(["B", "A"])
        assert len(ls) == 2
        assert ls.code_to_index == {"A": 0, "B": 1}

    def test_deduplication(self):
        ls = LabelSet(["X", "X", "Y"])
        assert ls.codes == ["X", "Y"]

    def test_indices_for_sorted_unique(self):
        ls = LabelSet(["a", "b", "c"])
        idx = ls.indices_for(["c", "a", "c"])
        assert idx.tolist() == [0, 2]

    def test_indices_for_unknown_code_names_it(self):
        ls = LabelSet(["a", "b"])
        with pytest.raises(ValueError, match=r"'z'.*K=2"):
            ls.indices_for(["a", "z"])

    def test_membership(self):
        ls = LabelSet(["a"])
        assert "a" in ls and "b" not in ls

    def test_file_round_trip(self, tmp_path):
        ls = LabelSet(["401.9", "038.9", "V58.61"])
        path = tmp_path / "codes.txt"
        ls.save(path)
        again = LabelSet.from_file(path)
        assert again.codes == ls.codes
        assert again.code_to_index == ls.code_to_index


def vocab_tokens_by_lines(path):
    """Oracle for Vocab.from_file: the line-by-line read it replaced."""
    with open(path, encoding="utf-8") as f:
        tokens = [line.rstrip("\n") for line in f]
    if tokens and tokens[-1] == "":
        tokens.pop()
    return tokens


def label_codes_by_lines(path):
    """Oracle for LabelSet.from_file: the line-by-line read it replaced."""
    with open(path, encoding="utf-8") as f:
        return [line.strip() for line in f if line.strip()]


def outcome(build):
    """``build()``, or the ValueError it raised as (type, message)."""
    try:
        return build()
    except ValueError as e:
        return "ValueError", str(e)


# line breaks; whitespace that str.strip removes, and that str.splitlines
# (but not a line-by-line read) breaks at: \x0b, \x0c, \x1c, \x85, \u2028
_LINE_END = st.sampled_from(["\n", "\r\n", "\r"])
_LINE = st.one_of(st.sampled_from([PAD_TOKEN, UNK_TOKEN, "", " ", "a", "b"]),
                  st.text(alphabet="ab#. \t\x0b\x0c\x1c\x85\u2028\u00e9", max_size=6))


@st.composite
def line_files(draw):
    """File text: lines with mixed line breaks, the last one with or
    without its own, then zero to three blank trailing lines. Half the
    files start with the two special tokens a vocabulary needs."""
    lines = draw(st.lists(_LINE, max_size=10))
    if draw(st.booleans()):
        lines = [PAD_TOKEN, UNK_TOKEN] + lines
    ends = [draw(_LINE_END) for _ in lines]
    if ends and draw(st.booleans()):
        ends[-1] = ""
    tail = draw(st.lists(_LINE_END, max_size=3))
    return "".join(map(str.__add__, lines, ends)) + "".join(tail)


class TestLoadersMatchLineReads:
    """``Vocab.from_file`` and ``LabelSet.from_file`` read the file in one
    pass; they must give the tokens, codes and errors the line-by-line
    reads gave."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(text=line_files())
    @example(text="")
    @example(text="\n\n")
    @example(text="[PAD]\n[UNK]\n\n")               # one trailing blank line
    @example(text="[PAD]\n[UNK]\n\n\n")             # two: the second is a token
    @example(text="[PAD]\r\n[UNK]\r\nx\r\n")
    @example(text="[PAD]\r[UNK]\r\r")
    @example(text="[PAD]\n\n[UNK]\nx")               # a blank line inside
    @example(text="[PAD]\n[UNK]\n a\x0bb\u2028c \n")  # not line breaks
    @example(text="[PAD]\n[UNK]\nb\na\nb\n")        # duplicate token, unsorted codes
    def test_same_lists_and_errors(self, tmp_path_factory, text):
        path = tmp_path_factory.getbasetemp() / "loader-lines.txt"
        path.write_bytes(text.encode("utf-8"))
        assert outcome(lambda: Vocab.from_file(path).tokens) == outcome(
            lambda: Vocab(vocab_tokens_by_lines(path)).tokens)
        codes = label_codes_by_lines(path)
        want = sorted(set(codes))
        got = LabelSet.from_file(path)
        assert got.codes == want
        assert got.code_to_index == {c: i for i, c in enumerate(want)}


class TestNotesIO:
    def test_round_trip_byte_exact(self, tmp_path):
        notes = [
            Note("n1", "chest pain, acute", ["401.9", "038.9"]),
            Note("n2", "no codes here", []),
            Note("n3", "unicode café text", ["V58.61"]),
        ]
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_notes(notes, p1)
        save_notes(load_notes(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()
        loaded = load_notes(p1)
        assert [(n.note_id, n.text, n.codes) for n in loaded] == \
               [(n.note_id, n.text, n.codes) for n in notes]

    def test_empty_file_gives_empty_corpus(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        notes, label_set = load_corpus(path)
        assert notes == []
        assert len(label_set) == 0

    def test_two_line_fixture_label_indices(self, tmp_path):
        path = tmp_path / "two.jsonl"
        path.write_text(
            '{"note_id": "1", "text": "x", "codes": ["B"]}\n'
            '{"note_id": "2", "text": "y", "codes": ["A"]}\n')
        _, label_set = load_corpus(path)
        assert len(label_set) == 2
        assert label_set.code_to_index == {"A": 0, "B": 1}

    def test_malformed_json_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"note_id": "1", "text": "x", "codes": []}\nnot json\n')
        with pytest.raises(ValueError, match=r"bad\.jsonl:2"):
            load_notes(path)

    def test_missing_field_names_line_and_field(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"note_id": "1", "codes": []}\n')
        with pytest.raises(ValueError, match=r"bad\.jsonl:1.*text"):
            load_notes(path)

    def test_codes_must_be_array(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"note_id": "1", "text": "x", "codes": "A"}\n')
        with pytest.raises(ValueError, match="array"):
            load_notes(path)

    @pytest.mark.parametrize("row,field", [
        ('"text": null, "codes": []', "text"),
        ('"text": 7, "codes": []', "text"),
        ('"text": "x", "codes": ["A", 250.00]', "codes"),
        ('"text": "x", "codes": [null]', "codes"),
    ])
    def test_non_string_text_or_code_names_line_and_field(self, tmp_path, row, field):
        # a null text is no note "None", and the number 250.00 no code "250.0"
        path = tmp_path / "bad.jsonl"
        path.write_text('{"note_id": "1", "text": "x", "codes": []}\n'
                        '{"note_id": "2", ' + row + '}\n')
        with pytest.raises(ValueError, match=rf"bad\.jsonl:2: field '{field}'"):
            load_notes(path)

    @pytest.mark.parametrize("codes", [["", "A"], ["A ", "B"], [" A"], ["A\nB"],
                                       ["A\r"], ["\t"]],
                             ids=["empty", "trailing-space", "leading-space", "line-feed",
                                  "carriage-return", "blank"])
    def test_code_that_codes_txt_cannot_hold_names_line(self, tmp_path, codes):
        # codes.txt keeps one stripped, non-empty line per code, so '' or
        # 'A ' would come back from a saved checkpoint as another label set
        path = tmp_path / "bad.jsonl"
        save_notes([Note("1", "x", ["A"]), Note("2", "y", codes)], path)
        with pytest.raises(ValueError, match=r"bad\.jsonl:2: field 'codes' must hold "
                                             r"non-empty codes"):
            load_notes(path)

    @pytest.mark.parametrize("note_id", ["null", "1.0", "7", "[\"a\"]"])
    def test_non_string_note_id_names_line(self, tmp_path, note_id):
        # a null id is no note "None", so it cannot collide with one
        path = tmp_path / "bad.jsonl"
        path.write_text('{"note_id": "None", "text": "x", "codes": []}\n'
                        '{"note_id": ' + note_id + ', "text": "y", "codes": []}\n')
        with pytest.raises(ValueError, match=r"bad\.jsonl:2: field 'note_id' must be a string"):
            load_notes(path)

    def test_duplicate_note_id_rejected(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        path.write_text(
            '{"note_id": "1", "text": "x", "codes": []}\n'
            '{"note_id": "1", "text": "y", "codes": []}\n')
        with pytest.raises(ValueError, match="duplicate"):
            load_notes(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "gaps.jsonl"
        path.write_text('\n{"note_id": "1", "text": "x", "codes": []}\n\n')
        assert len(load_notes(path)) == 1

    def test_restrict_to_labels_counts_dropped(self):
        notes = [Note("1", "x", ["A", "Z"]), Note("2", "y", ["Z"])]
        kept, dropped = restrict_to_labels(notes, LabelSet(["A"]))
        assert dropped == 2
        assert kept[0].codes == ["A"] and kept[1].codes == []


class TestLengthCdf:
    def test_single_note(self):
        cdf = token_length_cdf([Note("1", "irrelevant", [])], lambda t: 100)
        assert cdf == [(100, 1.0)]

    def test_hand_counted_quartiles(self):
        # lengths [10, 20, 20, 40] put three of four notes at or below 20
        notes = [Note(str(i), "w " * n, []) for i, n in enumerate([10, 20, 20, 40])]
        cdf = token_length_cdf(notes, lambda t: len(t.split()))
        as_dict = dict(cdf)
        assert as_dict[20] == pytest.approx(0.75)
        assert as_dict[40] == pytest.approx(1.0)

    def test_monotone_and_reaches_one(self, rng):
        notes = [Note(str(i), "w " * int(rng.integers(1, 50)), []) for i in range(60)]
        cdf = token_length_cdf(notes, lambda t: len(t.split()))
        lengths = [l for l, _ in cdf]
        fracs = [f for _, f in cdf]
        assert lengths == sorted(lengths)
        assert all(b >= a for a, b in zip(fracs, fracs[1:]))
        assert fracs[-1] == pytest.approx(1.0)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            token_length_cdf([], lambda t: 1)

    def test_format_is_two_column_tsv(self):
        text = format_cdf([(10, 0.5), (12, 1.0)])
        assert text == "10\t0.500000\n12\t1.000000\n"


class TestSyntheticSpec:
    def test_valid_default(self):
        SyntheticSpec().validate()

    def test_placement_must_fit_min_doc(self):
        with pytest.raises(ValueError, match="placement"):
            tiny_spec(doc_len=(10, 12), placement=(0, 9)).validate()

    def test_too_many_phrases_for_window(self):
        with pytest.raises(ValueError, match="overlap"):
            tiny_spec(placement=(0, 0), codes_per_note=(2, 2)).validate()

    def test_bad_ranges(self):
        with pytest.raises(ValueError):
            tiny_spec(doc_len=(5, 2)).validate()
        with pytest.raises(ValueError):
            tiny_spec(codes_per_note=(3, 99)).validate()


class TestSyntheticGenerator:
    def test_labels_are_exactly_planted_codes(self, tmp_path):
        spec = tiny_spec()
        paths = generate_synthetic(spec, tmp_path)
        phrases = evidence_phrases(spec)
        notes = load_notes(paths["train"])
        assert len(notes) == spec.n_train
        for note in notes:
            text = f" {note.text} "
            for code, phrase_list in phrases.items():
                found = any(f" {a} {b} " in text for a, b in phrase_list)
                assert found == (code in note.codes)

    def test_string_search_oracle_reaches_f1_one(self, tmp_path):
        # the planted phrases are the ground truth: searching for them is a
        # perfect classifier, which upper-bounds any model on this corpus
        spec = tiny_spec(seed=11)
        paths = generate_synthetic(spec, tmp_path)
        phrases = evidence_phrases(spec)
        tp = fp = fn = 0
        for note in load_notes(paths["val"]):
            text = f" {note.text} "
            predicted = {code for code, pl in phrases.items()
                         if any(f" {a} {b} " in text for a, b in pl)}
            actual = set(note.codes)
            tp += len(predicted & actual)
            fp += len(predicted - actual)
            fn += len(actual - predicted)
        assert fp == 0 and fn == 0 and tp > 0

    def test_doc_len_and_placement_respected(self, tmp_path):
        spec = tiny_spec(placement=(4, 10), doc_len=(20, 20))
        paths = generate_synthetic(spec, tmp_path)
        ev_tokens = {t for pl in evidence_phrases(spec).values() for ab in pl for t in ab}
        for note in load_notes(paths["train"]):
            words = note.text.split()
            assert len(words) == 20
            positions = [i for i, w in enumerate(words) if w in ev_tokens]
            for i, w in enumerate(words):
                if w.endswith("a") and w in ev_tokens:
                    assert 4 <= i <= 10

    def test_front_placement_construction(self, tmp_path):
        # placement [0, 0]: every phrase starts at token 0
        spec = tiny_spec(placement=(0, 0), codes_per_note=(1, 1))
        paths = generate_synthetic(spec, tmp_path)
        phrases = evidence_phrases(spec)
        for note in load_notes(paths["train"]):
            words = note.text.split()
            code = note.codes[0]
            assert tuple(words[:EVIDENCE_PHRASE_LEN]) in set(phrases[code])

    def test_deep_placement_construction(self, tmp_path):
        # placement [2*seg, 4*seg] with seg=8: no evidence before token 16
        spec = tiny_spec(doc_len=(40, 40), placement=(16, 32))
        paths = generate_synthetic(spec, tmp_path)
        ev_tokens = {t for pl in evidence_phrases(spec).values() for ab in pl for t in ab}
        saw_deep = False
        for note in load_notes(paths["train"]):
            for i, w in enumerate(note.text.split()):
                if w in ev_tokens:
                    assert i >= 16
                    saw_deep = True
        assert saw_deep

    def test_seed_determinism_byte_identical(self, tmp_path):
        spec = tiny_spec(seed=7)
        p1 = generate_synthetic(spec, tmp_path / "run1")
        p2 = generate_synthetic(tiny_spec(seed=7), tmp_path / "run2")
        for key in ("train", "val", "test", "codes", "vocab"):
            b1 = open(p1[key], "rb").read()
            b2 = open(p2[key], "rb").read()
            assert b1 == b2, f"split {key} differs across identical seeds"

    def test_different_seeds_differ(self, tmp_path):
        p1 = generate_synthetic(tiny_spec(seed=1), tmp_path / "s1")
        p2 = generate_synthetic(tiny_spec(seed=2), tmp_path / "s2")
        assert open(p1["train"], "rb").read() != open(p2["train"], "rb").read()

    def test_splits_disjoint_by_note_id(self, tmp_path):
        paths = generate_synthetic(tiny_spec(), tmp_path)
        ids = {}
        for split in ("train", "val", "test"):
            ids[split] = {n.note_id for n in load_notes(paths[split])}
        assert not (ids["train"] & ids["val"])
        assert not (ids["train"] & ids["test"])
        assert not (ids["val"] & ids["test"])

    def test_all_note_codes_in_label_set(self, tmp_path):
        paths = generate_synthetic(tiny_spec(), tmp_path)
        label_set = LabelSet.from_file(paths["codes"])
        for split in ("val", "test"):
            for note in load_notes(paths[split]):
                assert all(c in label_set for c in note.codes)

    def test_vocab_covers_all_words(self, tmp_path):
        spec = tiny_spec()
        paths = generate_synthetic(spec, tmp_path)
        vocab_words = set(open(paths["vocab"], encoding="utf-8").read().split())
        for note in load_notes(paths["train"]):
            assert set(note.text.split()) <= vocab_words

    def test_evidence_vocab_disjoint_from_filler(self):
        spec = tiny_spec()
        ev = {t for pl in evidence_phrases(spec).values() for ab in pl for t in ab}
        assert ev.isdisjoint(filler_words(spec))
        assert len(ev) == spec.num_codes * spec.evidence_per_code * 2

    def test_codes_file_lexicographic(self, tmp_path):
        spec = tiny_spec()
        paths = generate_synthetic(spec, tmp_path)
        lines = open(paths["codes"], encoding="utf-8").read().split()
        assert lines == sorted(synthetic_codes(spec))
