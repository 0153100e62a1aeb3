"""WordPiece tokenizer: greedy longest match, special tokens and
truncation."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from segcoder.tokenizer import (MAX_WORD_CHARS, PAD_TOKEN, UNK_TOKEN, TokenSequence, Vocab,
                                _SPLIT_CACHE, _SPLIT_TABLE, _WORD_CACHE, _is_punctuation,
                                basic_split, tokenize, truncate, wordpiece_word)


def toy_vocab(extra=()):
    return Vocab([PAD_TOKEN, UNK_TOKEN, "un", "##aff", "##able", "aff"] + list(extra))


class TestVocab:
    def test_pad_must_be_id_zero(self):
        with pytest.raises(ValueError):
            Vocab([UNK_TOKEN, PAD_TOKEN])

    def test_unk_required(self):
        with pytest.raises(ValueError):
            Vocab([PAD_TOKEN, "word"])

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            Vocab([PAD_TOKEN, UNK_TOKEN, "a", "a"])

    def test_first_duplicate_is_named(self):
        with pytest.raises(ValueError, match="duplicate vocabulary token 'x'"):
            Vocab([PAD_TOKEN, UNK_TOKEN, "x", "y", "x", "y"])

    def test_file_round_trip(self, tmp_path):
        v = toy_vocab(["extra"])
        path = tmp_path / "vocab.txt"
        v.save(path)
        v2 = Vocab.from_file(path)
        assert v2.tokens == v.tokens
        assert v2.tokens[0] == PAD_TOKEN and v2.unk_id == v.unk_id


def loop_split(text):
    """Oracle for basic_split: one character at a time."""
    words = []
    buf = []
    for ch in text.lower():
        if ch.isspace():
            if buf:
                words.append("".join(buf))
                buf = []
        elif _is_punctuation(ch):
            if buf:
                words.append("".join(buf))
                buf = []
            words.append(ch)
        else:
            buf.append(ch)
    if buf:
        words.append("".join(buf))
    return words


class TestBasicSplit:
    def test_lowercase_and_whitespace(self):
        assert basic_split("Hello  World") == ["hello", "world"]

    def test_punctuation_isolated(self):
        assert basic_split("end.of, line!") == ["end", ".", "of", ",", "line", "!"]

    def test_empty(self):
        assert basic_split("") == []
        assert basic_split("   \t\n") == []

    def test_table_stops_growing(self):
        text = "".join(chr(cp) for cp in range(0x4E00, 0x4E00 + 2 * _SPLIT_CACHE))
        text += " . x"
        assert basic_split(text) == loop_split(text)
        assert len(_SPLIT_TABLE) <= _SPLIT_CACHE

    @pytest.mark.parametrize("text", [
        "",
        " \t\n\r\x0b\x0c",
        "\u0130stanbul",         # İ lowercases to two code points
        "Stra\u00dfe",           # ß
        "a\u0085b",              # NEL is whitespace
        "a\u3000b",              # ideographic space
        "x\ud800y",              # a lone surrogate
        "(a),[b]{c}!?\u00bf",   # ASCII punctuation and U+00BF (Po)
    ])
    def test_matches_loop_on_examples(self, text):
        assert basic_split(text) == loop_split(text)

    def test_matches_loop_on_random_text(self):
        # code points from ASCII, Latin-1, the rest of the BMP (surrogates
        # included) and the astral planes, in strings of 0-40 characters
        rng = np.random.default_rng(0)
        lo = np.array([0, 0x80, 0x100, 0x10000])
        hi = np.array([0x80, 0x100, 0x10000, 0x110000])
        for _ in range(5000):
            which = rng.integers(len(lo), size=rng.integers(0, 41))
            cps = rng.integers(lo[which], hi[which])
            text = "".join(map(chr, cps.tolist()))
            assert basic_split(text) == loop_split(text), repr(text)


class TestTokenize:
    def test_empty_text(self):
        seq = tokenize("", toy_vocab())
        assert seq.s == 0 and len(seq.ids) == 0

    def test_greedy_longest_match(self):
        v = toy_vocab()
        seq = tokenize("unaffable", v)
        assert [v.tokens[i] for i in seq.ids] == ["un", "##aff", "##able"]

    def test_no_piece_forces_unk(self):
        v = toy_vocab()
        seq = tokenize("xyzzy", v)
        assert list(seq.ids) == [v.unk_id]

    def test_partial_match_still_unk(self):
        # "un" matches but "usual" has no continuation piece: whole word -> UNK
        v = toy_vocab()
        seq = tokenize("unusual", v)
        assert list(seq.ids) == [v.unk_id]

    def test_overlong_word_degrades_to_unk(self):
        v = toy_vocab()
        assert wordpiece_word("a" * 101, v) == [v.unk_id]

    def test_deterministic(self):
        v = toy_vocab(["hello"])
        a = tokenize("Hello unaffable", v)
        b = tokenize("Hello unaffable", v)
        np.testing.assert_array_equal(a.ids, b.ids)


def per_word_ids(text, vocab):
    """Oracle for tokenize: every word split again, the pieces joined."""
    return [i for w in basic_split(text) for i in wordpiece_word(w, vocab)]


def cache_vocab():
    return toy_vocab(["a", "##a", "x", "##y", "i", "##\u0307", "\u00df", "##\U0001f600"])


class TestPieceCache:
    """``tokenize`` splits each distinct word once per Vocab and keeps the
    first ``_WORD_CACHE`` of them; its ids must be the per-word split's."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(texts=st.lists(st.one_of(
        st.text(alphabet="unafblexy aA.,!\u0130\u00df\u3000\u2028\U0001f600", max_size=40),
        st.builds(str.__mul__, st.sampled_from(["a", "ya", "unaff"]),
                  st.integers(MAX_WORD_CHARS // 5 - 2, MAX_WORD_CHARS + 2))), max_size=4))
    @example(texts=["x\ud800y a\ud800"])                # lone surrogates
    @example(texts=["a" * MAX_WORD_CHARS + " " + "a" * (MAX_WORD_CHARS + 1)])
    @example(texts=["unaffable xyzzy unusual UNAFF"])      # in and out of vocabulary
    def test_ids_match_per_word_split_cold_and_warm(self, texts):
        v = cache_vocab()
        for text in texts + texts:    # a cold cache first, then a warm one
            seq = tokenize(text, v)
            assert seq.ids.dtype == np.int64
            assert seq.ids.tolist() == per_word_ids(text, v), repr(text)
        assert all(len(w) <= MAX_WORD_CHARS for w in v._pieces)

    def test_bounded_and_still_right_past_the_bound(self):
        v = cache_vocab()
        words = [f"a{n}" for n in range(_WORD_CACHE + 100)]
        text = " ".join(words)
        assert tokenize(text, v).ids.tolist() == per_word_ids(text, v)
        assert len(v._pieces) == _WORD_CACHE
        # words past the bound are split each time, and the cache keeps its first words
        tail = " ".join(words[-100:] + ["unaffable"])
        assert tokenize(tail, v).ids.tolist() == per_word_ids(tail, v)
        assert len(v._pieces) == _WORD_CACHE
        assert "a0" in v._pieces and words[-1] not in v._pieces

    def test_caller_cannot_change_a_cached_entry(self):
        v = toy_vocab()
        first = tokenize("unaffable unaffable", v)
        want = first.ids.tolist()
        first.ids[:] = 0
        assert tokenize("unaffable", v).ids.tolist() == want[:3]
        assert all(type(p) is tuple for p in v._pieces.values())

    def test_vocabularies_do_not_share_entries(self):
        # the same word splits differently under two vocabularies
        small, large = toy_vocab(), toy_vocab(["unaffable"])
        assert tokenize("unaffable", small).s == 3
        assert tokenize("unaffable", large).ids.tolist() == [large.token_to_id["unaffable"]]
        assert tokenize("unaffable", small).s == 3


class TestTokenSequence:
    def test_length_invariant_violation_rejected(self):
        # s is the id count: it can be neither passed nor set apart from ids
        seq = TokenSequence(np.arange(2))
        assert seq.s == 2
        with pytest.raises(TypeError):
            TokenSequence(ids=np.arange(2), s=3)
        with pytest.raises(AttributeError):
            seq.s = 3
        assert seq.s == 2


class TestTruncate:
    def test_truncate_noop_when_fits(self):
        seq = TokenSequence(np.arange(4))
        out = truncate(seq, 10)
        assert out.s == 4 and len(out.ids) == 4

    def test_truncate_cuts_to_s_max(self):
        seq = TokenSequence(np.arange(10))
        out = truncate(seq, 6)
        assert out.s == 6
        np.testing.assert_array_equal(out.ids, np.arange(6))

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError, match="s_max -5 is negative"):
            truncate(TokenSequence(np.arange(10)), -5)
