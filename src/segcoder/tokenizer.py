"""WordPiece tokenization with a fixed vocabulary.

Vocabulary files hold one token per line; the line number is the id. The
pad token must sit at id 0 and an unknown token must be present.
Continuation pieces carry the ``##`` prefix. Words are lowercased and split
on whitespace/punctuation before greedy longest-match-first piece lookup.
"""

import unicodedata
import weakref
from dataclasses import dataclass
from itertools import chain

import numpy as np

PAD_TOKEN = "[PAD]"
UNK_TOKEN = "[UNK]"
MAX_WORD_CHARS = 100  # longer words degrade to UNK


class Vocab:
    """Tokens and their ids. A Vocab is not changed after it is built: it
    caches how words split into its pieces."""

    def __init__(self, tokens):
        self.tokens = list(tokens)
        if not self.tokens:
            raise ValueError("empty vocabulary")
        self.token_to_id = dict(zip(self.tokens, range(len(self.tokens))))
        if len(self.token_to_id) != len(self.tokens):
            seen = set()
            for tok in self.tokens:
                if tok in seen:
                    raise ValueError(f"duplicate vocabulary token {tok!r}")
                seen.add(tok)
        if self.tokens[0] != PAD_TOKEN:
            raise ValueError(f"vocabulary must place {PAD_TOKEN} at id 0")
        if UNK_TOKEN not in self.token_to_id:
            raise ValueError(f"vocabulary must contain {UNK_TOKEN}")
        self.unk_id = self.token_to_id[UNK_TOKEN]
        self._pieces = _PieceCache(self)

    def __len__(self):
        return len(self.tokens)

    def __contains__(self, token):
        return token in self.token_to_id

    @classmethod
    def from_file(cls, path):
        """One token per line, ended by LF, CRLF or CR; one trailing blank
        line is ignored."""
        with open(path, encoding="utf-8") as f:
            # the lines a line-by-line read would give: no empty one after
            # the final line break
            tokens = f.read().removesuffix("\n").split("\n")
        if tokens[-1] == "":
            tokens.pop()
        return cls(tokens)

    def save(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for tok in self.tokens:
                f.write(tok + "\n")


@dataclass
class TokenSequence:
    """The token ids of one note; ``s`` is their count."""

    ids: np.ndarray

    def __post_init__(self):
        self.ids = np.asarray(self.ids, dtype=np.int64)

    @property
    def s(self):
        return len(self.ids)


def _is_punctuation(ch):
    cp = ord(ch)
    if (33 <= cp <= 47) or (58 <= cp <= 64) or (91 <= cp <= 96) or (123 <= cp <= 126):
        return True
    return unicodedata.category(ch).startswith("P")


_SPLIT_CACHE = 4096  # code points the split table keeps


class _SplitTable(dict):
    """``str.translate`` table that pads each punctuation character with
    spaces and maps every other character to itself, so that ``split()``
    makes each punctuation character its own word. It caches the first
    ``_SPLIT_CACHE`` code points it sees and computes the rest each time,
    so no input can grow it without bound."""

    def __missing__(self, cp):
        ch = chr(cp)
        out = f" {ch} " if _is_punctuation(ch) else ch
        if len(self) < _SPLIT_CACHE:
            self[cp] = out
        return out


_SPLIT_TABLE = _SplitTable()


def basic_split(text):
    """Lowercase, then split into whitespace-delimited words with each
    punctuation character as its own word."""
    return text.lower().translate(_SPLIT_TABLE).split()


def wordpiece_word(word, vocab):
    """Greedy longest-match-first split of one word into piece ids."""
    if len(word) > MAX_WORD_CHARS:
        return [vocab.unk_id]
    pieces = []
    start = 0
    while start < len(word):
        end = len(word)
        match = None
        while start < end:
            piece = word[start:end]
            if start > 0:
                piece = "##" + piece
            if piece in vocab.token_to_id:
                match = vocab.token_to_id[piece]
                break
            end -= 1
        if match is None:
            return [vocab.unk_id]
        pieces.append(match)
        start = end
    return pieces


_WORD_CACHE = 8192  # distinct words a Vocab's piece cache keeps


class _PieceCache(dict):
    """word -> tuple of piece ids under one Vocab, so ``tokenize`` splits
    each distinct word once. Like ``_SplitTable`` it caches the first
    ``_WORD_CACHE`` words it sees and computes the rest each time. Words
    over ``MAX_WORD_CHARS`` are never cached, so an entry is at most a
    100-character key and a 100-id tuple. Full, the cache holds about
    11 MB with such entries (astral characters, one piece each) and about
    1.1 MB with 8-letter words of two pieces, by tracemalloc."""

    def __init__(self, vocab):
        super().__init__()
        self.vocab = weakref.proxy(vocab)  # no cycle: a dropped Vocab is freed at once

    def __missing__(self, word):
        pieces = tuple(wordpiece_word(word, self.vocab))
        if len(self) < _WORD_CACHE and len(word) <= MAX_WORD_CHARS:
            self[word] = pieces
        return pieces


def tokenize(text, vocab):
    """Deterministic WordPiece tokenization of ``text``."""
    pieces = map(vocab._pieces.__getitem__, basic_split(text))
    return TokenSequence(np.fromiter(chain.from_iterable(pieces), dtype=np.int64))


def truncate(seq, s_max):
    """First ``s_max`` tokens; a no-op when the sequence already fits."""
    if s_max < 0:
        raise ValueError(f"s_max {s_max} is negative")
    if seq.s <= s_max:
        return seq
    return TokenSequence(seq.ids[:s_max].copy())
