"""WordPiece tokenization with a fixed vocabulary.

Vocabulary files hold one token per line; the line number is the id. The
pad token must sit at id 0 and an unknown token must be present.
Continuation pieces carry the ``##`` prefix. Words are lowercased and split
on whitespace/punctuation before greedy longest-match-first piece lookup.
"""

import math
import unicodedata
from dataclasses import dataclass

import numpy as np

PAD_TOKEN = "[PAD]"
UNK_TOKEN = "[UNK]"
MAX_WORD_CHARS = 100  # longer words degrade to UNK


class Vocab:
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
        self.pad_id = 0
        self.unk_id = self.token_to_id[UNK_TOKEN]

    def __len__(self):
        return len(self.tokens)

    def __contains__(self, token):
        return token in self.token_to_id

    @classmethod
    def from_file(cls, path):
        with open(path, encoding="utf-8") as f:
            tokens = [line.rstrip("\n") for line in f]
        if tokens and tokens[-1] == "":
            tokens.pop()
        return cls(tokens)

    def save(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for tok in self.tokens:
                f.write(tok + "\n")


@dataclass
class TokenSequence:
    """Token ids plus the real (pre-padding) length ``s``."""

    ids: np.ndarray
    s: int

    def __post_init__(self):
        self.ids = np.asarray(self.ids, dtype=np.int64)
        if self.s < 0:
            raise ValueError(f"real length {self.s} is negative")
        if self.s > len(self.ids):
            raise ValueError(f"real length {self.s} exceeds id count {len(self.ids)}")

    def __len__(self):
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


def tokenize(text, vocab):
    """Deterministic WordPiece tokenization of ``text``."""
    ids = []
    for word in basic_split(text):
        ids.extend(wordpiece_word(word, vocab))
    return TokenSequence(ids=np.asarray(ids, dtype=np.int64), s=len(ids))


def truncate(seq, s_max):
    """First ``s_max`` tokens; a no-op when the sequence already fits."""
    if seq.s <= s_max and len(seq.ids) <= s_max:
        return seq
    s = min(seq.s, s_max)
    return TokenSequence(ids=seq.ids[:s_max].copy(), s=s)


def pad_to_multiple(seq, seg_len, pad_id=0):
    """Pad to ceil(s / seg_len) segments of ``seg_len`` tokens (one segment
    when s = 0); the first s ids are never altered."""
    if seg_len < 1:
        raise ValueError(f"segment length must be >= 1, got {seg_len}")
    tau = max(1, math.ceil(seq.s / seg_len))
    target = tau * seg_len
    ids = np.full(target, pad_id, dtype=np.int64)
    ids[: seq.s] = seq.ids[: seq.s]
    return TokenSequence(ids=ids, s=seq.s)
