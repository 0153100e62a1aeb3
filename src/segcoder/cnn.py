"""Convolutional baseline encoder: word embeddings + one same-padded 1-D
convolution with tanh, producing per-word vectors for the same label
attention head the transformer feeds.

The convolution is one GEMM over a patch matrix built by ``unfold_rows``,
whose backward sums k shifted row slices of the gradient; the only scatter
in a backward pass is the word-embedding one.

The word vocabulary is built from the training corpus (whitespace words,
minimum frequency 3) with embeddings trained from scratch.
"""

from collections import Counter
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .tensor import Tensor, add, embedding_gather, matmul, tanh, unfold_rows
from .tokenizer import PAD_TOKEN, UNK_TOKEN, TokenSequence, Vocab
from .transformer import init_weight

WORD_MIN_FREQ = 3


@dataclass
class CnnConfig:
    embed_dim: int = 100
    filters: int = 256        # must equal the label-attention dimension
    kernel: int = 9
    max_words: int = 2500
    vocab_size: int = 0       # filled in once the word vocabulary is built

    def __post_init__(self):
        if min(self.embed_dim, self.filters, self.max_words) < 1:
            raise ValueError(f"embed_dim, filters and max_words must be >= 1, got "
                             f"{self.embed_dim}, {self.filters}, {self.max_words}")
        if self.kernel % 2 != 1:
            raise ValueError(f"kernel width must be odd for same padding, got {self.kernel}")


class CnnParams:
    """Word embeddings and convolution; ``rng`` as for ``init_weight``."""

    def __init__(self, config, rng, dtype=np.float32):
        if config.vocab_size < 2:
            raise ValueError("word vocabulary must be set before allocating parameters")
        self.config = config
        self.word_emb = Tensor(
            init_weight(rng, (config.vocab_size, config.embed_dim), dtype=dtype),
            requires_grad=True,
        )
        self.conv_w = Tensor(
            init_weight(rng, (config.kernel * config.embed_dim, config.filters), dtype=dtype),
            requires_grad=True,
        )
        self.conv_b = Tensor(np.zeros(config.filters, dtype=dtype), requires_grad=True)

    def named(self):
        return [
            ("cnn.word_emb", self.word_emb),
            ("cnn.conv_w", self.conv_w),
            ("cnn.conv_b", self.conv_b),
        ]


def build_word_vocab(texts, min_freq=WORD_MIN_FREQ):
    """Word vocabulary from training texts: [PAD], [UNK], then all
    lowercase whitespace words with count >= min_freq, lexicographic."""
    counts = Counter()
    for text in texts:
        counts.update(text.lower().split())
    kept = sorted(w for w, c in counts.items() if c >= min_freq)
    return Vocab([PAD_TOKEN, UNK_TOKEN] + kept)


def word_ids(text, vocab):
    """Whole-word lookup (no subword splitting); OOV words map to UNK."""
    words = text.lower().split()
    return TokenSequence(np.fromiter(map(vocab.token_to_id.get, words, repeat(vocab.unk_id)),
                                     dtype=np.int64, count=len(words)))


def encode_cnn(params, config, word_ids_arr):
    """Per-word representations [n, filters]: embedding lookup, a
    same-padded width-k convolution as one matmul over the unfolded
    [n, k·embed_dim] patches, and tanh. The unfold's backward sums k
    shifted slices, so the word-embedding lookup is the only scatter."""
    ids = np.asarray(word_ids_arr, dtype=np.int64)
    if ids.ndim != 1 or ids.size < 1:
        raise ValueError("encode_cnn needs a non-empty 1-D id sequence")
    patches = unfold_rows(embedding_gather(params.word_emb, ids), config.kernel)
    return tanh(add(matmul(patches, params.conv_w), params.conv_b))
