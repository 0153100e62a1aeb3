"""Corpus I/O, label vocabulary handling, length statistics, and a
synthetic planted-evidence corpus generator.

Interchange format is UTF-8 line-delimited JSON, one note per line with
fields ``note_id``, ``text``, ``codes``. The synthetic generator plants a
unique two-token evidence phrase per assigned code at a controlled token
position, so ground truth is exactly recoverable by string search and the
benefit of reading beyond a fixed prefix is measurable by construction.
"""

import json
import os
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .tokenizer import PAD_TOKEN, UNK_TOKEN

EVIDENCE_PHRASE_LEN = 2
_PLACEMENT_TRIES = 10000


@dataclass
class Note:
    note_id: str
    text: str
    codes: list


class LabelSet:
    """Ordered code vocabulary with a stable code->index map.

    Order is lexicographic over code strings so the index assignment is
    reproducible without persisting extra state.
    """

    def __init__(self, codes):
        # dict.fromkeys keeps first-seen order, so the sort of a saved
        # (already sorted) code list is one pass
        self.codes = sorted(dict.fromkeys(codes))
        self.code_to_index = dict(zip(self.codes, range(len(self.codes))))

    def __len__(self):
        return len(self.codes)

    def __contains__(self, code):
        return code in self.code_to_index

    def indices_for(self, codes):
        """Sorted unique label indices for one note's code list."""
        try:
            return np.asarray(sorted({self.code_to_index[c] for c in codes}), dtype=np.int64)
        except KeyError as e:
            raise ValueError(f"code {e.args[0]!r} is not in the label set "
                             f"(K={len(self)})") from None

    @classmethod
    def from_file(cls, path):
        """One code per line, ended by LF, CRLF or CR, stripped of
        surrounding whitespace; blank lines are skipped."""
        with open(path, encoding="utf-8") as f:
            lines = f.read().split("\n")
        return cls(filter(None, map(str.strip, lines)))

    def save(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for c in self.codes:
                f.write(c + "\n")


def _note_from_json(obj, where):
    if not isinstance(obj, dict):
        raise ValueError(f"{where}: expected a JSON object, got {type(obj).__name__}")
    for key in ("note_id", "text", "codes"):
        if key not in obj:
            raise ValueError(f"{where}: missing field {key!r}")
    note_id, text, codes = obj["note_id"], obj["text"], obj["codes"]
    if not isinstance(note_id, str):
        raise ValueError(f"{where}: field 'note_id' must be a string, got {note_id!r:.40}")
    if not isinstance(text, str):
        raise ValueError(f"{where}: field 'text' must be a string, got {text!r:.40}")
    if not isinstance(codes, list):
        raise ValueError(f"{where}: field 'codes' must be an array")
    for c in codes:
        if not isinstance(c, str):
            raise ValueError(f"{where}: field 'codes' must hold strings, got {c!r:.40}")
        # a code must survive codes.txt, one stripped non-empty line per code
        if c != c.strip() or c.splitlines() != [c]:
            raise ValueError(f"{where}: field 'codes' must hold non-empty codes without "
                             f"surrounding whitespace or line breaks, got {c!r:.40}")
    return Note(note_id=note_id, text=text, codes=codes)


def load_notes(path):
    """Parse a line-delimited JSON corpus; malformed lines raise with the
    line number. note_id values must be unique."""
    notes = []
    seen = set()
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            where = f"{path}:{lineno}"
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                raise ValueError(f"{where}: invalid JSON: {e.msg}") from e
            note = _note_from_json(obj, where)
            if note.note_id in seen:
                raise ValueError(f"{where}: duplicate note_id {note.note_id!r}")
            seen.add(note.note_id)
            notes.append(note)
    return notes


def save_notes(notes, path):
    with open(path, "w", encoding="utf-8") as f:
        for n in notes:
            f.write(json.dumps({"note_id": n.note_id, "text": n.text, "codes": n.codes},
                               ensure_ascii=True) + "\n")


def load_corpus(path, label_set=None):
    """Load notes; build the LabelSet from the union of codes unless one is
    supplied (training-set labels are authoritative at eval time)."""
    notes = load_notes(path)
    if label_set is None:
        all_codes = set()
        for n in notes:
            all_codes.update(n.codes)
        label_set = LabelSet(all_codes)
    return notes, label_set


def restrict_to_labels(notes, label_set):
    """Drop codes absent from the label set (e.g. unseen codes in an eval
    corpus). Returns the rewritten notes and the dropped-instance count."""
    out = []
    dropped = 0
    for n in notes:
        kept = [c for c in n.codes if c in label_set]
        dropped += len(n.codes) - len(kept)
        out.append(Note(note_id=n.note_id, text=n.text, codes=kept))
    return out, dropped


def token_length_cdf(notes, count_fn):
    """Cumulative distribution of per-note token counts, ``count_fn(text)``
    each. Returns (length, cumulative fraction) pairs at each distinct
    length, nondecreasing and ending at 1.0.
    """
    if not notes:
        raise ValueError("token_length_cdf needs a non-empty corpus")
    lengths = sorted(count_fn(n.text) for n in notes)
    total = len(lengths)
    cdf = []
    seen = 0
    for length, group in groupby(lengths):
        seen += sum(1 for _ in group)
        cdf.append((length, seen / total))
    return cdf


def format_cdf(cdf):
    """Two-column tab-separated text (length, cumulative fraction)."""
    return "".join(f"{length}\t{frac:.6f}\n" for length, frac in cdf)


# ---------------------------------------------------------------------------
# synthetic planted-evidence corpus
# ---------------------------------------------------------------------------

@dataclass
class SyntheticSpec:
    num_codes: int = 20
    vocab_size: int = 500          # filler vocabulary size
    doc_len: tuple = (256, 256)    # token count range, inclusive
    evidence_per_code: int = 1
    placement: tuple = (0, 254)    # evidence start position range, inclusive
    codes_per_note: tuple = (1, 3)
    seed: int = 0
    n_train: int = 2000
    n_val: int = 200
    n_test: int = 200

    def validate(self):
        if self.num_codes < 1 or self.vocab_size < 1 or self.evidence_per_code < 1:
            raise ValueError("num_codes, vocab_size, evidence_per_code must be >= 1")
        dlo, dhi = self.doc_len
        plo, phi = self.placement
        clo, chi = self.codes_per_note
        if not (1 <= dlo <= dhi):
            raise ValueError(f"bad doc_len range {self.doc_len}")
        if not (0 <= plo <= phi):
            raise ValueError(f"bad placement range {self.placement}")
        if phi + EVIDENCE_PHRASE_LEN > dlo:
            raise ValueError(
                f"placement end {phi} + phrase length {EVIDENCE_PHRASE_LEN} "
                f"exceeds minimum doc length {dlo}")
        if not (0 <= clo <= chi <= self.num_codes):
            raise ValueError(f"bad codes_per_note range {self.codes_per_note}")
        window = phi - plo + EVIDENCE_PHRASE_LEN
        if chi * EVIDENCE_PHRASE_LEN > window:
            raise ValueError(
                f"{chi} phrases of {EVIDENCE_PHRASE_LEN} tokens cannot fit "
                f"without overlap in a {window}-position placement window")
        if min(self.n_train, self.n_val, self.n_test) < 0:
            raise ValueError("split sizes must be >= 0")


def synthetic_codes(spec):
    return [f"C{i:04d}" for i in range(spec.num_codes)]


def filler_words(spec):
    return [f"w{i:05d}" for i in range(spec.vocab_size)]


def evidence_phrases(spec):
    """Two-token phrases per code; every evidence token is unique to its
    phrase and disjoint from the filler vocabulary, so a phrase occurs in a
    note if and only if it was planted there."""
    phrases = {}
    for i, code in enumerate(synthetic_codes(spec)):
        phrases[code] = [
            (f"ev{i * spec.evidence_per_code + j:05d}a",
             f"ev{i * spec.evidence_per_code + j:05d}b")
            for j in range(spec.evidence_per_code)
        ]
    return phrases


def synthetic_token_list(spec):
    """Full word inventory for the tokenizer vocabulary file."""
    words = list(filler_words(spec))
    for phrase_list in evidence_phrases(spec).values():
        for a, b in phrase_list:
            words.extend((a, b))
    return words


def _make_note(spec, rng, note_id, fillers, codes, phrases):
    dlo, dhi = spec.doc_len
    plo, phi = spec.placement
    clo, chi = spec.codes_per_note
    n = int(rng.integers(dlo, dhi + 1))
    words = [fillers[k] for k in rng.integers(0, len(fillers), size=n)]
    m = int(rng.integers(clo, chi + 1))
    chosen = sorted(rng.permutation(spec.num_codes)[:m].tolist())
    occupied = set()
    for ci in chosen:
        code = codes[ci]
        phrase = phrases[code][int(rng.integers(0, spec.evidence_per_code))]
        for _ in range(_PLACEMENT_TRIES):
            p = int(rng.integers(plo, phi + 1))
            slots = range(p, p + EVIDENCE_PHRASE_LEN)
            if occupied.isdisjoint(slots):
                occupied.update(slots)
                for off, tok in enumerate(phrase):
                    words[p + off] = tok
                break
        else:
            raise RuntimeError(f"could not place evidence for {code} in note {note_id}")
    return Note(note_id=note_id, text=" ".join(words), codes=[codes[i] for i in chosen])


def generate_synthetic(spec, out_dir):
    """Write train/val/test corpora plus codes.txt and vocab.txt.

    Deterministic per seed: the same spec produces byte-identical files.
    Returns a dict of written paths.
    """
    spec.validate()
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng(spec.seed)
    codes = synthetic_codes(spec)
    fillers = filler_words(spec)
    phrases = evidence_phrases(spec)

    paths = {}
    for split, count in (("train", spec.n_train), ("val", spec.n_val), ("test", spec.n_test)):
        notes = [_make_note(spec, rng, f"{split}-{i:06d}", fillers, codes, phrases)
                 for i in range(count)]
        path = os.path.join(out_dir, f"{split}.jsonl")
        save_notes(notes, path)
        paths[split] = path

    codes_path = os.path.join(out_dir, "codes.txt")
    LabelSet(codes).save(codes_path)
    paths["codes"] = codes_path

    vocab_path = os.path.join(out_dir, "vocab.txt")
    with open(vocab_path, "w", encoding="utf-8") as f:
        for w in [PAD_TOKEN, UNK_TOKEN] + synthetic_token_list(spec):
            f.write(w + "\n")
    paths["vocab"] = vocab_path
    return paths
