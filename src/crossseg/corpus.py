"""Sentences, BMES tag sequences, datasets and corpus file IO.

A sentence is a plain str of characters with no internal whitespace. A tag
sequence is a str over the alphabet {B, M, E, S} of the same length; it is
well formed when it matches (S | B M* E)*, and any tag sequence cuts its
sentence into words by one rule (tags_to_words). A segmented sentence is a
list of non-empty words whose concatenation equals the sentence. All
objects here are immutable values; sharing them across threads is safe.

Every text file the toolkit reads (corpora, lexicons, provenance,
stop-words, training configs) goes through read_lines: UTF-8 lines, and a
DecodeError naming the file and line for any that does not decode.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import DecodeError

TAGS = "BMES"
TAG_INDEX = {t: i for i, t in enumerate(TAGS)}
_NOT_A_TAG = re.compile(f"[^{TAGS}]")
_WELL_FORMED = re.compile("(?:S|BM*E)*")


def words_to_tags(words: list[str]) -> str:
    """Map a segmentation to its BMES tag string.

    A single-character word becomes S; a longer word becomes B, then M for
    every interior character, then E.
    """
    if not words:
        raise ValueError("empty segmentation")
    out: list[str] = []
    for w in words:
        if not w:
            raise ValueError("empty word in segmentation")
        if len(w) == 1:
            out.append("S")
        else:
            out.append("B" + "M" * (len(w) - 2) + "E")
    return "".join(out)


def tags_to_words(sentence: str, tags: str) -> list[str]:
    """Cut a sentence according to a BMES tag string.

    A word starts at position i > 0 exactly when tags[i] is B or S or
    tags[i-1] is E or S. This inverts a well-formed tag string
    ((S | B M* E)*) and repairs an ill-formed one, and the concatenation of
    the words always equals the sentence.
    """
    if len(sentence) != len(tags):
        raise ValueError(
            f"length mismatch: {len(sentence)} chars vs {len(tags)} tags")
    if not sentence:
        raise ValueError("empty sentence")
    bad = _NOT_A_TAG.search(tags)
    if bad:
        raise ValueError(f"unknown tag {bad.group()!r}")
    cuts = [0] + [i for i in range(1, len(tags))
                  if tags[i] in "BS" or tags[i - 1] in "ES"] + [len(tags)]
    return [sentence[a:b] for a, b in zip(cuts, cuts[1:])]


def is_well_formed(tags: str) -> bool:
    """True iff tags matches (S | B M* E)*."""
    return _WELL_FORMED.fullmatch(tags) is not None


@dataclass(frozen=True)
class LabeledDataset:
    """Tagged sentences from one domain.

    items holds (sentence, tags) pairs, each a non-empty sentence and a
    BMES tag of each of its characters; provenance marks, per item, whether
    the tags are human gold or produced by distant annotation. A bad item
    is a ValueError naming its index.
    """
    items: tuple[tuple[str, str], ...]
    domain: str
    provenance: tuple[str, ...] = ("gold",)

    def __post_init__(self):
        if self.domain not in ("source", "target"):
            raise ValueError(f"unknown domain {self.domain!r}")
        prov = self.provenance
        if len(prov) == 1 and len(self.items) != 1:
            prov = prov * len(self.items)
            object.__setattr__(self, "provenance", prov)
        if len(prov) != len(self.items):
            raise ValueError("provenance not aligned with items")
        for p in prov:
            if p not in ("gold", "distant"):
                raise ValueError(f"unknown provenance {p!r}")
        for i, (s, t) in enumerate(self.items):
            if not s:
                raise ValueError(f"item {i}: empty sentence")
            if len(s) != len(t):
                raise ValueError(f"item {i}: {len(t)} tags, {len(s)} chars")
            bad = set(t) - TAG_INDEX.keys()
            if bad:
                raise ValueError(f"item {i}: unknown tag {min(bad)!r}")

    def __len__(self) -> int:
        return len(self.items)


def dataset_from_segmented(segs: list[list[str]], domain: str,
                           provenance: str = "gold") -> LabeledDataset:
    items = tuple(("".join(ws), words_to_tags(ws)) for ws in segs)
    return LabeledDataset(items, domain, (provenance,) * len(items))


def read_lines(path: str) -> list[str]:
    """Every line of a UTF-8 text file without its line ending (LF or
    CRLF); a final newline leaves an empty last line. Invalid UTF-8 raises
    DecodeError naming the line."""
    with open(path, "rb") as f:
        blob = f.read()
    lines: list[str] = []
    for i, raw in enumerate(blob.split(b"\n"), start=1):
        raw = raw.rstrip(b"\r")
        try:
            lines.append(raw.decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise DecodeError(f"{path}: line {i}: invalid UTF-8 ({exc})") from None
    return lines


def raw_lines(path: str) -> list[str]:
    """Every line of a raw corpus as a sentence, whitespace dropped, so a
    blank line gives an empty one; a final newline adds no line. Invalid
    UTF-8 raises DecodeError naming the line."""
    lines = read_lines(path)
    if not lines[-1]:
        lines.pop()
    return ["".join(line.split()) for line in lines]


def load_raw(path: str) -> list[str]:
    """The non-empty sentences of a raw corpus, one per line (raw_lines)."""
    return [s for s in raw_lines(path) if s]


def load_segmented(path: str) -> list[list[str]]:
    """Read a segmented corpus, words separated by ASCII spaces.

    Runs of spaces are tolerated; empty lines are skipped. A token with
    internal whitespace raises DecodeError naming the line.
    """
    out = []
    for i, line in enumerate(read_lines(path), start=1):
        line = line.strip()
        if not line:
            continue
        words = [w for w in line.split(" ") if w]
        for w in words:
            if any(c.isspace() for c in w):
                raise DecodeError(f"{path}: line {i}: whitespace inside token")
        out.append(words)
    return out


def save_segmented(path: str, segs: list[list[str]]) -> None:
    """Write a segmented corpus with single spaces between words."""
    with open(path, "wb") as f:
        for ws in segs:
            f.write(" ".join(ws).encode("utf-8"))
            f.write(b"\n")


def vocabulary_of(segs: list[list[str]]) -> set[str]:
    """Set of distinct words of a segmented corpus."""
    vocab: set[str] = set()
    for ws in segs:
        vocab.update(ws)
    return vocab


def oov_rate(train_vocab: set[str], test_segs: list[list[str]]) -> float:
    """Fraction of test word tokens absent from train_vocab."""
    total = sum(len(ws) for ws in test_segs)
    if total == 0:
        raise ValueError("empty test corpus")
    oov = sum(1 for ws in test_segs for w in ws if w not in train_vocab)
    return oov / total
