"""Distant annotation: fuse lexicon matches with a base segmenter.

Spans found by forward maximum matching against the mined lexicon are
tagged directly; every residual gap is handed to the base segmenter as an
isolated string, so lexicon evidence never leaks into the segmenter
context. The gaps of a whole corpus are collected first and decoded in one
segment_batch call, which sorts them into length buckets; each gap is its
own row of a bucket, so it is still segmented in isolation. Each character
records which of the two annotators produced its tag.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

from .corpus import LabeledDataset, read_lines, words_to_tags
from .errors import DecodeError
from .miner import WordCollection


class SegmenterLike(Protocol):
    def segment_batch(self, sentences: list[str]) -> list[list[str]]: ...


def forward_max_match(sentence: str, collection: WordCollection,
                      ) -> list[tuple[int, int]]:
    """Leftmost-longest lexicon spans as half-open (start, end) pairs.

    At each position windows from min(max_word_len, remaining) down to 2
    characters are tried; single characters never match. After a hit the
    scan resumes past it, so spans never overlap.
    """
    spans: list[tuple[int, int]] = []
    n = len(sentence)
    top = collection.max_word_len
    if top < 2:
        return spans
    i = 0
    while i < n:
        hit = 0
        for l in range(min(top, n - i), 1, -1):
            if sentence[i:i + l] in collection:
                hit = l
                break
        if hit:
            spans.append((i, i + hit))
            i += hit
        else:
            i += 1
    return spans


@dataclass(frozen=True)
class AnnotatedSentence:
    sentence: str
    tags: str
    char_provenance: str  # per char: L (lexicon) or S (segmenter)

    def __post_init__(self):
        if not (len(self.sentence) == len(self.tags)
                == len(self.char_provenance)):
            raise ValueError("annotation fields differ in length")


def _pieces(sentence: str, collection: WordCollection,
            ) -> list[tuple[str, bool]]:
    """The sentence cut into its lexicon spans and the gaps between them,
    in order, as (text, from_lexicon) pairs."""
    pieces: list[tuple[str, bool]] = []
    pos = 0
    for start, end in forward_max_match(sentence, collection):
        if pos < start:
            pieces.append((sentence[pos:start], False))
        pieces.append((sentence[start:end], True))
        pos = end
    if pos < len(sentence):
        pieces.append((sentence[pos:], False))
    return pieces


def _annotate(raw: list[str], collection: WordCollection,
              base: SegmenterLike) -> list[AnnotatedSentence]:
    """Tag every sentence with its lexicon spans; all gaps of the corpus
    are filled by one segment_batch call of the base segmenter."""
    if not all(raw):
        raise ValueError("cannot annotate an empty sentence")
    cut = [_pieces(s, collection) for s in raw]
    fills = iter(base.segment_batch(
        [text for pieces in cut for text, lexical in pieces if not lexical]))
    out = []
    for sentence, pieces in zip(raw, cut):
        tags, prov = [], []
        for text, lexical in pieces:
            words = [text] if lexical else next(fills)
            tags.append(words_to_tags(words))
            prov.append(("L" if lexical else "S") * len(text))
        out.append(AnnotatedSentence(sentence, "".join(tags), "".join(prov)))
    return out


def distant_annotate(sentence: str, collection: WordCollection,
                     base: SegmenterLike) -> AnnotatedSentence:
    """Tag one sentence with lexicon spans plus base segmenter gap fills."""
    return _annotate([sentence], collection, base)[0]


def build_target_dataset(raw: list[str], collection: WordCollection,
                         base: SegmenterLike,
                         ) -> tuple[LabeledDataset, list[str]]:
    """Annotate a raw target corpus; returns the dataset plus per-sentence
    provenance strings."""
    annotated = _annotate(raw, collection, base)
    items = tuple((a.sentence, a.tags) for a in annotated)
    ds = LabeledDataset(items, "target", ("distant",) * len(items))
    return ds, [a.char_provenance for a in annotated]


def save_provenance(path: str, prov: list[str]) -> None:
    with open(path, "wb") as f:
        for p in prov:
            f.write(p.encode("ascii"))
            f.write(b"\n")


def load_provenance(path: str) -> list[str]:
    """The non-empty lines of a provenance file; a line holding anything
    but L and S raises DecodeError naming it."""
    out = []
    for i, line in enumerate(read_lines(path), start=1):
        if set(line) - {"L", "S"}:
            raise DecodeError(f"{path}: line {i}: provenance must be "
                              "L/S only")
        if line:
            out.append(line)
    return out
