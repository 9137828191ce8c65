"""Distant annotation: fuse lexicon matches with a base segmenter.

Spans found by forward maximum matching against the mined lexicon are
tagged directly; every residual gap is handed to the base segmenter as an
isolated string, so lexicon evidence never leaks into the segmenter
context. Each character records which of the two annotators produced its
tag.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

from .corpus import LabeledDataset, words_to_tags
from .miner import WordCollection


class SegmenterLike(Protocol):
    def segment(self, sentence: str) -> list[str]: ...


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


def distant_annotate(sentence: str, collection: WordCollection,
                     base: SegmenterLike) -> AnnotatedSentence:
    """Tag one sentence with lexicon spans plus base segmenter gap fills."""
    if not sentence:
        raise ValueError("cannot annotate an empty sentence")
    spans = forward_max_match(sentence, collection)
    tags: list[str] = []
    prov: list[str] = []
    pos = 0

    def fill_gap(lo: int, hi: int) -> None:
        if lo >= hi:
            return
        words = base.segment(sentence[lo:hi])
        tags.append(words_to_tags(words))
        prov.append("S" * (hi - lo))

    for start, end in spans:
        fill_gap(pos, start)
        tags.append("B" + "M" * (end - start - 2) + "E")
        prov.append("L" * (end - start))
        pos = end
    fill_gap(pos, len(sentence))
    return AnnotatedSentence(sentence, "".join(tags), "".join(prov))


def build_target_dataset(raw: list[str], collection: WordCollection,
                         base: SegmenterLike,
                         ) -> tuple[LabeledDataset, list[str]]:
    """Annotate a raw target corpus; returns the dataset plus per-sentence
    provenance strings."""
    annotated = [distant_annotate(s, collection, base) for s in raw]
    items = tuple((a.sentence, a.tags) for a in annotated)
    ds = LabeledDataset(items, "target", ("distant",) * len(items))
    return ds, [a.char_provenance for a in annotated]


def save_provenance(path: str, prov: list[str]) -> None:
    with open(path, "wb") as f:
        for p in prov:
            f.write(p.encode("ascii"))
            f.write(b"\n")


def load_provenance(path: str) -> list[str]:
    from .errors import DecodeError
    out = []
    with open(path, "rb") as f:
        for i, raw in enumerate(f.read().split(b"\n"), start=1):
            if not raw:
                continue
            line = raw.decode("ascii", "replace")
            if set(line) - {"L", "S"}:
                raise DecodeError(f"{path}: line {i}: provenance must be "
                                  "L/S only")
            out.append(line)
    return out
