"""Seeded inputs for the benchmark: the two-domain synthetic language,
relabelled per seed.

The construction follows the acceptance suite's toy language: filler text
walks a de Bruijn cycle over a 160-character palette, the mining corpus
closes exactly nine cycles, 30 three-character domain words are planted in
rotating contexts, and the source domain adds its own and a shared core
vocabulary. On top of that, a seed picks a bijective relabelling of all
238 characters into CJK ideographs (category Lo, so never a boundary for
the miner and never whitespace). Relabelling keeps every n-gram count and
the de Bruijn property, so mining recovers the same words; it changes the
vocabulary order, and with it the model initialisation. Seed None keeps
the original characters.

Everything is integer arithmetic plus one seeded random.Random draw, so a
seed regenerates its inputs byte for byte.
"""
from __future__ import annotations

import json
import random
import unicodedata
from dataclasses import dataclass

PALETTE_SIZE = 160
PALETTE = [chr(0x4E00 + i) for i in range(PALETTE_SIZE)]
SRC_CHARS = [chr(0x5100 + i) for i in range(50)]
CORE_CHARS = [chr(0x5200 + i) for i in range(28)]
ALPHABET = PALETTE + SRC_CHARS + CORE_CHARS

N_DOMAIN_WORDS = 30
WORD_OCCURRENCES = 160
HOST_SENTENCES = 20
N_MINING_SENTENCES = 5000
N_TARGET_TEST = 250
# 1600 source sentences give 100 adversarial steps per epoch at batch 16,
# enough for a p90 step time with ten samples above it.
N_SOURCE = 1600

_WORD_GAPS = [3, 3, 3, 3, 3, 3, 2, 2, 2]
# CJK Unified Ideographs block as assigned since Unicode 1.1.
_IDEOGRAPHS = range(0x4E00, 0x9FA6)


def de_bruijn(k: int, n: int) -> list[int]:
    """Lexicographically least de Bruijn sequence over k symbols, order n."""
    a = [0] * (k * n)
    seq: list[int] = []

    def db(t: int, p: int) -> None:
        if t > n:
            if n % p == 0:
                seq.extend(a[1:p + 1])
        else:
            a[t] = a[t - p]
            db(t + 1, p)
            for j in range(a[t - p] + 1, k):
                a[t] = j
                db(t + 1, t)

    db(1, 1)
    return seq


_CYCLE = de_bruijn(PALETTE_SIZE, 2)


class _Filler:
    """Endless cursor over the palette de Bruijn cycle."""

    def __init__(self, offset: int):
        self.pos = offset % len(_CYCLE)

    def take(self, n: int) -> list[str]:
        out = []
        for _ in range(n):
            out.append(PALETTE[_CYCLE[self.pos]])
            self.pos = (self.pos + 1) % len(_CYCLE)
        return out


def _perm(i: int) -> int:
    return (i * 37 + 11) % PALETTE_SIZE


DOMAIN_WORDS = ["".join(PALETTE[_perm(3 * w + j)] for j in range(3))
                for w in range(N_DOMAIN_WORDS)]
SRC_WORDS = (["".join(SRC_CHARS[2 * i + j] for j in range(2))
              for i in range(10)]
             + ["".join(SRC_CHARS[20 + 3 * i + j] for j in range(3))
                for i in range(10)])
CORE_WORDS = (["".join(CORE_CHARS[2 * i + j] for j in range(2))
               for i in range(8)]
              + ["".join(CORE_CHARS[16 + 3 * i + j] for j in range(3))
                 for i in range(4)])


def _block(w: int, k: int) -> list[str]:
    left = PALETTE[(k + 37 * w + 5) % PALETTE_SIZE]
    right = PALETTE[(k + 53 * w + 101) % PALETTE_SIZE]
    return [left, DOMAIN_WORDS[w], right]


def _mining_corpus() -> list[list[str]]:
    filler = _Filler(0)
    out = []
    for i in range(N_MINING_SENTENCES):
        words: list[str] = []
        if i < N_DOMAIN_WORDS * HOST_SENTENCES:
            w, j = divmod(i, HOST_SENTENCES)
            for b in range(8):
                words += filler.take(_WORD_GAPS[b]) + _block(w, 8 * j + b)
            words += filler.take(_WORD_GAPS[8])
        elif i < N_DOMAIN_WORDS * HOST_SENTENCES + 120:
            u = i - N_DOMAIN_WORDS * HOST_SENTENCES
            words += (filler.take(20) + [CORE_WORDS[u % len(CORE_WORDS)]]
                      + filler.take(24))
        elif i < N_DOMAIN_WORDS * HOST_SENTENCES + 120 + 3280:
            words += filler.take(49)
        else:
            words += filler.take(50)
        out.append(words)
    if filler.pos != 0:
        raise AssertionError("mining corpus must close the de Bruijn cycle")
    return out


def _target_train_indices() -> list[int]:
    idx = [20 * w + t for w in range(N_DOMAIN_WORDS) for t in range(12)]
    idx += [600 + 3 * u for u in range(40)]
    idx += [720 + 53 * u for u in range(80)]
    return idx


def _source_corpus() -> list[list[str]]:
    filler = _Filler(12800)
    out = []
    for i in range(N_SOURCE):
        s1 = SRC_WORDS[i % len(SRC_WORDS)]
        s2 = SRC_WORDS[(7 * i + 3) % len(SRC_WORDS)]
        c1 = CORE_WORDS[i % len(CORE_WORDS)]
        c2 = CORE_WORDS[(5 * i + 7) % len(CORE_WORDS)]
        out.append(filler.take(4) + [s1] + filler.take(3) + [c1]
                   + filler.take(4) + [s2] + filler.take(3) + [c2]
                   + filler.take(3))
    return out


def _target_test_corpus() -> list[list[str]]:
    filler = _Filler(7000)
    out = []
    for i in range(N_TARGET_TEST):
        w1 = (2 * i) % N_DOMAIN_WORDS
        w2 = (2 * i + 1) % N_DOMAIN_WORDS
        out.append(filler.take(5) + _block(w1, (3 * i) % WORD_OCCURRENCES)
                   + filler.take(5) + [CORE_WORDS[i % len(CORE_WORDS)]]
                   + filler.take(5)
                   + _block(w2, (3 * i + 1) % WORD_OCCURRENCES)
                   + filler.take(5))
    return out


def relabelling(seed: int | None) -> dict[str, str]:
    """Seed-chosen bijection from the toy alphabet into CJK ideographs."""
    if seed is None:
        return {c: c for c in ALPHABET}
    pool = [chr(c) for c in _IDEOGRAPHS
            if unicodedata.category(chr(c)) == "Lo"]
    return dict(zip(ALPHABET, random.Random(seed).sample(pool, len(ALPHABET))))


@dataclass(frozen=True)
class Inputs:
    """Everything a workload feeds the program, relabelled for one seed."""
    raw: list[str]                  # 5000 raw target sentences (mining corpus)
    planted: list[str]              # the 30 target-domain words
    source: list[list[str]]         # gold-segmented source sentences
    target_train: list[str]         # raw target sentences for silver training
    test: list[list[str]]           # held-out gold target sentences

    def to_bytes(self) -> bytes:
        """Canonical serialisation, for byte-identity checks."""
        return json.dumps([self.raw, self.planted, self.source,
                           self.target_train, self.test],
                          ensure_ascii=False).encode("utf-8")


def make_inputs(seed: int | None) -> Inputs:
    table = str.maketrans(relabelling(seed))

    def segs(corpus: list[list[str]]) -> list[list[str]]:
        return [[w.translate(table) for w in ws] for ws in corpus]

    raw = ["".join(ws) for ws in segs(_mining_corpus())]
    return Inputs(
        raw=raw,
        planted=[w.translate(table) for w in DOMAIN_WORDS],
        source=segs(_source_corpus()),
        target_train=[raw[i] for i in _target_train_indices()],
        test=segs(_target_test_corpus()),
    )
