"""Domain word mining from raw text.

Candidate character n-grams are scored on three axes:

  cohesion        MIS(t) = min over split points of p(t) / (p(left) p(right)),
                  probabilities relative to the total count of same-length
                  n-grams
  flexibility     ES(t) = min of the left and right branching entropies
                  (natural log), read off the counts of the (n+1)-grams
                  c+t and t+c; a side with no such gram contributes 0
  importance      tfidf(t) = tf * ln(num_docs / doc_freq), one document per
                  input line

Each score is max-min normalized over the candidate set and the three are
summed through a sigmoid: p_val = sigma(N[MIS] + N[ES] + N[tfidf]), which
confines p_val to [sigma(0), sigma(3)]. A word enters the lexicon when
p_val clears the threshold and its frequency strictly exceeds the floor.

Counting walks maximal runs between boundary characters (punctuation and
whitespace) after removing stop-word occurrences, so no counted n-gram
crosses a hard boundary; the runs of the whole corpus are found in one
pass over it. It counts only the grams the frequency floor lets matter,
level by level up to n_max + 1 characters (Apriori's rule: a gram clears
the floor only if its prefix and suffix do): every frequent gram, every
split of one that MIS reads and every (n+1)-gram neighbour that ES
reads, each with its exact count. Scores therefore exist only for the
candidates, the frequent grams of length n_min..n_max (a recorded
neighbour gram's own neighbours may be unrecorded), and score_candidates
is the one scorer.
Grams are counted as integer ids, numbered once per level: a gram's
int64 key is its prefix's id and its last character (a counted gram's
prefix is always counted), and a level counts its keys with one bincount
where the key space is no larger than its live positions, with one
np.unique sort elsewhere. Each gram keeps links to the ids of its prefix
and suffix one level down, and scoring reads the ids alone: splits by
following the links, neighbours as the grams one level up that link to
a candidate. Only the candidates are sliced into strings. Statistics
collection is pure, and every structure here is read-only after
construction.
"""
from __future__ import annotations

import math
import re
import unicodedata
from dataclasses import dataclass, field
from functools import cached_property
from numbers import Integral
from typing import NamedTuple

import numpy as np

from .corpus import read_lines
from .errors import DecodeError


@dataclass(frozen=True)
class MinerConfig:
    n_min: int = 2
    n_max: int = 6
    p_val_threshold: float = 0.95
    min_frequency: int = 10  # strict greater-than floor
    stop_words: frozenset[str] = frozenset()

    def __post_init__(self):
        for name in ("n_min", "n_max", "min_frequency"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise ValueError(f"{name} must be an integer")
        if not (2 <= self.n_min <= self.n_max):
            raise ValueError("need 2 <= n_min <= n_max")
        if not (0.0 < self.p_val_threshold < 1.0):
            raise ValueError("p_val_threshold must lie in (0, 1)")
        if self.min_frequency < 0:
            raise ValueError("min_frequency must be non-negative")
        if isinstance(self.stop_words, str):  # would mean its characters
            raise ValueError("stop_words must be a collection of strings, "
                             "not one string")
        object.__setattr__(self, "stop_words", frozenset(self.stop_words))
        for w in self.stop_words:
            if not isinstance(w, str) or not w:
                raise ValueError(f"stop word {w!r} must be a non-empty string")


def _is_boundary(c: str) -> bool:
    """Whitespace (what str.split() breaks on) and punctuation."""
    return c.isspace() or unicodedata.category(c).startswith("P")


def _key_ids(key: np.ndarray, space: int) -> tuple[np.ndarray, np.ndarray]:
    """Ids of integer keys, 0 <= key < space, numbered in ascending key
    order (int32), and the count of each id. A bincount over the key space
    with an id lookup table gives them where the space is no larger than
    the keys, a sort (np.unique) elsewhere; the two agree exactly."""
    if space <= len(key):
        found = np.bincount(key, minlength=space)
        seen = found > 0
        return (np.cumsum(seen, dtype=np.int32) - 1)[key], found[seen]
    _, ids, found = np.unique(key, return_inverse=True, return_counts=True)
    return ids.astype(np.int32), found


def _runs(corpus: list[str], cfg: MinerConfig):
    """The maximal substrings of the corpus sentences free of boundary
    characters and stop words, found in one pass over the corpus joined by
    newlines: (the runs' joined text, their lengths, the sentence of each
    of their characters, the table key of each of their characters, the
    size of that key space); the lengths and sentences are int32.

    Each distinct code point is classified once, into a table that every
    character reads its boundary flag from: a table over the code points
    where their space is no larger than the characters, over the sorted
    distinct code points elsewhere (as _key_ids numbers keys). A
    character's key is its slot in that table, so keys ascend with code
    points, and collect_stats numbers them as its first level. Stop-word
    occurrences are blanked with one scan of the whole text, leftmost
    first and longest word first at one start; a stop word holding a
    boundary character can never match inside a run, so it is left out of
    the scan."""
    joined = "\n".join(corpus)  # "\n" is a boundary, so no run crosses it
    code = np.frombuffer(joined.encode("utf-32-le", "surrogatepass"),
                         np.uint32)
    space = int(code.max(initial=0)) + 1
    if space <= len(code):
        key = code
        point = slot = np.flatnonzero(np.bincount(code, minlength=space))
    else:
        point, key = np.unique(code, return_inverse=True)
        space = len(point)
        slot = np.arange(space)
    used = np.zeros(space, bool)  # the code points the runs hold
    used[slot] = [not _is_boundary(chr(c)) for c in point.tolist()]
    keep = used[key]
    words = sorted((w for w in cfg.stop_words
                    if not any(map(_is_boundary, w))), key=len, reverse=True)
    if words:
        pat = re.compile("|".join(map(re.escape, words)))
        span = np.array([m.span() for m in pat.finditer(joined)],
                        np.int64).reshape(-1, 2)
        edge = np.zeros(len(code) + 1, np.int8)
        edge[span[:, 0]] = 1  # matches never overlap
        edge[span[:, 1]] -= 1
        keep &= np.cumsum(edge[:-1], dtype=np.int8) == 0
    at = np.flatnonzero(keep)
    kept = code[at]
    text = kept.tobytes().decode("utf-32-le", "surrogatepass")
    # keep flips on at the start of each run and off after its end
    flips = np.flatnonzero(np.diff(keep, prepend=False, append=False))
    start = flips[::2]
    lengths = (flips[1::2] - start).astype(np.int32)
    sizes = np.fromiter(map(len, corpus), np.int64, len(corpus)) + 1
    # the sentence of each run's first character, and so of all of them
    doc = np.repeat(np.searchsorted(np.cumsum(sizes), start, "right")
                    .astype(np.int32), lengths)
    return text, lengths, doc, kept if key is code else key[at], space


@dataclass(frozen=True)
class _Level:
    """The grams of one length that collect_stats counted, by id. Ids
    ascend by (prefix id, level 1 id of the last character), so by text in
    code point order. Level 1 numbers the characters by code point, and
    its prefix and suffix are the empty gram, 0."""
    count: np.ndarray       # occurrences of each gram
    at: np.ndarray          # one start position of each in the runs' text
    prefix: np.ndarray      # the id one level down of each gram's prefix
    suffix: np.ndarray      # and of its suffix, one position later
    candidates: np.ndarray  # the ids of the candidates, ascending
    doc_freq: np.ndarray    # the documents holding each candidate


@dataclass(frozen=True, eq=False)
class NGramStats:
    """Counts gathered from a corpus by collect_stats, as integer ids.

    levels[l - 1] holds the recorded l-grams: all characters, and the
    longer grams whose prefix or suffix is frequent (counted more often
    than the floor), each with its exact count. A gram absent from them
    may still occur in the corpus, below the floor. The candidates are
    exactly the frequent grams of length n_min..n_max.
    total_per_length counts every position of each length. counts gives
    the recorded grams by text; it slices its strings on first read, which
    scoring never needs."""
    text: str  # the runs, joined
    levels: tuple[_Level, ...]
    total_per_length: dict[int, int]
    num_docs: int

    @cached_property
    def counts(self) -> dict[str, int]:
        text = self.text
        return {text[p:p + l]: k for l, lv in enumerate(self.levels, 1)
                for p, k in zip(lv.at.tolist(), lv.count.tolist())}


def collect_stats(corpus: list[str], cfg: MinerConfig) -> NGramStats:
    """Count the n-grams that can matter at the frequency floor, level by
    level, and the document frequency of the frequent candidates.

    All characters are counted. An l-gram, 2 <= l <= n_max + 1, is counted
    wherever its (l-1)-prefix or its (l-1)-suffix is frequent (count above
    the floor). Whether a gram is counted depends only on its text, so
    every recorded count is exact, and the recorded grams cover every
    frequent gram (a frequent gram's prefix and suffix are at least as
    frequent), every split of one, and every neighbour c+t and t+c of a
    frequent t. Counting stops at the first level with nothing to count.

    The runs of the whole corpus come from one pass over it (_runs).
    Grams are counted as integer ids, numbered once per level (_key_ids)
    over the live positions of the joined runs: by a bincount over the key
    space where that space is no larger than the positions, by a sort
    elsewhere, both in ascending key order. No gram is sliced into a
    string here. Level 1's keys are the characters' slots in _runs' code
    point table, and its ids number the alphabet. An l-gram's key, l >= 2,
    is (prefix id, its last character's id), in a space of the distinct
    prefixes times the alphabet. Its prefix is always counted: if its
    suffix is frequent, so is the suffix's own prefix, which is the
    prefix's suffix. So, by induction on l, one text always gets one id,
    and the prefix and suffix of a counted gram are counted one level
    down, where its links to them are read at its position and the next.
    Positions and ids are int32, so the runs must hold under 2**31
    characters; keys then stay below 2**31 * 0x110000.

    total_per_length counts every position of every length, recorded or
    not, from the run lengths. Candidates are the frequent grams of length
    n_min..n_max only; every input sentence is one document, and a
    candidate's documents are counted by sorting its level's (document,
    id) keys once.
    """
    floor, top = cfg.min_frequency, cfg.n_max + 1
    text, lengths, doc, key, space = _runs(corpus, cfg)
    char, found = _key_ids(key, space)  # level 1 numbers the alphabet
    ids, width = char, len(found)
    del key
    levels = []
    pos = np.arange(len(text), dtype=np.int32)  # live start positions
    # the last level's id at each position, first level 0's: the empty gram
    where = np.zeros(len(text) + 1, np.int32)
    # characters from each position to the end of its run
    room = np.repeat(np.cumsum(lengths, dtype=np.int32), lengths) - pos
    # an l-gram starts wherever l characters remain in its run, so a run
    # of n characters holds n - l + 1 of them
    runs = np.bincount(lengths)  # the runs of each length
    size = np.arange(len(runs))
    totals = {l: k for l in range(1, top + 1)
              if (k := int(runs[l:] @ (size[l:] - (l - 1))))}
    for l in range(1, top + 1):
        num = len(found)
        at = np.empty(num, np.int32)
        at[ids] = pos  # one occurrence of each gram
        prefix, suffix = where[at], where[at + 1]
        where[pos] = ids
        frequent = found > floor
        hit = frequent[ids]
        cand = df = np.empty(0, np.int64)
        if cfg.n_min <= l < top:
            pairs = np.sort(doc[pos[hit]] * np.int64(num) + ids[hit])
            once = np.diff(pairs, prepend=-1) != 0
            cand = np.flatnonzero(frequent)
            df = np.bincount(pairs[once] % num, minlength=num)[cand]
        levels.append(_Level(found, at, prefix, suffix, cand, df))
        if l == top:
            break
        flag = np.zeros(len(room) + 1, bool)
        flag[pos[hit]] = True
        flag[:-1] |= flag[1:]  # frequent prefix at p or suffix at p + 1
        flag[:-1] &= room > l  # and the (l+1)-gram fits in its run
        live = flag[pos]  # every next start has a counted prefix here
        pos = pos[live]
        if not len(pos):
            break
        key = np.multiply(ids[live], width, dtype=np.int64)
        key += char[pos + l]
        ids, found = _key_ids(key, num * width)
        del key
    return NGramStats(text, tuple(levels), totals, len(corpus))


def _entropies(group: np.ndarray, count: np.ndarray, wanted: np.ndarray,
               size: int) -> np.ndarray:
    """The branching entropy (natural log) of each wanted gram of a level
    of size ids, 0 where it has no neighbour: row i of count counts a
    neighbour of gram group[i], and one gram's rows come in character
    order. Logs come from math.log, and bincount adds each gram's terms
    one by one in row order."""
    keep = np.zeros(size, bool)
    keep[wanted] = True
    keep = keep[group]
    group, count = group[keep], count[keep]
    p = count / np.bincount(group, weights=count, minlength=size)[group]
    log = np.fromiter(map(math.log, p.tolist()), float, len(p))
    return np.bincount(group, weights=-(p * log), minlength=size)[wanted]


class CandidateScore(NamedTuple):
    """The scores of one candidate. A NamedTuple, so it also compares
    equal to the plain 6-tuple of its fields."""
    text: str
    frequency: int
    mis: float
    es: float
    tfidf: float
    p_val: float


def _sigmoid(x: float) -> float:
    # x sums three max-min normalized scores, so it lies in [0, 3] and
    # exp(-x) cannot overflow
    return 1.0 / (1.0 + math.exp(-x))


def _normalize(values: np.ndarray) -> np.ndarray:
    lo, hi = values.min(), values.max()
    if hi == lo:
        return np.zeros_like(values)
    return (values - lo) / (hi - lo)


def score_candidates(stats: NGramStats) -> list[CandidateScore]:
    """Score the candidates (every n-gram with n_min <= len <= n_max and
    frequency strictly above the floor), sorted by text. p(t) is count(t)
    over the total count of t's length.

    Scoring reads the ids: a candidate's splits are the ends of its chains
    of prefix and suffix links, its right neighbours the grams one level
    up whose prefix it is, its left ones those whose suffix it is. Ids
    ascend in text order, so the neighbours on either side come in the
    order of the character they add. Only the candidates are sliced into
    strings."""
    levels, totals = stats.levels, stats.total_per_length
    texts, cols = [], []
    for n, lv in enumerate(levels, 1):
        c = lv.candidates
        if not len(c):
            continue
        pt = lv.count[c] / totals[n]
        # pre[i] holds the ids of the candidates' (n-i)-prefixes, suf[i]
        # those of their suffixes from character i on
        pre, suf = [c], [c]
        for i in range(1, n):
            pre.append(levels[n - i].prefix[pre[-1]])
            suf.append(levels[n - i].suffix[suf[-1]])
        mis = np.full(len(c), math.inf)
        for j in range(1, n):
            r = pt / ((levels[j - 1].count[pre[n - j]] / totals[j])
                      * (levels[n - j - 1].count[suf[j]] / totals[n - j]))
            np.minimum(mis, r, out=mis)
        es = np.zeros(len(c))
        if n < len(levels):  # the grams one character longer
            up, size = levels[n], len(lv.count)
            es = np.minimum(_entropies(up.suffix, up.count, c, size),
                            _entropies(up.prefix, up.count, c, size))
        idf = (stats.num_docs / lv.doc_freq).tolist()
        tfidf = pt * np.fromiter(map(math.log, idf), float, len(idf))
        texts += [stats.text[p:p + n] for p in lv.at[c].tolist()]
        cols.append((lv.count[c], mis, es, tfidf))
    if not texts:
        return []
    order = np.array(sorted(range(len(texts)), key=texts.__getitem__))
    freq, mis, es, tfidf = (np.concatenate(col)[order] for col in zip(*cols))
    p_val = map(_sigmoid, (_normalize(mis) + _normalize(es)
                           + _normalize(tfidf)).tolist())
    return list(map(CandidateScore._make,
                    zip([texts[i] for i in order.tolist()], freq.tolist(),
                        mis.tolist(), es.tolist(), tfidf.tolist(), p_val)))


@dataclass(frozen=True)
class WordCollection:
    """Mined lexicon: word -> scores, ordered for deterministic export."""
    entries: dict[str, CandidateScore]
    max_word_len: int = field(init=False, compare=False)

    def __post_init__(self):
        # forward maximum matching reads this once per sentence
        object.__setattr__(self, "max_word_len",
                           max(map(len, self.entries), default=0))

    def __contains__(self, w: str) -> bool:
        return w in self.entries

    def __len__(self) -> int:
        return len(self.entries)


def _lexicon_order(c: CandidateScore) -> tuple:
    return (-c.p_val, -c.frequency, c.text)


def mine(corpus: list[str], cfg: MinerConfig) -> WordCollection:
    """Full pipeline: count, score, threshold."""
    stats = collect_stats(corpus, cfg)
    scored = score_candidates(stats)
    kept = sorted((c for c in scored if c.p_val >= cfg.p_val_threshold),
                  key=_lexicon_order)
    return WordCollection({c.text: c for c in kept})


def lexicon_to_tsv(collection: WordCollection) -> bytes:
    """TSV rows: word, frequency, mis, es, tfidf, p_val. Reals use six
    significant digits; rows sort by p_val then frequency descending, then
    word. Byte deterministic."""
    rows = sorted(collection.entries.values(), key=_lexicon_order)
    lines = []
    for c in rows:
        lines.append("\t".join([
            c.text, str(c.frequency), format(c.mis, ".6g"),
            format(c.es, ".6g"), format(c.tfidf, ".6g"),
            format(c.p_val, ".6g")]))
    return ("\n".join(lines) + ("\n" if lines else "")).encode("utf-8")


def save_lexicon(path: str, collection: WordCollection) -> None:
    with open(path, "wb") as f:
        f.write(lexicon_to_tsv(collection))


def load_lexicon(path: str) -> WordCollection:
    """Read the rows save_lexicon writes; blank lines are skipped. A row
    mine never writes (not six columns, a bad number, a frequency that is
    not ASCII decimal digits, an empty word or one holding whitespace, a
    non-finite score, a repeated word) is a DecodeError naming the line."""
    entries: dict[str, CandidateScore] = {}
    for i, line in enumerate(read_lines(path), start=1):
        if not line:
            continue
        try:
            word, freq, mis, es, tfidf, p_val = line.split("\t")
            if not (freq.isascii() and freq.removeprefix("-").isdigit()):
                raise ValueError(f"frequency {freq!r} is not decimal digits")
            c = CandidateScore(word, int(freq), float(mis), float(es),
                               float(tfidf), float(p_val))
            if not word or any(ch.isspace() for ch in word):
                raise ValueError(f"word {word!r} is empty or holds whitespace")
            if freq.startswith("-"):  # -0 too: mine writes no sign
                raise ValueError(f"negative frequency {freq}")
            if not all(map(math.isfinite, (c.mis, c.es, c.tfidf, c.p_val))):
                raise ValueError("a score is not finite")
        except ValueError as exc:
            raise DecodeError(f"{path}: line {i}: bad lexicon row "
                              f"({exc})") from None
        if word in entries:
            raise DecodeError(f"{path}: line {i}: repeated word {word!r}")
        entries[word] = c
    return WordCollection(entries)
