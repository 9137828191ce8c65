"""Domain word mining from raw text.

Candidate character n-grams are scored on three axes:

  cohesion        MIS(t) = min over split points of p(t) / (p(left) p(right)),
                  probabilities relative to the total count of same-length
                  n-grams
  flexibility     ES(t) = min of the left and right neighbour distribution
                  entropies (natural log); a side with no recorded
                  neighbours contributes 0
  importance      tfidf(t) = tf * ln(num_docs / doc_freq), one document per
                  input line

Each score is max-min normalized over the candidate set and the three are
summed through a sigmoid: p_val = sigma(N[MIS] + N[ES] + N[tfidf]), which
confines p_val to [sigma(0), sigma(3)]. A word enters the lexicon when
p_val clears the threshold and its frequency strictly exceeds the floor.

Counting walks maximal runs between boundary characters (punctuation and
whitespace) after removing stop-word occurrences, so no counted n-gram
crosses a hard boundary. Statistics collection is pure, and every
structure here is read-only after construction.
"""
from __future__ import annotations

import math
import re
import unicodedata
from dataclasses import dataclass, field

from .errors import UndefinedProbabilityError


@dataclass(frozen=True)
class MinerConfig:
    n_min: int = 2
    n_max: int = 6
    p_val_threshold: float = 0.95
    min_frequency: int = 10  # strict greater-than floor
    stop_words: frozenset[str] = frozenset()

    def __post_init__(self):
        if not (2 <= self.n_min <= self.n_max):
            raise ValueError("need 2 <= n_min <= n_max")
        if not (0.0 < self.p_val_threshold < 1.0):
            raise ValueError("p_val_threshold must lie in (0, 1)")
        if self.min_frequency < 0:
            raise ValueError("min_frequency must be non-negative")


def _is_boundary(c: str) -> bool:
    return c.isspace() or unicodedata.category(c).startswith("P")


def _runs(sentence: str, cfg: MinerConfig) -> list[str]:
    """Maximal substrings free of boundary characters and stop-words."""
    parts, cur = [], []
    for c in sentence:
        if _is_boundary(c):
            if cur:
                parts.append("".join(cur))
                cur = []
        else:
            cur.append(c)
    if cur:
        parts.append("".join(cur))
    if cfg.stop_words:
        pat = re.compile("|".join(
            re.escape(w) for w in sorted(cfg.stop_words, key=len, reverse=True)))
        parts = [piece for run in parts for piece in pat.split(run) if piece]
    return [p for p in parts if p]


@dataclass
class NGramStats:
    """Raw counts gathered from a corpus."""
    counts: dict[str, int] = field(default_factory=dict)
    total_per_length: dict[int, int] = field(default_factory=dict)
    left: dict[str, dict[str, int]] = field(default_factory=dict)
    right: dict[str, dict[str, int]] = field(default_factory=dict)
    doc_freq: dict[str, int] = field(default_factory=dict)
    num_docs: int = 0


def collect_stats(corpus: list[str], cfg: MinerConfig) -> NGramStats:
    """Count n-grams of length 1..n_max, neighbours and document frequency.

    Every input sentence is one document. Neighbours are the characters
    immediately adjacent to an occurrence inside its run; occurrences at
    run edges record nothing on that side.
    """
    st = NGramStats()
    counts = st.counts
    totals = st.total_per_length
    left, right = st.left, st.right
    doc_freq = st.doc_freq
    for sentence in corpus:
        st.num_docs += 1
        seen: set[str] = set()
        for run in _runs(sentence, cfg):
            m = len(run)
            for l in range(1, cfg.n_max + 1):
                if l > m:
                    break
                totals[l] = totals.get(l, 0) + (m - l + 1)
                for i in range(m - l + 1):
                    g = run[i:i + l]
                    counts[g] = counts.get(g, 0) + 1
                    seen.add(g)
                    if i > 0:
                        d = left.get(g)
                        if d is None:
                            d = left[g] = {}
                        c = run[i - 1]
                        d[c] = d.get(c, 0) + 1
                    j = i + l
                    if j < m:
                        d = right.get(g)
                        if d is None:
                            d = right[g] = {}
                        c = run[j]
                        d[c] = d.get(c, 0) + 1
        for g in seen:
            doc_freq[g] = doc_freq.get(g, 0) + 1
    return st


def probability(stats: NGramStats, t: str) -> float:
    """count(t) / total count of n-grams with t's length."""
    c = stats.counts.get(t)
    if c is None:
        raise UndefinedProbabilityError(f"n-gram never recorded: {t!r}")
    return c / stats.total_per_length[len(t)]


def mutual_information_score(stats: NGramStats, t: str) -> float:
    """Minimum over binary splits of p(t) / (p(left) * p(right))."""
    if len(t) < 2:
        raise ValueError("MIS needs at least two characters")
    pt = probability(stats, t)
    best = math.inf
    for j in range(1, len(t)):
        r = pt / (probability(stats, t[:j]) * probability(stats, t[j:]))
        if r < best:
            best = r
    return best


def _entropy(neigh: dict[str, int] | None) -> float:
    if not neigh:
        return 0.0
    total = sum(neigh.values())
    h = 0.0
    # fixed summation order keeps the result invariant to corpus order
    for _, k in sorted(neigh.items()):
        p = k / total
        h -= p * math.log(p)
    return h


def entropy_score(stats: NGramStats, t: str) -> float:
    """min(left neighbour entropy, right neighbour entropy)."""
    if t not in stats.counts:
        raise UndefinedProbabilityError(f"n-gram never recorded: {t!r}")
    return min(_entropy(stats.left.get(t)), _entropy(stats.right.get(t)))


def tfidf_score(stats: NGramStats, t: str) -> float:
    """Length-relative term frequency times ln(num_docs / doc_freq)."""
    tf = probability(stats, t)
    return tf * math.log(stats.num_docs / stats.doc_freq[t])


@dataclass(frozen=True)
class CandidateScore:
    text: str
    frequency: int
    mis: float
    es: float
    tfidf: float
    p_val: float


def _sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def _normalize(values: list[float]) -> list[float]:
    lo, hi = min(values), max(values)
    if hi == lo:
        return [0.0] * len(values)
    span = hi - lo
    return [(v - lo) / span for v in values]


def score_candidates(stats: NGramStats, cfg: MinerConfig) -> list[CandidateScore]:
    """Score every n-gram with n_min <= len <= n_max and frequency strictly
    above the floor. Returns candidates sorted by text."""
    cand = sorted(g for g, c in stats.counts.items()
                  if cfg.n_min <= len(g) <= cfg.n_max and c > cfg.min_frequency)
    if not cand:
        return []
    mis = [mutual_information_score(stats, g) for g in cand]
    es = [entropy_score(stats, g) for g in cand]
    tfidf = [tfidf_score(stats, g) for g in cand]
    n_mis, n_es, n_tf = _normalize(mis), _normalize(es), _normalize(tfidf)
    out = []
    for i, g in enumerate(cand):
        p = _sigmoid(n_mis[i] + n_es[i] + n_tf[i])
        out.append(CandidateScore(g, stats.counts[g], mis[i], es[i],
                                  tfidf[i], p))
    return out


@dataclass(frozen=True)
class WordCollection:
    """Mined lexicon: word -> scores, ordered for deterministic export."""
    entries: dict[str, CandidateScore]

    @property
    def max_word_len(self) -> int:
        return max((len(w) for w in self.entries), default=0)

    def __contains__(self, w: str) -> bool:
        return w in self.entries

    def __len__(self) -> int:
        return len(self.entries)


def _lexicon_order(c: CandidateScore) -> tuple:
    return (-c.p_val, -c.frequency, c.text)


def mine(corpus: list[str], cfg: MinerConfig) -> WordCollection:
    """Full pipeline: count, score, threshold."""
    stats = collect_stats(corpus, cfg)
    scored = score_candidates(stats, cfg)
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
    from .errors import DecodeError
    entries: dict[str, CandidateScore] = {}
    with open(path, "rb") as f:
        for i, raw in enumerate(f.read().split(b"\n"), start=1):
            if not raw:
                continue
            try:
                word, freq, mis, es, tfidf, p_val = \
                    raw.decode("utf-8").split("\t")
                entries[word] = CandidateScore(
                    word, int(freq), float(mis), float(es), float(tfidf),
                    float(p_val))
            except (ValueError, UnicodeDecodeError) as exc:
                raise DecodeError(f"{path}: line {i}: bad lexicon row "
                                  f"({exc})") from None
    return WordCollection(entries)
