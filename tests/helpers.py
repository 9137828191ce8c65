"""Independent oracles the tests compare library output against.

Everything here is written from scratch in the most direct way possible
(full enumeration, Counter arithmetic, one sentence at a time) so
agreement with the library is meaningful rather than circular.
"""
from __future__ import annotations

import itertools
import math
import re
import unicodedata
from collections import Counter
from collections.abc import Callable, Iterable
from dataclasses import dataclass

import numpy as np

from crossseg.autodiff import (Tensor, concat_cols, conv1d, gather_rows,
                               log, mul, scale, sigmoid, sub, sum_all)
from crossseg.corpus import TAG_INDEX, tags_to_words
from crossseg.miner import CandidateScore, MinerConfig, NGramStats
from crossseg.nn import UNK_INDEX

N_TAGS = 4


def logistic_ref(a: np.ndarray) -> np.ndarray:
    """The logistic function elementwise, branch by branch: 1 / (1 + e^-a)
    for a >= 0 and e^a / (1 + e^a) below, so exp never overflows."""
    out = np.empty(np.shape(a))
    for i, x in np.ndenumerate(np.asarray(a, dtype=np.float64)):
        if x >= 0:
            out[i] = 1.0 / (1.0 + np.exp(-x))
        else:
            out[i] = np.exp(x) / (1.0 + np.exp(x))
    return out


def crf_path_scores(emissions: np.ndarray, trans: np.ndarray,
                    start: np.ndarray, stop: np.ndarray):
    """Score of every tag path by full enumeration: list of (path, score)."""
    n = emissions.shape[0]
    out = []
    for path in itertools.product(range(N_TAGS), repeat=n):
        s = start[path[0]] + stop[path[-1]]
        for i, t in enumerate(path):
            s += emissions[i, t]
        for a, b in zip(path, path[1:]):
            s += trans[a, b]
        out.append((path, s))
    return out


def crf_log_partition(emissions, trans, start, stop) -> float:
    scores = [s for _, s in crf_path_scores(emissions, trans, start, stop)]
    m = max(scores)
    return m + math.log(sum(math.exp(s - m) for s in scores))


def crf_best_path(emissions, trans, start, stop) -> tuple[int, ...]:
    best, best_s = None, -math.inf
    for path, s in crf_path_scores(emissions, trans, start, stop):
        if s > best_s:
            best, best_s = path, s
    return best


def gold_path_probability(emissions, trans, start, stop, gold) -> float:
    s = start[gold[0]] + stop[gold[-1]]
    for i, t in enumerate(gold):
        s += emissions[i, t]
    for a, b in zip(gold, gold[1:]):
        s += trans[a, b]
    return math.exp(s - crf_log_partition(emissions, trans, start, stop))


def _is_boundary(c: str) -> bool:
    return c.isspace() or unicodedata.category(c).startswith("P")


def split_runs(sentence: str, stop_words: frozenset[str] = frozenset()):
    """Boundary-free runs, then removal of stop-word occurrences."""
    runs, cur = [], ""
    for c in sentence:
        if _is_boundary(c):
            if cur:
                runs.append(cur)
            cur = ""
        else:
            cur += c
    if cur:
        runs.append(cur)
    if not stop_words:
        return runs
    out = []
    for run in runs:
        pieces = [run]
        for w in sorted(stop_words, key=len, reverse=True):
            nxt = []
            for p in pieces:
                nxt.extend(p.split(w))
            pieces = nxt
        out.extend(p for p in pieces if p)
    return out


def run_splitter(corpus: list[str], cfg: MinerConfig,
                 ) -> Callable[[str], list[str]]:
    """A function giving the maximal substrings of a corpus sentence free of
    boundary characters (whitespace and punctuation) and stop-words, one
    sentence at a time: the reference for the miner's one pass over the
    whole corpus. The punctuation table and the stop-word pattern, longest
    word first, are built once."""
    punct = {ord(c): " " for c in set().union(*corpus)
             if unicodedata.category(c).startswith("P")}
    pat = re.compile("|".join(
        re.escape(w) for w in sorted(cfg.stop_words, key=len, reverse=True)))

    def runs(sentence: str) -> list[str]:
        # str.split() breaks on exactly the characters str.isspace() accepts
        parts = sentence.translate(punct).split()
        if cfg.stop_words:
            parts = [piece for run in parts for piece in pat.split(run) if piece]
        return parts

    return runs


class OracleStats:
    """Brute-force n-gram statistics over a corpus."""

    def __init__(self, corpus: list[str], n_max: int,
                 stop_words: frozenset[str] = frozenset()):
        self.counts: Counter = Counter()
        self.left: dict[str, Counter] = {}
        self.right: dict[str, Counter] = {}
        self.totals: Counter = Counter()
        self.doc_freq: Counter = Counter()
        self.num_docs = len(corpus)
        for sentence in corpus:
            in_doc = set()
            for run in split_runs(sentence, stop_words):
                for length in range(1, n_max + 1):
                    for i in range(len(run) - length + 1):
                        g = run[i:i + length]
                        self.counts[g] += 1
                        self.totals[length] += 1
                        in_doc.add(g)
                        if i > 0:
                            self.left.setdefault(g, Counter())[run[i - 1]] += 1
                        if i + length < len(run):
                            self.right.setdefault(g, Counter())[
                                run[i + length]] += 1
            for g in in_doc:
                self.doc_freq[g] += 1

    def prob(self, g: str) -> float:
        return self.counts[g] / self.totals[len(g)]

    def mis(self, g: str) -> float:
        return min(self.prob(g) / (self.prob(g[:j]) * self.prob(g[j:]))
                   for j in range(1, len(g)))

    def entropy(self, side: dict[str, Counter], g: str) -> float:
        neigh = side.get(g)
        if not neigh:
            return 0.0
        total = sum(neigh.values())
        return -sum((k / total) * math.log(k / total)
                    for k in neigh.values())

    def es(self, g: str) -> float:
        return min(self.entropy(self.left, g), self.entropy(self.right, g))

    def tfidf(self, g: str) -> float:
        return self.prob(g) * math.log(self.num_docs / self.doc_freq[g])


def _next_starts(live: list[int], last: int):
    """Start positions of the (l+1)-grams of a run whose l-gram prefix or
    suffix starts at a live position; the run's l-grams start at 0..last."""
    if len(live) == last + 1:  # every l-gram of the run is live
        return range(last)
    s = set(live)
    s.update([i - 1 for i in live])
    s.discard(-1)
    s.discard(last)
    return sorted(s)


@dataclass(frozen=True)
class RefStats:
    """The statistics of collect_stats by text, as collect_stats_ref counts
    them: the recorded grams, the candidates' document frequencies."""
    counts: dict[str, int]
    total_per_length: dict[int, int]
    doc_freq: dict[str, int]
    num_docs: int


def collect_stats_ref(corpus: list[str], cfg: MinerConfig) -> RefStats:
    """The miner's level-by-level counter in pure Python, one string slice
    per position and level: an l-gram is counted wherever its
    (l-1)-prefix or (l-1)-suffix clears the floor, up to n_max + 1, and
    counting stops at the first level with nothing to count."""
    floor, top = cfg.min_frequency, cfg.n_max + 1
    split = run_splitter(corpus, cfg)
    runs, doc_of = [], []
    for d, sentence in enumerate(corpus):
        for run in split(sentence):
            runs.append(run)
            doc_of.append(d)
    run_lengths = Counter(map(len, runs))
    totals = {}
    for l in range(1, top + 1):
        total = sum(k * (m - l + 1) for m, k in run_lengths.items() if m >= l)
        if total:
            totals[l] = total
    counts, doc_freq = {}, Counter()
    level = [range(len(run)) for run in runs]  # start positions per run
    for l in range(1, top + 1):
        found = Counter()
        for run, starts in zip(runs, level):
            found.update([run[i:i + l] for i in starts])
        counts.update(found)
        if l == top:
            break
        nxt, seen = [], [set() for _ in corpus]
        for d, run, starts in zip(doc_of, runs, level):
            live = [i for i in starts if found[run[i:i + l]] > floor]
            if cfg.n_min <= l:
                seen[d].update(run[i:i + l] for i in live)
            nxt.append(_next_starts(live, len(run) - l))
        for s in seen:
            doc_freq.update(s)
        if not any(nxt):
            break
        level = nxt
    return RefStats(counts, totals, dict(doc_freq), len(corpus))


def by_text(stats: NGramStats) -> RefStats:
    """The statistics of collect_stats by text, as collect_stats_ref gives
    them: the recorded grams' counts and the candidates' document
    frequencies, sliced out of the joined runs at each level's positions."""
    text = stats.text
    doc_freq = {text[p:p + l]: k for l, lv in enumerate(stats.levels, 1)
                for p, k in zip(lv.at[lv.candidates].tolist(),
                                lv.doc_freq.tolist())}
    return RefStats(stats.counts, stats.total_per_length, doc_freq,
                    stats.num_docs)


def entropy_ref(neigh: dict[str, int]) -> float:
    """Entropy of a neighbour count map, 0 when it is empty, summed in
    character order."""
    total = sum(neigh.values())
    h = 0.0
    for _, k in sorted(neigh.items()):
        p = k / total
        h -= p * math.log(p)
    return h


def _neighbours_ref(stats, texts: Iterable[str]) -> tuple[dict, dict]:
    """Left and right neighbour counts of every n-gram in texts, read off
    the counted grams one character longer in one pass: a gram g puts
    counts[g] at right[g[:-1]][g[-1]] and at left[g[1:]][g[0]]."""
    left: dict[str, dict[str, int]] = {t: {} for t in texts}
    right: dict[str, dict[str, int]] = {t: {} for t in texts}
    for g, k in stats.counts.items():
        r = right.get(g[:-1])
        if r is not None:
            r[g[-1]] = k
        l = left.get(g[1:])
        if l is not None:
            l[g[0]] = k
    return left, right


def _normalize_ref(values: list[float]) -> list[float]:
    lo, hi = min(values), max(values)
    if hi == lo:
        return [0.0] * len(values)
    span = hi - lo
    return [(v - lo) / span for v in values]


def _sigmoid_ref(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def score_candidates_ref(stats) -> list[CandidateScore]:
    """The miner's scorer on strings, one candidate at a time, reading the
    counts and document frequencies by text (of by_text or
    collect_stats_ref): the reference score_candidates must equal bit for
    bit."""
    cand = sorted(stats.doc_freq)
    if not cand:
        return []
    counts, totals = stats.counts, stats.total_per_length
    left, right = _neighbours_ref(stats, cand)
    mis, es, tfidf = [], [], []
    for g in cand:
        n = len(g)
        pt = counts[g] / totals[n]
        best = math.inf
        for j in range(1, n):
            r = pt / ((counts[g[:j]] / totals[j])
                      * (counts[g[j:]] / totals[n - j]))
            if r < best:
                best = r
        mis.append(best)
        es.append(min(entropy_ref(left[g]), entropy_ref(right[g])))
        tfidf.append(pt * math.log(stats.num_docs / stats.doc_freq[g]))
    n_mis, n_es = _normalize_ref(mis), _normalize_ref(es)
    n_tf = _normalize_ref(tfidf)
    out = []
    for i, g in enumerate(cand):
        p = _sigmoid_ref(n_mis[i] + n_es[i] + n_tf[i])
        out.append(CandidateScore(g, stats.counts[g], mis[i], es[i],
                                  tfidf[i], p))
    return out


def fmm_spans(sentence: str, words: set[str]) -> list[tuple[int, int]]:
    """Reference leftmost-longest matcher over an explicit word set."""
    top = max((len(w) for w in words), default=0)
    spans = []
    i = 0
    while i < len(sentence):
        for length in range(min(top, len(sentence) - i), 1, -1):
            if sentence[i:i + length] in words:
                spans.append((i, i + length))
                i += length
                break
        else:
            i += 1
    return spans


def span_prf(gold: list[list[str]], pred: list[list[str]]):
    """Reference micro P/R/F1 over exact word spans."""
    def spans(ws):
        o, p = set(), 0
        for w in ws:
            o.add((p, p + len(w)))
            p += len(w)
        return o

    tp = g_n = p_n = 0
    for g, p in zip(gold, pred):
        gs, ps = spans(g), spans(p)
        tp += len(gs & ps)
        g_n += len(gs)
        p_n += len(ps)
    prec = tp / p_n if p_n else 0.0
    rec = tp / g_n if g_n else 0.0
    f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
    return prec, rec, f1


class DictStub:
    """Deterministic stand-in segmenter: leftmost-longest over a fixed
    vocabulary, single characters otherwise."""

    def __init__(self, words: set[str]):
        self.words = words
        self.top = max((len(w) for w in words), default=1)

    def segment(self, sentence: str) -> list[str]:
        out = []
        i = 0
        while i < len(sentence):
            for length in range(min(self.top, len(sentence) - i), 1, -1):
                if sentence[i:i + length] in self.words:
                    out.append(sentence[i:i + length])
                    i += length
                    break
            else:
                out.append(sentence[i])
                i += 1
        return out

    def segment_batch(self, sentences: list[str]) -> list[list[str]]:
        return [self.segment(s) for s in sentences]


def distant_annotate_ref(sentence: str, collection, base):
    """One sentence annotated the direct way: lexicon spans tagged in
    place, each gap between them segmented by its own base.segment call.
    Returns (tags, provenance)."""
    spans = fmm_spans(sentence, set(collection.entries))
    tags, prov = "", ""
    pos = 0
    for start, end in [*spans, (len(sentence), len(sentence))]:
        if pos < start:
            for w in base.segment(sentence[pos:start]):
                tags += "S" if len(w) == 1 else "B" + "M" * (len(w) - 2) + "E"
            prov += "S" * (start - pos)
        if start < end:
            tags += "B" + "M" * (end - start - 2) + "E"
            prov += "L" * (end - start)
        pos = end
    return tags, prov


def tags_to_words_ref(sentence: str, tags: str) -> list[str]:
    """The BMES cut as a state machine over the tags: a word opens at
    every B or S and at an M or E with no open word, and closes after E or
    S. Raises ValueError for a length mismatch, an empty sentence or a tag
    outside BMES (the first one)."""
    if len(sentence) != len(tags):
        raise ValueError(
            f"length mismatch: {len(sentence)} chars vs {len(tags)} tags")
    if not sentence:
        raise ValueError("empty sentence")
    words: list[str] = []
    cur = ""
    open_word = False
    for ch, tag in zip(sentence, tags):
        if tag not in TAG_INDEX:
            raise ValueError(f"unknown tag {tag!r}")
        if tag in ("B", "S"):
            if cur:
                words.append(cur)
            cur = ch
            open_word = tag == "B"
            if tag == "S":
                words.append(cur)
                cur = ""
        else:  # M or E
            if open_word:
                cur += ch
            else:
                if cur:
                    words.append(cur)
                cur = ch
            if tag == "E":
                words.append(cur)
                cur = ""
                open_word = False
            else:
                open_word = True
    if cur:
        words.append(cur)
    return words


def is_well_formed_ref(tags: str) -> bool:
    """(S | B M* E)* as a two-state automaton: outside or inside a word."""
    state = 0  # 0: outside a word, 1: inside
    for t in tags:
        if state == 0:
            if t == "S":
                continue
            if t == "B":
                state = 1
            else:
                return False
        else:
            if t == "M":
                continue
            if t == "E":
                state = 0
            else:
                return False
    return state == 0


def random_segmentation(rng: np.random.Generator, alphabet: str,
                        max_words: int = 8, max_len: int = 4) -> list[str]:
    n_words = int(rng.integers(1, max_words + 1))
    words = []
    for _ in range(n_words):
        length = int(rng.integers(1, max_len + 1))
        words.append("".join(alphabet[i] for i in
                             rng.integers(0, len(alphabet), size=length)))
    return words


def linear_probe_accuracy(X: np.ndarray, y: np.ndarray, iters: int = 300,
                          lr: float = 0.5) -> float:
    """Fit a logistic regression on the even rows, score the odd rows.

    Deterministic: features are standardized, weights start at zero and
    plain gradient descent runs a fixed number of steps.
    """
    tr = np.arange(len(y)) % 2 == 0
    te = ~tr
    mu, sd = X[tr].mean(axis=0), X[tr].std(axis=0) + 1e-9
    Xn = (X - mu) / sd
    w = np.zeros(X.shape[1])
    b = 0.0
    for _ in range(iters):
        p = 1.0 / (1.0 + np.exp(-(Xn[tr] @ w + b)))
        g = p - y[tr]
        w -= lr * (Xn[tr].T @ g) / tr.sum()
        b -= lr * g.mean()
    pred = (Xn[te] @ w + b) > 0
    return float((pred == (y[te] > 0.5)).mean())


# -- per-sentence reference of the batched neural stack ---------------------
#
# The model computed the direct way: every sentence is its own (n, d)
# graph, convolutions pad with np.pad, the text-CNN pools one sentence,
# and the CRF loss loops over positions. It builds library Tensors (and
# uses only the library's elementwise ops, which do not depend on
# batching; convolutions, affine maps and biases are its own) so tests
# compare gradients as well as values. Everything runs in eval mode:
# compare with the library at dropout 0.


def conv1d_ref(x: Tensor, w: Tensor, pad_left: int, pad_right: int) -> Tensor:
    """(n, d_in) * (k, d_in, d_out) -> (n + pads - k + 1, d_out)."""
    k = w.data.shape[0]
    xp = np.pad(x.data, ((pad_left, pad_right), (0, 0)))
    n_out = xp.shape[0] - k + 1
    y = np.zeros((n_out, w.data.shape[2]))
    for o in range(k):
        y += xp[o:o + n_out] @ w.data[o]

    def bwd(g):
        dxp = np.zeros_like(xp)
        dw = np.zeros_like(w.data)
        for o in range(k):
            dw[o] = xp[o:o + n_out].T @ g
            dxp[o:o + n_out] += g @ w.data[o].T
        x._accumulate(dxp[pad_left:pad_left + x.data.shape[0]])
        w._accumulate(dw)

    return Tensor(y, (x, w), bwd)


def matmul_ref(x: Tensor, w: Tensor) -> Tensor:
    """(n, d) @ (d, m) -> (n, m)."""
    def bwd(g):
        x._accumulate(g @ w.data.T)
        w._accumulate(x.data.T @ g)

    return Tensor(x.data @ w.data, (x, w), bwd)


def bias_ref(x: Tensor, b: Tensor) -> Tensor:
    """(n, m) plus a bias of shape (m,) or (1, m) added to every row."""
    def bwd(g):
        x._accumulate(g)
        b._accumulate(g.sum(axis=0).reshape(b.data.shape))

    return Tensor(x.data + b.data, (x, b), bwd)


def max_over_time_ref(x: Tensor) -> Tensor:
    """(t, f) -> (1, f); ties send the gradient to the earliest row."""
    am = np.argmax(x.data, axis=0)
    cols = np.arange(x.data.shape[1])

    def bwd(g):
        grad = np.zeros_like(x.data)
        grad[am, cols] = g[0]
        x._accumulate(grad)

    return Tensor(x.data[am, cols][None, :], (x,), bwd)


def _lse(a: np.ndarray, axis: int) -> np.ndarray:
    m = np.max(a, axis=axis, keepdims=True)
    return np.squeeze(m + np.log(np.exp(a - m).sum(axis=axis,
                                                    keepdims=True)), axis)


def nll_loss_ref(emissions: Tensor, head, gold) -> Tensor:
    """CRF negative log-likelihood of one sentence's gold path by a
    position-by-position forward-backward."""
    gold = np.asarray(gold, dtype=np.int64)
    e, t = emissions.data, head.trans.data
    sv, pv = head.start.data, head.stop.data
    n = e.shape[0]
    alpha = np.empty((n, N_TAGS))
    alpha[0] = sv + e[0]
    for i in range(1, n):
        alpha[i] = _lse(alpha[i - 1][:, None] + t, 0) + e[i]
    log_z = float(_lse((alpha[n - 1] + pv)[None, :], 1)[0])
    beta = np.empty((n, N_TAGS))
    beta[n - 1] = pv
    for i in range(n - 2, -1, -1):
        beta[i] = _lse(t + (e[i + 1] + beta[i + 1])[None, :], 1)
    score = sv[gold[0]] + e[np.arange(n), gold].sum() + pv[gold[-1]]
    score += t[gold[:-1], gold[1:]].sum()

    def bwd(g):
        gs = float(g)
        marg = np.exp(alpha + beta - log_z)
        de = marg.copy()
        de[np.arange(n), gold] -= 1.0
        emissions._accumulate(gs * de)
        dt = np.zeros((N_TAGS, N_TAGS))
        for i in range(n - 1):
            dt += np.exp(alpha[i][:, None] + t
                         + (e[i + 1] + beta[i + 1])[None, :] - log_z)
            dt[gold[i], gold[i + 1]] -= 1.0
        head.trans._accumulate(gs * dt)
        ds = marg[0].copy()
        ds[gold[0]] -= 1.0
        head.start._accumulate(gs * ds)
        dp = marg[n - 1].copy()
        dp[gold[-1]] -= 1.0
        head.stop._accumulate(gs * dp)

    return Tensor(log_z - score, (emissions, head.trans, head.start,
                                  head.stop), bwd)


def nll_loss_batched_ref(emissions: Tensor, head, gold, mask) -> Tensor:
    """CRF negative log-likelihood of a padded batch (B, T, 4) with length
    mask (B, T) by a sequential log-space forward-backward over the whole
    batch: at positions past a sentence's end its alpha and beta are
    carried over. The library's blocked scan must agree with it, which
    includes scores far too large to exponentiate. It runs in extended
    precision (np.longdouble, 64-bit mantissa on x86): in float64 its own
    rounding, accumulated over a 5,000-position chain, reaches 1e-7 in
    the transition gradient."""
    gold = np.asarray(gold, dtype=np.int64)
    bsz, n = emissions.data.shape[:2]
    lengths = np.asarray(mask).sum(axis=1)
    valid = np.asarray(mask, dtype=bool).T[:, :, None]  # (T, B, 1)
    e = np.where(valid, emissions.data.transpose(1, 0, 2),
                 0.0).astype(np.longdouble)
    g_t = np.where(valid[:, :, 0], gold.T, 0)  # (T, B), tag 0 on padding
    t, sv, pv = (x.data.astype(np.longdouble)
                 for x in (head.trans, head.start, head.stop))
    alpha = np.empty_like(e)
    alpha[0] = sv + e[0]
    for i in range(1, n):
        a = _lse(alpha[i - 1][:, :, None] + t, 1) + e[i]
        alpha[i] = np.where(valid[i], a, alpha[i - 1])
    log_z = _lse(alpha[n - 1] + pv, 1)
    beta = np.empty_like(e)
    beta[n - 1] = pv
    for i in range(n - 2, -1, -1):
        b = _lse(t + (e[i + 1] + beta[i + 1])[:, None, :], 2)
        beta[i] = np.where(valid[i + 1], b, beta[i + 1])
    rows = np.arange(bsz)
    last = g_t[lengths - 1, rows]
    gold_score = (sv[g_t[0]].sum() + pv[last].sum()
                  + np.take_along_axis(e, g_t[:, :, None], 2).sum()
                  + (t[g_t[:-1], g_t[1:]] * valid[1:, :, 0]).sum())

    def bwd(g):
        gs = float(g)
        marg = np.where(valid, np.exp(alpha + beta - log_z[:, None]), 0.0)
        de = marg.copy()
        de[np.arange(n)[:, None], rows, g_t] -= valid[:, :, 0]
        emissions._accumulate(gs * de.transpose(1, 0, 2))
        right = np.where(valid[1:], e[1:] + beta[1:], -np.inf)
        pair = np.exp(alpha[:-1, :, :, None] + t + right[:, :, None, :]
                      - log_z[:, None, None])
        dt = pair.sum(axis=(0, 1))
        np.subtract.at(dt, (g_t[:-1][valid[1:, :, 0]],
                            g_t[1:][valid[1:, :, 0]]), 1.0)
        head.trans._accumulate(gs * dt)
        ds = marg[0].sum(axis=0)
        np.subtract.at(ds, g_t[0], 1.0)
        head.start._accumulate(gs * ds)
        dp = marg[lengths - 1, rows].sum(axis=0)
        np.subtract.at(dp, last, 1.0)
        head.stop._accumulate(gs * dp)

    return Tensor(log_z.sum() - gold_score,
                  (emissions, head.trans, head.start, head.stop), bwd)


def viterbi_ref(e, trans, start, stop) -> list[int]:
    """One sentence's best path, ties to the lowest tag index."""
    n = e.shape[0]
    delta = start + e[0]
    back = np.zeros((n, N_TAGS), dtype=np.int64)
    for i in range(1, n):
        cand = delta[:, None] + trans
        back[i] = np.argmax(cand, axis=0)
        delta = cand[back[i], np.arange(N_TAGS)] + e[i]
    path = [int(np.argmax(delta + stop))]
    for i in range(n - 1, 0, -1):
        path.append(int(back[i, path[-1]]))
    return path[::-1]


def embed_ref(emb, sentence: str) -> Tensor:
    return gather_rows(emb.table, np.array(
        [emb.vocab.get(c, UNK_INDEX) for c in sentence], dtype=np.int64))


def gcnn_ref(enc, x: Tensor) -> Tensor:
    """A GCNN encoder over one sentence (n, d_in) -> (n, d_out)."""
    h = x
    for w, b, v, c in enc.layers:
        pad = (w.data.shape[0] - 1) // 2
        lin = bias_ref(conv1d_ref(h, w, pad, pad), b)
        gate = sigmoid(bias_ref(conv1d_ref(h, v, pad, pad), c))
        h = mul(lin, gate)
    return h


def gated_conv_ops_ref(layer, x: Tensor, scale) -> Tensor:
    """A GCNN layer (w, b, v, c) over a batch as five nodes: the scaling
    mul, the two conv1d, sigmoid and the gating mul, the same float
    operations as the fused autodiff.gated_conv."""
    w, b, v, c = layer
    pad = (w.data.shape[0] - 1) // 2
    h = mul(x, scale)
    lin = conv1d(h, 1.0, w, b, pad, pad)
    return mul(lin, sigmoid(conv1d(h, 1.0, v, c, pad, pad)))


def textcnn_ref(disc, h: Tensor) -> Tensor:
    """Source-domain logit (1, 1) of one sentence (n, d); a sentence
    shorter than a window is zero padded at the end to the window size."""
    n = h.data.shape[0]
    pooled = [max_over_time_ref(bias_ref(
        conv1d_ref(h, cw, 0, max(0, cw.data.shape[0] - n)), cb))
        for cw, cb in disc.convs]
    return bias_ref(matmul_ref(concat_cols(pooled), disc.proj_w),
                    disc.proj_b)


def segment_ref(model, sentence: str, domain: str) -> list[str]:
    """One sentence decoded the direct way: its own graph through the
    tower of the domain (the baseline's one tower "" scores every domain,
    AT mode decodes with the source tower) and the shared encoder, if
    any, then a one-sentence Viterbi."""
    e = embed_ref(model.embedding, sentence)
    if model.mode is None:
        name = ""
    else:
        name = "source" if domain == "source" or model.mode == "at" \
            else "target"
    enc, head = model.towers[name]
    h = gcnn_ref(enc, e)
    if model.shared is not None:
        h = concat_cols([h, gcnn_ref(model.shared, e)])
    emis = emissions_ref(h, head).data
    path = viterbi_ref(emis, head.trans.data, head.start.data,
                       head.stop.data)
    return tags_to_words(sentence, "".join("BMES"[i] for i in path))


def emissions_ref(h: Tensor, head) -> Tensor:
    return bias_ref(matmul_ref(h, head.emit_w), head.emit_b)


def sentence_nll_ref(h: Tensor, head, tags: str) -> Tensor:
    return nll_loss_ref(emissions_ref(h, head), head,
                        [TAG_INDEX[c] for c in tags])


def mean_ref(terms: list[Tensor]) -> Tensor:
    return scale(sum(terms[1:], terms[0]), 1.0 / len(terms))


def base_loss_ref(model, batch: list[tuple[str, str]]) -> Tensor:
    """Mean per-sentence CRF loss of a baseline over (sentence, tags)."""
    enc, head = model.towers[""]
    return mean_ref([sentence_nll_ref(
        gcnn_ref(enc, embed_ref(model.embedding, s)), head, t)
        for s, t in batch])


def daat_losses_ref(model, batch_src, batch_tgt, odd: bool):
    """L_src, L_tgt (None in AT mode) and the adversarial loss (L_d on odd
    steps, with detached shared features, L_c on even ones) of a DAAT
    model, one sentence at a time. Each log-probability is composed of
    sigmoid, sub and log, independently of the model's log_sigmoid."""
    at = model.mode == "at"
    towers = model.towers

    def encode(sentence, src):
        e = embed_ref(model.embedding, sentence)
        shared = gcnn_ref(model.shared, e)
        if at and not src:
            return None, shared
        private = gcnn_ref(towers["source" if src else "target"].encoder, e)
        return concat_cols([private, shared]), shared

    src = [(encode(s, True), t) for s, t in batch_src]
    tgt = [(encode(s, False), t) for s, t in batch_tgt]
    l_src = mean_ref([sentence_nll_ref(h, towers["source"].head, t)
                      for (h, _), t in src])
    l_tgt = None if at else mean_ref([
        sentence_nll_ref(h, towers["target"].head, t) for (h, _), t in tgt])
    means = []
    for enc, is_src in ((src, True), (tgt, False)):
        terms = []
        for (_, shared), _ in enc:
            p = sigmoid(textcnn_ref(model.disc,
                                    shared.detach() if odd else shared))
            terms.append(sum_all(log(p) if is_src == odd
                                 else log(sub(1.0, p))))
        means.append(mean_ref(terms))
    return l_src, l_tgt, sub(0.0, means[0] + means[1])
