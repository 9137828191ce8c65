"""Linear-chain CRF over the four BMES tags.

Scores factor into per-position emissions, a 4x4 transition matrix, and
explicit start/stop vectors (zero vectors recover the plain two-factor
form). The loss is the negative log-likelihood; its gradient is marginals
minus gold indicators. Decoding is Viterbi. The loss and the decoding of
a batch run one linear-chain scan whose semiring sum is a parameter, as
in Torch-Struct (Rush 2020): Viterbi passes max, the loss passes
log-sum-exp, and the semiring product is + in both.

Step i of the scan applies the matrix trans.T + e[i] (to, from) to the
scores of position i - 1. Semiring products are associative, as in
scan-parallel smoothing and Viterbi (Hassan, Sarkka and
Garcia-Fernandez 2021), so the T - 1 steps are cut into blocks of
k = isqrt(T - 1): k - 1 vectorised products give every prefix product
inside every block, one short loop over the block starts carries the
scores from block to block, and one reduction gives every other score
from its block's start. A call costs O(sqrt T) numpy calls, not O(T).

The loss runs the scan twice inside one autodiff primitive: over the
batch for alpha, and over each sentence reversed in place, with trans.T
and stop, for e + beta. Marginals and expected transition counts are
then exp(alpha + beta - log Z). Log space holds any finite scores, so
nothing underflows. Scores so large that float64 loses their differences
or overflows their sums raise ValueError: they leave a real position
whose marginals do not sum to one within 1e-6, or a non-finite loss or
transition count, and no such gradient leaves here.

Viterbi on a batch picks every back pointer in one tournament over the
scan's deltas; past a row's end each points at its own tag. One sentence
takes the sequential recursion on Python floats instead, which skips the
scan's fixed set-up of numpy calls. Both then read a path the same way,
by walking back from the last tag: one sentence on Python floats, a batch
in numpy, one gather of B back pointers per position for all rows at
once. The walk takes T - 1 gathers, against about log2 T for pointer
jumping, which a bucket of long lines pays for. segment_batch
keeps each row of a bucket of two or more at 512 characters or fewer; on
2 shared cores at the acceptance width, its call on two 512-character
lines took 3.35 against 2.84 ms, and on 4,096 lines of one to four
characters 46 against 47 ms. The tournament stays: picking each back
pointer during the walk gave the same paths, but took 349 against 245 us
at (20, 50) and 2,269 against 627 us at (2, 512).
Ties go to the lowest tag index in the order B, M, E, S, at every back
pointer and at the last tag, on both paths. The recursion makes the
textbook recursion's float operations in its order, so a one-sentence
path equals it bit for bit. The scan adds up each delta in another
order, so in a batch a delta can differ from it in the last bits, and a
path equals the sequential one except where two candidates lie within
such rounding of each other (a float near-tie). Integer-valued scores
add up exactly in any order, so their ties break exactly as in the
sequential recursion in a batch too.

Both run on padded batches: emissions (B, T, 4) with a (B, T) length mask
that is true on a prefix of each row, and one scan over T for all B
sentences, whose blocks follow the batch's longest sentence. Padding
scores 0, and no score past a sentence's end is read, so a sentence's
numbers differ from its numbers alone only in rounding, and its path at
most on a float near-tie. A NaN or infinite score at a real position, or
in trans, start or stop, raises ValueError, since a scan would spread one
NaN over its whole block; so does a gold tag outside 0..3 at a real
position. Padding may hold anything.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, matmul

N_TAGS = 4


@dataclass
class CrfHead:
    """Emission projection plus transition parameters."""
    emit_w: Tensor  # (hidden, 4)
    emit_b: Tensor  # (4,)
    trans: Tensor   # (4, 4) trans[i, j] scores tag i -> tag j
    start: Tensor   # (4,)
    stop: Tensor    # (4,)

    @staticmethod
    def create(hidden: int, rng: np.random.Generator) -> "CrfHead":
        s = 1.0 / np.sqrt(hidden)
        return CrfHead(
            emit_w=Tensor(rng.uniform(-s, s, (hidden, N_TAGS))),
            emit_b=Tensor(np.zeros(N_TAGS)),
            trans=Tensor(np.zeros((N_TAGS, N_TAGS))),
            start=Tensor(np.zeros(N_TAGS)),
            stop=Tensor(np.zeros(N_TAGS)),
        )

    def params(self, prefix: str) -> dict[str, Tensor]:
        return {
            f"{prefix}.emit_w": self.emit_w,
            f"{prefix}.emit_b": self.emit_b,
            f"{prefix}.trans": self.trans,
            f"{prefix}.start": self.start,
            f"{prefix}.stop": self.stop,
        }


def emission_scores(h: Tensor, head: CrfHead) -> Tensor:
    """Per-position tag scores: h @ emit_w + emit_b, shape (B, T, 4)."""
    return matmul(h, head.emit_w, head.emit_b)


def _lengths(mask: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sentence lengths of a (B, T) prefix mask matching shape (B, T)."""
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != shape or 0 in shape:
        raise ValueError("mask must align with a non-empty batch")
    if not (mask[:, 0].all() and (mask[:, 1:] <= mask[:, :-1]).all()):
        raise ValueError("mask must mark a non-empty prefix of every row")
    return mask.sum(axis=1)


def _batch(emissions: np.ndarray, mask: np.ndarray, *scores: np.ndarray):
    """Position-major emissions (T, 4, B) with padding scored 0, validity
    (T, B) and sentence lengths (B,) of a batch (B, T, 4) with length mask
    (B, T). Raises ValueError when a score at a real position, or in any
    of scores, is NaN or infinite."""
    em = np.asarray(emissions, dtype=np.float64)
    lengths = _lengths(mask, em.shape[:2])
    valid = np.asarray(mask, dtype=bool).T
    e = np.where(valid[:, None], em.transpose(1, 2, 0), 0.0)
    if not all(np.isfinite(x).all() for x in (e, *scores)):
        raise ValueError("CRF scores must be finite")
    return e, valid, lengths


def _log_sum_exp(a: np.ndarray, axis: int, out=None) -> np.ndarray:
    """The log semiring's sum log(sum(exp(a))) over axis, less the maximum
    before exp; a is overwritten."""
    top = np.maximum.reduce(a, axis=axis, keepdims=True)
    a -= top
    total = np.add.reduce(np.exp(a, out=a), axis=axis, out=out)
    np.log(total, out=total)
    total += top.reshape(total.shape)
    return total


def _scan(e: np.ndarray, trans: np.ndarray, start: np.ndarray,
          reduce) -> np.ndarray:
    """Scores (T, 4, B) of position-major emissions e (T, 4, B) in the
    semiring whose product is + and whose sum is reduce(a, axis=, out=),
    which may overwrite a: score[i, y, b] sums start + emissions + transitions
    over the paths of sentence b that end in tag y at position i. Blocks
    of k = isqrt(T - 1) steps; steps that fill out the last block score 0
    and only reach scores past T."""
    n, _, bsz = e.shape
    k = max(1, math.isqrt(n - 1))
    m = max(1, -(-(n - 1) // k))
    steps = np.zeros((m, k, N_TAGS, 1, bsz))
    steps.reshape(m * k, N_TAGS, bsz)[:n - 1] = e[1:]
    # step i's matrix is trans.T + e[i] (to, from); prefix[j] of block b
    # becomes the semiring product of its steps 1 + bk + j, ..., 1 + bk
    prefix = np.empty((k, N_TAGS, N_TAGS, m, bsz))
    np.add(trans.T[:, :, None, None], steps.transpose(1, 2, 3, 0, 4),
           out=prefix)
    prod = np.empty((N_TAGS,) + prefix.shape[1:])  # (to, mid, from, m, B)
    for j in range(1, k):
        np.add(prefix[j][:, :, None], prefix[j - 1], out=prod)
        reduce(prod, axis=1, out=prefix[j])
    # scores at the block starts 0, k, 2k, ..., then all others from them
    score = np.empty((m * k + 1, N_TAGS, bsz))
    score[0] = start[:, None] + e[0]
    whole = prefix[-1].transpose(2, 0, 1, 3)  # (m, to, from, B)
    for b in range(1, m):
        reduce(whole[b - 1] + score[(b - 1) * k], axis=1, out=score[b * k])
    prefix += score[:-1:k].transpose(1, 0, 2)
    reduce(prefix, axis=2,
           out=score[1:].reshape(m, k, N_TAGS, bsz).transpose(1, 2, 0, 3))
    return score[:n]


def nll_loss(emissions: Tensor, head: CrfHead, gold: np.ndarray,
             mask: np.ndarray) -> Tensor:
    """Summed negative log-likelihood of the gold tag index paths (B, T)
    of a batch; gold entries past a sentence's length are ignored.

    Returns a scalar graph node; its backward pass sets the emission
    gradient to (marginals - gold indicators), zero past each sentence's
    end, and the transition and start/stop gradients to expected minus
    observed counts, all from the log-space scan run forward and over
    each sentence reversed. Raises ValueError when a score at a real
    position, or in trans, start or stop, is NaN or infinite, when a gold
    tag at a real position lies outside 0..3, and when the scores are too
    large for float64 to give normalised marginals.
    """
    t, sv, pv = head.trans.data, head.start.data, head.stop.data
    e, valid, lengths = _batch(emissions.data, mask, t, sv, pv)
    n, bsz = valid.shape
    gold = np.asarray(gold, dtype=np.int64)
    if gold.shape != (bsz, n):
        raise ValueError("gold paths must align with emissions")
    g = np.where(valid, gold.T, 0)  # (T, B), tag 0 on padding
    if g.min() < 0 or g.max() >= N_TAGS:
        raise ValueError("gold tags must lie in 0..3")
    pos = np.arange(n)[:, None]
    rows = np.arange(bsz)
    last = g[lengths - 1, rows]
    # each sentence reversed in place, its padding left where it is
    rev = np.where(valid, lengths - 1 - pos, pos)[:, None]  # (T, 1, B)
    with np.errstate(all="ignore"):  # too large scores are caught below
        alpha = _scan(e, t, sv, _log_sum_exp)
        eb = np.take_along_axis(_scan(np.take_along_axis(e, rev, 0), t.T,
                                      pv, _log_sum_exp), rev, 0)
        log_z = _log_sum_exp(alpha[lengths - 1, :, rows] + pv, 1)
        marg = np.exp(np.where(valid[:, None], alpha - e + eb - log_z,
                               -np.inf))
        right = np.where(valid[1:, None], eb[1:], -np.inf)
        pairs = np.exp(alpha[:-1, :, None] + t[:, :, None] + right[:, None]
                       - log_z).sum(axis=(0, 3))
        gold_score = (sv[g[0]].sum() + pv[last].sum()
                      + np.take_along_axis(e, g[:, None], 1).sum()
                      + (t[g[:-1], g[1:]] * valid[1:]).sum())
        value = log_z.sum() - gold_score
    if not ((np.abs(marg.sum(axis=1) - valid) <= 1e-6).all()
            and np.isfinite(pairs).all() and np.isfinite(value)):
        raise ValueError("CRF scores too large for float64: the tag "
                         "marginals do not sum to one")

    def bwd(grad: np.ndarray) -> None:
        gs = float(grad)
        ds = marg[0].sum(axis=1) - np.bincount(g[0], minlength=N_TAGS)
        dp = (marg[lengths - 1, :, rows].sum(axis=0)
              - np.bincount(last, minlength=N_TAGS))
        seen = np.bincount((g[:-1] * N_TAGS + g[1:]).ravel(),
                           weights=valid[1:].ravel(),
                           minlength=N_TAGS * N_TAGS)
        marg[pos, g, rows] -= valid
        emissions._accumulate(gs * marg.transpose(2, 0, 1))
        head.trans._accumulate(gs * (pairs - seen.reshape(N_TAGS, N_TAGS)))
        head.start._accumulate(gs * ds)
        head.stop._accumulate(gs * dp)

    return Tensor(value, (emissions, head.trans, head.start, head.stop), bwd)


def _viterbi_one(e: list, trans: list, start: list, stop: list,
                 width: int) -> np.ndarray:
    """The (1, width) path of one sentence's emission rows e (length, 4)
    by the sequential recursion on Python floats: the float operations of
    the textbook recursion, in its order, with strict > so that ties go to
    the lowest tag. Positions past the sentence's end repeat its last
    tag."""
    ((t00, t01, t02, t03), (t10, t11, t12, t13), (t20, t21, t22, t23),
     (t30, t31, t32, t33)) = trans
    d0, d1, d2, d3 = (s + x for s, x in zip(start, e[0]))
    back = []
    for e0, e1, e2, e3 in e[1:]:
        # the best `from` before each `to` tag, unrolled over the four
        # `from` tags (a loop over `to` costs a third more)
        x, p = d0 + t00, 0
        y = d1 + t10
        if y > x:
            x, p = y, 1
        y = d2 + t20
        if y > x:
            x, p = y, 2
        y = d3 + t30
        if y > x:
            x, p = y, 3
        n0, b0 = x + e0, p
        x, p = d0 + t01, 0
        y = d1 + t11
        if y > x:
            x, p = y, 1
        y = d2 + t21
        if y > x:
            x, p = y, 2
        y = d3 + t31
        if y > x:
            x, p = y, 3
        n1, b1 = x + e1, p
        x, p = d0 + t02, 0
        y = d1 + t12
        if y > x:
            x, p = y, 1
        y = d2 + t22
        if y > x:
            x, p = y, 2
        y = d3 + t32
        if y > x:
            x, p = y, 3
        n2, b2 = x + e2, p
        x, p = d0 + t03, 0
        y = d1 + t13
        if y > x:
            x, p = y, 1
        y = d2 + t23
        if y > x:
            x, p = y, 2
        y = d3 + t33
        if y > x:
            x, p = y, 3
        d0, d1, d2, d3 = n0, n1, n2, x + e3
        back.append((b0, b1, b2, p))
    final = [d0 + stop[0], d1 + stop[1], d2 + stop[2], d3 + stop[3]]
    tag = final.index(max(final))
    path = [tag] * width
    for i in range(len(back) - 1, -1, -1):
        tag = path[i] = back[i][tag]
    return np.array([path], dtype=np.intp)


def viterbi_decode(emissions: np.ndarray, trans: np.ndarray,
                   start: np.ndarray, stop: np.ndarray,
                   mask: np.ndarray) -> np.ndarray:
    """Highest-scoring tag index paths (B, T) of a batch of emissions
    (B, T, 4) with length mask (B, T); ties pick the lowest index. Entries
    past a sentence's length repeat its last tag.

    One sentence takes the sequential recursion on Python floats, whose
    path equals the textbook recursion's bit for bit, and skips the scan's
    fixed set-up: 50 against 100 us at 51 characters. Each position costs
    it about 0.8 us against about 0.45 us in the scan, so long lines pay
    for it: on 2 shared cores a whole Segmenter.segment call measured
    about -9% at 200 characters, 0 to +4% at 1,000 and +8% to +11% at
    5,000. A batch of two or more runs the scan and the tournament, then
    walks back over all rows at once.
    Raises ValueError when a score at a real position, or in trans, start
    or stop, is NaN or infinite; padding may hold anything."""
    e, valid, lengths = _batch(emissions, mask, trans, start, stop)
    n, bsz = valid.shape
    if bsz == 1:
        return _viterbi_one(e[:lengths[0], :, 0].tolist(), trans.tolist(),
                            start.tolist(), stop.tolist(), n)
    # the scan's block arrays are freed before the back pointers allocate
    # theirs, which keeps the heap that each call grows and trims small
    delta = _scan(e, trans, start, np.maximum.reduce)
    # back[i - 1, to]: the best tag at i - 1 before tag `to` at i, the
    # argmax over `from` as a two-round tournament, ties to the lower tag
    # (argmax over an axis of 4 costs a loop per row of 4); past its end a
    # path keeps its tag
    cand = np.empty((N_TAGS, n - 1, N_TAGS, bsz))  # (from, T - 1, to, B)
    np.add(delta[:n - 1].transpose(1, 0, 2)[:, :, None],
           trans[:, None, :, None], out=cand)
    back = np.where(np.maximum(cand[2], cand[3])
                    > np.maximum(cand[0], cand[1]),
                    (cand[3] > cand[2]) + 2, cand[1] > cand[0])
    back = np.where(valid[1:, None], back, np.arange(N_TAGS)[:, None])
    rows = np.arange(bsz)
    path = np.empty((n, bsz), dtype=np.intp)
    tag = path[-1] = (delta[lengths - 1, :, rows] + stop).argmax(axis=1)
    for i in range(n - 2, -1, -1):  # one walk back over all rows
        tag = path[i] = back[i, tag, rows]
    return path.T
