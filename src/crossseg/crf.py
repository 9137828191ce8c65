"""Linear-chain CRF over the four BMES tags.

Scores factor into per-position emissions, a 4x4 transition matrix, and
explicit start/stop vectors (zero vectors recover the plain two-factor
form). The loss is the negative log-likelihood; its gradient is marginals
minus gold indicators, obtained by forward-backward inside a single
autodiff primitive. Forward-backward runs in probability space with a
rescale at every position (Rabiner 1989): the scores are exponentiated
once, less their maxima, each position costs one (B, 4) @ (4, 4) product
and one normalisation, and log Z is the sum of the log scales plus the
maxima. Scores so far apart that a scale underflows to zero (a spread of
transition, start or stop scores beyond about 700) raise ValueError
rather than give inf or NaN.

Decoding is Viterbi as a blocked max-plus scan. Step i of the recursion
applies the matrix trans.T + e[i] (to, from) to the deltas of position
i - 1 in the max-plus semiring (max for sum, + for product), whose
products are associative, as in scan-parallel Viterbi (Hassan, Sarkka and
Garcia-Fernandez 2021). The T - 1 steps are cut into blocks of
k = isqrt(T - 1): k - 1 vectorised products give every prefix product
inside every block, one short loop over the block starts carries the
deltas from block to block, and one reduction gives every other delta from
its block's start. One tournament over the deltas picks every back
pointer, and pointer jumping (about log2 T gathers) turns them into paths.
A call costs O(sqrt T) numpy calls, not O(T).

Ties go to the lowest tag index in the order B, M, E, S, at every back
pointer and at the last tag, as in the sequential recursion. The scan adds
up each delta in another order than the sequential recursion, so a delta
can differ from it in the last bits, and a path equals the sequential one
except where two candidates lie within such rounding of each other (a
float near-tie). Integer-valued scores add up exactly in any order, so
their ties break exactly as in the sequential recursion. A NaN or infinite
score at a real position, or in trans, start or stop, raises ValueError: a
scan would spread one NaN over its whole block.

Both run on padded batches: emissions (B, T, 4) with a (B, T) length mask
that is true on a prefix of each row, and one recursion or scan over T
for all B sentences. Forward-backward carries alpha, beta and the scale
past a sentence's length unchanged, so each sentence gets exactly the
numbers it would get alone. Viterbi scores padding 0, starts each path
from its sentence's delta at its last position and keeps a path's tag
past its end, so padded deltas are never read; its blocks follow the
batch's longest sentence, so a sentence's path differs from its path
alone at most on a float near-tie.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, add, matmul

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
    return add(matmul(h, head.emit_w), head.emit_b)


def _lengths(mask: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sentence lengths of a (B, T) prefix mask matching shape (B, T)."""
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != shape or 0 in shape:
        raise ValueError("mask must align with a non-empty batch")
    lengths = mask.sum(axis=1)
    if lengths.min() < 1 or not np.array_equal(
            mask, np.arange(shape[1])[None, :] < lengths[:, None]):
        raise ValueError("mask must mark a non-empty prefix of every row")
    return lengths


def _forward_backward(e: np.ndarray, valid: np.ndarray, t: np.ndarray,
                      start: np.ndarray, stop: np.ndarray,
                      lengths: np.ndarray):
    """Scaled forward-backward over time-major emissions e (T, B, 4) with
    validity valid (T, B, 1) and sentence lengths (B,).

    Every score is exponentiated once, less its maximum (per position and
    sentence for the emissions), and each position rescales alpha to sum
    to one. Returns alpha and beta (T, B, 4), whose product is the tag
    marginals, the expected transition counts (4, 4) summed over the
    batch, and the log partitions (B,). Raises ValueError when a scale
    underflows to zero or beta or the expected transition counts overflow
    (their sum over the batch can overflow where every beta is finite),
    so no inf or NaN leaves here.
    """
    n = e.shape[0]
    n_min = int(lengths.min())
    em = e.max(axis=2, keepdims=True)
    ee = np.exp(e - em)
    tm, sm, pm = t.max(), start.max(), stop.max()
    et, es, ep = np.exp(t - tm), np.exp(start - sm), np.exp(stop - pm)
    scale = np.ones(e.shape[:2] + (1,))  # 1 past each sentence's end
    alpha = np.empty_like(e)
    beta = np.empty_like(e)
    right = np.zeros_like(e)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a = es * ee[0]
        scale[0] = a.sum(axis=1, keepdims=True)
        alpha[0] = a / scale[0]
        for i in range(1, n):
            a = (alpha[i - 1] @ et) * ee[i]
            c = a.sum(axis=1, keepdims=True)
            if i < n_min:
                scale[i], alpha[i] = c, a / c
            else:
                scale[i] = np.where(valid[i], c, 1.0)
                alpha[i] = np.where(valid[i], a / scale[i], alpha[i - 1])
        z = (alpha[n - 1] * ep).sum(axis=1)
        beta[n - 1] = ep / z[:, None]
        for i in range(n - 2, -1, -1):
            right[i + 1] = ee[i + 1] * beta[i + 1] / scale[i + 1]
            b = right[i + 1] @ et.T
            beta[i] = b if i + 1 < n_min else np.where(valid[i + 1], b,
                                                       beta[i + 1])
        log_z = (np.log(scale[:, :, 0]).sum(axis=0) + np.log(z)
                 + em[:, :, 0].sum(axis=0) + sm + pm + (lengths - 1) * tm)
        right[n_min:] *= valid[n_min:]
        pairs = et * (alpha[:-1].reshape(-1, N_TAGS).T
                      @ right[1:].reshape(-1, N_TAGS))
    if not all(np.isfinite(x).all() for x in (log_z, beta, pairs)):
        raise ValueError("CRF scores too far apart: a forward-backward "
                         "scale underflowed or a sum overflowed")
    return alpha, beta, pairs, log_z


def nll_loss(emissions: Tensor, head: CrfHead, gold: np.ndarray,
             mask: np.ndarray) -> Tensor:
    """Summed negative log-likelihood of the gold tag index paths (B, T)
    of a batch; gold entries past a sentence's length are ignored.

    Returns a scalar graph node; its backward pass sets the emission
    gradient to (marginals - gold indicators), zero past each sentence's
    end, and the transition and start/stop gradients to expected minus
    observed counts, all from one scaled forward-backward (probability
    space, rescaled at every position). Raises ValueError if the scores
    are so far apart that a scale underflows (a spread of transition,
    start or stop scores beyond about 700); the emissions cannot cause it.
    """
    gold = np.asarray(gold, dtype=np.int64)
    bsz, n = emissions.data.shape[:2]
    lengths = _lengths(mask, (bsz, n))
    if gold.shape != (bsz, n):
        raise ValueError("gold paths must align with emissions")
    valid = np.asarray(mask, dtype=bool).T[:, :, None]  # (T, B, 1)
    e = np.where(valid, emissions.data.transpose(1, 0, 2), 0.0)
    g_t = np.where(valid[:, :, 0], gold.T, 0)  # (T, B), tag 0 on padding
    t = head.trans.data
    sv = head.start.data
    pv = head.stop.data
    alpha, beta, pairs, log_z = _forward_backward(e, valid, t, sv, pv,
                                                  lengths)
    rows = np.arange(bsz)
    last = g_t[lengths - 1, rows]
    gold_score = (sv[g_t[0]].sum() + pv[last].sum()
                  + np.take_along_axis(e, g_t[:, :, None], 2).sum()
                  + (t[g_t[:-1], g_t[1:]] * valid[1:, :, 0]).sum())
    value = log_z.sum() - gold_score
    parents = (emissions, head.trans, head.start, head.stop)
    out = Tensor(value, parents)

    def bwd(g: np.ndarray) -> None:
        gs = float(g)
        marg = alpha * beta * valid  # (T, B, 4), zero past each end
        ds = marg[0].sum(axis=0) - np.bincount(g_t[0], minlength=N_TAGS)
        dp = (marg[lengths - 1, rows].sum(axis=0)
              - np.bincount(last, minlength=N_TAGS))
        seen = np.bincount((g_t[:-1] * N_TAGS + g_t[1:]).ravel(),
                           weights=valid[1:, :, 0].ravel(),
                           minlength=N_TAGS * N_TAGS)
        marg[np.arange(n)[:, None], rows, g_t] -= valid[:, :, 0]
        emissions._accumulate(gs * marg.transpose(1, 0, 2))
        head.trans._accumulate(gs * (pairs - seen.reshape(N_TAGS, N_TAGS)))
        head.start._accumulate(gs * ds)
        head.stop._accumulate(gs * dp)

    out._bwd = bwd
    return out


def _max_plus_scan(e: np.ndarray, trans: np.ndarray,
                   start: np.ndarray) -> np.ndarray:
    """Viterbi deltas (T, 4, B) of position-major emissions e (T, 4, B):
    delta[i, y, b] is the best score of a path of sentence b that ends in
    tag y at position i. Blocks of k = isqrt(T - 1) steps; steps that fill
    out the last block score 0 and only reach deltas past T."""
    n, _, bsz = e.shape
    k = max(1, math.isqrt(n - 1))
    m = max(1, -(-(n - 1) // k))
    steps = np.zeros((m, k, N_TAGS, 1, bsz))
    steps.reshape(m * k, N_TAGS, bsz)[:n - 1] = e[1:]
    # step i's matrix is trans.T + e[i] (to, from); prefix[j] of block b
    # becomes the max-plus product of its steps 1 + bk + j, ..., 1 + bk
    prefix = np.empty((k, N_TAGS, N_TAGS, m, bsz))
    np.add(trans.T[:, :, None, None], steps.transpose(1, 2, 3, 0, 4),
           out=prefix)
    prod = np.empty((N_TAGS,) + prefix.shape[1:])  # (to, mid, from, m, B)
    for j in range(1, k):
        np.add(prefix[j][:, :, None], prefix[j - 1], out=prod)
        prod.max(axis=1, out=prefix[j])
    # deltas at the block starts 0, k, 2k, ..., then all others from them
    delta = np.empty((m * k + 1, N_TAGS, bsz))
    delta[0] = start[:, None] + e[0]
    whole = prefix[-1].transpose(2, 0, 1, 3)  # (m, to, from, B)
    for b in range(1, m):
        (whole[b - 1] + delta[(b - 1) * k]).max(axis=1, out=delta[b * k])
    prefix += delta[:-1:k].transpose(1, 0, 2)
    prefix.max(axis=2,
               out=delta[1:].reshape(m, k, N_TAGS, bsz).transpose(1, 2, 0, 3))
    return delta[:n]


def viterbi_decode(emissions: np.ndarray, trans: np.ndarray,
                   start: np.ndarray, stop: np.ndarray,
                   mask: np.ndarray) -> np.ndarray:
    """Highest-scoring tag index paths (B, T) of a batch of emissions
    (B, T, 4) with length mask (B, T); ties pick the lowest index. Entries
    past a sentence's length repeat its last tag. Raises ValueError when
    a score at a real position, or in trans, start or stop, is NaN or
    infinite; padding may hold anything."""
    em = np.asarray(emissions, dtype=np.float64)
    bsz, n = em.shape[:2]
    lengths = _lengths(mask, (bsz, n))
    valid = np.asarray(mask, dtype=bool).T  # (T, B)
    # position-major emissions, batch last; padding scores 0
    e = np.where(valid[:, None], em.transpose(1, 2, 0), 0.0)
    if not all(np.isfinite(x).all() for x in (e, trans, start, stop)):
        raise ValueError("Viterbi scores must be finite")
    # the scan's block arrays are freed before the back pointers allocate
    # theirs, which keeps the heap that each call grows and trims small
    delta = _max_plus_scan(e, trans, start)
    # back[i - 1, to]: the best tag at i - 1 before tag `to` at i, the
    # argmax over `from` as a two-round tournament, ties to the lower tag
    # (argmax over an axis of 4 costs a loop per row of 4)
    cand = np.empty((N_TAGS, n - 1, N_TAGS, bsz))  # (from, T - 1, to, B)
    np.add(delta[:n - 1].transpose(1, 0, 2)[:, :, None],
           trans[:, None, :, None], out=cand)
    back = np.where(np.maximum(cand[2], cand[3])
                    > np.maximum(cand[0], cand[1]),
                    (cand[3] > cand[2]) + 2, cand[1] > cand[0])
    rows = np.arange(bsz)
    last = (delta[lengths - 1, :, rows] + stop).argmax(axis=1)
    # pointer jumping: jump[i, t, b] is the flat index in jump of (i, s, b),
    # s the tag at i of the best path through tag t at min(i + span, T - 1);
    # past its end a path keeps its tag
    same = np.arange(N_TAGS)[:, None]
    width = N_TAGS * bsz
    base = np.arange(n)[:, None] * width + rows  # (T, B)
    jump = np.empty((n, N_TAGS, bsz), dtype=np.intp)
    jump[:-1] = np.where(valid[1:, None], back, same)
    jump[-1] = same
    jump = jump * bsz + base[:, None]
    flat = jump.reshape(-1)
    span = 1
    while span < n - 1:
        flat.take(jump[span:] - span * width, out=jump[:n - span])
        span *= 2
    return ((flat.take(base + last * bsz) - base) // bsz).T
