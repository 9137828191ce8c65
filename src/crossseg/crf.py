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
rather than give inf or NaN. Decoding is Viterbi in max-plus form, with
ties broken toward the lowest tag index in the order B, M, E, S.

Both run on padded batches: emissions (B, T, 4) with a (B, T) length mask
that is true on a prefix of each row. One recursion over T serves all B
sentences; at positions past a sentence's length its alpha, beta and
Viterbi scores are carried over unchanged, so each sentence gets exactly
the numbers it would get alone, and its padded emissions are never read.
"""
from __future__ import annotations

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


def viterbi_decode(emissions: np.ndarray, trans: np.ndarray,
                   start: np.ndarray, stop: np.ndarray,
                   mask: np.ndarray) -> np.ndarray:
    """Highest-scoring tag index paths (B, T) of a batch of emissions
    (B, T, 4) with length mask (B, T); ties pick the lowest index. Entries
    past a sentence's length repeat its last tag."""
    e = np.asarray(emissions, dtype=np.float64)
    bsz, n = e.shape[:2]
    n_min = int(_lengths(mask, (bsz, n)).min())
    e = np.ascontiguousarray(e.transpose(1, 0, 2))  # (T, B, 4)
    valid = np.asarray(mask, dtype=bool).T[:, :, None]  # (T, B, 1)
    stay = np.broadcast_to(np.arange(N_TAGS), (bsz, N_TAGS))
    delta = start + e[0]
    back = np.empty((n, bsz, N_TAGS), dtype=np.int64)
    for i in range(1, n):
        cand = delta[:, :, None] + trans  # (B, from, to)
        best = cand.argmax(axis=1)
        step = cand.max(axis=1) + e[i]
        if i < n_min:
            back[i], delta = best, step
        else:
            back[i] = np.where(valid[i], best, stay)
            delta = np.where(valid[i], step, delta)
    path = np.empty((bsz, n), dtype=np.int64)
    rows = np.arange(bsz)
    path[:, n - 1] = (delta + stop).argmax(axis=1)
    for i in range(n - 1, 0, -1):
        path[:, i - 1] = back[i, rows, path[:, i]]
    return path
