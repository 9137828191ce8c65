"""Linear-chain CRF over the four BMES tags.

Scores factor into per-position emissions, a 4x4 transition matrix, and
explicit start/stop vectors (zero vectors recover the plain two-factor
form). The loss is the negative log-likelihood computed with a log-space
forward pass; its gradient is marginals minus gold indicators, obtained by
forward-backward inside a single autodiff primitive. Decoding is Viterbi
with ties broken toward the lowest tag index in the order B, M, E, S.

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


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    m = np.max(a, axis=axis, keepdims=True)
    out = m + np.log(np.sum(np.exp(a - m), axis=axis, keepdims=True))
    return np.squeeze(out, axis=axis)


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
                      start: np.ndarray, stop: np.ndarray, n_min: int):
    """Log alpha and log beta (T, B, 4) and log partitions (B,) for
    time-major emissions e (T, B, 4) and validity valid (T, B, 1); every
    sentence is at least n_min long."""
    n = e.shape[0]
    alpha = np.empty_like(e)
    alpha[0] = start + e[0]
    for i in range(1, n):
        a = _logsumexp(alpha[i - 1][:, :, None] + t, axis=1) + e[i]
        alpha[i] = a if i < n_min else np.where(valid[i], a, alpha[i - 1])
    log_z = _logsumexp(alpha[n - 1] + stop, axis=1)
    beta = np.empty_like(e)
    beta[n - 1] = stop
    for i in range(n - 2, -1, -1):
        b = _logsumexp(t + (e[i + 1] + beta[i + 1])[:, None, :], axis=2)
        beta[i] = b if i + 1 < n_min else np.where(valid[i + 1], b,
                                                   beta[i + 1])
    return alpha, beta, log_z


def nll_loss(emissions: Tensor, head: CrfHead, gold: np.ndarray,
             mask: np.ndarray) -> Tensor:
    """Summed negative log-likelihood of the gold tag index paths (B, T)
    of a batch; gold entries past a sentence's length are ignored.

    Returns a scalar graph node; its backward pass sets the emission
    gradient to (marginals - gold indicators), zero past each sentence's
    end, and the transition and start/stop gradients to expected minus
    observed counts, all computed by forward-backward in log space.
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
    alpha, beta, log_z = _forward_backward(e, valid, t, sv, pv,
                                           int(lengths.min()))
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
        # position marginals (T, B, 4), zero past each sentence's end
        marg = np.where(valid, np.exp(alpha + beta - log_z[:, None]), 0.0)
        de = marg.copy()
        de[np.arange(n)[:, None], rows, g_t] -= valid[:, :, 0]
        emissions._accumulate(gs * de.transpose(1, 0, 2))
        # pair marginals of positions (i, i + 1); -inf where i + 1 is padding
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
