"""Span-level segmentation scoring.

A predicted word counts as correct only when its (start, end) span exactly
matches a gold span of the same sentence. Precision, recall and F1 are
micro-averaged over all sentences.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import AlignmentError


@dataclass(frozen=True)
class EvalReport:
    precision: float
    recall: float
    f1: float
    gold: int
    pred: int
    correct: int


def _spans(words: list[str]) -> set[tuple[int, int]]:
    out = set()
    pos = 0
    for w in words:
        out.add((pos, pos + len(w)))
        pos += len(w)
    return out


def prf(gold: list[list[str]], pred: list[list[str]]) -> EvalReport:
    """Micro precision/recall/F1 by exact span match.

    Sentences pair up by index; differing underlying text raises
    AlignmentError naming the sentence. Empty denominators score 0.
    """
    if len(gold) != len(pred):
        raise AlignmentError(
            f"corpus size mismatch: {len(gold)} gold vs {len(pred)} predicted")
    n_gold = n_pred = n_corr = 0
    for i, (g, p) in enumerate(zip(gold, pred)):
        if "".join(g) != "".join(p):
            raise AlignmentError(f"sentence {i}: text differs between gold "
                                 "and prediction")
        gs, ps = _spans(g), _spans(p)
        n_gold += len(gs)
        n_pred += len(ps)
        n_corr += len(gs & ps)
    precision = n_corr / n_pred if n_pred else 0.0
    recall = n_corr / n_gold if n_gold else 0.0
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall else 0.0)
    return EvalReport(precision, recall, f1, n_gold, n_pred, n_corr)


def report_json(ev: EvalReport) -> bytes:
    """Single-line JSON with fixed six-decimal reals, byte deterministic."""
    line = ('{{"precision":{:.6f},"recall":{:.6f},"f1":{:.6f},'
            '"gold":{},"pred":{},"correct":{}}}').format(
        ev.precision, ev.recall, ev.f1, ev.gold, ev.pred, ev.correct)
    return (line + "\n").encode("ascii")


def write_report(path: str, ev: EvalReport) -> None:
    with open(path, "wb") as f:
        f.write(report_json(ev))
