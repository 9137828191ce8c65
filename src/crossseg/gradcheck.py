"""Central finite-difference verification of every analytic gradient.

Each check builds a scalar loss from a small randomized model, runs one
backward pass, then perturbs sampled coordinates of every parameter by
+-H and compares the numeric slope against the stored gradient. Every
check runs on a padded batch of sentences of different lengths, so the
differences also cover the masking. All forwards run in eval mode so
repeated evaluation is deterministic.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import crf as crf_mod
from .autodiff import Tensor, backward, gated_conv, mul, sum_all
from .nn import GcnnEncoder, TextCnn
from .train import (Segmenter, TrainConfig, confusion_loss,
                    discriminator_loss, tagging_losses)

H = 1e-4
MAX_COORDS = 20
TOLERANCE = 1e-4


@dataclass(frozen=True)
class GradCheckResult:
    name: str
    max_rel_error: float
    tolerance: float

    @property
    def ok(self) -> bool:
        return self.max_rel_error <= self.tolerance


def max_rel_error(build, params: dict[str, Tensor],
                  rng: np.random.Generator) -> float:
    """Worst relative error between analytic and central-difference
    gradients (step H) over up to MAX_COORDS sampled coordinates per
    parameter. A parameter the loss does not reach raises ValueError
    naming it."""
    loss = build()
    backward(loss)
    analytic = {}
    for name, t in params.items():
        if t.grad is None:
            raise ValueError(f"parameter {name!r} has no gradient")
        analytic[name] = t.grad.copy()
        t.grad = None
    worst = 0.0
    for name, t in params.items():
        flat = t.data.reshape(-1)
        if flat.size <= MAX_COORDS:
            coords = np.arange(flat.size)
        else:
            coords = rng.choice(flat.size, size=MAX_COORDS, replace=False)
        ana = analytic[name].reshape(-1)
        for c in coords:
            orig = flat[c]
            flat[c] = orig + H
            fp = build().item()
            flat[c] = orig - H
            fm = build().item()
            flat[c] = orig
            num = (fp - fm) / (2.0 * H)
            err = abs(num - ana[c]) / max(1.0, abs(num), abs(ana[c]))
            worst = max(worst, err)
    return worst


def _ragged(rng: np.random.Generator, lengths: tuple[int, ...],
            dim: int) -> tuple[Tensor, np.ndarray]:
    """A random padded batch (B, T, dim), zero past each length, and its
    length mask."""
    mask = np.arange(max(lengths))[None, :] < np.array(lengths)[:, None]
    return Tensor(rng.normal(size=(*mask.shape, dim)) * mask[:, :, None]), \
        mask


def _masked_sum(h: Tensor, mask: np.ndarray) -> Tensor:
    return sum_all(mul(h, mask[:, :, None]))


def _check_gcnn_layer(rng: np.random.Generator) -> float:
    x, mask = _ragged(rng, (5, 3), 3)
    layer = GcnnEncoder.create(1, 3, 3, 2, 0.0, rng).layers[0]
    w, b, v, c = layer
    b.data[:] = 0.1 * rng.normal(size=2)
    c.data[:] = 0.1 * rng.normal(size=2)
    # a training-style scale: the length mask times inverted dropout
    scale = mask[:, :, None] * (rng.random(x.shape) >= 0.3) / 0.7
    params = {"x": x, "w": w, "b": b, "v": v, "c": c}
    return max_rel_error(
        lambda: _masked_sum(gated_conv(x, scale, *layer), mask), params, rng)


def _check_gcnn_encoder(rng: np.random.Generator) -> float:
    x, mask = _ragged(rng, (6, 4, 1), 3)
    enc = GcnnEncoder.create(2, 3, 3, 2, 0.0, rng)
    params = {"x": x, **enc.params("enc")}
    return max_rel_error(lambda: _masked_sum(enc.forward(x, mask), mask),
                         params, rng)


def _check_textcnn(rng: np.random.Generator) -> float:
    tc = TextCnn.create((2, 3), 3, 2, rng)
    tc.proj_w.data[:] = 0.5 * rng.normal(size=tc.proj_w.data.shape)
    tc.proj_b.data[:] = 0.1 * rng.normal(size=tc.proj_b.data.shape)
    # the second sentence is shorter than both windows
    x, mask = _ragged(rng, (4, 1, 2), 3)
    weights = rng.normal(size=(3, 1))  # one per sentence's logit
    params = {"x": x, **tc.params("disc")}
    return max_rel_error(lambda: sum_all(mul(tc.forward(x, mask), weights)),
                         params, rng)


def _check_crf_nll(rng: np.random.Generator) -> float:
    hidden = 3
    head = crf_mod.CrfHead.create(hidden, rng)
    head.emit_b.data[:] = 0.3 * rng.normal(size=4)
    head.trans.data[:] = 0.3 * rng.normal(size=(4, 4))
    head.start.data[:] = 0.3 * rng.normal(size=4)
    head.stop.data[:] = 0.3 * rng.normal(size=4)
    # T - 1 = 10 steps make three scan blocks of three and a last of one
    x, mask = _ragged(rng, (11, 6, 1), hidden)
    gold = rng.integers(0, 4, size=mask.shape)

    def build() -> Tensor:
        return crf_mod.nll_loss(crf_mod.emission_scores(x, head), head, gold,
                                mask)

    params = {"x": x, **head.params("crf")}
    return max_rel_error(build, params, rng)


def _tiny_model(rng: np.random.Generator) -> Segmenter:
    cfg = TrainConfig(epochs=1, batch_size=2, dropout=0.0, char_emb=3,
                      gcnn_dim=3, gcnn_layers=1, textcnn_filters=2,
                      filter_sizes=(2, 3), window=3)
    model = Segmenter.create(["abcd", "ebc", "ddca"], cfg, rng, "daat")
    model.disc.proj_w.data[:] = 0.5 * rng.normal(
        size=model.disc.proj_w.data.shape)
    return model


# Source and target batches of the model checks: ragged within each batch,
# and a target sentence shorter than a discriminator window.
SRC = [("abcd", "BMME"), ("ebc", "SBE")]
TGT = [("ddca", "BESS"), ("a", "S")]
# The adversarial checks encode these two and a target block shorter than
# every discriminator window beside length-1 source rows.
STEPS = (([s for s, _ in SRC], [s for s, _ in TGT]),
         (["a", "abcd", "e"], ["d", "c"]))


def _blocks(model: Segmenter, src: list[str], tgt: list[str]):
    return model.encode(src, "source"), model.encode(tgt, "target")


def _worst_over_steps(loss_fn, model: Segmenter, params, rng) -> float:
    return max(max_rel_error(lambda: loss_fn(model, *_blocks(model, *step)),
                             params, rng) for step in STEPS)


def _named(model: Segmenter, *prefixes: str) -> dict[str, Tensor]:
    """The params() tensors whose names start with one of prefixes."""
    return {k: v for k, v in model.params().items() if k.startswith(prefixes)}


def _check_discriminator(rng: np.random.Generator) -> float:
    model = _tiny_model(rng)
    # detached by the loss: only disc gets gradient
    return _worst_over_steps(discriminator_loss, model,
                             _named(model, "disc."), rng)


def _check_confusion(rng: np.random.Generator) -> float:
    model = _tiny_model(rng)
    params = _named(model, "embedding", "enc_shr.", "disc.")
    return _worst_over_steps(confusion_loss, model, params, rng)


def _check_tagging(rng: np.random.Generator) -> float:
    model = _tiny_model(rng)

    def build() -> Tensor:
        l_src, l_tgt = tagging_losses(*_blocks(model, *STEPS[0]),
                                      [t for _, t in SRC],
                                      [t for _, t in TGT])
        return l_src + l_tgt

    return max_rel_error(build, _named(model, "embedding", "enc_", "crf_"),
                         rng)


CHECKS = (
    ("gcnn_layer", _check_gcnn_layer),
    ("gcnn_encoder", _check_gcnn_encoder),
    ("textcnn", _check_textcnn),
    ("crf_nll", _check_crf_nll),
    ("discriminator_loss", _check_discriminator),
    ("confusion_loss", _check_confusion),
    ("tagging_losses", _check_tagging),
)


def run_suite(trials: int = 2, tolerance: float = TOLERANCE,
              seed: int = 42) -> list[GradCheckResult]:
    """Run every check `trials` times with fresh random draws; report the
    worst error seen per check."""
    if trials < 1:
        raise ValueError("trials must be positive")
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise ValueError("tolerance must be positive and finite")
    results = []
    for i, (name, check) in enumerate(CHECKS):
        worst = 0.0
        for trial in range(trials):
            rng = np.random.default_rng(seed + 1000 * trial + 13 * i)
            worst = max(worst, check(rng))
        results.append(GradCheckResult(name, worst, tolerance))
    return results
