"""Neural building blocks: embeddings, gated convolutional encoder,
text-CNN classifier, and the Adam optimizer.

Shapes are batched: B sentences become one (B, T, emb) tensor, T being the
longest length, together with a (B, T) boolean length mask that is true at
the real characters. Rows past a sentence's length are padding: they read
no embedding row, every convolution sees them as zeros, and they get no
gradient. A GCNN layer is the tuple of its tensors (w, b, v, c) and a
text-CNN bank is (w, b); each stack calls the autodiff node of its layers
itself. All parameters are float64 Tensors registered under stable dotted
names so optimizers and the model container see them in a fixed order.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import (Tensor, concat_cols, conv1d, gated_conv,
                       gather_rows, matmul, max_over_time)

UNK_INDEX = 0


@dataclass
class EmbeddingTable:
    """Character embeddings; row 0 is reserved for unknown characters."""
    vocab: dict[str, int]
    table: Tensor  # (len(vocab) + 1, dim)

    @staticmethod
    def build(sentences: list[str], dim: int,
              rng: np.random.Generator) -> "EmbeddingTable":
        chars = sorted({c for s in sentences for c in s})
        for c in chars:
            if c.isspace():
                raise ValueError("whitespace character in vocabulary")
        vocab = {c: i + 1 for i, c in enumerate(chars)}
        table = Tensor(rng.uniform(-0.1, 0.1, (len(chars) + 1, dim)))
        return EmbeddingTable(vocab, table)

    def indices(self, sentences: list[str]) -> np.ndarray:
        """(B, T) table rows of a batch of sentences, -1 past each end."""
        if not sentences:
            raise ValueError("cannot embed an empty batch")
        if not all(sentences):
            raise ValueError("cannot embed an empty sentence")
        idx = np.full((len(sentences), max(map(len, sentences))), -1,
                      dtype=np.int64)
        for row, s in zip(idx, sentences):
            row[:len(s)] = [self.vocab.get(c, UNK_INDEX) for c in s]
        return idx

    def embed(self, sentences: list[str]) -> tuple[Tensor, np.ndarray]:
        """The (B, T, dim) embedded batch, zero past each sentence's end,
        and its (B, T) length mask."""
        idx = self.indices(sentences)
        return gather_rows(self.table, idx), idx >= 0


@dataclass
class GcnnEncoder:
    """Stack of gated convolution layers with same-length output.

    A layer is its tensors (w, b, v, c) and one autodiff.gated_conv node:
    with xs = x * scale, scale being the length mask times the dropout
    multiplier, (xs * w + b) elementwise-times sigmoid(xs * v + c). The
    input of every layer is thus zeroed at padded rows, so the last real
    character of a sentence sees zeros on its right as it would alone.
    Inverted dropout is applied to the input of every layer, only in a
    forward given an rng, with one draw per layer for the whole batch.
    """
    # per layer (w, b, v, c): w and v (k, d_in, d_out), b and c (d_out,)
    layers: list[tuple[Tensor, Tensor, Tensor, Tensor]]
    dropout: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout rate must be in [0, 1)")

    @staticmethod
    def create(n_layers: int, k: int, d_in: int, d_out: int, drop: float,
               rng: np.random.Generator) -> "GcnnEncoder":
        if k % 2 != 1:
            raise ValueError("kernel width must be odd")
        layers = []
        for i in range(n_layers):
            shape = (k, d_in if i == 0 else d_out, d_out)
            s = 1.0 / np.sqrt(k * shape[1])
            layers.append((Tensor(rng.uniform(-s, s, shape)),
                           Tensor(np.zeros(d_out)),
                           Tensor(rng.uniform(-s, s, shape)),
                           Tensor(np.zeros(d_out))))
        return GcnnEncoder(layers, drop)

    def forward(self, x: Tensor, mask: np.ndarray,
                rng: np.random.Generator | None = None) -> Tensor:
        """(B, T, d_in) features of a batch with length mask (B, T) ->
        (B, T, d_out); output rows past a sentence's end are unspecified."""
        drop = rng is not None and self.dropout > 0.0
        keep = mask[:, :, None]
        h = x
        for layer in self.layers:
            scale = keep
            if drop:  # inverted dropout, one draw per layer input
                survive = rng.random(h.data.shape) >= self.dropout
                scale = keep * (survive / (1.0 - self.dropout))
            h = gated_conv(h, scale, *layer)
        return h

    def params(self, prefix: str) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for i, layer in enumerate(self.layers):
            out.update(zip([f"{prefix}.{i}.{n}" for n in "wbvc"], layer))
        return out


@dataclass
class TextCnn:
    """Sentence classifier: per-window convolution banks, max-over-time
    pooling, concatenation, then a linear layer to one logit.

    A bank's window is its weight's first axis. Inputs shorter than a
    window are zero padded at the end to window size. The final linear
    layer starts at zero so a fresh classifier outputs logit 0.
    """
    convs: list[tuple[Tensor, Tensor]]  # per window: weights (w, d, f), bias (f,)
    proj_w: Tensor  # (len(convs) * f, 1)
    proj_b: Tensor  # (1, 1)

    @staticmethod
    def create(windows: tuple[int, ...], d_in: int, filters: int,
               rng: np.random.Generator) -> "TextCnn":
        convs = []
        for w in windows:
            s = 1.0 / np.sqrt(w * d_in)
            convs.append((Tensor(rng.uniform(-s, s, (w, d_in, filters))),
                          Tensor(np.zeros(filters))))
        proj_w = Tensor(np.zeros((len(windows) * filters, 1)))
        proj_b = Tensor(np.zeros((1, 1)))
        return TextCnn(convs, proj_w, proj_b)

    def forward(self, h: Tensor, mask: np.ndarray) -> Tensor:
        """Logits (B, 1) that each sentence of a batch (B, T, d) with length
        mask (B, T) is from the source domain. Each window bank pools
        over the windows that start inside the sentence and, for a sentence
        shorter than the window, over the one window at its start. Every
        bank scales its input by the length mask, so padded rows read
        zeros."""
        n = h.data.shape[1]
        lengths = mask.sum(axis=1)
        pooled = []
        for cw, cb in self.convs:
            w = cw.data.shape[0]
            c = conv1d(h, mask[:, :, None], cw, cb, 0, max(0, w - n))
            last = np.maximum(lengths, w) - w  # last window start
            starts = np.arange(c.data.shape[1])
            pooled.append(max_over_time(c, starts[None, :] <= last[:, None]))
        cat = concat_cols(pooled)
        return matmul(cat, self.proj_w, self.proj_b)

    def params(self, prefix: str) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for cw, cb in self.convs:
            w = cw.data.shape[0]
            out[f"{prefix}.conv{w}.w"] = cw
            out[f"{prefix}.conv{w}.b"] = cb
        out[f"{prefix}.proj_w"] = self.proj_w
        out[f"{prefix}.proj_b"] = self.proj_b
        return out


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class Adam:
    """Adam with bias correction; one instance owns one parameter group.

    Every parameter of the group must hold a gradient at step time: a
    parameter that no loss reached is an error, not a zero step.
    """
    params: dict[str, Tensor]
    lr: float = 0.001
    t: int = field(default=0, init=False)
    moments: dict[str, tuple[np.ndarray, np.ndarray]] = field(
        default_factory=dict, init=False)

    def __post_init__(self):
        for name, p in self.params.items():
            self.moments[name] = (np.zeros_like(p.data), np.zeros_like(p.data))

    def step(self) -> None:
        """One update of every parameter; a parameter without a gradient
        raises ValueError naming it before any state changes."""
        for name, p in self.params.items():
            if p.grad is None:
                raise ValueError(f"parameter {name!r} has no gradient: "
                                 "no loss reached it")
        self.t += 1
        b1t = 1.0 - ADAM_BETA1 ** self.t
        b2t = 1.0 - ADAM_BETA2 ** self.t
        for name, p in self.params.items():
            g = p.grad
            m, v = self.moments[name]
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * g * g
            p.data -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + ADAM_EPS)

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None
