"""Segmenter training: single-domain baseline and the dual-encoder
adversarial trainer, both run by one training loop.

The baseline segmenter is embedding -> gated convolution stack -> CRF. The
adversarial model keeps three encoders over one shared embedding table: a
private encoder per domain plus a shared one. A sentence from domain d is
scored by the CRF head of d on the concatenation [private_d ; shared]. A
text-CNN discriminator reads the same shared features. Every step runs on
padded (B, T, d) batches with a (B, T) length mask. Each domain's batch
is encoded on its own, padded only to its own longest sentence: one
embedding, one shared-encoder pass and one pass of its private encoder,
and that one shared pass feeds both the domain's CRF head and the
discriminator. Decoding sorts sentences by length into buckets of at most
DECODE_BUDGET padded positions and runs one tower pass and one Viterbi
per bucket. Steps alternate between sharpening the discriminator (odd
steps, discriminator loss on detached shared features) and confusing it
(even steps, confusion loss, discriminator frozen). All randomness flows
from the config seed, so two runs with equal inputs produce identical
parameters.

One loop, _fit, runs both trainers; each gives it a batch source per epoch
and a step function. It backpropagates, steps the optimizers, sends one
record per step to the hook and the TSV log, and names the epoch and step
of a step whose scores diverge.

Both model kinds save and load through one path: a container holds the
kind (and mode), the config fields stored for that kind, the vocabulary,
and every params() tensor under exactly its params() name. load_model
checks the kind, mode, keys, tensor names and shapes; load_container has
checked the layout up to EOF.
"""
from __future__ import annotations

import math
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, fields
from itertools import islice
from numbers import Integral
from typing import NamedTuple

import numpy as np

from . import crf as crf_mod
from .autodiff import (Tensor, backward, concat_cols, log, scale, sub,
                       sum_all)
from .corpus import (TAGS, TAG_INDEX, LabeledDataset, read_lines,
                     tags_to_words)
from .errors import DataError
from .model_io import load_container, save_container
from .nn import (Adam, EmbeddingTable, GcnnEncoder, TextCnn, clamped)


@dataclass
class TrainConfig:
    epochs: int = 30
    batch_size: int = 128
    lr: float = 0.001
    dropout: float = 0.3
    char_emb: int = 200
    gcnn_dim: int = 200
    gcnn_layers: int = 5
    textcnn_filters: int = 200
    filter_sizes: tuple[int, ...] = (3, 4, 5)
    window: int = 3
    seed: int = 42

    def __post_init__(self):
        ints = ("epochs", "batch_size", "char_emb", "gcnn_dim",
                "gcnn_layers", "textcnn_filters", "window")
        for name in ints + ("seed",):
            if not _is_int(getattr(self, name)):
                raise ValueError(f"{name} must be an integer")
        for name in ints:
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError("lr must be positive and finite")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must lie in [0, 1)")
        if self.window % 2 != 1:
            raise ValueError("window must be odd")
        self.filter_sizes = tuple(self.filter_sizes)
        if not all(map(_is_int, self.filter_sizes)):
            raise ValueError("filter_sizes must be integers")
        if not self.filter_sizes or min(self.filter_sizes) <= 0:
            raise ValueError("filter_sizes must be positive")
        if len(set(self.filter_sizes)) != len(self.filter_sizes):
            raise ValueError("filter_sizes must be distinct")


def _is_int(value) -> bool:
    return isinstance(value, Integral) and not isinstance(value, bool)


_FIELD_NAMES = frozenset(f.name for f in fields(TrainConfig))


def parse_field(key: str, text: str):
    """The value of TrainConfig field `key` from its text form: a float
    for lr and dropout, comma separated ints for filter_sizes, an int for
    the rest. An unknown key or a bad value is a ValueError naming the key;
    TrainConfig checks the range."""
    if key not in _FIELD_NAMES:
        raise ValueError(f"unknown key {key!r}")
    try:
        if key == "filter_sizes":
            return tuple(int(v) for v in text.split(","))
        return (float if key in ("lr", "dropout") else int)(text)
    except ValueError:
        raise ValueError(f"bad value for {key!r}") from None


def load_config(path: str) -> TrainConfig:
    """Parse key=value lines into a TrainConfig; blank lines and lines
    starting with # are skipped. A line without =, an unknown key, a bad
    value or invalid UTF-8 is a DataError naming the line."""
    values: dict = {}
    for i, line in enumerate(read_lines(path), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, text = (part.strip() for part in line.partition("="))
        if not eq:
            raise DataError(f"{path}: line {i}: expected key=value")
        try:
            values[key] = parse_field(key, text)
        except ValueError as exc:
            raise DataError(f"{path}: line {i}: {exc}") from None
    try:
        return TrainConfig(**values)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None


def _batch_loss(h: Tensor, head: crf_mod.CrfHead, mask: np.ndarray,
                tags: list[str]) -> Tensor:
    """Mean CRF negative log-likelihood of the gold tags of a batch given
    its features (B, T, d), CRF head and length mask; one path for both
    trainers."""
    gold = np.zeros(mask.shape, dtype=np.int64)
    for row, t in zip(gold, tags):
        row[:len(t)] = [TAG_INDEX[c] for c in t]
    nll = crf_mod.nll_loss(crf_mod.emission_scores(h, head), head, gold, mask)
    return scale(nll, 1.0 / len(tags))


# Padded positions (sentences times the longest length) of one decoding
# bucket; 1,024 measured faster than 256 or 4,096. A longer sentence gets a
# bucket of its own.
DECODE_BUDGET = 1024


def _buckets(sentences: list[str]) -> list[list[int]]:
    """Indices of the non-empty sentences, sorted by length and cut into
    runs of at most DECODE_BUDGET padded positions each."""
    order = sorted((i for i, s in enumerate(sentences) if s),
                   key=lambda i: len(sentences[i]))
    out: list[list[int]] = []
    for i in order:
        if out and (len(out[-1]) + 1) * len(sentences[i]) <= DECODE_BUDGET:
            out[-1].append(i)
        else:
            out.append([i])
    return out


def _segment_batch(model: "Segmenter | DaatModel", sentences: list[str],
                   domain: str = "target") -> list[list[str]]:
    """Words of the Viterbi tag path of every sentence, in input order (an
    empty sentence gives []). Each length bucket runs one tower pass and
    one Viterbi; domain picks the tower of a DAAT model and is ignored by a
    Segmenter."""
    out: list[list[str]] = [[] for _ in sentences]
    for bucket in _buckets(sentences):
        batch = [sentences[i] for i in bucket]
        h, head, mask = model._tower(batch, domain)
        emis = crf_mod.emission_scores(h, head)
        paths = crf_mod.viterbi_decode(emis.data, head.trans.data,
                                       head.start.data, head.stop.data, mask)
        for i, s, path in zip(bucket, batch, paths):
            tags = "".join(TAGS[k] for k in path[:len(s)])
            out[i] = tags_to_words(s, tags)
    return out


def _segment(model: "Segmenter | DaatModel", sentence: str,
             domain: str = "target") -> list[str]:
    """Words of the Viterbi tag path of one sentence (segment_batch)."""
    return model.segment_batch([sentence], domain)[0]


# The losses a step reports, in the order of their TSV columns.
_LOSSES = ("l_src", "l_tgt", "l_adv")


def _fit(cfg: TrainConfig, batches, step, opts: list[Adam],
         log_path: str | None, hook=None) -> list[dict]:
    """The training loop of both trainers; returns the step records.

    Each epoch walks the iterator batches() returns; step(j, batch) gives
    the losses in _LOSSES order (None where the trainer has none), the
    optimizers to step and the branch. After zero_grad the record goes to
    hook and to a TSV row: epoch, step, the losses ("-" for None) and the
    milliseconds since before the batch was assembled. A step's ValueError
    is re-raised naming the epoch, the step and the last record's losses.
    """
    records: list[dict] = []
    with open(log_path, "w", encoding="utf-8") if log_path \
            else nullcontext() as log_f:
        for epoch in range(1, cfg.epochs + 1):
            epoch_batches = batches()
            t0 = time.monotonic()
            for j, batch in enumerate(epoch_batches, start=1):
                try:
                    losses, stepped, branch = step(j, batch)
                    present = [l for l in losses if l is not None]
                    backward(sum(present[1:], present[0]))
                except ValueError as exc:
                    last = {k: r[k] for r in records[-1:] for k in _LOSSES}
                    raise ValueError(f"epoch {epoch}, step {j}: {exc}; "
                                     f"last losses {last}") from exc
                for opt in stepped:
                    opt.step()
                for opt in opts:
                    opt.zero_grad()
                rec = {"epoch": epoch, "step": j, "branch": branch,
                       **{k: None if l is None else l.item()
                          for k, l in zip(_LOSSES, losses)}}
                records.append(rec)
                if hook:
                    hook(rec)
                if log_f:
                    ms = (time.monotonic() - t0) * 1000.0
                    print(epoch, j, *("-" if rec[k] is None else
                                      f"{rec[k]:.6f}" for k in _LOSSES),
                          f"{ms:.1f}", sep="\t", file=log_f)
                t0 = time.monotonic()
    return records


@dataclass(eq=False)
class Segmenter:
    """Single-domain GCNN-CRF segmenter."""
    embedding: EmbeddingTable
    encoder: GcnnEncoder
    head: crf_mod.CrfHead
    config: TrainConfig
    loss_history: list[float] = field(default_factory=list, init=False)

    @staticmethod
    def create(sentences: list[str], cfg: TrainConfig,
               rng: np.random.Generator) -> "Segmenter":
        emb = EmbeddingTable.build(sentences, cfg.char_emb, rng)
        enc = GcnnEncoder.create(cfg.gcnn_layers, cfg.window, cfg.char_emb,
                                 cfg.gcnn_dim, cfg.dropout, rng)
        head = crf_mod.CrfHead.create(cfg.gcnn_dim, rng)
        return Segmenter(emb, enc, head, cfg)

    def params(self) -> dict[str, Tensor]:
        out = {"embedding": self.embedding.table}
        out.update(self.encoder.params("enc"))
        out.update(self.head.params("crf"))
        return out

    def _tower(self, sentences: list[str], domain: str,
               training: bool = False,
               rng: np.random.Generator | None = None):
        """Encoder features of a batch, the CRF head and the length mask;
        domain is ignored."""
        x, mask = self.embedding.embed(sentences)
        return self.encoder.forward(x, mask, training, rng), self.head, mask

    segment_batch = _segment_batch
    segment = _segment

    def save(self, path: str) -> None:
        _save(self, path, {"kind": "segmenter"})


def _vocab_string(emb: EmbeddingTable) -> str:
    chars = sorted(emb.vocab, key=emb.vocab.get)
    return "".join(chars)


def train_base(ds: LabeledDataset, cfg: TrainConfig,
               log_path: str | None = None) -> Segmenter:
    """Minimize the CRF negative log-likelihood with Adam over shuffled
    mini-batches; deterministic given cfg.seed."""
    if len(ds) == 0:
        raise ValueError("empty training dataset")
    rng = np.random.default_rng(cfg.seed)
    model = Segmenter.create([s for s, _ in ds.items], cfg, rng)
    opt = Adam(model.params(), lr=cfg.lr)

    def batches():
        order = rng.permutation(len(ds))  # drawn before the epoch's dropout
        return ([ds.items[i] for i in order[lo:lo + cfg.batch_size]]
                for lo in range(0, len(ds), cfg.batch_size))

    def step(j: int, batch: list[tuple[str, str]]):
        sents, tags = map(list, zip(*batch))
        h, head, mask = model._tower(sents, ds.domain, True, rng)
        return (_batch_loss(h, head, mask, tags), None, None), (opt,), None

    losses = [r["l_src"] for r in _fit(cfg, batches, step, [opt], log_path)]
    model.loss_history = np.reshape(losses, (cfg.epochs, -1)).mean(1).tolist()
    return model


class Block(NamedTuple):
    """One domain's rows of DaatModel.encode, padded to their longest."""
    tagger: Tensor | None  # [private ; shared], None without a trained tower
    shared: Tensor
    mask: np.ndarray


class Encoded(NamedTuple):
    """DaatModel.encode: a Block per domain, None for one without rows."""
    src: Block | None
    tgt: Block | None


@dataclass(eq=False)
class DaatModel:
    """Dual private encoders plus a shared adversarial encoder."""
    embedding: EmbeddingTable
    enc_src: GcnnEncoder
    enc_tgt: GcnnEncoder
    enc_shr: GcnnEncoder
    disc: TextCnn
    crf_src: crf_mod.CrfHead
    crf_tgt: crf_mod.CrfHead
    config: TrainConfig
    mode: str = "daat"

    def __post_init__(self):
        if self.mode not in ("daat", "at"):
            raise ValueError(f"unknown mode {self.mode!r}")

    @staticmethod
    def create(sentences: list[str], cfg: TrainConfig, mode: str,
               rng: np.random.Generator) -> "DaatModel":
        emb = EmbeddingTable.build(sentences, cfg.char_emb, rng)

        def enc() -> GcnnEncoder:
            return GcnnEncoder.create(cfg.gcnn_layers, cfg.window,
                                      cfg.char_emb, cfg.gcnn_dim,
                                      cfg.dropout, rng)

        enc_src, enc_tgt, enc_shr = enc(), enc(), enc()
        disc = TextCnn.create(cfg.filter_sizes, cfg.gcnn_dim,
                              cfg.textcnn_filters, rng)
        crf_src = crf_mod.CrfHead.create(2 * cfg.gcnn_dim, rng)
        crf_tgt = crf_mod.CrfHead.create(2 * cfg.gcnn_dim, rng)
        return DaatModel(emb, enc_src, enc_tgt, enc_shr, disc, crf_src,
                         crf_tgt, cfg, mode)

    def tagger_params(self) -> dict[str, Tensor]:
        out = {"embedding": self.embedding.table}
        out.update(self.enc_src.params("enc_src"))
        out.update(self.enc_tgt.params("enc_tgt"))
        out.update(self.enc_shr.params("enc_shr"))
        out.update(self.crf_src.params("crf_src"))
        out.update(self.crf_tgt.params("crf_tgt"))
        return out

    def disc_params(self) -> dict[str, Tensor]:
        return self.disc.params("disc")

    def params(self) -> dict[str, Tensor]:
        out = self.tagger_params()
        out.update(self.disc_params())
        return out

    def encode(self, src: list[str], tgt: list[str], training: bool = False,
               rng: np.random.Generator | None = None) -> Encoded:
        """Each domain's sentences as one batch of their own: one
        embedding, one shared-encoder pass and one pass of the domain's
        private encoder, source first and, within a domain, shared first
        (the order of the dropout draws). The target tower is never
        trained in AT mode, so there target rows get the shared pass
        only."""
        blocks = []
        for rows, enc in ((src, self.enc_src), (tgt, self.enc_tgt)):
            if not rows:
                blocks.append(None)
                continue
            x, mask = self.embedding.embed(rows)
            shared = self.enc_shr.forward(x, mask, training, rng)
            tagger = None
            if not (enc is self.enc_tgt and self.mode == "at"):
                private = enc.forward(x, mask, training, rng)
                tagger = concat_cols([private, shared])
            blocks.append(Block(tagger, shared, mask))
        return Encoded(*blocks)

    def _tower(self, sentences: list[str], domain: str):
        """Features, CRF head and length mask that decode a batch of the
        domain; AT mode decodes both domains with the source tower it
        trains."""
        if domain not in ("source", "target"):
            raise ValueError(f"unknown domain {domain!r}")
        if domain == "source" or self.mode == "at":
            block, head = self.encode(sentences, []).src, self.crf_src
        else:
            block, head = self.encode([], sentences).tgt, self.crf_tgt
        return block.tagger, head, block.mask

    segment_batch = _segment_batch
    segment = _segment

    def save(self, path: str) -> None:
        _save(self, path, {"kind": "daat", "mode": self.mode})


# The TrainConfig fields a container stores for each model kind, in file
# order. Everything else a model needs is in its params() tensors.
_STORED_FIELDS = {
    "segmenter": ("char_emb", "gcnn_dim", "gcnn_layers", "window", "dropout"),
    "daat": ("char_emb", "gcnn_dim", "gcnn_layers", "window", "dropout",
             "textcnn_filters", "filter_sizes"),
}


class _Skeleton:
    """Stands in for the rng when load_model builds a model: every initial
    tensor is a read-only view of one zero, so building costs no memory
    whatever sizes a file claims, and the stored tensors replace them."""

    @staticmethod
    def uniform(low: float, high: float, size: tuple[int, ...]) -> np.ndarray:
        return np.broadcast_to(0.0, size)


def _save(model: "Segmenter | DaatModel", path: str,
          head: dict[str, str]) -> None:
    hyper = dict(head)
    for key in _STORED_FIELDS[head["kind"]]:
        value = getattr(model.config, key)
        hyper[key] = ",".join(map(str, value)) if key == "filter_sizes" \
            else str(value)
    hyper["vocab"] = _vocab_string(model.embedding)
    save_container(path, hyper,
                   {k: v.data for k, v in model.params().items()})


def load_model(path: str) -> "Segmenter | DaatModel":
    """Load either model kind from a container file holding exactly what
    save writes; any difference is a DataError naming the key or tensor."""
    hyper, tensors = load_container(path)
    kind = hyper.get("kind")
    if kind not in _STORED_FIELDS:
        raise DataError(f"{path}: unknown model kind {kind!r}")
    keys = _STORED_FIELDS[kind]
    head = ("kind", "mode") if kind == "daat" else ("kind",)
    expected = head + keys + ("vocab",)
    for key in expected:
        if key not in hyper:
            raise DataError(f"{path}: missing key {key!r}")
    for key in hyper:
        if key not in expected:
            raise DataError(f"{path}: unexpected key {key!r}")
    try:
        cfg = TrainConfig(**{k: parse_field(k, hyper[k]) for k in keys})
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None
    vocab = hyper["vocab"]
    try:
        if kind == "segmenter":
            model = Segmenter.create([vocab], cfg, _Skeleton)
        else:
            model = DaatModel.create([vocab], cfg, hyper["mode"], _Skeleton)
    except ValueError as exc:  # unknown mode, whitespace in vocab, or sizes
        raise DataError(f"{path}: {exc}") from None
    except MemoryError:
        raise DataError(f"{path}: stored sizes are too large") from None
    if _vocab_string(model.embedding) != vocab:
        raise DataError(f"{path}: key 'vocab' must list distinct characters "
                        "in sorted order")
    for name, param in model.params().items():
        if name not in tensors:
            raise DataError(f"{path}: missing tensor {name!r}")
        stored = tensors.pop(name)
        if stored.shape != param.data.shape:
            raise DataError(f"{path}: tensor {name!r} has shape "
                            f"{stored.shape}, expected {param.data.shape}")
        param.data = stored
    if tensors:
        raise DataError(f"{path}: unexpected tensor {next(iter(tensors))!r}")
    return model


def _domain_bce(model: DaatModel, enc: Encoded, flip: bool) -> Tensor:
    """Binary cross-entropy of the discriminator, read once per domain
    block: minus the sum of the two per-domain mean log-probabilities.

    flip=False scores the true domains on detached shared features
    (discriminator loss); flip=True swaps them and reaches the shared
    encoder (confusion loss). Probabilities are clamped to 1e-7. An
    encoding without source or without target rows is a ValueError.
    """
    means = []
    for block, domain in ((enc.src, "source"), (enc.tgt, "target")):
        if block is None:
            raise ValueError(f"the encoding has no {domain} rows")
        shared = block.shared if flip else block.shared.detach()
        p = clamped(model.disc.forward(shared, block.mask))  # (B, 1)
        says_src = (domain == "source") != flip  # scored by log p
        logp = log(p) if says_src else log(sub(1.0, p))
        means.append(scale(sum_all(logp), 1.0 / len(block.mask)))
    return sub(0.0, means[0] + means[1])


def discriminator_loss(model: DaatModel, enc: Encoded) -> Tensor:
    """Loss the discriminator minimizes to tell the domains apart, given
    an encoded step. The shared features are detached, so the loss trains
    the discriminator only and never the shared encoder."""
    return _domain_bce(model, enc, flip=False)


def confusion_loss(model: DaatModel, enc: Encoded) -> Tensor:
    """Domain-flipped loss the shared encoder minimizes to fool the
    discriminator, given an encoded step."""
    return _domain_bce(model, enc, flip=True)


def tagging_losses(model: DaatModel, enc: Encoded, tags_src: list[str],
                   tags_tgt: list[str]) -> tuple[Tensor, Tensor | None]:
    """Mean CRF negative log-likelihood per domain tower of an encoded
    step, given the gold tags of its source and target rows. The target
    loss is None in AT mode or for an empty target batch."""
    l_src = _batch_loss(enc.src.tagger, model.crf_src, enc.src.mask,
                        tags_src)
    if enc.tgt is None or enc.tgt.tagger is None:
        return l_src, None
    return l_src, _batch_loss(enc.tgt.tagger, model.crf_tgt, enc.tgt.mask,
                              tags_tgt)


def _step_losses(model: DaatModel, batch_src: list[tuple[str, str]],
                 batch_tgt: list[tuple[str, str]], odd: bool,
                 rng: np.random.Generator):
    """L_src, L_tgt (None in AT mode) and the adversarial loss of one
    step. Both batches are encoded once; the shared features feed both the
    CRF heads and the discriminator (L_d on odd steps, L_c on even ones)."""
    (s_src, t_src), (s_tgt, t_tgt) = zip(*batch_src), zip(*batch_tgt)
    enc = model.encode(list(s_src), list(s_tgt), True, rng)
    l_src, l_tgt = tagging_losses(model, enc, list(t_src), list(t_tgt))
    adv = discriminator_loss if odd else confusion_loss
    return l_src, l_tgt, adv(model, enc)


def _cursor(n: int, rng: np.random.Generator):
    """Endless index stream over n items, a permutation drawn per pass."""
    while True:
        yield from rng.permutation(n)


def adversarial_train(ds_src: LabeledDataset,
                      target: "LabeledDataset | list[str]",
                      cfg: TrainConfig, mode: str = "daat",
                      log_path: str | None = None,
                      hook=None) -> DaatModel:
    """Alternating adversarial training.

    Steps are numbered from 1 inside each epoch. Odd steps optimize
    L_src + L_tgt + L_d: the tagging losses update the three encoders and
    CRF heads, L_d updates only the discriminator because the shared
    features are detached on its path. Even steps optimize
    L_src + L_tgt + L_c with the discriminator frozen, so the confusion
    gradient lands in the shared encoder. AT mode drops L_tgt, reading the
    target batch as raw sentences, none of which may be empty. An epoch is
    ceil(max(|src|, |target|) / batch) steps, each domain advancing an
    independent shuffled cursor.
    """
    tagged = isinstance(target, LabeledDataset)
    if mode == "daat" and not tagged:
        raise ValueError("daat mode needs a tagged target dataset")
    tgt_items = list(target.items) if tagged else [(s, "") for s in target]
    for i, (s, _) in enumerate(tgt_items):
        if not s:
            raise ValueError(f"target sentence {i} is empty")
    if len(ds_src) == 0 or not tgt_items:
        raise ValueError("both domains need at least one sentence")
    rng = np.random.default_rng(cfg.seed)
    model = DaatModel.create([s for s, _ in [*ds_src.items, *tgt_items]],
                             cfg, mode, rng)
    opt_tag = Adam(model.tagger_params(), lr=cfg.lr)
    opt_disc = Adam(model.disc_params(), lr=cfg.lr)
    steps = math.ceil(max(len(ds_src), len(tgt_items)) / cfg.batch_size)
    cur_src = _cursor(len(ds_src), rng)
    cur_tgt = _cursor(len(tgt_items), rng)

    def batches():
        return (([ds_src.items[i] for i in islice(cur_src, cfg.batch_size)],
                 [tgt_items[i] for i in islice(cur_tgt, cfg.batch_size)])
                for _ in range(steps))

    def step(j: int, batch):
        odd = j % 2 == 1
        return (_step_losses(model, *batch, odd, rng),
                (opt_tag, opt_disc) if odd else (opt_tag,),
                "d" if odd else "c")

    _fit(cfg, batches, step, [opt_tag, opt_disc], log_path, hook)
    return model
