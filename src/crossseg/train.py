"""Segmenter training: the single-domain baseline and the dual-encoder
adversarial trainer, both run by one training loop on one model type.

A Segmenter is built from named towers over one embedding table; a tower
is a private gated convolution encoder and the CRF head that reads it.
The baseline has one tower, "", that scores every domain: embedding ->
gated convolution stack -> CRF. The adversarial model adds a shared
encoder and a text-CNN discriminator over its features, and scores a
sentence from domain d by the CRF head of d on [private_d ; shared]. DAAT
has a source and a target tower; AT has the source tower alone, which
decodes both domains. Every step runs on padded (B, T, d) batches with a
(B, T) length mask.

One encode(sentences, domain, rng) turns one domain's batch into a
Block: the features the domain's CRF head reads, that head, the
length mask and the shared features, if any. Training, decoding and
gradcheck all read Blocks. An adversarial block costs one embedding, one
shared-encoder pass and one pass of the domain's private encoder, padded
only to the batch's own longest sentence, and that one shared pass feeds
both the CRF head and the discriminator. Decoding sorts sentences by
length into buckets of at most DECODE_BUDGET padded positions and runs
one encode and one Viterbi per bucket. Steps alternate between
sharpening the discriminator (odd steps, discriminator loss on detached
shared features) and confusing it (even steps, confusion loss,
discriminator frozen). All randomness flows from the config seed, so two
runs with equal inputs produce identical parameters.

One loop, _fit, runs both trainers; each gives it a batch source per epoch
and a step function. It backpropagates, steps the optimizers, sends each
step's one record (epoch, step, branch, losses, ms) to the hook (and the
baseline's to the TSV log), and names the epoch and step of a step whose
scores diverge. An adversarial record adds disc_acc, the discriminator's
accuracy on its rows, from the logits its loss already computed.

A model saves and loads through one path: a container holds the kind
("segmenter" for the baseline, "daat" with its mode for the adversarial
model), the config fields stored for that kind, the vocabulary, and every
params() tensor under exactly its params() name. load_model checks the
kind, mode, keys, tensor names and shapes; load_container has checked the
layout up to EOF. An AT file holding enc_tgt.* tensors is rejected.
"""
from __future__ import annotations

import math
import time
from contextlib import nullcontext
from dataclasses import dataclass, fields
from itertools import islice
from numbers import Integral
from typing import NamedTuple

import numpy as np

from . import crf as crf_mod
from .autodiff import (Tensor, backward, concat_cols, log_sigmoid, scale,
                       sum_all)
from .corpus import (TAGS, TAG_INDEX, LabeledDataset, read_lines,
                     tags_to_words)
from .errors import DataError
from .model_io import load_container, save_container
from .nn import Adam, EmbeddingTable, GcnnEncoder, TextCnn


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
    starting with # are skipped. A line without =, an unknown or repeated
    key, a bad value or invalid UTF-8 is a DataError naming the line."""
    values: dict = {}
    for i, line in enumerate(read_lines(path), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, text = (part.strip() for part in line.partition("="))
        if not eq:
            raise DataError(f"{path}: line {i}: expected key=value")
        if key in values:
            raise DataError(f"{path}: line {i}: repeated key {key!r}")
        try:
            values[key] = parse_field(key, text)
        except ValueError as exc:
            raise DataError(f"{path}: line {i}: {exc}") from None
    try:
        return TrainConfig(**values)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None


class Block(NamedTuple):
    """One domain's batch from encode, padded to its longest sentence."""
    tagger: Tensor | None  # (B, T, d) features the CRF head reads
    head: crf_mod.CrfHead | None  # None with tagger: no tower (AT target)
    mask: np.ndarray  # (B, T), true at the real characters
    shared: Tensor | None = None  # the discriminator's input, if any


def _batch_loss(block: Block, tags: list[str]) -> Tensor:
    """Mean CRF negative log-likelihood of the gold tags of a block; one
    path for both trainers."""
    gold = np.zeros(block.mask.shape, dtype=np.int64)
    for row, t in zip(gold, tags):
        row[:len(t)] = [TAG_INDEX[c] for c in t]
    emis = crf_mod.emission_scores(block.tagger, block.head)
    nll = crf_mod.nll_loss(emis, block.head, gold, block.mask)
    return scale(nll, 1.0 / len(tags))


# Padded positions (sentences times the longest length) of one decoding
# bucket. Annotating the 5,000-sentence acceptance mining corpus with the
# acceptance model shapes took a median 1.05 s at 1,024 against 1.37 s at
# 256 and 1.31 s at 4,096 (10 rounds in alternating order on 2 shared
# cores; 1,024 beat 256 in 9 rounds and 4,096 in all 10). A longer
# sentence gets a bucket of its own.
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


# The losses a step reports, in the order of their TSV columns.
_LOSSES = ("l_src", "l_tgt", "l_adv")


def _quiet():
    """numpy's floating-point warnings off, for training steps and decoding:
    scores that overflow reach the CRF's and the losses' finiteness checks,
    which raise a ValueError instead."""
    return np.errstate(all="ignore")


def _fit(cfg: TrainConfig, batches, step, opts: list[Adam], hook=None,
         log_path: str | None = None) -> None:
    """The training loop of both trainers.

    Each epoch walks the iterator batches() returns; step(j, batch) gives
    the losses in _LOSSES order (None where the trainer has none), the
    optimizers to step and the branch. After zero_grad the step's one
    record, {epoch, step, branch, l_src, l_tgt, l_adv, ms}, goes to hook
    and, given log_path, becomes a TSV row: epoch, step, the losses ("-"
    for None) and ms, the milliseconds since before the batch was
    assembled. A step runs with numpy's floating-point warnings off; a
    step's ValueError, a non-finite loss among them, is re-raised naming
    the epoch, the step and the last record's losses.
    """
    rec: dict = {}
    with open(log_path, "w", encoding="utf-8") if log_path \
            else nullcontext() as log_f:
        for epoch in range(1, cfg.epochs + 1):
            epoch_batches = batches()
            t0 = time.monotonic()
            for j, batch in enumerate(epoch_batches, start=1):
                with _quiet():
                    try:
                        losses, stepped, branch = step(j, batch)
                        values = {k: None if l is None else l.item()
                                  for k, l in zip(_LOSSES, losses)}
                        for k, v in values.items():
                            if v is not None and not math.isfinite(v):
                                raise ValueError(f"loss {k} is not finite")
                        present = [l for l in losses if l is not None]
                        backward(sum(present[1:], present[0]))
                    except ValueError as exc:
                        last = {k: rec[k] for k in _LOSSES if rec}
                        raise ValueError(f"epoch {epoch}, step {j}: {exc}; "
                                         f"last losses {last}") from exc
                    for opt in stepped:
                        opt.step()
                for opt in opts:
                    opt.zero_grad()
                rec = {"epoch": epoch, "step": j, "branch": branch, **values,
                       "ms": (time.monotonic() - t0) * 1000.0}
                if hook:
                    hook(rec)
                if log_f:
                    print(epoch, j, *("-" if rec[k] is None else
                                      f"{rec[k]:.6f}" for k in _LOSSES),
                          f"{rec['ms']:.1f}", sep="\t", file=log_f)
                t0 = time.monotonic()


def _check_domain(domain: str) -> None:
    if domain not in ("source", "target"):
        raise ValueError(f"unknown domain {domain!r}")


class Tower(NamedTuple):
    """A private encoder and the CRF head that reads its features."""
    encoder: GcnnEncoder
    head: crf_mod.CrfHead


# The towers of each mode, and the suffix of a tower's tensor names:
# enc_src.*, crf_tgt.*; the baseline's one tower "" writes enc.* and crf.*.
_TOWERS = {None: ("",), "daat": ("source", "target"), "at": ("source",)}
_SUFFIX = {"": "", "source": "_src", "target": "_tgt"}


@dataclass(eq=False)
class Segmenter:
    """GCNN-CRF segmenter built from named towers, domain -> Tower.

    The baseline (mode None) has one tower, "", that scores every domain.
    The adversarial model (mode "daat" or "at") has a shared encoder whose
    features every CRF head also reads and a text-CNN discriminator over
    the shared features. A DAAT model has a source and a target tower; an
    AT model has the source tower alone, which decodes both domains.
    """
    embedding: EmbeddingTable
    towers: dict[str, Tower]
    config: TrainConfig
    shared: GcnnEncoder | None = None
    disc: TextCnn | None = None
    mode: str | None = None

    @staticmethod
    def create(sentences: list[str], cfg: TrainConfig,
               rng: np.random.Generator,
               mode: str | None = None) -> "Segmenter":
        """A fresh model over the characters of sentences: the baseline
        for mode None, else the adversarial model; _TOWERS names its
        towers. The rng is drawn from in the order embedding, encoders
        (towers, then shared), discriminator, CRF heads."""
        if mode not in _TOWERS:
            raise ValueError(f"unknown mode {mode!r}")
        emb = EmbeddingTable.build(sentences, cfg.char_emb, rng)

        def enc() -> GcnnEncoder:
            return GcnnEncoder.create(cfg.gcnn_layers, cfg.window,
                                      cfg.char_emb, cfg.gcnn_dim,
                                      cfg.dropout, rng)

        encoders = [enc() for _ in _TOWERS[mode]]
        shared = disc = None
        if mode is not None:
            shared = enc()
            disc = TextCnn.create(cfg.filter_sizes, cfg.gcnn_dim,
                                  cfg.textcnn_filters, rng)
        hidden = cfg.gcnn_dim if shared is None else 2 * cfg.gcnn_dim
        towers = {name: Tower(e, crf_mod.CrfHead.create(hidden, rng))
                  for name, e in zip(_TOWERS[mode], encoders)}
        return Segmenter(emb, towers, cfg, shared, disc, mode)

    def params(self) -> dict[str, Tensor]:
        """Every tensor under its container name, in file order; the
        optimizers, save and load all read this one map."""
        out = {"embedding": self.embedding.table}
        for name, tower in self.towers.items():
            out.update(tower.encoder.params("enc" + _SUFFIX[name]))
        if self.shared is not None:
            out.update(self.shared.params("enc_shr"))
        for name, tower in self.towers.items():
            out.update(tower.head.params("crf" + _SUFFIX[name]))
        if self.disc is not None:
            out.update(self.disc.params("disc"))
        return out

    def encode(self, sentences: list[str], domain: str,
               rng: np.random.Generator | None = None) -> Block:
        """One domain's batch: one embedding, the shared-encoder pass if
        there is one, then one pass of the domain's tower (the order of
        the dropout draws, which a training encode takes from rng); its
        tagger features, [private ; shared] or the private ones alone, and
        its CRF head. An AT model has no target tower, so there a target
        batch gets the shared pass only."""
        _check_domain(domain)
        x, mask = self.embedding.embed(sentences)
        shared = None if self.shared is None \
            else self.shared.forward(x, mask, rng)
        if domain == "target" and self.mode == "at":
            return Block(None, None, mask, shared)
        enc, head = self.towers[domain if domain in self.towers else ""]
        private = enc.forward(x, mask, rng)
        tagger = private if shared is None else concat_cols([private, shared])
        return Block(tagger, head, mask, shared)

    def segment_batch(self, sentences: list[str],
                      domain: str = "target") -> list[list[str]]:
        """Words of the Viterbi tag path of every sentence, in input order
        (an empty sentence gives []). Each length bucket runs one encode
        and one Viterbi. An AT model decodes the target domain with its one
        tower, the source tower. An unknown domain is a ValueError even
        when no sentence has a character to encode, and so are scores too
        large for float64, with no numpy warning."""
        _check_domain(domain)
        if domain == "target" and self.mode == "at":
            domain = "source"
        out: list[list[str]] = [[] for _ in sentences]
        for bucket in _buckets(sentences):
            batch = [sentences[i] for i in bucket]
            with _quiet():
                block = self.encode(batch, domain)
                head = block.head
                emis = crf_mod.emission_scores(block.tagger, head)
                paths = crf_mod.viterbi_decode(
                    emis.data, head.trans.data, head.start.data,
                    head.stop.data, block.mask)
            for i, s, path in zip(bucket, batch, paths):
                tags = "".join(TAGS[k] for k in path[:len(s)].tolist())
                out[i] = tags_to_words(s, tags)
        return out

    def segment(self, sentence: str, domain: str = "target") -> list[str]:
        """Words of the Viterbi tag path of one sentence (segment_batch)."""
        return self.segment_batch([sentence], domain)[0]

    def save(self, path: str) -> None:
        """Write the container load_model reads: the kind (and mode), the
        config fields stored for the kind, the vocabulary, and every
        params() tensor under exactly its params() name."""
        hyper = {"kind": "segmenter"} if self.mode is None \
            else {"kind": "daat", "mode": self.mode}
        for key in _STORED_FIELDS[hyper["kind"]]:
            value = getattr(self.config, key)
            hyper[key] = ",".join(map(str, value)) if key == "filter_sizes" \
                else str(value)
        hyper["vocab"] = _vocab_string(self.embedding)
        save_container(path, hyper,
                       {k: v.data for k, v in self.params().items()})


# crossseg.DaatModel is public (in __all__), and perfbench/tracer.py
# patches train.DaatModel.segment and .save by name.
DaatModel = Segmenter


def _vocab_string(emb: EmbeddingTable) -> str:
    chars = sorted(emb.vocab, key=emb.vocab.get)
    return "".join(chars)


def train_base(ds: LabeledDataset, cfg: TrainConfig,
               log_path: str | None = None, hook=None) -> Segmenter:
    """Minimize the CRF negative log-likelihood with Adam over shuffled
    mini-batches; deterministic given cfg.seed. hook gets _fit's records,
    log_path its TSV rows, which the benchmark reads."""
    if len(ds) == 0:
        raise ValueError("empty training dataset")
    rng = np.random.default_rng(cfg.seed)
    model = Segmenter.create([s for s, _ in ds.items], cfg, rng)
    opt = Adam(model.params(), lr=cfg.lr)

    def batches():
        order = rng.permutation(len(ds))  # drawn before the epoch's dropout
        return ([ds.items[i] for i in order[lo:lo + cfg.batch_size]]
                for lo in range(0, len(ds), cfg.batch_size))

    def step(_j: int, batch: list[tuple[str, str]]):
        sents, tags = map(list, zip(*batch))
        block = model.encode(sents, ds.domain, rng)
        return (_batch_loss(block, tags), None, None), (opt,), None

    _fit(cfg, batches, step, [opt], hook, log_path)
    return model


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


def load_model(path: str) -> Segmenter:
    """Load a model of either kind from a container file holding exactly what
    save writes, with finite tensors; any difference is a DataError naming
    the key or tensor."""
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
        model = Segmenter.create([vocab], cfg, _Skeleton, hyper.get("mode"))
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
        if not np.isfinite(stored).all():
            raise DataError(f"{path}: tensor {name!r} holds NaN or "
                            "infinite values")
        param.data = stored
    if tensors:
        raise DataError(f"{path}: unexpected tensor {next(iter(tensors))!r}")
    return model


def _domain_bce(model: Segmenter, src: Block, tgt: Block, flip: bool,
                hits: list | None) -> Tensor:
    """Binary cross-entropy of the discriminator's logits, read once per
    domain block: minus the sum of the two per-domain mean log-probabilities,
    each sum scaled by -1/B so that the tape records no negation.

    flip=False scores the true domains on detached shared features
    (discriminator loss); flip=True swaps them and reaches the shared
    encoder (confusion loss). The loss keeps its gradient however sure the
    discriminator is. A list hits gets, per block, each row's hit: 1 when
    its logit lies on its own domain's side of 0 (positive says source),
    1/2 at exactly 0, else 0. A block without rows is a ValueError naming
    its domain.
    """
    means = []
    for block, domain in ((src, "source"), (tgt, "target")):
        if not len(block.mask):
            raise ValueError(f"the step has no {domain} rows")
        shared = block.shared if flip else block.shared.detach()
        z = model.disc.forward(shared, block.mask)  # (B, 1) logits
        if hits is not None:
            side = 1.0 if domain == "source" else -1.0
            hits.append((np.sign(z.data[:, 0]) * side + 1.0) / 2.0)
        says_src = (domain == "source") != flip  # scored by log p
        logp = log_sigmoid(z, 1.0 if says_src else -1.0)
        means.append(scale(sum_all(logp), -1.0 / len(block.mask)))
    return means[0] + means[1]


def discriminator_loss(model: Segmenter, src: Block, tgt: Block,
                       hits: list | None = None) -> Tensor:
    """Loss the discriminator minimizes to tell the domains apart, given
    a source and a target block. The shared features are detached, so the
    loss trains the discriminator only and never the shared encoder. A
    list hits gets, per block, a hit per row: 1 if its logit lies on its
    own domain's side of 0, 1/2 if it is 0, else 0."""
    return _domain_bce(model, src, tgt, False, hits)


def confusion_loss(model: Segmenter, src: Block, tgt: Block,
                   hits: list | None = None) -> Tensor:
    """Domain-flipped loss the shared encoder minimizes to fool the
    discriminator, given a source and a target block; hits as in
    discriminator_loss, scored by the true domains."""
    return _domain_bce(model, src, tgt, True, hits)


def tagging_losses(src: Block, tgt: Block, tags_src: list[str],
                   tags_tgt: list[str]) -> tuple[Tensor, Tensor | None]:
    """Mean CRF negative log-likelihood per domain tower, given a source
    and a target block and the gold tags of their rows. The target loss is
    None in AT mode, where the target block has no tower."""
    l_src = _batch_loss(src, tags_src)
    return l_src, None if tgt.tagger is None else _batch_loss(tgt, tags_tgt)


def _step_losses(model: Segmenter, batch_src: list[tuple[str, str]],
                 batch_tgt: list[tuple[str, str]], odd: bool,
                 rng: np.random.Generator, hits: list | None = None):
    """L_src, L_tgt (None in AT mode) and the adversarial loss of one
    step. The source batch is encoded, then the target batch, once each;
    the shared features feed both the CRF heads and the discriminator
    (L_d on odd steps, L_c on even ones), which fills hits if given."""
    (s_src, t_src), (s_tgt, t_tgt) = zip(*batch_src), zip(*batch_tgt)
    src = model.encode(list(s_src), "source", rng)
    tgt = model.encode(list(s_tgt), "target", rng)
    l_src, l_tgt = tagging_losses(src, tgt, list(t_src), list(t_tgt))
    adv = discriminator_loss if odd else confusion_loss
    return l_src, l_tgt, adv(model, src, tgt, hits)


def _cursor(n: int, rng: np.random.Generator):
    """Endless index stream over n items, a permutation drawn per pass."""
    while True:
        yield from rng.permutation(n)


def adversarial_train(ds_src: LabeledDataset,
                      target: "LabeledDataset | list[str]",
                      cfg: TrainConfig, mode: str = "daat",
                      hook=None) -> Segmenter:
    """Alternating adversarial training.

    Steps are numbered from 1 inside each epoch. Odd steps optimize
    L_src + L_tgt + L_d: the tagging losses update the towers and the
    shared encoder, L_d updates only the discriminator because the shared
    features are detached on its path. Even steps optimize
    L_src + L_tgt + L_c with the discriminator frozen, so the confusion
    gradient lands in the shared encoder. AT mode, with no target tower,
    drops L_tgt and reads the target batch as raw sentences, none of which
    may be empty. An epoch is ceil(max(|src|, |target|) / batch) steps,
    each domain advancing an independent shuffled cursor. A step's record
    for hook adds disc_acc: the mean of its rows' hits (_domain_bce), so a
    discriminator whose logits are all 0 scores chance, 0.5.
    """
    if mode not in ("daat", "at"):
        raise ValueError(f"unknown mode {mode!r}")
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
    model = Segmenter.create([s for s, _ in [*ds_src.items, *tgt_items]],
                             cfg, rng, mode)
    tag = model.params()
    disc = {k: tag.pop(k) for k in list(tag) if k.startswith("disc.")}
    opt_tag, opt_disc = Adam(tag, lr=cfg.lr), Adam(disc, lr=cfg.lr)
    steps = math.ceil(max(len(ds_src), len(tgt_items)) / cfg.batch_size)
    cur_src = _cursor(len(ds_src), rng)
    cur_tgt = _cursor(len(tgt_items), rng)

    def batches():
        return (([ds_src.items[i] for i in islice(cur_src, cfg.batch_size)],
                 [tgt_items[i] for i in islice(cur_tgt, cfg.batch_size)])
                for _ in range(steps))

    hits: list[np.ndarray] = []

    def step(j: int, batch):
        odd = j % 2 == 1
        hits.clear()
        return (_step_losses(model, *batch, odd, rng, hits),
                (opt_tag, opt_disc) if odd else (opt_tag,),
                "d" if odd else "c")

    def record(rec: dict) -> None:
        hook({**rec, "disc_acc": float(np.concatenate(hits).mean())})

    _fit(cfg, batches, step, [opt_tag, opt_disc], record if hook else None)
    return model
