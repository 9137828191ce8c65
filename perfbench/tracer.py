"""Outside-in tracer: spans and counts around crossseg's public functions.

The tracer patches functions and methods of the installed crossseg
package, including every module that re-imports a name, records one span
per call (name, start, end, parent span, request id) in memory, and
restores every attribute on uninstall. Autodiff operations also wrap the
backward closure of the node they return, so tape walks are attributed to
the operation that recorded them. Nothing under the package is edited.

Span names are "<layer>.<what>", the layer being the crossseg module whose
code the span covers (plus "bench" for the benchmark's own hook). A span's
self time is its duration minus the durations of its child spans, so self
times partition the traced wall time between layers.
"""
from __future__ import annotations

import functools
import os
import sys
import time
from array import array
from collections import Counter

import numpy as np

_MARK = "__perfbench_traced__"

# Autodiff primitives that record a node; conv1d and gather_rows are timed
# on their own, the rest together as "other".
_OTHER_OPS = ("add", "sub", "mul", "scale", "matmul", "sigmoid", "log",
              "clamp", "sum_all", "concat_cols", "max_over_time")


class Tracer:
    """Collects spans and counts; install() patches, uninstall() restores."""

    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = array("q")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.req = array("q")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.request = 0
        self.request_kind: dict[int, str] = {}
        self.request_start: dict[int, int] = {}  # first span index
        self.nodes_by_request: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []
        self._trainer: list[tuple[int, str]] = []  # (span, "base" | "daat")
        self._step: int | None = None

    # -- spans ------------------------------------------------------------

    def _id(self, name: str) -> int:
        i = self._name_id.get(name)
        if i is None:
            i = self._name_id[name] = len(self.names)
            self.names.append(name)
        return i

    def open(self, name: str) -> int:
        if (self._trainer and self._step is None and self.stack
                and self.stack[-1] == self._trainer[-1][0]):
            kind = self._trainer[-1][1]
            self.begin_request(kind + "_step")
            self._step = self._open("train.step")
        return self._open(name)

    def _open(self, name: str) -> int:
        i = len(self.start)
        self.name.append(self._id(name))
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.req.append(self.request)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        top = self.stack.pop()
        if top != i:
            raise RuntimeError("tracer spans closed out of order")

    def begin_request(self, kind: str) -> None:
        self.request += 1
        self.request_kind[self.request] = kind
        self.request_start[self.request] = len(self.start)

    def mark(self) -> tuple[int, Counter]:
        """Phase boundary: the span index and a copy of the counts. Work
        after it belongs to no earlier request."""
        self.begin_request("glue")
        return len(self.start), Counter(self.counts)

    def _close_step(self) -> None:
        """End the open training step, and its request with it."""
        if self._step is not None:
            self.close(self._step)
            self._step = None
            self.begin_request("glue")

    # -- patching ---------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_function(self, modules, fn, wrapper) -> None:
        """Replace fn in every module that holds it under its own name."""
        setattr(wrapper, _MARK, True)
        for mod in modules:
            if mod.__dict__.get(fn.__name__) is fn:
                self._set(mod, fn.__name__, wrapper)

    def _spanned(self, fn, name: str, count=None, request: str | None = None):
        """Span each call of fn. count(args, result) returns increments for
        the counts; request starts a new request before each call."""
        tr = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if request is not None:
                tr.begin_request(request)
            i = tr.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tr.close(i)
            if count is not None:
                tr.counts.update(count(args, out))
            return out
        return traced

    def _op(self, fn, label: str, count=None):
        """Span an autodiff op and the backward closure of its node."""
        tr = self
        spanned = self._spanned(fn, f"{label}.fwd", count)
        bwd_name = f"{label}.bwd"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            out = spanned(*args, **kwargs)
            bwd = out._bwd
            if bwd is not None:
                tr.counts["autodiff.nodes_created"] += 1
                tr.nodes_by_request[tr.request] += 1

                def traced_bwd(g, _bwd=bwd):
                    j = tr.open(bwd_name)
                    try:
                        _bwd(g)
                    finally:
                        tr.close(j)
                    tr.counts["autodiff.nodes_walked"] += 1
                out._bwd = traced_bwd
            return out
        return traced

    def install(self, cs) -> None:
        """Patch the crossseg package cs and all of its loaded modules."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        prefix = cs.__name__
        modules = [m for k, m in sorted(sys.modules.items())
                   if k == prefix or k.startswith(prefix + ".")]
        ad, crf, miner = cs.autodiff, cs.crf, cs.miner
        ann, corpus, mio = cs.annotator, cs.corpus, cs.model_io
        train, nn, ev = cs.train, cs.nn, cs.evaluate
        tr = self

        def fn(f, name, count=None, request=None):
            self._patch_function(modules, f,
                                 self._spanned(f, name, count, request))

        def method(cls, attr, name):
            wrapper = self._spanned(cls.__dict__[attr], name)
            setattr(wrapper, _MARK, True)
            self._set(cls, attr, wrapper)

        # autodiff
        for op in ("conv1d", "gather_rows") + _OTHER_OPS:
            f = getattr(ad, op)
            label = "autodiff." + (op if op in ("conv1d", "gather_rows")
                                   else "other")
            self._patch_function(modules, f, self._op(f, label))
        fn(ad.backward, "autodiff.backward")
        # crf; nll_loss records a node, so it is timed like an autodiff op
        self._patch_function(modules, crf.nll_loss, self._op(
            crf.nll_loss, "crf.nll_loss",
            lambda args, _: {"crf.positions": args[0].data.shape[0]}))
        fn(crf.emission_scores, "crf.emission_scores")
        fn(crf.viterbi_decode, "crf.viterbi_decode",
           lambda args, _: {"crf.positions": len(args[0])})
        # nn
        method(nn.EmbeddingTable, "embed", "nn.embed")
        method(nn.GcnnEncoder, "forward", "nn.gcnn_forward")
        method(nn.TextCnn, "forward", "nn.textcnn_forward")
        method(nn.Adam, "step", "nn.adam_step")
        zero_grad = nn.Adam.__dict__["zero_grad"]

        @functools.wraps(zero_grad)
        def traced_zero_grad(opt):
            zero_grad(opt)
            if tr._trainer and tr._trainer[-1][1] == "base":
                tr._close_step()
        setattr(traced_zero_grad, _MARK, True)
        self._set(nn.Adam, "zero_grad", traced_zero_grad)
        # miner
        fn(miner.collect_stats, "miner.collect_stats",
           lambda _, st: {"miner.ngrams": len(st.counts)})
        fn(miner.score_candidates, "miner.score_candidates",
           lambda _, out: {"miner.candidates": len(out)})
        fn(miner.mine, "miner.mine", lambda _, col: {"miner.kept": len(col)})
        contains = miner.WordCollection.__dict__["__contains__"]

        @functools.wraps(contains)
        def traced_contains(col, w):
            hit = contains(col, w)
            tr.counts["annotator.fmm.probes"] += 1
            tr.counts["annotator.fmm.hits"] += hit
            return hit
        setattr(traced_contains, _MARK, True)
        self._set(miner.WordCollection, "__contains__", traced_contains)
        # annotator
        fn(ann.forward_max_match, "annotator.forward_max_match")
        fn(ann.build_target_dataset, "annotator.build_target_dataset")
        fn(ann.distant_annotate, "annotator.distant_annotate",
           lambda _, out: {"annotator.chars": len(out.char_provenance),
                           "annotator.lexicon_chars":
                           out.char_provenance.count("L")},
           request="annotate")
        # corpus, evaluate, model_io
        fn(corpus.tags_to_words, "corpus.tags_to_words")
        fn(corpus.words_to_tags, "corpus.words_to_tags")
        fn(ev.prf, "evaluate.prf")
        fn(mio.load_container, "model_io.load_container")
        fn(mio.save_container, "model_io.save_container",
           lambda args, _: {"model_io.bytes": os.path.getsize(args[0])})
        # train
        fn(train.tagging_losses, "train.tagging_losses")
        fn(train.discriminator_loss, "train.adversarial_loss")
        fn(train.confusion_loss, "train.adversarial_loss")
        fn(train.load_model, "train.load_model")
        method(train.Segmenter, "segment", "train.segment")
        method(train.DaatModel, "segment", "train.segment")
        method(train.Segmenter, "save", "train.save")
        method(train.DaatModel, "save", "train.save")
        base_fn, adv_fn = train.train_base, train.adversarial_train

        @functools.wraps(base_fn)
        def traced_base(*args, **kwargs):
            i = tr.open("train.train_base")
            tr._trainer.append((i, "base"))
            try:
                return base_fn(*args, **kwargs)
            finally:
                tr._close_step()
                tr._trainer.pop()
                tr.close(i)

        @functools.wraps(adv_fn)
        def traced_adv(*args, hook=None, **kwargs):
            def step_hook(rec):
                tr._close_step()
                if hook is not None:
                    j = tr._open("bench.hook")
                    try:
                        hook(rec)
                    finally:
                        tr.close(j)
            i = tr.open("train.adversarial_train")
            tr._trainer.append((i, "daat"))
            try:
                return adv_fn(*args, hook=step_hook, **kwargs)
            finally:
                tr._close_step()
                tr._trainer.pop()
                tr.close(i)
        self._patch_function(modules, base_fn, traced_base)
        self._patch_function(modules, adv_fn, traced_adv)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output -----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int64),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "req": np.frombuffer(self.req, dtype=np.int64),
        }

    def write(self, path: str) -> None:
        """Write all spans, compressed, with the name table."""
        kinds = sorted(self.request_kind.items())
        np.savez_compressed(
            path, names=np.array(self.names),
            request_ids=np.array([k for k, _ in kinds], dtype=np.int64),
            request_kinds=np.array([v for _, v in kinds]),
            **self.arrays())


def leftover_patches(cs) -> list[str]:
    """Attributes of the crossseg package that still hold a tracer wrapper."""
    prefix = cs.__name__
    found = []
    for key, mod in sorted(sys.modules.items()):
        if key != prefix and not key.startswith(prefix + "."):
            continue
        for attr, value in vars(mod).items():
            if getattr(value, _MARK, False):
                found.append(f"{key}.{attr}")
            if isinstance(value, type) and value.__module__ == key:
                for cattr, cvalue in vars(value).items():
                    if getattr(cvalue, _MARK, False):
                        found.append(f"{key}.{attr}.{cattr}")
    return found
