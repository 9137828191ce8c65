"""The benchmark's outside-in tracer (perfbench/tracer.py) patches crossseg
by attribute name. A rename it does not know about makes install() fail,
so this test catches it without running the benchmark.
"""
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

import crossseg
from crossseg.annotator import build_target_dataset
from crossseg.miner import CandidateScore, WordCollection

from helpers import DictStub, fmm_spans

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_everything():
    tracer = _load_tracer()
    tr = tracer.Tracer()
    try:
        tr.install(crossseg)
        patched = set(tracer.leftover_patches(crossseg))
    finally:
        tr.uninstall()
    for name in ("train.Segmenter.segment", "train.DaatModel.segment",
                 "train.Segmenter.save", "train.DaatModel.save",
                 "train.tagging_losses", "train.discriminator_loss",
                 "train.confusion_loss", "train.train_base",
                 "train.adversarial_train", "crf.nll_loss"):
        assert f"crossseg.{name}" in patched
    assert tracer.leftover_patches(crossseg) == []


@pytest.mark.parametrize("mode, passes", [("daat", 4), ("at", 3)])
def test_traced_adversarial_step_encodes_each_sentence_once(mode, passes):
    """Per step, whatever the batch size: per domain batch, one shared
    encoder pass, one private pass if its tower is trained (AT mode trains
    the source tower only) and one discriminator pass; one tagging span
    and one adversarial-loss span."""
    words = ["ab", "cd", "ef", "gh"]
    src = crossseg.dataset_from_segmented(
        [[words[i % 4], words[(i + 1) % 4]] for i in range(6)], "source")
    tgt_segs = [["xyz", words[i % 4]] for i in range(6)]
    tgt = (crossseg.dataset_from_segmented(tgt_segs, "target")
           if mode == "daat" else ["".join(ws) for ws in tgt_segs])
    cfg = crossseg.TrainConfig(epochs=1, batch_size=3, char_emb=4,
                               gcnn_dim=4, gcnn_layers=1, textcnn_filters=2,
                               filter_sizes=(2, 3), seed=0)
    tracer = _load_tracer()
    tr = tracer.Tracer()
    try:
        tr.install(crossseg)
        crossseg.adversarial_train(src, tgt, cfg, mode=mode)
    finally:
        tr.uninstall()
    assert tracer.leftover_patches(crossseg) == []
    steps = [r for r, kind in tr.request_kind.items() if kind == "daat_step"]
    assert len(steps) == 2
    for step in steps:
        spans = Counter(tr.names[n] for n, r in zip(tr.name, tr.req)
                        if r == step)
        assert spans["nn.gcnn_forward"] == passes
        assert spans["nn.textcnn_forward"] == 2
        assert spans["train.tagging_losses"] == 1
        assert spans["train.adversarial_loss"] == 1


class _CountingSet(set):
    def __contains__(self, w):
        self.probes += 1
        return super().__contains__(w)


def test_traced_annotation_counts_every_lexicon_probe():
    """annotator.fmm.probes, a bench metric, counts lookups through
    WordCollection.__contains__: matching that bypassed it would read 0."""
    words = {"ab", "abc", "cd", "dde"}
    raw = ["abcdde", "xabxcd", "ddeab", "a", "zz"]
    coll = WordCollection({w: CandidateScore(w, 50, 2.0, 1.0, 0.1, 0.96)
                           for w in words})
    probed = _CountingSet(words)
    probed.probes = 0
    for s in raw:
        fmm_spans(s, probed)
    tracer = _load_tracer()
    tr = tracer.Tracer()
    try:
        tr.install(crossseg)
        build_target_dataset(raw, coll, DictStub(set()))
    finally:
        tr.uninstall()
    assert probed.probes > 0
    assert tr.counts["annotator.fmm.probes"] == probed.probes
