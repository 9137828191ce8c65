"""The benchmark's outside-in tracer (perfbench/tracer.py) patches crossseg
by attribute name. A rename it does not know about makes install() fail,
so this test catches it without running the benchmark.
"""
import importlib.util
from pathlib import Path

import crossseg

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
