import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import crossseg.train as train_mod
from crossseg.autodiff import Tensor, _topo, backward, mul, sum_all
from crossseg.corpus import LabeledDataset, dataset_from_segmented
from crossseg.errors import DataError
from crossseg.evaluate import prf
from crossseg.nn import Adam
from crossseg.train import (DaatModel, Segmenter, TrainConfig,
                            adversarial_train, confusion_loss,
                            discriminator_loss, load_config, load_model,
                            parse_field, tagging_losses, train_base)

import toylang
from helpers import daat_losses_ref
from test_acceptance import TRAIN_CFG

SMALL = dict(epochs=3, batch_size=16, lr=0.005, dropout=0.1, char_emb=16,
             gcnn_dim=16, gcnn_layers=2, window=3, textcnn_filters=4,
             filter_sizes=(2, 3), seed=42)


def toy_source(n=60):
    words = ["ab", "cd", "ef", "gh"]
    segs = [[words[i % 4], words[(i + 1) % 4], words[(i * 3 + 2) % 4]]
            for i in range(n)]
    return dataset_from_segmented(segs, domain="source")


def toy_target_raw(n=40):
    # same singles language plus a target-only trigram word
    return ["xyz" + "ab" * (1 + i % 2) + "xyz" for i in range(n)]


def toy_target_tagged(n=40):
    segs = [["xyz"] + ["ab"] * (1 + i % 2) + ["xyz"] for i in range(n)]
    return dataset_from_segmented(segs, domain="target",
                                  provenance="distant")


def test_config_defaults_and_validation():
    cfg = TrainConfig()
    assert cfg.epochs == 30 and cfg.batch_size == 128
    assert cfg.lr == pytest.approx(0.001)
    assert cfg.dropout == pytest.approx(0.3)
    assert cfg.char_emb == 200 and cfg.gcnn_dim == 200
    assert cfg.gcnn_layers == 5 and cfg.window == 3
    assert cfg.textcnn_filters == 200 and cfg.filter_sizes == (3, 4, 5)
    assert cfg.seed == 42
    with pytest.raises(ValueError):
        TrainConfig(window=2)
    with pytest.raises(ValueError):
        TrainConfig(dropout=1.0)
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(filter_sizes=(3, 3))  # both convs would share one name
    with pytest.raises(ValueError, match="filter_sizes must be positive"):
        TrainConfig(filter_sizes=(0, 3))
    with pytest.raises(ValueError):
        TrainConfig(seed=-1)  # numpy rejects it only when training starts
    for lr in (0.0, -1.0, math.nan, math.inf):  # nan <= 0 is false
        with pytest.raises(ValueError, match="lr"):
            TrainConfig(lr=lr)


@pytest.mark.parametrize("field, value", [
    ("epochs", 2.5), ("char_emb", 4.0), ("window", 3.0), ("seed", 1.5),
    ("batch_size", True), ("gcnn_layers", "2"), ("filter_sizes", (3.7,)),
    ("filter_sizes", (3, False)),
])
def test_config_rejects_non_integer_sizes(field, value):
    # these used to pass validation and fail in training with a TypeError,
    # or (filter_sizes) be truncated silently
    with pytest.raises(ValueError, match=f"^{field} must be (an integer|integers)$"):
        TrainConfig(**{field: value})


def test_config_accepts_numpy_integers():
    cfg = TrainConfig(epochs=np.int64(2), filter_sizes=[np.int32(3), 4])
    assert cfg.epochs == 2 and cfg.filter_sizes == (3, 4)


def test_parse_field():
    assert parse_field("epochs", "4") == 4
    assert parse_field("lr", "1e-3") == pytest.approx(0.001)
    assert parse_field("dropout", " 0.25 ") == pytest.approx(0.25)
    assert parse_field("filter_sizes", "2, 3") == (2, 3)
    for key, text in (("epochs", "2.5"), ("lr", "fast"),
                      ("filter_sizes", "3,,4"), ("seed", "")):
        with pytest.raises(ValueError, match=f"bad value for {key!r}"):
            parse_field(key, text)
    with pytest.raises(ValueError, match="unknown key 'speed'"):
        parse_field("speed", "1")


def test_load_config(tmp_path):
    p = tmp_path / "cfg.txt"
    p.write_text("# comment\nepochs = 4\nlr=0.01\nfilter_sizes=2,3\n"
                 "dropout=0.0\n")
    cfg = load_config(p)
    assert cfg.epochs == 4
    assert cfg.lr == pytest.approx(0.01)
    assert cfg.filter_sizes == (2, 3)
    assert cfg.batch_size == 128  # untouched default
    p.write_text("no_such_key=1\n")
    with pytest.raises(DataError) as e:
        load_config(p)
    assert "line 1" in str(e.value)
    p.write_text("epochs=abc\n")
    with pytest.raises(DataError):
        load_config(p)
    p.write_text("seed=-3\n")
    with pytest.raises(DataError, match="seed"):
        load_config(p)
    p.write_text("lr=0.1\n# later\nlr=0.2\n")  # not a silent 0.2
    with pytest.raises(DataError, match="line 3: repeated key 'lr'"):
        load_config(p)


def test_train_base_learns_toy_language():
    cfg = TrainConfig(**SMALL)
    ds = toy_source()
    records = []
    model = train_base(ds, cfg, hook=records.append)
    means = [np.mean([r["l_src"] for r in records if r["epoch"] == e])
             for e in range(1, cfg.epochs + 1)]
    assert len(means) == cfg.epochs
    assert means[-1] < means[0]
    gold = [["ab", "cd", "ef", "gh"]]
    pred = [model.segment("abcdefgh")]
    assert prf(gold, pred).f1 == pytest.approx(1.0)


def test_train_base_deterministic(tmp_path):
    cfg = TrainConfig(**SMALL)
    a = train_base(toy_source(), cfg)
    b = train_base(toy_source(), cfg)
    pa, pb = tmp_path / "a.bin", tmp_path / "b.bin"
    a.save(pa)
    b.save(pb)
    assert pa.read_bytes() == pb.read_bytes()
    shifted = train_base(toy_source(),
                         TrainConfig(**{**SMALL, "seed": 7}))
    shifted.save(tmp_path / "c.bin")
    assert (tmp_path / "c.bin").read_bytes() != pa.read_bytes()


def test_segmenter_save_load_roundtrip(tmp_path):
    cfg = TrainConfig(**SMALL)
    model = train_base(toy_source(20), cfg)
    p = tmp_path / "seg.bin"
    model.save(p)
    loaded = load_model(p)
    assert isinstance(loaded, Segmenter)
    for s in ("abcd", "efgh", "abefcd"):
        assert loaded.segment(s) == model.segment(s)
    p2 = tmp_path / "seg2.bin"
    loaded.save(p2)
    assert p.read_bytes() == p2.read_bytes()


# sha256 of the container of a fresh, untrained model of each kind. A
# reordered init draw or a renamed tensor changes it, and the golden
# containers in tests/data cannot show either, as they are only loaded.
# Creating a model draws only from Generator.uniform and runs no BLAS, so
# the bytes are the same on every machine.
FRESH_DIGESTS = {
    "segmenter":
        "487d393690c7f680cdf5b499e16babe851ab13deaa35e018a55ca0d2e0c3642a",
    "daat":
        "d3da5a6ce90f58d755ccd0b26e10b5ca0dbf923aa97c30c5c61641fa904ab0af",
    "at":
        "6779a3b4c905b15f14c3ba2b02d062af900a5a29e301f5fe136d5e92b8ff7ffa",
}


@pytest.mark.parametrize("kind", ["segmenter", "daat", "at"])
def test_fresh_container_pins_init_draws_and_tensor_names(tmp_path, kind):
    cfg = TrainConfig(char_emb=4, gcnn_dim=3, gcnn_layers=2, window=3,
                      textcnn_filters=2, filter_sizes=(2, 3), dropout=0.25)
    model = Segmenter.create(["dcba", "xa"], cfg, np.random.default_rng(0),
                             None if kind == "segmenter" else kind)
    p = tmp_path / "fresh.bin"
    model.save(p)
    assert hashlib.sha256(p.read_bytes()).hexdigest() == FRESH_DIGESTS[kind]


def test_segment_empty_sentence():
    model = train_base(toy_source(10), TrainConfig(**{**SMALL, "epochs": 1}))
    assert model.segment("") == []


def _untrained(kind: str):
    """A fresh tagger over the characters "abcd"; decoding needs no
    training."""
    rng = np.random.default_rng(0)
    mode = None if kind == "segmenter" else kind
    return Segmenter.create(["abcd"], TrainConfig(**SMALL), rng, mode)


@pytest.mark.parametrize("kind", ["segmenter", "daat", "at"])
@pytest.mark.parametrize("domain", ["source", "target"])
@pytest.mark.parametrize("sentence", ["a", "q", "xyzq", "\u4e00\u4e8c"],
                         ids=["one-known", "one-unknown", "all-unknown",
                              "all-unknown-cjk"])
def test_segment_edge_sentences_join_back(kind, domain, sentence):
    model = _untrained(kind)
    words = model.segment(sentence, domain)
    assert "".join(words) == sentence
    assert all(words)
    if kind == "at":  # both domains decode through the source tower
        assert words == model.segment(sentence, "source")


@pytest.mark.parametrize("kind", ["segmenter", "daat", "at"])
def test_daat_segment_rejects_unknown_domain(kind):
    model = _untrained(kind)
    with pytest.raises(ValueError, match="bogus"):
        model.segment("abcd", "bogus")
    with pytest.raises(ValueError, match="bogus"):  # nothing to encode
        model.segment("", "bogus")
    with pytest.raises(ValueError, match="bogus"):
        model.segment_batch(["", ""], "bogus")


def test_segmenter_decodes_both_domains_alike():
    model = _untrained("segmenter")
    assert model.segment_batch(["", "ab"], "source") == \
        model.segment_batch(["", "ab"], "target")


def _encoded(model, src=("abc",), tgt=("xyz",)):
    """A source and a target block, as the losses take them."""
    return model.encode(list(src), "source"), model.encode(list(tgt), "target")


def test_fresh_discriminator_loss_is_2ln2():
    cfg = TrainConfig(**SMALL)
    rng = np.random.default_rng(0)
    model = Segmenter.create(["abc", "xyz"], cfg, rng, "daat")
    loss = discriminator_loss(model, *_encoded(model))
    assert loss.item() == pytest.approx(2 * math.log(2.0), abs=1e-12)
    conf = confusion_loss(model, *_encoded(model))
    assert conf.item() == pytest.approx(2 * math.log(2.0), abs=1e-12)


def test_confident_discriminator_costs_its_logit():
    cfg = TrainConfig(**SMALL)
    model = Segmenter.create(["abc", "xyz"], cfg, np.random.default_rng(0),
                             "daat")
    model.disc.proj_b.data[:] = 60.0  # always shouts "source"
    loss = confusion_loss(model, *_encoded(model))
    # the source term -log(1 - sigmoid(60)) is 60 + log(1 + e^-60), the
    # target term e^-60
    assert loss.item() == pytest.approx(60.0, rel=1e-15)


@pytest.mark.parametrize("loss_fn", [discriminator_loss, confusion_loss])
def test_adversarial_losses_report_the_rows_the_discriminator_gets_right(
        loss_fn):
    # both losses score hits by the true domains, from their own logits,
    # and leave the loss as it is
    model = _untrained("daat")
    model.disc.proj_w.data[:] = np.random.default_rng(1).normal(
        size=model.disc.proj_w.data.shape)
    src, tgt = _encoded(model, ("abc", "dcba", "a", "bd", "cab"),
                        ("d", "abcd", "ca", "bbb"))
    hits = []
    loss = loss_fn(model, src, tgt, hits)
    assert loss.item() == loss_fn(model, src, tgt).item()
    z_src, z_tgt = (model.disc.forward(b.shared, b.mask).data[:, 0]
                    for b in (src, tgt))
    assert [h.tolist() for h in hits] == [(z_src > 0).tolist(),
                                          (z_tgt < 0).tolist()]
    seen = np.concatenate(hits)
    assert seen.any() and not seen.all()


def test_detached_discriminator_loss_keeps_shared_clean():
    cfg = TrainConfig(**SMALL)
    model = Segmenter.create(["abc", "xyz"], cfg, np.random.default_rng(0),
                             "daat")
    model.disc.proj_w.data[:] = 0.01
    loss = discriminator_loss(model, *_encoded(model))
    backward(loss)
    assert all(p.grad is None
               for p in model.shared.params("enc_shr").values())
    assert model.embedding.table.grad is None
    assert all(p.grad is not None for p in model.disc.params("disc").values())


def test_confusion_loss_reaches_shared_encoder():
    cfg = TrainConfig(**SMALL)
    model = Segmenter.create(["abc", "xyz"], cfg, np.random.default_rng(0),
                             "daat")
    model.disc.proj_w.data[:] = 0.01
    backward(confusion_loss(model, *_encoded(model)))
    shared = model.shared.params("enc_shr")
    assert shared
    assert all(p.grad is not None for p in shared.values())


@pytest.mark.parametrize("loss_fn", [discriminator_loss, confusion_loss])
@pytest.mark.parametrize("empty", ["source", "target"])
def test_adversarial_losses_reject_an_empty_domain(loss_fn, empty):
    # encode rejects an empty batch, so the rowless block is cut by hand
    model = _untrained("daat")
    blocks = {"source": model.encode(["abc"], "source"),
              "target": model.encode(["xyz", "ab"], "target")}
    cut = blocks[empty]
    blocks[empty] = cut._replace(mask=cut.mask[:0],
                                 shared=Tensor(cut.shared.data[:0]))
    with pytest.raises(ValueError, match=f"no {empty} rows"):
        loss_fn(model, blocks["source"], blocks["target"])


@pytest.mark.parametrize("kind", ["segmenter", "daat"])
@pytest.mark.parametrize("domain", ["source", "target"])
def test_encode_rejects_an_empty_batch(kind, domain):
    with pytest.raises(ValueError, match="empty batch"):
        _untrained(kind).encode([], domain)


@pytest.mark.parametrize("mode", ["daat", "at"])
@pytest.mark.parametrize("training", [False, True], ids=["eval", "train"])
def test_encode_gives_each_domain_its_features_alone(mode, training):
    # each block is the domain's batch alone: one embedding, the shared
    # pass, then the private pass, so one rng stream read in that order
    # repeats the dropout draws of the source block and then the target's
    model = Segmenter.create(["abcdxyz"], TrainConfig(**SMALL),
                             np.random.default_rng(0), mode)
    batches = {"source": ["abcd", "a", "cd"], "target": ["xyzab", "x"]}
    rng = np.random.default_rng(3) if training else None
    blocks = {d: model.encode(rows, d, rng)
              for d, rows in batches.items()}
    rng = np.random.default_rng(3) if training else None
    for domain, rows in batches.items():
        block = blocks[domain]
        x, mask = model.embedding.embed(rows)
        shared = model.shared.forward(x, mask, rng)
        np.testing.assert_array_equal(block.shared.data, shared.data)
        np.testing.assert_array_equal(block.mask, mask)
        if mode == "at" and domain == "target":  # AT has no target tower
            assert block.tagger is None and block.head is None
            continue
        enc, head = model.towers[domain]
        private = enc.forward(x, mask, rng)
        np.testing.assert_array_equal(
            block.tagger.data, np.concatenate([private.data, shared.data], -1))
        assert block.head is head


def test_tagging_losses_modes():
    cfg = TrainConfig(**SMALL)
    model = Segmenter.create(["abcd", "xyz"], cfg, np.random.default_rng(0),
                             "daat")
    src, tgt = _encoded(model, ["abcd"], ["xyz", "x"])
    # each domain padded to its own longest sentence
    assert src.tagger.shape == (1, 4, 32)
    assert src.shared.shape == (1, 4, 16) and src.mask.shape == (1, 4)
    assert tgt.tagger.shape == (2, 3, 32)
    assert tgt.shared.shape == (2, 3, 16) and tgt.mask.shape == (2, 3)
    l_src, l_tgt = tagging_losses(src, tgt, ["BEBE"], ["BME", "S"])
    assert l_src.item() > 0 and l_tgt.item() > 0
    at = Segmenter.create(["abcd", "xyz"], cfg, np.random.default_rng(0),
                          "at")
    src, tgt = _encoded(at, ["abcd"], ["xyz"])
    assert tgt.tagger is None  # the shared pass only
    assert tgt.shared.shape == (1, 3, 16)
    l_src, l_tgt = tagging_losses(src, tgt, ["BEBE"], [""])
    assert l_src.item() > 0 and l_tgt is None


def _losses_and_grads(model, losses):
    total = losses[0] + losses[2]
    if losses[1] is not None:
        total = total + losses[1]
    backward(total)
    grads = {}
    for name, p in model.params().items():
        grads[name] = None if p.grad is None else p.grad.copy()
        p.grad = None
    return [l if l is None else l.item() for l in losses], grads


@pytest.mark.parametrize("mode", ["daat", "at"])
@pytest.mark.parametrize("odd", [True, False], ids=["odd", "even"])
def test_one_pass_step_matches_two_pass_reference(mode, odd):
    # the batched step against the per-sentence reference, which encodes
    # each sentence alone; dropout 0: the step's training forward draws no
    # mask and equals the eval forward of the reference
    cfg = TrainConfig(**{**SMALL, "dropout": 0.0})
    rng = np.random.default_rng(5)
    model = Segmenter.create(["abcdxyz"], cfg, rng, mode)
    model.disc.proj_w.data[:] = 0.5 * rng.normal(
        size=model.disc.proj_w.data.shape)  # a fresh projection is zero
    batch_src = [("abcd", "BEBE"), ("ab", "BE"), ("cdabc", "BMEBE")]
    batch_tgt = ([("xyz", "BME"), ("xyzab", "BMEBE")] if mode == "daat"
                 else [("xyz", ""), ("xyzab", "")])
    one = _losses_and_grads(model, train_mod._step_losses(
        model, batch_src, batch_tgt, odd, rng))
    two = _losses_and_grads(model, daat_losses_ref(model, batch_src,
                                                   batch_tgt, odd))
    assert (one[0][1] is None) == (mode == "at") == (two[0][1] is None)
    for a, b in zip(one[0], two[0]):
        assert a == b or abs(a - b) <= 1e-12
    assert one[1].keys() == two[1].keys()
    for name, g in one[1].items():
        if g is None or two[1][name] is None:
            assert g is None and two[1][name] is None, name
        else:
            np.testing.assert_allclose(g, two[1][name], rtol=1e-12,
                                       atol=1e-12, err_msg=name)
    # not vacuous: the shared encoder and the discriminator get gradient,
    # and an AT model holds no target tower at all
    assert one[1]["enc_shr.0.w"] is not None
    assert one[1]["disc.proj_w"] is not None
    assert any("_tgt" in name for name in model.params()) == (mode == "daat")


def test_adversarial_train_alternates_and_freezes_disc():
    cfg = TrainConfig(**{**SMALL, "epochs": 1, "batch_size": 8})
    src = toy_source(16)  # 2 steps per epoch
    tgt = toy_target_tagged(16)
    seen = []
    snaps = []

    accs = []

    def hook(rec):
        seen.append(rec["branch"])
        accs.append(rec["disc_acc"])
        snaps.append({k: v.data.copy()
                      for k, v in model_box[0].disc.params("disc").items()})

    model_box = []

    # capture the model as soon as training returns it is too late for
    # snapshots; instead rebuild deterministically and compare at the end
    import crossseg.train as train_mod
    orig_create = train_mod.Segmenter.create

    def capture(sentences, cfg2, rng, mode=None):
        m = orig_create(sentences, cfg2, rng, mode)
        model_box.append(m)
        return m

    train_mod.Segmenter.create = capture
    try:
        adversarial_train(src, tgt, cfg, mode="daat", hook=hook)
    finally:
        train_mod.Segmenter.create = staticmethod(orig_create)

    assert seen == ["d", "c"]
    # each record's disc_acc is the mean of the step's 8 + 8 hits, each 0,
    # 1/2 or 1; a fresh discriminator's projection is zero, so every logit
    # of step 1 is exactly 0 and it scores chance
    assert all(32 * a == round(32 * a) and 0 <= a <= 1 for a in accs)
    assert accs[0] == 0.5
    # the even (confusion) step must not move the discriminator
    for name in snaps[0]:
        np.testing.assert_array_equal(snaps[0][name], snaps[1][name])


def test_adversarial_train_daat_learns_both_domains():
    cfg = TrainConfig(**{**SMALL, "epochs": 6, "batch_size": 8})
    model = adversarial_train(toy_source(40), toy_target_tagged(40), cfg)
    assert model.segment("abcdefgh", domain="source") == \
        ["ab", "cd", "ef", "gh"]
    assert model.segment("xyzabxyz", domain="target") == \
        ["xyz", "ab", "xyz"]


def test_adversarial_train_daat_requires_tagged_target():
    cfg = TrainConfig(**{**SMALL, "epochs": 1})
    with pytest.raises(ValueError):
        adversarial_train(toy_source(8), toy_target_raw(8), cfg,
                          mode="daat")


def test_training_rejects_empty_data_and_unknown_modes():
    cfg = TrainConfig(**{**SMALL, "epochs": 1})
    empty = LabeledDataset((), "source")
    with pytest.raises(ValueError, match="empty training dataset"):
        train_base(empty, cfg)
    with pytest.raises(ValueError, match="unknown mode 'x'"):
        adversarial_train(toy_source(8), toy_target_raw(8), cfg, mode="x")
    with pytest.raises(ValueError, match="both domains need"):
        adversarial_train(empty, toy_target_tagged(8), cfg)


def test_adversarial_train_at_mode_rejects_empty_target_before_a_step():
    cfg = TrainConfig(**{**SMALL, "epochs": 1, "batch_size": 2})
    steps = []
    with pytest.raises(ValueError, match="target sentence 3 is empty"):
        adversarial_train(toy_source(8), [*toy_target_raw(3), "", "xyz"],
                          cfg, mode="at", hook=steps.append)
    assert steps == []


def test_adversarial_train_at_mode_holds_only_the_source_tower():
    cfg = TrainConfig(**{**SMALL, "epochs": 2, "batch_size": 8})
    model = adversarial_train(toy_source(16), toy_target_raw(16), cfg,
                              mode="at")
    assert model.mode == "at"
    # target text trains no tower of its own, so the model holds none, and
    # both domains decode through the source tower
    assert model.towers.keys() == {"source"}
    text = ["abcd", "xyzab", "efghxyz"]
    assert model.segment_batch(text, "target") == \
        model.segment_batch(text, "source")


@pytest.mark.parametrize("mode", [None, "daat", "at"],
                         ids=["base", "daat", "at"])
def test_every_stepped_parameter_has_a_gradient(monkeypatch, mode):
    # Adam steps no parameter without a gradient: before each step of an
    # odd and an even training step, every parameter of the optimizer
    # holds one, and the optimizers together step the whole model
    step, stepped = Adam.step, []

    def checked(opt):
        missing = [k for k, p in opt.params.items() if p.grad is None]
        assert not missing, missing
        stepped.append(opt.params.keys())
        step(opt)

    monkeypatch.setattr(Adam, "step", checked)
    cfg = TrainConfig(**{**SMALL, "epochs": 1, "batch_size": 8})
    if mode is None:  # 2 steps of one optimizer
        model = train_base(toy_source(16), cfg)
    else:  # tagger and discriminator, then the tagger alone
        target = toy_target_tagged(16) if mode == "daat" \
            else toy_target_raw(16)
        model = adversarial_train(toy_source(16), target, cfg, mode=mode)
    assert len(stepped) == (2 if mode is None else 3)
    assert set().union(*stepped) == model.params().keys()


@pytest.mark.parametrize("mode", ["daat", "at"])
def test_adversarial_train_deterministic(tmp_path, mode):
    cfg = TrainConfig(**{**SMALL, "epochs": 2, "batch_size": 8})
    target = toy_target_tagged(16) if mode == "daat" else toy_target_raw(16)
    a = adversarial_train(toy_source(16), target, cfg, mode=mode)
    b = adversarial_train(toy_source(16), target, cfg, mode=mode)
    pa, pb = tmp_path / "a.bin", tmp_path / "b.bin"
    a.save(pa)
    b.save(pb)
    assert pa.read_bytes() == pb.read_bytes()


# Trains base, DAAT and AT on the toy language and saves each container
# into the directory argv[2]; argv[1] is the TrainConfig as a dict literal.
TRAIN_THREE = """
import ast, sys
import toylang
from crossseg.corpus import dataset_from_segmented
from crossseg.train import TrainConfig, adversarial_train, train_base
cfg = TrainConfig(**ast.literal_eval(sys.argv[1]))
src = dataset_from_segmented(toylang.source_corpus()[:128], "source")
raw, gold = toylang.target_mining_corpus()
tgt = dataset_from_segmented(gold[:96], "target", provenance="distant")
train_base(src, cfg).save(sys.argv[2] + "/base.bin")
adversarial_train(src, tgt, cfg, "daat").save(sys.argv[2] + "/daat.bin")
adversarial_train(src, raw[:96], cfg, "at").save(sys.argv[2] + "/at.bin")
"""


def test_containers_equal_across_blas_thread_counts(tmp_path):
    # at the acceptance shapes, one and two OpenBLAS threads give the same
    # bytes; the thread count is read at startup, so each run is a fresh
    # interpreter with the count set in its environment alone
    cfg = {**TRAIN_CFG, "epochs": 1, "textcnn_filters": 8,
           "filter_sizes": (2, 3)}
    tests = Path(__file__).parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
    for threads in ("1", "2"):
        out = tmp_path / threads
        out.mkdir()
        subprocess.run([sys.executable, "-c", TRAIN_THREE, repr(cfg),
                        str(out)], check=True, timeout=300,
                       env={**os.environ, "PYTHONPATH": path,
                            "OPENBLAS_NUM_THREADS": threads})
    for name in ("base.bin", "daat.bin", "at.bin"):
        assert (tmp_path / "1" / name).read_bytes() == \
            (tmp_path / "2" / name).read_bytes(), name


@pytest.mark.parametrize("mode", ["daat", "at"])
def test_daat_save_load_roundtrip(tmp_path, mode):
    cfg = TrainConfig(**{**SMALL, "epochs": 2, "batch_size": 8})
    target = toy_target_tagged(16) if mode == "daat" else toy_target_raw(16)
    model = adversarial_train(toy_source(16), target, cfg, mode=mode)
    p = tmp_path / "m.bin"
    model.save(p)
    loaded = load_model(p)
    assert isinstance(loaded, DaatModel)
    assert loaded.mode == mode
    for s in ("abcd", "xyzab"):
        assert loaded.segment(s, "target") == model.segment(s, "target")
        assert loaded.segment(s, "source") == model.segment(s, "source")
    p2 = tmp_path / "m2.bin"
    loaded.save(p2)
    assert p.read_bytes() == p2.read_bytes()


def test_training_log_written(tmp_path):
    cfg = TrainConfig(**{**SMALL, "epochs": 1, "batch_size": 8})
    records = []
    adversarial_train(toy_source(16), toy_target_tagged(16), cfg,
                      hook=records.append)
    # one record per adversarial step, with all three losses
    assert [(r["epoch"], r["step"]) for r in records] == [(1, 1), (1, 2)]
    assert all(math.isfinite(r[k]) for r in records
               for k in ("l_src", "l_tgt", "l_adv"))
    # only train_base writes the TSV log: six columns, with no target or
    # adversarial loss; the benchmark reads columns 3 and 6
    base_log = tmp_path / "base.tsv"
    base_records = []
    train_base(toy_source(20),
               TrainConfig(**{**SMALL, "epochs": 2, "batch_size": 8}),
               log_path=str(base_log), hook=base_records.append)
    rows = [l.split("\t") for l in base_log.read_text().splitlines()]
    assert [r[:2] for r in rows] == [[str(e), str(j)] for e in (1, 2)
                                     for j in (1, 2, 3)]
    # the row is the hook record: the base record has no target or
    # adversarial loss and no branch
    for r, rec in zip(rows, base_records, strict=True):
        assert len(r) == 6
        assert r[:2] == [str(rec["epoch"]), str(rec["step"])]
        assert math.isfinite(rec["l_src"]) and r[2] == f"{rec['l_src']:.6f}"
        assert rec["l_tgt"] is rec["l_adv"] is rec["branch"] is None
        assert r[3:5] == ["-", "-"]
        assert r[5] == f"{rec['ms']:.1f}"


@pytest.mark.filterwarnings("error")  # no overflow warning either
def test_diverging_adversarial_step_names_epoch_and_step():
    # lr 1000 drives the CRF scores apart within one step
    cfg = TrainConfig(**{**SMALL, "epochs": 1, "batch_size": 8, "lr": 1000})
    records = []
    with pytest.raises(ValueError) as e:
        adversarial_train(toy_source(16), toy_target_tagged(16), cfg,
                          hook=records.append)
    assert [(r["epoch"], r["step"]) for r in records] == [(1, 1)]
    last = {k: records[0][k] for k in ("l_src", "l_tgt", "l_adv")}
    assert str(e.value) == (
        "epoch 1, step 2: CRF scores too large for float64: the tag "
        f"marginals do not sum to one; last losses {last}")


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_non_finite_loss_names_epoch_and_step(bad):
    # a guard of its own: the CRF's finiteness check is not the only one
    cfg = TrainConfig(**{**SMALL, "epochs": 2})
    x = Tensor(np.ones(3))

    def step(j, batch):
        loss = sum_all(mul(x, 1.0 if j < 2 else bad))
        return (loss, None, sum_all(x)), (), {"branch": None}

    with pytest.raises(ValueError) as e:
        train_mod._fit(cfg, lambda: iter([0, 1]), step, [], None)
    assert str(e.value) == ("epoch 1, step 2: loss l_src is not finite; "
                            "last losses {'l_src': 3.0, 'l_tgt': None, "
                            "'l_adv': 3.0}")


@pytest.mark.parametrize("mode", ["daat", "at"])
@pytest.mark.parametrize("odd", [True, False], ids=["odd", "even"])
def test_step_tape_holds_no_constant_leaves(mode, odd):
    # masks, dropout multipliers and numbers are constants, not leaves:
    # every leaf of a step's graph is a parameter, but for the shared
    # features an odd step detaches for the discriminator, once per domain
    src = [("abcd", "BMME"), ("ab", "BE"), ("c", "S")]
    tgt = [("xyzab", "BMEBE"), ("x", "S")]
    model = Segmenter.create([s for s, _ in src + tgt], TrainConfig(**SMALL),
                             np.random.default_rng(0), mode)
    losses = [l for l in train_mod._step_losses(
        model, src, tgt, odd, np.random.default_rng(1)) if l is not None]
    params = {id(p) for p in model.params().values()}
    leaves = [n for n in _topo(sum(losses[1:], losses[0])) if not n._parents]
    assert leaves and all(n._bwd is None for n in leaves)
    others = sorted(n.shape for n in leaves if id(n) not in params)
    assert others == ([(2, 5, 16), (3, 4, 16)] if odd else [])


def test_daat_step_records_one_node_per_gcnn_layer():
    # at acceptance shapes a DAAT step's graph, its losses summed, holds
    # 43 nodes with parents and a base encode 3, the embedding and two
    # layers. Its four encoder passes of two layers are 8 gated_conv
    # nodes; unfused into five nodes each (mul, two conv1d, sigmoid, mul)
    # they would make 75 and 11. A negated adversarial loss would make 44,
    # and log-probabilities taken as sigmoid, clamp and log (with sub for
    # log(1 - p)) instead of one log_sigmoid per domain 48
    src, tgt = toy_source(16).items, toy_target_tagged(16).items
    cfg = TrainConfig(**TRAIN_CFG)
    rng = np.random.default_rng(0)

    def nodes(root):
        return sum(1 for n in _topo(root) if n._parents)

    model = Segmenter.create([s for s, _ in src + tgt], cfg, rng, "daat")
    for odd in (True, False):
        losses = train_mod._step_losses(model, src, tgt, odd, rng)
        assert nodes(sum(losses[1:], losses[0])) == 43
    base = Segmenter.create([s for s, _ in src], cfg, rng)
    assert nodes(base.encode([s for s, _ in src], "source", rng).tagger) == 3


# The tracemalloc peak of one DAAT step at the acceptance shapes (numpy
# registers its buffers with tracemalloc), above what the step starts
# with, by branch. With numpy 2.4 the odd step reads 9.14 MB and the even
# one 9.99 MB, seeds 1 and 2 within 20 KB; a gated conv that keeps its
# padded buffer for the backward pass reads 10.61 and 11.06 MB, and a
# text-CNN that masks its input in a node of its own 9.53 and 10.37 MB.
# The bounds leave 14% and 10% over the measured peaks.
STEP_PEAK_BOUND = {"odd": 10.4e6, "even": 11.0e6}


def test_daat_step_peak_memory_stays_bounded():
    src = dataset_from_segmented(toylang.source_corpus()[:200],
                                 "source").items
    _, gold = toylang.target_mining_corpus()
    tgt = dataset_from_segmented(
        [gold[i] for i in toylang.target_train_indices()], "target",
        provenance="distant").items
    rng = np.random.default_rng(1)
    model = Segmenter.create([s for s, _ in src + tgt],
                             TrainConfig(**TRAIN_CFG), rng, "daat")
    opt = Adam(model.params())
    batch_src = [src[i] for i in rng.permutation(len(src))[:16]]
    batch_tgt = [tgt[i] for i in rng.permutation(len(tgt))[:16]]
    peaks = {}
    for branch, odd in (("odd", True), ("even", False)):
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            losses = [l for l in train_mod._step_losses(
                model, batch_src, batch_tgt, odd, rng) if l is not None]
            backward(sum(losses[1:], losses[0]))
            opt.step()
            opt.zero_grad()
            peaks[branch] = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
    assert all(peaks[b] < STEP_PEAK_BOUND[b] for b in peaks), peaks
