import math

import numpy as np
import pytest

import crossseg.train as train_mod
from crossseg.autodiff import backward
from crossseg.corpus import dataset_from_segmented
from crossseg.errors import DataError
from crossseg.evaluate import prf
from crossseg.train import (DaatModel, Segmenter, TrainConfig,
                            adversarial_train, confusion_loss,
                            discriminator_loss, load_config, load_model,
                            parse_field, tagging_losses, train_base)

from helpers import daat_losses_ref

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


def test_train_base_learns_toy_language():
    cfg = TrainConfig(**SMALL)
    ds = toy_source()
    model = train_base(ds, cfg)
    assert len(model.loss_history) == cfg.epochs
    assert model.loss_history[-1] < model.loss_history[0]
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


def test_segment_empty_sentence():
    model = train_base(toy_source(10), TrainConfig(**{**SMALL, "epochs": 1}))
    assert model.segment("") == []


def _untrained(kind: str):
    """A fresh tagger over the characters "abcd"; decoding needs no
    training."""
    rng = np.random.default_rng(0)
    if kind == "segmenter":
        return Segmenter.create(["abcd"], TrainConfig(**SMALL), rng)
    return DaatModel.create(["abcd"], TrainConfig(**SMALL), kind, rng)


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


@pytest.mark.parametrize("kind", ["daat", "at"])
def test_daat_segment_rejects_unknown_domain(kind):
    with pytest.raises(ValueError, match="bogus"):
        _untrained(kind).segment("abcd", "bogus")


def _encoded(model, src=("abc",), tgt=("xyz",)):
    """A source and a target batch encoded as the losses take them."""
    return model.encode(list(src), list(tgt))


def test_fresh_discriminator_loss_is_2ln2():
    cfg = TrainConfig(**SMALL)
    rng = np.random.default_rng(0)
    model = DaatModel.create(["abc", "xyz"], cfg, "daat", rng)
    loss = discriminator_loss(model, _encoded(model))
    assert loss.item() == pytest.approx(2 * math.log(2.0), abs=1e-12)
    conf = confusion_loss(model, _encoded(model))
    assert conf.item() == pytest.approx(2 * math.log(2.0), abs=1e-12)


def test_confident_discriminator_is_clamped():
    cfg = TrainConfig(**SMALL)
    model = DaatModel.create(["abc", "xyz"], cfg, "daat",
                             np.random.default_rng(0))
    model.disc.proj_b.data[:] = 60.0  # always shouts "source"
    loss = confusion_loss(model, _encoded(model))
    # source term hits the 1e-7 clamp, target term is almost free
    assert loss.item() == pytest.approx(-math.log(1e-7), rel=1e-3)


def test_detached_discriminator_loss_keeps_shared_clean():
    cfg = TrainConfig(**SMALL)
    model = DaatModel.create(["abc", "xyz"], cfg, "daat",
                             np.random.default_rng(0))
    model.disc.proj_w.data[:] = 0.01
    loss = discriminator_loss(model, _encoded(model))
    backward(loss)
    assert all(p.grad is None
               for p in model.enc_shr.params("enc_shr").values())
    assert model.embedding.table.grad is None
    assert all(p.grad is not None for p in model.disc_params().values())


def test_confusion_loss_reaches_shared_encoder():
    cfg = TrainConfig(**SMALL)
    model = DaatModel.create(["abc", "xyz"], cfg, "daat",
                             np.random.default_rng(0))
    model.disc.proj_w.data[:] = 0.01
    backward(confusion_loss(model, _encoded(model)))
    shared = model.enc_shr.params("enc_shr")
    assert shared
    assert all(p.grad is not None for p in shared.values())


@pytest.mark.parametrize("loss_fn", [discriminator_loss, confusion_loss])
@pytest.mark.parametrize("empty", ["source", "target"])
def test_adversarial_losses_reject_an_empty_domain(loss_fn, empty):
    model = _untrained("daat")
    rows = {"source": ["abc"], "target": ["xyz", "ab"], empty: []}
    enc = model.encode(rows["source"], rows["target"])
    with pytest.raises(ValueError, match=f"no {empty} rows"):
        loss_fn(model, enc)


@pytest.mark.parametrize("mode", ["daat", "at"])
@pytest.mark.parametrize("training", [False, True], ids=["eval", "train"])
def test_encode_gives_each_domain_its_features_alone(mode, training):
    # a training forward draws dropout for the source block (shared, then
    # private) before the target block, so one rng stream read in that
    # order repeats the joint encoding
    model = DaatModel.create(["abcdxyz"], TrainConfig(**SMALL), mode,
                             np.random.default_rng(0))
    src, tgt = ["abcd", "a", "cd"], ["xyzab", "x"]
    rng = np.random.default_rng(3) if training else None
    joint = model.encode(src, tgt, training, rng)
    rng = np.random.default_rng(3) if training else None
    alone = (model.encode(src, [], training, rng).src,
             model.encode([], tgt, training, rng).tgt)
    assert model.encode(src, []).tgt is None
    assert model.encode([], tgt).src is None
    for got, want in zip(joint, alone):
        assert (got.tagger is None) == (want.tagger is None)
        if got.tagger is not None:
            np.testing.assert_array_equal(got.tagger.data, want.tagger.data)
        np.testing.assert_array_equal(got.shared.data, want.shared.data)
        np.testing.assert_array_equal(got.mask, want.mask)
    assert (joint.tgt.tagger is None) == (mode == "at")


def test_tagging_losses_modes():
    cfg = TrainConfig(**SMALL)
    model = DaatModel.create(["abcd", "xyz"], cfg, "daat",
                             np.random.default_rng(0))
    enc = model.encode(["abcd"], ["xyz", "x"])
    # each domain padded to its own longest sentence
    assert enc.src.tagger.shape == (1, 4, 32)
    assert enc.src.shared.shape == (1, 4, 16) and enc.src.mask.shape == (1, 4)
    assert enc.tgt.tagger.shape == (2, 3, 32)
    assert enc.tgt.shared.shape == (2, 3, 16) and enc.tgt.mask.shape == (2, 3)
    l_src, l_tgt = tagging_losses(model, enc, ["BEBE"], ["BME", "S"])
    assert l_src.item() > 0 and l_tgt.item() > 0
    at = DaatModel.create(["abcd", "xyz"], cfg, "at",
                          np.random.default_rng(0))
    encoded = at.encode(["abcd"], ["xyz"])
    assert encoded.tgt.tagger is None  # the shared pass only
    assert encoded.tgt.shared.shape == (1, 3, 16)
    l_src, l_tgt = tagging_losses(at, encoded, ["BEBE"], [""])
    assert l_src.item() > 0 and l_tgt is None


def _losses_and_grads(model, losses):
    total = losses[0] + losses[2]
    if losses[1] is not None:
        total = total + losses[1]
    backward(total)
    grads = {}
    for name, p in model.params().items():
        grads[name] = None if p.grad is None else p.grad.copy()
        p.zero_grad()
    return [l if l is None else l.item() for l in losses], grads


@pytest.mark.parametrize("mode", ["daat", "at"])
@pytest.mark.parametrize("odd", [True, False], ids=["odd", "even"])
def test_one_pass_step_matches_two_pass_reference(mode, odd):
    # the batched step against the per-sentence reference, which encodes
    # each sentence alone; dropout 0: the step's training forward draws no
    # mask and equals the eval forward of the reference
    cfg = TrainConfig(**{**SMALL, "dropout": 0.0})
    rng = np.random.default_rng(5)
    model = DaatModel.create(["abcdxyz"], cfg, mode, rng)
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
    # and AT mode leaves the target tower alone
    assert one[1]["enc_shr.0.w"] is not None
    assert one[1]["disc.proj_w"] is not None
    assert (one[1]["crf_tgt.trans"] is None) == (mode == "at")


def test_adversarial_train_alternates_and_freezes_disc():
    cfg = TrainConfig(**{**SMALL, "epochs": 1, "batch_size": 8})
    src = toy_source(16)  # 2 steps per epoch
    tgt = toy_target_tagged(16)
    seen = []
    snaps = []

    def hook(rec):
        seen.append(rec["branch"])
        snaps.append({k: v.data.copy()
                      for k, v in model_box[0].disc_params().items()})

    model_box = []

    # capture the model as soon as training returns it is too late for
    # snapshots; instead rebuild deterministically and compare at the end
    import crossseg.train as train_mod
    orig_create = train_mod.DaatModel.create

    def capture(sentences, cfg2, mode, rng):
        m = orig_create(sentences, cfg2, mode, rng)
        model_box.append(m)
        return m

    train_mod.DaatModel.create = capture
    try:
        adversarial_train(src, tgt, cfg, mode="daat", hook=hook)
    finally:
        train_mod.DaatModel.create = staticmethod(orig_create)

    assert seen == ["d", "c"]
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


def test_adversarial_train_at_mode_rejects_empty_target_before_a_step():
    cfg = TrainConfig(**{**SMALL, "epochs": 1, "batch_size": 2})
    steps = []
    with pytest.raises(ValueError, match="target sentence 3 is empty"):
        adversarial_train(toy_source(8), [*toy_target_raw(3), "", "xyz"],
                          cfg, mode="at", hook=steps.append)
    assert steps == []


def test_adversarial_train_at_mode_ignores_target_tower():
    cfg = TrainConfig(**{**SMALL, "epochs": 2, "batch_size": 8})
    model = adversarial_train(toy_source(16), toy_target_raw(16), cfg,
                              mode="at")
    assert model.mode == "at"
    # the target tower was never trained; segmentation must route through
    # the source tower either way
    assert model.segment("abcd", domain="target") == \
        model.segment("abcd", domain="source")
    # target CRF head still at initialization: zero transitions
    np.testing.assert_array_equal(model.crf_tgt.trans.data,
                                  np.zeros((4, 4)))


def test_adversarial_train_deterministic(tmp_path):
    cfg = TrainConfig(**{**SMALL, "epochs": 2, "batch_size": 8})
    a = adversarial_train(toy_source(16), toy_target_tagged(16), cfg)
    b = adversarial_train(toy_source(16), toy_target_tagged(16), cfg)
    pa, pb = tmp_path / "a.bin", tmp_path / "b.bin"
    a.save(pa)
    b.save(pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_daat_save_load_roundtrip(tmp_path):
    cfg = TrainConfig(**{**SMALL, "epochs": 2, "batch_size": 8})
    model = adversarial_train(toy_source(16), toy_target_tagged(16), cfg)
    p = tmp_path / "m.bin"
    model.save(p)
    loaded = load_model(p)
    assert isinstance(loaded, DaatModel)
    assert loaded.mode == "daat"
    for s in ("abcd", "xyzab"):
        assert loaded.segment(s, "target") == model.segment(s, "target")
        assert loaded.segment(s, "source") == model.segment(s, "source")
    p2 = tmp_path / "m2.bin"
    loaded.save(p2)
    assert p.read_bytes() == p2.read_bytes()


def test_training_log_written(tmp_path):
    cfg = TrainConfig(**{**SMALL, "epochs": 1, "batch_size": 8})
    log = tmp_path / "log.tsv"
    records = []
    adversarial_train(toy_source(16), toy_target_tagged(16), cfg,
                      log_path=str(log), hook=records.append)
    lines = log.read_text().strip().split("\n")
    assert len(lines) == 2
    assert all(len(l.split("\t")) == 6 for l in lines)
    # one record per step: the row's losses are the hook record's
    for line, rec in zip(lines, records, strict=True):
        r = line.split("\t")
        assert r[:2] == [str(rec["epoch"]), str(rec["step"])]
        assert r[2:5] == [f"{rec[k]:.6f}" for k in ("l_src", "l_tgt",
                                                     "l_adv")]
    # train_base writes the same six columns, with no target or
    # adversarial loss; the benchmark reads columns 3 and 6
    base_log = tmp_path / "base.tsv"
    model = train_base(toy_source(20),
                       TrainConfig(**{**SMALL, "epochs": 2, "batch_size": 8}),
                       log_path=str(base_log))
    rows = [l.split("\t") for l in base_log.read_text().splitlines()]
    assert [r[:2] for r in rows] == [[str(e), str(j)] for e in (1, 2)
                                     for j in (1, 2, 3)]
    for r in rows:
        assert len(r) == 6
        assert math.isfinite(float(r[2]))
        assert r[3:5] == ["-", "-"]
        float(r[5])
    # the loss history is the per-epoch mean of the logged losses
    means = [np.mean([float(r[2]) for r in rows if r[0] == e])
             for e in ("1", "2")]
    np.testing.assert_allclose(model.loss_history, means, rtol=0, atol=1e-6)


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
        "epoch 1, step 2: CRF scores too far apart: a forward-backward "
        f"scale underflowed or a sum overflowed; last losses {last}")
