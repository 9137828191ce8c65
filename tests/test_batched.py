"""The batched training path against the per-sentence reference in
helpers.py, and the edge cases padding could get wrong: length-1 and
all-unknown sentences beside the longest one, very long lines, padded
positions, and saturated discriminator logits.
"""
import math

import numpy as np
import pytest

import crossseg.train as train_mod
from crossseg import crf as crf_mod
from crossseg.autodiff import (Tensor, backward, concat_cols, gather_rows,
                               sum_all)
from crossseg.corpus import dataset_from_segmented, words_to_tags
from crossseg.nn import UNK_INDEX
from crossseg.train import (Block, Segmenter, TrainConfig,
                            confusion_loss, discriminator_loss)

import helpers
import toylang
from test_acceptance import TRAIN_CFG

EXACT = dict(rtol=1e-12, atol=1e-12)  # for np.testing
APPROX = dict(rel=1e-12, abs=1e-12)  # the same, for pytest.approx


def _grads(model, loss) -> dict:
    """Run backward on loss; return and clear every parameter gradient."""
    backward(loss)
    out = {}
    for name, p in model.params().items():
        out[name] = None if p.grad is None else p.grad.copy()
        p.grad = None
    return out


def _assert_same_grads(got: dict, want: dict) -> None:
    assert got.keys() == want.keys()
    for name, g in got.items():
        if g is None or want[name] is None:
            assert g is None and want[name] is None, name
        else:
            np.testing.assert_allclose(g, want[name], err_msg=name, **EXACT)


def _total(losses):
    return sum((l for l in losses[1:] if l is not None), losses[0])


def _tagged(segs):
    return [("".join(ws), words_to_tags(ws)) for ws in segs]


@pytest.fixture(scope="module")
def acceptance_batches():
    """One source and one target batch of the acceptance language."""
    _, gold = toylang.target_mining_corpus()
    return (_tagged(toylang.source_corpus()[:TRAIN_CFG["batch_size"]]),
            _tagged(gold[:TRAIN_CFG["batch_size"]]))


def _assert_step_matches_reference(model, src, tgt, odd, rng) -> dict:
    """One DAAT step's losses and every parameter gradient equal the
    per-sentence reference; returns the step's gradients."""
    losses = train_mod._step_losses(model, src, tgt, odd, rng)
    values = [l if l is None else l.item() for l in losses]
    grads = _grads(model, _total(losses))
    ref = helpers.daat_losses_ref(model, src, tgt, odd)
    for got, want in zip(values, ref):
        assert (got is None) == (want is None)
        if got is not None:
            assert got == pytest.approx(want.item(), **APPROX)
    _assert_same_grads(grads, _grads(model, _total(ref)))
    return grads


def test_acceptance_shaped_steps_match_per_sentence_reference(
        acceptance_batches):
    """One train_base step and one DAAT step (both adversarial branches,
    both modes) at acceptance shapes and dropout 0: the batched losses and
    every parameter gradient equal the per-sentence reference."""
    src, tgt = acceptance_batches
    cfg = TrainConfig(**{**TRAIN_CFG, "dropout": 0.0})
    rng = np.random.default_rng(1)
    seg = Segmenter.create([s for s, _ in src], cfg, rng)
    block = seg.encode([s for s, _ in src], "source", rng)
    loss = train_mod._batch_loss(block, [t for _, t in src])
    value, grads = loss.item(), _grads(seg, loss)
    ref = helpers.base_loss_ref(seg, src)
    assert value == pytest.approx(ref.item(), **APPROX)
    _assert_same_grads(grads, _grads(seg, ref))
    for mode in ("daat", "at"):
        model = Segmenter.create([s for s, _ in src + tgt], cfg, rng,
                                 mode)
        model.disc.proj_w.data[:] = 0.5 * rng.normal(
            size=model.disc.proj_w.data.shape)  # a fresh projection is zero
        for odd in (True, False):
            _assert_step_matches_reference(model, src, tgt, odd, rng)


SMALL = dict(epochs=1, batch_size=4, dropout=0.0, char_emb=6, gcnn_dim=5,
             gcnn_layers=3, window=3, textcnn_filters=3, filter_sizes=(2, 5))
# a length-1 sentence, an all-unknown sentence and the longest sentence
MIXED = [("a", "S"), ("xyz", "BME"), ("abcdabcdcba", "BEBMEBMEBME")]


def _row_losses(model, batch, encode):
    """Each row's tagging loss read from the features of the whole batch,
    encoded afresh for every row; encode maps sentences to a Block."""
    out = []
    for i, (_, tags) in enumerate(batch):
        block = encode([s for s, _ in batch])
        row = Block(gather_rows(block.tagger, np.array([i])), block.head,
                    block.mask[i:i + 1])
        out.append(train_mod._batch_loss(row, [tags]))
    return out


@pytest.mark.parametrize("kind", ["segmenter", "daat"])
def test_mixed_batch_rows_equal_sentences_alone(kind):
    rng = np.random.default_rng(7)
    cfg = TrainConfig(**SMALL)
    model = Segmenter.create(["abcd"], cfg, rng,
                             None if kind == "segmenter" else kind)

    def encode(sentences):
        return model.encode(sentences, "target")

    total = 0.0
    for i, row in enumerate(_row_losses(model, MIXED, encode)):
        value, grads = row.item(), _grads(model, row)
        alone = _row_losses(model, [MIXED[i]], encode)[0]
        assert value == pytest.approx(alone.item(), **APPROX)
        _assert_same_grads(grads, _grads(model, alone))
        total += value
    batch = train_mod._batch_loss(encode([s for s, _ in MIXED]),
                                  [t for _, t in MIXED])
    assert batch.item() == pytest.approx(total / len(MIXED), **APPROX)


def test_padded_positions_get_exactly_zero_gradient():
    rng = np.random.default_rng(8)
    model = Segmenter.create(["abcd"], TrainConfig(**SMALL), rng, "daat")
    model.disc.proj_w.data[:] = rng.normal(size=model.disc.proj_w.data.shape)
    enc_src, crf_src = model.towers["source"]
    sentences = ["a", "abcdabcdcba", "ab"]  # no unknown character
    gold = np.zeros((3, 11), dtype=np.int64)
    for row, t in zip(gold, ["S", "BEBMEBMEBME", "BE"]):
        row[:len(t)] = ["BMES".index(c) for c in t]
    x, mask = model.embedding.embed(sentences)
    pad = ~mask
    assert pad.sum() == 10 + 9

    def losses(x):
        """Tagging plus discriminator loss through every encoder."""
        shared = model.shared.forward(x, mask)
        private = enc_src.forward(x, mask)
        emis = crf_mod.emission_scores(concat_cols([private, shared]),
                                       crf_src)
        tagging = crf_mod.nll_loss(emis, crf_src, gold, mask)
        return tagging + sum_all(model.disc.forward(shared, mask)), emis, \
            shared

    # backward keeps the gradients of leaves: cut one at each input
    x_in = Tensor(x.data)
    total, emis, shared = losses(x_in)
    emis_in, shared_in = Tensor(emis.data), Tensor(shared.data)
    backward(total)
    backward(crf_mod.nll_loss(emis_in, crf_src, gold, mask))
    backward(sum_all(model.disc.forward(shared_in, mask)))
    np.testing.assert_array_equal(x_in.grad[pad], 0.0)
    np.testing.assert_array_equal(emis_in.grad[pad], 0.0)
    np.testing.assert_array_equal(shared_in.grad[pad], 0.0)
    for leaf in (x_in, emis_in, shared_in):  # not vacuous: every row
        assert np.abs(leaf.grad).sum(axis=(1, 2)).min() > 0
    model.embedding.table.grad = None
    backward(losses(x)[0])
    np.testing.assert_array_equal(model.embedding.table.grad[UNK_INDEX], 0.0)


@pytest.mark.parametrize("kind", ["segmenter", "daat", "at"])
def test_very_long_line_segments_and_joins_back(kind):
    rng = np.random.default_rng(9)
    cfg = TrainConfig(**SMALL)
    model = Segmenter.create(["abcd"], cfg, rng,
                             None if kind == "segmenter" else kind)
    line = "".join(rng.choice(list("abcdxy"), size=5000))
    for domain in ("source", "target"):
        words = model.segment(line, domain)
        assert "".join(words) == line
        assert all(words)


def test_batch_with_a_very_long_line_trains():
    # one 5,000-character line beside short ones, in every domain's one
    # batch: both trainers run an epoch on it and segment it back
    rng = np.random.default_rng(11)
    words = list(rng.choice(["ab", "cd", "xyz", "a", "dcba"], size=1600))
    words += ["x"] * (5000 - sum(map(len, words)))
    segs = [words, ["ab", "cd"], ["a"], ["xyz", "ab"]]
    line = "".join(words)
    assert len(line) == 5000
    cfg = TrainConfig(**SMALL)
    base_records = []
    base = train_mod.train_base(
        dataset_from_segmented(segs, domain="source"), cfg,
        hook=base_records.append)
    assert base_records and all(math.isfinite(r["l_src"])
                                for r in base_records)
    records = []
    daat = train_mod.adversarial_train(
        dataset_from_segmented(segs, domain="source"),
        dataset_from_segmented(segs[::-1], domain="target",
                               provenance="distant"),
        cfg, hook=records.append)
    assert records and all(math.isfinite(r[k]) for r in records
                           for k in ("l_src", "l_tgt", "l_adv"))
    for model, domain in ((base, "source"), (daat, "source"),
                          (daat, "target")):
        got = model.segment(line, domain)
        assert "".join(got) == line and all(got)


@pytest.mark.parametrize("logit", [1e3, -1e3])
def test_saturated_discriminator_logits_keep_their_gradient(logit):
    rng = np.random.default_rng(10)
    model = Segmenter.create(["abcd", "xyz"], TrainConfig(**SMALL), rng,
                             "daat")
    model.disc.proj_w.data[:] = rng.normal(size=model.disc.proj_w.shape)
    model.disc.proj_b.data[:] = logit  # every row's logit is about +-1e3
    for loss_fn, sign in ((discriminator_loss, 1.0), (confusion_loss, -1.0)):
        src = model.encode(["a", "abcd"], "source")
        tgt = model.encode(["xyz", "x", "zyxzyx"], "target")
        loss = loss_fn(model, src, tgt)
        # -log sigmoid(s) is max(-s, 0) to within e^-|s|: the domain the
        # discriminator gets wrong costs its mean |logit|, the other nothing
        z_src = model.disc.forward(src.shared, src.mask).data
        z_tgt = model.disc.forward(tgt.shared, tgt.mask).data
        want = (np.maximum(-sign * z_src, 0.0).mean()
                + np.maximum(sign * z_tgt, 0.0).mean())
        assert want > 900.0
        assert loss.item() == pytest.approx(want, **APPROX)
        grads = _grads(model, loss)
        assert all(np.isfinite(g).all() for g in grads.values()
                   if g is not None)
        # the winning discriminator still moves, and on the confusion
        # loss the shared encoder still learns to fool it
        reached = ("disc.", "enc_shr.", "embedding") \
            if loss_fn is confusion_loss else ("disc.",)
        for name, g in grads.items():
            if name.startswith(reached):
                assert g is not None and g.any(), name
            else:
                assert g is None, name


@pytest.mark.parametrize("mode", ["daat", "at"])
@pytest.mark.parametrize("odd", [True, False], ids=["odd", "even"])
def test_short_blocks_step_matches_per_sentence_reference(mode, odd):
    """A step whose whole target block is shorter than every discriminator
    window, beside length-1 source rows: each domain is padded only to its
    own longest sentence, so the text-CNN pads the target block itself."""
    cfg = TrainConfig(**{**SMALL, "filter_sizes": (3, 4, 5)})
    rng = np.random.default_rng(11)
    model = Segmenter.create(["abcd"], cfg, rng, mode)
    model.disc.proj_w.data[:] = 0.5 * rng.normal(
        size=model.disc.proj_w.data.shape)  # a fresh projection is zero
    src = [("a", "S"), ("abcd", "BEBE"), ("c", "S")]
    tgt = [("a", "S"), ("b", "S")] if mode == "daat" \
        else [("a", ""), ("b", "")]
    grads = _assert_step_matches_reference(model, src, tgt, odd, rng)
    assert grads["disc.conv5.w"] is not None  # not vacuous
