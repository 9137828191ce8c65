"""Batched decoding against the per-sentence path: segment_batch against
one segment call and the per-sentence oracle model per sentence, and
build_target_dataset against the per-gap annotation oracle in
helpers.py."""
import numpy as np
import pytest

import crossseg.crf as crf_mod
import crossseg.train as train_mod
from crossseg.annotator import build_target_dataset
from crossseg.corpus import dataset_from_segmented
from crossseg.miner import CandidateScore, WordCollection
from crossseg.train import Segmenter, TrainConfig, train_base

import helpers
import toylang
from test_acceptance import TRAIN_CFG

SMALL = dict(epochs=1, batch_size=16, lr=0.005, dropout=0.1, char_emb=16,
             gcnn_dim=16, gcnn_layers=2, window=3, textcnn_filters=4,
             filter_sizes=(2, 3), seed=42)


def _ragged(rng: np.random.Generator) -> list[str]:
    """Sentences over "abcd" plus unknown characters: length-1 and
    all-unknown ones, duplicates, empty strings, a 5,000-character line
    over the bucket budget and enough short ones for several buckets."""
    def line(n):
        return "".join(rng.choice(list("abcdxy"), size=n))

    short = [line(int(n)) for n in rng.integers(1, 60, size=120)]
    return ["a", "q", "xyzq", "", *short, line(5000), "a", short[3], "",
            "一二", short[0], "d"]


@pytest.mark.parametrize("kind", ["segmenter", "daat", "at"])
@pytest.mark.parametrize("domain", ["source", "target"])
def test_segment_batch_equals_per_sentence_segment(kind, domain):
    rng = np.random.default_rng(3)
    cfg = TrainConfig(**SMALL)
    model = Segmenter.create(["abcd"], cfg, rng,
                             None if kind == "segmenter" else kind)
    batch = _ragged(rng)
    got = model.segment_batch(batch, domain)
    assert got == [model.segment(s, domain) for s in batch]
    assert got == [helpers.segment_ref(model, s, domain) if s else []
                   for s in batch]
    assert [("".join(ws), all(ws)) for ws in got] == [(s, True)
                                                      for s in batch]
    assert model.segment_batch([], domain) == []
    assert model.segment_batch(["", ""], domain) == [[], []]


def test_buckets_sort_by_length_within_the_budget():
    rng = np.random.default_rng(4)
    sentences = _ragged(rng)
    buckets = train_mod._buckets(sentences)
    flat = [i for b in buckets for i in b]
    assert sorted(flat) == [i for i, s in enumerate(sentences) if s]
    lengths = [len(sentences[i]) for i in flat]
    assert lengths == sorted(lengths)
    assert len(buckets) > 3
    for b in buckets:
        longest = len(sentences[b[-1]])
        assert len(b) == 1 or len(b) * longest <= train_mod.DECODE_BUDGET
    assert buckets[-1] == [sentences.index(max(sentences, key=len))]


def test_one_tower_pass_per_bucket():
    rng = np.random.default_rng(5)
    model = Segmenter.create(["abcd"], TrainConfig(**SMALL), rng, "daat")
    sentences = _ragged(rng)
    shapes = []
    encode = model.encode

    def recorded(batch, domain):
        out = encode(batch, domain)
        shapes.append(out.mask.shape)
        return out

    model.encode = recorded
    model.segment_batch(sentences, "target")
    assert shapes == [(len(b), len(sentences[b[-1]]))
                      for b in train_mod._buckets(sentences)]


def test_one_sentence_decodes_without_the_scan(monkeypatch):
    # one sentence takes the sequential recursion, a batch one scan; a
    # count pins this where wall-clock time on shared cores cannot
    shapes = []
    scan = crf_mod._scan

    def counted(e, *args):
        shapes.append(e.shape)
        return scan(e, *args)

    monkeypatch.setattr(crf_mod, "_scan", counted)
    rng = np.random.default_rng(6)
    model = Segmenter.create(["abcd"], TrainConfig(**SMALL), rng, "daat")
    assert "".join(model.segment("abcdxabcd")) == "abcdxabcd"
    assert shapes == []
    e = rng.normal(size=(2, 7, 4))
    scores = (rng.normal(size=(4, 4)), rng.normal(size=4),
              rng.normal(size=4))
    crf_mod.viterbi_decode(e[:1], *scores, np.ones((1, 7), bool))
    assert shapes == []
    crf_mod.viterbi_decode(e, *scores, np.ones((2, 7), bool))
    assert shapes == [(7, 4, 2)]


@pytest.fixture(scope="module")
def acceptance_base():
    """A base segmenter trained for one epoch at the acceptance shapes,
    and the planted target words as its lexicon."""
    cfg = TrainConfig(**{**TRAIN_CFG, "epochs": 1})
    src = toylang.source_corpus()[:toylang.N_SOURCE_TRAIN]
    base = train_base(dataset_from_segmented(src, "source"), cfg)
    col = WordCollection({w: CandidateScore(w, 50, 2.0, 1.0, 0.1, 0.96)
                          for w in toylang.DOMAIN_WORDS})
    return base, col


def test_annotation_of_acceptance_corpus_equals_per_gap_oracle(
        acceptance_base):
    base, col = acceptance_base
    raw, _ = toylang.target_mining_corpus()
    ds, prov = build_target_dataset(raw, col, base)
    assert [s for s, _ in ds.items] == raw
    want = [helpers.distant_annotate_ref(s, col, base) for s in raw]
    assert [(t, p) for (_, t), p in zip(ds.items, prov)] == want
    assert any("L" in p and "S" in p for p in prov)


def test_segmentation_of_acceptance_test_corpus_equals_per_sentence(
        acceptance_base):
    base, _ = acceptance_base
    test = ["".join(ws) for ws in toylang.target_test_corpus()]
    assert base.segment_batch(test) == [base.segment(s) for s in test]
