"""End-to-end acceptance suite.

One test per numbered criterion; the pytest verdict line for each test is
the pass or fail record for that criterion. The expensive experiment
(word mining over the synthetic target domain, distant annotation, the
three-model transfer comparison) runs once in a module fixture and is
shared; criterion 9 repeats it from scratch to prove reproducibility.
"""
import math
import random
import time

import numpy as np
import pytest

from crossseg.autodiff import Tensor
from crossseg.corpus import (LabeledDataset, dataset_from_segmented,
                             is_well_formed, oov_rate, tags_to_words,
                             vocabulary_of, words_to_tags)
from crossseg.crf import CrfHead, nll_loss, viterbi_decode
from crossseg.gradcheck import run_suite
from crossseg.miner import (MinerConfig, collect_stats, lexicon_to_tsv, mine,
                            score_candidates)
from crossseg.annotator import build_target_dataset
from crossseg.train import TrainConfig, adversarial_train, train_base
from crossseg.evaluate import prf, report_json

import helpers
import toylang

TRAIN_CFG = dict(epochs=10, batch_size=16, lr=0.001, dropout=0.1,
                 char_emb=32, gcnn_dim=32, gcnn_layers=2, window=3,
                 textcnn_filters=16, filter_sizes=(3, 4, 5), seed=42)
MINE_CFG = dict(n_min=2, n_max=4, p_val_threshold=0.95, min_frequency=10)

SIGMOID_3 = 1.0 / (1.0 + math.exp(-3.0))


@pytest.fixture(scope="module")
def world():
    raw, gold = toylang.target_mining_corpus()
    return {
        "src_train": toylang.source_corpus()[:toylang.N_SOURCE_TRAIN],
        "raw": raw,
        "gold": gold,
        "test": toylang.target_test_corpus(),
        "probe": toylang.probe_corpus(),
    }


def run_pipeline(world, workdir):
    """Mine, annotate, train all three models, evaluate. Returns every
    artifact the criteria inspect, plus wall-clock timings."""
    times = {}
    cfg = TrainConfig(**TRAIN_CFG)
    ds_src = dataset_from_segmented(world["src_train"], "source")

    t0 = time.perf_counter()
    col = mine(world["raw"], MinerConfig(**MINE_CFG))
    times["mine"] = time.perf_counter() - t0
    tsv = lexicon_to_tsv(col)

    t0 = time.perf_counter()
    base = train_base(ds_src, cfg)
    times["train_base"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    ds_all, _ = build_target_dataset(world["raw"], col, base)
    times["annotate"] = time.perf_counter() - t0

    keep = toylang.target_train_indices()
    ds_tgt = LabeledDataset(tuple(ds_all.items[i] for i in keep), "target",
                            tuple(ds_all.provenance[i] for i in keep))

    t0 = time.perf_counter()
    da = train_base(ds_tgt, cfg)
    times["train_da"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    daat_records = []
    daat = adversarial_train(ds_src, ds_tgt, cfg, mode="daat",
                             hook=daat_records.append)
    times["train_daat"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    test = world["test"]
    raw_test = ["".join(s) for s in test]
    evals = {
        "source_only": prf(test, base.segment_batch(raw_test)),
        "da": prf(test, da.segment_batch(raw_test)),
        "daat": prf(test, daat.segment_batch(raw_test, "target")),
    }
    times["evaluate"] = time.perf_counter() - t0

    model_path = workdir / "daat.csm"
    daat.save(str(model_path))
    return {
        "col": col,
        "tsv": tsv,
        "ds_all": ds_all,
        "ds_tgt": ds_tgt,
        "daat": daat,
        "daat_records": daat_records,
        "f1": {k: ev.f1 for k, ev in evals.items()},
        "ev_json": report_json(evals["daat"]),
        "container": model_path.read_bytes(),
        "times": times,
    }


@pytest.fixture(scope="module")
def pipeline(world, tmp_path_factory):
    return run_pipeline(world, tmp_path_factory.mktemp("pipeline"))


def test_criterion_1_crf_agrees_with_brute_force():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    for _ in range(120):
        n = int(rng.integers(1, 7))
        e = rng.normal(size=(n, 4))
        t = rng.normal(size=(4, 4))
        start = rng.normal(size=4)
        stop = rng.normal(size=4)
        head = CrfHead(emit_w=Tensor(np.zeros((1, 4))),
                       emit_b=Tensor(np.zeros((1, 4))),
                       trans=Tensor(t.copy()),
                       start=Tensor(start.copy()),
                       stop=Tensor(stop.copy()))
        gold = [int(g) for g in rng.integers(0, 4, size=n)]
        one = np.ones((1, n), dtype=bool)  # a batch of one sentence
        loss = nll_loss(Tensor(e[None].copy()), head, [gold], one)
        want = helpers.gold_path_probability(e, t, start, stop, gold)
        assert math.exp(-loss.item()) == pytest.approx(want, abs=1e-10)
        got = viterbi_decode(e[None], t, start, stop, one)[0]
        assert tuple(got) == helpers.crf_best_path(e, t, start, stop)
    assert time.perf_counter() - t0 < 10.0


def test_criterion_2_finite_difference_gradients():
    t0 = time.perf_counter()
    results = run_suite(trials=20, tolerance=1e-4, seed=97)
    elapsed = time.perf_counter() - t0
    assert len(results) == 7
    for r in results:
        assert r.ok, f"{r.name}: max rel error {r.max_rel_error:.3e}"
    assert elapsed < 60.0


def test_criterion_3_miner_matches_brute_force():
    rng = random.Random(31)
    alphabet = "abcdefg,.x"
    for _ in range(8):
        corpus = ["".join(rng.choice(alphabet)
                          for _ in range(rng.randint(1, 40)))
                  for _ in range(rng.randint(2, 60))]
        corpus = [s for s in corpus if s.strip(",.")] or ["ab"]
        assert sum(len(s) for s in corpus) <= 10_000
        cfg = MinerConfig(n_min=2, n_max=4, min_frequency=0)
        stats = collect_stats(corpus, cfg)
        oracle = helpers.OracleStats(corpus, n_max=4)
        scored = score_candidates(stats)
        assert scored, "every corpus should yield candidates"
        for cand in scored:
            g = cand.text
            assert cand.frequency == oracle.counts[g]
            assert cand.mis == pytest.approx(oracle.mis(g), abs=1e-9)
            assert cand.es == pytest.approx(oracle.es(g), abs=1e-9)
            assert cand.tfidf == pytest.approx(oracle.tfidf(g), abs=1e-9)
            assert 0.5 <= cand.p_val <= SIGMOID_3
        shuffled = corpus[:]
        rng.shuffle(shuffled)
        perm = score_candidates(collect_stats(shuffled, cfg))
        assert {c.text: c for c in perm} == {c.text: c for c in scored}


def test_criterion_4_mining_recovers_planted_words(world, pipeline):
    for w in toylang.DOMAIN_WORDS:
        assert sum(s.count(w) for s in world["raw"]) >= 30
    mined = set(pipeline["col"].entries)
    want = set(toylang.DOMAIN_WORDS)
    recall = len(mined & want) / len(want)
    spurious = len(mined - want) / max(len(mined), 1)
    assert recall >= 0.90, f"recall {recall:.2f}"
    assert spurious <= 0.10, f"spurious rate {spurious:.2f}"
    assert pipeline["times"]["mine"] < 60.0


def test_criterion_5_distant_annotation_reduces_oov(world, pipeline):
    v_src = vocabulary_of(world["src_train"])
    dist_segs = [tags_to_words(s, t) for s, t in pipeline["ds_all"].items]
    v_dist = vocabulary_of(dist_segs)
    r_src = oov_rate(v_src, world["test"])
    r_dist = oov_rate(v_dist, world["test"])
    assert r_src > 0.0
    reduction = (r_src - r_dist) / r_src
    assert reduction >= 0.50, f"oov {r_src:.4f} -> {r_dist:.4f}"
    assert pipeline["times"]["annotate"] < 30.0


def test_criterion_6_transfer_beats_both_baselines(pipeline):
    f1 = pipeline["f1"]
    assert f1["daat"] >= f1["da"] >= f1["source_only"], f1
    assert f1["daat"] >= 0.90, f1
    spent = sum(pipeline["times"][k] for k in
                ("train_base", "train_da", "train_daat", "evaluate"))
    assert spent < 600.0


def test_criterion_7_shared_features_hide_domain(world, pipeline):
    t0 = time.perf_counter()
    daat = pipeline["daat"]
    probe_src, probe_tgt = world["probe"]
    shared, private, labels = [], [], []
    for s, dom in [(x, 0) for x in probe_src] + [(x, 1) for x in probe_tgt]:
        x, mask = daat.embedding.embed([s])
        shared.append(daat.shared.forward(x, mask).data[0])
        enc = daat.towers["source" if dom == 0 else "target"].encoder
        private.append(enc.forward(x, mask).data[0])
        labels.extend([dom] * len(s))
    y = np.array(labels, dtype=float)
    acc_shared = helpers.linear_probe_accuracy(np.vstack(shared), y)
    acc_private = helpers.linear_probe_accuracy(np.vstack(private), y)
    assert acc_shared <= 0.65, f"shared features leak: {acc_shared:.3f}"
    assert acc_private > 0.80, f"private features too weak: {acc_private:.3f}"
    assert time.perf_counter() - t0 < 60.0


def test_daat_discriminator_stays_in_the_game(pipeline):
    # a live minimax game (Ganin et al. 2016) swings. The discriminator may
    # nearly win an epoch but the encoder pulls it back, and the confusion
    # loss may push it below chance for a while. At TRAIN_CFG the epoch
    # means were 0.527, 0.719, 0.983, 0.710, 0.624, 0.870, 0.390, 0.493,
    # 0.757 and 0.653, so every epoch is held strictly between 0.25 and
    # 0.99. A discriminator collapsed onto one domain scores exactly 0.5
    # on every step, so the last epoch's steps must not all agree.
    records = pipeline["daat_records"]
    epochs = [[r["disc_acc"] for r in records if r["epoch"] == k]
              for k in range(1, TRAIN_CFG["epochs"] + 1)]
    assert sum(map(len, epochs)) == len(records)
    assert len({len(accs) for accs in epochs}) == 1  # one record a step
    assert all(0.25 < float(np.mean(accs)) < 0.99 for accs in epochs)
    assert len(set(epochs[-1])) > 1


def test_criterion_8_bmes_roundtrip_and_repair():
    t0 = time.perf_counter()
    rng = np.random.default_rng(83)
    alphabet = "abcdefgh"
    for _ in range(10_000):
        words = helpers.random_segmentation(rng, alphabet)
        assert tags_to_words("".join(words), words_to_tags(words)) == words
    for _ in range(10_000):
        n = int(rng.integers(1, 12))
        s = "".join(alphabet[i] for i in rng.integers(0, len(alphabet), n))
        tags = "".join("BMES"[i] for i in rng.integers(0, 4, n))
        out = tags_to_words(s, tags)
        assert "".join(out) == s
        assert is_well_formed(words_to_tags(out))
    assert time.perf_counter() - t0 < 5.0


def test_criterion_9_everything_reproduces_bit_for_bit(world, pipeline,
                                                       tmp_path):
    again = run_pipeline(world, tmp_path)
    assert again["tsv"] == pipeline["tsv"]
    assert again["container"] == pipeline["container"]
    assert again["ev_json"] == pipeline["ev_json"]
