"""Tests of the benchmark itself: its input generator, output checks and
tracer. Run from the repository root with

    python3 -m pytest perfbench -q

The mining test mines the full corpus for each of ten seeds and takes about
a minute and a half on two cores.
"""
import random
import sys
import unicodedata
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import crossseg as cs  # noqa: E402

import inputs  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402

SEEDS = range(1, 11)


def test_same_seed_regenerates_identical_bytes():
    assert inputs.make_inputs(7).to_bytes() == inputs.make_inputs(7).to_bytes()


def test_seeds_relabel_into_distinct_ideographs():
    a, b = inputs.relabelling(1), inputs.relabelling(2)
    assert a != b
    for table in (a, b):
        targets = list(table.values())
        assert len(set(targets)) == len(inputs.ALPHABET)
        for c in targets:
            assert 0x4E00 <= ord(c) <= 0x9FA5
            assert not c.isspace()
            assert unicodedata.category(c) == "Lo"
    chars_a = {c for s in inputs.make_inputs(1).raw for c in s}
    chars_b = {c for s in inputs.make_inputs(2).raw for c in s}
    assert chars_a != chars_b


def test_identity_relabelling_is_the_acceptance_language():
    toy_path = ROOT / "tests" / "toylang.py"
    if not toy_path.is_file():
        pytest.skip("acceptance toy language not present")
    sys.path.insert(0, str(toy_path.parent))
    import toylang
    got = inputs.make_inputs(None)
    raw, _ = toylang.target_mining_corpus()
    assert got.raw == raw
    assert got.planted == toylang.DOMAIN_WORDS
    assert got.test == toylang.target_test_corpus()
    assert got.source[:toylang.N_SOURCE_SENTENCES] == toylang.source_corpus()
    assert got.target_train == [raw[i] for i in
                                toylang.target_train_indices()]


@pytest.mark.parametrize("seed", SEEDS)
def test_mining_recovers_every_planted_word(seed):
    inp = inputs.make_inputs(seed)
    for cfg in (cs.MinerConfig(), cs.MinerConfig(**workloads.SETUP_MINER)):
        assert set(cs.mine(inp.raw, cfg).entries) == set(inp.planted)


def test_bmes_checker_agrees_with_the_library():
    rng = random.Random(5)
    for _ in range(2000):
        tags = "".join(rng.choice("BMES") for _ in range(rng.randint(0, 8)))
        assert workloads.well_formed(tags) == cs.is_well_formed(tags)


def _tiny_run():
    """A two-step adversarial run at batch 2; returns its outputs."""
    shapes = dict(workloads.SHAPES, batch_size=2)
    cfg = cs.TrainConfig(epochs=1, seed=3, **shapes)
    src = cs.dataset_from_segmented([["ab", "c", "d"], ["e", "fg"],
                                     ["ab", "e"], ["c", "fg", "d"]], "source")
    tgt = cs.dataset_from_segmented([["xy", "z"], ["z", "xy"], ["w", "xy"],
                                     ["xy", "w", "z"]], "target")
    losses = []
    model = cs.adversarial_train(src, tgt, cfg, hook=losses.append)
    return model.segment("xyzab"), [r["l_adv"] for r in losses], model


def test_tracer_is_inert_and_restores_every_attribute():
    plain = _tiny_run()
    before = {name: vars(mod).copy() for name, mod in sys.modules.items()
              if name.startswith("crossseg")}
    tr = tracer_mod.Tracer()
    tr.install(cs)
    try:
        assert tracer_mod.leftover_patches(cs)
        traced = _tiny_run()
    finally:
        tr.uninstall()
    assert traced[:2] == plain[:2]
    assert tracer_mod.leftover_patches(cs) == []
    after = {name: vars(mod).copy() for name, mod in sys.modules.items()
             if name.startswith("crossseg")}
    assert all(after[k] == v for k, v in before.items())
    # two steps at batch 2: six encoder passes per sentence pair per step
    kinds = tr.request_kind
    steps = [r for r, k in kinds.items() if k == "daat_step"]
    assert len(steps) == 2
    names = [tr.names[i] for i in tr.name]
    per_step = [sum(1 for n, r in zip(names, tr.req)
                    if n == "nn.gcnn_forward" and r == s) for s in steps]
    assert per_step == [12, 12]
    # odd steps detach a second shared pass, so not every node is walked
    walked = tr.counts["autodiff.nodes_walked"]
    assert 0 < walked < tr.counts["autodiff.nodes_created"]
    # every span closed, and children lie inside their parents
    a = tr.arrays()
    assert not tr.stack
    has = a["parent"] >= 0
    assert (a["start"][has] >= a["start"][a["parent"][has]]).all()
    assert (a["end"][has] <= a["end"][a["parent"][has]]).all()
