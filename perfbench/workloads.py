"""The benchmark's three workloads, driven through crossseg's public API.

A workload is a set-up, a timed phase and an untimed evaluation. Each runs
in one process with no thread pool. `run_pass` runs one workload once; with
`replay` it repeats exactly the operations of an earlier pass instead of
running for a time budget, which is how the traced pass does the same work
as the untraced one.

    mine   mine() with the default MinerConfig over the raw target corpus,
           repeated until the time budget is spent. Pure-Python strings and
           dicts; no neural layer runs.
    train  train_base on the source corpus, then adversarial_train (DAAT) on
           source plus silver target, one epoch each at the acceptance
           suite's model shapes. Set-up mines a lexicon and annotates the
           target training sentences with a briefly trained base model.
    infer  set-up trains a base and a DAAT model on a short schedule, saves
           them and loads them back. The timed phase runs rounds of
           build_target_dataset on a chunk of the raw target corpus and
           DaatModel.segment on a block of raw target sentences until the
           time budget is spent.

All timed-phase and set-up times are scaled to a reference machine speed
by kernel samples taken between operations (see speed.py).
"""
from __future__ import annotations

import math
import random
import re
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from inputs import make_inputs
from speed import LARGE, Speed

now = time.perf_counter

# TRAIN_CFG of the acceptance suite, without epochs and seed.
SHAPES = dict(batch_size=16, lr=0.001, dropout=0.1, char_emb=32, gcnn_dim=32,
              gcnn_layers=2, window=3, textcnn_filters=16,
              filter_sizes=(3, 4, 5))
# The train and infer set-ups mine with n_max=3, the length of the planted
# words: the lexicon equals the one of the default n_max=6 at a third of
# the cost, which keeps three set-ups per run affordable.
SETUP_MINER = dict(n_max=3)
# Short schedules of the set-ups: base-model sentences (20 steps) and
# adversarial sentences per domain (5 steps).
SHORT_BASE = 320
SHORT_DAAT = 80
# An infer round annotates one chunk and segments one block of sentences.
ANNOTATE_CHUNK = 50         # sentences per build_target_dataset call
SEGMENT_BLOCK = 100
MIN_ROUNDS = 10             # 1000 segmentations: p99 has ten samples above
MIN_MINE_CALLS = 4
# Repetitions of the small calibration kernel (about 15 ms each) around
# set-ups and base training, and after each adversarial step and infer
# round.
CAL_CHECKPOINT = 10
CAL_STEP = 2


_BMES = re.compile(r"(?:S|BM*E)*")


def well_formed(tags: str) -> bool:
    """BMES check written independently of crossseg.corpus."""
    return _BMES.fullmatch(tags) is not None


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile: at least (1 - q) * n samples are >= it."""
    s = sorted(values)
    return s[min(len(s) - 1, max(0, math.ceil(q * len(s)) - 1))]


@dataclass
class Ctx:
    cs: object                  # the crossseg package
    seed: int
    seconds: float
    workdir: Path
    tracer: object = None
    replay: dict | None = None  # op counts of an earlier pass
    marks: list = field(default_factory=list)
    speed: Speed | None = None  # set by run_pass

    def more(self, key: str, done: int, t0: float, minimum: int = 1) -> bool:
        """Whether to start another operation of kind `key`."""
        if self.replay is not None:
            return done < self.replay[key]
        return done < minimum or now() - t0 < self.seconds

    def request(self, kind: str) -> None:
        if self.tracer is not None:
            self.tracer.begin_request(kind)

    def mark(self) -> None:
        if self.tracer is not None:
            self.marks.append(self.tracer.mark())

    def config(self, **kw):
        return self.cs.TrainConfig(seed=self.seed, **SHAPES, **kw)

    def ref(self, seconds: float) -> float:
        """Timed-phase seconds at reference machine speed."""
        return self.speed.to_reference(seconds)


@dataclass
class Pass:
    setup_s: list[float]                # at reference machine speed
    timed_s: float
    kernel_s: float                     # calibration kernel in timed_s
    kernel_rate: float                  # timed phase, repetitions/s
    kernel_reference: float             # the kernel's reference rate
    attempted: int
    failed: int
    valid: bool
    ops: dict[str, int]                 # op counts, for replay
    metrics: dict[str, tuple]           # name -> (value, unit, samples)
    artefacts: dict[str, bytes]         # outputs the traced pass must repeat
    marks: list = field(default_factory=list)


class Failures:
    """Counts attempted and failed operations; keeps the first traceback."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first: str | None = None

    def fail(self, why: str) -> None:
        self.failed += 1
        if self.first is None:
            self.first = why


def _lexicon_prf(col, planted: list[str]) -> tuple[float, float, float]:
    mined, want = set(col.entries), set(planted)
    hit = len(mined & want)
    precision = hit / len(mined) if mined else 0.0
    recall = hit / len(want)
    f1 = 2 * precision * recall / (precision + recall) if hit else 0.0
    return precision, recall, f1


# -- mine -------------------------------------------------------------------

def setup_mine(ctx: Ctx) -> dict:
    return {"inputs": make_inputs(ctx.seed)}


def timed_mine(ctx: Ctx, st: dict, fails: Failures) -> dict:
    """mine() calls with a sample of the large kernel before the first and
    after each."""
    cs, raw = ctx.cs, st["inputs"].raw
    cfg = cs.MinerConfig()
    calls: list[float] = []
    first = None
    ctx.speed = Speed(LARGE)
    t0 = now()
    ctx.speed.sample(1)
    while ctx.more("mine", fails.attempted, t0, MIN_MINE_CALLS):
        fails.attempted += 1
        ctx.request("mine")
        t = now()
        try:
            col = cs.mine(raw, cfg)
        except Exception:
            fails.fail(traceback.format_exc())
            continue
        calls.append(now() - t)
        ctx.speed.sample(1)
        tsv = cs.lexicon_to_tsv(col)
        if first is None:
            first = (col, tsv)
        elif tsv != first[1]:
            fails.fail("mine() returned a different lexicon on a repeat")
    st.update(calls=calls, chars=sum(map(len, raw)), first=first)
    return {"mine": fails.attempted}


def evaluate_mine(ctx: Ctx, st: dict, fails: Failures):
    calls, first = st["calls"], st["first"]
    if first is None:
        return {}, {}, False
    col, tsv = first
    precision, recall, f1 = _lexicon_prf(col, st["inputs"].planted)
    n = len(calls)
    calls = [ctx.ref(t) for t in calls]
    # total over total: a median of four calls jumps with the machine's
    # fast and slow phases, a mean weighs them by their time
    rate = n * st["chars"] / sum(calls)
    metrics = {
        "mine_chars_per_s": (rate, "chars/s", n),
        "mine_ms_p50": (statistics.median(calls) * 1000.0, "ms", n),
        "lexicon_f1": (f1, "share", 1),
        "chars_per_s": (rate, "chars/s", n),
        "f1": (f1, "share", 1),
    }
    # acceptance criterion 4: recall >= 0.90 with at most 10% spurious
    valid = recall >= 0.90 and precision >= 0.90
    return metrics, {"lexicon_tsv": tsv, "f1": repr(f1).encode()}, valid


# -- train ------------------------------------------------------------------

def setup_train(ctx: Ctx) -> dict:
    cs = ctx.cs
    inp = make_inputs(ctx.seed)
    col = cs.mine(inp.raw, cs.MinerConfig(**SETUP_MINER))
    gap_base = cs.train_base(
        cs.dataset_from_segmented(inp.source[:SHORT_BASE], "source"),
        ctx.config(epochs=1))
    silver, _ = cs.build_target_dataset(inp.target_train, col, gap_base)
    return {"inputs": inp, "lexicon": col, "silver": silver,
            "source": cs.dataset_from_segmented(inp.source, "source")}


def _read_base_log(path: Path, fails: Failures) -> list[float]:
    """Per-step seconds from the train_base log; checks every loss."""
    steps = []
    for line in path.read_text(encoding="utf-8").splitlines():
        fields = line.split("\t")
        fails.attempted += 1
        if not math.isfinite(float(fields[2])):
            fails.fail(f"train_base step {len(steps) + 1}: loss not finite")
        steps.append(float(fields[5]) / 1000.0)
    return steps


def timed_train(ctx: Ctx, st: dict, fails: Failures) -> dict:
    cs, src, silver = ctx.cs, st["source"], st["silver"]
    bs = SHAPES["batch_size"]
    log = ctx.workdir / "train_base.log"
    ctx.speed.sample(CAL_CHECKPOINT)
    try:
        st["base"] = cs.train_base(src, ctx.config(epochs=1),
                                   log_path=str(log))
    except Exception:
        fails.attempted += 1
        fails.fail(traceback.format_exc())
        return {}
    ctx.speed.sample(CAL_CHECKPOINT)
    st["base_steps"] = _read_base_log(log, fails)
    steps: list[float] = []
    last = [0.0]

    def hook(rec: dict) -> None:
        steps.append(now() - last[0])
        fails.attempted += 1
        losses = [rec["l_src"], rec["l_tgt"], rec["l_adv"]]
        if not all(v is not None and math.isfinite(v) for v in losses):
            fails.fail(f"adversarial step {len(steps)}: loss not finite")
        ctx.speed.sample(CAL_STEP)
        last[0] = now()

    planned = math.ceil(max(len(src), len(silver)) / bs)
    last[0] = now()
    try:
        st["daat"] = cs.adversarial_train(src, silver, ctx.config(epochs=1),
                                          mode="daat", hook=hook)
    except Exception:
        fails.attempted += planned - len(steps)
        fails.failed += planned - len(steps) - 1
        fails.fail(traceback.format_exc())
    st["steps"] = steps
    return {}


def _segment_checked(model, sentence: str, fails: Failures):
    try:
        words = model.segment(sentence, "target")
    except Exception:
        fails.fail(traceback.format_exc())
        return None
    if "".join(words) != sentence or not all(words):
        fails.fail(f"segmentation does not join back to {sentence!r}")
        return None
    return words


def _test_f1(ctx: Ctx, model, test: list[list[str]],
             fails: Failures) -> float:
    pred = []
    for ws in test:
        fails.attempted += 1
        pred.append(_segment_checked(model, "".join(ws), fails)
                    or ["".join(ws)])
    return ctx.cs.prf(test, pred).f1


def evaluate_train(ctx: Ctx, st: dict, fails: Failures):
    cs, inp = ctx.cs, st["inputs"]
    if "daat" not in st:
        return {}, {}, False
    src, silver = st["source"], st["silver"]
    bs = SHAPES["batch_size"]
    f1 = _test_f1(ctx, st["daat"], inp.test, fails)
    steps = [ctx.ref(t) for t in st["steps"]]
    base_steps = [ctx.ref(t) for t in st["base_steps"]]
    n, n_base = len(steps), len(base_steps)
    src_chars = sum(len(s) for s, _ in src.items)
    base_chars = src_chars / n_base
    daat_chars = bs * (src_chars / len(src)
                       + sum(len(s) for s, _ in silver.items) / len(silver))
    base_s, daat_s = statistics.median(base_steps), statistics.median(steps)
    metrics = {
        "train_base_chars_per_s": (base_chars / base_s, "chars/s", n_base),
        "train_daat_chars_per_s": (daat_chars / daat_s, "chars/s", n),
        "daat_step_ms_p50": (daat_s * 1000.0, "ms", n),
        "daat_step_ms_p90": (quantile(steps, 0.90) * 1000.0, "ms", n),
        "target_f1": (f1, "share", len(inp.test)),
        # total over total, like the kernel rate it is scaled by
        "chars_per_s": ((n_base * base_chars + n * daat_chars)
                        / (sum(base_steps) + sum(steps)), "chars/s",
                        n_base + n),
        "f1": (f1, "share", len(inp.test)),
    }
    artefacts = {"lexicon_tsv": cs.lexicon_to_tsv(st["lexicon"]),
                 "silver_tags": "\n".join(t for _, t in silver.items).encode(),
                 "base_model": _container(st["base"], ctx.workdir / "b.bin"),
                 "daat_model": _container(st["daat"], ctx.workdir / "d.bin"),
                 "f1": repr(f1).encode()}
    valid = all(well_formed(t) for _, t in silver.items)
    return metrics, artefacts, valid


def _container(model, path: Path) -> bytes:
    model.save(str(path))
    return path.read_bytes()


# -- infer ------------------------------------------------------------------

def setup_infer(ctx: Ctx) -> dict:
    cs = ctx.cs
    inp = make_inputs(ctx.seed)
    col = cs.mine(inp.raw, cs.MinerConfig(**SETUP_MINER))
    src = cs.dataset_from_segmented(inp.source[:SHORT_BASE], "source")
    base = cs.train_base(src, ctx.config(epochs=1))
    silver, _ = cs.build_target_dataset(inp.target_train[:SHORT_DAAT], col,
                                        base)
    small = cs.LabeledDataset(src.items[:SHORT_DAAT], "source",
                              src.provenance[:SHORT_DAAT])
    daat = cs.adversarial_train(small, silver, ctx.config(epochs=1))
    paths = (ctx.workdir / "base.daat", ctx.workdir / "daat.daat")
    base.save(str(paths[0]))
    daat.save(str(paths[1]))
    order = list(range(len(inp.raw)))
    random.Random(ctx.seed).shuffle(order)
    return {"inputs": inp, "lexicon": col,
            "base": cs.load_model(str(paths[0])),
            "daat": cs.load_model(str(paths[1])),
            "containers": tuple(p.read_bytes() for p in paths),
            "sentences": [inp.raw[i] for i in order]}


def _check_annotation(sentence: str, item, prov: str) -> str | None:
    s, tags = item
    if s != sentence:
        return "annotated sentence differs from the input"
    if len(tags) != len(s) or len(prov) != len(s):
        return "annotation length differs from the sentence"
    if not well_formed(tags):
        return f"tags {tags!r} are not well-formed BMES"
    if set(prov) - {"L", "S"}:
        return "provenance outside L/S"
    return None


def _annotate_chunk(ctx: Ctx, st: dict, chunk: list[str],
                    fails: Failures) -> float | None:
    """Annotate and check a chunk; returns its seconds, None on failure."""
    fails.attempted += len(chunk)
    t = now()
    try:
        ds, prov = ctx.cs.build_target_dataset(chunk, st["lexicon"],
                                               st["base"])
    except Exception:
        fails.failed += len(chunk) - 1
        fails.fail(traceback.format_exc())
        return None
    dt = now() - t
    for sentence, item, p in zip(chunk, ds.items, prov):
        why = _check_annotation(sentence, item, p)
        if why:
            fails.fail(why)
        st["tags"].append(item[1] + " " + p)
    return dt


def _segment_sentence(ctx: Ctx, st: dict, sentence: str,
                      fails: Failures) -> float | None:
    """Segment and check a sentence; returns its seconds, None on failure."""
    fails.attempted += 1
    ctx.request("segment")
    t = now()
    try:
        words = st["daat"].segment(sentence, "target")
    except Exception:
        fails.fail(traceback.format_exc())
        return None
    dt = now() - t
    if "".join(words) != sentence or not all(words):
        fails.fail(f"segmentation does not join back to {sentence!r}")
    st["words"].append(" ".join(words))
    return dt


def timed_infer(ctx: Ctx, st: dict, fails: Failures) -> dict:
    """Rounds of one annotation chunk then one block of segmentations, so
    both stages are sampled across the whole window. Per round it records
    (annotate chars, seconds, segment chars, seconds), and every sentence
    time."""
    sentences = st["sentences"]
    st.update(tags=[], words=[], rounds=[], sentence_s=[])
    t0 = now()
    ctx.speed.sample(CAL_STEP)
    while ctx.more("rounds", len(st["rounds"]), t0, MIN_ROUNDS):
        lo = len(st["rounds"]) * ANNOTATE_CHUNK % len(sentences)
        chunk = sentences[lo:lo + ANNOTATE_CHUNK]
        ann_s = _annotate_chunk(ctx, st, chunk, fails)
        lo = len(st["rounds"]) * SEGMENT_BLOCK
        block = [sentences[i % len(sentences)]
                 for i in range(lo, lo + SEGMENT_BLOCK)]
        seg = [(len(s), _segment_sentence(ctx, st, s, fails)) for s in block]
        ctx.speed.sample(CAL_STEP)
        seg_s = [t for _, t in seg if t is not None]
        st["sentence_s"] += seg_s
        st["rounds"].append((sum(map(len, chunk)) if ann_s else 0,
                             ann_s or 0.0,
                             sum(c for c, t in seg if t is not None),
                             sum(seg_s)))
    return {"rounds": len(st["rounds"])}


def evaluate_infer(ctx: Ctx, st: dict, fails: Failures):
    cs, inp = ctx.cs, st["inputs"]
    rounds = [(a, ctx.ref(s1), c, ctx.ref(s2)) for a, s1, c, s2
              in st["rounds"] if s1 > 0 and s2 > 0]
    times = [ctx.ref(t) for t in st["sentence_s"]]
    if not rounds:
        return {}, {}, False
    f1 = _test_f1(ctx, st["daat"], inp.test, fails)
    n = len(times)
    metrics = {
        "annotate_chars_per_s": (statistics.median(a / s for a, s, _, _ in
                                                   rounds),
                                 "chars/s", len(rounds)),
        "segment_chars_per_s": (statistics.median(c / s for _, _, c, s in
                                                  rounds),
                                "chars/s", len(rounds)),
        "segment_ms_p50": (statistics.median(times) * 1000.0, "ms", n),
        "segment_ms_p99": (quantile(times, 0.99) * 1000.0, "ms", n),
        # total over total, like the kernel rate it is scaled by
        "chars_per_s": (sum(a + c for a, _, c, _ in rounds)
                        / sum(s1 + s2 for _, s1, _, s2 in rounds), "chars/s",
                        len(rounds)),
        "f1": (f1, "share", len(inp.test)),
    }
    artefacts = {"lexicon_tsv": cs.lexicon_to_tsv(st["lexicon"]),
                 "base_model": st["containers"][0],
                 "daat_model": st["containers"][1],
                 "annotations": "\n".join(st["tags"]).encode(),
                 "segmentations": "\n".join(st["words"]).encode(),
                 "f1": repr(f1).encode()}
    return metrics, artefacts, True


WORKLOADS = {
    "mine": (setup_mine, timed_mine, evaluate_mine),
    "train": (setup_train, timed_train, evaluate_train),
    "infer": (setup_infer, timed_infer, evaluate_infer),
}


def run_pass(name: str, ctx: Ctx, setups: int = 1) -> tuple[Pass, str | None]:
    """Set up `setups` times (the last set-up is used), run the timed phase,
    then evaluate. Returns the pass and the first failure, if any. Each
    set-up is timed at reference speed from kernel samples around it."""
    setup, timed, evaluate = WORKLOADS[name]
    ctx.speed = Speed()
    setup_s = []
    for _ in range(setups):
        st = None
        speed = Speed()
        speed.sample(CAL_CHECKPOINT)
        t = now()
        st = setup(ctx)
        elapsed = now() - t
        speed.sample(CAL_CHECKPOINT)
        setup_s.append(speed.to_reference(elapsed))
    ctx.mark()
    fails = Failures()
    t = now()
    ops = timed(ctx, st, fails)
    timed_s = now() - t
    ctx.mark()
    metrics, artefacts, valid = evaluate(ctx, st, fails)
    ctx.mark()
    artefacts["inputs"] = st["inputs"].to_bytes()
    return Pass(setup_s, timed_s, ctx.speed.seconds, ctx.speed.rate(),
                ctx.speed.reference, fails.attempted,
                fails.failed, valid, ops, metrics, artefacts,
                ctx.marks), fails.first
