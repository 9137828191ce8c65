"""Per-layer metrics from a traced pass (README.md maps each one to the
end-to-end metric it should move).

Busy times are self times (span duration minus child spans), so the busy
times of all layers partition the traced wall time. The timed wall time
excludes the calibration kernel (speed.py). Metrics cover the timed
phase, except model_io (set-up phase, where models are saved and loaded)
and evaluate (evaluation phase, where target F1 is scored). "Per step"
counts divide by the workload's main requests: adversarial steps on train,
segmented sentences on infer, mine calls on mine.
"""
from __future__ import annotations

import numpy as np

LAYERS = ("miner", "annotator", "train", "nn", "crf", "autodiff", "model_io",
          "corpus", "evaluate")
MAIN_REQUEST = {"mine": "mine", "train": "daat_step", "infer": "segment"}

def _unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last == "s" or last.endswith("_s"):
        return "s"
    if last.endswith(("ratio", "share")) or name.startswith("share."):
        return "share"
    return "count"


def per_layer(tracer, marks, workload: str, timed_wall: float,
              overhead_s: float) -> dict[str, tuple[float, str]]:
    """All per-layer metrics of one traced pass: name -> (value, unit)."""
    a = tracer.arrays()
    names = tracer.names
    n = len(a["start"])
    dur = a["end"] - a["start"]
    has_parent = a["parent"] >= 0
    child = np.zeros(n)
    np.add.at(child, a["parent"][has_parent], dur[has_parent])
    self_t = dur - child
    (b_setup, c_setup), (b_timed, c_timed), (b_eval, _) = marks
    phases = {"setup": slice(0, b_setup), "timed": slice(b_setup, b_timed),
              "eval": slice(b_timed, b_eval)}
    ids = {nm: i for i, nm in enumerate(names)}

    def select(phase: str, span_names) -> np.ndarray:
        return np.isin(a["name"][phases[phase]],
                       [ids[s] for s in span_names if s in ids])

    def busy(phase: str, *span_names: str) -> float:
        return float(self_t[phases[phase]][select(phase, span_names)].sum())

    def total(phase: str, *span_names: str) -> float:
        return float(dur[phases[phase]][select(phase, span_names)].sum())

    def calls(phase: str, *span_names: str) -> int:
        return int(select(phase, span_names).sum())

    c = c_timed - c_setup
    sl = phases["timed"]
    timed_reqs = [r for r, i in tracer.request_start.items()
                  if b_setup <= i < b_timed]
    main = [r for r in timed_reqs
            if tracer.request_kind[r] == MAIN_REQUEST[workload]]
    n_main = len(main)
    gcnn_in_main = int((np.isin(a["req"][sl], main)
                        & select("timed", ["nn.gcnn_forward"])).sum())
    # gap calls: base-model segment spans whose parent is distant_annotate
    par = a["parent"][sl]
    gap_calls = int((select("timed", ["train.segment"]) & (par >= 0)
                     & (a["name"][np.maximum(par, 0)]
                        == ids.get("annotator.distant_annotate", -1))).sum())
    probes = c["annotator.fmm.probes"]
    kept, cands = c["miner.kept"], c["miner.candidates"]
    created, walked = c["autodiff.nodes_created"], c["autodiff.nodes_walked"]
    main_nodes = sum(tracer.nodes_by_request[r] for r in main)
    out = {
        "miner.collect_stats.busy_s": busy("timed", "miner.collect_stats"),
        "miner.score_candidates.busy_s": busy("timed",
                                              "miner.score_candidates"),
        "miner.ngrams": c["miner.ngrams"],
        "miner.candidates": cands,
        "miner.kept_ratio": kept / cands if cands else 0.0,
        "annotator.distant_annotate.busy_s": busy(
            "timed", "annotator.distant_annotate"),
        "annotator.forward_max_match.busy_s": busy(
            "timed", "annotator.forward_max_match"),
        "annotator.fmm.probes": probes,
        "annotator.fmm.hit_ratio": c["annotator.fmm.hits"] / probes
        if probes else 0.0,
        "annotator.gap_calls": gap_calls,
        "annotator.lexicon_char_share": c["annotator.lexicon_chars"]
        / c["annotator.chars"] if c["annotator.chars"] else 0.0,
        "train.steps": sum(1 for r in timed_reqs
                           if tracer.request_kind[r].endswith("_step")),
        "train.step.busy_s": busy("timed", "train.step"),
        "train.tagging_losses.s": total("timed", "train.tagging_losses"),
        "train.adversarial_loss.s": total("timed", "train.adversarial_loss"),
        "train.gcnn_forward_per_step": gcnn_in_main / n_main
        if workload == "train" and n_main else 0.0,
    }
    for short, span in (("embed", "nn.embed"),
                        ("gcnn_forward", "nn.gcnn_forward"),
                        ("textcnn_forward", "nn.textcnn_forward"),
                        ("adam_step", "nn.adam_step")):
        out[f"nn.{short}.busy_s"] = busy("timed", span)
        out[f"nn.{short}.calls"] = calls("timed", span)
    for short, label in (("conv1d", "autodiff.conv1d"),
                         ("gather_rows", "autodiff.gather_rows"),
                         ("other_ops", "autodiff.other")):
        out[f"autodiff.{short}.fwd_s"] = busy("timed", label + ".fwd")
        out[f"autodiff.{short}.bwd_s"] = busy("timed", label + ".bwd")
    out["autodiff.conv1d.calls"] = calls("timed", "autodiff.conv1d.fwd")
    out["autodiff.backward.tape_walk_s"] = busy("timed", "autodiff.backward")
    out["autodiff.nodes_per_step"] = main_nodes / n_main if n_main else 0.0
    out["autodiff.walked_ratio"] = walked / created if created else 0.0
    out.update({
        "crf.emission_scores.busy_s": busy("timed", "crf.emission_scores"),
        "crf.nll_loss.fwd_s": busy("timed", "crf.nll_loss.fwd"),
        "crf.nll_loss.bwd_s": busy("timed", "crf.nll_loss.bwd"),
        "crf.nll_loss.calls": calls("timed", "crf.nll_loss.fwd"),
        "crf.positions": c["crf.positions"],
        "crf.viterbi_decode.busy_s": busy("timed", "crf.viterbi_decode"),
        "crf.viterbi_decode.calls": calls("timed", "crf.viterbi_decode"),
        "model_io.save_container.busy_s": busy("setup",
                                               "model_io.save_container"),
        "model_io.load_container.busy_s": busy("setup",
                                               "model_io.load_container"),
        "model_io.bytes": c_setup["model_io.bytes"],
        "corpus.tags_to_words.busy_s": busy("timed", "corpus.tags_to_words"),
        "corpus.words_to_tags.busy_s": busy("timed", "corpus.words_to_tags"),
        "evaluate.prf.busy_s": busy("eval", "evaluate.prf"),
    })
    layer_of = np.array([nm.split(".", 1)[0] for nm in names], dtype=object)
    timed_layer = layer_of[a["name"][sl]]
    attributed = 0.0
    for layer in LAYERS:
        t = float(self_t[sl][timed_layer == layer].sum())
        out[f"share.{layer}"] = t / timed_wall if timed_wall else 0.0
        attributed += t
    out["share.unattributed"] = max(0.0, 1.0 - attributed / timed_wall) \
        if timed_wall else 0.0
    out["trace.spans"] = n
    out["trace.overhead_s"] = overhead_s
    out["trace.overhead_share"] = overhead_s / (timed_wall - overhead_s) \
        if timed_wall > overhead_s else 0.0
    return {k: (float(v), _unit(k)) for k, v in out.items()}
