"""Benchmark of the crossseg toolkit: one workload, one seed, one result.

Run from the root of a checkout:

    python3 perfbench/run.py --workload mine|train|infer --seed N \
        --seconds S --trace 0|1

It imports crossseg from the checkout's src/ directory (nothing needs to be
installed), generates the workload's inputs from the seed, checks every
output, and prints two JSON lines: a detail record (the machine, every
stage metric with its unit and sample count), then the result
{"correct", "attempted", "failed", "metrics"}.

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json.
With --trace 1 the workload runs twice, untraced and then traced on exactly
the same operations; the result holds the per-layer metrics, the traced
outputs must equal the untraced ones byte for byte, and the spans are
written to .perfbench_out/ in the checkout.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path

sys.dont_write_bytecode = True

import layers  # noqa: E402  (this directory is first on sys.path)
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 3        # set-ups per untraced run; setup_s is their median

E2E = ("setup_s", "peak_rss_mb", "ok_share", "chars_per_s", "f1")


def _import_crossseg():
    src = ROOT / "src"
    if not (src / "crossseg" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no crossseg sources under {src}; run "
                         "from the root of a crossseg checkout")
    sys.path.insert(0, str(src))
    import crossseg
    if Path(crossseg.__file__).resolve().parent != src / "crossseg":
        raise SystemExit(f"perfbench: imported crossseg from "
                         f"{crossseg.__file__}, not from {src}")
    return crossseg


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as f:
            libs = {line.split()[-1] for line in f
                    if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            path = ROOT / ".git" / name
            if path.is_file():
                return path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


def machine(seed: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads(), "git_commit": _git_commit(),
            "seed": seed}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _result(correct: bool, attempted: int, failed: int,
            metrics: dict[str, tuple[float, str]]) -> dict:
    return {"correct": bool(correct), "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {k: {"value": float(v), "unit": u}
                        for k, (v, u) in metrics.items()}}


def run_untraced(cs, args, workdir: Path):
    ctx = workloads.Ctx(cs, args.seed, args.seconds, workdir)
    p, first_failure = workloads.run_pass(args.workload, ctx, SETUPS)
    e2e = {
        "setup_s": (statistics.median(p.setup_s), "s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
        "ok_share": (1.0 - p.failed / p.attempted if p.attempted else 0.0,
                     "share"),
    }
    for name in E2E[3:]:
        if name in p.metrics:
            value, unit, _ = p.metrics[name]
            e2e[name] = (value, unit)
    detail = {name: {"value": v, "unit": u, "samples": n}
              for name, (v, u, n) in p.metrics.items()
              if name not in E2E}
    detail["setup_s_each"] = {"value": p.setup_s, "unit": "s",
                              "samples": len(p.setup_s)}
    detail["failed_share"] = {"value": p.failed / max(1, p.attempted),
                              "unit": "share", "samples": p.attempted}
    # timed-phase timings are at reference machine speed; with these the
    # raw ones can be recovered
    detail["kernel_rate"] = {"value": p.kernel_rate, "unit": "1/s",
                             "reference": p.kernel_reference}
    correct = p.valid and p.failed == 0 and set(e2e) == set(E2E)
    return _result(correct, p.attempted, p.failed, e2e), detail, first_failure


def run_traced(cs, args, workdir: Path):
    base_ctx = workloads.Ctx(cs, args.seed, args.seconds, workdir)
    plain, first_failure = workloads.run_pass(args.workload, base_ctx, 1)
    tr = tracer_mod.Tracer()
    tr.install(cs)
    try:
        ctx = workloads.Ctx(cs, args.seed, args.seconds, workdir, tracer=tr,
                            replay=plain.ops)
        traced, traced_failure = workloads.run_pass(args.workload, ctx, 1)
    finally:
        tr.uninstall()
    leftovers = tracer_mod.leftover_patches(cs)
    differs = sorted(k for k in plain.artefacts
                     if plain.artefacts[k] != traced.artefacts.get(k))
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    trace_file = out_dir / f"trace-{args.workload}-seed{args.seed}.npz"
    tr.write(str(trace_file))
    # timed phases without the calibration kernel, which is not the program
    plain_s = plain.timed_s - plain.kernel_s
    traced_s = traced.timed_s - traced.kernel_s
    overhead = traced_s - plain_s
    metrics = layers.per_layer(tr, traced.marks, args.workload, traced_s,
                               overhead)
    detail = {"untraced_timed_s": plain_s, "traced_timed_s": traced_s,
              "outputs_differ": differs, "patches_left": leftovers,
              "trace_file": str(trace_file.relative_to(ROOT))}
    correct = (plain.valid and traced.valid and not differs and not leftovers
               and plain.failed == 0 and traced.failed == 0)
    return (_result(correct, plain.attempted + traced.attempted,
                    plain.failed + traced.failed, metrics), detail,
            first_failure or traced_failure)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("mine", "train", "infer"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    cs = _import_crossseg()
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run = run_traced if args.trace else run_untraced
        result, detail, first_failure = run(cs, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if first_failure:
        print(first_failure, file=sys.stderr)
    print(json.dumps({"workload": args.workload, "trace": args.trace,
                      "machine": machine(args.seed), "detail": detail},
                     ensure_ascii=False))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
