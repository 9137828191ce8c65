"""Command line front end.

Subcommands cover the full pipeline: mine a lexicon from raw text,
distantly annotate a target corpus, train the baseline or the adversarial
model, segment, score, and verify gradients. Exit codes: 0 on success, 1
for usage problems or invalid parameter values, 2 for unreadable or
malformed data files and for a gradient check that fails.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .annotator import build_target_dataset, save_provenance
from .corpus import (dataset_from_segmented, load_raw, load_segmented,
                     raw_lines, read_lines, save_segmented, tags_to_words)
from .errors import AlignmentError, DataError
from .evaluate import prf, report_json, write_report
from .gradcheck import run_suite
from .miner import MinerConfig, load_lexicon, mine, save_lexicon
from .train import (_STORED_FIELDS, TrainConfig, adversarial_train,
                    load_config, load_model, parse_field, train_base)


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad usage; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


# The TrainConfig fields each training command takes as flags: the
# schedule plus the fields its model stores.
_FLAG_FIELDS = {
    "train-base": ("epochs", "batch_size", "lr") + _STORED_FIELDS["segmenter"],
    "train-daat": ("epochs", "batch_size", "lr") + _STORED_FIELDS["daat"],
}


def _flag(name: str) -> str:
    """The flag of a TrainConfig field: its name with -, but --batch for
    batch_size."""
    return "--batch" if name == "batch_size" else "--" + name.replace("_", "-")


def _train_flags(p: argparse.ArgumentParser, command: str) -> None:
    p.add_argument("--config", help="key=value file of training settings")
    for name in _FLAG_FIELDS[command]:
        p.add_argument(_flag(name), dest=name, help=(
            "comma separated window widths, e.g. 3,4,5"
            if name == "filter_sizes" else None))


def _given(args: argparse.Namespace, *names: str) -> dict:
    """The flags among names, by dest, that the command line gave."""
    return {n: getattr(args, n) for n in names if getattr(args, n) is not None}


def _resolve_config(args: argparse.Namespace) -> TrainConfig:
    """The config file's settings, or the defaults, overridden by the
    flags given. A bad flag value is a ValueError naming the flag, raised
    before the config file is read."""
    overrides: dict = {}
    for name in _FLAG_FIELDS[args.command]:
        text = getattr(args, name)
        if text is not None:
            try:
                overrides[name] = parse_field(name, text)
                TrainConfig(**{name: overrides[name]})
            except ValueError as exc:
                raise ValueError(f"{_flag(name)}: {exc}") from None
    cfg = load_config(args.config) if args.config else TrainConfig()
    return replace(cfg, **overrides, **_given(args, "seed"))


def _nonempty(data, path: str):
    """data, or a DataError naming path when it holds no sentence."""
    if not len(data):
        raise DataError(f"{path}: no sentences")
    return data


def _decode(model_path: str, decode, *args):
    """decode(*args), its ValueError, a model whose scores overflow, turned
    into a DataError naming model_path."""
    try:
        return decode(*args)
    except ValueError as exc:
        raise DataError(f"{model_path}: {exc}") from None


def _cmd_mine(args: argparse.Namespace) -> int:
    corpus = load_raw(args.input)
    stop = frozenset()
    if args.stopwords:
        stop = frozenset(w.strip() for w in read_lines(args.stopwords)
                         if w.strip())
    cfg = MinerConfig(stop_words=stop, **_given(
        args, "n_min", "n_max", "p_val_threshold", "min_frequency"))
    collection = mine(corpus, cfg)
    save_lexicon(args.out, collection)
    print(f"mined {len(collection)} words from {len(corpus)} sentences")
    return 0


def _cmd_annotate(args: argparse.Namespace) -> int:
    raw = load_raw(args.input)
    collection = load_lexicon(args.lexicon)
    base = load_model(args.model)
    ds, prov = _decode(args.model, build_target_dataset, raw, collection,
                       base)
    save_segmented(args.out, [tags_to_words(s, t) for s, t in ds.items])
    save_provenance(args.out + ".prov", prov)
    lex_chars = sum(p.count("L") for p in prov)
    total = sum(len(p) for p in prov)
    share = lex_chars / total if total else 0.0
    print(f"annotated {len(ds)} sentences; lexicon covered "
          f"{share:.1%} of characters")
    return 0


def _cmd_train_base(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    ds = dataset_from_segmented(
        _nonempty(load_segmented(args.train), args.train), "source")
    records: list[dict] = []
    model = train_base(ds, cfg, hook=records.append)
    model.save(args.out_model)
    last = [r["l_src"] for r in records if r["epoch"] == cfg.epochs]
    print(f"trained on {len(ds)} sentences for {cfg.epochs} epochs; "
          f"final epoch loss {sum(last) / len(last):.4f}")
    return 0


def _cmd_train_daat(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    src = dataset_from_segmented(
        _nonempty(load_segmented(args.source), args.source), "source")
    if args.mode == "daat":
        target = dataset_from_segmented(load_segmented(args.target),
                                        "target", provenance="distant")
    else:
        target = load_raw(args.target)
    _nonempty(target, args.target)
    model = adversarial_train(src, target, cfg, mode=args.mode)
    model.save(args.out_model)
    print(f"adversarially trained ({args.mode}) on {len(src)} source and "
          f"{len(target)} target sentences")
    return 0


def _cmd_segment(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    raw = raw_lines(args.input)  # output line i segments input line i
    save_segmented(args.out, _decode(args.model, model.segment_batch, raw,
                                     args.domain))
    print(f"segmented {len(raw)} lines")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    gold = load_segmented(args.gold)
    pred = load_segmented(args.pred)
    try:
        ev = prf(gold, pred)
    except AlignmentError as exc:
        raise AlignmentError(f"{args.gold} vs {args.pred}: {exc}") from None
    if args.out:
        write_report(args.out, ev)
    sys.stdout.write(report_json(ev).decode("ascii"))
    return 0


def _cmd_gradcheck(args: argparse.Namespace) -> int:
    results = run_suite(**_given(args, "trials", "tolerance", "seed"))
    for r in results:
        print(f"{r.name}: max_rel_error={r.max_rel_error:.3e} "
              f"{'ok' if r.ok else 'FAIL'}")
    return 0 if all(r.ok for r in results) else 2


def build_parser() -> argparse.ArgumentParser:
    seeded = argparse.ArgumentParser(add_help=False)  # training, gradcheck
    seeded.add_argument("--seed", type=int, help="random seed (default 42)")

    parser = _Parser(prog="crossseg",
                     description="cross-domain Chinese word segmentation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mine", help="mine domain words from raw text")
    p.add_argument("--input", required=True, help="raw corpus, one "
                   "sentence per line")
    p.add_argument("--out", required=True, help="lexicon TSV to write")
    p.add_argument("--pval", type=float, dest="p_val_threshold",
                   metavar="PVAL")
    p.add_argument("--min-freq", type=int, dest="min_frequency",
                   metavar="MIN_FREQ")
    p.add_argument("--nmin", type=int, dest="n_min", metavar="NMIN")
    p.add_argument("--nmax", type=int, dest="n_max", metavar="NMAX")
    p.add_argument("--stopwords", help="file with one stop-word per line")
    p.set_defaults(func=_cmd_mine)

    p = sub.add_parser("annotate", help="distantly annotate raw target text")
    p.add_argument("--input", required=True)
    p.add_argument("--lexicon", required=True)
    p.add_argument("--model", required=True, help="base segmenter container")
    p.add_argument("--out", required=True,
                   help="segmented output; provenance goes to <out>.prov")
    p.set_defaults(func=_cmd_annotate)

    p = sub.add_parser("train-base", parents=[seeded],
                       help="train the single-domain segmenter")
    p.add_argument("--train", required=True, help="segmented training file")
    p.add_argument("--out-model", required=True, dest="out_model")
    _train_flags(p, "train-base")
    p.set_defaults(func=_cmd_train_base)

    p = sub.add_parser("train-daat", parents=[seeded],
                       help="train the adversarial cross-domain model")
    p.add_argument("--source", required=True, help="segmented source file")
    p.add_argument("--target", required=True,
                   help="segmented target file (daat) or raw text (at)")
    p.add_argument("--out-model", required=True, dest="out_model")
    p.add_argument("--mode", choices=("daat", "at"), default="daat")
    _train_flags(p, "train-daat")
    p.set_defaults(func=_cmd_train_daat)

    p = sub.add_parser("segment", help="segment raw text with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--domain", choices=("source", "target"),
                   default="target")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_segment)

    p = sub.add_parser("eval", help="score a segmentation against gold")
    p.add_argument("--gold", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--out", help="also write the JSON report here")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("gradcheck", parents=[seeded],
                       help="verify gradients by finite differences")
    p.add_argument("--trials", type=int)
    p.add_argument("--tolerance", type=float)
    p.set_defaults(func=_cmd_gradcheck)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
