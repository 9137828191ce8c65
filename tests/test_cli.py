import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from crossseg.cli import _resolve_config, build_parser, main
from crossseg.corpus import (dataset_from_segmented, load_segmented,
                             save_segmented)
from crossseg.errors import DataError
from crossseg.evaluate import prf, report_json
from crossseg.miner import MinerConfig, lexicon_to_tsv, load_lexicon, mine
from crossseg.model_io import load_container, save_container
from crossseg.train import (Segmenter, TrainConfig, _buckets, load_model,
                            train_base)

from test_miner import build_cohesion_corpus


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    raw = d / "raw.txt"
    raw.write_text("\n".join(build_cohesion_corpus()) + "\n",
                   encoding="utf-8")
    train = d / "train.txt"
    words = ["ab", "cd", "ef", "gh"]
    segs = [[words[i % 4], words[(i + 1) % 4]] for i in range(40)]
    save_segmented(train, segs)
    return d


def test_mine_writes_lexicon(workdir):
    out = workdir / "lex.tsv"
    rc = main(["mine", "--input", str(workdir / "raw.txt"),
               "--out", str(out)])
    assert rc == 0
    assert set(load_lexicon(out).entries) == {"qzj"}


def test_mine_stopwords_file_strips_words_and_skips_blank_lines(tmp_path):
    # a second planted word, 'uvw'; the stop word 'v' splits it and leaves
    # 'qzj', as the same word passed to MinerConfig does
    corpus = build_cohesion_corpus()
    corpus += [s.replace("qzj", "uvw") for s in corpus[:200]]
    raw, stop = tmp_path / "raw.txt", tmp_path / "stop.txt"
    raw.write_text("\n".join(corpus) + "\n", encoding="utf-8")
    stop.write_text("\n  v \n\n", encoding="utf-8")
    outs = {}
    for name, flags in (("plain", []), ("stop", ["--stopwords", str(stop)])):
        outs[name] = tmp_path / f"{name}.tsv"
        assert main(["mine", "--input", str(raw), "--out", str(outs[name])]
                    + flags) == 0
    assert list(load_lexicon(outs["plain"]).entries) == ["qzj", "uvw"]
    assert outs["stop"].read_bytes() == lexicon_to_tsv(
        mine(corpus, MinerConfig(stop_words=frozenset({"v"}))))
    assert list(load_lexicon(outs["stop"]).entries) == ["qzj"]


def test_mine_boundary_only_file_writes_empty_lexicon(tmp_path):
    raw = tmp_path / "punct.txt"
    raw.write_text("，。！\n,. ;\n-\n", encoding="utf-8")
    out = tmp_path / "lex.tsv"
    rc = main(["mine", "--input", str(raw), "--out", str(out)])
    assert rc == 0
    assert out.read_bytes() == b""


def test_mine_missing_input_is_io_error(workdir):
    rc = main(["mine", "--input", str(workdir / "absent.txt"),
               "--out", str(workdir / "x.tsv")])
    assert rc == 2


def test_mine_bad_flag_value(workdir):
    rc = main(["mine", "--input", str(workdir / "raw.txt"),
               "--out", str(workdir / "x.tsv"), "--pval", "2.0"])
    assert rc == 1


def test_missing_required_flags_exit_1():
    with pytest.raises(SystemExit) as e:
        main(["mine"])
    assert e.value.code == 1


def test_train_segment_eval_pipeline(workdir, capsys):
    model = workdir / "base.bin"
    rc = main(["train-base", "--train", str(workdir / "train.txt"),
               "--out-model", str(model), "--epochs", "3", "--batch", "16",
               "--lr", "0.005", "--dropout", "0.1", "--char-emb", "16",
               "--gcnn-dim", "16", "--gcnn-layers", "2"])
    assert rc == 0
    assert model.exists()

    plain = workdir / "plain.txt"
    plain.write_text("abcdefgh\nabcd\n")
    pred = workdir / "pred.txt"
    rc = main(["segment", "--model", str(model), "--input", str(plain),
               "--out", str(pred)])
    assert rc == 0
    assert load_segmented(pred) == [["ab", "cd", "ef", "gh"], ["ab", "cd"]]

    gold = workdir / "gold.txt"
    save_segmented(gold, [["ab", "cd", "ef", "gh"], ["ab", "cd"]])
    capsys.readouterr()
    rc = main(["eval", "--gold", str(gold), "--pred", str(pred)])
    assert rc == 0
    line = capsys.readouterr().out.strip()
    rep = json.loads(line)
    assert rep["f1"] == pytest.approx(1.0)


def test_train_base_prints_last_epoch_mean_of_the_step_records(
        workdir, tmp_path, capsys):
    # the CLI's final loss is the mean l_src of the last epoch's step
    # records that a library run with the same seed and config reports
    capsys.readouterr()
    rc = main(["train-base", "--train", str(workdir / "train.txt"),
               "--out-model", str(tmp_path / "m.bin"), "--epochs", "2",
               "--batch", "16", "--char-emb", "8", "--gcnn-dim", "8",
               "--gcnn-layers", "1", "--seed", "7"])
    assert rc == 0
    out = capsys.readouterr().out
    records = []
    cfg = TrainConfig(epochs=2, batch_size=16, char_emb=8, gcnn_dim=8,
                      gcnn_layers=1, seed=7)
    train_base(dataset_from_segmented(
        load_segmented(workdir / "train.txt"), "source"), cfg,
        hook=records.append)
    last = [r["l_src"] for r in records if r["epoch"] == 2]
    assert len(last) == 3  # 40 sentences in batches of 16
    assert out == ("trained on 40 sentences for 2 epochs; final epoch "
                   f"loss {sum(last) / len(last):.4f}\n")


def test_eval_out_writes_the_report_it_prints(tmp_path, capsys):
    gold, pred = tmp_path / "gold.txt", tmp_path / "pred.txt"
    save_segmented(gold, [["ab", "cd"], ["abc"]])
    save_segmented(pred, [["ab", "c", "d"], ["abc"]])
    out = tmp_path / "report.json"
    capsys.readouterr()
    assert main(["eval", "--gold", str(gold), "--pred", str(pred),
                 "--out", str(out)]) == 0
    want = report_json(prf(load_segmented(gold), load_segmented(pred)))
    assert out.read_bytes() == want
    assert capsys.readouterr().out == want.decode("ascii")


@pytest.mark.parametrize("pred_segs, message", [
    ([["ab", "cd"]], "corpus size mismatch"),
    ([["ab", "cd"], ["ab", "ce"]], "sentence 1: text differs"),
], ids=["size", "text"])
def test_eval_mismatch_names_both_files(tmp_path, capsys, pred_segs,
                                        message):
    gold, pred = tmp_path / "gold.txt", tmp_path / "pred.txt"
    save_segmented(gold, [["ab", "cd"], ["ab", "cd"]])
    save_segmented(pred, pred_segs)
    rc = main(["eval", "--gold", str(gold), "--pred", str(pred)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{gold} vs {pred}: {message}" in err


@pytest.mark.parametrize("empty", ["train", "source", "target"])
def test_train_on_empty_file_names_it(workdir, tmp_path, capsys, empty):
    blank = tmp_path / "blank.txt"
    blank.write_text("\n")
    good = str(workdir / "train.txt")
    argv = (["train-base", "--train", good] if empty == "train"
            else ["train-daat", "--source", good, "--target", good])
    argv[argv.index(f"--{empty}") + 1] = str(blank)
    rc = main(argv + ["--out-model", str(tmp_path / "m.bin"), "--epochs",
                      "1", "--char-emb", "4", "--gcnn-dim", "4",
                      "--gcnn-layers", "1"])
    assert rc == 2
    assert f"{blank}: no sentences" in capsys.readouterr().err
    assert not (tmp_path / "m.bin").exists()


def test_annotate_command(workdir):
    lex = workdir / "lex.tsv"
    if not lex.exists():
        main(["mine", "--input", str(workdir / "raw.txt"),
              "--out", str(lex)])
    model = workdir / "base.bin"
    if not model.exists():
        main(["train-base", "--train", str(workdir / "train.txt"),
              "--out-model", str(model), "--epochs", "1", "--batch", "16",
              "--char-emb", "8", "--gcnn-dim", "8", "--gcnn-layers", "1"])
    raw = workdir / "tgt.txt"
    raw.write_text("abqzjcd\nqzjqzj\n")
    out = workdir / "annot.txt"
    rc = main(["annotate", "--input", str(raw), "--lexicon", str(lex),
               "--model", str(model), "--out", str(out)])
    assert rc == 0
    segs = load_segmented(out)
    assert all("qzj" in s or True for s in segs)
    assert ["".join(w for w in s) for s in segs] == ["abqzjcd", "qzjqzj"]
    assert "qzj" in segs[0]
    prov = (workdir / "annot.txt.prov").read_text().splitlines()
    assert prov[1] == "LLLLLL"


def test_gradcheck_command(capsys):
    rc = main(["gradcheck", "--trials", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "ok" in out and "FAIL" not in out


def test_failing_gradcheck_exits_2(capsys):
    # no finite difference is that close: every check fails, and the
    # command exits 2, the code of a check that did not hold
    assert main(["gradcheck", "--trials", "1", "--tolerance", "1e-300"]) == 2
    out = capsys.readouterr().out
    assert "FAIL" in out and " ok" not in out


@pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
def test_gradcheck_rejects_bad_tolerance(tol, capsys):
    # a usage error: exit 1 before any check runs, not 2 (bad data file)
    assert main(["gradcheck", "--trials", "1", "--tolerance", tol]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "tolerance" in captured.err


def test_config_file_and_flag_precedence(workdir, tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("epochs=1\nchar_emb=8\ngcnn_dim=8\ngcnn_layers=1\n"
                   "batch_size=8\n")
    model = tmp_path / "m.bin"
    rc = main(["train-base", "--train", str(workdir / "train.txt"),
               "--out-model", str(model), "--config", str(cfg),
               "--gcnn-dim", "12"])  # flag beats file
    assert rc == 0
    loaded = load_model(model)
    assert loaded.config.gcnn_dim == 12
    assert loaded.config.char_emb == 8


# Each training flag with a value off its default, by TrainConfig field.
FLAG_VALUES = {
    "epochs": ("--epochs", "3"), "batch_size": ("--batch", "7"),
    "lr": ("--lr", "0.02"), "dropout": ("--dropout", "0.2"),
    "char_emb": ("--char-emb", "9"), "gcnn_dim": ("--gcnn-dim", "11"),
    "gcnn_layers": ("--gcnn-layers", "2"), "window": ("--window", "5"),
    "textcnn_filters": ("--textcnn-filters", "6"),
    "filter_sizes": ("--filter-sizes", "2,4"),
}
DAAT_ONLY = ("textcnn_filters", "filter_sizes")


def _train_argv(command: str) -> list[str]:
    if command == "train-base":
        return [command, "--train", "t.txt", "--out-model", "m.bin"]
    return [command, "--source", "s.txt", "--target", "t.txt",
            "--out-model", "m.bin"]


def test_training_flags_are_the_config_fields():
    sub = build_parser()._subparsers._group_actions[0].choices
    for command in ("train-base", "train-daat"):
        flags = {f for a in sub[command]._actions for f in a.option_strings}
        want = {flag for name, (flag, _) in FLAG_VALUES.items()
                if command == "train-daat" or name not in DAAT_ONLY}
        assert flags - {"-h", "--help", "--seed", "--config", "--train",
                        "--source", "--target", "--out-model",
                        "--mode"} == want


@pytest.mark.parametrize("command", ["train-base", "train-daat"])
def test_flag_and_config_line_give_equal_configs(command, tmp_path):
    cfg = tmp_path / "cfg.txt"
    parser = build_parser()
    for name, (flag, text) in FLAG_VALUES.items():
        if command == "train-base" and name in DAAT_ONLY:
            continue
        cfg.write_text(f"{name}={text}\n")
        by_flag = _resolve_config(parser.parse_args(
            _train_argv(command) + [flag, text]))
        by_line = _resolve_config(parser.parse_args(
            _train_argv(command) + ["--config", str(cfg)]))
        assert by_flag == by_line != TrainConfig(), name


@pytest.mark.parametrize("command, flag, text", [
    ("train-base", "--epochs", "2.5"), ("train-base", "--batch", "0"),
    ("train-base", "--window", "4"), ("train-base", "--dropout", "x"),
    ("train-daat", "--filter-sizes", "3,x"),
    ("train-daat", "--textcnn-filters", "-1"),
])
def test_bad_flag_value_exits_1_naming_the_flag(command, flag, text,
                                                tmp_path, capsys):
    # the flag is checked before any file is read, so none needs to exist
    model = tmp_path / "m.bin"
    argv = _train_argv(command)
    argv[argv.index("--out-model") + 1] = str(model)
    assert main(argv + [flag, text]) == 1
    assert f"error: {flag}: " in capsys.readouterr().err
    assert not model.exists()


@pytest.mark.parametrize("data, message", [
    (b"epochs=2\nwindow=abc\n", "line 2: bad value for 'window'"),
    (b"epochs=2\nspeed=3\n", "line 2: unknown key 'speed'"),
    (b"epochs=2\n\nwindow\n", "line 3: expected key=value"),
    (b"epochs=2\n# caf\xe9\n", "line 2: invalid UTF-8"),
    (b"lr=0.1\nlr=0.2\n", "line 2: repeated key 'lr'"),
], ids=["bad-value", "unknown-key", "no-equals", "invalid-utf8",
        "repeated-key"])
def test_bad_config_line_exits_2_naming_file_and_line(data, message,
                                                      workdir, tmp_path,
                                                      capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_bytes(data)
    rc = main(["train-base", "--train", str(workdir / "train.txt"),
               "--out-model", str(tmp_path / "m.bin"), "--config",
               str(cfg)])
    assert rc == 2
    assert f"{cfg}: {message}" in capsys.readouterr().err


def test_invalid_utf8_lexicon_exits_2_naming_the_line(tmp_path, capsys):
    raw, lex = tmp_path / "raw.txt", tmp_path / "lex.tsv"
    raw.write_text("abxyzcd\n")
    lex.write_bytes(b"ab\t12\t1.5\t0.8\t0.3\t0.97\n"
                    b"x\xffz\t10\t2\t1\t1\t1\n")
    rc = main(["annotate", "--input", str(raw), "--lexicon", str(lex),
               "--model", str(DATA / "segmenter.bin"), "--out",
               str(tmp_path / "out.txt")])
    assert rc == 2
    assert f"{lex}: line 2: invalid UTF-8" in capsys.readouterr().err


def test_repeated_lexicon_word_exits_2_naming_the_line(tmp_path, capsys):
    raw, lex = tmp_path / "raw.txt", tmp_path / "lex.tsv"
    raw.write_text("abxyzcd\n")
    lex.write_bytes(b"ab\t12\t1.5\t0.8\t0.3\t0.97\n"
                    b"ab\t10\t2\t1\t1\t1\n")
    out = tmp_path / "out.txt"
    rc = main(["annotate", "--input", str(raw), "--lexicon", str(lex),
               "--model", str(DATA / "segmenter.bin"), "--out", str(out)])
    assert rc == 2
    assert f"{lex}: line 2: repeated word 'ab'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("lr", ["nan", "inf"])
def test_non_finite_lr_is_rejected(workdir, tmp_path, capsys, lr):
    # nan <= 0 is false: an unchecked nan trains to NaN parameters, exit 0
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"epochs=1\nlr={lr}\n")
    model = tmp_path / "m.bin"
    argv = ["train-base", "--train", str(workdir / "train.txt"),
            "--out-model", str(model), "--char-emb", "4", "--gcnn-dim", "4",
            "--gcnn-layers", "1"]
    assert main(argv + ["--config", str(cfg)]) == 2  # a bad data file
    err = capsys.readouterr().err
    assert f"{cfg}: lr must be positive and finite" in err
    assert main(argv + ["--lr", lr]) == 1  # a bad flag value
    assert "lr must be positive and finite" in capsys.readouterr().err
    assert not model.exists()


@pytest.mark.filterwarnings("error")  # no overflow warning either
def test_diverging_training_exits_1_naming_epoch_and_step(workdir, tmp_path,
                                                         capsys):
    model = tmp_path / "m.bin"
    rc = main(["train-base", "--train", str(workdir / "train.txt"),
               "--out-model", str(model), "--epochs", "2", "--batch", "8",
               "--lr", "1000", "--char-emb", "16", "--gcnn-dim", "16",
               "--gcnn-layers", "2"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: epoch 1, step 2: CRF scores too large")
    assert "; last losses {'l_src': " in err
    assert "Traceback" not in err
    assert not model.exists()


def test_far_diverging_training_prints_no_runtime_warning(tmp_path):
    # the encoder overflows long before the CRF sees its scores; a run in a
    # fresh interpreter shows what numpy itself would print to stderr
    train = tmp_path / "train.txt"
    words = ["ab", "cd", "ef", "gh"]
    save_segmented(train, [[words[i % 4], words[(i + 1) % 4]]
                           for i in range(16)])
    model = tmp_path / "m.bin"
    src = Path(__file__).parent.parent / "src"
    run = subprocess.run(
        [sys.executable, "-m", "crossseg.cli", "train-base", "--train",
         str(train), "--out-model", str(model), "--lr", "1e300", "--batch",
         "8", "--gcnn-layers", "2"],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert run.returncode == 1
    assert run.stderr.startswith("error: epoch 1, step 2: ")
    assert "RuntimeWarning" not in run.stderr
    assert "Traceback" not in run.stderr
    assert not model.exists()


@pytest.mark.parametrize("command", ["segment", "annotate"])
def test_decoding_overflowing_scores_exits_2_naming_the_model(command,
                                                              tmp_path):
    # finite weights whose products overflow pass load_model's checks; a
    # run in a fresh interpreter shows what numpy itself would print
    hyper, tensors = load_container(DATA / "segmenter.bin")
    for name in tensors:
        if name.startswith("enc.") and name.endswith(".w"):
            tensors[name] = tensors[name] * 1e300
    model = tmp_path / "over.bin"
    save_container(model, hyper, tensors)
    raw = tmp_path / "raw.txt"
    raw.write_text(hyper["vocab"][:6] + "\n", encoding="utf-8")
    lexicon = tmp_path / "lex.tsv"
    lexicon.write_text("")
    argv = {"segment": ["--input", str(raw), "--out", str(tmp_path / "o")],
            "annotate": ["--input", str(raw), "--lexicon", str(lexicon),
                         "--out", str(tmp_path / "o")]}[command]
    src = Path(__file__).parent.parent / "src"
    run = subprocess.run(
        [sys.executable, "-m", "crossseg.cli", command, "--model", str(model),
         *argv], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert run.returncode == 2
    assert run.stderr.startswith(f"error: {model}: ")
    assert "RuntimeWarning" not in run.stderr
    assert "Traceback" not in run.stderr


@pytest.mark.parametrize("command", ["mine", "annotate", "segment", "eval"])
def test_seed_belongs_to_the_seeded_commands_alone(command, capsys):
    # only training and gradcheck draw random numbers
    argv = {"mine": ["--input", "x", "--out", "y"],
            "annotate": ["--input", "x", "--lexicon", "y", "--model", "z",
                         "--out", "w"],
            "segment": ["--model", "x", "--input", "y", "--out", "z"],
            "eval": ["--gold", "x", "--pred", "y"]}[command]
    with pytest.raises(SystemExit) as e:
        main([command, *argv, "--seed", "3"])
    assert e.value.code == 1
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err


# Containers written by the save code of commit c7f9867, before save and
# load shared one path: a segmenter and a DAAT model trained 4 epochs on
# "ab cd ef gh" (source) and "ab xy ef zw" (target) sentences with
# char_emb=6, gcnn_dim=6, gcnn_layers=2, textcnn_filters=3,
# filter_sizes=2,3, dropout=0.1, lr=0.01, batch_size=8, seed=7.
DATA = Path(__file__).parent / "data"
KINDS = ("segmenter", "daat")
SAVED_TEXT = ["abcdefgh", "xyabzwef", "ghab", "q", "abxyq"]
SAVED_SEGMENTATION = [["ab", "cd", "ef", "gh"], ["xy", "ab", "zw", "ef"],
                      ["gh", "ab"], ["q"], ["ab", "xy", "q"]]


def _segment(tmp_path, model) -> int:
    plain = tmp_path / "plain.txt"
    plain.write_text("\n".join(SAVED_TEXT) + "\n")
    return main(["segment", "--model", str(model), "--input", str(plain),
                 "--out", str(tmp_path / "pred.txt")])


@pytest.mark.parametrize("kind", KINDS)
def test_segment_source_domain(kind, tmp_path):
    """--domain source picks the source tower of a DAAT model and is
    ignored by a segmenter; the saved models split the test text alike."""
    plain = tmp_path / "plain.txt"
    plain.write_text("\n".join(SAVED_TEXT) + "\n")
    rc = main(["segment", "--model", str(DATA / f"{kind}.bin"), "--input",
               str(plain), "--domain", "source", "--out",
               str(tmp_path / "pred.txt")])
    assert rc == 0
    assert load_segmented(tmp_path / "pred.txt") == SAVED_SEGMENTATION


@pytest.mark.parametrize("kind", KINDS)
def test_saved_containers_load_segment_and_resave_identically(kind,
                                                              tmp_path):
    saved = DATA / f"{kind}.bin"
    assert _segment(tmp_path, saved) == 0
    assert load_segmented(tmp_path / "pred.txt") == SAVED_SEGMENTATION
    load_model(saved).save(tmp_path / "again.bin")
    assert (tmp_path / "again.bin").read_bytes() == saved.read_bytes()


def test_train_at_on_raw_text_decodes_both_domains_alike(workdir, tmp_path):
    """train-daat --mode at reads raw target text; its model stores no
    target tower, and segment --domain target decodes with the source
    tower."""
    raw, model = tmp_path / "target_raw.txt", tmp_path / "at.bin"
    raw.write_text("abxyzcd\nghxyzab\nefxyz\nxyzgh\n" * 4)
    rc = main(["train-daat", "--mode", "at", "--source",
               str(workdir / "train.txt"), "--target", str(raw),
               "--out-model", str(model), "--epochs", "2", "--batch", "8",
               "--char-emb", "8", "--gcnn-dim", "8", "--gcnn-layers", "2",
               "--textcnn-filters", "2", "--filter-sizes", "2,3"])
    assert rc == 0
    _, tensors = load_container(model)
    assert "enc_src.0.w" in tensors
    assert not [name for name in tensors if "_tgt" in name]
    preds = {}
    for domain in ("source", "target"):
        out = tmp_path / f"{domain}.txt"
        assert main(["segment", "--model", str(model), "--input", str(raw),
                     "--domain", domain, "--out", str(out)]) == 0
        preds[domain] = out.read_text()
    assert preds["target"] == preds["source"]


def test_at_container_with_a_target_tower_is_rejected(tmp_path, capsys):
    """AT containers once stored an untrained target tower; such a file
    has an unexpected tensor, which load_model names, and segment exits 2
    naming the file. There is no compatibility path."""
    cfg = TrainConfig(char_emb=4, gcnn_dim=4, gcnn_layers=1,
                      textcnn_filters=2, filter_sizes=(2, 3))
    old = tmp_path / "old_at.bin"
    Segmenter.create(["abcdefgh"], cfg, np.random.default_rng(0),
                     "at").save(old)
    hyper, tensors = load_container(old)
    tensors["enc_tgt.0.w"] = tensors["enc_src.0.w"].copy()
    save_container(old, hyper, tensors)
    with pytest.raises(DataError, match="unexpected tensor 'enc_tgt.0.w'"):
        load_model(old)
    assert _segment(tmp_path, old) == 2
    assert str(old) in capsys.readouterr().err


def _drop_key(hyper, tensors):
    del hyper["window"]
    return "'window'"


def _word_value(hyper, tensors):
    hyper["char_emb"] = "six"
    return "'char_emb'"


def _even_window(hyper, tensors):
    hyper["window"] = "2"
    return "window must be odd"


def _huge_value(hyper, tensors):
    hyper["gcnn_dim"] = str(10 ** 12)
    return ""


def _many_layers(hyper, tensors):
    # refused from the tensor count, before a skeleton of that many layers
    hyper["gcnn_layers"] = "100000"
    return "'gcnn_layers'"


def _bad_vocab(hyper, tensors):
    hyper["vocab"] = hyper["vocab"][::-1]
    return "'vocab'"


def _unknown_kind(hyper, tensors):
    hyper["kind"] = "crf"
    return "'crf'"


def _unknown_mode(hyper, tensors):
    hyper["mode"] = "dat"  # a segmenter stores no mode at all
    return "mode"


def _extra_key(hyper, tensors):
    hyper["lr"] = "0.1"
    return "'lr'"


def _drop_tensor(hyper, tensors):
    name = list(tensors)[-1]
    del tensors[name]
    return repr(name)


def _extra_tensor(hyper, tensors):
    tensors["extra"] = np.zeros(2)
    return "'extra'"


def _wrong_shape(hyper, tensors):
    tensors["embedding"] = tensors["embedding"][:-1]
    return "'embedding'"


def _nan_tensor(hyper, tensors):
    # caught at load, not at the first Viterbi call
    name = next(n for n in tensors if n.endswith(".emit_b"))
    tensors[name][1] = np.nan
    return repr(name)


def _inf_tensor(hyper, tensors):
    name = next(n for n in tensors if n.endswith(".trans"))
    tensors[name][0, 2] = -np.inf
    return repr(name)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("edit", [
    _drop_key, _word_value, _even_window, _huge_value, _many_layers,
    _bad_vocab, _unknown_kind, _unknown_mode, _extra_key, _drop_tensor,
    _extra_tensor, _wrong_shape, _nan_tensor, _inf_tensor],
    ids=lambda f: f.__name__.strip("_"))
def test_segment_rejects_malformed_model(kind, edit, tmp_path, capsys):
    hyper, tensors = load_container(DATA / f"{kind}.bin")
    names = edit(hyper, tensors)
    bad = tmp_path / "bad.bin"
    save_container(bad, hyper, tensors)
    assert _segment(tmp_path, bad) == 2  # returning at all: no traceback
    err = capsys.readouterr().err
    assert str(bad) in err and names in err


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("head, names", [
    (rb"\ntensors ", "tensor count"),
    (rb"\nembedding 2 \d+ ", "'embedding': dimension")],
    ids=["count", "dimension"])
def test_segment_rejects_over_long_integers(kind, head, names, tmp_path,
                                            capsys):
    # 5,000 digits are more than int() converts; the ValueError it raises
    # must not escape without the path
    blob, n = re.subn(b"(" + head + rb")\d+\n",
                      rb"\g<1>" + b"9" * 5000 + b"\n",
                      (DATA / f"{kind}.bin").read_bytes(), count=1)
    assert n == 1
    bad = tmp_path / "bad.bin"
    bad.write_bytes(blob)
    assert _segment(tmp_path, bad) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and names in err


@pytest.mark.parametrize("kind", KINDS)
def test_segment_rejects_damaged_model_bytes(kind, tmp_path, capsys):
    blob = (DATA / f"{kind}.bin").read_bytes()
    offsets = [0, 5, len(blob) - 1] + random.Random(kind).sample(
        range(len(blob)), 20)
    damaged = [blob[:k] for k in offsets] + [blob + b"\n"]
    bad = tmp_path / "bad.bin"
    for data in damaged:
        bad.write_bytes(data)
        assert _segment(tmp_path, bad) == 2, len(data)
        assert str(bad) in capsys.readouterr().err, len(data)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("ending", ["\n", ""], ids=["newline", "no-newline"])
def test_segment_keeps_blank_lines(kind, ending, tmp_path, capsys):
    """Output line i segments input line i: blank and whitespace-only
    lines give empty lines, and a final newline adds none."""
    plain, pred = tmp_path / "plain.txt", tmp_path / "pred.txt"
    plain.write_text("abc\n\n  \nde" + ending)
    model = DATA / f"{kind}.bin"
    rc = main(["segment", "--model", str(model), "--input", str(plain),
               "--out", str(pred)])
    assert rc == 0
    assert "segmented 4 lines" in capsys.readouterr().out
    seg = load_model(model).segment
    assert pred.read_text().split("\n") == [
        " ".join(seg("abc", "target")), "", "", " ".join(seg("de", "target")),
        ""]


@pytest.mark.parametrize("kind", KINDS)
def test_segment_file_of_several_buckets_equals_per_line(kind, tmp_path):
    """A file whose lines fill several decoding buckets segments exactly
    as its lines do one at a time, blank lines and line order included."""
    rng = random.Random(11)
    lines = ["".join(rng.choice("abcdefghxyzwq") for _ in
                     range(rng.choice([0, 1, 2, 5, 9, 30, 80, 300])))
             for _ in range(200)]
    plain, pred = tmp_path / "plain.txt", tmp_path / "pred.txt"
    plain.write_text("\n".join(lines) + "\n")
    assert len(_buckets(lines)) > 5
    model = DATA / f"{kind}.bin"
    assert main(["segment", "--model", str(model), "--input", str(plain),
                 "--out", str(pred)]) == 0
    seg = load_model(model).segment
    assert pred.read_text().split("\n") == [
        " ".join(seg(s, "target")) for s in lines] + [""]


# Seeded fuzzing of the data files the CLI reads: every truncation or
# single-byte edit must exit 0 or 2, never give a traceback, and an exit
# 2 must name the edited file.
FUZZ_CASES = 40
TINY = ["--epochs", "1", "--batch", "2", "--char-emb", "4", "--gcnn-dim",
        "4", "--gcnn-layers", "1"]
FUZZ_SEED_FILES = {
    "lexicon": "ab\t12\t1.5\t0.8\t0.3\t0.97\nxyz\t10\t2.125\t0.9\t0.4\t0.96\n",
    "segmented": "ab cd ef\ngh ab\nxy zw\n",
    "config": "# tiny\nepochs=1\nbatch_size=2\nlr=0.01\ndropout=0.1\n"
              "char_emb=4\ngcnn_dim=4\ngcnn_layers=1\nwindow=3\n"
              "textcnn_filters=2\nfilter_sizes=2,3\nseed=5\n",
}
EDIT_BYTES = b"\n\r\t =,-.#e0123456789abxyz\x00\x80\xc3\xff"


def _fuzzed(data: bytes, rng: random.Random):
    """Seeded truncations, byte replacements, insertions and deletions."""
    for case in range(FUZZ_CASES):
        i = rng.randrange(len(data))
        byte = bytes([rng.choice(EDIT_BYTES) if rng.random() < 0.5
                      else rng.randrange(256)])
        yield [data[:i], data[:i] + byte + data[i + 1:],
               data[:i] + byte + data[i:], data[:i] + data[i + 1:]][case % 4]


@pytest.mark.parametrize("target, argv", [
    ("lexicon", ["annotate", "--input", "{raw}", "--lexicon", "{fuzz}",
                 "--model", str(DATA / "segmenter.bin"), "--out", "{out}"]),
    ("segmented", ["eval", "--gold", "{good}", "--pred", "{fuzz}"]),
    ("segmented", ["train-base", "--train", "{fuzz}", "--out-model",
                   "{out}", *TINY]),
    ("config", ["train-base", "--train", "{good}", "--config", "{fuzz}",
                "--out-model", "{out}"]),
], ids=["annotate-lexicon", "eval-pred", "train-base-train",
        "train-base-config"])
def test_fuzzed_data_files_exit_cleanly(target, argv, tmp_path, capsys):
    paths = {"raw": tmp_path / "raw.txt", "good": tmp_path / "good.txt",
             "fuzz": tmp_path / "fuzz.txt", "out": tmp_path / "out.bin"}
    paths["raw"].write_text("abxyzcd\nghab\n")
    paths["good"].write_text(FUZZ_SEED_FILES["segmented"])
    argv = [a.format(**{k: str(p) for k, p in paths.items()}) for a in argv]
    base = FUZZ_SEED_FILES[target].encode()
    for data in _fuzzed(base, random.Random(f"{target} {argv[0]}")):
        paths["fuzz"].write_bytes(data)
        try:
            rc = main(argv)
        except (Exception, SystemExit) as exc:  # tracebacks and exit 1
            pytest.fail(f"{data!r}: {type(exc).__name__}: {exc}")
        err = capsys.readouterr().err
        assert rc in (0, 2), (data, err)
        assert rc == 0 or str(paths["fuzz"]) in err, (data, err)
