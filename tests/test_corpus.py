import itertools

import numpy as np
import pytest

from crossseg.corpus import (LabeledDataset, dataset_from_segmented,
                             is_well_formed, load_raw, load_segmented,
                             oov_rate, read_lines, save_segmented,
                             tags_to_words, vocabulary_of, words_to_tags)
from crossseg.errors import DataError, DecodeError

from helpers import (is_well_formed_ref, random_segmentation,
                     tags_to_words_ref)

ALPHABET = "abcdefghijklmnop"


def test_words_to_tags_basic():
    assert words_to_tags(["a"]) == "S"
    assert words_to_tags(["ab"]) == "BE"
    assert words_to_tags(["abc"]) == "BME"
    assert words_to_tags(["abcd", "e", "fg"]) == "BMMESBE"


def test_words_to_tags_rejects_empty():
    with pytest.raises(ValueError):
        words_to_tags([])
    with pytest.raises(ValueError):
        words_to_tags(["ab", ""])


def test_tags_to_words_well_formed():
    assert tags_to_words("abc", "BME") == ["abc"]
    assert tags_to_words("abcd", "SBES") == ["a", "bc", "d"]
    assert tags_to_words("ab", "BE") == ["ab"]


def test_tags_to_words_repairs_malformed():
    # dangling B closes at the break
    assert tags_to_words("ab", "BB") == ["a", "b"]
    # M without B opens a word
    assert tags_to_words("abc", "MME") == ["abc"]
    # E without B ends a single
    assert tags_to_words("ab", "EE") == ["a", "b"]
    assert tags_to_words("abcd", "BSME") == ["a", "b", "cd"]


def test_tags_to_words_rejects_mismatch():
    with pytest.raises(ValueError):
        tags_to_words("abc", "BE")
    with pytest.raises(ValueError):
        tags_to_words("ab", "BX")


def test_roundtrip_random():
    rng = np.random.default_rng(7)
    for _ in range(500):
        words = random_segmentation(rng, ALPHABET)
        tags = words_to_tags(words)
        assert is_well_formed(tags)
        assert tags_to_words("".join(words), tags) == words


def test_repair_random_preserves_sentence():
    rng = np.random.default_rng(8)
    for _ in range(500):
        n = int(rng.integers(1, 12))
        sent = "".join(ALPHABET[i] for i in rng.integers(0, 16, size=n))
        tags = "".join("BMES"[i] for i in rng.integers(0, 4, size=n))
        words = tags_to_words(sent, tags)
        assert "".join(words) == sent
        assert all(words)
        assert is_well_formed(words_to_tags(words))


def _outcome(fn, *args):
    """fn's result, or the type and message of the error it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return ValueError, str(exc)


def test_bmes_grammar_matches_state_machine_oracle():
    # Every tag string up to length 8 over BMES plus one letter outside it,
    # cut from a sentence of as many distinct characters.
    sentence = "abcdefgh"
    for n in range(9):
        for tags in map("".join, itertools.product("BMESx", repeat=n)):
            s = sentence[:n]
            assert _outcome(tags_to_words, s, tags) == \
                _outcome(tags_to_words_ref, s, tags), tags
            assert is_well_formed(tags) == is_well_formed_ref(tags), tags
    for s, tags in (("ab", "B"), ("a", "BE")):
        assert _outcome(tags_to_words, s, tags) == \
            _outcome(tags_to_words_ref, s, tags)


def test_is_well_formed():
    assert is_well_formed("S")
    assert is_well_formed("BMME")
    assert is_well_formed("")
    assert not is_well_formed("B")
    assert not is_well_formed("ME")
    assert not is_well_formed("BES" + "M")
    assert not is_well_formed("BSE")


def test_dataset_validation():
    ds = dataset_from_segmented([["ab", "c"]], domain="source")
    assert ds.items == (("abc", "BES"),)
    assert ds.provenance == ("gold",)
    with pytest.raises(ValueError):
        LabeledDataset(items=(("ab", "BE"),), domain="up")
    with pytest.raises(ValueError, match="item 0: 1 tags, 2 chars"):
        LabeledDataset(items=(("ab", "B"),), domain="source")
    ds = LabeledDataset((("ab", "BE"), ("c", "S")), "target")
    assert ds.provenance == ("gold", "gold")
    with pytest.raises(ValueError, match="provenance not aligned"):
        LabeledDataset(ds.items, "target", ("gold", "gold", "distant"))
    with pytest.raises(ValueError, match="unknown provenance 'silver'"):
        LabeledDataset(ds.items, "target", ("gold", "silver"))


@pytest.mark.parametrize("item, match", [
    (("ab", "XY"), "item 1: unknown tag 'X'"),
    (("", ""), "item 1: empty sentence"),
], ids=["tag-outside-bmes", "empty-sentence"])
def test_dataset_rejects_bad_item_by_index(item, match):
    with pytest.raises(ValueError, match=match):
        LabeledDataset((("ab", "BE"), item), "source", ("gold",))


def test_raw_io(tmp_path):
    p = tmp_path / "raw.txt"
    p.write_bytes("ab cd\n\n  \nef\tgh\n".encode("utf-8"))
    assert load_raw(p) == ["abcd", "efgh"]
    p.write_bytes(b"\xff\xfe junk\n")
    with pytest.raises(DecodeError) as e:
        load_raw(p)
    assert "line 1" in str(e.value)


def test_segmented_io(tmp_path):
    p = tmp_path / "seg.txt"
    segs = [["ab", "c"], ["d"]]
    save_segmented(p, segs)
    assert load_segmented(p) == segs
    p.write_text("ok ok\nbad\ttoken\n")
    with pytest.raises(DataError):
        load_segmented(p)


def test_vocabulary_and_oov():
    segs = [["ab", "c"], ["ab", "d"]]
    assert vocabulary_of(segs) == {"ab", "c", "d"}
    test = [["ab", "xy", "c"], ["zz"]]
    # 2 of 4 test tokens are outside the vocabulary
    assert oov_rate({"ab", "c"}, test) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        oov_rate({"ab"}, [])


def test_read_lines_strips_line_endings_and_names_bad_utf8(tmp_path):
    p = tmp_path / "lines.txt"
    p.write_bytes("ab\r\ncd\n\nef".encode("utf-8"))
    assert read_lines(p) == ["ab", "cd", "", "ef"]
    p.write_bytes(b"ok\n\n\xc3(\n")
    with pytest.raises(DecodeError, match="line 3: invalid UTF-8"):
        read_lines(p)
