import random

import pytest

from crossseg.annotator import (AnnotatedSentence, build_target_dataset,
                                distant_annotate, forward_max_match,
                                load_provenance, save_provenance)
from crossseg.corpus import tags_to_words
from crossseg.errors import DecodeError
from crossseg.miner import CandidateScore, WordCollection

from helpers import DictStub, distant_annotate_ref, fmm_spans


def make_collection(words):
    entries = {w: CandidateScore(w, 50, 2.0, 1.0, 0.1, 0.96) for w in words}
    return WordCollection(entries)


def test_fmm_prefers_longest_leftmost():
    coll = make_collection({"ab", "abc", "cd"})
    assert forward_max_match("abcd", coll) == [(0, 3)]
    assert forward_max_match("abxcd", coll) == [(0, 2), (3, 5)]
    assert forward_max_match("xxx", coll) == []
    assert forward_max_match("", coll) == []


def test_fmm_ignores_single_char_entries():
    # a collection of singles can never produce a multi-char span
    coll = WordCollection({"a": CandidateScore("a", 99, 1, 1, 1, 0.99)})
    assert forward_max_match("aaa", coll) == []


def test_fmm_matches_reference_on_random_inputs():
    rng = random.Random(9)
    words = {"ab", "bc", "abc", "dde", "ee"}
    coll = make_collection(words)
    for _ in range(300):
        s = "".join(rng.choice("abcde") for _ in range(rng.randint(0, 15)))
        assert forward_max_match(s, coll) == fmm_spans(s, words)


def test_distant_annotate_mixed_provenance():
    coll = make_collection({"溶酶菌"})
    base = DictStub({"科学", "研究"})
    ann = distant_annotate("溶酶菌的科学研究", coll, base)
    assert ann.tags == "BMESBEBE"
    assert ann.char_provenance == "LLLSSSSS"
    assert tags_to_words(ann.sentence, ann.tags) == [
        "溶酶菌", "的", "科学", "研究"]


class Recorder:
    """A base segmenter that splits into characters and records every
    batch it is given."""

    def __init__(self):
        self.batches = []

    def segment_batch(self, sentences):
        self.batches.append(list(sentences))
        return [list(s) for s in sentences]


def test_distant_annotate_gap_isolation():
    # gaps are segmented alone, so the base never sees lexicon spans
    coll = make_collection({"bb"})
    rec = Recorder()
    ann = distant_annotate("abbca", coll, rec)
    assert rec.batches == [["a", "ca"]]
    assert ann.tags == "SBESS"


def test_build_target_dataset_decodes_every_gap_in_one_batch():
    coll = make_collection({"bb", "xyz"})
    rec = Recorder()
    raw = ["abbca", "bb", "xyzxyz", "qbbxyzq", "c"]
    ds, prov = build_target_dataset(raw, coll, rec)
    # one batch: the gaps of every sentence in corpus order, never a span
    assert rec.batches == [["a", "ca", "q", "q", "c"]]
    assert [t for _, t in ds.items] == ["SBESS", "BE", "BMEBME", "SBEBMES",
                                        "S"]
    assert prov == ["SLLSS", "LL", "LLLLLL", "SLLLLLS", "S"]


def test_build_target_dataset_matches_per_gap_oracle():
    rng = random.Random(5)
    words = {"ab", "bca", "dd", "cde", "eab"}
    coll = make_collection(words)
    base = DictStub({"ca", "ee", "abc"})
    raw = ["".join(rng.choice("abcde") for _ in range(rng.randint(1, 30)))
           for _ in range(200)]
    ds, prov = build_target_dataset(raw, coll, base)
    assert [(t, p) for (_, t), p in zip(ds.items, prov)] == [
        distant_annotate_ref(s, coll, base) for s in raw]


def test_distant_annotate_rejects_empty():
    with pytest.raises(ValueError):
        distant_annotate("", make_collection({"ab"}), DictStub(set()))


def test_annotated_sentence_validates_lengths():
    with pytest.raises(ValueError):
        AnnotatedSentence("abc", "BE", "LLL")
    with pytest.raises(ValueError):
        AnnotatedSentence("abc", "BME", "LL")


def test_build_target_dataset_order_and_domain():
    coll = make_collection({"xy"})
    base = DictStub(set())
    raw = [f"a{i % 3}xy" for i in range(20)]
    ds, prov = build_target_dataset(raw, coll, base)
    assert ds.domain == "target"
    assert set(ds.provenance) == {"distant"}
    assert [s for s, _ in ds.items] == raw
    assert all(p == "SSLL" for p in prov)


def test_provenance_io(tmp_path):
    p = tmp_path / "prov.txt"
    save_provenance(p, ["LLSS", "S"])
    assert load_provenance(p) == ["LLSS", "S"]
    p.write_bytes(b"LLSS\r\nS\r\n")  # CRLF line endings
    assert load_provenance(p) == ["LLSS", "S"]
    p.write_text("LX\n")
    with pytest.raises(DecodeError, match="line 1: provenance must be"):
        load_provenance(p)
    p.write_bytes(b"LS\n\xffS\n")
    with pytest.raises(DecodeError, match="line 2: invalid UTF-8"):
        load_provenance(p)
