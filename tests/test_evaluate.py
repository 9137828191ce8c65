import json
import random

import pytest

from crossseg.errors import AlignmentError
from crossseg.evaluate import EvalReport, prf, report_json, write_report

from helpers import span_prf


def test_prf_pinned_example():
    r = prf([["ab", "c"]], [["a", "b", "c"]])
    assert r.precision == pytest.approx(1 / 3)
    assert r.recall == pytest.approx(1 / 2)
    assert r.f1 == pytest.approx(0.4)
    assert r.gold == 2 and r.pred == 3 and r.correct == 1


def test_prf_perfect_and_disjoint():
    perfect = prf([["ab", "cd"]], [["ab", "cd"]])
    assert perfect.f1 == 1.0
    disjoint = prf([["abcd"]], [["ab", "cd"]])
    assert disjoint.f1 == 0.0


def test_prf_micro_average_matches_reference():
    rng = random.Random(3)
    for _ in range(50):
        gold, pred = [], []
        for _ in range(rng.randint(1, 8)):
            n = rng.randint(1, 10)
            s = "".join(rng.choice("ab") for _ in range(n))
            def chop(s):
                out, i = [], 0
                while i < len(s):
                    j = min(len(s), i + rng.randint(1, 4))
                    out.append(s[i:j])
                    i = j
                return out
            gold.append(chop(s))
            pred.append(chop(s))
        want_p, want_r, want_f = span_prf(gold, pred)
        r = prf(gold, pred)
        assert r.precision == pytest.approx(want_p, abs=1e-12)
        assert r.recall == pytest.approx(want_r, abs=1e-12)
        assert r.f1 == pytest.approx(want_f, abs=1e-12)


def test_prf_alignment_errors():
    with pytest.raises(AlignmentError):
        prf([["ab"]], [["ab"], ["c"]])
    with pytest.raises(AlignmentError) as e:
        prf([["ab"]], [["a", "c"]])
    assert "sentence 0" in str(e.value)


def test_report_json_fixed_format():
    r = EvalReport(precision=0.5, recall=1 / 3, f1=0.4, gold=3, pred=2,
                   correct=1)
    line = report_json(r)
    assert line == ('{"precision":0.500000,"recall":0.333333,"f1":0.400000,'
                    '"gold":3,"pred":2,"correct":1}\n').encode("ascii")
    parsed = json.loads(line)
    assert parsed["gold"] == 3


def test_write_report_bytes(tmp_path):
    r = prf([["ab", "c"]], [["a", "b", "c"]])
    p = tmp_path / "report.json"
    write_report(p, r)
    assert p.read_bytes() == report_json(r)
