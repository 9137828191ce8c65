import pytest

from crossseg.gradcheck import CHECKS, GradCheckResult, run_suite


def test_suite_covers_all_components():
    names = [name for name, _ in CHECKS]
    assert len(names) == len(set(names)) == 7
    joined = " ".join(names)
    for part in ("gcnn", "encoder", "textcnn", "crf", "discriminator",
                 "confusion", "tagging"):
        assert part in joined


def test_suite_passes_at_default_tolerance():
    results = run_suite(trials=2, seed=42)
    assert len(results) == 7
    for r in results:
        assert isinstance(r, GradCheckResult)
        assert r.ok, f"{r.name}: {r.max_rel_error}"
        assert r.max_rel_error < 1e-4


def test_results_deterministic_for_seed():
    a = run_suite(trials=1, seed=1)
    b = run_suite(trials=1, seed=1)
    assert [(r.name, r.max_rel_error) for r in a] == \
        [(r.name, r.max_rel_error) for r in b]


@pytest.mark.parametrize("tol", [-1.0, 0.0, float("nan"), float("inf")])
def test_suite_rejects_tolerance_that_is_not_positive_and_finite(tol):
    with pytest.raises(ValueError, match="tolerance"):
        run_suite(trials=1, tolerance=tol)
