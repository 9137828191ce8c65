import numpy as np
import pytest

import crossseg.nn
from crossseg import autodiff
from crossseg.autodiff import Tensor, mul, sum_all
from crossseg.gradcheck import (CHECKS, GradCheckResult, _check_textcnn,
                                max_rel_error, run_suite)


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


def test_suite_rejects_trials_below_one():
    with pytest.raises(ValueError, match="trials must be positive"):
        run_suite(trials=0)


def _conv1d_doubling_weight_grad(x, scale, w, bias, pad_left, pad_right):
    """autodiff.conv1d, but the gradient it gives w is twice the true one."""
    inner = Tensor(w.data)
    y = autodiff.conv1d(x, scale, inner, bias, pad_left, pad_right)
    bwd = y._bwd

    def doubled(g):
        bwd(g)  # accumulates into x, inner and bias
        w._accumulate(2.0 * inner.grad)

    return Tensor(y.data, (x, w, bias), doubled)


def test_textcnn_check_catches_a_wrong_weight_gradient(monkeypatch):
    assert _check_textcnn(np.random.default_rng(3)) < 1e-4
    monkeypatch.setattr(crossseg.nn, "conv1d", _conv1d_doubling_weight_grad)
    assert _check_textcnn(np.random.default_rng(3)) > 1e-4


def test_a_parameter_the_loss_does_not_reach_is_an_error():
    x, unused = Tensor(np.ones(3)), Tensor(np.ones(2))
    with pytest.raises(ValueError, match="'unused'"):
        max_rel_error(lambda: sum_all(mul(x, x)), {"x": x, "unused": unused},
                      np.random.default_rng(0))
