import itertools
import math
import warnings

import numpy as np
import pytest

from crossseg.autodiff import Tensor, backward
from crossseg.crf import (CrfHead, emission_scores, nll_loss, viterbi_decode)

from helpers import (crf_best_path, crf_log_partition, gold_path_probability,
                     nll_loss_batched_ref, nll_loss_ref, viterbi_ref)


def random_instance(rng, n):
    e = rng.normal(size=(n, 4))
    t = rng.normal(size=(4, 4))
    start = rng.normal(size=4)
    stop = rng.normal(size=4)
    return e, t, start, stop


def head_from(t, start, stop):
    return CrfHead(emit_w=Tensor(np.zeros((1, 4))),
                   emit_b=Tensor(np.zeros((1, 4))),
                   trans=Tensor(t.copy()),
                   start=Tensor(start.copy()),
                   stop=Tensor(stop.copy()))


def ragged(rng, lengths):
    """Emissions (B, T, 4) of random sentences with the given lengths,
    garbage past each end, with their length mask and gold paths."""
    n = max(lengths)
    mask = np.arange(n)[None, :] < np.array(lengths)[:, None]
    e = rng.normal(size=(len(lengths), n, 4))
    e[~mask] = rng.normal(size=(int((~mask).sum()), 4)) * 1e3
    gold = rng.integers(0, 4, size=mask.shape)
    return e, mask, gold


def test_loss_matches_enumeration():
    rng = np.random.default_rng(11)
    for _ in range(20):
        lengths = [int(v) for v in rng.integers(1, 6, size=3)]
        e, mask, gold = ragged(rng, lengths)
        _, t, start, stop = random_instance(rng, 1)
        head = head_from(t, start, stop)
        want = [-math.log(gold_path_probability(
            e[b, :n], t, start, stop, list(gold[b, :n])))
            for b, n in enumerate(lengths)]
        loss = nll_loss(Tensor(e.copy()), head, gold, mask)
        assert loss.item() == pytest.approx(sum(want), abs=1e-12)
        for b, n in enumerate(lengths):  # each sentence as a batch of one
            one = nll_loss(Tensor(e[b:b + 1, :n].copy()), head,
                           gold[b:b + 1, :n], mask[b:b + 1, :n])
            assert math.exp(-one.item()) == pytest.approx(
                math.exp(-want[b]), abs=1e-12)


def test_viterbi_matches_enumeration():
    rng = np.random.default_rng(12)
    for _ in range(20):
        lengths = [int(v) for v in rng.integers(1, 6, size=3)]
        e, mask, _ = ragged(rng, lengths)
        _, t, start, stop = random_instance(rng, 1)
        got = viterbi_decode(e, t, start, stop, mask)
        assert got.shape == mask.shape
        for b, n in enumerate(lengths):
            assert tuple(got[b, :n]) == crf_best_path(e[b, :n], t, start,
                                                      stop)
            assert tuple(got[b, :n]) == tuple(viterbi_ref(e[b, :n], t, start,
                                                          stop))


def test_viterbi_matches_per_sentence_reference_on_long_ragged_batch():
    rng = np.random.default_rng(15)
    lengths = [1, 45, 10, 33, 2]
    e, mask, _ = ragged(rng, lengths)
    _, t, start, stop = random_instance(rng, 1)
    got = viterbi_decode(e, t, start, stop, mask)
    for b, n in enumerate(lengths):
        assert list(got[b, :n]) == viterbi_ref(e[b, :n], t, start, stop)


def test_loss_gradient_is_marginal_gap():
    # d nll / d e[b, i, y] = P(tag_i = y) - [gold_i = y] within a sentence,
    # exactly zero past its end
    rng = np.random.default_rng(13)
    lengths = [5, 3]
    e, mask, gold = ragged(rng, lengths)
    _, t, start, stop = random_instance(rng, 1)
    head = head_from(t, start, stop)
    et = Tensor(e.copy())
    backward(nll_loss(et, head, gold, mask))
    np.testing.assert_array_equal(et.grad[~mask], 0.0)
    for b, n in enumerate(lengths):
        eb = e[b, :n]
        log_z = crf_log_partition(eb, t, start, stop)
        for i in range(n):
            for y in range(4):
                marg = 0.0
                for path in itertools.product(range(4), repeat=n):
                    if path[i] != y:
                        continue
                    s = start[path[0]] + stop[path[-1]]
                    s += sum(eb[k, p] for k, p in enumerate(path))
                    s += sum(t[a, c] for a, c in zip(path, path[1:]))
                    marg += math.exp(s - log_z)
                want = marg - (1.0 if gold[b, i] == y else 0.0)
                assert et.grad[b, i, y] == pytest.approx(want, abs=1e-9)


def test_batched_loss_and_gradients_match_per_sentence_reference():
    rng = np.random.default_rng(16)
    lengths = [1, 45, 10, 33, 2]
    e, mask, gold = ragged(rng, lengths)
    _, t, start, stop = random_instance(rng, 1)
    head = head_from(t, start, stop)
    et = Tensor(e.copy())
    loss = nll_loss(et, head, gold, mask)
    backward(loss)
    ref_head = head_from(t, start, stop)
    total = 0.0
    want_e = np.zeros_like(e)
    for b, n in enumerate(lengths):
        eb = Tensor(e[b, :n].copy())
        one = nll_loss_ref(eb, ref_head, gold[b, :n])
        backward(one)
        total += one.item()
        want_e[b, :n] = eb.grad
    assert loss.item() == pytest.approx(total, rel=1e-12, abs=1e-12)
    np.testing.assert_allclose(et.grad, want_e, rtol=1e-12, atol=1e-12)
    for name in ("trans", "start", "stop"):
        np.testing.assert_allclose(getattr(head, name).grad,
                                   getattr(ref_head, name).grad,
                                   rtol=1e-12, atol=1e-12, err_msg=name)


def assert_matches_oracle(e, mask, gold, t, start, stop):
    """The scaled forward-backward's loss and its emission, transition,
    start and stop gradients are finite and match the log-space oracle."""
    runs = []
    for loss_fn in (nll_loss, nll_loss_batched_ref):
        head = head_from(t, start, stop)
        et = Tensor(e.copy())
        loss = loss_fn(et, head, gold, mask)
        backward(loss)
        runs.append((loss.item(), et.grad, head.trans.grad, head.start.grad,
                     head.stop.grad))
    got, want = runs
    assert np.isfinite(got[0])
    assert got[0] == pytest.approx(want[0], rel=1e-10)
    for name, g, w in zip(("emissions", "trans", "start", "stop"),
                          got[1:], want[1:]):
        assert np.isfinite(g).all(), name
        np.testing.assert_allclose(g, w, rtol=1e-9, atol=1e-9, err_msg=name)


@pytest.mark.parametrize("emit, other", [(1.0, 1.0), (50.0, 30.0),
                                         (1e4, 1.0)])
def test_scaled_recursion_matches_log_space_oracle(emit, other):
    # normal scores, then emissions in +-50 with transitions, start and
    # stop in +-30, then emissions in +-1e4: each position's largest
    # emission scales to one, so emissions alone never underflow
    rng = np.random.default_rng(17)
    for _ in range(12):
        lengths = [int(v) for v in rng.integers(1, 40,
                                                size=rng.integers(1, 7))]
        e, mask, gold = ragged(rng, lengths)
        e[mask] = rng.uniform(-emit, emit, size=(int(mask.sum()), 4))
        t = rng.uniform(-other, other, size=(4, 4))
        start, stop = rng.uniform(-other, other, size=(2, 4))
        assert_matches_oracle(e, mask, gold, t, start, stop)


def test_scale_underflow_raises():
    # start allows only tag 0 and every transition out of it is 1e4 below
    # the best one, so the first rescale meets a zero total
    big = 1e4
    t = np.full((4, 4), -big)
    t[1, 1] = 0.0
    start = np.array([0.0, -big, -big, -big])
    e = np.zeros((2, 3, 4))
    mask = np.array([[True] * 3, [True, True, False]])
    gold = np.zeros((2, 3), dtype=np.int64)
    oracle = nll_loss_batched_ref(Tensor(e), head_from(t, start, np.zeros(4)),
                                  gold, mask)
    assert np.isfinite(oracle.item())  # the log-space form stays finite
    with pytest.raises(ValueError, match="underflow"):
        nll_loss(Tensor(e), head_from(t, start, np.zeros(4)), gold, mask)
    with pytest.raises(ValueError, match="underflow"):  # likewise for stop
        nll_loss(Tensor(e[:, :1]), head_from(t, start, -start), gold[:, :1],
                 mask[:, :1])


def test_transition_count_overflow_raises_without_warning():
    # every transition into tag 0 is free and stopping in it costs 708, as
    # do all other scores: each sentence alone has a finite log Z and a
    # beta near 8e306, but the expected transition counts sum beta over
    # the batch, and 32 sentences overflow them
    s = 708.0
    t = np.full((4, 4), -s)
    t[:, 0] = 0.0
    start = np.array([0.0, -s, -s, -s])
    stop = np.array([-s, 0.0, 0.0, 0.0])

    def loss(bsz, head):
        return nll_loss(Tensor(np.zeros((bsz, 2, 4))), head,
                        np.zeros((bsz, 2), dtype=np.int64),
                        np.ones((bsz, 2), dtype=bool))

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        head = head_from(t, start, stop)
        backward(loss(16, head))
        assert np.isfinite(head.trans.grad).all()
        head = head_from(t, start, stop)
        with pytest.raises(ValueError, match="too far apart"):
            loss(32, head)
        assert head.trans.grad is None


def test_non_finite_emissions_raise():
    head = head_from(np.zeros((4, 4)), np.zeros(4), np.zeros(4))
    e = np.zeros((1, 2, 4))
    e[0, 1, 2] = np.nan
    with pytest.raises(ValueError):
        nll_loss(Tensor(e), head, [[0, 0]], np.ones((1, 2), dtype=bool))


def test_fresh_head_single_char_loss_is_ln4():
    # zero emissions and transitions leave a uniform path distribution
    head = head_from(np.zeros((4, 4)), np.zeros(4), np.zeros(4))
    loss = nll_loss(Tensor(np.zeros((2, 1, 4))), head, [[3], [0]],
                    np.ones((2, 1), dtype=bool))
    assert loss.item() == pytest.approx(2 * math.log(4.0), abs=1e-12)


def test_viterbi_ties_prefer_lowest_index():
    got = viterbi_decode(np.zeros((2, 3, 4)), np.zeros((4, 4)),
                         np.zeros(4), np.zeros(4),
                         np.array([[True] * 3, [True, False, False]]))
    assert got.tolist() == [[0, 0, 0], [0, 0, 0]]


def test_emission_scores_affine():
    rng = np.random.default_rng(14)
    head = CrfHead.create(hidden=6, rng=rng)
    h = rng.normal(size=(2, 3, 6))
    got = emission_scores(Tensor(h), head).data
    want = h @ head.emit_w.data + head.emit_b.data
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_create_shapes_and_zero_structure():
    head = CrfHead.create(hidden=5, rng=np.random.default_rng(0))
    assert head.emit_w.shape == (5, 4)
    np.testing.assert_array_equal(head.trans.data, np.zeros((4, 4)))
    np.testing.assert_array_equal(head.start.data, np.zeros(4))
    np.testing.assert_array_equal(head.stop.data, np.zeros(4))
    assert set(head.params("crf")) == {"crf.emit_w", "crf.emit_b",
                                       "crf.trans", "crf.start", "crf.stop"}


def test_nll_rejects_bad_gold():
    head = head_from(np.zeros((4, 4)), np.zeros(4), np.zeros(4))
    ones = np.ones((1, 2), dtype=bool)
    with pytest.raises(ValueError):
        nll_loss(Tensor(np.zeros((1, 2, 4))), head, [[0]], ones)
    with pytest.raises(ValueError):
        nll_loss(Tensor(np.zeros((1, 0, 4))), head, [[]],
                 np.ones((1, 0), dtype=bool))
    with pytest.raises(ValueError):  # a mask that is not a prefix
        nll_loss(Tensor(np.zeros((1, 2, 4))), head, [[0, 0]],
                 np.array([[False, True]]))
    with pytest.raises(ValueError):  # an empty sentence
        nll_loss(Tensor(np.zeros((2, 2, 4))), head, [[0, 0], [0, 0]],
                 np.array([[True, True], [False, False]]))
