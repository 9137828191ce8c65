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
    t *= 3  # strong transitions keep the tags' back pointers apart
    got = viterbi_decode(e, t, start, stop, mask)
    for b, n in enumerate(lengths):
        assert list(got[b, :n]) == viterbi_ref(e[b, :n], t, start, stop)


def test_viterbi_ragged_ties_and_non_finite_padding_match_reference():
    # small integer scores tie often; NaN and infinities past an end must
    # neither leak into a path nor raise a floating-point warning
    rng = np.random.default_rng(16)
    for _ in range(200):
        lengths = [int(v) for v in rng.integers(1, 12, size=5)]
        e, mask, _ = ragged(rng, lengths)
        e = np.where(mask[:, :, None], rng.integers(-2, 3, size=e.shape),
                     rng.choice([np.nan, np.inf, -np.inf], size=e.shape))
        t, start, stop = (rng.integers(-1, 2, size=s).astype(float)
                          for s in ((4, 4), 4, 4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = viterbi_decode(e, t, start, stop, mask)
        for b, n in enumerate(lengths):
            want = viterbi_ref(e[b, :n], t, start, stop)
            assert got[b].tolist() == want + want[-1:] * (max(lengths) - n)


def test_viterbi_every_length_to_80_matches_reference():
    rng = np.random.default_rng(18)
    for n in range(1, 81):
        e, t, start, stop = random_instance(rng, n)
        got = viterbi_decode(e[None], t, start, stop, np.ones((1, n), bool))
        assert got[0].tolist() == viterbi_ref(e, t, start, stop), n
        if n <= 6:
            assert tuple(got[0]) == crf_best_path(e, t, start, stop), n


def test_viterbi_every_length_to_80_in_a_two_row_batch_matches_reference():
    # a batch of one sentence takes the sequential recursion; two rows take
    # the scan and the walk back over all rows, which this checks at every
    # length. Strong transitions make the back pointers differ between
    # tags, so that a wrong step of the walk shows.
    rng = np.random.default_rng(21)
    for n in range(1, 81):
        for _ in range(4):
            e, t, start, stop = random_instance(rng, n)
            e = np.stack([e, rng.normal(size=(n, 4))])
            t *= 3
            got = viterbi_decode(e, t, start, stop, np.ones((2, n), bool))
            for b in range(2):
                assert got[b].tolist() == viterbi_ref(e[b], t, start,
                                                      stop), n


def test_viterbi_long_ragged_batch_walks_every_chain_back():
    # every back pointer of tag `to` is (to + 1) % 4, 5 above the rest, so
    # no two tags' chains ever merge and a step read from the wrong
    # position or the wrong tag changes the path. Each row ends on its own
    # tag (1, 2 and 3) by +1 at its last position: rows that all ended on
    # tag 0 let padding pointers set to tag 0 pass.
    t = np.zeros((4, 4))
    t[(np.arange(4) + 1) % 4, np.arange(4)] = 5
    ends = (1, 2, 3)
    for n in range(1, 131):
        lengths = (n, max(n - 1, 1), -(-n // 2))
        mask = np.arange(n) < np.array(lengths)[:, None]
        e = np.zeros((3, n, 4))
        e[range(3), np.array(lengths) - 1, ends] = 1
        got = viterbi_decode(e, t, np.zeros(4), np.zeros(4), mask)
        for row, end, length in zip(got, ends, lengths):
            want = [(end + length - 1 - i) % 4 for i in range(length)]
            assert row.tolist() == want + [end] * (n - length), n


def decimal_scores(rng, shape):
    return rng.integers(-20, 21, size=shape) / 10


def test_viterbi_one_row_recursion_matches_reference_and_batch():
    # small integer scores tie often; a padded row has NaN and infinities
    # past its end, whose back pointers the backtrace must not walk.
    # Multiples of 0.1 add up inexactly, to float near-ties that the scan's
    # order of sums broke otherwise than the reference in 43 of these 600
    # rows; the one-row recursion must equal the reference bit for bit. A
    # batch runs the scan, so only integer scores compare to one.
    rng = np.random.default_rng(22)
    for draw, lengths in ((integer_scores, range(1, 41)),
                          (decimal_scores, rng.integers(2, 61, size=300))):
        t, start, stop = (draw(rng, s) for s in ((4, 4), 4, 4))
        for n in map(int, lengths):
            for pad in (0, 3):
                e = np.concatenate([draw(rng, (n, 4)), rng.choice(
                    [np.nan, np.inf, -np.inf], size=(pad, 4))])
                mask = np.arange(n + pad) < n
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    got = viterbi_decode(e[None], t, start, stop, mask[None])
                want = viterbi_ref(e[:n], t, start, stop)
                assert got.shape == (1, n + pad) and got.dtype == np.intp
                assert got[0].tolist() == want + want[-1:] * pad, (n, pad)
                if draw is integer_scores:
                    pair = viterbi_decode(
                        np.stack([e, draw(rng, e.shape)]), t, start, stop,
                        np.stack([mask, np.ones_like(mask)]))
                    assert got[0].tolist() == pair[0].tolist(), (n, pad)


# Lengths T whose T - 1 is k m - 1, k m or k m + 1 for m = k, k + 1, k + 2:
# the scan takes blocks of k = isqrt(T - 1) steps, so its last block is one
# step short, full or a single step, and k itself changes between them.
BLOCK_EDGES = sorted({k * m + d + 1 for k in (1, 2, 3, 5, 20)
                      for m in (k, k + 1, k + 2) for d in (-1, 0, 1)})


def integer_scores(rng, shape):
    return rng.integers(-2, 3, size=shape).astype(float)


@pytest.mark.parametrize("ties", [False, True], ids=["float", "int-ties"])
def test_viterbi_block_edges_match_reference(ties):
    # integer scores tie often, and their sums are exact in any order, so
    # the scan must then break ties exactly as the sequential recursion
    rng = np.random.default_rng(19)
    draw = integer_scores if ties else (lambda r, s: r.normal(size=s))
    t, start, stop = draw(rng, (4, 4)), draw(rng, 4), draw(rng, 4)
    for n in BLOCK_EDGES:  # two rows, since one sentence skips the scan
        e = draw(rng, (2, n, 4))
        got = viterbi_decode(e, t, start, stop, np.ones((2, n), bool))
        for b in range(2):
            assert got[b].tolist() == viterbi_ref(e[b], t, start, stop), n
    # rows ending inside different blocks, at block starts and block ends
    # of the batch's own k (10 for T = 101, 21 for T = 442); strong
    # transitions, so that a wrong step of the walk back shows
    t = t * 3
    for lengths in ([1, 2, 10, 11, 12, 21, 55, 99, 100, 101], BLOCK_EDGES):
        e, mask, _ = ragged(rng, lengths)
        e[mask] = draw(rng, (int(mask.sum()), 4))
        got = viterbi_decode(e, t, start, stop, mask)
        for b, n in enumerate(lengths):
            want = viterbi_ref(e[b, :n], t, start, stop)
            assert got[b].tolist() == want + want[-1:] * (max(lengths) - n)


def test_viterbi_long_sentence_matches_reference():
    # two rows, so that a 5,000-long scan runs
    rng = np.random.default_rng(20)
    e, t, start, stop = random_instance(rng, 5000)
    e = np.stack([e, rng.normal(size=e.shape)])
    got = viterbi_decode(e, t, start, stop, np.ones((2, 5000), bool))
    for b in range(2):
        assert got[b].tolist() == viterbi_ref(e[b], t, start, stop)


def test_viterbi_non_finite_scores_raise():
    # one NaN would spread over its whole block of the scan, and the
    # one-sentence recursion's comparisons with NaN are all false; padding
    # may hold anything (see the ragged ties test above)
    mask = np.array([[True, True, True], [True, False, False]])
    for bad in (np.nan, np.inf, -np.inf):
        e = np.zeros((2, 3, 4))
        e[1, 0, 2] = bad
        for rows in (slice(None), slice(1, 2)):  # a batch and one sentence
            with pytest.raises(ValueError, match="finite"):
                viterbi_decode(e[rows], np.zeros((4, 4)), np.zeros(4),
                               np.zeros(4), mask[rows])
            for i in range(3):
                scores = [np.zeros((4, 4)), np.zeros(4), np.zeros(4)]
                scores[i].flat[1] = bad
                with pytest.raises(ValueError, match="finite"):
                    viterbi_decode(np.zeros((2, 3, 4))[rows], *scores,
                                   mask[rows])


def test_viterbi_rejects_a_mask_that_is_not_a_prefix():
    scores = (np.zeros((4, 4)), np.zeros(4), np.zeros(4))
    for mask in ([[False, True, True]],  # a leading False
                 [[True, False, True]],  # a hole
                 [[True, True, True], [False, False, False]]):  # empty row
        mask = np.array(mask)
        with pytest.raises(ValueError, match="prefix"):
            viterbi_decode(np.zeros((*mask.shape, 4)), *scores, mask)


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
    """The loss and its emission, transition, start and stop gradients are
    finite and match the log-space oracle, with no floating-point
    warning."""
    runs = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for loss_fn in (nll_loss, nll_loss_batched_ref):
            head = head_from(t, start, stop)
            et = Tensor(e.copy())
            loss = loss_fn(et, head, gold, mask)
            backward(loss)
            runs.append((loss.item(), et.grad, head.trans.grad,
                         head.start.grad, head.stop.grad))
    got, want = runs
    assert np.isfinite(got[0])
    assert got[0] == pytest.approx(want[0], rel=1e-10)
    for name, g, w in zip(("emissions", "trans", "start", "stop"),
                          got[1:], want[1:]):
        assert np.isfinite(g).all(), name
        np.testing.assert_allclose(g, w, rtol=1e-9, atol=1e-9, err_msg=name)


@pytest.mark.parametrize("emit, other", [(1.0, 1.0), (50.0, 30.0),
                                         (1e4, 1.0)])
def test_loss_matches_oracle_at_large_scores(emit, other):
    # normal scores, then emissions in +-50 with transitions, start and
    # stop in +-30, then emissions in +-1e4, far beyond what exp can hold
    rng = np.random.default_rng(17)
    for _ in range(12):
        lengths = [int(v) for v in rng.integers(1, 40,
                                                size=rng.integers(1, 7))]
        e, mask, gold = ragged(rng, lengths)
        e[mask] = rng.uniform(-emit, emit, size=(int(mask.sum()), 4))
        t = rng.uniform(-other, other, size=(4, 4))
        start, stop = rng.uniform(-other, other, size=(2, 4))
        assert_matches_oracle(e, mask, gold, t, start, stop)


def test_loss_block_edges_match_oracle():
    # every length at a block edge of the scan, alone beside a shorter
    # sentence and all in one ragged batch (see BLOCK_EDGES)
    rng = np.random.default_rng(21)
    t, start, stop = rng.normal(size=(4, 4)), *rng.normal(size=(2, 4))
    for lengths in [[n, int(rng.integers(1, n + 1))] for n in BLOCK_EDGES] \
            + [BLOCK_EDGES]:
        e, mask, gold = ragged(rng, lengths)
        assert_matches_oracle(e, mask, gold, t, start, stop)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="the oracle needs extended precision here")
def test_loss_long_sentence_matches_oracle():
    rng = np.random.default_rng(22)
    e, t, start, stop = random_instance(rng, 5000)
    gold = rng.integers(0, 4, size=(1, 5000))
    assert_matches_oracle(e[None], np.ones((1, 5000), bool), gold, t, start,
                          stop)


def test_tag_far_below_the_rest_matches_oracle():
    # start allows only tag 0 and every transition out of it is 1e4 below
    # the best one; exponentiated scores would underflow to a zero total
    big = 1e4
    t = np.full((4, 4), -big)
    t[1, 1] = 0.0
    start = np.array([0.0, -big, -big, -big])
    e = np.zeros((2, 3, 4))
    mask = np.array([[True] * 3, [True, True, False]])
    gold = np.zeros((2, 3), dtype=np.int64)
    assert_matches_oracle(e, mask, gold, t, start, np.zeros(4))
    # likewise for stop
    assert_matches_oracle(e[:, :1], mask[:, :1], gold[:, :1], t, start,
                          -start)


def test_transition_counts_of_a_large_batch_match_oracle():
    # every transition into tag 0 is free and stopping in it costs 708, as
    # do all other scores, near the edge of what exp can hold: the
    # exponentiated pair marginals, and the expected transition counts
    # they sum to over 32 sentences, must stay finite
    s = 708.0
    t = np.full((4, 4), -s)
    t[:, 0] = 0.0
    start = np.array([0.0, -s, -s, -s])
    stop = np.array([-s, 0.0, 0.0, 0.0])
    for bsz in (16, 32):
        assert_matches_oracle(np.zeros((bsz, 2, 4)),
                              np.ones((bsz, 2), dtype=bool),
                              np.zeros((bsz, 2), dtype=np.int64), t, start,
                              stop)


@pytest.mark.parametrize("size", [1e17, 1e300])
def test_scores_too_large_for_float64_raise(size):
    # at 1e17 a sum of scores keeps no bit of their differences, and at
    # 1e300 it overflows: either way the marginals cannot be normalised,
    # so the loss raises before any gradient and with no warning
    rng = np.random.default_rng(23)
    e, mask, gold = ragged(rng, [7, 3])
    e *= size
    head = head_from(*(rng.normal(size=s) * size for s in ((4, 4), 4, 4)))
    et = Tensor(e)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="too large"):
            nll_loss(et, head, gold, mask)
    assert et.grad is None and head.trans.grad is None


def test_non_finite_emissions_raise():
    # as for Viterbi: a real position, or trans, start or stop, must be
    # finite; NaN and infinities in padding change nothing
    mask = np.array([[True, True, True], [True, False, False]])
    gold = np.zeros((2, 3), dtype=np.int64)
    zeros = head_from(np.zeros((4, 4)), np.zeros(4), np.zeros(4))
    want = nll_loss(Tensor(np.zeros((2, 3, 4))), zeros, gold, mask).item()
    for bad in (np.nan, np.inf, -np.inf):
        e = np.zeros((2, 3, 4))
        e[1, 0, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            nll_loss(Tensor(e), zeros, gold, mask)
        for i in range(3):
            scores = [np.zeros((4, 4)), np.zeros(4), np.zeros(4)]
            scores[i].flat[1] = bad
            with pytest.raises(ValueError, match="finite"):
                nll_loss(Tensor(np.zeros((2, 3, 4))), head_from(*scores),
                         gold, mask)
        e = np.zeros((2, 3, 4))
        e[1, 1:, 2] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            et = Tensor(e)
            loss = nll_loss(et, zeros, gold, mask)
            backward(loss)
        assert loss.item() == want
        np.testing.assert_array_equal(et.grad[1, 1:], 0.0)


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
    with pytest.raises(ValueError, match="prefix"):  # a hole
        nll_loss(Tensor(np.zeros((1, 3, 4))), head, [[0, 0, 0]],
                 np.array([[True, False, True]]))
    with pytest.raises(ValueError):  # an empty sentence
        nll_loss(Tensor(np.zeros((2, 2, 4))), head, [[0, 0], [0, 0]],
                 np.array([[True, True], [False, False]]))
    mask = np.array([[True, True], [True, False]])
    for bad in (-1, 4, 99):  # a tag outside 0..3 at a real position
        with pytest.raises(ValueError, match="0..3"):
            nll_loss(Tensor(np.zeros((2, 2, 4))), head, [[0, bad], [0, 0]],
                     mask)
        # padding may hold anything
        loss = nll_loss(Tensor(np.zeros((2, 2, 4))), head, [[0, 0], [0, bad]],
                        mask)
        assert loss.item() == pytest.approx(3 * math.log(4.0), abs=1e-12)
