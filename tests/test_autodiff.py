import numpy as np
import pytest

from crossseg.autodiff import (Tensor, add, backward, clamp, concat_cols,
                               conv1d, gather_rows, log, matmul,
                               max_over_time, mul, scale, sigmoid,
                               sub, sum_all)
from crossseg.errors import StaleGraphError

H = 1e-6


def numeric_grad(f, x: np.ndarray, h: float = H) -> np.ndarray:
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        keep = x[idx]
        x[idx] = keep + h
        hi = f()
        x[idx] = keep - h
        lo = f()
        x[idx] = keep
        g[idx] = (hi - lo) / (2 * h)
    return g


def check_grad(build, *arrays, atol=1e-7):
    """build(*tensors) -> scalar Tensor; compares backward against FD."""
    ts = [Tensor(a.copy()) for a in arrays]
    out = build(*ts)
    backward(out)
    for t, a in zip(ts, arrays):
        got = t.grad
        want = numeric_grad(lambda a=a: build(
            *[Tensor(x) for x in arrays]).item(), a)
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=atol)


RNG = np.random.default_rng(3)


def test_add_sub_mul_broadcast():
    # a constant broadcasts against a Tensor; Tensor operands do not
    a = RNG.normal(size=(3, 4))
    b = RNG.normal(size=(3, 4))
    c = RNG.normal(size=(1, 4))
    check_grad(lambda x, y: sum_all(mul(add(x, c), sub(y, c))), a, b)
    check_grad(lambda x, y: sum_all(mul(sub(2.0, x), mul(c, y))), a, b)
    for op in (add, sub, mul):
        with pytest.raises(ValueError, match=r"\(3, 4\) and \(1, 4\)"):
            op(Tensor(a), Tensor(c))
        with pytest.raises(ValueError, match=r"\(4,\) and \(3, 4\)"):
            op(Tensor(a[0]), b)


def test_constant_operands_are_not_parents():
    x = Tensor(RNG.normal(size=(2, 3)))
    mask = np.array([[True], [False]])
    y = mul(add(x, 1.0), mask)
    assert len(y._parents) == 1 and y._parents[0]._parents == (x,)
    backward(sum_all(sub(0.5, y)))
    np.testing.assert_array_equal(x.grad, [[-1.0] * 3, [0.0] * 3])


def test_scale_and_mean():
    a = RNG.normal(size=(2, 5))
    check_grad(lambda x: scale(sum_all(scale(x, -2.5)), 1.0 / a.size), a)


def test_matmul():
    a = RNG.normal(size=(3, 4))
    b = RNG.normal(size=(4, 2))
    c = RNG.normal(size=(2,))
    out = matmul(Tensor(a), Tensor(b), Tensor(c)).data
    np.testing.assert_allclose(out, a @ b + c, rtol=0, atol=1e-12)
    check_grad(lambda x, y, z: sum_all(matmul(x, y, z)), a, b, c)


@pytest.mark.parametrize("shape", [(2,), (1, 2)], ids=["vector", "row"])
def test_matmul_bias_grad(shape):
    # both bias shapes the models use: (m,) in the CRF, (1, m) in the
    # discriminator's projection; over one and two leading axes, weighted
    # so that the bias gradient is not a count
    b = RNG.normal(size=(4, 2))
    c = RNG.normal(size=shape)
    for lead in ((3,), (2, 3)):
        a = RNG.normal(size=(*lead, 4))
        g = RNG.normal(size=(*lead, 2))
        check_grad(lambda x, y, z: sum_all(mul(matmul(x, y, z), g)),
                   a, b, c)


def test_sigmoid_log():
    a = RNG.normal(size=(3, 3))
    check_grad(lambda x: sum_all(log(sigmoid(x))), a)


def test_sigmoid_stable_at_extremes():
    v = sigmoid(Tensor(np.array([[-800.0, 800.0]]))).data
    assert np.all(np.isfinite(v))
    assert v[0, 0] == pytest.approx(0.0, abs=1e-300)
    assert v[0, 1] == pytest.approx(1.0)


def test_clamp_blocks_gradient_outside():
    x = Tensor(np.array([[0.5, 2.0, -2.0]]))
    y = sum_all(clamp(x, 0.0, 1.0))
    backward(y)
    np.testing.assert_array_equal(x.grad, [[1.0, 0.0, 0.0]])


def test_matmul_batched_left_operand():
    a = RNG.normal(size=(2, 3, 4))
    b = RNG.normal(size=(4, 2))
    c = RNG.normal(size=(1, 2))
    check_grad(lambda x, y, z: sum_all(mul(matmul(x, y, z),
                                           matmul(x, y, z))), a, b, c)


def test_concat_cols():
    a = RNG.normal(size=(3, 2))
    b = RNG.normal(size=(3, 4))
    check_grad(lambda x, y: sum_all(mul(concat_cols([x, y]),
                                        concat_cols([x, y]))), a, b)
    c = RNG.normal(size=(2, 3, 2))  # batched: joins the last axis
    d = RNG.normal(size=(2, 3, 1))
    assert concat_cols([Tensor(c), Tensor(d)]).shape == (2, 3, 3)
    check_grad(lambda x, y: sum_all(mul(concat_cols([x, y]),
                                        concat_cols([x, y]))), c, d)


def test_conv1d_values_match_manual():
    x = RNG.normal(size=(2, 5, 3))
    w = RNG.normal(size=(3, 3, 2))
    bias = RNG.normal(size=(2,))
    out = conv1d(Tensor(x), Tensor(w), Tensor(bias), pad_left=1,
                 pad_right=1).data
    assert out.shape == (2, 5, 2)
    for b in range(2):
        padded = np.vstack([np.zeros((1, 3)), x[b], np.zeros((1, 3))])
        want = np.tile(bias, (5, 1))
        for i in range(5):
            for k in range(3):
                want[i] += padded[i + k] @ w[k]
        np.testing.assert_allclose(out[b], want, atol=1e-12)


def test_conv1d_grad():
    # weighted so that the bias gradient is not a count
    x = RNG.normal(size=(2, 4, 2))
    w = RNG.normal(size=(3, 2, 3))
    bias = RNG.normal(size=(3,))
    g = RNG.normal(size=(2, 4, 3))
    check_grad(lambda a, b, c: sum_all(mul(conv1d(a, b, c, 1, 1), g)),
               x, w, bias)
    check_grad(lambda a, b, c: sum_all(mul(conv1d(a, b, c, 0, 2), g)),
               x, w, bias)


def test_conv1d_valid_when_unpadded():
    x = RNG.normal(size=(3, 5, 2))
    w = RNG.normal(size=(2, 2, 1))
    bias = Tensor(np.zeros(1))
    assert conv1d(Tensor(x), Tensor(w), bias, 0, 0).shape == (3, 4, 1)
    with pytest.raises(ValueError):
        conv1d(Tensor(x[:, :1]), Tensor(w), bias, 0, 0)


def test_gather_rows_accumulates_repeats():
    table = Tensor(RNG.normal(size=(4, 3)))
    out = sum_all(gather_rows(table, np.array([1, 1, 2])))
    backward(out)
    np.testing.assert_allclose(table.grad[1], [2.0, 2.0, 2.0])
    np.testing.assert_allclose(table.grad[2], [1.0, 1.0, 1.0])
    np.testing.assert_allclose(table.grad[0], 0.0)


def test_gather_rows_negative_index_is_zero_without_gradient():
    table = Tensor(RNG.normal(size=(4, 3)))
    idx = np.array([[2, 0, -1], [1, -1, -1]])
    out = gather_rows(table, idx)
    assert out.shape == (2, 3, 3)
    np.testing.assert_array_equal(out.data[0, 2], 0.0)
    np.testing.assert_array_equal(out.data[1, 1:], 0.0)
    np.testing.assert_array_equal(out.data[0, 1], table.data[0])
    backward(sum_all(mul(out, out)))
    np.testing.assert_array_equal(table.grad[0], 2.0 * table.data[0])
    np.testing.assert_array_equal(table.grad[3], 0.0)


def test_gather_rows_all_padding_gets_no_gradient():
    table = Tensor(RNG.normal(size=(4, 3)))
    out = gather_rows(table, np.full((2, 2), -1))
    np.testing.assert_array_equal(out.data, 0.0)
    backward(sum_all(out))
    np.testing.assert_array_equal(table.grad, 0.0)


def test_max_over_time_first_tie_wins():
    x = Tensor(np.array([[[1.0, 5.0], [3.0, 5.0]]]))
    out = max_over_time(x, np.ones((1, 2), dtype=bool))
    np.testing.assert_array_equal(out.data, [[3.0, 5.0]])
    backward(sum_all(out))
    np.testing.assert_array_equal(x.grad, [[[0.0, 1.0], [1.0, 0.0]]])


def test_max_over_time_grad():
    x = RNG.normal(size=(2, 6, 3))
    valid = np.arange(6)[None, :] < np.array([[6], [2]])
    check_grad(lambda a: sum_all(max_over_time(a, valid)), x)


def test_max_over_time_skips_invalid_rows():
    x = Tensor(np.array([[[1.0], [9.0]], [[2.0], [9.0]]]))
    out = max_over_time(x, np.array([[True, True], [True, False]]))
    np.testing.assert_array_equal(out.data, [[9.0], [2.0]])
    backward(sum_all(out))
    np.testing.assert_array_equal(x.grad[:, :, 0], [[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        max_over_time(x, np.array([[True, True], [False, False]]))


def test_backward_requires_scalar():
    with pytest.raises(ValueError):
        backward(Tensor(np.zeros((2, 2))))


def test_backward_consumes_graph():
    x = Tensor(np.ones((1, 1)))
    y = sum_all(mul(x, x))
    backward(y)
    with pytest.raises(StaleGraphError):
        backward(y)


def test_backward_rejects_cross_graph_reuse():
    x = Tensor(np.ones((1, 1)))
    shared = mul(x, x)
    first = sum_all(shared)
    backward(first)
    with pytest.raises(StaleGraphError):
        backward(sum_all(mul(shared, shared)))


def test_detach_cuts_flow():
    x = Tensor(np.full((1, 1), 3.0))
    y = mul(x, x)
    z = sum_all(mul(y.detach(), x))
    backward(z)
    # only the direct factor contributes: d/dx of detached(9) * x
    np.testing.assert_allclose(x.grad, [[9.0]])


def test_grad_accumulates_across_uses():
    x = Tensor(np.full((1, 1), 2.0))
    y = sum_all(add(mul(x, x), x))
    backward(y)
    np.testing.assert_allclose(x.grad, [[5.0]])


def test_a_gradient_handed_over_is_never_written():
    # add hands both operands one array as their gradient; a later
    # gradient of a, from max_over_time and from scale in one graph, must
    # add to a's gradient alone and leave b's as it was
    a = Tensor(RNG.normal(size=(2, 3, 4)))
    b = Tensor(RNG.normal(size=(2, 3, 4)))
    c = RNG.normal(size=(2, 3, 4))
    backward(sum_all(mul(add(a, b), c)))
    valid = np.array([[True, True, False], [True, True, True]])
    backward(add(sum_all(max_over_time(a, valid)), sum_all(scale(a, 2.0))))
    np.testing.assert_array_equal(b.grad, c)
    am = np.argmax(np.where(valid[:, :, None], a.data, -np.inf), axis=1)
    picked = np.zeros_like(c)
    picked[np.arange(2)[:, None], am, np.arange(4)[None, :]] = 1.0
    np.testing.assert_allclose(a.grad, c + 2.0 + picked, rtol=1e-15)
