"""Reverse-mode automatic differentiation over float64 numpy arrays.

A Tensor wraps an ndarray and remembers, when an operation produced it,
its parents and a closure that pushes the output gradient back to them.
An operation states its value and, per Tensor operand, a gradient map
from the output gradient to that operand's; _node builds the node.
conv1d, gated_conv and crf.nll_loss, whose operand gradients share one
computation, write one joint closure instead. Only Tensor._accumulate
adds to a gradient, and no operation writes an array it has handed over.
backward(root) runs the closures in reverse topological order,
accumulates gradients on every leaf tensor and consumes the tape: it
drops each closure it runs, so a consumed node is one with parents and
no closure, and a graph that holds one raises StaleGraphError.

Operands: a Tensor is differentiable, anything else is a constant. add,
sub and mul also take a plain array or float, and both convolutions,
conv1d and gated_conv, take one as the scale of their input; a constant
is not a parent and gets no gradient, so masks, dropout multipliers and
numbers never become leaves of the tape. A constant broadcasts as numpy
does, but a Tensor operand never does: it must have the result's shape,
or the operation raises ValueError naming both shapes. The one
broadcast a Tensor gets is a bias, which conv1d, gated_conv and matmul
add themselves along the last axis.

Only the operations the segmentation stack needs are provided;
log_sigmoid scores a logit z as log sigmoid(+-z) in one node. Sequence
operations work on padded batches: conv1d, gated_conv (a whole gated
convolution layer in one node) and max_over_time take (B, T, d) tensors,
and matmul and concat_cols act on the last axis. gather_rows reads the
rows of a table at one index array (embedding lookup); negative entries
mark padding, which reads zeros and gets no gradient, and a row read
several times gets the sum of all of its gradients. Dropout is not an
operation: a training forward multiplies by its mask. Everything is
float64; gradients match central finite differences to about 1e-9 in
relative error, far inside the 1e-4 contract checked by the gradcheck
suite. Tensors are not thread safe while a graph is being built; parameter
tensors may be read concurrently once training is done.
"""
from __future__ import annotations

import math
from itertools import accumulate
from typing import Callable, Sequence

import numpy as np

from .errors import StaleGraphError

Array = np.ndarray


class Tensor:
    __slots__ = ("data", "grad", "_parents", "_bwd")

    def __init__(self, data, parents: tuple = (), bwd: Callable | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Array | None = None
        self._parents = parents
        self._bwd = bwd

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return self.data.item()

    def detach(self) -> "Tensor":
        """A view of the same values cut off from the graph."""
        return Tensor(self.data)

    def _accumulate(self, g: Array) -> None:
        """Add g, which has this tensor's shape, to its gradient. The first
        g is kept as handed over, and may be other tensors' too (add hands
        both operands its g), so later ones are added out of place."""
        if self.grad is None:
            self.grad = np.asarray(g, dtype=np.float64)
        else:
            self.grad = self.grad + g

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"

    def __add__(self, other):
        return add(self, other)


def _value(x):
    return x.data if isinstance(x, Tensor) else x


def _node(y: Array, *pairs: tuple[Tensor, Callable]) -> Tensor:
    """The node of result y: pairs give each Tensor operand with its
    gradient map, which turns the output gradient into the operand's."""
    def bwd(g: Array) -> None:
        for x, grad_of in pairs:
            x._accumulate(grad_of(g))

    return Tensor(y, tuple([x for x, _ in pairs]), bwd)


def _binary(a, b, y: Array, da: Callable, db: Callable) -> Tensor:
    """The node of a binary op with result y and gradient maps da and db:
    only Tensor operands are parents, and each must have y's shape."""
    pairs = []
    for x, grad_of in ((a, da), (b, db)):
        if isinstance(x, Tensor):
            if x.data.shape != y.shape:
                raise ValueError(f"operand shapes {np.shape(_value(a))} and "
                                 f"{np.shape(_value(b))}: a Tensor operand "
                                 "must have the result's shape")
            pairs.append((x, grad_of))
    return _node(y, *pairs)


def add(a, b) -> Tensor:
    return _binary(a, b, _value(a) + _value(b), lambda g: g, lambda g: g)


def sub(a, b) -> Tensor:
    return _binary(a, b, _value(a) - _value(b), lambda g: g, lambda g: -g)


def mul(a, b) -> Tensor:
    return _binary(a, b, _value(a) * _value(b), lambda g: g * _value(b),
                   lambda g: g * _value(a))


def scale(a: Tensor, s: float) -> Tensor:
    return _node(a.data * s, (a, lambda g: g * s))


def _bias_grad(g: Array, bias: Tensor) -> Array:
    """The gradient of a bias added along the last axis: g summed over
    every leading axis, in the bias's shape, (m,) or (1, m)."""
    return g.sum(axis=tuple(range(g.ndim - 1))).reshape(bias.data.shape)


def matmul(a: Tensor, w: Tensor, bias: Tensor) -> Tensor:
    """The affine map a (..., n) @ w (n, m) + bias; the leading axes of a
    are batch axes, and bias, (m,) or (1, m), is added to every row."""
    y = a.data @ w.data
    y += bias.data
    return _node(y, (a, lambda g: g @ w.data.T),
                 (w, lambda g: a.data.reshape(-1, a.data.shape[-1]).T
                  @ g.reshape(-1, g.shape[-1])),
                 (bias, lambda g: _bias_grad(g, bias)))


def _logistic(a: Array) -> Array:
    # 1 or e^a over 1 + e^-|a|: no np.where, and exp never overflows
    return np.exp(np.minimum(a, 0.0)) / (1.0 + np.exp(-np.abs(a)))


def sigmoid(a: Tensor) -> Tensor:
    y = _logistic(a.data)
    return _node(y, (a, lambda g: g * y * (1.0 - y)))


def log_sigmoid(z: Tensor, sign: float) -> Tensor:
    """-log(1 + e^(-sign z)): log p for sign 1 and log(1 - p) for sign -1,
    p = sigmoid(z). Finite for every finite z; its gradient vanishes only
    where the value does."""
    s = z.data * sign
    return _node(-np.logaddexp(0.0, -s),
                 (z, lambda g: g * sign * _logistic(-s)))


def log(a: Tensor) -> Tensor:
    return _node(np.log(a.data), (a, lambda g: g / a.data))


def clamp(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clip values to [lo, hi]; gradient is zero where the clip is active."""
    inside = (a.data > lo) & (a.data < hi)
    return _node(np.clip(a.data, lo, hi), (a, lambda g: g * inside))


def sum_all(a: Tensor) -> Tensor:
    return _node(a.data.sum(), (a, lambda g: np.full_like(a.data, float(g))))


def concat_cols(parts: Sequence[Tensor]) -> Tensor:
    """Concatenate tensors along their last axis."""
    cuts = [0, *accumulate(p.data.shape[-1] for p in parts)]
    return _node(np.concatenate([p.data for p in parts], axis=-1),
                 *((p, lambda g, lo=lo, hi=hi: g[..., lo:hi])
                   for p, lo, hi in zip(parts, cuts, cuts[1:])))


def _padded(x: Array, scale, pad_left: int, pad_right: int) -> Array:
    """x (B, T, d) times the constant scale, with pad_left zero rows before
    and pad_right after each sequence, in one new buffer."""
    b, n, d = x.shape
    xp = np.zeros((b, n + pad_left + pad_right, d))
    np.multiply(x, scale, out=xp[:, pad_left:pad_left + n])
    return xp


def _conv(xp: Array, w: Array, n_out: int) -> Array:
    """Rows t < n_out of the convolution of a padded buffer xp
    (B, T_pad, d_in) with w (k, d_in, d_out): the sum over offsets o of
    xp[:, t + o] @ w[o], one batched matmul per offset."""
    y = xp[:, :n_out] @ w[0]
    for o in range(1, w.shape[0]):
        y += xp[:, o:o + n_out] @ w[o]
    return y


def _conv_grads(xp: Array, w: Array, g: Array) -> tuple[Array, Array]:
    """The gradients of the padded buffer xp and of w in _conv(xp, w,
    n_out), given its output gradient g (B, n_out, d_out)."""
    n_out = g.shape[1]
    wt = np.ascontiguousarray(w.transpose(0, 2, 1))
    dxp = np.zeros_like(xp)
    dw = np.empty_like(w)
    for o in range(w.shape[0]):
        dw[o] = (xp[:, o:o + n_out].transpose(0, 2, 1) @ g).sum(axis=0)
        dxp[:, o:o + n_out] += g @ wt[o]
    return dxp, dw


def conv1d(x: Tensor, scale, w: Tensor, bias: Tensor, pad_left: int,
           pad_right: int) -> Tensor:
    """1-d convolution of x * scale along axis 1 of a batch of sequences,
    plus a bias.

    x has shape (B, T, d_in), w has shape (k, d_in, d_out) and bias
    (d_out,). scale is a constant that broadcasts to x, such as a length
    mask; it gets no gradient. Each sequence of x * scale is copied into
    one zero buffer with pad_left zero rows before it and pad_right after
    it; output row t is sum over offsets o of buffer[t + o] @ w[o], one
    batched matmul per offset, plus bias. With pad_left = pad_right =
    (k - 1) // 2 and odd k the output has shape (B, T, d_out).
    """
    n = x.data.shape[1]
    n_out = n + pad_left + pad_right - w.data.shape[0] + 1
    if n_out < 1:
        raise ValueError("input shorter than kernel after padding")
    y = _conv(_padded(x.data, scale, pad_left, pad_right), w.data, n_out)
    y += bias.data

    def bwd(g: Array) -> None:
        # the buffer is rebuilt, not kept: the graph holds less memory
        dxp, dw = _conv_grads(_padded(x.data, scale, pad_left, pad_right),
                              w.data, g)
        x._accumulate(dxp[:, pad_left:pad_left + n] * scale)
        w._accumulate(dw)
        bias._accumulate(_bias_grad(g, bias))

    return Tensor(y, (x, w, bias), bwd)


def gated_conv(x: Tensor, scale, w: Tensor, b: Tensor, v: Tensor,
               c: Tensor) -> Tensor:
    """The gated linear unit (conv(x * scale, w) + b) * sigmoid(conv(x *
    scale, v) + c) of a batch x (B, T, d_in), as one node.

    scale is a constant that broadcasts to x, such as a length mask times
    a dropout multiplier; it gets no gradient. w and v have shape
    (k, d_in, d_out) with odd k, and b and c (d_out,). Both convolutions
    read one buffer of x * scale padded with (k - 1) // 2 zero rows on
    each side, so the output has shape (B, T, d_out). The node keeps the
    linear part and the gate, and rebuilds the buffer in its backward pass.
    """
    n = x.data.shape[1]
    pad = (w.data.shape[0] - 1) // 2
    xp = _padded(x.data, scale, pad, pad)
    lin = _conv(xp, w.data, n)
    lin += b.data
    pre = _conv(xp, v.data, n)
    pre += c.data
    del xp
    y = _logistic(pre)
    del pre

    def bwd(g: Array) -> None:
        # the float operations of mul, conv1d, conv1d, sigmoid and mul,
        # which the tests compare bit for bit: each kernel's input
        # gradient in its own buffer, the two summed, then scaled
        g_lin = g * y
        g_pre = g * lin * y * (1.0 - y)
        xp = _padded(x.data, scale, pad, pad)
        dxp_w, dw = _conv_grads(xp, w.data, g_lin)
        dxp_v, dv = _conv_grads(xp, v.data, g_pre)
        x._accumulate((dxp_w[:, pad:pad + n] + dxp_v[:, pad:pad + n])
                      * scale)
        w._accumulate(dw)
        b._accumulate(_bias_grad(g_lin, b))
        v._accumulate(dv)
        c._accumulate(_bias_grad(g_pre, c))

    return Tensor(lin * y, (x, w, b, v, c), bwd)


def gather_rows(table: Tensor, idx) -> Tensor:
    """Rows of table at an index array on its first axis; the output has
    the index shape followed by the remaining axes of table. A negative
    index selects a zero row that reads nothing and gets no gradient.
    Gradients scatter back by one bincount whose bin is the flat position
    row * width + column, so a row selected k times gets the sum of its k
    gradients, added in selection order."""
    idx = np.asarray(idx, dtype=np.int64)
    keep = idx >= 0
    data = table.data[idx * keep]  # padding reads row 0
    data[~keep] = 0.0
    width = math.prod(table.data.shape[1:])

    def scatter(g: Array) -> Array:
        bins = idx[keep][:, None] * width + np.arange(width)
        grad = np.bincount(bins.ravel(), weights=g[keep].ravel(),
                           minlength=table.data.size)
        return grad.reshape(table.data.shape)

    return _node(data, (table, scatter))


def max_over_time(x: Tensor, valid: np.ndarray) -> Tensor:
    """Masked max over axis 1: (B, T, f) -> (B, f), reading only the rows
    where valid (B, T) is true; each sequence needs at least one. Ties send
    the gradient to the earliest row, matching np.argmax."""
    valid = np.asarray(valid, dtype=bool)
    if not valid.any(axis=1).all():
        raise ValueError("every sequence needs a valid row")
    am = np.argmax(np.where(valid[:, :, None], x.data, -np.inf), axis=1)
    rows = np.arange(x.data.shape[0])[:, None]
    cols = np.arange(x.data.shape[2])[None, :]

    def spread(g: Array) -> Array:
        dx = np.zeros_like(x.data)
        dx[rows, am, cols] = g
        return dx

    return _node(x.data[rows, am, cols], (x, spread))


def _topo(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def backward(root: Tensor) -> None:
    """Accumulate d(root)/d(leaf) into leaf.grad for every leaf reachable
    from root: every tensor no operation produced, such as parameters,
    inputs and detached values. root must hold a single value. An
    operation's output drops its gradient once it has passed it on, so a
    walk holds few gradients at a time. The tape is consumed; a second call
    on the same graph, or on one sharing its nodes, raises StaleGraphError
    before any gradient changes. A leaf has no tape, so a leaf root may be
    walked again."""
    if root.data.size != 1:
        raise ValueError("backward root must be a scalar")
    order = _topo(root)
    if any(node._parents and node._bwd is None for node in order):
        raise StaleGraphError("the graph holds nodes of a consumed tape")
    root.grad = np.ones_like(root.data)
    for node in reversed(order):
        if node._bwd is not None:
            node._bwd(node.grad)
            node._bwd = None
            node.grad = None
