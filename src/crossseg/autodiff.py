"""Reverse-mode automatic differentiation over float64 numpy arrays.

A Tensor wraps an ndarray and remembers, when an operation produced it,
its parents and a closure that pushes the output gradient back to them.
An operation states its value and, per Tensor operand, a gradient map
from the output gradient to that operand's; _node builds the node. conv1d
and crf.nll_loss, whose operand gradients share one computation, write
one joint closure instead. Only Tensor._accumulate adds to a gradient,
and no operation writes an array it has handed over. backward(root) runs
the closures in reverse topological order, accumulates gradients on every
leaf tensor and consumes the tape: a second call raises StaleGraphError.

Operands: a Tensor is differentiable, anything else is a constant. add,
sub and mul also take a plain array or float, which is not a parent and
gets no gradient, so masks, dropout multipliers and numbers never become
leaves of the tape. A constant broadcasts as numpy does, but a Tensor
operand never does: it must have the result's shape, or the operation
raises ValueError naming both shapes. The one broadcast a Tensor gets is
a bias, which conv1d and matmul add themselves along the last axis.

Only the operations the segmentation stack needs are provided. Sequence
operations work on padded batches: conv1d and max_over_time take (B, T, d)
tensors, and matmul and concat_cols act on the last axis. gather_rows
reads the rows of a table at one index array (embedding lookup); negative
entries mark padding, which reads zeros and gets no gradient, and a row
read several times gets the sum of all of its gradients. Dropout is not an
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
    __slots__ = ("data", "grad", "_parents", "_bwd", "_spent")

    def __init__(self, data, parents: tuple = (), bwd: Callable | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Array | None = None
        self._parents = parents
        self._bwd = bwd
        self._spent = False

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


def sigmoid(a: Tensor) -> Tensor:
    ez = np.exp(-np.abs(a.data))  # 1 / (1 + e^-x), or e^x / (1 + e^x)
    y = np.where(a.data >= 0, 1.0, ez) / (1.0 + ez)
    return _node(y, (a, lambda g: g * y * (1.0 - y)))


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


def conv1d(x: Tensor, w: Tensor, bias: Tensor, pad_left: int,
           pad_right: int) -> Tensor:
    """1-d convolution along axis 1 of a batch of sequences, plus a bias.

    x has shape (B, T, d_in), w has shape (k, d_in, d_out) and bias
    (d_out,). Each sequence is copied into one zero buffer with pad_left
    zero rows before it and pad_right after it; output row t is sum over
    offsets o of buffer[t + o] @ w[o], one batched matmul per offset, plus
    bias. With pad_left = pad_right = (k - 1) // 2 and odd k the output
    has shape (B, T, d_out).
    """
    k, d_in, d_out = w.data.shape
    b, n, _ = x.data.shape
    n_out = n + pad_left + pad_right - k + 1
    if n_out < 1:
        raise ValueError("input shorter than kernel after padding")

    def padded() -> Array:
        xp = np.zeros((b, n + pad_left + pad_right, d_in))
        xp[:, pad_left:pad_left + n] = x.data
        return xp

    xp = padded()
    y = xp[:, :n_out] @ w.data[0]
    for o in range(1, k):
        y += xp[:, o:o + n_out] @ w.data[o]
    y += bias.data

    def bwd(g: Array) -> None:
        xp = padded()  # rebuilt, not kept: the graph holds less memory
        wt = np.ascontiguousarray(w.data.transpose(0, 2, 1))
        dxp = np.zeros_like(xp)
        dw = np.empty_like(w.data)
        for o in range(k):
            dw[o] = (xp[:, o:o + n_out].transpose(0, 2, 1) @ g).sum(axis=0)
            dxp[:, o:o + n_out] += g @ wt[o]
        x._accumulate(dxp[:, pad_left:pad_left + n])
        w._accumulate(dw)
        bias._accumulate(_bias_grad(g, bias))

    return Tensor(y, (x, w, bias), bwd)


def gather_rows(table: Tensor, idx) -> Tensor:
    """Rows of table at an index array on its first axis; the output has
    the index shape followed by the remaining axes of table. A negative
    index selects a zero row that reads nothing and gets no gradient.
    Gradients scatter back by one bincount per trailing column, so a row
    selected k times gets the sum of its k gradients."""
    idx = np.asarray(idx, dtype=np.int64)
    keep = idx >= 0
    data = table.data[idx * keep]  # padding reads row 0
    data[~keep] = 0.0
    n = table.data.shape[0]
    width = math.prod(table.data.shape[1:])

    def scatter(g: Array) -> Array:
        flat = idx[keep]
        rows = g[keep].reshape(flat.size, width)
        grad = np.empty((n, width))
        for j, col in enumerate(rows.T):
            grad[:, j] = np.bincount(flat, weights=col, minlength=n)
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
    on the same graph raises StaleGraphError."""
    if root._spent:
        raise StaleGraphError("backward() already ran on this graph")
    if root.data.size != 1:
        raise ValueError("backward root must be a scalar")
    order = _topo(root)
    root.grad = np.ones_like(root.data)
    for node in reversed(order):
        if node._parents and node._bwd is None:
            raise StaleGraphError("graph shares nodes with a consumed tape")
        if node._bwd is not None:
            node._bwd(node.grad if node.grad is not None
                      else np.zeros_like(node.data))
            node._bwd = None
            node._spent = True
            node.grad = None
    root._spent = True
