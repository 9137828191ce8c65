"""Reverse-mode automatic differentiation over float64 numpy arrays.

A Tensor wraps an ndarray and remembers, when it was produced by an
operation, its parent tensors and a closure that pushes the output gradient
back to them. backward(root) runs the closures in reverse topological order
and accumulates gradients on every leaf tensor of the graph, then consumes
the tape: running backward twice on the same graph raises StaleGraphError.

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
from typing import Callable, Sequence

import numpy as np

from .errors import StaleGraphError

Array = np.ndarray


def _arr(x) -> Array:
    return np.asarray(x, dtype=np.float64)


class Tensor:
    __slots__ = ("data", "grad", "_parents", "_bwd", "_spent")

    def __init__(self, data, parents: tuple = (), bwd: Callable | None = None):
        self.data = _arr(data)
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
        """Add g, which has this tensor's shape, to its gradient."""
        if self.grad is None:
            self.grad = np.array(g, dtype=np.float64)  # g may be a view
        else:
            self.grad += g

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"

    def __add__(self, other):
        return add(self, other)


def _to_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(g: Array, shape: tuple[int, ...]) -> Array:
    """Reduce a gradient back to the shape the operand had before numpy
    broadcasting."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, d in enumerate(shape) if d == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def add(a, b) -> Tensor:
    a, b = _to_tensor(a), _to_tensor(b)
    out = Tensor(a.data + b.data, (a, b))

    def bwd(g: Array) -> None:
        a._accumulate(_unbroadcast(g, a.data.shape))
        b._accumulate(_unbroadcast(g, b.data.shape))

    out._bwd = bwd
    return out


def sub(a, b) -> Tensor:
    a, b = _to_tensor(a), _to_tensor(b)
    out = Tensor(a.data - b.data, (a, b))

    def bwd(g: Array) -> None:
        a._accumulate(_unbroadcast(g, a.data.shape))
        b._accumulate(_unbroadcast(-g, b.data.shape))

    out._bwd = bwd
    return out


def mul(a, b) -> Tensor:
    a, b = _to_tensor(a), _to_tensor(b)
    out = Tensor(a.data * b.data, (a, b))

    def bwd(g: Array) -> None:
        a._accumulate(_unbroadcast(g * b.data, a.data.shape))
        b._accumulate(_unbroadcast(g * a.data, b.data.shape))

    out._bwd = bwd
    return out


def scale(a, s: float) -> Tensor:
    a = _to_tensor(a)
    out = Tensor(a.data * s, (a,))

    def bwd(g: Array) -> None:
        a._accumulate(g * s)

    out._bwd = bwd
    return out


def matmul(a, b) -> Tensor:
    """a (..., n) @ b (n, m); the leading axes of a are batch axes."""
    a, b = _to_tensor(a), _to_tensor(b)
    out = Tensor(a.data @ b.data, (a, b))

    def bwd(g: Array) -> None:
        a._accumulate(g @ b.data.T)
        b._accumulate(a.data.reshape(-1, a.data.shape[-1]).T
                      @ g.reshape(-1, g.shape[-1]))

    out._bwd = bwd
    return out


def sigmoid(a) -> Tensor:
    a = _to_tensor(a)
    ez = np.exp(-np.abs(a.data))  # 1 / (1 + e^-x), or e^x / (1 + e^x)
    y = np.where(a.data >= 0, 1.0, ez) / (1.0 + ez)
    out = Tensor(y, (a,))

    def bwd(g: Array) -> None:
        a._accumulate(g * y * (1.0 - y))

    out._bwd = bwd
    return out


def log(a) -> Tensor:
    a = _to_tensor(a)
    out = Tensor(np.log(a.data), (a,))

    def bwd(g: Array) -> None:
        a._accumulate(g / a.data)

    out._bwd = bwd
    return out


def clamp(a, lo: float, hi: float) -> Tensor:
    """Clip values to [lo, hi]; gradient is zero where the clip is active."""
    a = _to_tensor(a)
    clipped = np.clip(a.data, lo, hi)
    inside = (a.data > lo) & (a.data < hi)
    out = Tensor(clipped, (a,))

    def bwd(g: Array) -> None:
        a._accumulate(g * inside)

    out._bwd = bwd
    return out


def sum_all(a) -> Tensor:
    a = _to_tensor(a)
    out = Tensor(a.data.sum(), (a,))

    def bwd(g: Array) -> None:
        a._accumulate(np.full_like(a.data, float(g)))

    out._bwd = bwd
    return out


def concat_cols(parts: Sequence[Tensor]) -> Tensor:
    """Concatenate tensors along their last axis."""
    parts = [_to_tensor(p) for p in parts]
    out = Tensor(np.concatenate([p.data for p in parts], axis=-1),
                 tuple(parts))
    widths = [p.data.shape[-1] for p in parts]

    def bwd(g: Array) -> None:
        off = 0
        for p, w in zip(parts, widths):
            p._accumulate(g[..., off:off + w])
            off += w

    out._bwd = bwd
    return out


def conv1d(x: Tensor, w: Tensor, pad_left: int, pad_right: int) -> Tensor:
    """1-d convolution along axis 1 of a batch of sequences.

    x has shape (B, T, d_in), w has shape (k, d_in, d_out). Each sequence
    is copied into one zero buffer with pad_left zero rows before it and
    pad_right after it; output row t is sum over offsets o of
    buffer[t + o] @ w[o], one batched matmul per offset. With pad_left =
    pad_right = (k - 1) // 2 and odd k the output has shape (B, T, d_out).
    """
    x, w = _to_tensor(x), _to_tensor(w)
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
    out = Tensor(y, (x, w))

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

    out._bwd = bwd
    return out


def gather_rows(table: Tensor, idx) -> Tensor:
    """Rows of table at an index array on its first axis; the output has
    the index shape followed by the remaining axes of table. A negative
    index selects a zero row that reads nothing and gets no gradient.
    Gradients scatter back by one bincount per trailing column, so a row
    selected k times gets the sum of its k gradients."""
    table = _to_tensor(table)
    idx = np.asarray(idx, dtype=np.int64)
    keep = idx >= 0
    data = table.data[idx * keep]  # padding reads row 0
    data[~keep] = 0.0
    out = Tensor(data, (table,))
    n = table.data.shape[0]
    width = math.prod(table.data.shape[1:])

    def bwd(g: Array) -> None:
        flat = idx[keep]
        rows = g[keep].reshape(flat.size, width)
        grad = np.empty((n, width))
        for j, col in enumerate(rows.T):
            grad[:, j] = np.bincount(flat, weights=col, minlength=n)
        table._accumulate(grad.reshape(table.data.shape))

    out._bwd = bwd
    return out


def max_over_time(x: Tensor, valid: np.ndarray) -> Tensor:
    """Masked max over axis 1: (B, T, f) -> (B, f), reading only the rows
    where valid (B, T) is true; each sequence needs at least one. Ties send
    the gradient to the earliest row, matching np.argmax."""
    x = _to_tensor(x)
    valid = np.asarray(valid, dtype=bool)
    if not valid.any(axis=1).all():
        raise ValueError("every sequence needs a valid row")
    am = np.argmax(np.where(valid[:, :, None], x.data, -np.inf), axis=1)
    rows = np.arange(x.data.shape[0])[:, None]
    cols = np.arange(x.data.shape[2])[None, :]
    out = Tensor(x.data[rows, am, cols], (x,))

    def bwd(g: Array) -> None:
        if x.grad is None:
            x.grad = np.zeros_like(x.data)
        x.grad[rows, am, cols] += g

    out._bwd = bwd
    return out


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
