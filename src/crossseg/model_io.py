"""Model container file format.

Layout, all little-endian:

    DAAT1\n                 magic
    key=value\n ...         hyperparameter block, one pair per line
    \n                      blank line ends the block
    tensors <count>\n
    <name> <rank> <d1> ... <dr>\n followed by 8 * prod(dims) raw float64
    bytes, repeated <count> times

Values in the hyperparameter block are opaque UTF-8 strings; keys hold no
whitespace or '=', and tensor names are non-empty ASCII without
whitespace. Writing the same content twice produces identical bytes, and
load followed by save round-trips exactly.

Loading checks the whole layout: unique keys and tensor names, decimal
non-negative counts, ranks and dimensions, complete payloads, and EOF after
the last tensor. Models store their tensors under their params() names.
"""
from __future__ import annotations

import math
import os

import numpy as np

from .errors import DecodeError

MAGIC = b"DAAT1\n"


def save_container(path: str, hyper: dict[str, str],
                   tensors: dict[str, np.ndarray]) -> None:
    """Write a container. Every key, value and tensor name is checked, and
    the header encoded, before the file is opened: a refused save leaves
    no file."""
    parts = [MAGIC]
    for key, value in hyper.items():
        if "=" in key or any(c.isspace() for c in key):
            raise ValueError(f"bad hyperparameter key {key!r}")
        if "\n" in str(value):
            raise ValueError(f"newline in value for {key!r}")
        try:
            parts.append(f"{key}={value}\n".encode("utf-8"))
        except UnicodeEncodeError:
            raise ValueError(f"hyperparameter {key!r} is not UTF-8") from None
    parts.append(f"\ntensors {len(tensors)}\n".encode("ascii"))
    for name, arr in tensors.items():
        if not name or not name.isascii() or any(c.isspace() for c in name):
            raise ValueError(f"bad tensor name {name!r}")
        arr = np.require(arr, "<f8", "C")  # its buffer is the payload
        dims = "".join(f" {d}" for d in arr.shape)
        parts += [f"{name} {arr.ndim}{dims}\n".encode("ascii"), arr]
    with open(path, "wb") as f:
        f.writelines(parts)


def load_container(path: str) -> tuple[dict[str, str], dict[str, np.ndarray]]:
    """Read a container; any deviation is a DecodeError naming the path."""
    with open(path, "rb") as f:
        if f.read(len(MAGIC)) != MAGIC:
            raise DecodeError(f"{path}: not a model container (bad magic)")
        hyper: dict[str, str] = {}
        while True:
            line = f.readline()
            if not line:
                raise DecodeError(f"{path}: truncated hyperparameter block")
            line = line.rstrip(b"\n")
            if not line:
                break
            try:
                key, value = line.decode("utf-8").split("=", 1)
            except ValueError:
                raise DecodeError(f"{path}: malformed hyperparameter line "
                                  f"{line!r}") from None
            if key in hyper:
                raise DecodeError(f"{path}: duplicate key {key!r}")
            hyper[key] = value
        header = f.readline().decode("ascii", "replace").split()
        if len(header) != 2 or header[0] != "tensors":
            raise DecodeError(f"{path}: missing tensor count")
        where = f"{path}: tensor count"
        count = _natural(header[1], where)
        file_size = os.fstat(f.fileno()).st_size
        tensors: dict[str, np.ndarray] = {}
        for i in range(1, count + 1):
            fields = f.readline().decode("ascii", "replace").split()
            if len(fields) < 2:
                raise DecodeError(f"{path}: tensor {i} of {count}: "
                                  "malformed header")
            name = fields[0]
            where = f"{path}: tensor {name!r}"
            if name in tensors:
                raise DecodeError(f"{where}: duplicate name")
            rank = _natural(fields[1], f"{where}: rank")
            if len(fields) != 2 + rank:
                raise DecodeError(f"{where}: expected {rank} dimensions")
            dims = tuple(_natural(d, f"{where}: dimension") for d in fields[2:])
            size = 8 * math.prod(dims)
            if size > file_size - f.tell():
                raise DecodeError(f"{where}: truncated payload")
            try:
                tensors[name] = np.frombuffer(f.read(size), dtype="<f8"
                                              ).reshape(dims).copy()
            except ValueError:  # an empty tensor with a huge dimension
                raise DecodeError(f"{where}: dimensions too large") from None
        if f.read(1):
            raise DecodeError(f"{where}: followed by unexpected bytes")
    return hyper, tensors


def _natural(text: str, what: str) -> int:
    """A non-negative decimal integer, or a DecodeError naming `what`."""
    if not (text.isascii() and text.isdigit()):
        raise DecodeError(f"{what}: expected a non-negative integer, "
                          f"got {text!r}")
    try:
        return int(text)
    except ValueError:  # more digits than int() converts
        raise DecodeError(f"{what}: {len(text)} digits are too many") from None
