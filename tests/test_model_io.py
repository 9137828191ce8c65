import numpy as np
import pytest

from crossseg.errors import DecodeError
from crossseg.model_io import load_container, save_container
from crossseg.train import Segmenter, TrainConfig


def test_roundtrip_is_byte_identical(tmp_path):
    rng = np.random.default_rng(0)
    hyper = {"kind": "test", "dim": "32", "vocab": "abc"}
    tensors = {"w": rng.normal(size=(3, 4)),
               "b": rng.normal(size=(4,)),
               "deep.0.w": rng.normal(size=(2, 2, 2))}
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_container(p1, hyper, tensors)
    h2, t2 = load_container(p1)
    assert h2 == hyper
    assert set(t2) == set(tensors)
    for k in tensors:
        np.testing.assert_array_equal(t2[k], tensors[k])
        assert t2[k].dtype == np.float64
    save_container(p2, h2, t2)
    assert p1.read_bytes() == p2.read_bytes()


def test_preserves_insertion_order(tmp_path):
    p = tmp_path / "m.bin"
    save_container(p, {"z": "1", "a": "2"},
                   {"zz": np.zeros(1), "aa": np.ones(1)})
    _, tensors = load_container(p)
    assert list(tensors) == ["zz", "aa"]


def test_rejects_bad_magic(tmp_path):
    p = tmp_path / "m.bin"
    p.write_bytes(b"NOPE1\nrest")
    with pytest.raises(DecodeError):
        load_container(p)


def test_rejects_truncation(tmp_path):
    p = tmp_path / "m.bin"
    save_container(p, {"k": "v"}, {"w": np.ones((4, 4))})
    blob = p.read_bytes()
    p.write_bytes(blob[:-8])
    with pytest.raises(DecodeError):
        load_container(p)


def test_rejects_malformed_keys(tmp_path):
    # refused before the file is opened: no file, not a truncated one
    p = tmp_path / "m.bin"
    for hyper, tensors, match in [
            ({"bad key": "v"}, {}, "bad hyperparameter key"),
            ({"k": "line\nbreak"}, {}, "newline"),
            ({"k": "v", "vocab": "ab\ud800c"}, {}, "'vocab'"),
            ({}, {"w": np.zeros(1), "bad name ": np.zeros(1)}, "bad tensor"),
            ({}, {"w": np.zeros(1), "w\u00e9": np.zeros(1)}, "bad tensor"),
            ({}, {"w": np.zeros(1), "": np.zeros(1)}, "bad tensor")]:
        with pytest.raises(ValueError, match=match):
            save_container(p, hyper, tensors)
        assert not p.exists()


def test_refused_model_save_leaves_no_file(tmp_path):
    model = Segmenter.create(
        ["ab\ud800c"], TrainConfig(char_emb=4, gcnn_dim=4, gcnn_layers=1),
        np.random.default_rng(0))
    p = tmp_path / "m.bin"
    with pytest.raises(ValueError, match="'vocab'"):
        model.save(str(p))
    assert not p.exists()


def _valid_blob(tmp_path) -> bytes:
    p = tmp_path / "valid.bin"
    save_container(p, {"k": "v"}, {"w": np.ones((3, 4)), "b": np.zeros(4)})
    return p.read_bytes()


# Each case rewrites one part of a valid container: (old bytes, new bytes,
# text the error must contain besides the path). Without old bytes the new
# ones are appended; without new bytes the file ends before the old ones.
@pytest.mark.parametrize("old,new,names", [
    (b"tensors 2\n", b"tensors two\n", "tensor count"),
    (b"tensors 2\n", b"tensors -2\n", "tensor count"),
    (b"tensors 2\n", b"tensors 2.0\n", "tensor count"),
    (b"\nw 2 3 4\n", b"\nw x 3 4\n", "'w'"),
    (b"\nw 2 3 4\n", b"\nw -2 3 4\n", "'w'"),
    (b"\nw 2 3 4\n", b"\nw 2 3 4.0\n", "'w'"),
    (b"\nw 2 3 4\n", b"\nw 2 3 -4\n", "'w'"),
    (b"\nw 2 3 4\n", b"\nw 2 -3 -4\n", "'w'"),
    (b"\nw 2 3 4\n", b"\nw 2 3 4 1\n", "'w'"),
    (b"\nw 2 3 4\n", b"\nw 2 3\n", "'w'"),
    (b"\nw 2 3 4\n", b"\nw 2 3 99999999999999999999\n", "'w'"),
    (b"\nw 2 3 4\n", b"\nw 2 0 99999999999999999999\n", "'w'"),
    # more digits than int() converts (4,300 by default)
    (b"tensors 2\n", b"tensors " + b"9" * 5000 + b"\n", "tensor count"),
    (b"\nw 2 3 4\n", b"\nw " + b"2" * 5000 + b" 3 4\n", "'w': rank"),
    (b"\nw 2 3 4\n", b"\nw 2 3 " + b"4" * 5000 + b"\n", "'w': dimension"),
    (b"b 1 4\n", b"w 1 4\n", "duplicate name"),
    (b"k=v\n", b"k=v\nk=u\n", "duplicate key 'k'"),
    (b"k=v\n", b"kv\n", "malformed hyperparameter line b'kv'"),
    (b"tensors 2\n", b"", "missing tensor count"),
    (b"\ntensors 2\n", None, "truncated hyperparameter block"),
    (b"tensors 2\n", b"tensors 3\n", "tensor 3 of 3"),
    (b"tensors 2\n", b"tensors 1\n", "'w': followed by unexpected bytes"),
    (None, b"\0", "'b': followed by unexpected bytes"),
], ids=["count-word", "count-negative", "count-float", "rank-word",
        "rank-negative", "dim-float", "dim-negative", "dims-negative",
        "dims-extra", "dims-missing", "dim-huge", "empty-dim-huge",
        "count-digits", "rank-digits", "dim-digits", "duplicate-tensor",
        "duplicate-key", "line-without-equals", "count-missing",
        "block-truncated", "count-too-high", "count-too-low",
        "trailing-byte"])
def test_rejects_malformed_layout(tmp_path, old, new, names):
    blob = _valid_blob(tmp_path)
    if old is None:
        blob += new
    else:
        assert blob.count(old) == 1
        blob = blob[:blob.index(old)] if new is None else \
            blob.replace(old, new)
    p = tmp_path / "bad.bin"
    p.write_bytes(blob)
    with pytest.raises(DecodeError) as info:
        load_container(p)
    assert str(p) in str(info.value)
    assert names in str(info.value)
