import errno
import gc
import io
import json
import os
import struct

import numpy as np
import pytest

from stepalign import checkpoint
from stepalign.checkpoint import (
    StoredTensor, load_checkpoint, open_checkpoint, save_checkpoint,
)
from stepalign.classifier import load_classifier
from stepalign.corpus import read_features
from stepalign.errors import FormatError, ValidationError
from stepalign.model import load_model


def _pack(header, payload=b""):
    blob = json.dumps(header).encode("utf-8")
    return struct.pack("<I", len(blob)) + blob + payload


_W2 = {"tensors": [{"name": "w", "shape": [2]}]}


def test_round_trip_at_float32(tmp_path):
    tensors = {"a": np.arange(6.0).reshape(2, 3) / 3.0, "s": np.array(2.5)}
    save_checkpoint(tmp_path / "c.ckpt", tensors, {"kind": "x", "epoch": 3})
    loaded, meta = load_checkpoint(tmp_path / "c.ckpt")
    assert meta == {"kind": "x", "epoch": 3}
    for name, t in tensors.items():
        assert loaded[name].shape == t.shape
        np.testing.assert_array_equal(loaded[name], t.astype(np.float32))


def test_loaded_tensors_are_read_only_views_equal_to_saved(tmp_path):
    tensors = {"a": np.arange(12.0).reshape(3, 4) / 7.0,
               "t": np.arange(6.0, dtype=np.float32).reshape(2, 3).T,
               "empty": np.ones((2, 0)), "s": np.array(-1.5)}
    save_checkpoint(tmp_path / "c.ckpt", tensors, {"kind": "x"})
    loaded, _ = load_checkpoint(tmp_path / "c.ckpt")
    assert list(loaded) == list(tensors)
    for name, t in tensors.items():
        assert type(loaded[name]) is np.ndarray
        assert loaded[name].dtype == np.float32
        assert not loaded[name].flags.writeable
        assert loaded[name].shape == t.shape
        np.testing.assert_array_equal(loaded[name], t.astype(np.float32))
    with pytest.raises(ValueError, match="read-only"):
        loaded["a"][0, 0] = 1.0


def test_save_over_a_loaded_file_keeps_the_loaded_values(tmp_path):
    path = tmp_path / "c.ckpt"
    save_checkpoint(path, {"a": np.arange(4.0)}, {"kind": "x"})
    loaded, _ = load_checkpoint(path)
    save_checkpoint(path, {"a": -np.arange(4.0)}, {"kind": "x"})
    np.testing.assert_array_equal(loaded["a"], np.arange(4.0))
    np.testing.assert_array_equal(load_checkpoint(path)[0]["a"],
                                  -np.arange(4.0))


def test_stored_tensor_reads_the_validated_file_after_a_save_over_it(
        tmp_path):
    path = tmp_path / "c.ckpt"
    save_checkpoint(path, {"a": np.arange(6.0).reshape(2, 3)}, {"kind": "x"})
    tensors, meta = open_checkpoint(path)
    stored = tensors["a"]
    assert type(stored) is StoredTensor and meta == {"kind": "x"}
    assert (stored.shape, stored.ndim, stored.dtype) == ((2, 3), 2, np.float32)
    save_checkpoint(path, {"a": -np.ones((2, 3))}, {"kind": "x"})
    first, second = np.asarray(stored), np.asarray(stored)
    assert first is not second and not first.flags.writeable
    np.testing.assert_array_equal(first, np.arange(6.0).reshape(2, 3))
    np.testing.assert_array_equal(np.asarray(stored, dtype=np.float64),
                                  np.arange(6.0).reshape(2, 3))


def test_stored_tensor_of_a_file_cut_short_names_the_file(tmp_path):
    path = tmp_path / "c.ckpt"
    save_checkpoint(path, {"a": np.arange(4.0), "b": np.ones(2)}, {"kind": "x"})
    tensors, _ = open_checkpoint(path)
    with open(path, "r+b") as fh:
        fh.truncate(path.stat().st_size - 4)
    np.testing.assert_array_equal(np.asarray(tensors["a"]), np.arange(4.0))
    with pytest.raises(FormatError,
                       match=r"c\.ckpt: file shrank after it was opened$"):
        np.asarray(tensors["b"])


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="counts descriptors in /proc/self/fd")
@pytest.mark.parametrize("raw, read, error", [
    (None, load_checkpoint, None),
    (None, lambda path: read_features(path, 3, 2),
     r"tensor features has shape \(2, 2\), not \(3, 2\)$"),
    (_pack(_W2, b"\0" * 7), load_checkpoint, "truncated tensor w$"),
], ids=["load", "wrong-rows", "malformed"])
def test_no_descriptor_outlives_a_load_or_a_failed_open(tmp_path, raw, read,
                                                        error):
    path = tmp_path / "v.fmtx"
    if raw is None:
        save_checkpoint(path, {"features": np.ones((2, 2))},
                        {"kind": "features", "video_id": "v"})
    else:
        path.write_bytes(raw)
    gc.collect()    # earlier tests' garbage may hold descriptors
    before = len(os.listdir("/proc/self/fd"))
    if error is None:
        read(path)
    else:
        with pytest.raises(FormatError, match=rf"v\.fmtx: {error}"):
            read(path)
    assert len(os.listdir("/proc/self/fd")) == before


class _FullDisk(io.FileIO):
    def write(self, data):
        raise OSError(errno.ENOSPC, "No space left on device")


def test_failed_write_keeps_old_file_and_leaves_no_temporary(tmp_path,
                                                             monkeypatch):
    path = tmp_path / "c.ckpt"
    save_checkpoint(path, {"a": np.arange(4.0)}, {"kind": "x"})
    before = path.read_bytes()
    monkeypatch.setattr(checkpoint, "open", _FullDisk, raising=False)
    with pytest.raises(OSError, match="No space left on device"):
        save_checkpoint(path, {"a": np.ones(4)}, {"kind": "x"})
    assert list(tmp_path.iterdir()) == [path]
    assert path.read_bytes() == before


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e39, -1e39],
                         ids=["nan", "inf", "minus-inf", "overflow",
                              "minus-overflow"])
def test_save_rejects_value_not_finite_at_float32(tmp_path, value):
    tensors = {"a": np.ones(2), "b": np.array([[0.5, value]])}
    with pytest.raises(ValidationError, match=r"c\.ckpt: tensor b has values "
                                              r"not finite at float32$"):
        save_checkpoint(tmp_path / "c.ckpt", tensors, {"kind": "x"})
    assert not (tmp_path / "c.ckpt").exists()


def test_save_rejects_meta_key_tensors(tmp_path):
    # the header's tensor list replaced it, so a load returned the meta
    # without it
    with pytest.raises(ValidationError, match=r"c\.ckpt: meta key 'tensors' "
                                              r"is the header's tensor list$"):
        save_checkpoint(tmp_path / "c.ckpt", {"a": np.ones(2)},
                        {"kind": "x", "tensors": ["a"]})
    assert list(tmp_path.iterdir()) == []


def test_largest_float32_round_trips(tmp_path):
    big = np.array([np.finfo(np.float32).max, -np.finfo(np.float32).max])
    save_checkpoint(tmp_path / "c.ckpt", {"a": big}, {"kind": "x"})
    np.testing.assert_array_equal(load_checkpoint(tmp_path / "c.ckpt")[0]["a"], big)


@pytest.mark.parametrize("raw, rule", [
    (_pack({"tensors": [{"shape": [2]}]}, b"\0" * 8), "bad tensor entry"),
    (_pack({"tensors": [{"name": "w", "shape": "ab"}]}, b"\0" * 8),
     "bad tensor entry"),
    (_pack({"tensors": [{"name": "w", "shape": [-1]}]}, b"\0" * 8),
     "bad tensor entry"),
    (_pack({"tensors": ["w"]}), "bad tensor entry"),
    (_pack([1, 2]), "checkpoint header is not a JSON object"),
    (_pack(_W2, np.array([1.0, np.nan], dtype="<f4").tobytes()),
     "tensor w has non-finite values"),
    (b"\x05\0\0", "truncated checkpoint$"),
    (struct.pack("<I", 64) + b"{}", "truncated checkpoint header$"),
    (_pack(_W2, b"\0" * 7), "truncated tensor w$"),
    (_pack(_W2, b"\0" * 9), "trailing bytes after declared tensors$"),
    (struct.pack("<I", 2) + b"\xff\xfe", "bad checkpoint header: 'utf-8' codec"),
    (_pack({"kind": "x"}), "header does not declare tensors$"),
    (_pack({"tensors": [{"name": "a", "shape": [1]},
                        {"name": "a", "shape": [1]}]}, b"\0" * 8),
     "duplicate tensor a$"),
], ids=["no-name", "shape-string", "negative-dim", "entry-string",
        "header-list", "nan", "short", "header-past-end", "truncated-tensor",
        "trailing-bytes", "non-utf8-header", "no-tensors", "duplicate-name"])
def test_malformed_checkpoint_raises_format_error(tmp_path, raw, rule):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(raw)
    with pytest.raises(FormatError, match=rf"bad\.ckpt: {rule}"):
        load_checkpoint(path)


@pytest.mark.parametrize("load", [load_checkpoint, load_model, load_classifier],
                         ids=["checkpoint", "model", "classifier"])
def test_missing_checkpoint_raises_format_error(tmp_path, load):
    with pytest.raises(FormatError, match=r"absent\.ckpt: cannot read: "):
        load(tmp_path / "absent.ckpt")
