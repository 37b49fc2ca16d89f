import json
import struct

import numpy as np
import pytest

from stepalign.checkpoint import load_checkpoint, save_checkpoint
from stepalign.errors import FormatError


def _write(path, header, payload=b""):
    blob = json.dumps(header).encode("utf-8")
    path.write_bytes(struct.pack("<I", len(blob)) + blob + payload)


def test_round_trip_at_float32(tmp_path):
    tensors = {"a": np.arange(6.0).reshape(2, 3) / 3.0, "s": np.array(2.5)}
    save_checkpoint(tmp_path / "c.ckpt", tensors, {"kind": "x", "epoch": 3})
    loaded, meta = load_checkpoint(tmp_path / "c.ckpt")
    assert meta == {"kind": "x", "epoch": 3}
    for name, t in tensors.items():
        assert loaded[name].shape == t.shape
        np.testing.assert_array_equal(loaded[name], t.astype(np.float32))


@pytest.mark.parametrize("header, payload", [
    ({"tensors": [{"shape": [2]}]}, b"\0" * 8),                # entry without name
    ({"tensors": [{"name": "w", "shape": "ab"}]}, b"\0" * 8),  # shape not a list
    ({"tensors": [{"name": "w", "shape": [-1]}]}, b"\0" * 8),  # negative dim
    ({"tensors": ["w"]}, b""),                                  # entry not an object
    ([1, 2], b""),                                              # header not an object
    ({"tensors": [{"name": "w", "shape": [2]}]},
     np.array([1.0, np.nan], dtype="<f4").tobytes()),           # NaN tensor
], ids=["no-name", "shape-string", "negative-dim", "entry-string",
        "header-list", "nan"])
def test_malformed_checkpoint_raises_format_error(tmp_path, header, payload):
    path = tmp_path / "bad.ckpt"
    _write(path, header, payload)
    with pytest.raises(FormatError, match="bad.ckpt"):
        load_checkpoint(path)
