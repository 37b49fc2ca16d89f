"""Checkpoint container: JSON header plus raw float32 tensors.

Layout: a little-endian u32 header length, the header as UTF-8 JSON
(compact, keys sorted), then the tensors back to back as little-endian
float32 in the order declared by the header's ``tensors`` list, each an
object ``{"name": ..., "shape": [...]}``. Metadata keys ride along in the
header.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

from .errors import FormatError, ValidationError


def float32_tensors(path: str | Path, tensors: dict[str, np.ndarray]
                    ) -> dict[str, np.ndarray]:
    """The tensors as a checkpoint at ``path`` stores them, little-endian
    float32. A tensor holding a value that is not finite at float32 raises
    ValidationError naming the path and the tensor."""
    with np.errstate(over="ignore"):
        stored = {name: np.asarray(t, dtype="<f4") for name, t in tensors.items()}
    for name, t in stored.items():
        if not np.all(np.isfinite(t)):
            raise ValidationError(
                f"{path}: tensor {name} has values not finite at float32")
    return stored


def save_checkpoint(path: str | Path, tensors: dict[str, np.ndarray],
                    meta: dict) -> None:
    """Write a checkpoint that load_checkpoint reads. The ``float32_tensors``
    check runs before the file is opened."""
    stored = float32_tensors(path, tensors)
    header = dict(meta)
    header["tensors"] = [
        {"name": name, "shape": list(t.shape)} for name, t in stored.items()
    ]
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for t in stored.values():
            fh.write(t.tobytes())


def _is_dim(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


def load_checkpoint(path: str | Path) -> tuple[dict[str, np.ndarray], dict]:
    """Read a checkpoint, its tensors as the float32 they are stored in;
    an unreadable file or any departure from the layout, including a
    non-finite tensor value or two tensors of one name, raises FormatError
    naming the path."""
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise FormatError(f"{path}: cannot read: {exc.strerror}") from None
    if len(raw) < 4:
        raise FormatError(f"{path}: truncated checkpoint")
    (header_len,) = struct.unpack_from("<I", raw)
    if len(raw) < 4 + header_len:
        raise FormatError(f"{path}: truncated checkpoint header")
    try:
        header = json.loads(raw[4:4 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{path}: bad checkpoint header: {exc}") from None
    if not isinstance(header, dict):
        raise FormatError(f"{path}: checkpoint header is not a JSON object")
    declared = header.pop("tensors", None)
    if not isinstance(declared, list):
        raise FormatError(f"{path}: header does not declare tensors")
    tensors: dict[str, np.ndarray] = {}
    offset = 4 + header_len
    for entry in declared:
        name = entry.get("name") if isinstance(entry, dict) else None
        shape = entry.get("shape") if isinstance(entry, dict) else None
        if (not isinstance(name, str) or not isinstance(shape, list)
                or not all(_is_dim(x) for x in shape)):
            raise FormatError(f"{path}: bad tensor entry {entry!r}")
        if name in tensors:
            raise FormatError(f"{path}: duplicate tensor {name}")
        count = math.prod(shape)
        end = offset + 4 * count
        if end > len(raw):
            raise FormatError(f"{path}: truncated tensor {name}")
        data = np.frombuffer(raw, dtype="<f4", count=count, offset=offset)
        if not np.all(np.isfinite(data)):
            raise FormatError(f"{path}: tensor {name} has non-finite values")
        # a copy: the view into ``raw`` is read-only and may be byte-swapped
        tensors[name] = data.reshape(shape).astype(np.float32)
        offset = end
    if offset != len(raw):
        raise FormatError(f"{path}: trailing bytes after declared tensors")
    return tensors, header


def check_layout(path: str | Path, kind: str, meta: dict,
                 tensors: dict[str, np.ndarray],
                 layout: dict[str, tuple[int | str, ...]]) -> None:
    """Check a loaded checkpoint against a model's layout: the header's
    ``kind``, the tensor names, and a shape per tensor, each dimension a
    number or a name that takes one size throughout. Another kind, a
    missing or unknown tensor, or another shape raises FormatError naming
    the path."""
    if meta.get("kind") != kind:
        raise FormatError(
            f"{path}: checkpoint kind {meta.get('kind')!r}, not {kind!r}")
    unknown = sorted(set(tensors) - set(layout))
    if unknown:
        raise FormatError(
            f"{path}: tensors {unknown} are not in the {kind} layout")
    sizes: dict[str, int] = {}
    for name, dims in layout.items():
        if name not in tensors:
            raise FormatError(f"{path}: checkpoint has no tensor {name}")
        shape = tensors[name].shape
        expected = tuple(sizes.setdefault(dim, size) if isinstance(dim, str)
                         else dim for dim, size in zip(dims, shape))
        if len(shape) != len(dims) or shape != expected:
            named = f" with sizes {sizes}" if sizes else ""
            raise FormatError(
                f"{path}: tensor {name} has shape {shape}, not {dims}{named}")


__all__ = ["float32_tensors", "save_checkpoint", "load_checkpoint",
           "check_layout"]
