"""Checkpoint container: JSON header plus raw float32 tensors.

Layout: a little-endian u32 header length, the header as UTF-8 JSON
(compact, keys sorted), then the tensors back to back as little-endian
float32 in the order declared by the header's ``tensors`` list, each an
object ``{"name": ..., "shape": [...]}``. Metadata keys ride along in the
header.

``open_checkpoint`` validates a file and returns each tensor as a
``StoredTensor``, left in the file and read into a fresh read-only array
each time numpy converts it; ``load_checkpoint`` converts them all. A
save writes a new file and renames it over the old one, so a
``StoredTensor`` keeps reading the file it validated.
"""

from __future__ import annotations

import json
import math
import os
import struct
import weakref
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import FormatError, ValidationError

# float32 values per read of the finiteness check
_CHUNK = 1 << 14


def float32_tensors(path: str | Path, tensors: dict[str, np.ndarray]
                    ) -> dict[str, np.ndarray]:
    """The tensors as a checkpoint at ``path`` stores them, C-ordered
    little-endian float32; one that already is comes back uncopied. A
    tensor holding a value that is not finite at float32 raises
    ValidationError naming the path and the tensor."""
    with np.errstate(over="ignore"):
        stored = {name: np.asarray(t, dtype="<f4", order="C")
                  for name, t in tensors.items()}
    for name, t in stored.items():
        if not np.all(np.isfinite(t)):
            raise ValidationError(
                f"{path}: tensor {name} has values not finite at float32")
    return stored


def save_checkpoint(path: str | Path, tensors: dict[str, np.ndarray],
                    meta: dict) -> None:
    """Write a checkpoint that load_checkpoint reads. A ``tensors`` key in
    ``meta``, which the header's tensor list would replace, raises
    ValidationError naming the path; it and the ``float32_tensors`` check
    run before any file is opened."""
    if "tensors" in meta:
        raise ValidationError(f"{path}: meta key 'tensors' is the header's "
                              f"tensor list")
    write_checkpoint(path, float32_tensors(path, tensors), meta)


def write_checkpoint(path: str | Path, stored: dict[str, np.ndarray],
                     meta: dict) -> None:
    """Write tensors that ``float32_tensors`` returned, from their own
    buffers. The file is written beside ``path`` under a ``.tmp`` suffix
    and renamed over ``path``; a failed write leaves ``path`` as it was
    and removes the temporary file."""
    path = Path(path)
    header = dict(meta)
    header["tensors"] = [
        {"name": name, "shape": list(t.shape)} for name, t in stored.items()
    ]
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(struct.pack("<I", len(blob)))
            fh.write(blob)
            for t in stored.values():
                fh.write(t)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _is_dim(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


class StoredTensor:
    """A float32 tensor left in its validated checkpoint file. It holds
    its own descriptor of that file, closed when it is dropped, so a save
    that replaces the file does not change what it reads. Each conversion
    (``np.asarray``) reads the tensor into a fresh read-only array; a file
    cut short since it was validated raises FormatError naming the path."""

    dtype = np.dtype("<f4")

    def __init__(self, path: Path, fd: int, shape: tuple[int, ...],
                 offset: int) -> None:
        self.path, self.shape, self.ndim = path, shape, len(shape)
        self.offset = offset
        self._fd = os.dup(fd)
        weakref.finalize(self, os.close, self._fd)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        nbytes = self.dtype.itemsize * math.prod(self.shape)
        data = os.pread(self._fd, nbytes, self.offset)
        if len(data) != nbytes:
            raise FormatError(f"{self.path}: file shrank after it was opened")
        rows = np.frombuffer(data, dtype=self.dtype).reshape(self.shape)
        return rows if dtype is None else rows.astype(dtype, copy=False)


def open_checkpoint(path: str | Path
                    ) -> tuple[dict[str, StoredTensor], dict]:
    """Open and validate a checkpoint, returning its tensors left in the
    file and the header's metadata. An unreadable file or any departure
    from the layout, including a non-finite tensor value or two tensors of
    one name, raises FormatError naming the path."""
    path = Path(path)
    try:
        with open(path, "rb") as fh:
            return _scan_checkpoint(path, fh)
    except OSError as exc:
        raise FormatError(f"{path}: cannot read: {exc.strerror}") from None


def load_checkpoint(path: str | Path) -> tuple[dict[str, np.ndarray], dict]:
    """Read a checkpoint, its tensors as fresh read-only arrays of the
    float32 they are stored in; ``open_checkpoint``'s checks raise
    FormatError naming the path."""
    tensors, header = open_checkpoint(path)
    return {name: np.asarray(t) for name, t in tensors.items()}, header


def _scan_checkpoint(path: Path, fh) -> tuple[dict[str, StoredTensor], dict]:
    """Validate the checkpoint open as ``fh``: its header, and its tensors
    read in bounded pieces for the finiteness check, so the check holds
    no whole tensor in memory."""
    size = os.fstat(fh.fileno()).st_size
    if size < 4:
        raise FormatError(f"{path}: truncated checkpoint")
    (header_len,) = struct.unpack("<I", fh.read(4))
    if size < 4 + header_len:
        raise FormatError(f"{path}: truncated checkpoint header")
    try:
        header = json.loads(fh.read(header_len).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{path}: bad checkpoint header: {exc}") from None
    if not isinstance(header, dict):
        raise FormatError(f"{path}: checkpoint header is not a JSON object")
    declared = header.pop("tensors", None)
    if not isinstance(declared, list):
        raise FormatError(f"{path}: header does not declare tensors")
    places = {}
    offset = 4 + header_len
    chunk = np.empty(_CHUNK, dtype="<f4")
    for entry in declared:
        name = entry.get("name") if isinstance(entry, dict) else None
        shape = entry.get("shape") if isinstance(entry, dict) else None
        if (not isinstance(name, str) or not isinstance(shape, list)
                or not all(_is_dim(x) for x in shape)):
            raise FormatError(f"{path}: bad tensor entry {entry!r}")
        if name in places:
            raise FormatError(f"{path}: duplicate tensor {name}")
        count = math.prod(shape)
        end = offset + 4 * count
        if end > size:
            raise FormatError(f"{path}: truncated tensor {name}")
        for lo in range(0, count, _CHUNK):
            part = chunk[:min(count - lo, _CHUNK)]
            if fh.readinto(part) != part.nbytes:
                raise FormatError(f"{path}: truncated tensor {name}")
            if not np.all(np.isfinite(part)):
                raise FormatError(f"{path}: tensor {name} has non-finite values")
        places[name] = tuple(shape), offset
        offset = end
    if offset != size:
        raise FormatError(f"{path}: trailing bytes after declared tensors")
    return {name: StoredTensor(path, fh.fileno(), shape, start)
            for name, (shape, start) in places.items()}, header


def check_layout(path: str | Path, kind: str, meta: dict,
                 tensors: Mapping[str, np.ndarray | StoredTensor],
                 layout: dict[str, tuple[int | str, ...]]) -> None:
    """Check a checkpoint's tensors, loaded or left in the file, against a
    model's layout: the header's ``kind``, the tensor names, and a shape
    per tensor, each dimension a number or a name that takes one size
    throughout. Another kind, a missing or unknown tensor, or another
    shape raises FormatError naming the path."""
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


__all__ = ["float32_tensors", "save_checkpoint", "write_checkpoint",
           "StoredTensor", "open_checkpoint", "load_checkpoint", "check_layout"]
