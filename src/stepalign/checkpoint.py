"""Checkpoint container: JSON header plus raw float32 tensors.

Layout: a little-endian u32 header length, the header as UTF-8 JSON
(compact, keys sorted), then the tensors back to back as little-endian
float32 in the order declared by the header's ``tensors`` list, each an
object ``{"name": ..., "shape": [...]}``. Metadata keys ride along in the
header.

A loaded checkpoint's tensors are fresh read-only arrays, read from the
file when it is loaded. ``open_checkpoint`` validates a file and says
where each tensor lies in it, so a reader can hold the file open and read
a tensor only when it is needed (see corpus.py). A save writes a new
file and renames it over the old one, so a reader holding the old file
open keeps reading the old values.
"""

from __future__ import annotations

import json
import math
import os
import struct
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Mapping, NamedTuple

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
    """Write a checkpoint that load_checkpoint reads. The ``float32_tensors``
    check runs before any file is opened."""
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


class TensorPlace(NamedTuple):
    """Where a checkpoint holds a tensor: its shape, and the offset in
    bytes of its first value from the start of the file."""
    shape: tuple[int, ...]
    offset: int


@contextmanager
def open_checkpoint(path: str | Path
                    ) -> Iterator[tuple[int, dict[str, TensorPlace], dict]]:
    """Open and validate a checkpoint, yielding its file descriptor, the
    place of each tensor and the header's metadata; the descriptor closes
    when the block ends. An unreadable file or any departure from the
    layout, including a non-finite tensor value or two tensors of one
    name, raises FormatError naming the path."""
    path = Path(path)
    try:
        with open(path, "rb") as fh:
            places, header = _scan_checkpoint(path, fh)
            yield fh.fileno(), places, header
    except OSError as exc:
        raise FormatError(f"{path}: cannot read: {exc.strerror}") from None


def read_tensor(path: str | Path, fd: int, place: TensorPlace) -> np.ndarray:
    """The tensor at ``place`` of the checkpoint open as ``fd``, read into
    a fresh read-only float32 array. A file cut short since it was
    validated raises FormatError naming ``path``."""
    nbytes = 4 * math.prod(place.shape)
    data = os.pread(fd, nbytes, place.offset)
    if len(data) != nbytes:
        raise FormatError(f"{path}: file shrank after it was opened")
    return np.frombuffer(data, dtype="<f4").reshape(place.shape)


def load_checkpoint(path: str | Path) -> tuple[dict[str, np.ndarray], dict]:
    """Read a checkpoint, its tensors as fresh read-only arrays of the
    float32 they are stored in; ``open_checkpoint``'s checks raise
    FormatError naming the path."""
    with open_checkpoint(path) as (fd, places, header):
        return {name: read_tensor(path, fd, place)
                for name, place in places.items()}, header


def _scan_checkpoint(path: Path, fh) -> tuple[dict[str, TensorPlace], dict]:
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
    places: dict[str, TensorPlace] = {}
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
        places[name] = TensorPlace(tuple(shape), offset)
        offset = end
    if offset != size:
        raise FormatError(f"{path}: trailing bytes after declared tensors")
    return places, header


def check_layout(path: str | Path, kind: str, meta: dict,
                 tensors: Mapping[str, np.ndarray | TensorPlace],
                 layout: dict[str, tuple[int | str, ...]]) -> None:
    """Check a checkpoint's tensors, loaded or only placed, against a
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
           "TensorPlace", "open_checkpoint", "read_tensor", "load_checkpoint",
           "check_layout"]
