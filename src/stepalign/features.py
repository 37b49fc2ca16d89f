"""Feature-matrix storage and small vector utilities.

Matrices are float64 in memory and float32 on disk. The binary layout is a
16-byte header (magic ``FMTX``, u32 rows, u32 dim, u32 reserved zero, all
little-endian) followed by rows*dim little-endian float32 values in
row-major order. Every matrix file has a JSON sidecar ``<file>.json`` with
``{"video_id": ..., "rows": ..., "dim": ...}``.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .data import Segment
from .errors import FormatError, ValidationError

_MAGIC = b"FMTX"
_HEADER = struct.Struct("<4sIII")


def validate_matrix(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ValidationError(f"feature matrix must be 2-d and nonempty, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValidationError("feature matrix contains non-finite values")
    return m


def write_features(m: np.ndarray, path: str | Path, video_id: str) -> None:
    """Write a matrix plus its JSON sidecar. Values are stored as float32."""
    m = validate_matrix(m)
    path = Path(path)
    rows, dim = m.shape
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, rows, dim, 0))
        fh.write(np.ascontiguousarray(m, dtype="<f4").tobytes())
    sidecar = {"video_id": video_id, "rows": rows, "dim": dim}
    with open(path.with_name(path.name + ".json"), "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, sort_keys=True)
        fh.write("\n")


def read_features(path: str | Path) -> tuple[np.ndarray, str]:
    """Read a matrix written by write_features; returns (matrix, video_id).

    Distinct failures raise distinct messages: bad magic, truncated
    payload, sidecar/header mismatch, and non-finite payload.
    """
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < _HEADER.size:
        raise FormatError(f"{path}: truncated header ({len(raw)} bytes)")
    magic, rows, dim, _ = _HEADER.unpack_from(raw)
    if magic != _MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    if rows < 1 or dim < 1:
        raise FormatError(f"{path}: header declares empty matrix {rows}x{dim}")
    expected = _HEADER.size + rows * dim * 4
    if len(raw) < expected:
        raise FormatError(
            f"{path}: truncated payload, expected {expected} bytes, have {len(raw)}")
    if len(raw) > expected:
        raise FormatError(f"{path}: trailing bytes beyond declared payload")

    sidecar_path = path.with_name(path.name + ".json")
    try:
        with open(sidecar_path, "r", encoding="utf-8") as fh:
            sidecar = json.load(fh)
    except FileNotFoundError:
        raise FormatError(f"{sidecar_path}: sidecar missing") from None
    except json.JSONDecodeError as exc:
        raise FormatError(f"{sidecar_path}: invalid sidecar: {exc.msg}") from None
    if sidecar.get("rows") != rows or sidecar.get("dim") != dim:
        raise FormatError(
            f"{path}: header mismatch, sidecar says "
            f"{sidecar.get('rows')}x{sidecar.get('dim')}, header says {rows}x{dim}")

    data = np.frombuffer(raw, dtype="<f4", offset=_HEADER.size)
    m = data.reshape(rows, dim).astype(np.float64)
    if not np.all(np.isfinite(m)):
        raise FormatError(f"{path}: payload contains non-finite values")
    return m, str(sidecar.get("video_id", ""))


def mean_pool(m: np.ndarray, seg: Segment) -> np.ndarray:
    """Arithmetic mean of the rows in [seg.start, seg.end)."""
    rows = m.shape[0]
    if not (0 <= seg.start < seg.end <= rows):
        raise ValidationError(
            f"segment [{seg.start}, {seg.end}) outside matrix with {rows} rows")
    return m[seg.start:seg.end].mean(axis=0)


def l2_normalize_rows(m: np.ndarray) -> np.ndarray:
    """Rows scaled to unit norm; zero rows are rejected."""
    m = np.asarray(m, dtype=np.float64)
    norms = np.linalg.norm(m, axis=-1, keepdims=True)
    if np.any(norms == 0.0):
        raise ValidationError("cannot l2-normalize a zero row")
    return m / norms


def cosine_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise cosine similarities between rows of a and rows of b."""
    return l2_normalize_rows(a) @ l2_normalize_rows(b).T


__all__ = [
    "validate_matrix", "write_features", "read_features",
    "mean_pool", "l2_normalize_rows", "cosine_matrix",
]
