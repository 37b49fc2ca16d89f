"""Feature-matrix storage and small vector utilities.

Matrices are float64 in memory and float32 on disk. A matrix file is a
checkpoint (see checkpoint.py) of kind ``features`` holding one 2-d tensor
named ``features``; its header also carries the file's ``video_id``.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .checkpoint import check_layout, load_checkpoint, save_checkpoint
from .data import Segment
from .errors import FormatError, ValidationError


def validate_matrix(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ValidationError(f"feature matrix must be 2-d and nonempty, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValidationError("feature matrix contains non-finite values")
    return m


def write_features(m: np.ndarray, path: str | Path, video_id: str) -> None:
    """Write a matrix as a ``features`` checkpoint; values are stored as
    float32."""
    save_checkpoint(path, {"features": validate_matrix(m)},
                    {"kind": "features", "video_id": video_id})


def read_features(path: str | Path) -> tuple[np.ndarray, str]:
    """Read a matrix written by write_features; returns (matrix, video_id).
    A departure from the container layout, another kind or tensor shape,
    an empty matrix or a non-string id raises FormatError naming the path."""
    tensors, meta = load_checkpoint(path)
    check_layout(path, "features", meta, tensors, {"features": ("rows", "dim")})
    m = tensors["features"]
    if m.size == 0:
        raise FormatError(f"{path}: empty feature matrix {m.shape[0]}x{m.shape[1]}")
    video_id = meta.get("video_id")
    if not isinstance(video_id, str):
        raise FormatError(f"{path}: video_id {video_id!r} is not a string")
    return m, video_id


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
