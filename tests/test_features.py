import json
import struct

import numpy as np
import pytest

from stepalign.data import Segment
from stepalign.errors import FormatError, ValidationError
from stepalign.features import (
    cosine_matrix, l2_normalize_rows, mean_pool, read_features, write_features,
)

from oracles import cosine


class TestFeatureIO:
    def test_round_trip_float32_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        m = rng.normal(size=(7, 5)).astype(np.float32).astype(np.float64)
        path = tmp_path / "v.fmtx"
        write_features(m, path, video_id="v")
        loaded, vid = read_features(path)
        assert vid == "v"
        assert loaded.dtype == np.float64
        np.testing.assert_array_equal(loaded, m)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "v.fmtx"
        write_features(np.ones((4, 4)), path, video_id="v")
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(FormatError, match="truncated"):
            read_features(path)

    def test_header_mismatch_with_sidecar(self, tmp_path):
        path = tmp_path / "v.fmtx"
        write_features(np.ones((4, 8)), path, video_id="v")
        sidecar = path.with_name(path.name + ".json")
        obj = json.loads(sidecar.read_text())
        obj["dim"] = 4
        sidecar.write_text(json.dumps(obj))
        with pytest.raises(FormatError, match="header mismatch"):
            read_features(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "v.fmtx"
        write_features(np.ones((2, 2)), path, video_id="v")
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="magic"):
            read_features(path)

    def test_non_finite_payload(self, tmp_path):
        path = tmp_path / "v.fmtx"
        header = struct.pack("<4sIII", b"FMTX", 1, 2, 0)
        payload = np.array([[1.0, np.nan]], dtype="<f4").tobytes()
        path.write_bytes(header + payload)
        sidecar = {"video_id": "v", "rows": 1, "dim": 2}
        path.with_name(path.name + ".json").write_text(json.dumps(sidecar))
        with pytest.raises(FormatError, match="non-finite"):
            read_features(path)

    def test_write_rejects_nan(self, tmp_path):
        with pytest.raises(ValidationError, match="non-finite"):
            write_features(np.array([[np.nan]]), tmp_path / "v.fmtx", "v")


class TestMeanPool:
    def test_single_row_identity(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(mean_pool(m, Segment(1, 2)), m[1])

    def test_symmetric_pair(self):
        m = np.array([[1.0, 1.0], [3.0, 3.0]])
        np.testing.assert_array_equal(mean_pool(m, Segment(0, 2)), [2.0, 2.0])

    def test_matches_summation_oracle(self):
        rng = np.random.default_rng(5)
        m = rng.normal(size=(5, 3))
        seg = Segment(1, 4)
        # oracle: explicit accumulation loop
        acc = np.zeros(3)
        for row in range(seg.start, seg.end):
            acc += m[row]
        expected = acc / seg.length
        np.testing.assert_allclose(mean_pool(m, seg), expected, atol=1e-12)

    def test_out_of_bounds_rejected(self):
        with pytest.raises(ValidationError):
            mean_pool(np.ones((3, 2)), Segment(2, 5))


class TestCosine:
    def test_self_similarity(self):
        u = np.array([0.3, -2.0, 1.5])
        assert cosine(u, u) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_antipodal(self):
        assert cosine(np.array([1.0, 0.0]), np.array([-1.0, 0.0])) == -1.0

    def test_zero_vector_rejected(self):
        with pytest.raises(ValidationError, match="zero vector"):
            cosine(np.zeros(3), np.ones(3))

    def test_matrix_matches_pairwise(self):
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(5, 4))
        got = cosine_matrix(a, b)
        for i in range(3):
            for j in range(5):
                assert got[i, j] == pytest.approx(cosine(a[i], b[j]), abs=1e-12)

    def test_normalize_rows(self):
        rng = np.random.default_rng(2)
        m = rng.normal(size=(4, 6))
        norms = np.linalg.norm(l2_normalize_rows(m), axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)
