"""Malformed feature files in a corpus directory, read by read_features
(corpus.py)."""

import numpy as np
import pytest

from stepalign.checkpoint import save_checkpoint
from stepalign.corpus import read_features
from stepalign.errors import FormatError

from test_corpus import _META


class TestFeatureIO:
    @pytest.mark.parametrize("tensors, meta, rule", [
        ({"features": np.ones((2, 3))}, {**_META, "kind": "classifier"},
         r"checkpoint kind 'classifier', not 'features'"),
        ({"features": np.ones(3)}, _META,
         r"tensor features has shape \(3,\), not \(2, 3\)$"),
        ({"features": np.ones((2, 3, 1))}, _META,
         r"tensor features has shape \(2, 3, 1\), not \(2, 3\)$"),
        ({"features": np.ones((2, 3)), "extra": np.ones(1)}, _META,
         r"tensors \['extra'\] are not in the features layout"),
        ({"features": np.ones((0, 3))}, _META,
         r"tensor features has shape \(0, 3\), not \(2, 3\)$"),
        ({"features": np.ones((2, 0))}, _META,
         r"tensor features has shape \(2, 0\), not \(2, 3\)$"),
        ({"features": np.ones((2, 3))}, {**_META, "video_id": 7},
         r"header names 7, not 'v'$"),
        ({"features": np.ones((2, 3))}, {"kind": "features"},
         r"header names None, not 'v'$"),
    ], ids=["other-kind", "1-d", "3-d", "stray-tensor", "zero-rows",
            "zero-dim", "int-id", "no-id"])
    def test_malformed_features_file_names_file_and_rule(self, tmp_path,
                                                         tensors, meta, rule):
        path = tmp_path / "v.fmtx"
        save_checkpoint(path, tensors, meta)
        with pytest.raises(FormatError, match=rf"v\.fmtx: {rule}"):
            read_features(path, 2, 3)
