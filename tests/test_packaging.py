import importlib
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")


def test_every_console_script_target_imports():
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        entry = getattr(importlib.import_module(module), attr)
        assert callable(entry), name
