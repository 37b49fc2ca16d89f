import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import stepalign


def test_every_console_script_target_imports():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        entry = getattr(importlib.import_module(module), attr)
        assert callable(entry), name


def test_every_exported_name_resolves():
    modules = [info.name for info in pkgutil.iter_modules(stepalign.__path__)]
    assert {"corpus", "data", "model", "classifier"} <= set(modules)
    for name in modules:
        module = importlib.import_module(f"stepalign.{name}")
        for attr in getattr(module, "__all__", ()):
            assert hasattr(module, attr), f"stepalign.{name}.{attr}"


def test_every_module_has_tests_and_a_readme_line():
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text(encoding="utf-8")
    modules = sorted(p.stem for p in (root / "src" / "stepalign").glob("*.py")
                     if p.stem != "__init__")
    assert modules
    for name in modules:
        assert (root / "tests" / f"test_{name}.py").is_file(), name
        assert f"- `{name}.py`: " in readme, name
    # and back: every test file names a module, apart from the helpers
    # and this file, which tests the package as a whole
    exempt = {"oracles.py", "conftest.py", "test_packaging.py"}
    for path in (root / "tests").glob("*.py"):
        if path.name not in exempt:
            assert path.stem.removeprefix("test_") in modules, path.name


def test_every_private_top_level_name_is_used_in_its_module():
    root = Path(__file__).resolve().parents[1] / "src" / "stepalign"
    paths = sorted(root.glob("*.py"))
    assert paths
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined = set()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                defined.update(n.id for n in ast.walk(node)
                               if isinstance(n, ast.Name)
                               and isinstance(n.ctx, ast.Store))
        loaded = {n.id for n in ast.walk(tree)
                  if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        dead = sorted(name for name in defined - loaded
                      if name.startswith("_") and not name.endswith("__"))
        assert not dead, f"{path.name}: {dead}"
