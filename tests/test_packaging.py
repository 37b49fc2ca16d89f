import ast
import importlib
import pkgutil
import sys
from pathlib import Path

import pytest

import stepalign
from stepalign import errors


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


# every module's API, as a literal: a name joins or leaves it only through
# an edit of this table. A name in __all__ checks what it is handed, and
# a name outside it takes checked values
_API = {
    "alignment": ["drop_dtw", "drop_dtw_stack", "decode_segments"],
    "checkpoint": ["save_checkpoint", "write_checkpoint", "StoredTensor",
                   "open_checkpoint", "load_checkpoint", "check_layout"],
    "classifier": ["NUM_CLASSES", "ClassifierParams", "ClassifierTrainConfig",
                   "ClassifierTraining", "detect_on_segments",
                   "detect_mistakes", "train_classifier_fold",
                   "save_classifier", "load_classifier"],
    "corpus": ["Corpus", "load_corpus", "read_features"],
    "data": ["TaskDomain", "Intent", "MistakeLabel", "CoarseLabel",
             "coarse_label", "Segment", "ProceduralText", "AnnotatedSegment",
             "AnnotatedVideo", "FoldSpec", "validate_video", "save_folds",
             "load_folds", "load_json", "save_json", "video_to_json",
             "text_to_json", "parse_video", "parse_text"],
    "errors": ["StepAlignError", "ValidationError", "InfeasibleSplitError",
               "ParseError", "FormatError", "NumericalError", "check_type",
               "check_real", "check_features", "check_video_inputs",
               "check_counts", "check_numbers", "check_flags"],
    "metrics": ["BACKGROUND", "DEFAULT_TIOU_THRESHOLDS", "Detection",
                "GroundTruthInstance", "MapResult", "rasterize", "gt_frame_labels", "frame_metrics",
                "map_at_tiou", "gt_instances"],
    "model": ["l2_normalize_rows", "ModelParams", "TrainConfig",
              "align_frames_to_slots", "align_video", "train_alignment_fold",
              "save_model", "load_model"],
    "optim": ["EpochLog", "FlatParams", "Training"],
    "splits": ["make_group_kfold"],
    "synth": ["SynthConfig", "SynthResult", "synth_corpus"],
}


def test_every_module_api_is_pinned():
    modules = sorted(info.name
                     for info in pkgutil.iter_modules(stepalign.__path__))
    assert modules == sorted(_API)
    for name in modules:
        module = importlib.import_module(f"stepalign.{name}")
        assert getattr(module, "__all__", None) == _API[name], name


def _api_of(tree: ast.Module) -> set[str]:
    return {name for node in tree.body if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets)
            for name in ast.literal_eval(node.value)}


def test_only_api_names_check_their_input():
    # a public function or class outside __all__ takes checked values, so
    # it names no errors.check_* and no ValidationError (or subclass); an
    # underscore helper checks for the name that calls it. NumericalError,
    # which forward_slots and fit raise on the numbers they compute, and
    # ParseError, which parse_segment raises on a file's record, report
    # what the call itself met
    root = Path(__file__).resolve().parents[1] / "src" / "stepalign"
    paths = sorted(root.glob("*.py"))
    assert paths
    checks = {"ValidationError", "InfeasibleSplitError"} | {
        name for name in errors.__all__ if name.startswith("check_")}
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        api = _api_of(tree)
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    or node.name.startswith("_") or node.name in api:
                continue
            named = {getattr(sub, "id", getattr(sub, "attr", None))
                     for sub in ast.walk(node)
                     if isinstance(sub, (ast.Name, ast.Attribute))}
            found += [f"{path.name}: {node.name} names {name}"
                      for name in sorted(named & checks)]
    assert not found


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


def test_every_imported_name_is_used_or_exported():
    # an import left behind when its last use goes, such as a check no
    # config runs any more, is dead code a test run would not notice
    root = Path(__file__).resolve().parents[1] / "src" / "stepalign"
    paths = sorted(root.glob("*.py"))
    assert paths
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported, exported = set(), _api_of(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((alias.asname or alias.name).partition(".")[0]
                                for alias in node.names)
            elif isinstance(node, ast.ImportFrom) \
                    and node.module != "__future__":
                imported.update(alias.asname or alias.name
                                for alias in node.names)
        loaded = {n.id for n in ast.walk(tree)
                  if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unused = sorted(imported - loaded - exported)
        assert not unused, f"{path.name}: {unused}"


def test_package_imports_only_stdlib_and_numpy():
    # the package is numpy-only: an import of any other installed
    # distribution would pass every other test on a machine that has it
    allowed = set(sys.stdlib_module_names) | {"numpy", "stepalign"}
    root = Path(__file__).resolve().parents[1] / "src" / "stepalign"
    paths = sorted(root.glob("*.py"))
    assert paths
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.partition(".")[0] in allowed, f"{path.name}: {name}"
