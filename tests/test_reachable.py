"""The reachability lint: no ``src/repro`` module exists only for its tests."""

from __future__ import annotations

import importlib.util
import pathlib


def _load_lint():
    repo = pathlib.Path(__file__).parent.parent
    spec = importlib.util.spec_from_file_location(
        "check_reachable", repo / "tools" / "check_reachable.py"
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_no_module_reached_only_from_tests():
    mod = _load_lint()
    assert mod.ROOT_MODULES == (
        "repro.cli", "repro.serve", "repro.engine", "repro.harness"
    )
    assert mod.ROOT_DIRS == ("benchmarks", "perfbench", "tools", "examples")
    assert mod.test_only() == []


def test_walk_follows_imports():
    mod = _load_lint()
    known = mod.module_files()
    from_cli = mod.reach({"repro.cli"}, known)
    # a submodule import reaches its parent packages and what they import
    assert {"repro", "repro.cli", "repro.core", "repro.core.pipeline"} <= from_cli
    assert "repro.gpu.kernels" in mod.scripts_reach(("tests",), known)
