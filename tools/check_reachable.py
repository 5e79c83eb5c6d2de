#!/usr/bin/env python
"""Lint: every ``src/repro`` module must be reached from outside ``tests/``.

Walks ``import`` statements with :mod:`ast` from the roots below and lists
each ``src/repro`` module that ``tests/`` imports but no root reaches.  Such
a module serves no figure, bench, tool, example or production path; it
exists only for its own tests.

Roots: ``repro.cli``, ``repro.serve``, ``repro.engine``, ``repro.harness``
and every script under ``benchmarks/``, ``perfbench/``, ``tools/`` and
``examples/``.  Importing ``a.b.c`` also reaches the packages ``a`` and
``a.b``, because Python runs their ``__init__`` first.

Usage::

    python tools/check_reachable.py   # exit 1 if any module is listed
"""

from __future__ import annotations

import ast
import pathlib
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO / "src"
ROOT_MODULES = ("repro.cli", "repro.serve", "repro.engine", "repro.harness")
ROOT_DIRS = ("benchmarks", "perfbench", "tools", "examples")


def module_files() -> dict[str, pathlib.Path]:
    """Map every dotted ``repro`` module name to its source file."""
    files = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        files[".".join(parts)] = path
    return files


def imports_of(path: pathlib.Path, module: str | None,
               known: dict[str, pathlib.Path]) -> set[str]:
    """Known modules that ``path`` (the file of ``module``, if any) imports."""
    if module is None:
        package = ""
    elif path.name == "__init__.py":
        package = module
    else:
        package = module.rpartition(".")[0]
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.rsplit(".", node.level - 1)[0]
                base = f"{anchor}.{base}" if base else anchor
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    reached = set()
    for name in names:
        parts = name.split(".")
        reached.update(".".join(parts[:i]) for i in range(1, len(parts) + 1))
    return reached & known.keys()


def reach(start: set[str], known: dict[str, pathlib.Path]) -> set[str]:
    """Close ``start`` over the import graph of ``known`` modules."""
    seen: set[str] = set()
    todo = list(start)
    while todo:
        mod = todo.pop()
        if mod in seen:
            continue
        seen.add(mod)
        todo.extend(imports_of(known[mod], mod, known) - seen)
    return seen


def scripts_reach(dirs: tuple[str, ...], known: dict[str, pathlib.Path]) -> set[str]:
    """Modules imported by any script under ``dirs`` (relative to the repo)."""
    direct: set[str] = set()
    for d in dirs:
        for path in sorted((REPO / d).rglob("*.py")):
            direct |= imports_of(path, None, known)
    return reach(direct, known)


def test_only() -> list[str]:
    """Modules ``tests/`` reaches and no root reaches, sorted."""
    known = module_files()
    from_roots = reach(set(ROOT_MODULES), known) | scripts_reach(ROOT_DIRS, known)
    return sorted(scripts_reach(("tests",), known) - from_roots)


def main() -> int:
    names = test_only()
    for name in names:
        print(name)
    if names:
        print(f"\n{len(names)} module(s) reached only from tests/ — delete "
              "them or use them from a figure, bench, tool or example.",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
