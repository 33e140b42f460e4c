"""Every exported name resolves: each submodule's ``__all__``, and the package
names the benchmark under ``bench/`` imports."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import gfclust

SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(gfclust.__path__))
BENCH = Path(__file__).resolve().parents[1] / "bench"


def bench_imports():
    """``(module, name)`` for each ``from gfclust[.x] import name`` and
    ``gfclust.name`` attribute in the benchmark's sources."""
    found = set()
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "gfclust":
                found.update((node.module, alias.name) for alias in node.names)
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id == "gfclust"):
                found.add(("gfclust", node.attr))
    return sorted(found)


@pytest.mark.parametrize("module", SUBMODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(f"gfclust.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


def test_bench_imports_resolve():
    names = bench_imports()
    assert ("gfclust", "train") in names
    missing = [(m, n) for m, n in names if not hasattr(importlib.import_module(m), n)]
    assert missing == []
