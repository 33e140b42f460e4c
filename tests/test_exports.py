"""Every exported name resolves: each submodule's ``__all__``, the package
names the benchmark under ``bench/`` imports, and each ``module.name`` that a
docstring of the package names. Importing and running the
package loads no part of scipy beyond ``scipy.sparse``, and training calls
every ``Tensor`` method the package defines."""

import ast
import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
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


def docstring_references():
    """``(module, name)`` for each ````module.name```` in a docstring of the
    package's sources, with ``module`` a submodule and ``name`` possibly dotted;
    a leading ``gfclust.`` is dropped."""
    found = set()
    for path in sorted(Path(gfclust.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
                for module, name in re.findall(r"``(?:gfclust\.)?(\w+)\.([\w.]+)``",
                                               ast.get_docstring(node) or ""):
                    if module in SUBMODULES:
                        found.add((module, name))
    return sorted(found)


def resolves(module: str, name: str) -> bool:
    obj = importlib.import_module(f"gfclust.{module}")
    for attr in name.split("."):
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def test_docstring_references_resolve():
    refs = docstring_references()
    assert ("encoders", "_factored_mse") in refs
    assert [(m, n) for m, n in refs if not resolves(m, n)] == []


# scipy.optimize, which brings scipy.linalg and scipy.sparse.linalg along,
# costs about 27 MB of resident memory per process
_HEAVY_SCIPY = ("scipy.optimize", "scipy.linalg", "scipy.sparse.linalg")

_TINY_RUN = """
import json, sys
from gfclust import EncoderConfig, SyntheticSpec, TrainConfig, generate_synthetic, train
g = generate_synthetic(SyntheticSpec(n_nodes=64, n_clusters=2, n_views=2, seed=0))
cfg = TrainConfig(epochs=1, encoder=EncoderConfig(latent_dim=4, hidden_dim=8, epochs=1))
assert train(g, cfg).final["acc"] is not None
print(json.dumps(sorted(sys.modules)))
"""


def run_fresh(code: str):
    """Run ``code`` in a fresh interpreter on this package; its last stdout line as JSON."""
    env = dict(os.environ)
    src = str(Path(gfclust.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    return json.loads(out.stdout.splitlines()[-1])


def test_import_and_train_load_no_heavy_scipy_module():
    loaded = run_fresh(_TINY_RUN)
    heavy = [m for m in loaded if m.startswith(_HEAVY_SCIPY)]
    assert heavy == []


# every method and property getter of Tensor is wrapped with a call counter,
# then tiny runs cover both adjacency losses, the raw-adjacency filter, the
# detached kernel and the step without the KL term, whose kernel and filter
# run untaped
_OP_COUNT_RUN = """
import collections, json
from dataclasses import replace
from gfclust import EncoderConfig, FilterConfig, SyntheticSpec, TrainConfig, generate_synthetic, train
from gfclust.autograd import Tensor

calls = collections.Counter()
for name, attr in list(vars(Tensor).items()):
    fn = attr.fget if isinstance(attr, property) else getattr(attr, "__func__", attr)
    if name == "__repr__" or not callable(fn):
        continue
    calls[name] = 0

    def counted(*args, _fn=fn, _name=name, **kwargs):
        calls[_name] += 1
        return _fn(*args, **kwargs)

    if isinstance(attr, property):
        counted = property(counted)
    elif isinstance(attr, staticmethod):
        counted = staticmethod(counted)
    setattr(Tensor, name, counted)

g = generate_synthetic(SyntheticSpec(n_nodes=64, n_clusters=2, n_views=2, seed=0))
base = TrainConfig(epochs=2, hr_refresh_interval=1,
                   encoder=EncoderConfig(latent_dim=4, hidden_dim=8, epochs=1))
for cfg in (base, replace(base, filter=FilterConfig(matrix_source="raw_adjacency")),
            replace(base, detach_s=True), replace(base, gamma_kl=0.0)):
    train(g, cfg)
print(json.dumps(calls))
"""


def test_training_calls_every_tensor_method():
    # an op only tests use belongs with the oracles in tests/oracles.py
    calls = run_fresh(_OP_COUNT_RUN)
    assert "backward" in calls and "__matmul__" in calls
    assert [name for name, count in calls.items() if count == 0] == []
