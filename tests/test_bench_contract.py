"""The names the benchmark harness reaches into sumforge by.

`perfbench/tracer.py` wraps public sumforge functions by attribute name, and
`perfbench/run.py` and `perfbench/stage.py` import a few more. The test
suite collects only `tests/`, so these checks are what stops a rename from
passing here and then breaking every traced benchmark run.
"""

from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
HARNESS = ROOT / "perfbench"

_INSTALL = """
import tracer
for inference in (False, True):
    tracer.install(tracer.Tracer(), inference=inference)
"""


def test_tracer_installs_against_the_sources():
    # A child interpreter: installing the tracer patches the modules.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), str(HARNESS), os.environ.get("PYTHONPATH", "")]
    )}
    done = subprocess.run(
        [sys.executable, "-c", _INSTALL], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr


def _sumforge_names(path: Path) -> list[tuple[str, str]]:
    """(module, attribute) pairs a harness file takes from sumforge: names in
    `from sumforge... import` statements, and attributes read off the modules
    imported that way."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names, modules = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("sumforge"):
            for alias in node.names:
                if node.module == "sumforge":  # `from sumforge import cli`
                    modules[alias.asname or alias.name] = f"sumforge.{alias.name}"
                else:
                    names.append((node.module, alias.name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            names.append((modules[node.value.id], node.attr))
    return names


@pytest.mark.parametrize("script", ["run.py", "stage.py"])
def test_harness_imports_resolve(script):
    names = _sumforge_names(HARNESS / script)
    assert names
    missing = [
        f"{module}.{attr}" for module, attr in names
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert not missing
