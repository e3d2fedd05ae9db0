"""The names the benchmark harness reaches into sumforge by.

`perfbench/tracer.py` wraps public sumforge functions by attribute name, and
`perfbench/run.py` and `perfbench/stage.py` import a few more, and
`stage.py` writes what `infer.beam_search` returns as JSON. The test
suite collects only `tests/`, so these checks are what stops a rename from
passing here and then breaking every traced benchmark run.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import SPECIALS
from sumforge import cli, infer
from sumforge.model import ModelConfig, build_model, save_checkpoint

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


def test_summarize_hands_stage_json_ready_beam_ids(tmp_path, monkeypatch):
    """`stage.py` swaps `infer.beam_search` for a recorder and `json.dumps`
    the ids it returns, so `summarize --task abs` must call it through that
    name and get back a list of Python ints, whether the forced-length beam
    ends in EOS or falls back to a prefix without one."""
    words = ["the", "cat", "sat", "on", "mat", "."]
    vocab = tmp_path / "vocab.txt"
    vocab.write_text("\n".join(SPECIALS + words) + "\n", encoding="utf-8")
    (tmp_path / "doc.txt").write_text("the cat sat on the mat .", encoding="utf-8")
    model = build_model(ModelConfig(
        vocab_size=len(SPECIALS) + len(words), d_model=8, n_heads=2, d_ff=16,
        n_enc_layers=1, n_dec_layers=1, max_positions=32, dropout=0.0,
    ), "abs", 0)
    # A constant final hidden state of ones makes each token's logit the sum
    # of its embedding row, so the EOS row alone decides where EOS ranks.
    model.params["decoder.final_ln.gamma"].data[:] = 0.0
    model.params["decoder.final_ln.beta"].data[:] = 1.0
    eos = SPECIALS.index("[unused1]")

    returned = []
    beam_search = infer.beam_search

    def recording(*args, **kwargs):
        returned.append(beam_search(*args, **kwargs))
        return returned[-1]

    monkeypatch.setattr(infer, "beam_search", recording)
    for sign in (1.0, -1.0):  # EOS the likeliest token, then the least likely
        model.params["encoder.tok_emb"].data[eos] = sign * 5.0
        save_checkpoint(model, tmp_path / "abs.ckpt")
        assert cli.main([
            "summarize", "--task", "abs", "--checkpoint", str(tmp_path / "abs.ckpt"),
            "--vocab", str(vocab), "--input", str(tmp_path / "doc.txt"),
            "--beam", "3", "--min-len", "4", "--max-len", "4",
        ]) == 0
    [ended, cut] = returned
    assert ended[-1] == eos and eos not in cut
    for ids in returned:
        assert type(ids) is list and all(type(i) is int for i in ids)
        assert len(ids) - 1 == 4
        json.dumps(ids)
