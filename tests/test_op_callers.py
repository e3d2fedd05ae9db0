"""The op registry `sumforge.tensor.OPS` is complete, and every op in it
has a caller in the library.

An op that only the tests call belongs in the tests, as a reference. Two
checks say so. The static one reads the sources with `ast`: a call counts
when it names the op through the `tensor` module (`T.op(...)`), through a
name imported from it, or, inside `tensor.py`, directly (the `+` and `/` of
`Tensor` call `add` and `mul` that way). An op's calls to itself do not
count. The census runs the pipeline's stages under `op_hook` and counts only
the ops that run.
"""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np

from conftest import synthetic_example
from sumforge import tensor as T
from sumforge.infer import BeamConfig, ExtConfig, beam_search, summarize_ext
from sumforge.model import ModelConfig, build_model
from sumforge.train import TrainConfig, prefit_encoder, train_abs, train_ext

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sumforge"


def _tracer_ops() -> set[str]:
    """TENSOR_OPS as perfbench/tracer.py spells it: the tracer looks these
    up by name, so they stay until it stops doing so."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TENSOR_OPS" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    raise AssertionError("perfbench/tracer.py defines no TENSOR_OPS")


def _tensor_names(tree: ast.Module) -> tuple[set[str], dict[str, str]]:
    """The local names bound to the tensor module, and the local names of
    what a module imports from it."""
    modules, imported = set(), {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or node.level != 1:
            continue
        for alias in node.names:
            if node.module is None and alias.name == "tensor":
                modules.add(alias.asname or alias.name)
            elif node.module == "tensor":
                imported[alias.asname or alias.name] = alias.name
    return modules, imported


def _called_ops(path: Path, ops: set[str]) -> set[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules, imported = _tensor_names(tree)
    if path.name == "tensor.py":
        imported.update({op: op for op in ops})
    called = set()

    def visit(node: ast.AST, inside: str | None) -> None:
        if isinstance(node, ast.FunctionDef):
            inside = node.name if inside is None else inside
        if isinstance(node, ast.Call):
            func, name = node.func, None
            if isinstance(func, ast.Name):
                name = imported.get(func.id)
            elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) and func.value.id in modules:
                name = func.attr
            if name in ops and name != inside:
                called.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, None)
    return called


def test_every_public_tensor_op_is_called_in_src():
    ops = set(T.OPS)
    called = set().union(*(_called_ops(path, ops) for path in sorted(PACKAGE.glob("*.py"))))
    unused = sorted(ops - called - _tracer_ops())
    assert not unused, f"tensor ops that nothing in src/ calls (move them into tests/): {unused}"


def test_every_function_that_records_a_vertex_is_a_registered_op():
    """A module-level function of tensor.py that calls `_make` is an op: it
    carries `@op`, so `OPS` lists it and `op_hook` sees it; and every `@op`
    name is public."""
    tree = ast.parse((PACKAGE / "tensor.py").read_text(encoding="utf-8"))
    functions = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
    decorated = {
        f.name for f in functions
        if any(isinstance(d, ast.Name) and d.id == "op" for d in f.decorator_list)
    }
    records = {
        f.name for f in functions
        if any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "_make"
               for n in ast.walk(f))
    }
    assert {"matmul", "attention_block", "projected_cross_entropy"} <= records  # the parse found the ops
    missing = sorted(records - decorated)
    assert not missing, f"tensor functions that record a vertex without @op: {missing}"
    assert not {name for name in decorated if name.startswith("_")}, "a private function carries @op"
    assert decorated == set(T.OPS)


def test_a_call_from_the_op_itself_does_not_count(tmp_path):
    source = tmp_path / "tensor.py"
    source.write_text(
        "def add(a, b):\n    return add(a, b)\n\n"
        "class Tensor:\n    def __add__(self, other):\n        return mul(self, other)\n",
        encoding="utf-8",
    )
    assert _called_ops(source, {"add", "mul"}) == {"mul"}


def _census() -> set[tuple[str, str, bool]]:
    """(op, "forward" or "backward", grad mode) of every op call and
    backward closure in one tiny step of each training loop (prefit, ext,
    abs), an ext summary and an abs beam decode."""
    config = ModelConfig(vocab_size=50, d_model=8, n_heads=2, d_ff=16, n_enc_layers=2,
                         n_dec_layers=2, max_positions=32, dropout=0.1)
    rng = np.random.default_rng(0)
    examples = [synthetic_example(rng) for _ in range(2)]
    train = TrainConfig(max_steps=1, batch_size=2)
    calls = set()

    def hook(name, pass_, fn, *args, **kwargs):
        calls.add((name, pass_, T.grad_enabled()))
        return fn(*args, **kwargs)

    with T.op_hook(hook):
        prefit_encoder(examples, build_model(config, "encoder", seed=1), train,
                       mask_id=4, pad_id=0, special_ids={0, 1, 2, 3, 4})
        ext, abs_ = build_model(config, "ext", seed=2), build_model(config, "abs", seed=3)
        train_ext(examples, ext, train, pad_id=0)
        train_abs(examples, abs_, train, pad_id=0)
        summarize_ext(ext, examples[0], ExtConfig(k=2))
        beam_search(abs_, examples[0], BeamConfig(max_len=6, min_len=2, beam_size=3), bos_id=5, eos_id=6)
    return calls


def test_every_tensor_op_runs_in_the_pipeline():
    calls = _census()
    assert {"attention_block", "ff_block", "projected_cross_entropy", "bce_with_logits"} <= {
        name for name, pass_, grad in calls if pass_ == "backward"
    }
    assert ("attention_block", "forward", False) in calls  # the summaries ran
    unused = sorted(set(T.OPS) - {name for name, _, _ in calls} - _tracer_ops())
    assert not unused, f"tensor ops that no pipeline stage runs (move them into tests/): {unused}"
