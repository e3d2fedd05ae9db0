"""Every public op of `sumforge.tensor` has a caller in the library.

An op that only the tests call belongs in the tests, as a reference. The
check reads the sources with `ast`: a call counts when it names the op
through the `tensor` module (`T.op(...)`), through a name imported from it,
or, inside `tensor.py`, directly (the operator methods of `Tensor` call
`add`, `mul` and the rest that way). An op's calls to itself do not count.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sumforge"

# The tests' gradient oracle, kept in the library so callers can check
# their own ops.
EXEMPT = {"finite_diff_check"}


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


def _public_functions(tree: ast.Module) -> set[str]:
    return {
        node.name
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }


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
    ops = _public_functions(ast.parse((PACKAGE / "tensor.py").read_text(encoding="utf-8")))
    assert {"matmul", "attention", "projected_cross_entropy"} <= ops  # the parse found the ops
    called = set().union(*(_called_ops(path, ops) for path in sorted(PACKAGE.glob("*.py"))))
    unused = sorted(ops - called - _tracer_ops() - EXEMPT)
    assert not unused, f"tensor ops that nothing in src/ calls (move them into tests/): {unused}"


def test_a_call_from_the_op_itself_does_not_count(tmp_path):
    source = tmp_path / "tensor.py"
    source.write_text(
        "def add(a, b):\n    return add(a, b)\n\n"
        "class Tensor:\n    def __add__(self, other):\n        return mul(self, other)\n",
        encoding="utf-8",
    )
    assert _called_ops(source, {"add", "mul"}) == {"mul"}
