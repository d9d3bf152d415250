"""Each per-cell quantity has one owner in the source.

|x|^2 and the dot product over the length-2 component axis are written once,
as ``lattice_core._sq_norm`` and ``lattice_core._cell_dot``; every other
module calls them, so no ``sum(..., axis=-1)`` reduction is left in
``src/`` to round a second way.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "chiralattice"
OWNED = ("_sq_norm", "_cell_dot")


def _trees():
    return {path.name: ast.parse(path.read_text(encoding="utf-8"), str(path))
            for path in sorted(SRC.glob("*.py"))}


def _is_minus_one(node) -> bool:
    return ast.literal_eval(node) == -1 if isinstance(node, (ast.Constant, ast.UnaryOp)) else False


def test_no_sum_over_the_last_axis():
    found = []
    for name, tree in _trees().items():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "sum"
                    and (any(k.arg == "axis" and _is_minus_one(k.value) for k in node.keywords)
                         or (len(node.args) > 1 and _is_minus_one(node.args[1])))):
                found.append(f"{name}:{node.lineno}")
    assert found == []


def test_each_cell_kernel_is_defined_once_in_lattice_core():
    defs = {owned: [] for owned in OWNED}
    for name, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name in defs:
                defs[node.name].append(name)
    assert defs == {owned: ["lattice_core.py"] for owned in OWNED}
