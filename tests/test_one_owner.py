"""Each per-cell quantity has one owner in the source.

|x|^2 and the dot product over the length-2 component axis are written once,
as ``lattice_core._sq_norm`` and ``lattice_core._cell_dot``; every other
module calls them, so no ``sum(..., axis=-1)`` reduction is left in
``src/`` to round a second way.

The row-tile layout has one owner too: only ``lattice_core`` makes exact
accumulators, applies the reach rule to a bare rect, reads the tile size or
builds an ``np.ix_`` index; the tiled energies get their tiles, cells and
sums from ``lattice_core._tile_sums``.  Only the streams the CLI runs call
that loop: ``energy_E``, ``energy_F`` and ``energy_Hn``, a gamma-table
level, the entropy scan's production and the ``diagnose`` report.

The scale rule ``delta = eps**delta_exponent`` is written once, in
``ScalingSchedule.geometric``: ``relax`` takes its scales as level 0 of that
schedule, as gamma-table does.

Each ``diagnose`` check is one public function that takes the fields it
reads, so ``cli`` imports no private name of the package.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "chiralattice"
OWNED = ("_sq_norm", "_cell_dot")
TILE_LAYOUT = {"_ExactSum", "_reach_rect", "_TILE_CELLS", "ix_"}


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


def test_only_lattice_core_knows_the_tile_layout():
    found = []
    for name, tree in _trees().items():
        if name == "lattice_core.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used = {node.id}
            elif isinstance(node, ast.Attribute):
                used = {node.attr}
            elif isinstance(node, ast.ImportFrom):
                used = {alias.name for alias in node.names}
            else:
                continue
            found += [f"{name}:{node.lineno}:{u}" for u in sorted(used & TILE_LAYOUT)]
    assert found == []


def test_only_the_cli_streams_call_the_tile_loop():
    callers = []
    for name, tree in _trees().items():
        for top in tree.body:
            callers += [f"{name}:{getattr(top, 'name', '<module>')}"
                        for node in ast.walk(top)
                        if (isinstance(node, ast.Name) and node.id == "_tile_sums")
                        or (isinstance(node, ast.Attribute) and node.attr == "_tile_sums")]
    assert sorted(callers) == [
        "diagnostics.py:diagnose_report", "entropy.py:total_variation_production",
        "recovery_limsup.py:_level_energies", "spin_energy.py:energy_E", "spin_energy.py:energy_F",
        "spin_energy.py:energy_Hn",
    ]


def _scoped(node, scope=""):
    """Each node under ``node`` with the dotted names of its enclosing classes and functions."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = f"{scope}.{child.name}" if scope else child.name
        yield inner, child
        yield from _scoped(child, inner)


def test_the_scale_rule_is_written_once():
    found = [f"{name}:{scope}" for name, tree in _trees().items()
             for scope, node in _scoped(tree)
             if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
             and isinstance(node.right, ast.Name) and node.right.id == "delta_exponent"]
    assert found == ["recovery_limsup.py:ScalingSchedule.geometric"]


def test_the_cli_imports_no_private_name_of_the_package():
    # a private "from the fields the caller holds" twin of a public check
    # would hide the check from a tracer that wraps the public names
    private = [f"{node.lineno}:{alias.name}" for node in ast.walk(_trees()["cli.py"])
               if isinstance(node, ast.ImportFrom) and node.level > 0
               for alias in node.names
               if alias.name.startswith("_") and not alias.name.startswith("__")]
    assert private == []
