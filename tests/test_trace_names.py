"""The benchmark's tracer wraps library functions by name, and counts some
spans by the name of their caller: each name must exist and do what the
count assumes."""

import ast
import importlib
import inspect
import pathlib
import re
import textwrap

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _layers():
    """``LAYERS`` of ``perfbench/spans.py``, read from its source without running it."""
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYERS assignment in {SPANS}")


def test_every_traced_name_resolves_on_its_module():
    layers = _layers()
    assert layers
    missing = []
    for group, (module, names) in layers.items():
        owner = importlib.import_module(f"chiralattice.{module}")
        missing += [f"{group}: chiralattice.{module}.{name}" for name in names
                    if not callable(getattr(owner, name, None))]
    assert missing == []


def test_every_caller_name_calls_cell_sum_directly():
    # a "chiralattice.<module>:<function>" string is matched against the
    # caller frame of a cell_sum span (relaxation.energy_evals counts them),
    # so that function must exist and call cell_sum itself
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    callers = {node.value for node in ast.walk(tree)
               if isinstance(node, ast.Constant) and isinstance(node.value, str)
               and re.fullmatch(r"chiralattice\.\w+:\w+", node.value)}
    assert callers
    for caller in sorted(callers):
        module, name = caller.split(":")
        fn = getattr(importlib.import_module(module), name, None)
        assert inspect.isfunction(fn) and fn.__module__ == module, caller
        body = ast.parse(textwrap.dedent(inspect.getsource(fn)))
        called = {node.func.id for node in ast.walk(body)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
        assert "cell_sum" in called, caller
