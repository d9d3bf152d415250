"""The benchmark's tracer wraps library functions by name: each must exist."""

import ast
import importlib
import pathlib

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
