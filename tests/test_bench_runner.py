"""The layer-benchmark runner ``bench/run.py``: its child programs import
names that exist, its pairs alternate, its summary is the best and median
of every run, and it loads neither numpy nor the package itself."""

import ast
import importlib
import importlib.util
import json
import pathlib
import subprocess
import sys

import pytest

RUNNER = pathlib.Path(__file__).resolve().parents[1] / "bench" / "run.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_run", RUNNER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_suite_has_a_child_program_whose_package_names_exist(bench):
    programs = {"gamma_level": bench.GAMMA_LEVEL, "field_io": bench.FIELD_IO,
                "field_memory": bench.FIELD_MEMORY, "entropy_scan": bench.ENTROPY_SCAN}
    assert set(programs) == set(bench.SUITES)
    missing = []
    for suite, program in programs.items():
        imports = [node for node in ast.walk(ast.parse(program))
                   if isinstance(node, ast.ImportFrom) and node.module.startswith("chiralattice")]
        assert imports, suite
        for node in imports:
            owner = importlib.import_module(node.module)
            missing += [f"{suite}: {node.module}.{alias.name}" for alias in node.names
                        if not hasattr(owner, alias.name)]
    assert missing == []


def test_pairs_alternate_parent_first_and_the_summary_covers_every_run(bench, tmp_path,
                                                                        monkeypatch):
    # each run reports the times its order dictates, so the summary is known
    calls = []

    def child(checkout, program, *args):
        calls.append(checkout)
        k = len(calls)
        return {"times_s": {"a": [float(k), 10.0 + k]}, "values": {"v": (1.0).hex()},
                "level_traced_peak_mb": 1.0}

    monkeypatch.setattr(bench, "child", child)
    parent, out = str(tmp_path / "parent"), tmp_path / "bench.json"
    argv = ["gamma_level", "--parent", parent, "--pairs", "3", "--repeats", "1", "--out", str(out)]
    assert bench.main(argv) == 0
    assert calls == [parent, bench.ROOT, bench.ROOT, parent, parent, bench.ROOT]
    report = json.loads(out.read_text())
    # the parent ran 1st, 4th and 5th; the change 2nd, 3rd and 6th
    assert report["best_s"] == {"parent": {"a": 1.0}, "change": {"a": 2.0}}
    assert report["median_s"] == {"parent": {"a": 8.0}, "change": {"a": 9.0}}
    assert report["parent_over_change"] == {"a": 0.5}
    assert report["parent_over_change_median"] == {"a": 8.0 / 9.0}
    assert report["values_repeat"] and report["relative_difference"] == {"v": 0.0}
    assert report["pairs"] == 3 and report["repeats"] == 1


def test_a_flag_the_suite_does_not_read_is_a_usage_error(bench, capsys):
    with pytest.raises(SystemExit) as exc:
        bench.main(["field_memory", "--repeats", "2"])
    assert exc.value.code == 2
    assert "--repeats" in capsys.readouterr().err


def test_the_runner_imports_neither_numpy_nor_the_package():
    probe = (
        "import importlib.util, sys\n"
        f"spec = importlib.util.spec_from_file_location('bench_run', {str(RUNNER)!r})\n"
        "spec.loader.exec_module(importlib.util.module_from_spec(spec))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'chiralattice')))\n"
    )
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          check=True)
    assert done.stdout.strip() == "[]"
