"""Workload definitions and output checks for the chiralattice benchmark.

Each workload is a fixed sequence of ``chiralattice`` CLI invocations.  Only
``field-pipeline`` has a free input that leaves its work unchanged (the
chirality direction and phase of the ground state), so only it draws inputs
from the seed.  Checks use the standard library only, so they never import
numpy before the timed import in the child process.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")

# Why each workload is in the benchmark; copied into BENCHMARK.json.
WHY = {
    "wall-aligned": "Headline |[chi]|^3/6 table: the wall potential takes half the run, "
    "energies on grids up to ~1M cells the rest, so cell_sum runs on few large arrays.",
    "wall-rotated": "Rotated wall: every lattice point has its own offset, so the per-point "
    "wall-potential quadrature takes ~99% of the run and sets peak memory.",
    "relax-wall": "Time to a stated gradient tolerance: thousands of cell_sum and f_gradient "
    "calls on 48x48 arrays, so per-call overhead dominates.",
    "field-pipeline": "The only workload that writes and reads lattice fields (~13 MB CSV "
    "each), plus entropy production, diagnostics and a ground state.",
}
NAMES = tuple(WHY)

RELAX_MAX_ITERS = 20000
RELAX_NX = 48
SQRT2_OVER_3 = math.sqrt(2.0) / 3.0
TENSION_BOUND = 0.25  # acceptance criterion 9
FIELD_N = 512
FIELD_L = 0.01
FIELD_ALPHA = 7.92
SCAN_ANGLES = 16


def draw_inputs(name: str, seed: int) -> dict:
    """Seed-drawn inputs of a workload (empty when it has no free input)."""
    if name != "field-pipeline":
        return {}
    rng = random.Random(seed)
    angle = rng.uniform(0.0, 2.0 * math.pi)
    return {
        "chi": [math.cos(angle), math.sin(angle)],
        "theta0": rng.uniform(0.0, 2.0 * math.pi),
    }


def steps(name: str, inputs: dict, out_dir: str) -> list[list[str]]:
    """CLI argument lists run one after another for one repetition."""
    pre = ["--out-dir", out_dir]
    if name == "wall-aligned":
        return [pre + ["gamma-table", "--levels", "5"]]
    if name == "wall-rotated":
        return [pre + ["gamma-table", "--wall-angle", "30", "--eps0", "0.04", "--levels", "2"]]
    if name == "relax-wall":
        return [pre + ["relax", "--tol-grad", "3e-8", "--max-iters", str(RELAX_MAX_ITERS)]]
    if name == "field-pipeline":
        n = str(FIELD_N)
        lattice = ["--l", repr(FIELD_L), "--alpha", repr(FIELD_ALPHA), "--nx", n, "--ny", n]
        chi = "{:.17g},{:.17g}".format(*inputs["chi"])
        return [
            pre + ["ground-state", f"--chi={chi}", "--theta0", repr(inputs["theta0"])] + lattice,
            pre + ["diagnose", "--field", os.path.join(out_dir, "ground_state_field.csv")] + lattice,
            pre + ["entropy-scan", "--nx", n, "--ny", n, "--angles", str(SCAN_ANGLES)],
        ]
    raise KeyError(name)


def _rows(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def _manifest(out_dir: str, command: str) -> dict:
    with open(os.path.join(out_dir, f"{command}_manifest.json")) as fh:
        return json.load(fh)


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * abs(b)


def _check_gamma(out_dir: str, expected: list[dict]) -> list[str]:
    rows = _rows(os.path.join(out_dir, "gamma_table.csv"))
    if len(rows) != len(expected):
        return [f"gamma table has {len(rows)} rows, expected {len(expected)}"]
    bad = []
    for row, ref in zip(rows, expected):
        n = int(row["n"])
        if not _close(row["Hn_pot"] + row["Hn_der"], row["Hn"], 1e-12):
            bad.append(f"row {n}: Hn != Hn_pot + Hn_der")
        for key in ("Hn", "AGs_energy", "limit"):
            if not _close(row[key], ref[key], 1e-9):
                bad.append(f"row {n}: {key} = {row[key]!r}, expected {ref[key]!r}")
    return bad


def _check_relax(out_dir: str) -> list[str]:
    bad = []
    trace = [r["F"] for r in _rows(os.path.join(out_dir, "relax_trace.csv"))]
    if any(b >= a for a, b in zip(trace, trace[1:])):
        bad.append("relax trace is not strictly decreasing")
    derived = _manifest(out_dir, "relax")["derived"]
    if derived["iterations"] >= RELAX_MAX_ITERS:
        bad.append(f"relax hit max_iters ({derived['iterations']}) before the tolerance")
    tension = derived["final_Hn"] / (derived["l"] * (RELAX_NX - 1))
    if abs(tension - SQRT2_OVER_3) / SQRT2_OVER_3 > TENSION_BOUND:
        bad.append(f"wall tension {tension!r} outside 25% of sqrt(2)/3")
    return bad


def _check_field(out_dir: str, expected: list[float]) -> list[str]:
    bad = []
    (energies,) = _rows(os.path.join(out_dir, "ground_state_energies.csv"))
    # criterion 1's bound on the bulk energy per cell of an exact ground state
    if energies["F"] / (FIELD_L**2 * FIELD_N**2) > 1e-18:
        bad.append(f"ground state has bulk F = {energies['F']!r}")
    with open(os.path.join(out_dir, "diagnose_report.json")) as fh:
        report = json.load(fh)
    if report["large_angle_cells"] != 0:
        bad.append(f"diagnose found {report['large_angle_cells']} large-angle cells")
    if report["curl_quantization_residual"] > 1e-10:
        bad.append(f"curl quantization residual {report['curl_quantization_residual']!r}")
    scan = [r["production"] for r in _rows(os.path.join(out_dir, "entropy_scan.csv"))]
    if len(scan) != len(expected) or not all(
        _close(a, b, 1e-12) for a, b in zip(scan, expected)
    ):
        bad.append("entropy-scan productions differ from the recorded values")
    return bad


def check(name: str, out_dir: str) -> list[str]:
    """Failed output checks of one repetition (empty when all pass)."""
    with open(EXPECTED_PATH) as fh:
        expected = json.load(fh)
    try:
        if name == "relax-wall":
            return _check_relax(out_dir)
        if name == "field-pipeline":
            return _check_field(out_dir, expected["field-pipeline"]["entropy_scan"])
        return _check_gamma(out_dir, expected[name]["gamma_table"])
    except (OSError, KeyError, ValueError) as exc:
        return [f"output missing or unreadable: {exc!r}"]
