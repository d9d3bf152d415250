"""Layer benchmarks: ``python3 bench/run.py SUITE [flags]`` from the root of a
source checkout.

Each suite runs a child program in fresh Python processes that import
``chiralattice`` from ``src/`` of a checkout, with the six BLAS and OpenMP
thread variables that perfbench pins set to 1 and no bytecode written.  With
``--parent DIR`` a second checkout runs the same children, the two
alternating within each of ``--pairs`` pairs, the parent first in odd pairs.
The JSON written to ``--out`` (default ``BENCH_<suite>.json``) holds every
run and, for the timed suites, the best and the median of each time over all
runs of a checkout and the parent's over this checkout's.

- ``gamma_level [--repeats 5]``: ``gamma_limsup_experiment`` on the aligned
  wall at level 4 of the default schedule alone (982 x 982, the largest level
  of ``gamma-table --levels 5``) and ``energy_Hn`` of the unit field with lift
  ``2 sin(0.05 i + 0.3) + 0.02 j + 0.1 sin(0.7 j)`` on a periodic 1024 x 1024
  grid (``alpha = 7.5``); their values as ``float.hex`` and the
  ``tracemalloc`` peak of one level.  ``values_repeat`` holds when every run
  of a checkout gives the same values; ``relative_difference`` compares the
  checkouts, whose values may differ.
- ``field_io [--repeats 3]``: ``write_field_csv``, then ``read_field_csv``, of
  five fields on open 512 x 512 and 2048 x 2048 grids: ``helix``, ``zero``,
  ``above_one`` (in ``[1, 101)``), ``short`` (2 decimals) and ``late_tiny``
  (two rows of ``3e-5`` at 78% of the grid, where the reader's numpy path
  hands the rest to ``np.loadtxt``); the ``tracemalloc`` peak of one write
  and read of a 512 x 512 and a 2 x 131072 helix.  ``sha256_equal`` compares
  every file's and every read-back's sha256 across all runs.
- ``field_memory [--large 2048] [--pairs 10]``: ``ru_maxrss`` and wall time
  of ``ground-state``, ``diagnose`` of its field, ``entropy-scan`` of the
  built-in wall with 16 angles and (at 512 x 512 only) the three in one
  process, on open n x n grids with ``--l 0.01 --alpha 7.92`` as in
  perfbench's field-pipeline: ``--pairs`` runs at 512 x 512, one per checkout
  at ``--large`` (0 skips it).  ``same_bytes`` compares the outputs across
  checkouts.
- ``entropy_scan [--repeats 5]``: ``total_variation_productions`` of 16 axes
  at ``2 pi k / 16``, as ``entropy-scan`` scans them, on the subcommand's
  built-in wall and on seeded unit vectors at uniform angles, 512 x 512 open
  grids of spacing 1/128.  ``sha256_equal`` compares the productions'
  ``float.hex`` digests across all runs.

perfbench (``perfbench/``) is the gate that every change is held to; it
times whole CLI runs, and only a change to the benchmark edits it.  A suite
here times one layer and records values or digests to compare two
checkouts, so a change that speeds up a layer adds a suite: a child program
and what it compares.  This process imports neither numpy nor the package:
a child's ``ru_maxrss`` can include the peak of the process that started it
(Linux keeps the larger of the two across ``vfork`` and ``exec``).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
THREAD_VARS = (  # the BLAS/OpenMP thread variables perfbench/run.py pins
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

TIMED = """\
import hashlib, json, math, os, sys, tempfile, time, tracemalloc
import numpy as np

def timed(op, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = op()
        times.append(time.perf_counter() - t0)
    return times, result

def traced(op):
    tracemalloc.start()
    op()
    peak = tracemalloc.get_traced_memory()[1] / 1e6
    tracemalloc.stop()
    return peak
"""  # the head of each timed suite's child program

GAMMA_LEVEL = TIMED + """\
from chiralattice import (Boundary, Grid, ModelParams, ScalingSchedule, SpinField,
                          canonical_wall, energy_Hn, gamma_limsup_experiment)

repeats = int(sys.argv[1])
level = ScalingSchedule((ScalingSchedule.geometric(levels=5).entries[4],))
run_level = lambda: gamma_limsup_experiment(canonical_wall(), level)
n = 1024
grid = Grid(1.0 / n, n, n, Boundary.PERIODIC)
i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
psi = 2.0 * np.sin(0.05 * i + 0.3) + 0.02 * j + 0.1 * np.sin(0.7 * j)
u = SpinField(grid, np.stack([np.cos(psi), np.sin(psi)], axis=-1))
p = ModelParams(l=grid.spacing, alpha=7.5)
out = {"times_s": {}, "values": {}}
out["times_s"]["gamma_level_982"], (row,) = timed(run_level, repeats)
for k in ("Hn", "Hn_pot", "Hn_der", "AGs_energy"):
    out["values"]["level_" + k] = row[k].hex()
out["times_s"]["energy_Hn_1024"], hn = timed(lambda: energy_Hn(u, p), repeats)
out["values"].update({"energy_Hn_" + k: getattr(hn, k).hex()
                      for k in ("total", "potential_part", "derivative_part")})
out["level_traced_peak_mb"] = traced(run_level)
print(json.dumps(out))
"""

FIELD_IO = TIMED + """\
from chiralattice import Boundary, Grid, VectorField, read_field_csv, write_field_csv

def helix(nx, ny):
    phase = 0.37 * np.arange(nx)[:, None] + 0.011 * np.arange(ny)[None, :] + 0.3
    return np.stack([np.cos(phase), np.sin(phase)], axis=-1)

def fields(n):
    yield "helix", helix(n, n)
    yield "zero", np.zeros((n, n, 2))
    yield "above_one", 1.0 + 100.0 * np.random.default_rng(1).random((n, n, 2))
    yield "short", np.round(np.random.default_rng(2).uniform(-1.0, 1.0, (n, n, 2)), 2)
    late = helix(n, n)
    late[int(0.78 * n) : int(0.78 * n) + 2, :, 0] = 3e-5
    yield "late_tiny", late

def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()

repeats = int(sys.argv[1])
out = {"times_s": {}, "sha256": {}, "traced_peak_mb": {}}
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "field.csv")
    for n in (512, 2048):
        for name, values in fields(n):
            f = VectorField(Grid(1.0 / n, n, n, Boundary.OPEN), values)
            key = f"{name}_{n}"
            out["times_s"]["write_" + key], _ = timed(lambda: write_field_csv(f, path), repeats)
            out["sha256"]["file_" + key] = sha256(path)
            del f, values
            out["times_s"]["read_" + key], back = timed(
                lambda: read_field_csv(path, Grid(1.0 / n, n, n, Boundary.OPEN)), repeats)
            out["sha256"]["read_" + key] = hashlib.sha256(back.values.tobytes()).hexdigest()
            del back
    for nx, ny in ((512, 512), (2, 131072)):
        grid = Grid(0.01, nx, ny, Boundary.OPEN)
        f = VectorField(grid, helix(nx, ny))
        key = f"helix_{nx}x{ny}"
        out["traced_peak_mb"]["write_" + key] = traced(lambda: write_field_csv(f, path))
        del f
        out["traced_peak_mb"]["read_" + key] = traced(lambda: read_field_csv(path, grid))
print(json.dumps(out))
"""

FIELD_MEMORY = """\
import json, resource, sys, time
from chiralattice.cli import main
t0 = time.perf_counter()
codes = [main(argv) for argv in json.loads(sys.argv[1])]
wall_s = time.perf_counter() - t0
print(json.dumps({"codes": codes, "wall_s": wall_s,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}))
"""

ENTROPY_SCAN = TIMED + """\
from chiralattice import Boundary, Grid, VectorField, jin_kohn, total_variation_productions
from chiralattice.cli import _sharp_wall_chi

repeats, n, angles = map(int, sys.argv[1:])
grid = Grid(1.0 / 128.0, n, n, Boundary.OPEN)
theta = np.random.default_rng(0).uniform(0.0, 2.0 * math.pi, (n, n))
chis = {"sharp_wall": _sharp_wall_chi(grid),
        "all_distinct": VectorField(grid, np.stack([np.cos(theta), np.sin(theta)], axis=-1))}

def scan(chi):
    scan_angles = [2.0 * math.pi * k / angles for k in range(angles)]
    axes = (jin_kohn((math.cos(angle), math.sin(angle))) for angle in scan_angles)
    return total_variation_productions(chi, axes)

out = {"times_s": {name: [] for name in chis}, "sha256": {}, "runs": {}}
for _ in range(repeats):
    for name, chi in chis.items():
        t0 = time.perf_counter()
        productions = scan(chi)
        out["times_s"][name].append(time.perf_counter() - t0)
        digest = hashlib.sha256(" ".join(p.hex() for p in productions).encode()).hexdigest()
        if out["sha256"].setdefault(name, digest) != digest:
            raise SystemExit(f"{name}: the productions changed between repeats")
for name, chi in chis.items():  # runs of bitwise-equal consecutive cells, row-major
    bits = chi.values.reshape(-1, 2).view(np.int64)
    out["runs"][name] = 1 + int(np.count_nonzero(np.any(bits[1:] != bits[:-1], axis=1)))
print(json.dumps(out))
"""


def child(checkout: str, program: str, *args) -> dict:
    """The JSON object on the last line that ``program``, run with ``args`` by
    a fresh Python importing the package from ``checkout``'s ``src/``, prints."""
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"), PYTHONDONTWRITEBYTECODE="1")
    env.update({var: "1" for var in THREAD_VARS})
    done = subprocess.run([sys.executable, "-c", program, *map(str, args)], env=env,
                          capture_output=True, text=True)
    if done.returncode:
        raise SystemExit(f"{checkout}: the child exited {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def pair_order(sides: dict, k: int) -> list[str]:
    """The sides in the order they run in pair ``k`` (from 0): as given,
    parent first, in odd pairs and reversed in even ones."""
    return list(sides) if k % 2 == 0 else list(sides)[::-1]


def alternate(sides: dict, pairs: int, *args) -> dict[str, list[dict]]:
    """Every side's ``child`` runs of ``args``, one per pair."""
    runs = {side: [] for side in sides}
    for k in range(pairs):
        for side in pair_order(sides, k):
            runs[side].append(child(sides[side], *args))
    return runs


def summarise(runs: dict[str, list[dict]]) -> dict:
    """The best and the median of each ``times_s`` key over all runs of a
    side and, with a parent, the parent's over the change's."""
    times = {side: {key: [t for r in rs for t in r["times_s"][key]] for key in rs[0]["times_s"]}
             for side, rs in runs.items()}
    best = {side: {key: min(ts) for key, ts in per.items()} for side, per in times.items()}
    median = {side: {key: statistics.median(ts) for key, ts in per.items()}
              for side, per in times.items()}
    summary = {"best_s": best, "median_s": median}
    if "parent" in runs:
        summary["parent_over_change"] = {key: best["parent"][key] / best["change"][key]
                                         for key in best["change"]}
        summary["parent_over_change_median"] = {
            key: median["parent"][key] / median["change"][key] for key in median["change"]}
    for key, t in best["change"].items():
        line = f"{key}: best {t:.4f} s"
        if "parent" in runs:
            line += (f", parent {best['parent'][key]:.4f} s"
                     f" ({summary['parent_over_change'][key]:.2f}x,"
                     f" medians {summary['parent_over_change_median'][key]:.2f}x)")
        print(line)
    return summary


def same_digests(runs: dict[str, list[dict]]) -> bool:
    """Whether every run of every side recorded the same ``sha256`` dict."""
    return len({json.dumps(r["sha256"], sort_keys=True) for rs in runs.values() for r in rs}) == 1


def gamma_level(args, sides: dict, report: dict) -> bool:
    runs = alternate(sides, args.pairs, GAMMA_LEVEL, args.repeats)
    report.update(summarise(runs))
    values = {side: rs[0]["values"] for side, rs in runs.items()}
    report["values"] = values
    report["level_traced_peak_mb"] = {side: [r["level_traced_peak_mb"] for r in rs]
                                      for side, rs in runs.items()}
    report["runs"] = runs
    # within a checkout only: the changes this suite measures may change values
    report["values_repeat"] = all(r["values"] == values[side]
                                  for side, rs in runs.items() for r in rs)
    if "parent" in sides:
        report["relative_difference"] = {
            key: (float.fromhex(values["change"][key]) - float.fromhex(values["parent"][key]))
            / abs(float.fromhex(values["parent"][key])) for key in values["change"]}
    for key, diff in report.get("relative_difference", {}).items():
        print(f"{key}: {values['change'][key]} (relative difference {diff:+.2e})")
    print(f"level traced peak MB: {report['level_traced_peak_mb']}")
    print(f"values equal across every run of a checkout: {report['values_repeat']}")
    return report["values_repeat"]


def field_io(args, sides: dict, report: dict) -> bool:
    runs = alternate(sides, args.pairs, FIELD_IO, args.repeats)
    report.update(summarise(runs))
    report["runs"] = runs
    report["sha256_equal"] = same_digests(runs)
    for side, rs in runs.items():
        print(f"{side} traced peak MB: {rs[0]['traced_peak_mb']}")
    print(f"sha256 equal across every run: {report['sha256_equal']}")
    return report["sha256_equal"]


SMALL = 512
LATTICE = ["--l", "0.01", "--alpha", "7.92"]
# the outputs compared between checkouts; the manifests echo paths
OUTPUTS = ("ground_state_field.csv", "ground_state_energies.csv", "diagnose_report.json",
           "entropy_scan.csv")


def cli_runs(n: int, out_dir: str, field: str) -> dict[str, list[list[str]]]:
    """The ``main`` argument lists of each measured run at ``n`` x ``n``."""
    grid = ["--nx", str(n), "--ny", str(n)]
    pre = ["--out-dir", out_dir]
    runs = {
        "ground-state": [pre + ["ground-state", "--chi", "0.6,0.8", "--theta0", "0.3"]
                         + LATTICE + grid],
        "diagnose": [pre + ["diagnose", "--field", field] + LATTICE + grid],
        "entropy-scan": [pre + ["entropy-scan", "--angles", "16"] + grid],
    }
    if n == SMALL:
        own_field = os.path.join(out_dir, "ground_state_field.csv")
        runs["field-pipeline"] = [runs["ground-state"][0],
                                  pre + ["diagnose", "--field", own_field] + LATTICE + grid,
                                  runs["entropy-scan"][0]]
    return runs


def cli_child(checkout: str, argvs: list[list[str]]) -> dict:
    result = child(checkout, FIELD_MEMORY, json.dumps(argvs))
    if any(result["codes"]):
        raise SystemExit(f"{checkout}: exit codes {result['codes']} for {argvs}")
    return result


def output_digests(out_dir: str) -> dict[str, str]:
    found = {}
    for name in OUTPUTS:
        path = os.path.join(out_dir, name)
        if os.path.exists(path):
            digest = hashlib.sha256()
            with open(path, "rb") as fh:
                for block in iter(lambda: fh.read(1 << 20), b""):
                    digest.update(block)
            found[name] = digest.hexdigest()
    return found


def measure(sides: dict, n: int, pairs: int, tmp: str) -> dict:
    """Every run of every CLI run at ``n`` for each side, alternating."""
    field = os.path.join(tmp, f"field-{n}.csv")
    cli_child(next(iter(sides.values())), cli_runs(n, tmp, "")["ground-state"])
    os.replace(os.path.join(tmp, "ground_state_field.csv"), field)
    runs = {side: {} for side in sides}
    shas = {side: {} for side in sides}
    for k in range(pairs):
        for command in cli_runs(n, tmp, field):
            for side in pair_order(sides, k):
                out_dir = os.path.join(tmp, f"{side}-{n}-{command}")
                os.makedirs(out_dir, exist_ok=True)
                result = cli_child(sides[side], cli_runs(n, out_dir, field)[command])
                runs[side].setdefault(command, []).append(result)
                for output, digest in output_digests(out_dir).items():
                    if shas[side].setdefault(output, digest) != digest:
                        raise SystemExit(f"{side}: {output} changed between runs")
                shutil.rmtree(out_dir)
    os.remove(field)
    report = {}
    for side in sides:
        report[side] = {"outputs_sha256": shas[side], "subcommands": {}}
        for command, results in runs[side].items():
            peaks = [r["peak_rss_mb"] for r in results]
            walls = [r["wall_s"] for r in results]
            report[side]["subcommands"][command] = {
                "median_peak_rss_mb": statistics.median(peaks),
                "median_wall_s": statistics.median(walls),
                "peak_rss_mb": peaks,
                "wall_s": walls,
            }
    report["same_bytes"] = len({json.dumps(report[side]["outputs_sha256"], sort_keys=True)
                                for side in sides}) == 1
    for side in sides:
        for command, r in report[side]["subcommands"].items():
            print(f"{n}^2 {side:6s} {command:14s} peak {r['median_peak_rss_mb']:7.1f} MB, "
                  f"wall {r['median_wall_s']:6.3f} s")
    print(f"{n}^2 outputs byte-identical across checkouts: {report['same_bytes']}")
    return report


def field_memory(args, sides: dict, report: dict) -> bool:
    report["checkouts"] = list(sides)
    report["sizes"] = {}
    with tempfile.TemporaryDirectory() as tmp:
        report["sizes"][str(SMALL)] = measure(sides, SMALL, args.pairs, tmp)
        if args.large:
            report["sizes"][str(args.large)] = measure(sides, args.large, 1, tmp)
    return all(size["same_bytes"] for size in report["sizes"].values())


SCAN_SIDE, SCAN_ANGLES = 512, 16


def entropy_scan(args, sides: dict, report: dict) -> bool:
    runs = alternate(sides, args.pairs, ENTROPY_SCAN, args.repeats, SCAN_SIDE, SCAN_ANGLES)
    summary = summarise(runs)
    report.update(grid=[SCAN_SIDE, SCAN_SIDE], angles=SCAN_ANGLES)
    for side, rs in runs.items():
        report[side] = {
            name: {
                "runs": rs[0]["runs"][name],
                "cells": SCAN_SIDE * SCAN_SIDE,
                "best_s": summary["best_s"][side][name],
                "median_s": summary["median_s"][side][name],
                "best_s_per_process": [min(r["times_s"][name]) for r in rs],
                "times_s": [t for r in rs for t in r["times_s"][name]],
                "productions_sha256": rs[0]["sha256"][name],
            }
            for name in rs[0]["times_s"]
        }
    report["sha256_equal"] = same_digests(runs)
    for key in ("parent_over_change", "parent_over_change_median"):
        if key in summary:
            report[key] = summary[key]
    print(f"sha256 equal across every run: {report['sha256_equal']}")
    return report["sha256_equal"]


# suite: (runner, default --pairs, its size flag and default, help)
SUITES = {
    "gamma_level": (gamma_level, 3, ("--repeats", 5), "a gamma-table level and energy_Hn"),
    "field_io": (field_io, 3, ("--repeats", 3), "the field CSV writer and reader"),
    "field_memory": (field_memory, 10, ("--large", 2048),
                     "peak memory and wall time of the field subcommands (--large 0: none)"),
    "entropy_scan": (entropy_scan, 3, ("--repeats", 5), "the entropy scan of two fields"),
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="suite", required=True)
    for name, (_, pairs, (flag, default), help_) in SUITES.items():
        sp = sub.add_parser(name, help=help_)
        sp.add_argument("--parent", help="a second checkout to alternate with")
        sp.add_argument("--pairs", type=int, default=pairs)
        sp.add_argument(flag, type=int, default=default)
        sp.add_argument("--out", default=f"BENCH_{name}.json")
    args = ap.parse_args(argv)
    if args.pairs < 1 or getattr(args, "repeats", 1) < 1 or getattr(args, "large", 0) < 0:
        ap.error("--pairs and --repeats must be at least 1, and --large at least 0")
    sides = {"change": ROOT}
    if args.parent:
        sides = {"parent": os.path.abspath(args.parent), "change": ROOT}
    report = {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "pairs": args.pairs,
    }
    if hasattr(args, "repeats"):
        report["repeats"] = args.repeats
    ok = SUITES[args.suite][0](args, sides, report)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
