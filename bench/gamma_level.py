"""Time one gamma-table level and ``energy_Hn``, and record their values.

Usage, from the root of a source checkout::

    python3 bench/gamma_level.py [--parent DIR] [--pairs N] [--repeats N] [--out PATH]

Each run is one fresh Python process that imports ``chiralattice`` from
``src/`` of a checkout and times, ``--repeats`` times each:

- ``gamma_level_982``: ``gamma_limsup_experiment`` on the aligned wall at
  level 4 of the default schedule alone (a 982 x 982 grid), the largest
  level that ``gamma-table --levels 5`` runs;
- ``energy_Hn_1024``: ``energy_Hn`` of a smooth, non-helical unit field on a
  periodic 1024 x 1024 grid (the lift ``2 sin(0.05 i + 0.3) + 0.02 j +
  0.1 sin(0.7 j)``, spacing 1/1024, ``alpha = 7.5``).

It also records both results as ``float.hex`` strings (the level's ``Hn``,
``Hn_pot``, ``Hn_der`` and ``AGs_energy``, and ``Hn``'s total, potential and
derivative parts) and the ``tracemalloc`` peak of one level.

With ``--parent``, a second checkout runs the same children, the two
alternating within each of ``--pairs`` pairs (the parent first in odd
pairs).  The JSON written to ``--out`` holds every run, the best and the
median time of each key over all runs of a checkout, the parent's over this
checkout's, both sides' values and, per value, the relative difference of
this checkout's from the parent's.  The six BLAS and OpenMP thread
variables that perfbench pins are set to 1 in each child and no bytecode is
written.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
THREAD_VARS = (  # the BLAS/OpenMP thread variables perfbench/run.py pins
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
CHILD = """\
import json, sys, time, tracemalloc
import numpy as np
from chiralattice import (Boundary, Grid, ModelParams, ScalingSchedule, SpinField,
                          canonical_wall, energy_Hn, gamma_limsup_experiment)

def timed(op, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = op()
        times.append(time.perf_counter() - t0)
    return times, result

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
tracemalloc.start()
run_level()
out["level_traced_peak_mb"] = tracemalloc.get_traced_memory()[1] / 1e6
tracemalloc.stop()
print(json.dumps(out))
"""


def run(checkout: str, repeats: int) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"), PYTHONDONTWRITEBYTECODE="1")
    env.update({var: "1" for var in THREAD_VARS})
    done = subprocess.run([sys.executable, "-c", CHILD, str(repeats)], env=env, check=True,
                          capture_output=True, text=True)
    return json.loads(done.stdout)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", help="a second checkout to alternate with")
    ap.add_argument("--pairs", type=int, default=3)
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--out", default="BENCH_gamma_level.json")
    args = ap.parse_args(argv)
    if args.pairs < 1 or args.repeats < 1:
        ap.error("--pairs and --repeats must be at least 1")
    sides = {"change": ROOT} if args.parent is None else {"parent": args.parent, "change": ROOT}
    runs = {side: [] for side in sides}
    for k in range(args.pairs):
        order = list(sides) if k % 2 == 0 else list(sides)[::-1]
        for side in order:
            runs[side].append(run(sides[side], args.repeats))
    best = {side: {key: min(t for r in rs for t in r["times_s"][key])
                   for key in rs[0]["times_s"]} for side, rs in runs.items()}
    median = {side: {key: statistics.median(t for r in rs for t in r["times_s"][key])
                     for key in rs[0]["times_s"]} for side, rs in runs.items()}
    values = {side: rs[0]["values"] for side, rs in runs.items()}
    report = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "pairs": args.pairs,
        "repeats": args.repeats,
        "best_s": best,
        "median_s": median,
        "values": values,
        "level_traced_peak_mb": {side: [r["level_traced_peak_mb"] for r in rs]
                                 for side, rs in runs.items()},
        "runs": runs,
    }
    report["values_repeat"] = all(r["values"] == values[side]
                                  for side, rs in runs.items() for r in rs)
    if "parent" in best:
        report["parent_over_change"] = {key: best["parent"][key] / best["change"][key]
                                        for key in best["change"]}
        report["parent_over_change_median"] = {
            key: median["parent"][key] / median["change"][key] for key in median["change"]}
        report["relative_difference"] = {
            key: (float.fromhex(values["change"][key]) - float.fromhex(values["parent"][key]))
            / abs(float.fromhex(values["parent"][key])) for key in values["change"]}
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    for key in best["change"]:
        line = f"{key}: best {best['change'][key]:.4f} s"
        if "parent" in best:
            ratio = report["parent_over_change"][key]
            line += f", parent {best['parent'][key]:.4f} s ({ratio:.2f}x"
            line += f", medians {report['parent_over_change_median'][key]:.2f}x)"
        print(line)
    for key, diff in report.get("relative_difference", {}).items():
        print(f"{key}: {values['change'][key]} (relative difference {diff:+.2e})")
    print(f"level traced peak MB: {report['level_traced_peak_mb']}")
    print(f"values equal across every run of a checkout: {report['values_repeat']}")
    return 0 if report["values_repeat"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
