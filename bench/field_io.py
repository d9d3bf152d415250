"""Time ``write_field_csv`` and ``read_field_csv`` on five kinds of field,
and trace their peak memory.

Usage, from the root of a source checkout::

    python3 bench/field_io.py [--parent DIR] [--pairs N] [--repeats N] [--out PATH]

Each run is one fresh Python process that imports ``chiralattice`` from
``src/`` of a checkout.  It writes each of these vector fields on open
512 x 512 and 2048 x 2048 grids ``--repeats`` times, then reads the file
back ``--repeats`` times, and keeps every time (keys ``write_<field>_<n>``
and ``read_<field>_<n>``):

- ``helix``: ``(cos, sin)`` of the phase ``0.37 i + 0.011 j + 0.3``, a unit
  field like the ground states the CLI writes;
- ``zero``: every component ``0.0``;
- ``above_one``: components drawn uniformly from ``[1, 101)`` (seed 1),
  which the writer and the reader hand to Python and ``np.loadtxt``;
- ``short``: components drawn uniformly from ``[-1, 1)`` and rounded to 2
  decimals (seed 2), written as a person would write them (``-0.37``);
- ``late_tiny``: the helix with ``v1 = 3e-5`` on the two rows from 78% of
  the grid on, so the reader's numpy path hands the rest of the file to
  ``np.loadtxt`` there.

It also records the sha256 of each file and of the values read back, and
the ``tracemalloc`` peak of one write and one read of the 512 x 512 helix
and of a helix on an open 2 x 131072 grid (the same cell count in two rows).

With ``--parent``, a second checkout runs the same children, the two
alternating within each of ``--pairs`` pairs (the parent first in odd
pairs), and every sha256 is compared between them.  The JSON written to
``--out`` holds every run, the best and the median time of each key over
all runs of a checkout, and the parent's over this checkout's.  The BLAS and
OpenMP thread counts are pinned to 1 and no bytecode is written.
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
CHILD = """\
import hashlib, json, os, sys, tempfile, time, tracemalloc
import numpy as np
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


def run(checkout: str, repeats: int) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"), PYTHONDONTWRITEBYTECODE="1")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    done = subprocess.run([sys.executable, "-c", CHILD, str(repeats)], env=env, check=True,
                          capture_output=True, text=True)
    return json.loads(done.stdout)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", help="a second checkout to alternate with")
    ap.add_argument("--pairs", type=int, default=3)
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--out", default="BENCH_field_io.json")
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
    report = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "pairs": args.pairs,
        "repeats": args.repeats,
        "best_s": best,
        "median_s": median,
        "runs": runs,
    }
    digests = {json.dumps(r["sha256"], sort_keys=True) for rs in runs.values() for r in rs}
    report["sha256_equal"] = len(digests) == 1
    if "parent" in best:
        report["parent_over_change"] = {key: best["parent"][key] / best["change"][key]
                                        for key in best["change"]}
        report["parent_over_change_median"] = {
            key: median["parent"][key] / median["change"][key] for key in median["change"]}
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    for key in best["change"]:
        line = f"{key}: best {best['change'][key]:.3f} s"
        if "parent" in best:
            ratio = report["parent_over_change"][key]
            line += f", parent {best['parent'][key]:.3f} s ({ratio:.2f}x"
            line += f", medians {report['parent_over_change_median'][key]:.2f}x)"
        print(line)
    for side, rs in runs.items():
        print(f"{side} traced peak MB: {rs[0]['traced_peak_mb']}")
    print(f"sha256 equal across every run: {report['sha256_equal']}")
    return 0 if report["sha256_equal"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
