"""Time the entropy scan on two 512 x 512 chirality fields.

Usage, from the root of a source checkout::

    python3 bench/entropy_scan.py [--repeats N] [--out PATH]

Each field is scanned as ``entropy-scan`` scans it: 16 axes at ``2 pi k / 16``
passed as a generator to one ``total_variation_productions`` call (in a
checkout that predates it, one ``total_variation_production(chi,
jin_kohn(nu))`` per axis), on the open grid of spacing 1/128 that the
subcommand uses by default.  The fields are

- ``sharp_wall``: the subcommand's built-in wall (two runs of equal cells per
  row), and
- ``all_distinct``: unit vectors at seeded uniform angles, no two consecutive
  cells equal.

Every scan is timed ``--repeats`` times, the fields alternating.  The JSON
written to ``--out`` holds per field the cell and run counts, every time, the
best and the median, and a sha256 of the productions' ``float.hex`` strings,
so two checkouts can be compared for speed and for bytes.  The package is
taken from ``src/`` of the checkout; the six BLAS and OpenMP thread
variables that perfbench pins in its children are set to 1 here, whatever
their values were.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import sys
import time

THREAD_VARS = (  # the BLAS/OpenMP thread variables perfbench/run.py pins
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
os.environ.update({var: "1" for var in THREAD_VARS})

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from chiralattice import Boundary, Grid, VectorField, jin_kohn  # noqa: E402
from chiralattice import total_variation_production  # noqa: E402
from chiralattice.cli import _sharp_wall_chi  # noqa: E402

try:
    from chiralattice import total_variation_productions  # noqa: E402
except ImportError:  # a checkout that scans one axis per call
    total_variation_productions = None

N = 512
ANGLES = 16
SPACING = 1.0 / 128.0


def fields() -> dict[str, VectorField]:
    grid = Grid(SPACING, N, N, Boundary.OPEN)
    theta = np.random.default_rng(0).uniform(0.0, 2.0 * math.pi, (N, N))
    distinct = VectorField(grid, np.stack([np.cos(theta), np.sin(theta)], axis=-1))
    return {"sharp_wall": _sharp_wall_chi(grid), "all_distinct": distinct}


def runs(chi: VectorField) -> int:
    """Runs of bitwise-equal consecutive cells in row-major order, counted
    here and not by the package, so that older checkouts can run the script."""
    bits = chi.values.reshape(-1, 2).view(np.int64)
    return 1 + int(np.count_nonzero(np.any(bits[1:] != bits[:-1], axis=1)))


def scan(chi: VectorField) -> list[float]:
    angles = [2.0 * math.pi * k / ANGLES for k in range(ANGLES)]
    axes = (jin_kohn((math.cos(angle), math.sin(angle))) for angle in angles)
    if total_variation_productions is None:
        return [total_variation_production(chi, e) for e in axes]
    return total_variation_productions(chi, axes)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--out", default="BENCH_entropy_scan.json")
    args = ap.parse_args(argv)
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")
    chis = fields()
    times = {name: [] for name in chis}
    digests = {}
    for _ in range(args.repeats):
        for name, chi in chis.items():
            t0 = time.perf_counter()
            productions = scan(chi)
            times[name].append(time.perf_counter() - t0)
            digest = hashlib.sha256(" ".join(p.hex() for p in productions).encode()).hexdigest()
            if digests.setdefault(name, digest) != digest:
                raise SystemExit(f"{name}: the productions changed between repeats")
    report = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "grid": [N, N],
        "angles": ANGLES,
        "repeats": args.repeats,
        "fields": {
            name: {
                "cells": N * N,
                "runs": runs(chi),
                "best_s": min(times[name]),
                "median_s": statistics.median(times[name]),
                "times_s": times[name],
                "productions_sha256": digests[name],
            }
            for name, chi in chis.items()
        },
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    for name, r in report["fields"].items():
        print(f"{name}: best {r['best_s']:.3f} s, median {r['median_s']:.3f} s, "
              f"{r['runs']} runs in {r['cells']} cells, sha256 {r['productions_sha256'][:16]}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
