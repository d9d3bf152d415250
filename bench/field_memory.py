"""Peak memory and wall time of the field subcommands, one child process per run.

Usage, from the root of a source checkout::

    python3 bench/field_memory.py [--parent DIR] [--pairs N] [--large N] [--out PATH]

Each run is one fresh Python process that imports ``chiralattice.cli`` from
``src/`` of a checkout, runs one or more ``main`` calls and reports its
``ru_maxrss`` and the wall time of the calls.  The runs, on open n x n grids
with ``--l 0.01 --alpha 7.92`` as in perfbench's field-pipeline, are

- ``ground-state`` (``--chi 0.6,0.8 --theta0 0.3``),
- ``diagnose`` of that ground state's field CSV, made once per size,
- ``entropy-scan`` of the built-in sharp wall with 16 angles, and
- ``field-pipeline``: the three above in one process, as perfbench runs them
  (512 x 512 only).

At 512 x 512 every run repeats ``--pairs`` times.  With ``--parent``, a
second checkout runs the same children, the two alternating within each
pair (the parent first in odd pairs), and every output's sha256 is compared
between them.  At ``--large`` cells per side (default 2048, 0 to skip) each
subcommand runs once per checkout.  The six BLAS and OpenMP thread
variables are set to 1 and no bytecode is written, as in perfbench's
children.  The JSON written to ``--out`` holds every run and the medians.

A child's ``ru_maxrss`` can include the peak of the process that started
it (Linux keeps the larger of the two across ``vfork`` and ``exec``), so
this script stays small: it hashes the outputs a block at a time.
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
SMALL = 512
LATTICE = ["--l", "0.01", "--alpha", "7.92"]
THREAD_VARS = (  # the BLAS/OpenMP thread variables perfbench/run.py pins
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
CHILD = """\
import json, resource, sys, time
from chiralattice.cli import main
t0 = time.perf_counter()
codes = [main(argv) for argv in json.loads(sys.argv[1])]
wall_s = time.perf_counter() - t0
print(json.dumps({"codes": codes, "wall_s": wall_s,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}))
"""
# the outputs compared between checkouts; the manifests echo paths
OUTPUTS = ("ground_state_field.csv", "ground_state_energies.csv", "diagnose_report.json",
           "entropy_scan.csv")


def steps(n: int, out_dir: str, field: str) -> dict[str, list[list[str]]]:
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


def child(checkout: str, argvs: list[list[str]]) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"), PYTHONDONTWRITEBYTECODE="1")
    env.update({var: "1" for var in THREAD_VARS})
    done = subprocess.run([sys.executable, "-c", CHILD, json.dumps(argvs)], env=env,
                          capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if any(result["codes"]):
        raise SystemExit(f"{checkout}: exit codes {result['codes']} for {argvs}")
    return result


def digests(out_dir: str) -> dict[str, str]:
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


def measure(checkouts: dict[str, str], n: int, pairs: int, tmp: str) -> dict:
    """Every run of every subcommand at ``n`` for each checkout, alternating."""
    field = os.path.join(tmp, f"field-{n}.csv")
    first = next(iter(checkouts.values()))
    child(first, steps(n, tmp, "")["ground-state"])
    os.replace(os.path.join(tmp, "ground_state_field.csv"), field)
    names = list(checkouts)
    runs = {name: {} for name in names}
    shas = {name: {} for name in names}
    for k in range(pairs):
        order = names if k % 2 == 0 else names[::-1]
        for command in steps(n, tmp, field):
            for name in order:
                out_dir = os.path.join(tmp, f"{name}-{n}-{command}")
                os.makedirs(out_dir, exist_ok=True)
                result = child(checkouts[name], steps(n, out_dir, field)[command])
                runs[name].setdefault(command, []).append(result)
                for output, digest in digests(out_dir).items():
                    if shas[name].setdefault(output, digest) != digest:
                        raise SystemExit(f"{name}: {output} changed between runs")
                shutil.rmtree(out_dir)
    os.remove(field)
    report = {}
    for name in names:
        report[name] = {"outputs_sha256": shas[name], "subcommands": {}}
        for command, results in runs[name].items():
            peaks = [r["peak_rss_mb"] for r in results]
            walls = [r["wall_s"] for r in results]
            report[name]["subcommands"][command] = {
                "median_peak_rss_mb": statistics.median(peaks),
                "median_wall_s": statistics.median(walls),
                "peak_rss_mb": peaks,
                "wall_s": walls,
            }
    return report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", default="", help="a second checkout to alternate with")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--large", type=int, default=2048, help="side of the one-run grid (0: none)")
    ap.add_argument("--out", default="BENCH_field_memory.json")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    checkouts = {"change": ROOT}
    if args.parent:
        checkouts = {"parent": os.path.abspath(args.parent), "change": ROOT}
    report = {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "checkouts": list(checkouts),
        "sizes": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        report["sizes"][str(SMALL)] = measure(checkouts, SMALL, args.pairs, tmp)
        if args.large:
            report["sizes"][str(args.large)] = measure(checkouts, args.large, 1, tmp)
    for size, per in report["sizes"].items():
        shas = {json.dumps(per[name]["outputs_sha256"], sort_keys=True) for name in per}
        report["sizes"][size]["same_bytes"] = len(shas) == 1
        for name in checkouts:
            for command, r in per[name]["subcommands"].items():
                print(f"{size}^2 {name:6s} {command:14s} peak {r['median_peak_rss_mb']:7.1f} MB, "
                      f"wall {r['median_wall_s']:6.3f} s")
        print(f"{size}^2 outputs byte-identical across checkouts: {per['same_bytes']}")
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
