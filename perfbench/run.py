"""chiralattice CLI benchmark.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Each repetition runs the workload's ``chiralattice.cli.main`` calls in a fresh
child process (``child.py``), one at a time, with the BLAS/OpenMP thread
variables pinned to 1 in the child only; the package is taken from ``src/``
of the checkout.  Repetitions run while the next one is expected to end
within ``--seconds`` (at least one runs).  A few import-only children are timed first, so ``setup_s`` is a median
of several set-ups even when a run fits a single repetition.

``--trace 0`` reports the end-to-end metrics (medians over repetitions);
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones (see ``spans.py``).  Human-readable lines
start with ``#``; the last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--workload all`` runs every
workload in turn and prefixes each metric with its workload's name.

Each run leaves ``perfbench/_out/record-<workload>-trace<0|1>.json`` (the
environment, drawn inputs and every repetition) and, when traced, the spans
of the last traced repetition in ``perfbench/_out/spans-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "_out")
CHILD = os.path.join(HERE, "child.py")

IMPORT_PROBES = 5
RUN_LIMIT_S = 170.0  # every run must end within 180 s
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def child_env() -> dict:
    env = dict(os.environ)
    env.update({k: "1" for k in THREAD_VARS})
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_child(spec: dict, deadline: float) -> dict | None:
    """Run one child process to completion; None if it crashed or timed out."""
    try:
        proc = subprocess.run(
            [sys.executable, CHILD, json.dumps(spec)],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
    except subprocess.TimeoutExpired:
        print("# child timed out", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"# child failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def cache_sizes() -> dict[str, int]:
    """CPU cache sizes in bytes as ``getconf`` reports them (empty if absent)."""
    try:
        out = subprocess.run(["getconf", "-a"], capture_output=True, text=True, timeout=10).stdout
    except (OSError, subprocess.TimeoutExpired):
        return {}
    caches = {}
    for line in out.splitlines():
        key, _, value = line.partition(" ")
        if key.endswith("CACHE_SIZE") and value.strip().isdigit():
            caches[key.lower()] = int(value)
    return caches


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "caches_bytes": cache_sizes(),
        "threads_pinned": {k: "1" for k in THREAD_VARS},
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    """Run the import probes and repetitions of one workload; returns their records."""
    inputs = workloads.draw_inputs(name, seed)
    print(f"# workload {name} seed {seed} inputs {json.dumps(inputs)}")
    setups = []
    numpy_version = None
    for _ in range(IMPORT_PROBES):
        probe = run_child({"import_only": True}, deadline)
        if probe is not None:
            setups.append(probe["setup_s"])
            numpy_version = probe["numpy"]
    os.makedirs(OUT, exist_ok=True)
    plain, traced = [], []
    attempted = failed = rounds = 0
    start = time.monotonic()
    while True:
        # with tracing on, each round is an untraced and a traced child
        rounds += 1
        for traced_rep in ((False, True) if trace else (False,)):
            out_dir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT)
            try:
                res = run_child(
                    {
                        "workload": name, "inputs": inputs, "out_dir": out_dir,
                        "trace": traced_rep,
                        "spans_path": os.path.join(OUT, f"spans-{name}.json"),
                    },
                    deadline,
                )
            finally:
                shutil.rmtree(out_dir, ignore_errors=True)
            attempted += 1
            if res is None:
                failed += 1
                continue
            if res["failures"]:
                failed += 1
                print(f"# {name}: failed checks: {res['failures']}")
            setups.append(res["setup_s"])
            (traced if traced_rep else plain).append(res)
        # start another round only if it is expected to end within the budget
        elapsed = time.monotonic() - start
        if elapsed * (rounds + 1) / rounds > seconds or time.monotonic() >= deadline:
            break
    return {
        "name": name, "inputs": inputs, "numpy": numpy_version,
        "attempted": attempted, "failed": failed,
        "setups": setups, "plain": plain, "traced": traced,
    }


def end_to_end(rec: dict) -> dict[str, float]:
    plain = rec["plain"]
    return {
        "run_s": statistics.median(r["run_s"] for r in plain),
        "setup_s": statistics.median(rec["setups"]),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
    }


def per_layer(rec: dict) -> tuple[dict[str, float], dict[str, float]]:
    traced = rec["traced"]
    layers = {
        k: statistics.median(r["layers"][k] for r in traced) for k in traced[0]["layers"]
    }
    layers["trace.overhead_s"] = (
        statistics.median(r["run_s"] for r in traced)
        - statistics.median(r["run_s"] for r in rec["plain"])
    )
    shares = {
        k: statistics.median(r["shares"].get(k, 0.0) for r in traced)
        for k in sorted({k for r in traced for k in r["shares"]})
    }
    return layers, shares


def write_record(rec: dict, env: dict, args, metrics: dict) -> None:
    """Keep the run's environment, drawn inputs and every repetition."""
    record = {
        "environment": env, "workload": rec["name"], "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "inputs": rec["inputs"],
        "attempted": rec["attempted"], "failed": rec["failed"], "setup_s": rec["setups"],
        "repetitions": rec["plain"] + rec["traced"], "metrics": metrics,
    }
    path = os.path.join(OUT, f"record-{rec['name']}-trace{args.trace}.json")
    with open(path + ".tmp", "w") as fh:
        json.dump(record, fh, indent=1)
    os.replace(path + ".tmp", path)


def report(rec: dict, trace: bool) -> dict:
    """Print one workload's metrics and return them in the output format."""
    name = rec["name"]
    if not rec["plain"] or (trace and not rec["traced"]):
        raise RuntimeError(f"{name}: no repetition completed")
    metrics = {}
    e2e = end_to_end(rec)
    print(f"# {name}: {len(rec['plain'])} untraced and {len(rec['traced'])} traced "
          f"repetitions, {len(rec['setups'])} set-ups")
    print("#   run_s per repetition: "
          + " ".join(f"{r['run_s']:.4f}" for r in rec["plain"]))
    for key, unit in END_TO_END.items():
        print(f"#   {key:<12} {e2e[key]:12.6g} {unit}")
    print(f"#   {'failed_frac':<12} {rec['failed'] / rec['attempted']:12.6g} "
          f"({rec['failed']} of {rec['attempted']})")
    if not trace:
        for key, unit in END_TO_END.items():
            metrics[key] = {"value": e2e[key], "unit": unit}
        return metrics
    layers, shares = per_layer(rec)
    for key, (unit, _) in spans.PER_LAYER.items():
        print(f"#   {key:<42} {layers[key]:14.6g} {unit}")
        metrics[key] = {"value": layers[key], "unit": unit}
    print(f"# {name}: share of traced run_s by span (self time)")
    for key, share in sorted(shares.items(), key=lambda kv: -kv[1]):
        print(f"#   {key:<34} {100.0 * share:6.2f} %")
    return metrics


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "chiralattice", "cli.py")):
        print(f"error: no chiralattice source under {SRC}", file=sys.stderr)
        return 2
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    env = environment()
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        rec = run_workload(name, args.seed, args.seconds, bool(args.trace),
                           time.monotonic() + RUN_LIMIT_S)
        env["numpy"] = rec["numpy"]
        try:
            found = report(rec, bool(args.trace))
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        write_record(rec, env, args, found)
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + k: v for k, v in found.items()})
        attempted += rec["attempted"]
        failed += rec["failed"]
    print(f"# environment {json.dumps(env, sort_keys=True)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0

if __name__ == "__main__":
    raise SystemExit(main())
