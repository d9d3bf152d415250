"""One benchmark repetition in a fresh process.

Usage: ``python3 child.py '<json spec>'`` with the spec keys ``workload``,
``inputs``, ``out_dir``, ``trace`` (bool) and ``spans_path``, or
``{"import_only": true}`` to time the package import alone.  Prints one JSON
object on its last line of standard output.

The package import is timed first, before anything else imports numpy.
``run_s`` runs from the first ``chiralattice.cli.main`` call to checked
outputs; ``peak_rss_mb`` is this process's peak resident memory.
"""

import json
import resource
import sys
import time


def main() -> int:
    spec = json.loads(sys.argv[1])
    t0 = time.perf_counter()
    import chiralattice.cli as cli

    setup_s = time.perf_counter() - t0
    import numpy

    result = {"setup_s": setup_s, "numpy": numpy.__version__}
    if spec.get("import_only"):
        print(json.dumps(result))
        return 0

    import workloads

    tracer = None
    if spec["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    name, out_dir = spec["workload"], spec["out_dir"]
    t1 = time.perf_counter()
    failures = []
    for argv in workloads.steps(name, spec["inputs"], out_dir):
        rc = cli.main(argv)
        if rc != 0:
            failures.append(f"exit code {rc} from {argv[2]}")
    if not failures:
        failures = workloads.check(name, out_dir)
    run_s = time.perf_counter() - t1
    result.update(
        run_s=run_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        failures=failures,
    )
    if tracer is not None:
        result["layers"], result["shares"] = tracer.layer_metrics(run_s)
        tracer.dump(spec["spans_path"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
