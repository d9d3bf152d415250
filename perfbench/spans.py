"""Outside-in span tracing of the chiralattice layers.

The program itself is not instrumented.  ``Tracer.install`` wraps the public
functions of each layer and rebinds the wrapped name in every
``chiralattice.*`` module that holds the original, so calls between modules
and inside a module both pass through the wrapper.  Spans (name, start, end,
parent, caller) are kept in memory and written out at the end of the run.

Work the tracer does for its own counts (file sizes, distinct wall offsets)
runs inside ``trace.bookkeeping`` spans, so it is excluded from every
layer's self time and shows up only in the tracing overhead.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
import tracemalloc
from collections import defaultdict

BOOKKEEPING = "trace.bookkeeping"

# layer group -> (module, public functions whose spans make up the group)
LAYERS = {
    "lattice_core.cell_sum": ("lattice_core", ("cell_sum",)),
    "lattice_core.stencil": (
        "lattice_core", ("dpartial", "grad_d", "div_d", "curl_d", "laplace_shifted"),
    ),
    "lattice_core.field_io.write": ("lattice_core", ("write_field_csv",)),
    "lattice_core.field_io.read": ("lattice_core", ("read_field_csv",)),
    "spin_energy.chirality": ("spin_energy", ("chirality", "angles")),
    "spin_energy.energy": (
        "spin_energy", ("energy_E", "energy_F", "energy_Hn", "energy_Hn_star", "energy_AGd"),
    ),
    "recovery_limsup.mollifier": (
        "recovery_limsup", ("quartic_bump", "mollify", "mollified_wall_potential"),
    ),
    "recovery_limsup.ag_energy": ("recovery_limsup", ("laplacian_AG_energy",)),
    "recovery_limsup.other": (
        "recovery_limsup",
        ("gamma_limsup_experiment", "discretize_potential", "spin_from_potential"),
    ),
    "relaxation.relax": ("relaxation", ("relax", "wall_start")),
    "relaxation.f_gradient": ("relaxation", ("f_gradient",)),
    "entropy.production": ("entropy", ("total_variation_production", "entropy_production")),
    "diagnostics": (
        "diagnostics",
        ("count_large_angle_cells", "curl_l1", "curl_quantization_residual",
         "hn_vs_hnstar", "lp_norm"),
    ),
    "ground_states": ("ground_states", ("ground_state_from_chirality", "helical_field")),
}
# the closure returned by mollified_wall_potential: the wall potential per point
POTENTIAL = "recovery_limsup.potential"

# per-layer metrics reported by a traced run: name -> (unit, better)
PER_LAYER = {
    "lattice_core.cell_sum.calls": ("count", "lower"),
    "lattice_core.cell_sum.cells": ("count", "lower"),
    "lattice_core.cell_sum.self_s": ("s", "lower"),
    "lattice_core.stencil.calls": ("count", "lower"),
    "lattice_core.stencil.self_s": ("s", "lower"),
    "lattice_core.field_io.write_s": ("s", "lower"),
    "lattice_core.field_io.write_bytes": ("bytes", "lower"),
    "lattice_core.field_io.read_s": ("s", "lower"),
    "lattice_core.field_io.read_bytes": ("bytes", "lower"),
    "spin_energy.chirality.self_s": ("s", "lower"),
    "spin_energy.energy.calls": ("count", "lower"),
    "spin_energy.energy.cells": ("count", "lower"),
    "spin_energy.energy.self_s": ("s", "lower"),
    "recovery_limsup.potential.points": ("count", "lower"),
    "recovery_limsup.potential.distinct_ratio": ("ratio", "lower"),
    "recovery_limsup.potential.self_s": ("s", "lower"),
    "recovery_limsup.potential.peak_alloc_mb": ("MB", "lower"),
    "recovery_limsup.mollifier.self_s": ("s", "lower"),
    "recovery_limsup.ag_energy.self_s": ("s", "lower"),
    "recovery_limsup.other.self_s": ("s", "lower"),
    "relaxation.iterations": ("count", "lower"),
    "relaxation.energy_evals": ("count", "lower"),
    "relaxation.accept_ratio": ("ratio", "higher"),
    "relaxation.f_gradient.self_s": ("s", "lower"),
    "relaxation.relax.self_s": ("s", "lower"),
    "entropy.production.calls": ("count", "lower"),
    "entropy.production.self_s": ("s", "lower"),
    "diagnostics.self_s": ("s", "lower"),
    "ground_states.self_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, caller]
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)

    def _open(self, name: str, caller: str) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, caller]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _bookkeeping(self, fn, *args, **kwargs):
        rec = self._open(BOOKKEEPING, "")
        rec[1] = time.perf_counter()
        try:
            fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, after=None, alloc: bool = False):
        """Span-recording wrapper of ``fn``; ``after(result, *args, **kwargs)``
        runs as bookkeeping, and ``alloc`` records the tracemalloc peak of the call."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = sys._getframe(1)
            rec = self._open(name, f"{frame.f_globals.get('__name__')}:{frame.f_code.co_name}")
            if alloc:
                tracemalloc.start()
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self._stack.pop()
            if alloc:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                key = f"{POTENTIAL}.peak_alloc_mb"
                self.counts[key] = max(self.counts[key], peak / 2**20)
            if after is not None:
                self._bookkeeping(after, result, *args, **kwargs)
            return result

        return wrapper

    # -------------------------------------------------------- count hooks

    def _count_cells(self, result, values, rect):
        self.counts["lattice_core.cell_sum.cells"] += rect.count

    def _count_energy_cells(self, result, u, *args, **kwargs):
        self.counts["spin_energy.energy.cells"] += u.grid.nx * u.grid.ny

    def _count_write(self, result, f, path):
        self.counts["lattice_core.field_io.write_bytes"] += os.path.getsize(path)

    def _count_read(self, result, path, grid):
        self.counts["lattice_core.field_io.read_bytes"] += os.path.getsize(path)

    def _count_relax(self, result, *args, **kwargs):
        self.counts["relaxation.iterations"] += len(result[1]) - 1
        self.counts["relaxation.relax_calls"] += 1

    def _wrap_potential(self, phi_eps, cfg):
        """Wrapped closure: points and distinct wall offsets per call, as the
        closure computes them (``x . nu - wall_offset``)."""
        import numpy as np

        nu = np.asarray(cfg.nu, dtype=np.float64)

        def count(result, x):
            s = np.asarray(x, dtype=np.float64) @ nu - cfg.wall_offset
            self.counts[f"{POTENTIAL}.points"] += s.size
            self.counts[f"{POTENTIAL}.distinct"] += np.unique(s).size

        return self.wrap(POTENTIAL, phi_eps, after=count, alloc=True)

    def install(self) -> None:
        """Wrap every traced function and rebind it across chiralattice."""
        hooks = {
            "cell_sum": self._count_cells,
            "write_field_csv": self._count_write,
            "read_field_csv": self._count_read,
            "relax": self._count_relax,
        }
        for name in LAYERS["spin_energy.energy"][1]:
            hooks[name] = self._count_energy_cells
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "chiralattice"]
        for group, (module, names) in LAYERS.items():
            owner = importlib.import_module(f"chiralattice.{module}")
            for fname in names:
                original = getattr(owner, fname)
                wrapped = self.wrap(group, original, after=hooks.get(fname))
                if fname == "mollified_wall_potential":
                    make = wrapped

                    def wrapped(cfg, *args, _make=make, **kwargs):
                        return self._wrap_potential(_make(cfg, *args, **kwargs), cfg)

                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapped)

    # -------------------------------------------------------- summaries

    def self_times(self) -> tuple[dict[str, float], float, dict[str, int]]:
        """Self time and call count per span name, and the time covered by
        top-level spans."""
        child = [0.0] * len(self.spans)
        top = 0.0
        for name, start, end, parent, _ in self.spans:
            if parent < 0:
                top += end - start
            else:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for k, (name, start, end, _, _) in enumerate(self.spans):
            self_s[name] += end - start - child[k]
            calls[name] += 1
        return self_s, top, calls

    def layer_metrics(self, run_s: float) -> tuple[dict[str, float], dict[str, float]]:
        """Per-layer metrics of one traced repetition (all but the overhead),
        and each span name's share of ``run_s``."""
        self_s, top, calls = self.self_times()
        c = self.counts
        energy_evals = sum(
            1 for s in self.spans
            if s[0] == "lattice_core.cell_sum" and s[4] == "chiralattice.relaxation:_f_energy"
        )
        # one energy evaluation per relax call precedes the line searches
        trials = energy_evals - c["relaxation.relax_calls"]
        points = c[f"{POTENTIAL}.points"]
        m = {
            "lattice_core.cell_sum.calls": calls["lattice_core.cell_sum"],
            "lattice_core.cell_sum.cells": c["lattice_core.cell_sum.cells"],
            "lattice_core.cell_sum.self_s": self_s["lattice_core.cell_sum"],
            "lattice_core.stencil.calls": calls["lattice_core.stencil"],
            "lattice_core.stencil.self_s": self_s["lattice_core.stencil"],
            "lattice_core.field_io.write_s": self_s["lattice_core.field_io.write"],
            "lattice_core.field_io.write_bytes": c["lattice_core.field_io.write_bytes"],
            "lattice_core.field_io.read_s": self_s["lattice_core.field_io.read"],
            "lattice_core.field_io.read_bytes": c["lattice_core.field_io.read_bytes"],
            "spin_energy.chirality.self_s": self_s["spin_energy.chirality"],
            "spin_energy.energy.calls": calls["spin_energy.energy"],
            "spin_energy.energy.cells": c["spin_energy.energy.cells"],
            "spin_energy.energy.self_s": self_s["spin_energy.energy"],
            f"{POTENTIAL}.points": points,
            f"{POTENTIAL}.distinct_ratio": c[f"{POTENTIAL}.distinct"] / points if points else 0.0,
            f"{POTENTIAL}.self_s": self_s[POTENTIAL],
            f"{POTENTIAL}.peak_alloc_mb": c[f"{POTENTIAL}.peak_alloc_mb"],
            "recovery_limsup.mollifier.self_s": self_s["recovery_limsup.mollifier"],
            "recovery_limsup.ag_energy.self_s": self_s["recovery_limsup.ag_energy"],
            "recovery_limsup.other.self_s": self_s["recovery_limsup.other"],
            "relaxation.iterations": c["relaxation.iterations"],
            "relaxation.energy_evals": energy_evals,
            "relaxation.accept_ratio": c["relaxation.iterations"] / trials if trials else 0.0,
            "relaxation.f_gradient.self_s": self_s["relaxation.f_gradient"],
            "relaxation.relax.self_s": self_s["relaxation.relax"],
            "entropy.production.calls": calls["entropy.production"],
            "entropy.production.self_s": self_s["entropy.production"],
            "diagnostics.self_s": self_s["diagnostics"],
            "ground_states.self_s": self_s["ground_states"],
            "cli.self_s": run_s - top,
        }
        shares = {name: t / run_s for name, t in self_s.items()}
        shares["cli"] = (run_s - top) / run_s
        return m, shares

    def dump(self, path: str) -> None:
        """Write the recorded spans as JSON (times relative to the first span)."""
        t0 = self.spans[0][1] if self.spans else 0.0
        out = [
            {"name": n, "start": s - t0, "end": e - t0, "parent": p, "caller": c}
            for n, s, e, p, c in self.spans
        ]
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(out, fh)
        os.replace(tmp, path)
