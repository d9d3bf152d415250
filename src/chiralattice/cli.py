"""Command-line front end: experiment configuration and CSV/JSON reports.

Experiments are described by a subcommand plus flags; a ``key = value``
config file (INI sections named after subcommands) can provide defaults that
flags override.  Every run writes a JSON manifest with all resolved
parameters and derived scales next to its outputs.  Output files are written
atomically (temp-then-rename), floats carry 17 significant digits, and
identical configurations reproduce every output byte for byte regardless of
the thread-count flag, on one numpy build at one SIMD dispatch level: numpy's
``arctan2``, ``arcsin`` and ``**`` can round differently in their AVX2 and
AVX-512 loops.

Exit codes: 0 success, 1 runtime failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import sys
import warnings

import numpy as np

from . import __version__
from .errors import (
    ChiraLatticeError, ConfigError, DimensionError, DomainError, ParameterError, ScalingError,
)
from .lattice_core import (
    Boundary,
    Grid,
    VectorField,
    format_float,
    read_field_csv,
    write_field_csv,
)
from .spin_energy import ModelParams, energy_E, energy_F, energy_Hn
from .ground_states import ground_state_from_chirality
from .entropy import jin_kohn, total_variation_production
from .recovery_limsup import (
    DEFAULT_KERNEL_RADIUS,
    MAX_GRID_CELLS,
    ScalingSchedule,
    canonical_wall,
    gamma_limsup_experiment,
    quartic_bump,
)
from .relaxation import FixedAngles, RelaxConfig, relax, wall_start
from .diagnostics import diagnose_report

GAMMA_TABLE_COLUMNS = (
    "n", "l", "delta", "eps", "Hn", "Hn_pot", "Hn_der", "AGs_energy", "gap", "limit", "rel_err",
)


def _atomic_write(path: str, write) -> None:
    """``write(tmp)`` to a temporary file, then rename it to ``path``; a write
    that raises removes the temporary file."""
    tmp = path + ".tmp"
    try:
        write(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _atomic_write_text(path: str, text: str) -> None:
    def write(tmp: str) -> None:
        with open(tmp, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)

    _atomic_write(path, write)


def _fmt(value) -> str:
    if isinstance(value, float):
        return format_float(value)
    return str(value)


def _write_csv(path: str, columns, rows) -> None:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(row[c]) for c in columns))
    _atomic_write_text(path, "\n".join(lines) + "\n")


def _write_field(fieldobj, path: str) -> None:
    _atomic_write(path, lambda tmp: write_field_csv(fieldobj, tmp))


def _read_vector_field(path: str, grid: Grid, command: str) -> VectorField:
    """The field CSV at ``path`` on ``grid``, which must have two components."""
    field = read_field_csv(path, grid)
    if not isinstance(field, VectorField):
        raise ConfigError(f"{command} needs a two-component field")
    return field


def _parse_vec(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigError(f"expected 'x,y', got {text!r}")
    try:
        x, y = float(parts[0]), float(parts[1])
    except ValueError:
        x = y = math.nan
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ConfigError(f"expected two finite numbers 'x,y', got {text!r}")
    return x, y


# smallest nx and ny of an open grid on which every region a subcommand sums
# over keeps a cell; a periodic grid loses no edge cells and needs one less
_MIN_CELLS = {"ground-state": 3, "relax": 3, "entropy-scan": 2, "diagnose": 6}


def _model(
    command: str, q: dict, l: float, alpha: float | None = None
) -> tuple[ModelParams | None, Grid]:
    """Grid, and ModelParams in the transition regime when ``alpha`` is given,
    from the flags ``q`` of subcommand ``command``.  Any value they reject, or a grid too small for
    the subcommand or over ``MAX_GRID_CELLS`` cells, is a ``ConfigError``
    before any numerics run."""
    boundary = Boundary(q.get("boundary", "open"))
    least = _MIN_CELLS[command] - (boundary is Boundary.PERIODIC)
    if min(q["nx"], q["ny"]) < least:
        raise ConfigError(f"{command} needs {least}x{least} cells, got {q['nx']}x{q['ny']}")
    if q["nx"] * q["ny"] > MAX_GRID_CELLS:
        raise ConfigError(f"a {q['nx']}x{q['ny']} grid has over {MAX_GRID_CELLS} cells")
    # the energies weigh cells by l^2 and Hn squares |Ad| <= 8 / (sqrt(delta) l),
    # with delta >= 8.9e-16: in this range neither comes near overflow
    if not (1e-100 < l < 1e100):
        got = f"got {l!r}"
        if command == "relax":  # relax derives l from its scale flags
            got += f" from --eps {q['eps']!r} --delta-exponent {q['delta_exponent']!r}"
        raise ConfigError(f"lattice spacing must lie in (1e-100, 1e100), {got}")
    try:
        p = None
        if alpha is not None:
            p = ModelParams(l=l, alpha=alpha, beta=2.0)
            p.require_transition_regime()
        return p, Grid(l, q["nx"], q["ny"], boundary)
    except (ParameterError, DimensionError, DomainError) as exc:
        raise ConfigError(str(exc)) from None


# ------------------------------------------------------------------ commands
# Each runner writes its outputs and returns the manifest's derived facts and
# the output paths; ``run`` writes the manifest.


def _run_ground_state(q: dict, out_dir: str) -> tuple[dict, list[str]]:
    chi = _parse_vec(q["chi"])
    norm = math.hypot(*chi)
    # a subnormal norm does not normalize to 1e-12, and chi / inf is (0, 0)
    if not sys.float_info.min <= norm < math.inf:
        raise ConfigError(f"chirality must be nonzero and finite, got |chi| = {norm!r}")
    chi = (chi[0] / norm, chi[1] / norm)  # tolerate 4-5 digit inputs
    if not math.isfinite(q["theta0"]):
        raise ConfigError(f"theta0 must be finite, got {q['theta0']!r}")
    p, grid = _model("ground-state", q, q["l"], q["alpha"])
    u = ground_state_from_chirality(chi, p, grid, q["theta0"])
    e = energy_E(u, p)
    f = energy_F(u, p)
    hn = energy_Hn(u, p)
    field_path = os.path.join(out_dir, "ground_state_field.csv")
    _write_field(u, field_path)
    energy_path = os.path.join(out_dir, "ground_state_energies.csv")
    _write_csv(
        energy_path,
        ("n", "l", "delta", "eps", "E", "F", "Hn", "Hn_potential", "Hn_derivative"),
        [
            {
                "n": 0, "l": p.l, "delta": p.delta, "eps": p.eps,
                "E": e, "F": f, "Hn": hn.total,
                "Hn_potential": hn.potential_part, "Hn_derivative": hn.derivative_part,
            }
        ],
    )
    return ({"delta": p.delta, "eps": p.eps, "chi_normalized": list(chi)},
            [field_path, energy_path])


def _run_relax(q: dict, out_dir: str) -> tuple[dict, list[str]]:
    try:  # level 0 of the gamma-table schedule at the same eps and exponent
        (p,) = ScalingSchedule.geometric(
            eps0=q["eps"], levels=1, delta_exponent=q["delta_exponent"]).entries
    except ScalingError:
        raise ConfigError(
            "relax needs finite --eps > 0 and --delta-exponent > 0 with eps**delta_exponent "
            f"in (0, 4), got --eps {q['eps']!r} --delta-exponent {q['delta_exponent']!r}"
        ) from None
    _, grid = _model("relax", q, p.l)
    try:
        boundary = FixedAngles(_parse_vec(q["chi_left"]), _parse_vec(q["chi_right"]))
        rc = RelaxConfig(
            max_iters=q["max_iters"], step=q["step"], tol_grad=q["tol_grad"], boundary=boundary,
        )
    except DomainError as exc:
        raise ConfigError(str(exc)) from None
    u0 = wall_start(boundary, p, grid)
    u, trace, grad_max = relax(u0, p, rc)
    trace_path = os.path.join(out_dir, "relax_trace.csv")
    _write_csv(trace_path, ("iter", "F"),
               [{"iter": k, "F": v} for k, v in enumerate(trace.tolist())])
    field_path = os.path.join(out_dir, "relax_field.csv")
    _write_field(u, field_path)
    hn = energy_Hn(u, p)
    derived = {
        "delta": p.delta, "eps": p.eps, "l": p.l, "alpha": p.alpha,
        "final_F": float(trace[-1]), "final_Hn": hn.total, "iterations": len(trace) - 1,
        "converged": grad_max <= rc.tol_grad, "grad_max": grad_max,
        "heuristic": True,  # local descent: no optimality claim
    }
    return derived, [trace_path, field_path]


def _sharp_wall_chi(grid: Grid) -> VectorField:
    wall = canonical_wall()
    ny = grid.ny
    row = np.empty((ny, 2))
    row[: ny // 2] = wall.chi_minus
    row[ny // 2 :] = wall.chi_plus
    # the field's copy of one broadcast row is the only whole-grid array
    return VectorField(grid, np.broadcast_to(row, (grid.nx, ny, 2)))


def _run_entropy_scan(q: dict, out_dir: str) -> tuple[dict, list[str]]:
    _, grid = _model("entropy-scan", q, q["l"])
    n = q["angles"]
    if n < 1:
        raise ConfigError("need at least one scan angle")
    if q.get("field"):
        chi = _read_vector_field(q["field"], grid, "entropy-scan")
    else:
        chi = _sharp_wall_chi(grid)
    rows = []
    for k in range(n):
        angle = 2.0 * math.pi * k / n
        nu = (math.cos(angle), math.sin(angle))
        production = total_variation_production(chi, jin_kohn(nu))
        rows.append({"angle": angle, "production": production})
    scan_path = os.path.join(out_dir, "entropy_scan.csv")
    _write_csv(scan_path, ("angle", "production"), rows)
    return {"angles": n}, [scan_path]


def _run_gamma_table(q: dict, out_dir: str) -> tuple[dict, list[str]]:
    schedule = ScalingSchedule.geometric(
        eps0=q["eps0"], levels=q["levels"],
        delta_exponent=q["delta_exponent"], ratio=q["ratio"],
    )
    if not math.isfinite(q["wall_angle"]):
        raise ConfigError(f"wall angle must be finite, got {q['wall_angle']!r}")
    wall = canonical_wall(q["wall_angle"])
    try:
        m = quartic_bump(q["radius"])
    except DomainError as exc:
        raise ConfigError(str(exc)) from None
    rows = gamma_limsup_experiment(wall, schedule, m)
    table_path = os.path.join(out_dir, "gamma_table.csv")
    _write_csv(table_path, GAMMA_TABLE_COLUMNS, rows)
    schedule_rows = [
        {"n": i, "l": e.l, "delta": e.delta, "eps": e.eps} for i, e in enumerate(schedule.entries)
    ]
    return {"schedule": schedule_rows, "kernel_radius": m.radius}, [table_path]


def _run_diagnose(q: dict, out_dir: str) -> tuple[dict, list[str]]:
    p, grid = _model("diagnose", q, q["l"], q["alpha"])
    if not (0 < q["t"] < math.pi):
        raise ConfigError(f"threshold must lie in (0, pi), got {q['t']}")
    field = _read_vector_field(q["field"], grid, "diagnose")
    try:  # the report checks the unit norm; no other error arises on unit spins
        report = diagnose_report(field, p, q["t"])
    except DomainError as exc:
        raise ConfigError(f"{q['field']}: {exc}") from None
    report_path = os.path.join(out_dir, "diagnose_report.json")
    _atomic_write_text(report_path, json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(report_path)
    return {"delta": p.delta, "eps": p.eps}, [report_path]


_RUNNERS = {
    "ground-state": _run_ground_state,
    "relax": _run_relax,
    "entropy-scan": _run_entropy_scan,
    "gamma-table": _run_gamma_table,
    "diagnose": _run_diagnose,
}


def run(command: str, params: dict, out_dir: str, threads: int) -> int:
    """Run one subcommand on its resolved parameters and write its manifest.

    Every warning raised during the run is caught, and the manifest lists
    each distinct one once, in the order they first fired, under
    ``derived.warnings``; the key is there only when a warning fired.
    """
    if threads < 1:
        raise ConfigError(f"--threads must be at least 1, got {threads}")
    os.makedirs(out_dir, exist_ok=True)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        derived, outputs = _RUNNERS[command](params, out_dir)
    fired = dict.fromkeys(f"{w.category.__name__}: {w.message}" for w in caught)
    if fired:
        derived["warnings"] = list(fired)
    manifest = {
        "command": command,
        "version": __version__,
        "threads": threads,
        "parameters": params,
        "derived": derived,
        "outputs": [os.path.basename(p) for p in outputs],
    }
    path = os.path.join(out_dir, f"{command.replace('-', '_')}_manifest.json")
    _atomic_write_text(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return 0


# --------------------------------------------------------------- arg parsing


class _Parser(argparse.ArgumentParser):
    """Argument parser whose errors are ``ConfigError``s, so they end in the
    same JSON line and exit status 2 as every other bad configuration."""

    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    parser = _Parser(
        prog="chiralattice",
        description="Chirality-wall energies on spin lattices: experiments and reports.",
    )
    parser.add_argument("--config", help="INI config file with per-subcommand sections")
    parser.add_argument("--out-dir", default=".", help="directory for output files")
    parser.add_argument("--threads", type=int, default=1,
                        help="worker threads (recorded; never changes numbers)")
    sub = parser.add_subparsers(dest="command", required=True)
    subparsers = {}

    gs = sub.add_parser("ground-state", help="emit a helical ground state and its energies")
    gs.add_argument("--chi", default="0.70710678118654752,0.70710678118654752")
    gs.add_argument("--alpha", type=float, default=7.92)
    gs.add_argument("--l", type=float, default=0.01)
    gs.add_argument("--nx", type=int, default=64)
    gs.add_argument("--ny", type=int, default=64)
    gs.add_argument("--theta0", type=float, default=0.0)
    gs.add_argument("--boundary", choices=["periodic", "open"], default="open")
    subparsers["ground-state"] = gs

    rx = sub.add_parser("relax", help="descend the bulk energy between two fixed chiralities")
    rx.add_argument("--eps", type=float, default=0.02)
    rx.add_argument("--delta-exponent", type=float, default=0.6)
    rx.add_argument("--nx", type=int, default=48)
    rx.add_argument("--ny", type=int, default=48)
    rx.add_argument("--chi-left", default="-0.70710678118654752,0.70710678118654752")
    rx.add_argument("--chi-right", default="0.70710678118654752,0.70710678118654752")
    rx.add_argument("--max-iters", type=int, default=20000)
    rx.add_argument("--step", type=float, default=1.0)
    rx.add_argument("--tol-grad", type=float, default=1e-10)
    subparsers["relax"] = rx

    es = sub.add_parser("entropy-scan", help="sweep the entropy axis over an angular grid")
    es.add_argument("--field", default="", help="chirality field CSV (default: built-in wall)")
    es.add_argument("--l", type=float, default=1.0 / 128.0)
    es.add_argument("--nx", type=int, default=128)
    es.add_argument("--ny", type=int, default=128)
    es.add_argument("--angles", type=int, default=64)
    subparsers["entropy-scan"] = es

    gt = sub.add_parser("gamma-table", help="wall-energy convergence table along a schedule")
    gt.add_argument("--eps0", type=float, default=0.08)
    gt.add_argument("--levels", type=int, default=4)
    gt.add_argument("--delta-exponent", type=float, default=0.6)
    gt.add_argument("--ratio", type=float, default=0.5)
    gt.add_argument("--wall-angle", type=float, default=0.0, help="degrees")
    gt.add_argument("--radius", type=float, default=DEFAULT_KERNEL_RADIUS)
    subparsers["gamma-table"] = gt

    dg = sub.add_parser("diagnose", help="JSON report of the a-priori checks on a stored field")
    dg.add_argument("--field", required=True)
    dg.add_argument("--l", type=float, required=True)
    dg.add_argument("--alpha", type=float, required=True)
    dg.add_argument("--nx", type=int, required=True)
    dg.add_argument("--ny", type=int, required=True)
    dg.add_argument("--boundary", choices=["periodic", "open"], default="open")
    dg.add_argument("--t", type=float, default=1.0)
    subparsers["diagnose"] = dg

    return parser, subparsers


def _apply_config_file(path: str, command: str, subparser: argparse.ArgumentParser) -> None:
    """The ``[command]`` section as subcommand defaults: each key names a flag
    (``delta-exponent`` or ``delta_exponent``), whose type and choices check
    it, and a required flag the file gives is no longer required."""
    ini = configparser.ConfigParser(interpolation=None)
    try:
        if not ini.read(path):
            raise ConfigError(f"config file {path!r} not found or unreadable")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file {path!r}: {exc}") from None
    if not ini.has_section(command):
        return
    defaults = {}
    for key, raw in ini.items(command):
        flag = "--" + key.replace("_", "-")
        action = subparser._option_string_actions.get(flag)
        if action is None or action.nargs == 0:
            raise ConfigError(f"config file {path!r}: [{command}] has no flag {flag}")
        try:
            value = raw if action.type is None else action.type(raw)
        except ValueError:
            raise ConfigError(f"config file {path!r}: invalid {key} value {raw!r}") from None
        if action.choices is not None and value not in action.choices:
            raise ConfigError(f"config file {path!r}: {key} must be one of {action.choices}")
        defaults[action.dest] = value
        action.required = False
    subparser.set_defaults(**defaults)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, subparsers = _build_parser()
    try:
        # pre-scan for --config so file values become subcommand defaults;
        # no flag is required yet, since the file may give it
        required = [a for sp in subparsers.values() for a in sp._actions if a.required]
        for action in required:
            action.required = False
        pre, _ = parser.parse_known_args(argv)
        for action in required:
            action.required = True
        if pre.config and pre.command:
            _apply_config_file(pre.config, pre.command, subparsers[pre.command])
        args = vars(parser.parse_args(argv))
        command, out_dir, threads = args.pop("command"), args.pop("out_dir"), args.pop("threads")
        args.pop("config", None)
        return run(command, args, out_dir, threads)
    except ConfigError as exc:
        print(json.dumps({"error": exc.code, "message": str(exc)}), file=sys.stderr)
        return 2
    except (ChiraLatticeError, OSError) as exc:
        print(json.dumps({"error": "RUNTIME_FAILURE", "message": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
