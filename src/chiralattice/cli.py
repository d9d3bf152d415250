"""Command-line front end: experiment configuration and CSV/JSON reports.

Experiments are described by a subcommand plus flags; a ``key = value``
config file (INI sections named after subcommands) can provide defaults that
flags override.  Every run writes a JSON manifest with all resolved
parameters and derived scales next to its outputs.  Output files are written
atomically (temp-then-rename), floats carry 17 significant digits, and
identical configurations reproduce every output byte for byte regardless of
the thread-count flag.

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
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .errors import ChiraLatticeError, ConfigError, DimensionError, DomainError, ParameterError
from .lattice_core import (
    Boundary,
    Grid,
    VectorField,
    format_float,
    read_field_csv,
    write_field_csv,
)
from .spin_energy import ModelParams, SpinField, chirality, energy_E, energy_F, energy_Hn
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
from .diagnostics import (
    count_large_angle_cells,
    curl_l1,
    curl_quantization_residual,
    hn_vs_hnstar,
    lp_norm,
)

GAMMA_TABLE_COLUMNS = (
    "n", "l", "delta", "eps", "Hn", "Hn_pot", "Hn_der", "AGs_energy", "gap", "limit", "rel_err",
)


@dataclass
class ExperimentConfig:
    """One resolved experiment: subcommand name plus its parameter map."""

    command: str
    params: dict = field(default_factory=dict)
    out_dir: str = "."
    threads: int = 1


def _atomic_write_text(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="ascii", newline="\n") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format_float(value)
    return str(value)


def _write_csv(path: str, columns, rows) -> None:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(row[c]) for c in columns))
    _atomic_write_text(path, "\n".join(lines) + "\n")


def _write_field(fieldobj, path: str) -> None:
    tmp = path + ".tmp"
    write_field_csv(fieldobj, tmp)
    os.replace(tmp, path)


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
    cfg: ExperimentConfig, l: float, alpha: float | None = None
) -> tuple[ModelParams | None, Grid]:
    """Grid, and ModelParams in the transition regime when ``alpha`` is given,
    from a subcommand's flags.  Any value they reject, or a grid too small for
    the subcommand or over ``MAX_GRID_CELLS`` cells, is a ``ConfigError``
    before any numerics run."""
    q = cfg.params
    boundary = Boundary(q.get("boundary", "open"))
    least = _MIN_CELLS[cfg.command] - (boundary is Boundary.PERIODIC)
    if min(q["nx"], q["ny"]) < least:
        raise ConfigError(f"{cfg.command} needs {least}x{least} cells, got {q['nx']}x{q['ny']}")
    if q["nx"] * q["ny"] > MAX_GRID_CELLS:
        raise ConfigError(f"a {q['nx']}x{q['ny']} grid has over {MAX_GRID_CELLS} cells")
    # the energies weigh cells by l^2 and Hn squares |Ad| <= 8 / (sqrt(delta) l),
    # with delta >= 8.9e-16: in this range neither comes near overflow
    if not (1e-100 < l < 1e100):
        raise ConfigError(f"lattice spacing must lie in (1e-100, 1e100), got {l!r}")
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


def _run_ground_state(cfg: ExperimentConfig) -> tuple[dict, list[str]]:
    q = cfg.params
    chi = _parse_vec(q["chi"])
    norm = math.hypot(*chi)
    if not norm >= sys.float_info.min:  # a subnormal norm does not normalize to 1e-12
        raise ConfigError(f"chirality must be nonzero, got |chi| = {norm!r}")
    chi = (chi[0] / norm, chi[1] / norm)  # tolerate 4-5 digit inputs
    if not math.isfinite(q["theta0"]):
        raise ConfigError(f"theta0 must be finite, got {q['theta0']!r}")
    p, grid = _model(cfg, q["l"], q["alpha"])
    u = ground_state_from_chirality(chi, p, grid, q["theta0"])
    e = energy_E(u, p)
    f = energy_F(u, p)
    hn = energy_Hn(u, p)
    field_path = os.path.join(cfg.out_dir, "ground_state_field.csv")
    _write_field(u, field_path)
    energy_path = os.path.join(cfg.out_dir, "ground_state_energies.csv")
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


def _scales_from_eps(eps: float, delta_exponent: float) -> tuple[float, float]:
    """``(l, alpha)`` with ``delta = eps**delta_exponent`` and ``l = eps sqrt(delta)``."""
    if not (0 < eps < math.inf and math.isfinite(delta_exponent)):
        raise ConfigError(
            f"need a finite eps > 0 and delta exponent, got {eps!r}, {delta_exponent!r}"
        )
    try:
        delta = eps**delta_exponent
    except OverflowError:
        delta = math.inf
    if not (0 < delta < 4):
        raise ConfigError(f"delta = eps**delta_exponent = {delta!r} must lie in (0, 4)")
    return eps * math.sqrt(delta), 8.0 - 2.0 * delta


def _run_relax(cfg: ExperimentConfig) -> tuple[dict, list[str]]:
    q = cfg.params
    p, grid = _model(cfg, *_scales_from_eps(q["eps"], q["delta_exponent"]))
    try:
        boundary = FixedAngles(_parse_vec(q["chi_left"]), _parse_vec(q["chi_right"]))
        rc = RelaxConfig(
            max_iters=q["max_iters"], step=q["step"], tol_grad=q["tol_grad"], boundary=boundary,
        )
    except DomainError as exc:
        raise ConfigError(str(exc)) from None
    u0 = wall_start(boundary, p, grid)
    u, trace, grad_max = relax(u0, p, rc)
    trace_path = os.path.join(cfg.out_dir, "relax_trace.csv")
    _write_csv(trace_path, ("iter", "F"),
               [{"iter": k, "F": v} for k, v in enumerate(trace.tolist())])
    field_path = os.path.join(cfg.out_dir, "relax_field.csv")
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
    vals = np.empty((grid.nx, ny, 2))
    vals[:, : ny // 2] = wall.chi_minus
    vals[:, ny // 2 :] = wall.chi_plus
    return VectorField(grid, vals)


def _run_entropy_scan(cfg: ExperimentConfig) -> tuple[dict, list[str]]:
    q = cfg.params
    _, grid = _model(cfg, q["l"])
    n = q["angles"]
    if n < 1:
        raise ConfigError("need at least one scan angle")
    if q.get("field"):
        chi = read_field_csv(q["field"], grid)
        if not isinstance(chi, VectorField):
            raise ConfigError("entropy-scan needs a two-component field")
    else:
        chi = _sharp_wall_chi(grid)
    rows = []
    for k in range(n):
        angle = 2.0 * math.pi * k / n
        nu = (math.cos(angle), math.sin(angle))
        production = total_variation_production(chi, jin_kohn(nu))
        rows.append({"angle": angle, "production": production})
    scan_path = os.path.join(cfg.out_dir, "entropy_scan.csv")
    _write_csv(scan_path, ("angle", "production"), rows)
    return {"angles": n}, [scan_path]


def _run_gamma_table(cfg: ExperimentConfig) -> tuple[dict, list[str]]:
    q = cfg.params
    schedule = ScalingSchedule.geometric(
        eps0=q["eps0"], levels=q["levels"],
        delta_exponent=q["delta_exponent"], ratio=q["ratio"],
    )
    if not math.isfinite(q["wall_angle"]):
        raise ConfigError(f"wall angle must be finite, got {q['wall_angle']!r}")
    wall = canonical_wall(q["wall_angle"])
    if q["kernel"] != "quartic":
        raise ConfigError(f"unknown kernel {q['kernel']!r}")
    try:
        m = quartic_bump(q["radius"])
    except DomainError as exc:
        raise ConfigError(str(exc)) from None
    rows = gamma_limsup_experiment(wall, schedule, m)
    table_path = os.path.join(cfg.out_dir, "gamma_table.csv")
    _write_csv(table_path, GAMMA_TABLE_COLUMNS, rows)
    schedule_rows = [
        {"n": i, "l": e.l, "delta": e.delta, "eps": e.eps} for i, e in enumerate(schedule.entries)
    ]
    return {"schedule": schedule_rows, "kernel_radius": m.radius}, [table_path]


def _run_diagnose(cfg: ExperimentConfig) -> tuple[dict, list[str]]:
    q = cfg.params
    p, grid = _model(cfg, q["l"], q["alpha"])
    if not (0 < q["t"] < math.pi):
        raise ConfigError(f"threshold must lie in (0, pi), got {q['t']}")
    raw = read_field_csv(q["field"], grid)
    if not isinstance(raw, VectorField):
        raise ConfigError("diagnose needs a two-component spin field")
    try:
        u = SpinField(grid, raw.values)
    except DomainError as exc:
        raise ConfigError(f"{q['field']}: {exc}") from None
    ch = chirality(u, p)
    hn, hs, ratio = hn_vs_hnstar(u, p)
    large = count_large_angle_cells(u, q["t"])
    report = {
        "large_angle_cells": large,
        "angle_threshold": q["t"],
        "curl_l1": curl_l1(ch.chi_bar),
        "curl_quantization_residual": curl_quantization_residual(ch.chi_bar, p),
        "lp_norms": {str(k): lp_norm(ch.chi, k) for k in (2, 4, 6)},
        "Hn": hn.total,
        "Hn_star": hs.total,
        "Hn_star_over_Hn": ratio if math.isfinite(ratio) else None,
        "counting_constant": large * p.l / p.delta**1.5,
    }
    report_path = os.path.join(cfg.out_dir, "diagnose_report.json")
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


def run(cfg: ExperimentConfig) -> int:
    """Execute a resolved experiment configuration and write its manifest.

    Every warning raised during the run is caught, and the manifest lists
    each distinct one once, in the order they first fired, under
    ``derived.warnings``; the key is there only when a warning fired.
    """
    if cfg.command not in _RUNNERS:
        raise ConfigError(f"unknown command {cfg.command!r}")
    if cfg.threads < 1:
        raise ConfigError(f"--threads must be at least 1, got {cfg.threads}")
    os.makedirs(cfg.out_dir, exist_ok=True)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        derived, outputs = _RUNNERS[cfg.command](cfg)
    fired = dict.fromkeys(f"{w.category.__name__}: {w.message}" for w in caught)
    if fired:
        derived["warnings"] = list(fired)
    manifest = {
        "command": cfg.command,
        "version": __version__,
        "threads": cfg.threads,
        "parameters": cfg.params,
        "derived": derived,
        "outputs": [os.path.basename(p) for p in outputs],
    }
    path = os.path.join(cfg.out_dir, f"{cfg.command.replace('-', '_')}_manifest.json")
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
    gt.add_argument("--kernel", default="quartic")
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
        command = args.pop("command")
        out_dir = args.pop("out_dir")
        threads = args.pop("threads")
        args.pop("config", None)
        cfg = ExperimentConfig(command=command, params=args, out_dir=out_dir, threads=threads)
        return run(cfg)
    except ConfigError as exc:
        print(json.dumps({"error": exc.code, "message": str(exc)}), file=sys.stderr)
        return 2
    except (ChiraLatticeError, OSError) as exc:
        print(json.dumps({"error": "RUNTIME_FAILURE", "message": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
