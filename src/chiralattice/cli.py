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
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .errors import ChiraLatticeError, ConfigError
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
    ScalingSchedule,
    WallConfig,
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


def _write_manifest(cfg: ExperimentConfig, derived: dict, outputs: list[str]) -> str:
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
    return path


def _write_field(fieldobj, path: str) -> None:
    tmp = path + ".tmp"
    write_field_csv(fieldobj, tmp)
    os.replace(tmp, path)


def _parse_vec(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigError(f"expected 'x,y', got {text!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError:
        raise ConfigError(f"expected two numbers 'x,y', got {text!r}") from None


# ------------------------------------------------------------------ commands


def _run_ground_state(cfg: ExperimentConfig) -> int:
    q = cfg.params
    chi = _parse_vec(q["chi"])
    norm = math.hypot(*chi)
    if norm == 0:
        raise ConfigError("chirality must be nonzero")
    chi = (chi[0] / norm, chi[1] / norm)  # tolerate 4-5 digit inputs
    p = ModelParams(l=q["l"], alpha=q["alpha"], beta=2.0)
    grid = Grid(q["l"], q["nx"], q["ny"], Boundary(q["boundary"]))
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
    _write_manifest(cfg, {"delta": p.delta, "eps": p.eps, "chi_normalized": list(chi)},
                    [field_path, energy_path])
    return 0


def _params_from_eps(eps: float, delta_exponent: float) -> ModelParams:
    delta = eps**delta_exponent
    return ModelParams(l=eps * math.sqrt(delta), alpha=8.0 - 2.0 * delta, beta=2.0)


def _run_relax(cfg: ExperimentConfig) -> int:
    q = cfg.params
    p = _params_from_eps(q["eps"], q["delta_exponent"])
    grid = Grid(p.l, q["nx"], q["ny"], Boundary.OPEN)
    boundary = FixedAngles(_parse_vec(q["chi_left"]), _parse_vec(q["chi_right"]))
    rc = RelaxConfig(
        max_iters=q["max_iters"], step=q["step"], tol_grad=q["tol_grad"], boundary=boundary,
    )
    u0 = wall_start(boundary, p, grid)
    u, trace, grad_max = relax(u0, p, rc)
    trace_path = os.path.join(cfg.out_dir, "relax_trace.csv")
    _write_csv(trace_path, ("iter", "F"),
               [{"iter": k, "F": v} for k, v in enumerate(trace.tolist())])
    field_path = os.path.join(cfg.out_dir, "relax_field.csv")
    _write_field(u, field_path)
    hn = energy_Hn(u, p)
    _write_manifest(
        cfg,
        {
            "delta": p.delta, "eps": p.eps, "l": p.l, "alpha": p.alpha,
            "final_F": float(trace[-1]), "final_Hn": hn.total, "iterations": len(trace) - 1,
            "converged": grad_max <= rc.tol_grad, "grad_max": grad_max,
            "heuristic": True,  # local descent: no optimality claim
        },
        [trace_path, field_path],
    )
    return 0


def _sharp_wall_chi(nx: int, ny: int, l: float) -> VectorField:
    s = 1.0 / math.sqrt(2.0)
    grid = Grid(l, nx, ny, Boundary.OPEN)
    vals = np.empty((nx, ny, 2))
    vals[..., 0] = s
    vals[:, : ny // 2, 1] = -s
    vals[:, ny // 2 :, 1] = s
    return VectorField(grid, vals)


def _run_entropy_scan(cfg: ExperimentConfig) -> int:
    q = cfg.params
    if q.get("field"):
        grid = Grid(q["l"], q["nx"], q["ny"], Boundary.OPEN)
        chi = read_field_csv(q["field"], grid)
        if not isinstance(chi, VectorField):
            raise ConfigError("entropy-scan needs a two-component field")
    else:
        chi = _sharp_wall_chi(q["nx"], q["ny"], q["l"])
    n = q["angles"]
    if n < 1:
        raise ConfigError("need at least one scan angle")
    rows = []
    for k in range(n):
        angle = 2.0 * math.pi * k / n
        nu = (math.cos(angle), math.sin(angle))
        production = total_variation_production(chi, jin_kohn(nu))
        rows.append({"angle": angle, "production": production})
    scan_path = os.path.join(cfg.out_dir, "entropy_scan.csv")
    _write_csv(scan_path, ("angle", "production"), rows)
    _write_manifest(cfg, {"angles": n}, [scan_path])
    return 0


def _run_gamma_table(cfg: ExperimentConfig) -> int:
    q = cfg.params
    schedule = ScalingSchedule.geometric(
        eps0=q["eps0"], levels=q["levels"],
        delta_exponent=q["delta_exponent"], ratio=q["ratio"],
    )
    angle = math.radians(q["wall_angle"])
    nu = (-math.sin(angle), math.cos(angle))
    rot = np.array([[math.cos(angle), -math.sin(angle)],
                    [math.sin(angle), math.cos(angle)]])
    s = 1.0 / math.sqrt(2.0)
    chi_plus = tuple(rot @ np.array([s, s]))
    chi_minus = tuple(rot @ np.array([s, -s]))
    center = np.array([0.5, 0.5])
    wall = WallConfig(chi_plus, chi_minus, nu, float(center @ np.asarray(nu)))
    if q["kernel"] != "quartic":
        raise ConfigError(f"unknown kernel {q['kernel']!r}")
    m = quartic_bump(q["radius"])
    rows = gamma_limsup_experiment(wall, schedule, m)
    table_path = os.path.join(cfg.out_dir, "gamma_table.csv")
    _write_csv(table_path, GAMMA_TABLE_COLUMNS, rows)
    _write_manifest(
        cfg,
        {
            "schedule": [
                {"n": i, "l": e.l, "delta": e.delta, "eps": e.eps}
                for i, e in enumerate(schedule.entries)
            ],
            "kernel_radius": m.radius,
        },
        [table_path],
    )
    return 0


def _run_diagnose(cfg: ExperimentConfig) -> int:
    q = cfg.params
    p = ModelParams(l=q["l"], alpha=q["alpha"], beta=2.0)
    grid = Grid(q["l"], q["nx"], q["ny"], Boundary(q["boundary"]))
    raw = read_field_csv(q["field"], grid)
    if not isinstance(raw, VectorField):
        raise ConfigError("diagnose needs a two-component spin field")
    u = SpinField(grid, raw.values)
    ch = chirality(u, p)
    hn, hs, ratio = hn_vs_hnstar(u, p, ch.chi.valid.shrink(2))
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
    _write_manifest(cfg, {"delta": p.delta, "eps": p.eps}, [report_path])
    print(report_path)
    return 0


_RUNNERS = {
    "ground-state": _run_ground_state,
    "relax": _run_relax,
    "entropy-scan": _run_entropy_scan,
    "gamma-table": _run_gamma_table,
    "diagnose": _run_diagnose,
}


def run(cfg: ExperimentConfig) -> int:
    """Execute a resolved experiment configuration."""
    if cfg.command not in _RUNNERS:
        raise ConfigError(f"unknown command {cfg.command!r}")
    os.makedirs(cfg.out_dir, exist_ok=True)
    return _RUNNERS[cfg.command](cfg)


# --------------------------------------------------------------- arg parsing


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    parser = argparse.ArgumentParser(
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
    ini = configparser.ConfigParser()
    if not ini.read(path):
        raise ConfigError(f"config file {path!r} not found or unreadable")
    if not ini.has_section(command):
        return
    defaults = {}
    for key, raw in ini.items(command):
        key = key.replace("-", "_")
        try:
            value: object = int(raw)
        except ValueError:
            try:
                value = float(raw)
            except ValueError:
                value = raw
        defaults[key] = value
    subparser.set_defaults(**defaults)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, subparsers = _build_parser()
    try:
        # pre-scan for --config so file values become subcommand defaults
        pre, _ = parser.parse_known_args(argv)
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
