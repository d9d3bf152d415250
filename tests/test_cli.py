"""Command-line interface: outputs, manifests, error codes, reproducibility."""

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chiralattice import (
    Boundary, ConfigError, DomainError, Grid, ScalarField, VectorField, cli,
    lattice_core, read_field_csv,
    recovery_limsup, relaxation, spin_energy, write_field_csv,
)
from chiralattice.cli import main
from test_lattice_core import assert_reads_as_loadtxt_reads


def read_csv_rows(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[1:]]


def read_manifest(out_dir, command):
    with open(os.path.join(out_dir, f"{command.replace('-', '_')}_manifest.json")) as fh:
        return json.load(fh)


GROUND_STATE_ARGS = [
    "ground-state", "--chi", "0.7071,0.7071", "--alpha", "7.92",
    "--l", "0.05", "--nx", "16", "--ny", "16",
]


class TestGroundState:
    def test_outputs_and_zero_bulk_energy(self, tmp_path):
        out = str(tmp_path)
        assert main(["--out-dir", out] + GROUND_STATE_ARGS) == 0
        header, rows = read_csv_rows(os.path.join(out, "ground_state_energies.csv"))
        assert header == ["n", "l", "delta", "eps", "E", "F", "Hn", "Hn_potential", "Hn_derivative"]
        assert abs(float(rows[0]["F"])) <= 1e-20 * (1.0 + abs(float(rows[0]["E"])))
        assert os.path.exists(os.path.join(out, "ground_state_field.csv"))

    def test_huge_phase_still_gives_a_helix(self, tmp_path):
        out = str(tmp_path)
        args = ["ground-state", "--theta0", "1e17", "--chi", "0.6,0.8", "--alpha", "7.92",
                "--l", "0.05", "--nx", "16", "--ny", "16"]
        assert main(["--out-dir", out] + args) == 0
        _, rows = read_csv_rows(os.path.join(out, "ground_state_energies.csv"))
        assert float(rows[0]["Hn"]) <= 1e-20

    def test_manifest_normalizes_the_chirality(self, tmp_path):
        out = str(tmp_path)
        main(["--out-dir", out] + GROUND_STATE_ARGS)
        manifest = read_manifest(out, "ground-state")
        chi = manifest["derived"]["chi_normalized"]
        assert abs(math.hypot(chi[0], chi[1]) - 1.0) <= 1e-12
        assert math.isclose(manifest["derived"]["delta"], 0.04, rel_tol=1e-12)

    def test_reruns_are_byte_identical(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = str(tmp_path / name)
            main(["--out-dir", out] + GROUND_STATE_ARGS)
            outs.append(out)
        for fname in ("ground_state_field.csv", "ground_state_energies.csv"):
            with open(os.path.join(outs[0], fname), "rb") as fa, open(
                os.path.join(outs[1], fname), "rb"
            ) as fb:
                assert fa.read() == fb.read()

    def test_zero_chirality_rejected(self, tmp_path, capsys):
        code = main(["--out-dir", str(tmp_path), "ground-state", "--chi", "0,0"])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "CONFIG_INVALID"

    def test_non_numeric_chirality_is_a_config_error(self, tmp_path, capsys):
        code = main(["--out-dir", str(tmp_path), "ground-state", "--chi", "abc,1"])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "CONFIG_INVALID"

    def test_a_warning_goes_to_the_manifest_not_to_stderr(self, tmp_path, capsys):
        # delta = 4 - 5e-10: the chirality (1, 0) sits at the arcsin boundary
        argv = ["ground-state", "--alpha", "1e-9", "--chi", "1,0", "--nx", "4", "--ny", "4"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["--out-dir", str(tmp_path)] + argv) == 0
        assert capsys.readouterr().err == ""
        assert read_manifest(str(tmp_path), "ground-state")["derived"]["warnings"] == [
            "UserWarning: chirality component is at the arcsin boundary; "
            "the inversion is ill-conditioned"
        ]


class TestGammaTable:
    def test_header_and_row_count(self, tmp_path):
        out = str(tmp_path)
        assert main(["--out-dir", out, "gamma-table", "--levels", "2"]) == 0
        header, rows = read_csv_rows(os.path.join(out, "gamma_table.csv"))
        assert header == ["n", "l", "delta", "eps", "Hn", "Hn_pot", "Hn_der",
                          "AGs_energy", "gap", "limit", "rel_err"]
        assert len(rows) == 2

    def test_malformed_schedule_exits_with_scaling_violation(self, tmp_path, capsys):
        code = main(["--out-dir", str(tmp_path), "gamma-table", "--ratio", "1.5"])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "SCALING_VIOLATION"

    def test_unknown_kernel_is_a_config_error(self, tmp_path, capsys):
        # the quartic bump is the one kernel, so there is no --kernel flag to name it
        for kernel in ("gaussian", "quartic"):
            code = main(["--out-dir", str(tmp_path), "gamma-table", "--kernel", kernel])
            assert code == 2
            assert json.loads(capsys.readouterr().err)["error"] == "CONFIG_INVALID"

    def test_rotated_walls_fit_at_the_default_eps0(self, tmp_path):
        # at 45 degrees the corners (0, 0) and (1, 1) both lie on the wall line
        for angle in ("45", "30"):
            out = str(tmp_path / angle)
            assert main(["--out-dir", out, "gamma-table", "--wall-angle", angle,
                         "--levels", "1"]) == 0
            _, rows = read_csv_rows(os.path.join(out, "gamma_table.csv"))
            assert len(rows) == 1 and float(rows[0]["Hn"]) > 0.0

    def test_a_level_forms_no_angle(self, tmp_path, monkeypatch):
        # Hn takes both chiralities from the spins' differences and cross
        # products, so a level never reaches the angle kernel
        def no_angle(a, b):
            raise AssertionError("a gamma level formed an angle")

        monkeypatch.setattr(spin_energy, "_oriented_angle", no_angle)
        assert main(["--out-dir", str(tmp_path), "gamma-table", "--levels", "2"]) == 0

    def test_over_wide_layer_is_a_config_error(self, tmp_path, capsys):
        # eps0 * radius = 0.8 exceeds every corner's distance from the wall
        for angle in ("0", "45"):
            code = main(["--out-dir", str(tmp_path), "gamma-table", "--wall-angle", angle,
                         "--eps0", "0.2", "--levels", "1"])
            assert code == 2
            assert json.loads(capsys.readouterr().err)["error"] == "CONFIG_INVALID"


class TestEntropyScan:
    def test_default_wall_scan(self, tmp_path):
        out = str(tmp_path)
        args = ["--out-dir", out, "entropy-scan", "--nx", "32", "--ny", "32",
                "--l", str(1.0 / 32.0), "--angles", "8"]
        assert main(args) == 0
        header, rows = read_csv_rows(os.path.join(out, "entropy_scan.csv"))
        assert header == ["angle", "production"]
        assert len(rows) == 8
        productions = [float(r["production"]) for r in rows]
        # wall-normal axis realizes the largest production in the scan
        assert max(productions) > 0.0

    def test_field_not_matching_the_grid_is_a_config_error(self, tmp_path, capsys):
        out = str(tmp_path)
        assert main(["--out-dir", out] + GROUND_STATE_ARGS) == 0
        field = os.path.join(out, "ground_state_field.csv")
        for n in ("20", "12"):  # the file holds 16 x 16 cells
            code = main(["--out-dir", out, "entropy-scan", "--field", field,
                         "--nx", n, "--ny", n, "--l", "0.05", "--angles", "4"])
            assert code == 2
            assert json.loads(capsys.readouterr().err)["error"] == "CONFIG_INVALID"

    def test_config_file_defaults_and_flag_override(self, tmp_path):
        ini = tmp_path / "exp.ini"
        ini.write_text("[entropy-scan]\nangles = 6\nnx = 32\nny = 32\nl = 0.03125\n")
        out_a = str(tmp_path / "a")
        assert main(["--config", str(ini), "--out-dir", out_a, "entropy-scan"]) == 0
        _, rows = read_csv_rows(os.path.join(out_a, "entropy_scan.csv"))
        assert len(rows) == 6
        out_b = str(tmp_path / "b")
        assert main(["--config", str(ini), "--out-dir", out_b, "entropy-scan", "--angles", "4"]) == 0
        _, rows = read_csv_rows(os.path.join(out_b, "entropy_scan.csv"))
        assert len(rows) == 4

    def test_a_config_file_without_the_commands_section_leaves_its_defaults(self, tmp_path):
        # the other section is not read: its value would be a config error
        ini = tmp_path / "exp.ini"
        ini.write_text("[ground-state]\nnx = 8.5\n")
        args = ["entropy-scan", "--nx", "16", "--ny", "16", "--l", "0.0625", "--angles", "4"]
        texts = []
        for name, pre in (("plain", []), ("config", ["--config", str(ini)])):
            out = str(tmp_path / name)
            assert main(pre + ["--out-dir", out] + args) == 0
            with open(os.path.join(out, "entropy_scan.csv"), "rb") as fh:
                texts.append(fh.read())
        assert texts[0] == texts[1]


class TestRelax:
    def test_quick_descent_run(self, tmp_path):
        out = str(tmp_path)
        args = ["--out-dir", out, "relax", "--eps", "0.08", "--nx", "12", "--ny", "12",
                "--max-iters", "50"]
        assert main(args) == 0
        header, rows = read_csv_rows(os.path.join(out, "relax_trace.csv"))
        assert header == ["iter", "F"]
        values = [float(r["F"]) for r in rows]
        assert all(b < a for a, b in zip(values, values[1:]))
        manifest = read_manifest(out, "relax")
        assert manifest["derived"]["heuristic"] is True
        assert manifest["derived"]["final_F"] == values[-1]

    def test_manifest_says_whether_the_descent_converged(self, tmp_path):
        # the run converges in 4 iterations, so a cap of 2 cuts it off
        args = ["relax", "--eps", "0.08", "--nx", "8", "--ny", "8", "--tol-grad", "1e-5"]
        for max_iters, converged in (("2", False), ("5000", True)):
            out = str(tmp_path / max_iters)
            assert main(["--out-dir", out] + args + ["--max-iters", max_iters]) == 0
            derived = read_manifest(out, "relax")["derived"]
            assert derived["converged"] is converged
            assert (derived["grad_max"] <= 1e-5) is converged
            assert (derived["iterations"] < int(max_iters)) is converged

    def test_bad_numbers_are_config_errors(self, tmp_path, capsys):
        for flags in (["--max-iters", "-5"], ["--eps", "inf"], ["--eps", "-1"],
                      ["--delta-exponent", "-1"], ["--step", "inf"], ["--tol-grad", "inf"]):
            code = main(["--out-dir", str(tmp_path), "relax", "--nx", "6", "--ny", "6"] + flags)
            assert code == 2
            assert json.loads(capsys.readouterr().err)["error"] == "CONFIG_INVALID"

    @pytest.mark.parametrize("eps, exponent", [("0.02", "0.6"), ("3.9999999998", "1")])
    def test_scales_are_level_0_of_the_gamma_table_schedule(self, eps, exponent, tmp_path,
                                                           monkeypatch):
        relax = tmp_path / "relax"
        argv = ["relax", "--eps", eps, "--delta-exponent", exponent, "--nx", "6", "--ny", "6",
                "--max-iters", "0"]
        assert main(["--out-dir", str(relax)] + argv) == 0
        derived = read_manifest(str(relax), "relax")["derived"]
        # the schedule's manifest rows need no level run; the second eps is too
        # coarse for a gamma-table grid
        monkeypatch.setattr(cli, "gamma_limsup_experiment", lambda *args: [])
        table = tmp_path / "gamma"
        assert main(["--out-dir", str(table), "gamma-table", "--eps0", eps,
                     "--delta-exponent", exponent, "--levels", "1"]) == 0
        row = read_manifest(str(table), "gamma-table")["derived"]["schedule"][0]
        assert {k: derived[k].hex() for k in ("l", "delta", "eps")} == {
            k: row[k].hex() for k in ("l", "delta", "eps")}
        (p,) = recovery_limsup.ScalingSchedule.geometric(
            eps0=float(eps), levels=1, delta_exponent=float(exponent)).entries
        assert derived["alpha"].hex() == p.alpha.hex()

    @pytest.mark.parametrize("flags", [["--delta-exponent", "0"],
                                       ["--eps", "2", "--delta-exponent", "-0.5"]])
    def test_a_delta_exponent_that_is_not_positive_is_a_config_error(self, flags, tmp_path,
                                                                     capsys):
        assert main(["--out-dir", str(tmp_path), "relax", "--nx", "6", "--ny", "6"] + flags) == 2
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "CONFIG_INVALID" and "--delta-exponent" in error["message"]

    def test_a_spacing_out_of_range_names_the_scale_flags(self, tmp_path, capsys):
        argv = ["relax", "--eps", "1e-300", "--delta-exponent", "1e-300"]
        assert main(["--out-dir", str(tmp_path)] + argv) == 2
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "CONFIG_INVALID"
        assert "--eps" in error["message"] and "--delta-exponent" in error["message"]

    def test_argparse_errors_are_json_config_errors(self, tmp_path, capsys):
        for flags in (["--tol-grad", "-1e-5"], ["--nx", "eight"], ["--no-such-flag"]):
            code = main(["--out-dir", str(tmp_path), "relax"] + flags)
            assert code == 2
            lines = capsys.readouterr().err.splitlines()
            assert len(lines) == 1
            assert json.loads(lines[0])["error"] == "CONFIG_INVALID"

    def test_boundary_warning_is_named_once_in_the_manifest(self, tmp_path, capsys):
        # delta = eps = 4 - 2e-10; both frozen helices sit at the arcsin boundary
        argv = ["relax", "--eps", "3.9999999998", "--delta-exponent", "1", "--nx", "6",
                "--ny", "6", "--chi-left=1,0", "--chi-right=-1,0", "--max-iters", "3"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["--out-dir", str(tmp_path)] + argv) == 0
        assert capsys.readouterr().err == ""
        fired = read_manifest(str(tmp_path), "relax")["derived"]["warnings"]
        assert len(fired) == 1 and "arcsin boundary" in fired[0]

    def test_huge_first_step_is_capped(self, tmp_path):
        # uncapped, 60 halvings of 1e25 never reach a step that descends
        args = ["relax", "--nx", "6", "--ny", "6", "--max-iters", "5", "--step", "1e25"]
        assert main(["--out-dir", str(tmp_path)] + args) == 0
        _, rows = read_csv_rows(os.path.join(str(tmp_path), "relax_trace.csv"))
        values = [float(r["F"]) for r in rows]
        assert len(values) == 6 and all(b < a for a, b in zip(values, values[1:]))

    def test_failed_line_search_is_a_runtime_failure(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(relaxation, "_f_energy", lambda u, p, grid: 1.0)
        code = main(["--out-dir", str(tmp_path), "relax", "--nx", "8", "--ny", "8"])
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "RUNTIME_FAILURE" and "line search" in err["message"]


@pytest.mark.parametrize("argv", [
    ["relax", "--nx", "0"],
    ["relax", "--nx", "2"],
    ["relax", "--eps", "1e-300", "--delta-exponent", "1e-300"],
    ["ground-state", "--nx", "0"],
    ["ground-state", "--alpha", "9"],
    ["ground-state", "--l", "inf"],
    ["entropy-scan", "--nx", "1", "--ny", "1"],
    ["gamma-table", "--eps0", "0", "--levels", "1"],
    ["gamma-table", "--eps0", "nan", "--levels", "1"],
    ["gamma-table", "--eps0=-1", "--levels", "1"],
    ["gamma-table", "--delta-exponent=-1", "--levels", "1"],
    ["gamma-table", "--radius=-1", "--levels", "1"],
    ["gamma-table", "--radius", "nan", "--levels", "1"],
    ["gamma-table", "--radius", "inf", "--levels", "1"],
    ["gamma-table", "--wall-angle", "nan", "--levels", "1"],
    ["relax", "--chi-left", "1,1"],
    ["relax", "--chi-right", "nan,1"],
    ["ground-state", "--theta0", "inf"],
    ["ground-state", "--chi", "inf,1"],
    ["ground-state", "--chi", "0.6,nan"],
    ["diagnose", "--field", "x.csv", "--l", "0.05", "--alpha", "7.92", "--nx", "8", "--ny", "8",
     "--t", "9"],
    ["diagnose", "--field", "x.csv", "--l", "0.05", "--alpha", "7.92", "--nx", "8", "--ny", "8",
     "--t", "0"],
    ["entropy-scan", "--field", "nope.csv", "--angles", "0"],
    # grids over MAX_GRID_CELLS = 2**24 cells
    ["ground-state", "--nx", "100000", "--ny", "100000"],
    ["relax", "--nx", "4097", "--ny", "4096"],
    ["entropy-scan", "--nx", "100000", "--ny", "100000"],
    ["diagnose", "--field", "x.csv", "--l", "0.05", "--alpha", "7.92", "--nx", "8",
     "--ny", str(1 << 40)],
    # |chi| is subnormal, so chi / |chi| is (1, 1), not a unit vector
    ["ground-state", "--chi", "5e-324,5e-324"],
    # |chi| overflows to inf, so chi / |chi| is (0, 0)
    ["ground-state", "--chi", "1.7e308,1.7e308", "--nx", "8", "--ny", "8"],
    ["--threads", "-3", "ground-state"],
    ["--threads", "0", "relax"],
])
def test_bad_flags_are_config_errors_before_any_numerics(argv, tmp_path, capsys, monkeypatch):
    def numerics(*args, **kwargs):
        raise AssertionError("numerics ran on a bad configuration")

    for name in ("relax", "wall_start", "ground_state_from_chirality",
                 "total_variation_productions", "gamma_limsup_experiment", "read_field_csv",
                 "_sharp_wall_chi"):
        monkeypatch.setattr(cli, name, numerics)
    assert main(["--out-dir", str(tmp_path)] + argv) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] in ("CONFIG_INVALID", "SCALING_VIOLATION")


@pytest.mark.parametrize("command, text", [
    ("gamma-table", "[gamma-table]\nlevles = 3\n"),  # not a flag
    ("gamma-table", "[gamma-table]\nkernel = quartic\n"),  # no longer a flag
    ("ground-state", "[ground-state]\nboundary = sideways\n"),  # not a choice
    ("ground-state", "[ground-state]\nnx = 8.5\n"),  # not an int
    ("gamma-table", "[gamma-table]\nlevels = 1.0\n"),
    ("relax", "nx = 8\n"),  # no section header
    ("relax", "[relax]\nnx = 8\n[relax]\nny = 8\n"),  # repeated section
    ("relax", "[relax]\nchi_left = 50%\n"),  # read as it is: not a vector
    ("relax", b"[relax]\nnx = 8\xff\n"),  # not UTF-8
], ids=["unknown-key", "kernel-key", "bad-choice", "float-for-int", "float-for-levels",
        "no-section", "repeated-section", "percent", "undecodable"])
def test_bad_config_files_are_config_errors(command, text, tmp_path, capsys):
    ini = tmp_path / "bad.ini"
    ini.write_bytes(text if isinstance(text, bytes) else text.encode())
    out = tmp_path / "out"
    assert main(["--config", str(ini), "--out-dir", str(out), command]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "CONFIG_INVALID"
    assert not (out / f"{command.replace('-', '_')}_manifest.json").exists()


def test_a_missing_config_file_is_a_config_error(tmp_path, capsys):
    ini = str(tmp_path / "missing.ini")
    assert main(["--config", ini, "--out-dir", str(tmp_path / "out"), "relax"]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert json.loads(lines[0]) == {
        "error": "CONFIG_INVALID", "message": f"config file {ini!r} not found or unreadable"}
    assert len(lines) == 1


@pytest.mark.parametrize("argv", [
    # l is about 6e-6: the one level would need about 2.5e10 cells
    ["gamma-table", "--eps0", "1e-4", "--levels", "1"],
    # l is about 2.4: a 2 x 2 grid, too small for the energies
    ["gamma-table", "--eps0", "2", "--delta-exponent", "0.5", "--radius", "0.125", "--levels", "1"],
    # levels 0-5 fit; level 6 needs about 3.5e7 cells
    ["gamma-table", "--levels", "7"],
])
def test_gamma_table_grid_out_of_bounds_is_a_config_error(argv, tmp_path, capsys, monkeypatch):
    def level(*args, **kwargs):
        raise AssertionError("a level ran before every level was sized")

    monkeypatch.setattr(recovery_limsup, "_level_energies", level)
    assert main(["--out-dir", str(tmp_path)] + argv) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "CONFIG_INVALID"


def _checkerboard_chirality_csv(path, magnitude):
    lines = ["i,j,v1,v2"]
    for i in range(4):
        for j in range(4):
            s = magnitude if (i + j) % 2 == 0 else -magnitude
            lines.append(f"{i},{j},{s!r},{-s!r}")
    path.write_text("\n".join(lines) + "\n")


def _one_large_component_csv(path, magnitude):
    lines = ["i,j,v1,v2"]
    for i in range(6):
        for j in range(6):
            lines.append(f"{i},{j},{magnitude!r},0" if (i, j) == (2, 3) else f"{i},{j},1,0")
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("write, magnitude", [
    (_checkerboard_chirality_csv, 6e101), (_checkerboard_chirality_csv, 1e200),
    (_one_large_component_csv, 1e120),
], ids=["checkerboard-6e101", "checkerboard-1e200", "one-cell-1e120"])
def test_an_overflowing_entropy_production_is_a_config_error_that_names_the_file(
        write, magnitude, tmp_path, capsys):
    # every value in the file is finite: at 6e101 Phi stays finite and the
    # difference quotients of div_d overflow; at 1e200 and 1e120 Phi itself
    # overflows.  The file is at fault, as in diagnose.
    field = tmp_path / "chi.csv"
    write(field, magnitude)
    n = "4" if write is _checkerboard_chirality_csv else "6"
    argv = ["entropy-scan", "--field", str(field), "--nx", n, "--ny", n, "--l", "0.001"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert main(["--out-dir", str(tmp_path)] + argv) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {
        "error": "CONFIG_INVALID", "message": f"{field}: field values must be finite",
    }
    assert not (tmp_path / "entropy_scan.csv").exists()


def _draw_argv(data, command, flags):
    """``command`` with every flag set; up to two leave their valid range.

    Values go as ``--flag=value``, numbers by their repr and strings as they
    are, so that negative numbers reach the checks as numbers.
    """
    wild = data.draw(st.sets(st.sampled_from(sorted(flags)), max_size=2))
    argv = [command]
    for name, pair in flags.items():
        value = data.draw(pair[name in wild])
        argv.append(f"--{name}={value if isinstance(value, str) else repr(value)}")
    return argv


# the one warning a valid run may raise: a chirality component whose helix
# angle is within 1e-8 of the arcsin's end (delta within about 1e-7 of 4)
_EXPECTED_WARNING = "arcsin boundary"


def _exit_code(argv, pre=()):
    """Exit status of one run: 0 with nothing on stderr, or 1/2 with exactly
    one JSON error line.  Warnings are errors here: none may escape, and the
    manifest of a successful run may name none but the expected one.
    ``argv`` starts with the subcommand; ``pre`` are options before it."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stderr(err):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["--out-dir", out, *pre] + argv)
        if code == 0:
            fired = read_manifest(out, argv[0])["derived"].get("warnings", [])
            assert all(_EXPECTED_WARNING in w for w in fired), fired
    assert code in (0, 1, 2)
    lines = err.getvalue().splitlines()
    if code == 0:
        assert lines == []
    else:
        assert len(lines) == 1
        assert set(json.loads(lines[0])) == {"error", "message"}
    return code


_WILD_FLOATS = st.one_of(st.floats(), st.sampled_from([0.0, -0.0, -1.0, 1e-300, 1e300]))
_WILD_INTS = st.integers(-5, 2)
# relax's numeric flags: (values that make a valid run, values to break it)
RELAX_FLAGS = {
    "eps": (st.floats(1e-3, 0.5), _WILD_FLOATS),
    "delta-exponent": (st.floats(0.1, 1.5), _WILD_FLOATS),
    "step": (st.floats(1e-3, 10.0), _WILD_FLOATS),
    "tol-grad": (st.floats(1e-12, 1e-2), _WILD_FLOATS),
    "nx": (st.integers(3, 8), _WILD_INTS),
    "ny": (st.integers(3, 8), _WILD_INTS),
    "max-iters": (st.integers(0, 20), _WILD_INTS),
}


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_relax_numeric_flags_end_in_success_or_one_json_error(data):
    _exit_code(_draw_argv(data, "relax", RELAX_FLAGS))


# the schedule flags set the lattice spacing: a small positive eps0 or ratio,
# or a large finite exponent, would ask for billions of cells, so their wild
# values are ones the schedule rejects, or an eps0 above the valid range
_NOT_POSITIVE_FINITE = st.sampled_from([0.0, -0.0, -1.0, -math.inf, math.inf, math.nan])
GAMMA_TABLE_FLAGS = {
    "eps0": (st.floats(0.04, 0.08), st.one_of(_NOT_POSITIVE_FINITE, st.floats(min_value=0.04))),
    "delta-exponent": (st.floats(0.3, 0.8), st.one_of(_NOT_POSITIVE_FINITE, st.just(1e300))),
    "ratio": (st.floats(0.5, 0.9), st.one_of(_NOT_POSITIVE_FINITE, st.sampled_from([1.0, 1.5]))),
    "levels": (st.integers(1, 2), st.integers(-3, 0)),
    "radius": (st.floats(1.0, 4.0), _WILD_FLOATS),
    "wall-angle": (st.floats(-90.0, 90.0), _WILD_FLOATS),
}


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_gamma_table_numeric_flags_end_in_success_or_a_config_error(data):
    assert _exit_code(_draw_argv(data, "gamma-table", GAMMA_TABLE_FLAGS)) in (0, 2)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_config_file_values_end_as_the_same_flags_do(data):
    # the fuzzers' flag values, written as a config file section instead
    command, flags = data.draw(st.sampled_from(
        [("relax", RELAX_FLAGS), ("gamma-table", GAMMA_TABLE_FLAGS)]))
    argv = _draw_argv(data, command, flags)
    lines = [f"[{command}]"] + [arg[2:].replace("=", " = ", 1) for arg in argv[1:]]
    with tempfile.TemporaryDirectory() as tmp:
        ini = os.path.join(tmp, "fuzz.ini")
        with open(ini, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        code = _exit_code([command], pre=["--config", ini])
    assert code in ((0, 1, 2) if command == "relax" else (0, 2))
    assert code == _exit_code(argv)


# wild grid sizes: below every subcommand's minimum, or so large that any
# valid other side (2 cells or more) takes the grid over MAX_GRID_CELLS = 2**24 cells
_WILD_SIZES = st.one_of(st.integers(-5, 1), st.integers((1 << 23) + 1, 1 << 62))
_VECTORS = st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)).filter(lambda v: any(v))
_WILD_VECTORS = st.one_of(
    st.tuples(st.floats(), st.floats()).map(lambda v: f"{v[0]!r},{v[1]!r}"),
    st.sampled_from(["0,0", "-0.0,0", "1", "1,2,3", "", "a,1", "5e-324,5e-324", "1e308,1e308"]),
)
GROUND_STATE_FLAGS = {
    "chi": (_VECTORS.map(lambda v: f"{v[0]!r},{v[1]!r}"), _WILD_VECTORS),
    "alpha": (st.floats(1e-3, 7.999), _WILD_FLOATS),
    "l": (st.floats(1e-3, 1.0), _WILD_FLOATS),
    "nx": (st.integers(3, 8), _WILD_SIZES),
    "ny": (st.integers(3, 8), _WILD_SIZES),
    "theta0": (st.floats(-10.0, 10.0), _WILD_FLOATS),
    "boundary": (st.sampled_from(["open", "periodic"]), st.sampled_from(["", "closed"])),
}
# the built-in sharp wall; --angles has no upper bound, so its wild values are low
ENTROPY_SCAN_FLAGS = {
    "l": (st.floats(1e-3, 1.0), _WILD_FLOATS),
    "nx": (st.integers(2, 8), _WILD_SIZES),
    "ny": (st.integers(2, 8), _WILD_SIZES),
    "angles": (st.integers(1, 8), st.integers(-3, 0)),
}
# read on the 8 x 8 spin field, which a valid run's grid matches
DIAGNOSE_FLAGS = {
    "l": (st.floats(1e-3, 1.0), _WILD_FLOATS),
    "alpha": (st.floats(1e-3, 7.999), _WILD_FLOATS),
    "nx": (st.just(8), _WILD_SIZES),
    "ny": (st.just(8), _WILD_SIZES),
    "boundary": (st.sampled_from(["open", "periodic"]), st.sampled_from(["", "closed"])),
    "t": (st.floats(1e-3, 3.14), _WILD_FLOATS),
}


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_ground_state_flags_end_in_success_or_a_config_error(data):
    assert _exit_code(_draw_argv(data, "ground-state", GROUND_STATE_FLAGS)) in (0, 2)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_entropy_scan_flags_end_in_success_or_a_config_error(data):
    assert _exit_code(_draw_argv(data, "entropy-scan", ENTROPY_SCAN_FLAGS)) in (0, 2)


def test_a_grid_of_exactly_the_cap_runs_and_one_row_more_does_not(monkeypatch):
    # the wild sizes stay above the cap; this is its edge, at a cap small enough to run
    monkeypatch.setattr(cli, "MAX_GRID_CELLS", 64)
    assert _exit_code(["entropy-scan", "--nx", "32", "--ny", "2"]) == 0
    assert _exit_code(["entropy-scan", "--nx", "33", "--ny", "2"]) == 2


def _field_csv(tmp_path_factory, n, values):
    path = tmp_path_factory.mktemp("field") / "field.csv"
    write_field_csv(VectorField(Grid(0.05, n, n, Boundary.OPEN), values), str(path))
    return path.read_bytes()


@pytest.fixture(scope="module")
def random_field_4x4(tmp_path_factory):
    return _field_csv(tmp_path_factory, 4, np.random.default_rng(21).normal(size=(4, 4, 2)))


@pytest.fixture(scope="module")
def spin_field_8x8(tmp_path_factory):
    theta = 0.3 * np.add.outer(np.arange(8.0), 2.0 * np.arange(8.0))
    return _field_csv(tmp_path_factory, 8, np.stack([np.cos(theta), np.sin(theta)], axis=-1))


_CSV_MUTATIONS = ("drop row", "duplicate row", "truncate row", "extra column", "token",
                  "blank line", "header only", "empty", "rename column", "non-ascii")
_TOKENS = st.sampled_from(["", " ", "x", "nan", "-inf", "1e400", "0x1", "1_0", "--1", "#"])


def _mutated_csv(data, text: bytes) -> bytes:
    """``text``, a valid field CSV, with one drawn mutation."""
    kind = data.draw(st.sampled_from(_CSV_MUTATIONS))
    if kind == "empty":
        return b""
    if kind == "non-ascii":
        at = data.draw(st.integers(0, len(text)))
        byte = data.draw(st.sampled_from([b"\xe9", b"\xff", "\u00e9".encode()]))
        return text[:at] + byte + text[at:]
    lines = text.decode("ascii").splitlines()
    row = data.draw(st.integers(1, len(lines) - 1))
    if kind == "drop row":
        del lines[row]
    elif kind == "duplicate row":
        lines.insert(row, lines[row])
    elif kind == "truncate row":
        lines[row] = lines[row][: data.draw(st.integers(0, len(lines[row]) - 1))]
    elif kind == "extra column":
        if data.draw(st.booleans()):  # in every line: a valid file with a column to ignore
            lines = [lines[0] + ",extra"] + [line + ",1.5" for line in lines[1:]]
        else:
            lines[row] += "," + data.draw(_TOKENS)
    elif kind == "token":
        cells = lines[row].split(",")
        cells[data.draw(st.integers(0, len(cells) - 1))] = data.draw(_TOKENS)
        lines[row] = ",".join(cells)
    elif kind == "blank line":
        blank = data.draw(st.sampled_from(["", " \t"]))
        lines.insert(data.draw(st.integers(1, len(lines))), blank)
    elif kind == "header only":
        lines = lines[:1]
    else:  # rename column
        names = lines[0].split(",")
        names[data.draw(st.integers(0, len(names) - 1))] = data.draw(
            st.sampled_from(["x", "I", "v3", "v1", "j", ""]))
        lines[0] = ",".join(names)
    return ("\n".join(lines) + "\n").encode("ascii")


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_field_csv_reads_or_is_a_config_error(data, random_field_4x4):
    text = _mutated_csv(data, random_field_4x4)
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        path = os.path.join(tmp, "field.csv")
        with open(path, "wb") as fh:
            fh.write(text)
        try:
            f = read_field_csv(path, Grid(0.05, 4, 4, Boundary.OPEN))
        except ConfigError:
            return
    assert isinstance(f, ScalarField) and f.values.shape[:2] == (4, 4)


def _read_outcome(path, grid):
    """The type and bytes of the field read from ``path``, or the error's message."""
    try:
        f = read_field_csv(path, grid)
    except ConfigError as exc:
        return str(exc)
    return type(f).__name__, f.values.tobytes()


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_a_mutated_field_csv_reads_alike_in_blocks_of_any_length(data, random_field_4x4):
    """The reader parses blocks of ``_READ_BYTES`` bytes cut at line ends.
    In blocks of the 1, 2 and 7 longest lines every file gives the field, or
    the error with its message and row number, of a single parse of the
    whole body."""
    text = _mutated_csv(data, random_field_4x4)
    longest = max(len(line) for line in text.split(b"\n")) + 1
    outcomes = []
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        path = os.path.join(tmp, "field.csv")
        with open(path, "wb") as fh:
            fh.write(text)
        for cells in (None, 1, 2, 7):
            with pytest.MonkeyPatch.context() as mp:
                if cells is not None:
                    mp.setattr(lattice_core, "_TILE_CELLS", cells)
                    mp.setattr(lattice_core, "_READ_BYTES", cells * longest)
                outcomes.append(_read_outcome(path, Grid(0.05, 4, 4, Boundary.OPEN)))
    assert outcomes[1:] == outcomes[:1] * 3


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_a_mutated_field_csv_reads_as_the_loadtxt_reader_reads_it(data, random_field_4x4):
    """Whole and in blocks of 1, 2 and 7 lines, every mutated file gives the
    field, or the error message, of the ``np.loadtxt`` reader; a header
    that names a column twice, which that reader read, is the columns error."""
    text = _mutated_csv(data, random_field_4x4)
    grid = Grid(0.05, 4, 4, Boundary.OPEN)
    header = text.split(b"\n", 1)[0]
    names = [name.strip() for name in header.decode("latin-1").split(",")]
    if header.isascii() and any(names.count(name) > 1 for name in ("i", "j", "v1", "v2")):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "field.csv")
            with open(path, "wb") as fh:
                fh.write(text)
            with pytest.raises(ConfigError, match="needs the columns i, j, v1"):
                read_field_csv(path, grid)
        return
    assert_reads_as_loadtxt_reads(text, grid)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_diagnose_on_a_mutated_field_csv_succeeds_or_is_a_config_error(data, spin_field_8x8):
    text = _mutated_csv(data, spin_field_8x8)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "field.csv")
        with open(path, "wb") as fh:
            fh.write(text)
        argv = ["diagnose", "--field", path, "--l", "0.05", "--alpha", "7.92",
                "--nx", "8", "--ny", "8"]
        assert _exit_code(argv) in (0, 2)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_diagnose_flags_end_in_success_or_a_config_error(data, spin_field_8x8):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "field.csv")
        with open(path, "wb") as fh:
            fh.write(spin_field_8x8)
        argv = _draw_argv(data, "diagnose", DIAGNOSE_FLAGS) + ["--field", path]
        assert _exit_code(argv) in (0, 2)


class TestDiagnose:
    def test_report_keys(self, tmp_path):
        out = str(tmp_path)
        main(["--out-dir", out] + GROUND_STATE_ARGS)
        field = os.path.join(out, "ground_state_field.csv")
        args = ["--out-dir", out, "diagnose", "--field", field, "--l", "0.05",
                "--alpha", "7.92", "--nx", "16", "--ny", "16"]
        assert main(args) == 0
        with open(os.path.join(out, "diagnose_report.json")) as fh:
            report = json.load(fh)
        for key in ("large_angle_cells", "curl_l1", "curl_quantization_residual",
                    "lp_norms", "Hn", "Hn_star", "Hn_star_over_Hn", "counting_constant"):
            assert key in report
        assert report["large_angle_cells"] == 0
        assert report["curl_quantization_residual"] <= 1e-10

    def test_each_cells_angles_are_formed_once_plus_the_tile_margins(self, tmp_path,
                                                                      monkeypatch):
        # each tile of h rows forms both angles on its (h + 3) x (16 + 3) cells
        # with their two-cell margin, and every check reads those; so too both
        # steps' chiralities and the two components of chi, which Hn, the Lp
        # norms and Hn* share
        out = str(tmp_path)
        main(["--out-dir", out] + GROUND_STATE_ARGS)
        field = os.path.join(out, "ground_state_field.csv")
        formed, steps, chis = [], [], []
        original = spin_energy._oriented_angle
        original_steps, original_chi = spin_energy._chiralities, spin_energy._chi

        def counted(a, b):
            formed.append(a.shape[:2])
            return original(a, b)

        def counted_steps(a0, a1, b0, b1, delta):
            steps.append(a0.shape)
            return original_steps(a0, a1, b0, b1, delta)

        def counted_chi(chi_sq, chi_tilde, delta):
            chis.append(chi_sq.shape)
            return original_chi(chi_sq, chi_tilde, delta)

        monkeypatch.setattr(spin_energy, "_oriented_angle", counted)
        monkeypatch.setattr(spin_energy, "_chiralities", counted_steps)
        monkeypatch.setattr(spin_energy, "_chi", counted_chi)
        for rows, tiles in ((16, 1), (1, 16), (7, 3)):
            formed.clear()
            steps.clear()
            chis.clear()
            monkeypatch.setattr(lattice_core, "_TILE_CELLS", rows * 16)
            assert main(["--out-dir", out, "diagnose", "--field", field, "--l", "0.05",
                         "--alpha", "7.92", "--nx", "16", "--ny", "16"]) == 0
            assert len(formed) == 2 * tiles
            assert all(ny == 16 + 3 for _, ny in formed)
            assert sum(nx for nx, _ in formed) == 2 * (16 + 3 * tiles)
            assert steps == chis == formed

    @pytest.mark.parametrize("rows", [None, 1, 2, 7])
    def test_spins_off_the_unit_circle_in_the_last_row_are_a_config_error(
        self, rows, tmp_path, capsys, monkeypatch
    ):
        # the report checks the norm tile by tile; a bad last row ends the run
        # as the whole-field seal did, whichever tile reads it first
        out = str(tmp_path)
        main(["--out-dir", out] + GROUND_STATE_ARGS)
        field = os.path.join(out, "ground_state_field.csv")
        with open(field) as fh:
            header, *lines = fh.read().splitlines()
        for k in range(len(lines) - 16, len(lines)):  # the cells (15, j)
            i, j, v1, v2 = lines[k].split(",")
            lines[k] = f"{i},{j},{float(v1) * (1.0 + 1e-9)!r},{v2}"
        with open(field, "w") as fh:
            fh.write("\n".join([header] + lines) + "\n")
        if rows is not None:
            monkeypatch.setattr(lattice_core, "_TILE_CELLS", rows * 16)
        capsys.readouterr()
        assert main(["--out-dir", out, "diagnose", "--field", field, "--l", "0.05",
                     "--alpha", "7.92", "--nx", "16", "--ny", "16"]) == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "CONFIG_INVALID",
            "message": f"{field}: spin field values must be unit vectors (1e-12)",
        }
        assert not os.path.exists(os.path.join(out, "diagnose_report.json"))

    def test_missing_field_file_is_a_runtime_failure(self, tmp_path, capsys):
        args = ["--out-dir", str(tmp_path), "diagnose", "--field", "nope.csv",
                "--l", "0.05", "--alpha", "7.92", "--nx", "8", "--ny", "8"]
        assert main(args) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "RUNTIME_FAILURE"

    def test_config_file_gives_the_required_flags(self, tmp_path, capsys):
        out = str(tmp_path)
        assert main(["--out-dir", out] + GROUND_STATE_ARGS) == 0
        field = os.path.join(out, "ground_state_field.csv")
        section = f"[diagnose]\nfield = {field}\nl = 0.05\nalpha = 7.92\nny = 16\n"
        ini = tmp_path / "d.ini"
        ini.write_text(section + "nx = 16\n")
        assert main(["--config", str(ini), "--out-dir", out, "diagnose"]) == 0
        assert read_manifest(out, "diagnose")["parameters"]["alpha"] == 7.92
        assert main(["--config", str(ini), "--out-dir", out, "diagnose", "--alpha", "7.5"]) == 0
        assert read_manifest(out, "diagnose")["parameters"]["alpha"] == 7.5
        capsys.readouterr()
        ini.write_text(section)
        assert main(["--config", str(ini), "--out-dir", out, "diagnose"]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])
        assert error["error"] == "CONFIG_INVALID"
        assert error["message"] == "the following arguments are required: --nx"


def _traced_peak(argv):
    """Peak bytes tracemalloc sees while ``main`` runs ``argv``."""
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("command", ["ground-state", "diagnose", "entropy-scan"])
def test_peak_memory_above_the_field_grows_less_than_twice_from_128_to_512_per_side(
    command, tmp_path, monkeypatch
):
    """Each field command holds its one field (16 bytes per cell) and forms
    every other per-cell array one row tile at a time.  Tiles of 4096 cells
    cut both grids into many tiles (a 128 x 128 grid is one tile at the
    default height), so the peak above the field is a tile's and does not
    grow with the grid, where a whole-grid array grows 16-fold."""
    monkeypatch.setattr(lattice_core, "_TILE_CELLS", 4096)
    above = []
    for n in (128, 512):
        out = str(tmp_path / str(n))
        lattice = ["--l", "0.01", "--alpha", "7.92", "--nx", str(n), "--ny", str(n)]
        runs = {
            "ground-state": ["ground-state", "--chi", "0.6,0.8"] + lattice,
            "diagnose": ["diagnose", "--field", os.path.join(out, "ground_state_field.csv")]
            + lattice,
            "entropy-scan": ["entropy-scan", "--nx", str(n), "--ny", str(n), "--angles", "2"],
        }
        if command == "diagnose":
            assert main(["--out-dir", out] + runs["ground-state"]) == 0
        above.append(_traced_peak(["--out-dir", out] + runs[command]) - 16 * n * n)
    assert 0 < above[1] < 2 * above[0]


def test_a_failed_field_write_leaves_no_file(tmp_path, capsys, monkeypatch):
    def failing_write(field, path):
        with open(path, "w") as fh:
            fh.write("i,j,v1,v2\n0,0,")
        raise OSError("no space left on device")

    monkeypatch.setattr(cli, "write_field_csv", failing_write)
    assert main(["--out-dir", str(tmp_path)] + GROUND_STATE_ARGS) == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "RUNTIME_FAILURE", "message": "no space left on device",
    }
    assert os.listdir(tmp_path) == []


def test_an_energy_error_in_a_late_tile_leaves_no_file(tmp_path, capsys, monkeypatch):
    # the third of 16 one-row tiles of energy_Hn raises
    original, calls = spin_energy._hn_tile, []

    def failing_tile(tile, *args):
        calls.append(tile.i0)
        if len(calls) == 3:
            raise DomainError("field values must be finite")
        original(tile, *args)

    monkeypatch.setattr(spin_energy, "_hn_tile", failing_tile)
    monkeypatch.setattr(lattice_core, "_TILE_CELLS", 16)
    assert main(["--out-dir", str(tmp_path)] + GROUND_STATE_ARGS) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "RUNTIME_FAILURE"
    assert calls == [0, 1, 2]
    assert os.listdir(tmp_path) == []


def test_the_cli_imports_neither_numpy_polynomial_nor_numpy_typing():
    # no CLI path calls leggauss, which mollify and the profile energy import
    # where they call it, and NDArray is imported for type checkers only
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = ("import sys, chiralattice.cli\n"
            "print(sorted(m for m in sys.modules if m.startswith(('numpy.polynomial', "
            "'numpy.typing'))))")
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True)
    assert done.stdout.split() == ["[]"]


def test_a_failed_text_write_leaves_no_file(tmp_path):
    path = str(tmp_path / "report.json")
    with pytest.raises(UnicodeEncodeError):
        cli._atomic_write_text(path, "caf\u00e9\n")
    assert os.listdir(tmp_path) == []


# sha256 of every output of three fixed configs, recorded with numpy 2.4.6
# (Python 3.11, x86_64).  Refactors must reproduce these files byte for byte.
# diagnose_manifest.json is left out: it echoes the absolute --field path.
FIXED_CONFIG_SHA256 = {
    "ground_state_field.csv": "4994056108780255c92b08cf8654c699bae8c60937a1ba317030ab891806405f",
    "ground_state_energies.csv": "361a4ecef9624d70fbd8a4b9cd2b6b93ce2084e4ea3ff5a5067fe2f4bfd621bc",
    "ground_state_manifest.json": "ba933a93092b6d11624e4bbfb17d0885384b080c62f9d577bebc89814e4fe455",
    "diagnose_report.json": "f6eb90eec8a325d139053d03c5befd54796dfdfb41fe222c322ae3565b7ea255",
    "entropy_scan.csv": "76e8cbc4b95b263b40c326875a9c3b57e31d4764298655818c8a1f1ae08bf4f7",
    "entropy_scan_manifest.json": "8de8574b31f4537d1c8fa31c3469edf99f0a47877553aa7984fe11db1662a8fc",
    "gamma_table.csv": "a959d225b36190af89f901b3294d13577cc2f5639088d79b7eb16708a4d61885",
    "gamma_table_manifest.json": "4d74adff554460ced088950ededf0495f989a674c840203018efcc9ac2f278c7",
}

# the same for a wall rotated by 30 degrees, where every lattice point has
# its own distance from the wall
ROTATED_WALL_SHA256 = {
    "gamma_table.csv": "b329e1f1f17bdd4eceb1b1ec7ef9500ecb3090c9f85fab0114ecf136dc5c7d5b",
    "gamma_table_manifest.json": "955f0622e599b1483a2e58278638abffb35fc33750bf237362d07940a6871197",
}

# the same at more levels, whose 400 x 400 finest grids span many row tiles
MULTI_TILE_SHA256 = {
    ("--levels", "4"): {
        "gamma_table.csv": "3e07d1cfdaad24fa84156a486ab8e640fbfe63d10f94fa5448d2b4e6e71e487a",
        "gamma_table_manifest.json":
            "634d8accd7087081cc0b774642d624abbcd3d2c71067be0babd81000e7022d8d",
    },
    ("--wall-angle", "30", "--eps0", "0.04", "--levels", "3"): {
        "gamma_table.csv": "631e67c337f147b339e505cbc9ac02d8a0b7345fc3d58987de0d6735371959d0",
        "gamma_table_manifest.json":
            "c54487bbaa80f7efa45c1889230bf4699f5e6b1a92736127e471f202e52afd36",
    },
}

# the same for a short relaxation; relax_manifest.json is left out, since its
# derived facts may grow while the trace and the field stay put
RELAX_SHA256 = {
    "relax_trace.csv": "adabfb5804e85d603721fd3add551b04aff7221473865466f72635c538cb2754",
    "relax_field.csv": "615a407a7417649cbb8b223ae21e6f12e063d2344a1e892f6baae50b9abdad8f",
}


# the same for runs that read a stored field: entropy-scan on a 32 x 32
# chirality CSV (a VectorField from the read path), and diagnose on a periodic
# ground state; both manifests echo the absolute --field path and are left out
FIELD_READ_SHA256 = {
    "entropy_scan.csv": "77d258151665a214d24030375f41bcc2298fd92d843bbec47b388de81ee0c458",
    "diagnose_report.json": "af1ba6a468f779933a0569d8472df518a016eae9ea9c0f86a0d2988c56ab426a",
}


# The sets above are numpy 2.4.6's bytes at its AVX-512 dispatch levels.  Its
# AVX2 loops (X86_V3) and its X86_V2 baseline round arctan2, arcsin and **
# differently, and these outputs move: each pinned hash maps to the hash at
# those levels.  Recorded on one AVX-512 machine with NPY_DISABLE_CPU_FEATURES
# set to "AVX512_SPR", "AVX512_SPR AVX512_ICL", "... X86_V4" and "... X86_V3".
AVX2_SHA256 = {
    "f6eb90eec8a325d139053d03c5befd54796dfdfb41fe222c322ae3565b7ea255":  # diagnose_report
        "48935392ac4d73fca2b4d0f9668d6592883f0b3e164f07dcca3901caab62c771",
    "631e67c337f147b339e505cbc9ac02d8a0b7345fc3d58987de0d6735371959d0":  # gamma_table, 30 degrees
        "498599723b2f0e2f3a05d37710057e00e5cbacd2f5dcfd6e1e04c1624095f6a1",
    "adabfb5804e85d603721fd3add551b04aff7221473865466f72635c538cb2754":  # relax_trace
        "c8a87a48902bfff1bec757a04238244af077cd22fd1578873925458fab16604e",
    "615a407a7417649cbb8b223ae21e6f12e063d2344a1e892f6baae50b9abdad8f":  # relax_field
        "2be63ba58898b867868eada4a6d7726b5ecf9b04df15205dc9955fca719d036c",
    "af1ba6a468f779933a0569d8472df518a016eae9ea9c0f86a0d2988c56ab426a":  # field-read diagnose
        "22560815562f54568770b3987e3c0c240f37520f05fa7ef2aefc9c2a77e43262",
}
LEVEL_SHA256 = {"AVX512_SPR": {}, "AVX512_ICL": {}, "X86_V4": {},
                "X86_V3": AVX2_SHA256, "X86_V2": AVX2_SHA256}


def dispatch_level():
    """numpy's SIMD dispatch level: the highest target it dispatches to that
    the CPU has and ``NPY_DISABLE_CPU_FEATURES`` leaves on, else its baseline."""
    from numpy._core import _multiarray_umath as umath

    enabled = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    return (enabled or umath.__cpu_baseline__)[-1]


def recorded(pins, level=None):
    """``pins`` as numpy writes them at ``level`` (default: the running one).
    A level with no recorded set fails; it is never skipped."""
    level = level or dispatch_level()
    if level not in LEVEL_SHA256:
        pytest.fail(f"no sha256 set is recorded for numpy's dispatch level {level}")
    return {name: LEVEL_SHA256[level].get(digest, digest) for name, digest in pins.items()}


def _smooth_wall_chirality_csv(path, n=32):
    lines = ["i,j,v1,v2"]
    for i in range(n):
        for j in range(n):
            a = 0.25 * math.pi * math.tanh((i + 0.5 * j - 24.0) / 3.0) + 0.1 * math.sin(j / 5.0)
            lines.append(f"{i},{j},{math.cos(a)!r},{math.sin(a)!r}")
    path.write_text("\n".join(lines) + "\n")


def _fixed_config_runs(out):
    """The runs that write the files of ``FIXED_CONFIG_SHA256`` into ``out``."""
    lattice = ["--l", "0.05", "--nx", "32", "--ny", "32"]
    field = os.path.join(out, "ground_state_field.csv")
    return [
        ["ground-state", "--chi", "0.6,0.8", "--theta0", "0.3"] + lattice,
        ["diagnose", "--field", field, "--alpha", "7.92"] + lattice,
        ["entropy-scan", "--nx", "32", "--ny", "32", "--l", "0.03125", "--angles", "8"],
        ["gamma-table", "--levels", "2"],
    ]


def _field_read_runs(out, chi_path):
    """The runs that write the files of ``FIELD_READ_SHA256`` into ``out``,
    ``chi_path`` holding ``_smooth_wall_chirality_csv``."""
    # a helix winding once along x and twice along y on the 32 x 32 torus
    s1, s2 = math.sin(math.pi / 32), math.sin(math.pi / 16)
    delta = 4.0 * (s1**2 + s2**2)
    chi = f"{2 * s1 / math.sqrt(delta)!r},{2 * s2 / math.sqrt(delta)!r}"
    lattice = ["--l", "0.05", "--nx", "32", "--ny", "32", "--boundary", "periodic",
               "--alpha", repr(8.0 - 2.0 * delta)]
    field = os.path.join(out, "ground_state_field.csv")
    return [
        ["entropy-scan", "--field", str(chi_path), "--nx", "32", "--ny", "32",
         "--l", "0.03125", "--angles", "8"],
        ["ground-state", "--chi", chi] + lattice,
        ["diagnose", "--field", field] + lattice,
    ]


class TestFixedConfigOutputs:
    def test_outputs_match_recorded_hashes(self, tmp_path):
        out = str(tmp_path)
        runs = _fixed_config_runs(out)
        for args in runs:
            assert main(["--out-dir", out] + args) == 0
        found = {}
        for name in FIXED_CONFIG_SHA256:
            with open(os.path.join(out, name), "rb") as fh:
                found[name] = hashlib.sha256(fh.read()).hexdigest()
        assert found == recorded(FIXED_CONFIG_SHA256)

    def test_rotated_wall_outputs_match_recorded_hashes(self, tmp_path):
        out = str(tmp_path / "rotated")
        args = ["gamma-table", "--wall-angle", "30", "--eps0", "0.04", "--levels", "1"]
        assert main(["--out-dir", out] + args) == 0
        found = {}
        for name in ROTATED_WALL_SHA256:
            with open(os.path.join(out, name), "rb") as fh:
                found[name] = hashlib.sha256(fh.read()).hexdigest()
        assert found == recorded(ROTATED_WALL_SHA256)

    @pytest.mark.parametrize("args", list(MULTI_TILE_SHA256), ids=["aligned-4", "rotated-3"])
    def test_multi_tile_gamma_outputs_match_recorded_hashes(self, args, tmp_path):
        out = str(tmp_path)
        assert main(["--out-dir", out, "gamma-table", *args]) == 0
        found = {}
        for name in MULTI_TILE_SHA256[args]:
            with open(os.path.join(out, name), "rb") as fh:
                found[name] = hashlib.sha256(fh.read()).hexdigest()
        assert found == recorded(MULTI_TILE_SHA256[args])

    def test_relax_outputs_match_recorded_hashes(self, tmp_path):
        out = str(tmp_path)
        args = ["relax", "--eps", "0.08", "--nx", "12", "--ny", "12", "--max-iters", "300"]
        assert main(["--out-dir", out] + args) == 0
        found = {}
        for name in RELAX_SHA256:
            with open(os.path.join(out, name), "rb") as fh:
                found[name] = hashlib.sha256(fh.read()).hexdigest()
        assert found == recorded(RELAX_SHA256)

    def test_relax_outputs_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # the model Hessian and every inner product avoid BLAS, so the thread
        # count the BLAS and OpenMP libraries are given moves no byte
        args = ["relax", "--eps", "0.08", "--nx", "12", "--ny", "12", "--max-iters", "300"]
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        run = "from chiralattice.cli import main; raise SystemExit(main())"
        found = []
        for threads in ("1", "2"):
            out = str(tmp_path / threads)
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       PYTHONPATH=path)
            subprocess.run([sys.executable, "-c", run, "--out-dir", out] + args,
                           env=env, check=True, capture_output=True)
            found.append({})
            for name in RELAX_SHA256:
                with open(os.path.join(out, name), "rb") as fh:
                    found[-1][name] = hashlib.sha256(fh.read()).hexdigest()
        assert found == [recorded(RELAX_SHA256)] * 2

    def test_field_read_outputs_match_recorded_hashes(self, tmp_path):
        out = str(tmp_path)
        chi_path = tmp_path / "chi.csv"
        _smooth_wall_chirality_csv(chi_path)
        runs = _field_read_runs(out, chi_path)
        for args in runs:
            assert main(["--out-dir", out] + args) == 0
        found = {}
        for name in FIELD_READ_SHA256:
            with open(os.path.join(out, name), "rb") as fh:
                found[name] = hashlib.sha256(fh.read()).hexdigest()
        assert found == recorded(FIELD_READ_SHA256)

    def test_the_avx2_level_writes_its_recorded_set(self, tmp_path):
        """The cheap pinned configs, ground-state with diagnose, the sharp-wall
        entropy-scan and relax, in a child process where numpy runs its AVX2
        loops (X86_V3)."""
        lattice = ["--l", "0.05", "--nx", "32", "--ny", "32"]
        runs = [
            ["ground-state", "--chi", "0.6,0.8", "--theta0", "0.3"] + lattice,
            ["diagnose", "--field", str(tmp_path / "ground_state_field.csv"),
             "--alpha", "7.92"] + lattice,
            ["entropy-scan", "--nx", "32", "--ny", "32", "--l", "0.03125", "--angles", "8"],
            ["relax", "--eps", "0.08", "--nx", "12", "--ny", "12", "--max-iters", "300"],
        ]
        child = ("import json, sys\n"
                 "from chiralattice.cli import main\n"
                 "from test_cli import dispatch_level\n"
                 "for argv in json.loads(sys.argv[1]):\n"
                 "    assert main(['--out-dir', sys.argv[2]] + argv) == 0\n"
                 "print(dispatch_level())\n")
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        tests = os.path.dirname(os.path.abspath(__file__))
        path = os.pathsep.join(filter(None, (src, tests, os.environ.get("PYTHONPATH"))))
        env = dict(os.environ, NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4",
                   PYTHONPATH=path)
        done = subprocess.run([sys.executable, "-c", child, json.dumps(runs), str(tmp_path)],
                              env=env, check=True, capture_output=True, text=True)
        assert done.stdout.split()[-1] == "X86_V3"
        pins = {name: FIXED_CONFIG_SHA256[name] for name in FIXED_CONFIG_SHA256
                if name.startswith(("ground_state", "diagnose")) or name == "entropy_scan.csv"}
        pins.update(RELAX_SHA256)
        found = {}
        for name in pins:
            with open(tmp_path / name, "rb") as fh:
                found[name] = hashlib.sha256(fh.read()).hexdigest()
        assert found == recorded(pins, "X86_V3") != pins

    @pytest.mark.parametrize("rows", [1, 2, 7])
    def test_the_field_commands_write_their_recorded_bytes_at_any_tile_height(
        self, rows, tmp_path, monkeypatch
    ):
        # ground-state, diagnose and entropy-scan stream over row tiles, the
        # CSV writer blocks of an eighth as many cells (4, 8 and 28, so cut
        # inside the rows), and the CSV reader blocks of about as many lines
        # (its lines hold 46 to 50 bytes): at a few rows per tile every
        # 32 x 32 run crosses many seams
        monkeypatch.setattr(lattice_core, "_TILE_CELLS", rows * 32)
        monkeypatch.setattr(lattice_core, "_READ_BYTES", rows * 32 * 48)
        out = str(tmp_path)
        chi_path = tmp_path / "chi.csv"
        _smooth_wall_chirality_csv(chi_path)
        for runs, pins in ((_fixed_config_runs(out)[:3], FIXED_CONFIG_SHA256),
                           (_field_read_runs(out, chi_path), FIELD_READ_SHA256)):
            for args in runs:
                assert main(["--out-dir", out] + args) == 0
            pins = {name: pins[name] for name in pins if not name.startswith("gamma_table")}
            found = {}
            for name in pins:
                with open(os.path.join(out, name), "rb") as fh:
                    found[name] = hashlib.sha256(fh.read()).hexdigest()
            assert found == recorded(pins)

    def test_a_level_with_no_recorded_set_fails_and_names_it(self):
        with pytest.raises(pytest.fail.Exception, match="level ASIMDHP$"):
            recorded(RELAX_SHA256, "ASIMDHP")
