"""Command-line interface: outputs, manifests, error codes, reproducibility."""

import hashlib
import json
import math
import os

from chiralattice.cli import main


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
        code = main(["--out-dir", str(tmp_path), "gamma-table", "--kernel", "gaussian"])
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
        args = ["relax", "--eps", "0.08", "--nx", "8", "--ny", "8", "--tol-grad", "1e-5"]
        for max_iters, converged in (("5", False), ("5000", True)):
            out = str(tmp_path / max_iters)
            assert main(["--out-dir", out] + args + ["--max-iters", max_iters]) == 0
            derived = read_manifest(out, "relax")["derived"]
            assert derived["converged"] is converged
            assert (derived["grad_max"] <= 1e-5) is converged
            assert (derived["iterations"] < int(max_iters)) is converged


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

    def test_missing_field_file_is_a_runtime_failure(self, tmp_path, capsys):
        args = ["--out-dir", str(tmp_path), "diagnose", "--field", "nope.csv",
                "--l", "0.05", "--alpha", "7.92", "--nx", "8", "--ny", "8"]
        assert main(args) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "RUNTIME_FAILURE"


# sha256 of every output of three fixed configs, recorded with numpy 2.4.6
# (Python 3.11, x86_64).  Refactors must reproduce these files byte for byte.
# diagnose_manifest.json is left out: it echoes the absolute --field path.
FIXED_CONFIG_SHA256 = {
    "ground_state_field.csv": "4994056108780255c92b08cf8654c699bae8c60937a1ba317030ab891806405f",
    "ground_state_energies.csv": "ceaae9db0335aabb8bdbf30078d2f2d1c976d93c309e027f56fb12c9c065fffc",
    "ground_state_manifest.json": "ba933a93092b6d11624e4bbfb17d0885384b080c62f9d577bebc89814e4fe455",
    "diagnose_report.json": "a789a5c176fc8d92b3c090e47c0f443878d75ca8c460f0972787a8593c03d0c3",
    "entropy_scan.csv": "76e8cbc4b95b263b40c326875a9c3b57e31d4764298655818c8a1f1ae08bf4f7",
    "entropy_scan_manifest.json": "8de8574b31f4537d1c8fa31c3469edf99f0a47877553aa7984fe11db1662a8fc",
    "gamma_table.csv": "c1d1dcfd47e58d55c9bb70fffddd089727d536fd7e508e7664e430ef1242d7c8",
    "gamma_table_manifest.json": "d92d7729e30d6e5f538727091c1c25c84262cb084bc48aa803246f91029f7a4b",
}

# the same for a wall rotated by 30 degrees, where every lattice point has
# its own distance from the wall
ROTATED_WALL_SHA256 = {
    "gamma_table.csv": "c7d07d17ff61c8ed172e0c98027af2a88f2dc3fcb2f2505b47ac1270cbd9aae8",
    "gamma_table_manifest.json": "5063b50f979dac3770f47d7922e9d4325bd936d73e56637c6b9a5e7993a762fa",
}

# the same for a short relaxation; relax_manifest.json is left out, since its
# derived facts may grow while the trace and the field stay put
RELAX_SHA256 = {
    "relax_trace.csv": "da924cdc36f43b94117406fd7cc784da53680b414a620a745301b648f52e2a96",
    "relax_field.csv": "d35fdb1a05c4e08b40a34cca6cb9b89327a20f53d185d7371c253ac60e0aa68e",
}


class TestFixedConfigOutputs:
    def test_outputs_match_recorded_hashes(self, tmp_path):
        out = str(tmp_path)
        lattice = ["--l", "0.05", "--nx", "32", "--ny", "32"]
        field = os.path.join(out, "ground_state_field.csv")
        runs = [
            ["ground-state", "--chi", "0.6,0.8", "--theta0", "0.3"] + lattice,
            ["diagnose", "--field", field, "--alpha", "7.92"] + lattice,
            ["entropy-scan", "--nx", "32", "--ny", "32", "--l", "0.03125", "--angles", "8"],
            ["gamma-table", "--levels", "2"],
        ]
        for args in runs:
            assert main(["--out-dir", out] + args) == 0
        found = {}
        for name in FIXED_CONFIG_SHA256:
            with open(os.path.join(out, name), "rb") as fh:
                found[name] = hashlib.sha256(fh.read()).hexdigest()
        assert found == FIXED_CONFIG_SHA256

    def test_rotated_wall_outputs_match_recorded_hashes(self, tmp_path):
        out = str(tmp_path / "rotated")
        args = ["gamma-table", "--wall-angle", "30", "--eps0", "0.04", "--levels", "1"]
        assert main(["--out-dir", out] + args) == 0
        found = {}
        for name in ROTATED_WALL_SHA256:
            with open(os.path.join(out, name), "rb") as fh:
                found[name] = hashlib.sha256(fh.read()).hexdigest()
        assert found == ROTATED_WALL_SHA256

    def test_relax_outputs_match_recorded_hashes(self, tmp_path):
        out = str(tmp_path)
        args = ["relax", "--eps", "0.08", "--nx", "12", "--ny", "12", "--max-iters", "300"]
        assert main(["--out-dir", out] + args) == 0
        found = {}
        for name in RELAX_SHA256:
            with open(os.path.join(out, name), "rb") as fh:
                found[name] = hashlib.sha256(fh.read()).hexdigest()
        assert found == RELAX_SHA256
