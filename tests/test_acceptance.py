"""End-to-end acceptance checks.

Each test covers one numbered criterion; conftest.py turns their outcomes
into a ten-line `criterion N: PASS/FAIL` scoreboard in the terminal summary.
"""

import math
import os

import numpy as np
import pytest

from chiralattice import (
    DEFAULT_KERNEL_RADIUS,
    Boundary,
    FixedAngles,
    Grid,
    ModelParams,
    RelaxConfig,
    ScalingSchedule,
    SpinField,
    bulk_identity_check,
    canonical_wall,
    chirality,
    commensurate_unit_chirality,
    curl_d,
    curl_quantization_residual,
    discretize_potential,
    energy_F,
    energy_Hn,
    ent_norm_estimate,
    f_gradient,
    gamma_limsup_experiment,
    ground_state_from_chirality,
    jin_kohn,
    modica_mortola_profile_energy,
    mollified_wall_potential,
    perp,
    psi_alpha,
    quartic_bump,
    relax,
    spin_from_potential,
    total_variation_production,
    wall_start,
)
from chiralattice.cli import main as cli_main
from chiralattice.lattice_core import ScalarField

SQRT2_OVER_3 = math.sqrt(2.0) / 3.0


def random_spins(grid, rng):
    raw = rng.normal(size=(grid.nx, grid.ny, 2))
    raw /= np.linalg.norm(raw, axis=-1, keepdims=True)
    return SpinField(grid, raw)


@pytest.fixture(scope="module")
def gamma_rows():
    schedule = ScalingSchedule.geometric(eps0=0.08, levels=4, ratio=0.5, delta_exponent=0.6)
    return gamma_limsup_experiment(canonical_wall(), schedule)


def level_field(row):
    """The spin field of one gamma-table row, sampled on the level's grid."""
    p = row["_params"]
    size = int(round(1.0 / p.l)) + 2
    grid = Grid(p.l, size, size, Boundary.OPEN)
    m = quartic_bump(DEFAULT_KERNEL_RADIUS)
    phi_eps = mollified_wall_potential(canonical_wall(), p.eps, m)
    return spin_from_potential(discretize_potential(phi_eps, grid, row["_origin"]), p)


def test_criterion_1_exact_ground_states():
    rng = np.random.default_rng(2024)
    l = 0.05
    for delta_target in (0.01, 0.04, 0.25):
        nx = ny = 128
        g = Grid(l, nx, ny, Boundary.PERIODIC)
        for _ in range(64):
            chi, delta = commensurate_unit_chirality(delta_target, nx, ny, rng)
            p = ModelParams(l=l, alpha=8.0 - 2.0 * delta)
            u = ground_state_from_chirality(tuple(chi), p, g)
            assert energy_F(u, p) / (l**2 * nx * ny) <= 1e-18


def test_criterion_2_bulk_identity():
    rng = np.random.default_rng(7)
    for n in (16, 64):
        g = Grid(0.05, n, n, Boundary.PERIODIC)
        u = random_spins(g, rng)
        for beta in (0.0, 1.0, 2.0):
            p = ModelParams(l=0.05, alpha=7.3, beta=beta)
            assert bulk_identity_check(u, p) <= 1e-12


def test_criterion_3_rescaling_identity():
    rng = np.random.default_rng(11)
    g = Grid(0.05, 12, 12, Boundary.PERIODIC)
    p = ModelParams(l=0.05, alpha=7.5)
    for _ in range(20):
        u = random_spins(g, rng)
        f = energy_F(u, p)
        hn = energy_Hn(u, p).total
        assert abs(f / (p.delta**1.5 * p.l) - hn) <= 1e-12 * abs(hn)


def test_criterion_4_entropy_algebra():
    rng = np.random.default_rng(13)
    xi = rng.normal(scale=1.5, size=(10000, 2))
    e = jin_kohn((0.6, 0.8))
    d = e.dphi(xi)
    cond = np.einsum("...i,...ij,...j->...", xi, d, perp(xi))
    assert np.all(np.abs(cond) <= 1e-9 * (1.0 + np.linalg.norm(xi, axis=-1) ** 3))
    psi, alpha = psi_alpha(e, xi)
    relation = d + 2.0 * psi[..., :, None] * xi[..., None, :] - alpha[..., None, None] * np.eye(2)
    assert np.max(np.abs(relation)) <= 1e-9
    norm = ent_norm_estimate(jin_kohn((1.0, 0.0)), (0.05, 2.0, 0.05, 2.0), 512)
    assert abs(norm - 1.0) <= 1e-3


def test_criterion_5_optimal_profile_constant():
    for d in (0.5, math.sqrt(2.0), 2.0):
        assert abs(modica_mortola_profile_energy(d) - d**3 / 6.0) <= 1e-6


def test_criterion_6_gamma_limsup_convergence(gamma_rows):
    hn = [r["Hn"] for r in gamma_rows]
    assert [r["eps"] for r in gamma_rows] == pytest.approx([0.08, 0.04, 0.02, 0.01])
    assert all(b <= 1.03 * a for a, b in zip(hn, hn[1:]))
    assert abs(hn[-1] - SQRT2_OVER_3) / SQRT2_OVER_3 <= 0.10
    gaps = [r["gap"] for r in gamma_rows]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))


def test_criterion_7_liminf_compatibility(gamma_rows):
    wall = canonical_wall()
    e = jin_kohn(wall.nu)
    for r in gamma_rows:
        chi = chirality(level_field(r), r["_params"]).chi
        tv = total_variation_production(chi, e)
        assert tv <= 1.05 * r["Hn"]


def test_criterion_8_curl_quantization_and_decay(gamma_rows):
    rng = np.random.default_rng(17)
    g = Grid(0.05, 16, 16, Boundary.PERIODIC)
    p = ModelParams(l=0.05, alpha=7.5)
    for _ in range(5):
        u = random_spins(g, rng)
        ch = chirality(u, p)
        assert curl_quantization_residual(ch.chi_bar, p) <= 1e-10
    for r in gamma_rows:
        q = r["_params"]
        bar = chirality(level_field(r), q).chi_bar
        c = curl_d(bar)
        si, sj = c.valid.slices
        scaled = q.l * math.sqrt(q.delta) * np.abs(c.values[si, sj])
        assert np.max(scaled) <= 1e-10  # no vortices: the quantized value is 0


def test_criterion_9_gradient_correctness_and_wall_energy():
    rng = np.random.default_rng(19)
    g = Grid(0.05, 6, 6, Boundary.PERIODIC)
    p = ModelParams(l=0.05, alpha=7.5)
    h = 1e-6

    def bulk(psi):
        return energy_F(SpinField(g, np.stack([np.cos(psi), np.sin(psi)], axis=-1)), p)

    for _ in range(20):
        psi = rng.normal(scale=0.5, size=(6, 6))
        grad = f_gradient(ScalarField(g, psi), p).values
        i, j = rng.integers(0, 6, size=2)
        bump = np.zeros_like(psi)
        bump[i, j] = h
        fd = (bulk(psi + bump) - bulk(psi - bump)) / (2.0 * h)
        assert abs(grad[i, j] - fd) <= 1e-6 * (abs(fd) + 1e-8)

    eps = 0.02
    delta = eps**0.6
    p = ModelParams(l=eps * math.sqrt(delta), alpha=8.0 - 2.0 * delta)
    n = 48
    g = Grid(p.l, n, n, Boundary.OPEN)
    s = 1.0 / math.sqrt(2.0)
    b = FixedAngles((-s, s), (s, s))
    u0 = wall_start(b, p, g)
    u, trace, _ = relax(u0, p, RelaxConfig(max_iters=8000, boundary=b))
    assert np.all(np.diff(trace) < 0.0)
    tension = energy_Hn(u, p).total / (p.l * (n - 1))
    assert abs(tension - SQRT2_OVER_3) / SQRT2_OVER_3 <= 0.25


def test_criterion_10_thread_count_reproducibility(tmp_path):
    args = [
        "ground-state", "--chi", "0.6,0.8", "--alpha", "7.92",
        "--l", "0.05", "--nx", "32", "--ny", "32",
    ]
    contents = []
    for threads in ("1", "2", "8"):
        out = str(tmp_path / f"t{threads}")
        assert cli_main(["--out-dir", out, "--threads", threads] + args) == 0
        blob = {}
        for fname in ("ground_state_field.csv", "ground_state_energies.csv"):
            with open(os.path.join(out, fname), "rb") as fh:
                blob[fname] = fh.read()
        contents.append(blob)
    assert contents[0] == contents[1] == contents[2]
