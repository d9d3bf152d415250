"""Spin energies, chirality variants, and their exact identities."""

import math

import numpy as np
import pytest

from chiralattice import (
    Ad,
    Boundary,
    DomainError,
    FixedAngles,
    Grid,
    HelixSpec,
    ModelParams,
    ParameterError,
    Rect,
    RelaxConfig,
    SpinField,
    Wd,
    angles,
    bulk_identity_check,
    chirality,
    curl_quantization_residual,
    energy_AGd,
    energy_E,
    energy_F,
    energy_Hn,
    energy_Hn_star,
    f_gradient,
    ground_state_from_chirality,
    helical_field,
    laplacian_AG_energy,
    potential_W,
    relax,
    spin_from_potential,
    wall_start,
)
from chiralattice.lattice_core import ScalarField


def random_spins(grid, seed):
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(grid.nx, grid.ny, 2))
    raw /= np.linalg.norm(raw, axis=-1, keepdims=True)
    return SpinField(grid, raw)


def constant_spins(grid, direction=(1.0, 0.0)):
    vals = np.zeros((grid.nx, grid.ny, 2))
    vals[..., 0], vals[..., 1] = direction
    return SpinField(grid, vals)


class TestModelParams:
    def test_derived_scales(self):
        p = ModelParams(l=0.02, alpha=7.92)
        assert math.isclose(p.delta, 0.04, rel_tol=1e-15)
        assert math.isclose(p.eps, 0.02 / math.sqrt(0.04), rel_tol=1e-15)

    def test_rejects_bad_couplings(self):
        with pytest.raises(ParameterError):
            ModelParams(l=0.0, alpha=7.0)
        with pytest.raises(ParameterError):
            ModelParams(l=0.1, alpha=7.0, beta=2.5)
        with pytest.raises(ParameterError):
            ModelParams(l=0.1, alpha=7.0, beta=-0.1)

    def test_transition_regime_gate(self):
        ModelParams(l=0.1, alpha=7.5).require_transition_regime()
        with pytest.raises(ParameterError):
            ModelParams(l=0.1, alpha=7.5, beta=1.0).require_transition_regime()
        with pytest.raises(ParameterError):
            ModelParams(l=0.1, alpha=8.0).require_transition_regime()
        with pytest.raises(ParameterError):
            ModelParams(l=0.1, alpha=0.0).require_transition_regime()

    def test_the_lattice_spacing_has_one_owner(self):
        # F and Hn scale with l differently: l = 0.05 would read 1.098 on this field
        g = Grid(0.1, 16, 16, Boundary.OPEN)
        u = random_spins(g, 3)
        p = ModelParams(l=0.1, alpha=7.5)
        ratio = energy_F(u, p) / (p.delta**1.5 * p.l * energy_Hn(u, p).total)
        assert math.isclose(ratio, 1.0, rel_tol=1e-12)
        with pytest.raises(ParameterError, match="is not the grid spacing"):
            energy_F(u, ModelParams(l=0.05, alpha=7.5))

    @pytest.mark.parametrize("call", [
        lambda u, phi, p: energy_E(u, p),
        lambda u, phi, p: energy_F(u, p),
        lambda u, phi, p: energy_Hn(u, p),
        lambda u, phi, p: energy_Hn_star(u, p),
        lambda u, phi, p: energy_AGd(phi, p),
        lambda u, phi, p: bulk_identity_check(random_spins(Grid(0.1, 16, 16), 4), p),
        lambda u, phi, p: spin_from_potential(phi, p),
        lambda u, phi, p: laplacian_AG_energy(phi, p),
        lambda u, phi, p: relax(u, p, RelaxConfig(max_iters=1)),
        lambda u, phi, p: f_gradient(phi, p),
        lambda u, phi, p: curl_quantization_residual(chirality(u, p).chi_bar, p),
        lambda u, phi, p: ground_state_from_chirality((0.6, 0.8), p, u.grid),
        lambda u, phi, p: wall_start(FixedAngles((-0.6, 0.8), (0.6, 0.8)), p, u.grid),
    ], ids=["energy_E", "energy_F", "energy_Hn", "energy_Hn_star", "energy_AGd",
            "bulk_identity_check", "spin_from_potential", "laplacian_AG_energy", "relax",
            "f_gradient", "curl_quantization_residual", "ground_state_from_chirality",
            "wall_start"])
    def test_model_spacing_must_be_the_grid_spacing(self, call):
        g = Grid(0.1, 16, 16, Boundary.OPEN)
        u = random_spins(g, 4)
        phi = ScalarField(g, np.random.default_rng(5).normal(scale=0.01, size=(16, 16)))
        call(u, phi, ModelParams(l=0.1, alpha=7.5))
        with pytest.raises(ParameterError, match="is not the grid spacing"):
            call(u, phi, ModelParams(l=0.05, alpha=7.5))

    def test_spin_field_rejects_non_unit_vectors(self):
        g = Grid(0.1, 4, 4)
        with pytest.raises(DomainError):
            SpinField(g, np.full((4, 4, 2), 0.9))


class TestOrientedAngles:
    def test_quarter_turn(self):
        g = Grid(0.1, 4, 4, Boundary.PERIODIC)
        u = helical_field(HelixSpec(0.0, math.pi / 2.0, 0.0), g)
        th, tv = angles(u)
        assert np.allclose(th.values, math.pi / 2.0, rtol=0, atol=1e-15)
        assert np.allclose(tv.values, 0.0, rtol=0, atol=0)

    def test_antipodal_pairs_get_minus_pi(self):
        g = Grid(0.1, 4, 4, Boundary.PERIODIC)
        vals = np.zeros((4, 4, 2))
        vals[..., 0] = np.where(np.arange(4)[:, None] % 2 == 0, 1.0, -1.0)
        u = SpinField(g, vals)
        th, _ = angles(u)
        assert np.all(th.values == -math.pi)

    def test_tiny_angles_to_relative_precision(self):
        g = Grid(0.1, 2, 2, Boundary.PERIODIC)
        t = 1e-8
        vals = np.zeros((2, 2, 2))
        vals[0, :, 0] = 1.0
        vals[1, :, 0], vals[1, :, 1] = math.cos(t), math.sin(t)
        # the wrap pair sees the angle -t
        u = SpinField(g, vals)
        th, _ = angles(u)
        assert math.isclose(th.values[0, 0], t, rel_tol=1e-12)
        assert math.isclose(th.values[1, 0], -t, rel_tol=1e-12)


class TestChirality:
    def test_half_angle_scaling(self):
        g = Grid(0.1, 4, 4, Boundary.PERIODIC)
        u = helical_field(HelixSpec(0.0, math.pi / 2.0, 0.0), g)
        p = ModelParams(l=0.1, alpha=7.92)  # delta = 0.04
        ch = chirality(u, p)
        assert np.allclose(ch.chi.values[..., 0], 10.0 * math.sin(math.pi / 4.0), rtol=1e-15)
        assert np.allclose(ch.chi_tilde.values[..., 0], 5.0, rtol=1e-15)
        assert np.allclose(ch.chi_bar.values[..., 0], 5.0 * math.pi / 2.0, rtol=1e-15)

    def test_variant_inequalities(self):
        g = Grid(0.05, 12, 12, Boundary.PERIODIC)
        u = random_spins(g, 1)
        p = ModelParams(l=0.05, alpha=7.5)
        ch = chirality(u, p)
        chi = np.abs(ch.chi.values)
        bar = np.abs(ch.chi_bar.values)
        tilde = np.abs(ch.chi_tilde.values)
        assert np.all(bar <= (math.pi / 2.0) * chi + 1e-15)
        assert np.all(tilde <= chi + 1e-15)
        # |chi - chi_bar| <= (delta / 24) |chi_bar|^3, the half-angle sine expansion
        assert np.all(np.abs(ch.chi.values - ch.chi_bar.values) <= p.delta / 24.0 * bar**3 + 1e-15)

    def test_variants_are_built_on_first_read(self):
        # Hn reads chi (in Wd) and chi_tilde (in Ad) but never chi_bar
        g = Grid(0.05, 12, 12, Boundary.OPEN)
        ch = chirality(random_spins(g, 3), ModelParams(l=0.05, alpha=7.5))
        Wd(ch)
        Ad(ch)
        assert "chi_bar" not in vars(ch)
        assert ch.chi_bar is ch.chi_bar

    def test_unit_chirality_of_matched_helix(self):
        p = ModelParams(l=0.1, alpha=7.92)
        theta = 2.0 * math.asin(math.sqrt(p.delta) / 2.0)
        g = Grid(0.1, 8, 8, Boundary.OPEN)
        u = helical_field(HelixSpec(0.0, theta, 0.0), g)
        ch = chirality(u, p)
        si, sj = ch.chi.valid.slices
        assert np.allclose(ch.chi.values[si, sj, 0], 1.0, rtol=0, atol=1e-14)


class TestEnergyE:
    def test_constant_field_at_the_transition_point(self):
        g = Grid(0.1, 8, 8, Boundary.PERIODIC)
        u = constant_spins(g)
        p = ModelParams(l=0.1, alpha=8.0)
        # all six pair dots are 1: E = l^2 N (-2 alpha + 2 beta + 2)
        assert math.isclose(energy_E(u, p), -10.0 * 0.1**2 * 64, rel_tol=1e-14)

    def test_checkerboard(self):
        g = Grid(0.1, 8, 8, Boundary.PERIODIC)
        sign = np.where((np.add.outer(np.arange(8), np.arange(8))) % 2 == 0, 1.0, -1.0)
        vals = np.zeros((8, 8, 2))
        vals[..., 0] = sign
        u = SpinField(g, vals)
        p = ModelParams(l=0.1, alpha=3.0, beta=2.0)
        expected = 0.1**2 * 64 * (2 * p.alpha + 2 * p.beta + 2)
        assert math.isclose(energy_E(u, p), expected, rel_tol=1e-14)

    def test_too_small_open_grid_sums_nothing(self):
        g = Grid(0.1, 2, 2, Boundary.OPEN)
        u = constant_spins(g)
        assert energy_E(u, ModelParams(l=0.1, alpha=3.0)) == 0.0


class TestEnergyF:
    def test_constant_field_value(self):
        g = Grid(0.1, 8, 8, Boundary.PERIODIC)
        u = constant_spins(g)
        p = ModelParams(l=0.1, alpha=7.5)
        expected = 0.5 * 0.1**2 * 64 * p.delta**2
        assert math.isclose(energy_F(u, p), expected, rel_tol=1e-13)

    def test_beta_zero_helix_is_a_ground_state(self):
        # at beta = 0 the residuals vanish when cos(theta) = alpha / 4 per axis
        p = ModelParams(l=0.1, alpha=3.0, beta=0.0)
        theta = math.acos(3.0 / 4.0)
        g = Grid(0.1, 10, 10, Boundary.OPEN)
        u = helical_field(HelixSpec(0.2, theta, theta), g)
        assert abs(energy_F(u, p)) <= 1e-26

    def test_nonnegative_on_random_fields(self):
        g = Grid(0.1, 10, 10, Boundary.PERIODIC)
        for seed in range(3):
            u = random_spins(g, seed)
            assert energy_F(u, ModelParams(l=0.1, alpha=7.0, beta=1.0)) >= 0.0


class TestBulkIdentity:
    @pytest.mark.parametrize("beta", [0.0, 1.0, 2.0])
    def test_random_spins(self, beta):
        g = Grid(0.1, 12, 12, Boundary.PERIODIC)
        u = random_spins(g, 42)
        p = ModelParams(l=0.1, alpha=7.3, beta=beta)
        assert bulk_identity_check(u, p) <= 1e-12

    def test_commensurate_helix(self):
        # beta = 1, alpha = 3: residuals vanish at theta = pi/3, which winds
        # integrally on a 12-torus, so E equals minus the bulk constant
        p = ModelParams(l=0.1, alpha=3.0, beta=1.0)
        g = Grid(0.1, 12, 12, Boundary.PERIODIC)
        u = helical_field(HelixSpec(0.0, math.pi / 3.0, math.pi / 3.0), g)
        assert abs(energy_F(u, p)) <= 1e-24
        assert bulk_identity_check(u, p) <= 1e-12
        shift = 0.1**2 * 144 * (9.0 / 6.0 + 2.0)
        assert math.isclose(energy_E(u, p), -shift, rel_tol=1e-12)

    def test_open_grids_rejected(self):
        g = Grid(0.1, 8, 8, Boundary.OPEN)
        u = constant_spins(g)
        with pytest.raises(DomainError):
            bulk_identity_check(u, ModelParams(l=0.1, alpha=7.5))


class TestWellAndDivergence:
    def make_chirality(self, chi_values, l=0.1, alpha=7.92):
        # wrap prescribed chirality values into a ground-state-free helix check
        p = ModelParams(l=l, alpha=alpha)
        sqd = math.sqrt(p.delta)
        g = Grid(l, *chi_values.shape[:2], Boundary.PERIODIC)
        th = 2.0 * np.arcsin(sqd * chi_values[..., 0] / 2.0)
        return p, g, th

    def test_well_at_zero_chirality_is_one(self):
        g = Grid(0.1, 6, 6, Boundary.PERIODIC)
        u = constant_spins(g)
        p = ModelParams(l=0.1, alpha=7.92)
        w = Wd(chirality(u, p))
        assert np.allclose(w.values, 1.0, rtol=0, atol=0)

    def test_well_of_constant_horizontal_chirality(self):
        p = ModelParams(l=0.1, alpha=7.92)
        c = 0.6
        theta = 2.0 * math.asin(math.sqrt(p.delta) * c / 2.0)
        g = Grid(0.1, 8, 8, Boundary.OPEN)
        u = helical_field(HelixSpec(0.0, theta, 0.0), g)
        w = Wd(chirality(u, p))
        si, sj = w.valid.slices
        assert np.allclose(w.values[si, sj], (1.0 - c * c) ** 2, rtol=1e-13)

    def test_shifted_divergence_of_helix_vanishes(self):
        p = ModelParams(l=0.1, alpha=7.92)
        g = Grid(0.1, 8, 8, Boundary.OPEN)
        u = helical_field(HelixSpec(0.0, 0.11, -0.07), g)
        a = Ad(chirality(u, p))
        si, sj = a.valid.slices
        assert np.allclose(a.values[si, sj], 0.0, rtol=0, atol=1e-12)


class TestRescaledEnergies:
    @pytest.mark.parametrize("boundary", [Boundary.PERIODIC, Boundary.OPEN])
    def test_rescaling_identity(self, boundary):
        g = Grid(0.05, 12, 12, boundary)
        p = ModelParams(l=0.05, alpha=7.5)
        for seed in range(5):
            u = random_spins(g, seed)
            f = energy_F(u, p)
            hn = energy_Hn(u, p)
            assert math.isclose(f, p.delta**1.5 * p.l * hn.total, rel_tol=1e-12)

    def test_ferromagnet_potential_energy(self):
        g = Grid(0.05, 10, 10, Boundary.PERIODIC)
        u = constant_spins(g)
        p = ModelParams(l=0.05, alpha=7.5)
        hn = energy_Hn(u, p)
        area = 0.05**2 * 100
        assert math.isclose(hn.total, area / (2.0 * p.eps), rel_tol=1e-14)
        assert hn.derivative_part == 0.0

    def test_ground_state_has_zero_energy(self):
        p = ModelParams(l=0.1, alpha=7.92)
        theta = 2.0 * math.asin(math.sqrt(p.delta) / 2.0)
        g = Grid(0.1, 10, 10, Boundary.OPEN)
        u = helical_field(HelixSpec(0.0, theta, 0.0), g)
        assert energy_Hn(u, p).total <= 1e-22

    def test_star_variant_shares_potential_on_constant_fields(self):
        g = Grid(0.05, 10, 10, Boundary.PERIODIC)
        u = constant_spins(g)
        p = ModelParams(l=0.05, alpha=7.5)
        hs = energy_Hn_star(u, p)
        hn = energy_Hn(u, p)
        assert math.isclose(hs.potential_part, hn.potential_part, rel_tol=1e-14)
        assert hs.derivative_part == 0.0

    def test_rescaled_energies_require_beta_two(self):
        g = Grid(0.05, 8, 8, Boundary.PERIODIC)
        u = constant_spins(g)
        with pytest.raises(ParameterError):
            energy_Hn(u, ModelParams(l=0.05, alpha=7.5, beta=1.0))


class TestScalarPotentialEnergy:
    def test_affine_unit_slope_potential_has_zero_energy(self):
        g = Grid(0.05, 10, 10, Boundary.OPEN)
        i = np.arange(10, dtype=np.float64)[:, None] * np.ones((1, 10))
        phi = ScalarField(g, i * g.spacing)
        p = ModelParams(l=0.05, alpha=7.5)
        rec = energy_AGd(phi, p)
        assert rec.total <= 1e-24

    def test_constant_slope_well_value(self):
        g = Grid(0.05, 10, 10, Boundary.OPEN)
        c = 0.4
        i = np.arange(10, dtype=np.float64)[:, None] * np.ones((1, 10))
        phi = ScalarField(g, c * i * g.spacing)
        p = ModelParams(l=0.05, alpha=7.5)
        rec = energy_AGd(phi, p)
        rect = Rect(0, 8, 0, 8)
        area = g.spacing**2 * rect.count
        assert math.isclose(rec.potential_part, (1.0 - c * c) ** 2 * area / (2.0 * p.eps), rel_tol=1e-13)
        assert rec.derivative_part <= 1e-25


class TestWellAlgebra:
    def test_reverse_triangle_gap_bound(self):
        # |sqrt(Wd) - sqrt(W)| is bounded by the discrete-gradient cross terms
        g = Grid(0.05, 12, 12, Boundary.PERIODIC)
        p = ModelParams(l=0.05, alpha=7.5)
        u = random_spins(g, 3)
        ch = chirality(u, p)
        wd = Wd(ch)
        w = potential_W(ch.chi.values)
        c1 = ch.chi.values[..., 0]
        c2 = ch.chi.values[..., 1]
        d1m = (c1 - np.roll(c1, 1, axis=0)) / g.spacing
        d2m = (c2 - np.roll(c2, 1, axis=1)) / g.spacing
        lhs = np.abs(np.sqrt(wd.values) - np.sqrt(w))
        rhs = 0.5 * np.abs(
            (c1 + np.roll(c1, 1, axis=0)) * g.spacing * d1m
            + (c2 + np.roll(c2, 1, axis=1)) * g.spacing * d2m
        )
        assert np.all(lhs <= rhs + 1e-12)


class TestSymmetry:
    def test_energies_invariant_under_global_rotation_and_reflection(self):
        g = Grid(0.1, 10, 10, Boundary.PERIODIC)
        u = random_spins(g, 21)
        p = ModelParams(l=0.1, alpha=7.2, beta=1.5)
        c, s = math.cos(0.83), math.sin(0.83)
        rot = np.array([[c, -s], [s, c]])
        ref = np.array([[1.0, 0.0], [0.0, -1.0]])
        for m in (rot, ref, rot @ ref):
            v = SpinField(g, u.values @ m.T)
            assert math.isclose(energy_E(v, p), energy_E(u, p), rel_tol=1e-12)
            assert math.isclose(energy_F(v, p), energy_F(u, p), rel_tol=1e-12)
