"""Helical ground states and commensurate chiralities."""

import math

import numpy as np
import pytest

from chiralattice import (
    Boundary,
    ConfigError,
    DomainError,
    Grid,
    HelixSpec,
    ModelParams,
    angles,
    chirality,
    commensurate_unit_chirality,
    energy_F,
    ground_state_from_chirality,
    helical_field,
)


class TestHelicalField:
    def test_spec_validation(self):
        with pytest.raises(DomainError):
            HelixSpec(0.0, math.pi, 0.0)
        with pytest.raises(DomainError):
            HelixSpec(math.nan, 0.1, 0.1)

    def test_values_are_the_rotating_phase(self):
        g = Grid(0.1, 5, 4, Boundary.OPEN)
        u = helical_field(HelixSpec(0.3, 0.2, -0.1), g)
        psi = 0.3 + 0.2 * 3 - 0.1 * 2
        assert math.isclose(u.values[3, 2, 0], math.cos(psi), rel_tol=1e-15)
        assert math.isclose(u.values[3, 2, 1], math.sin(psi), rel_tol=1e-15)

    def test_incommensurate_helix_rejected_on_periodic_grids(self):
        g = Grid(0.1, 8, 8, Boundary.PERIODIC)
        with pytest.raises(ConfigError) as exc:
            helical_field(HelixSpec(0.0, 0.3, 0.0), g)
        assert exc.value.code == "INCOMMENSURATE_HELIX"

    def test_commensurate_helix_accepted(self):
        g = Grid(0.1, 8, 8, Boundary.PERIODIC)
        helical_field(HelixSpec(0.0, 2.0 * math.pi / 8.0, 0.0), g)

    def test_open_grids_skip_the_commensurability_check(self):
        g = Grid(0.1, 8, 8, Boundary.OPEN)
        helical_field(HelixSpec(0.0, 0.3, 0.0), g)


class TestGroundStateFromChirality:
    def test_rotation_angles_match_the_inversion(self):
        p = ModelParams(l=0.05, alpha=7.92)
        g = Grid(0.05, 10, 10, Boundary.OPEN)
        u = ground_state_from_chirality((1.0, 0.0), p, g)
        th, tv = angles(u)
        si, sj = th.valid.slices
        expected = 2.0 * math.asin(math.sqrt(p.delta) / 2.0)
        assert np.allclose(th.values[si, sj], expected, rtol=1e-12)
        si, sj = tv.valid.slices
        assert np.allclose(tv.values[si, sj], 0.0, rtol=0, atol=1e-15)

    def test_cosine_sum_identity(self):
        p = ModelParams(l=0.05, alpha=7.5)
        chi = np.array([0.6, 0.8])
        sqd = math.sqrt(p.delta)
        th = 2.0 * math.asin(sqd * chi[0] / 2.0)
        tv = 2.0 * math.asin(sqd * chi[1] / 2.0)
        assert math.isclose(math.cos(th) + math.cos(tv), p.alpha / 4.0, rel_tol=1e-14)

    def test_zero_bulk_energy_on_open_grids(self):
        p = ModelParams(l=0.05, alpha=7.5)
        g = Grid(0.05, 12, 12, Boundary.OPEN)
        for chi in ((1.0, 0.0), (0.0, -1.0), (0.6, 0.8)):
            u = ground_state_from_chirality(chi, p, g)
            assert abs(energy_F(u, p)) <= 1e-25

    def test_phase_gauge_invariance(self):
        p = ModelParams(l=0.05, alpha=7.5)
        g = Grid(0.05, 10, 10, Boundary.OPEN)
        f0 = energy_F(ground_state_from_chirality((0.6, 0.8), p, g, theta0=0.0), p)
        f1 = energy_F(ground_state_from_chirality((0.6, 0.8), p, g, theta0=0.7), p)
        assert abs(f0 - f1) <= 1e-25

    def test_unit_chirality_recovered(self):
        p = ModelParams(l=0.05, alpha=7.5)
        g = Grid(0.05, 10, 10, Boundary.OPEN)
        u = ground_state_from_chirality((0.6, 0.8), p, g)
        ch = chirality(u, p)
        si, sj = ch.chi.valid.slices
        norms = np.hypot(ch.chi.values[si, sj, 0], ch.chi.values[si, sj, 1])
        assert np.allclose(norms, 1.0, rtol=0, atol=1e-13)

    def test_non_unit_chirality_rejected(self):
        p = ModelParams(l=0.05, alpha=7.5)
        g = Grid(0.05, 6, 6, Boundary.OPEN)
        with pytest.raises(DomainError):
            ground_state_from_chirality((0.5, 0.5), p, g)

    def test_nan_chirality_is_not_a_unit_vector(self):
        p = ModelParams(l=0.05, alpha=7.5)
        g = Grid(0.05, 6, 6, Boundary.OPEN)
        for chi in ((math.nan, 1.0), (0.6, math.nan)):
            with pytest.raises(DomainError, match="unit vector"):
                ground_state_from_chirality(chi, p, g)

    def test_arcsin_boundary_warns(self):
        # delta so close to 4 that sqrt(delta)/2 sits within 1e-8 of 1
        p = ModelParams(l=0.05, alpha=1e-7)
        g = Grid(0.05, 6, 6, Boundary.OPEN)
        with pytest.warns(UserWarning):
            ground_state_from_chirality((1.0, 0.0), p, g)


class TestCommensurateUnitChirality:
    @pytest.mark.parametrize("delta_target", [0.01, 0.04, 0.25])
    def test_exact_unit_length_and_periodicity(self, delta_target):
        rng = np.random.default_rng(17)
        nx = ny = 128
        for _ in range(8):
            chi, delta = commensurate_unit_chirality(delta_target, nx, ny, rng)
            assert abs(math.hypot(chi[0], chi[1]) - 1.0) <= 1e-14
            assert 0.0 < delta < 4.0
            theta_h = 2.0 * math.asin(math.sqrt(delta) * chi[0] / 2.0)
            theta_v = 2.0 * math.asin(math.sqrt(delta) * chi[1] / 2.0)
            assert abs(nx * theta_h / (2 * math.pi) - round(nx * theta_h / (2 * math.pi))) <= 1e-9
            assert abs(ny * theta_v / (2 * math.pi) - round(ny * theta_v / (2 * math.pi))) <= 1e-9

    def test_delta_lands_near_the_target(self):
        rng = np.random.default_rng(5)
        chi, delta = commensurate_unit_chirality(0.04, 256, 256, rng)
        assert abs(delta - 0.04) < 0.01

    def test_zero_bulk_energy_on_the_torus(self):
        rng = np.random.default_rng(23)
        chi, delta = commensurate_unit_chirality(0.04, 64, 64, rng)
        p = ModelParams(l=0.05, alpha=8.0 - 2.0 * delta)
        g = Grid(0.05, 64, 64, Boundary.PERIODIC)
        u = ground_state_from_chirality(tuple(chi), p, g)
        assert energy_F(u, p) / (p.l**2 * 64 * 64) <= 1e-18

    def test_rejects_out_of_range_target_and_coarse_grids(self):
        rng = np.random.default_rng(0)
        with pytest.raises(DomainError):
            commensurate_unit_chirality(4.0, 64, 64, rng)
        with pytest.raises(DomainError):
            commensurate_unit_chirality(0.0001, 8, 8, rng)
