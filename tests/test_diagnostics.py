"""Empirical a-priori checks: angle counting, curl norms, energy comparison."""

import math

import numpy as np
import pytest

from chiralattice import (
    Boundary,
    DomainError,
    Grid,
    HelixSpec,
    ModelParams,
    Rect,
    SpinField,
    VectorField,
    angles,
    chirality,
    count_large_angle_cells,
    curl_l1,
    curl_quantization_residual,
    energy_Hn,
    energy_Hn_star,
    grad_d,
    helical_field,
    hn_vs_hnstar,
    lp_norm,
)
from chiralattice import diagnostics
from chiralattice.lattice_core import ScalarField


def random_spins(grid, seed):
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(grid.nx, grid.ny, 2))
    raw /= np.linalg.norm(raw, axis=-1, keepdims=True)
    return SpinField(grid, raw)


def vortex_spins(grid):
    c = (grid.nx - 1) / 2.0
    i = np.arange(grid.nx)[:, None]
    j = np.arange(grid.ny)[None, :]
    psi = np.arctan2(j - c, i - c)
    return SpinField(grid, np.stack([np.cos(psi), np.sin(psi)], axis=-1))


class TestLargeAngleCount:
    def test_ground_state_has_none(self):
        g = Grid(0.1, 10, 10, Boundary.OPEN)
        u = helical_field(HelixSpec(0.0, 0.2, -0.1), g)
        assert count_large_angle_cells(u, 1.0) == 0

    def test_checkerboard_counts_every_cell(self):
        g = Grid(0.1, 8, 8, Boundary.PERIODIC)
        sign = np.where((np.add.outer(np.arange(8), np.arange(8))) % 2 == 0, 1.0, -1.0)
        vals = np.zeros((8, 8, 2))
        vals[..., 0] = sign
        u = SpinField(g, vals)
        assert count_large_angle_cells(u, 1.0) == 64

    def test_threshold_range(self):
        g = Grid(0.1, 4, 4, Boundary.PERIODIC)
        u = helical_field(HelixSpec(0.0, 0.0, 0.0), g)
        with pytest.raises(DomainError):
            count_large_angle_cells(u, 4.0)
        with pytest.raises(DomainError):
            count_large_angle_cells(u, 0.0)


class TestCurlNorms:
    def test_gradient_fields_have_zero_curl(self):
        rng = np.random.default_rng(31)
        g = Grid(0.25, 9, 9, Boundary.OPEN)
        psi = ScalarField(g, rng.integers(-8, 9, size=(9, 9)) * g.spacing)
        assert curl_l1(grad_d(psi)) == 0.0

    def test_single_vortex_carries_one_quantum(self):
        l, delta = 0.1, 0.08
        g = Grid(l, 16, 16, Boundary.OPEN)
        u = vortex_spins(g)
        p = ModelParams(l=l, alpha=8.0 - 2.0 * delta)
        ch = chirality(u, p)
        expected = 2.0 * math.pi * l / math.sqrt(delta)
        assert abs(curl_l1(ch.chi_bar) - expected) <= 1e-9


class TestLpNorms:
    def test_unit_area_constant_field(self):
        n = 10
        g = Grid(1.0 / n, n, n, Boundary.OPEN)
        c = 0.7
        vals = np.zeros((n, n, 2))
        vals[..., 0] = c
        v = VectorField(g, vals)
        for p in (2, 4, 6):
            assert math.isclose(lp_norm(v, p), c, rel_tol=1e-13)

    def test_homogeneity(self):
        rng = np.random.default_rng(8)
        g = Grid(0.1, 8, 8, Boundary.PERIODIC)
        v = VectorField(g, rng.normal(size=(8, 8, 2)))
        w = VectorField(g, 2.0 * v.values)
        assert math.isclose(lp_norm(w, 4), 2.0 * lp_norm(v, 4), rel_tol=1e-13)

    def test_exponent_whitelist(self):
        g = Grid(0.1, 4, 4, Boundary.PERIODIC)
        v = VectorField(g, np.zeros((4, 4, 2)))
        with pytest.raises(DomainError):
            lp_norm(v, 3)


class TestEnergyComparison:
    def test_ferromagnet_ratio_is_one(self):
        g = Grid(0.05, 16, 16, Boundary.OPEN)
        vals = np.zeros((16, 16, 2))
        vals[..., 0] = 1.0
        u = SpinField(g, vals)
        p = ModelParams(l=0.05, alpha=7.84)
        hn, hs, ratio = hn_vs_hnstar(u, p)
        assert hn.total > 0.0
        assert ratio == 1.0

    def test_margin_follows_a_partial_valid_rect_without_an_angles_pass(self, monkeypatch):
        g = Grid(0.05, 16, 16, Boundary.OPEN)
        valid = Rect(1, 15, 2, 16)
        u = SpinField(g, random_spins(g, 3).values, valid)
        p = ModelParams(l=0.05, alpha=7.5)
        th, tv = angles(u)
        inner = th.valid.intersect(tv.valid).shrink(2)
        assert inner == Rect(3, 12, 4, 13)

        def no_angles(*args):
            raise AssertionError("hn_vs_hnstar ran an angles pass of its own")

        monkeypatch.setattr(diagnostics, "angles", no_angles)
        hn, hs, _ = hn_vs_hnstar(u, p)
        assert hn.total > 0.0 and hs.total > 0.0

    @pytest.mark.parametrize("grid, valid", [
        (Grid(0.05, 16, 16, Boundary.OPEN), None),
        (Grid(0.05, 16, 16, Boundary.OPEN), Rect(1, 15, 2, 16)),
        (Grid(0.05, 12, 12, Boundary.PERIODIC), None),
    ], ids=["open-full", "open-partial", "periodic"])
    def test_sums_over_the_chirality_rect_shrunk_by_two(self, grid, valid):
        u = SpinField(grid, random_spins(grid, 4).values, valid)
        p = ModelParams(l=0.05, alpha=7.5)
        inner = chirality(u, p).chi.valid.shrink(2)
        hn, hs, ratio = hn_vs_hnstar(u, p)
        assert hn == energy_Hn(u, p, inner)
        assert hs == energy_Hn_star(u, p, inner)
        assert ratio == hs.total / hn.total


class TestCurlQuantization:
    def test_random_fields_land_on_the_lattice_of_full_turns(self):
        g = Grid(0.05, 12, 12, Boundary.PERIODIC)
        p = ModelParams(l=0.05, alpha=7.5)
        for seed in range(4):
            u = random_spins(g, seed)
            ch = chirality(u, p)
            assert curl_quantization_residual(ch.chi_bar, p) <= 1e-10

    def test_vortex_field_too(self):
        g = Grid(0.1, 16, 16, Boundary.OPEN)
        p = ModelParams(l=0.1, alpha=7.84)
        ch = chirality(vortex_spins(g), p)
        assert curl_quantization_residual(ch.chi_bar, p) <= 1e-10
