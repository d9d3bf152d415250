"""Empirical a-priori checks: angle counting, curl norms, energy comparison."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chiralattice import (
    Boundary,
    DimensionError,
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
    diagnose_report,
    energy_Hn,
    energy_Hn_star,
    grad_d,
    helical_field,
    hn_vs_hnstar,
    lp_norm,
)
from chiralattice import lattice_core, spin_energy
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
        assert count_large_angle_cells(*angles(u), 1.0) == 0

    def test_checkerboard_counts_every_cell(self):
        g = Grid(0.1, 8, 8, Boundary.PERIODIC)
        sign = np.where((np.add.outer(np.arange(8), np.arange(8))) % 2 == 0, 1.0, -1.0)
        vals = np.zeros((8, 8, 2))
        vals[..., 0] = sign
        u = SpinField(g, vals)
        assert count_large_angle_cells(*angles(u), 1.0) == 64

    def test_threshold_range(self):
        g = Grid(0.1, 4, 4, Boundary.PERIODIC)
        u = helical_field(HelixSpec(0.0, 0.0, 0.0), g)
        with pytest.raises(DomainError):
            count_large_angle_cells(*angles(u), 4.0)
        with pytest.raises(DomainError):
            count_large_angle_cells(*angles(u), 0.0)


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
        hn, hs, ratio = hn_vs_hnstar(u, chirality(u, p).chi, p)
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

        chi = chirality(u, p).chi
        monkeypatch.setattr(spin_energy, "angles", no_angles)
        hn, hs, _ = hn_vs_hnstar(u, chi, p)
        assert hn.total > 0.0 and hs.total > 0.0

    @pytest.mark.parametrize("grid, valid", [
        (Grid(0.05, 16, 16, Boundary.OPEN), None),
        (Grid(0.05, 16, 16, Boundary.OPEN), Rect(1, 15, 2, 16)),
        (Grid(0.05, 12, 12, Boundary.PERIODIC), None),
    ], ids=["open-full", "open-partial", "periodic"])
    def test_sums_over_the_chirality_rect_shrunk_by_two(self, grid, valid):
        u = SpinField(grid, random_spins(grid, 4).values, valid)
        p = ModelParams(l=0.05, alpha=7.5)
        chi = chirality(u, p).chi
        inner = chi.valid.shrink(2)
        hn, hs, ratio = hn_vs_hnstar(u, chi, p)
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


def whole_field_report(u, p, t):
    """The ``diagnose`` report built from the whole-field checks: the oracle
    of ``diagnose_report``."""
    ch = chirality(u, p)
    hn, hs, ratio = hn_vs_hnstar(u, ch.chi, p)
    large = count_large_angle_cells(ch.theta_hor, ch.theta_ver, t)
    return {
        "large_angle_cells": large,
        "angle_threshold": t,
        "curl_l1": curl_l1(ch.chi_bar),
        "curl_quantization_residual": curl_quantization_residual(ch.chi_bar, p),
        "lp_norms": {str(k): lp_norm(ch.chi, k) for k in (2, 4, 6)},
        "Hn": hn.total,
        "Hn_star": hs.total,
        "Hn_star_over_Hn": ratio if math.isfinite(ratio) else None,
        "counting_constant": large * p.l / p.delta**1.5,
    }


@st.composite
def report_cases(draw):
    """Unit spins on an open grid with sides 6 to 24 or a periodic one with
    sides 5 to 24, the smallest ``diagnose`` takes: a smooth wave or random
    angles, so that large angles and curl quanta occur; a threshold; and a
    tile height of 1 to 7 rows, or the default."""
    boundary = draw(st.sampled_from([Boundary.OPEN, Boundary.PERIODIC]))
    least = 6 if boundary is Boundary.OPEN else 5
    grid = Grid(0.1, draw(st.integers(least, 24)), draw(st.integers(least, 24)), boundary)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    i, j = np.meshgrid(np.arange(grid.nx), np.arange(grid.ny), indexing="ij")
    if draw(st.booleans()):
        psi = rng.uniform(-math.pi, math.pi, size=(grid.nx, grid.ny))
    else:
        psi = 0.3 * i + rng.uniform(-1, 1) * j + rng.normal(scale=0.2, size=i.shape)
    rows = draw(st.sampled_from([None, 1, 2, 3, 7]))
    t = draw(st.floats(0.05, 3.0))
    return grid, np.stack([np.cos(psi), np.sin(psi)], axis=-1), rows, t


class TestDiagnoseReport:
    @settings(max_examples=60, deadline=None)
    @given(report_cases())
    def test_holds_the_whole_field_checks_bit_for_bit(self, case):
        grid, values, rows, t = case
        p = ModelParams(l=0.1, alpha=7.5)
        expected = whole_field_report(SpinField(grid, values), p, t)
        with pytest.MonkeyPatch.context() as mp:
            if rows is not None:
                mp.setattr(lattice_core, "_TILE_CELLS", rows * grid.ny)
            report = diagnose_report(VectorField(grid, values), p, t)
        assert json.dumps(report, sort_keys=True) == json.dumps(expected, sort_keys=True)

    @pytest.mark.parametrize("rows", [1, 2, 7])
    def test_a_spin_off_the_unit_circle_is_the_spin_field_error(self, rows, monkeypatch):
        g = Grid(0.05, 12, 12, Boundary.OPEN)
        values = random_spins(g, 5).values.copy()
        values[11, 11] *= 1.0 + 1e-9
        with pytest.raises(DomainError) as whole:
            SpinField(g, values)
        monkeypatch.setattr(lattice_core, "_TILE_CELLS", rows * g.ny)
        with pytest.raises(DomainError) as tiled:
            diagnose_report(VectorField(g, values), ModelParams(l=0.05, alpha=7.5), 1.0)
        assert str(tiled.value) == str(whole.value)

    def test_reads_a_field_valid_on_the_whole_grid_only(self):
        g = Grid(0.05, 12, 12, Boundary.OPEN)
        v = VectorField(g, random_spins(g, 6).values, Rect(0, 11, 0, 12))
        with pytest.raises(DimensionError, match="whole grid"):
            diagnose_report(v, ModelParams(l=0.05, alpha=7.5), 1.0)
