"""Gradient descent on the angle lift: gradients, traces, wall boundary mode."""

import math

import numpy as np
import pytest

from chiralattice import (
    Boundary,
    DomainError,
    FixedAngles,
    Grid,
    HelixSpec,
    ModelParams,
    RelaxConfig,
    SpinField,
    energy_F,
    energy_Hn,
    f_gradient,
    helical_field,
    relax,
    wall_start,
)
from chiralattice.lattice_core import ScalarField

S = 1.0 / math.sqrt(2.0)


def spins_from_lift(grid, psi):
    return SpinField(grid, np.stack([np.cos(psi), np.sin(psi)], axis=-1))


def wall_params(eps=0.05, exponent=0.6):
    delta = eps**exponent
    return ModelParams(l=eps * math.sqrt(delta), alpha=8.0 - 2.0 * delta)


class TestConfig:
    def test_validation(self):
        with pytest.raises(DomainError):
            RelaxConfig(step=0.0)
        with pytest.raises(DomainError):
            RelaxConfig(tol_grad=0.0)
        with pytest.raises(DomainError):
            RelaxConfig(boundary="clamped")
        RelaxConfig(boundary=FixedAngles((-S, S), (S, S)))


class TestGradient:
    def test_matches_central_differences_of_the_bulk_energy(self):
        rng = np.random.default_rng(14)
        g = Grid(0.05, 6, 6, Boundary.PERIODIC)
        p = ModelParams(l=0.05, alpha=7.5)
        h = 1e-6
        for seed in range(3):
            psi = rng.normal(scale=0.5, size=(6, 6))
            grad = f_gradient(ScalarField(g, psi), p).values
            for i, j in ((0, 0), (2, 3), (5, 1)):
                bump = np.zeros_like(psi)
                bump[i, j] = h
                fd = (
                    energy_F(spins_from_lift(g, psi + bump), p)
                    - energy_F(spins_from_lift(g, psi - bump), p)
                ) / (2.0 * h)
                assert math.isclose(grad[i, j], fd, rel_tol=1e-6, abs_tol=1e-10)

    def test_vanishes_at_a_ground_state(self):
        p = ModelParams(l=0.05, alpha=7.92)
        theta = 2.0 * math.asin(math.sqrt(p.delta) / 2.0)
        g = Grid(0.05, 10, 10, Boundary.OPEN)
        i = np.arange(10, dtype=np.float64)[:, None] * np.ones((1, 10))
        grad = f_gradient(ScalarField(g, theta * i), p).values
        assert np.max(np.abs(grad)) <= 1e-10

    def test_frozen_mask_zeroes_entries(self):
        rng = np.random.default_rng(15)
        g = Grid(0.05, 6, 6, Boundary.PERIODIC)
        p = ModelParams(l=0.05, alpha=7.5)
        psi = ScalarField(g, rng.normal(size=(6, 6)))
        frozen = np.zeros((6, 6), dtype=bool)
        frozen[0, :] = True
        grad = f_gradient(psi, p, frozen=frozen).values
        assert np.all(grad[0, :] == 0.0)
        assert np.any(grad[1:, :] != 0.0)


class TestRelax:
    def test_ground_state_is_a_fixed_point(self):
        p = ModelParams(l=0.05, alpha=7.92)
        g = Grid(0.05, 12, 12, Boundary.PERIODIC)
        theta = 2.0 * math.pi / 12.0
        u0 = helical_field(HelixSpec(0.0, theta, 0.0), g)
        # the commensurate helix at its own delta: recompute alpha to match
        delta = 4.0 * math.sin(theta / 2.0) ** 2
        p = ModelParams(l=0.05, alpha=8.0 - 2.0 * delta)
        u, trace, _ = relax(u0, p, RelaxConfig(max_iters=50))
        assert len(trace) == 1
        assert np.allclose(u.values, u0.values, atol=1e-15)

    def test_trace_is_strictly_decreasing(self):
        rng = np.random.default_rng(16)
        g = Grid(0.05, 10, 10, Boundary.PERIODIC)
        p = ModelParams(l=0.05, alpha=7.5)
        u0 = spins_from_lift(g, rng.normal(scale=0.4, size=(10, 10)))
        _, trace, _ = relax(u0, p, RelaxConfig(max_iters=200))
        assert len(trace) > 1
        assert np.all(np.diff(trace) < 0.0)

    def test_final_trace_entry_is_energy_F_of_the_result(self):
        # bitwise: the descent and energy_F share one residual stencil
        rng = np.random.default_rng(18)
        g = Grid(0.05, 10, 10, Boundary.PERIODIC)
        p = ModelParams(l=0.05, alpha=7.5)
        u0 = spins_from_lift(g, rng.normal(scale=0.4, size=(10, 10)))
        u, trace, _ = relax(u0, p, RelaxConfig(max_iters=100))
        assert len(trace) > 1
        assert trace[-1] == energy_F(u, p)

        p = wall_params()
        g = Grid(p.l, 16, 16, Boundary.OPEN)
        b = FixedAngles((-S, S), (S, S))
        u, trace, _ = relax(wall_start(b, p, g), p, RelaxConfig(max_iters=300, boundary=b))
        assert len(trace) > 1
        assert trace[-1] == energy_F(u, p)

    def test_reports_the_gradient_at_the_returned_field(self):
        p = wall_params()
        g = Grid(p.l, 8, 8, Boundary.OPEN)
        b = FixedAngles((-S, S), (S, S))
        frozen = np.zeros((8, 8), dtype=bool)
        frozen[[0, -1], :] = True
        frozen[:, [0, -1]] = True
        for max_iters, converged in ((5, False), (5000, True)):
            cfg = RelaxConfig(max_iters=max_iters, tol_grad=1e-5, boundary=b)
            u, trace, grad_max = relax(wall_start(b, p, g), p, cfg)
            assert (grad_max <= cfg.tol_grad) is converged
            assert (len(trace) - 1 < max_iters) is converged
            psi = ScalarField(g, np.arctan2(u.values[..., 1], u.values[..., 0]))
            grad = f_gradient(psi, p, frozen).values
            assert grad_max == pytest.approx(np.max(np.abs(grad)), rel=1e-6)

    def test_global_phase_gauge_invariance(self):
        rng = np.random.default_rng(17)
        g = Grid(0.05, 10, 10, Boundary.PERIODIC)
        p = ModelParams(l=0.05, alpha=7.5)
        psi0 = rng.normal(scale=0.3, size=(10, 10))
        traces = []
        for shift in (0.0, 0.7):
            _, trace, _ = relax(spins_from_lift(g, psi0 + shift), p, RelaxConfig(max_iters=150))
            traces.append(np.asarray(trace))
        assert len(traces[0]) == len(traces[1])
        assert np.max(np.abs(traces[0] - traces[1])) <= 1e-12


class TestWallBoundary:
    def test_wall_start_needs_an_open_grid(self):
        p = wall_params()
        g = Grid(p.l, 12, 12, Boundary.PERIODIC)
        with pytest.raises(DomainError):
            wall_start(FixedAngles((-S, S), (S, S)), p, g)

    def test_wall_start_carries_both_chiralities(self):
        p = wall_params()
        g = Grid(p.l, 16, 16, Boundary.OPEN)
        b = FixedAngles((-S, S), (S, S))
        u0 = wall_start(b, p, g)
        from chiralattice import chirality

        chi = chirality(u0, p).chi
        si, sj = chi.valid.slices
        left = chi.values[1, 4]
        right = chi.values[14, 4]
        assert np.allclose(left, (-S, S), atol=1e-12)
        assert np.allclose(right, (S, S), atol=1e-12)

    def test_short_wall_relaxation_descends(self):
        p = wall_params()
        g = Grid(p.l, 16, 16, Boundary.OPEN)
        b = FixedAngles((-S, S), (S, S))
        u0 = wall_start(b, p, g)
        u, trace, _ = relax(u0, p, RelaxConfig(max_iters=300, boundary=b))
        assert np.all(np.diff(trace) < 0.0)
        assert trace[-1] < 0.5 * trace[0]
        assert energy_Hn(u, p).total > 0.0
