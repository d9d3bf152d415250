"""L-BFGS descent on the angle lift: gradients, traces, wall boundary mode."""

import json
import math
import os
from collections import deque

import numpy as np
import pytest

from chiralattice import (
    Boundary,
    DomainError,
    FixedAngles,
    Grid,
    HelixSpec,
    ModelParams,
    OptimizationError,
    ParameterError,
    RelaxConfig,
    SpinField,
    energy_F,
    energy_Hn,
    f_gradient,
    helical_field,
    relax,
    wall_start,
)
from chiralattice import relaxation
from chiralattice.cli import main as cli_main
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
            RelaxConfig(step=math.inf)
        with pytest.raises(DomainError):
            RelaxConfig(max_iters=-1)
        with pytest.raises(DomainError):
            RelaxConfig(tol_grad=0.0)
        with pytest.raises(DomainError):
            RelaxConfig(tol_grad=math.inf)
        with pytest.raises(DomainError):
            RelaxConfig(boundary="clamped")
        RelaxConfig(boundary=FixedAngles((-S, S), (S, S)))

    def test_fixed_angles_reject_a_nan_component(self):
        with pytest.raises(DomainError, match="unit vector"):
            FixedAngles((math.nan, 1.0), (0.6, 0.8))
        with pytest.raises(DomainError, match="unit vector"):
            FixedAngles((0.6, 0.8), (1.0, math.nan))


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
        # the wall converges in 3 iterations, so a cap of 2 cuts it off
        for max_iters, converged in ((2, False), (5000, True)):
            cfg = RelaxConfig(max_iters=max_iters, tol_grad=1e-5, boundary=b)
            u, trace, grad_max = relax(wall_start(b, p, g), p, cfg)
            assert (grad_max <= cfg.tol_grad) is converged
            assert (len(trace) - 1 < max_iters) is converged
            psi = ScalarField(g, np.arctan2(u.values[..., 1], u.values[..., 0]))
            grad = np.where(frozen, 0.0, f_gradient(psi, p).values)
            assert grad_max == pytest.approx(np.max(np.abs(grad)), rel=1e-6)

    def test_global_phase_gauge_invariance(self):
        # F is invariant under a global phase shift, so relaxing a shifted
        # start must give the shifted answer.  The two paths differ from the
        # first rounding of cos(psi + 0.7) on, and L-BFGS amplifies that in
        # flat valleys, so the converged answers are compared, not the traces.
        rng = np.random.default_rng(17)
        g = Grid(0.05, 10, 10, Boundary.PERIODIC)
        p = ModelParams(l=0.05, alpha=7.5)
        psi0 = rng.normal(scale=0.3, size=(10, 10))
        cfg = RelaxConfig(tol_grad=1e-10)
        ends = []
        for shift in (0.0, 0.7):
            u, trace, grad_max = relax(spins_from_lift(g, psi0 + shift), p, cfg)
            assert grad_max <= cfg.tol_grad
            assert np.all(np.diff(trace) < 0.0)
            ends.append((u.values, trace[-1]))
        (a, fa), (b, fb) = ends
        assert abs(fb - fa) <= 1e-12 * fa
        angle = np.arctan2(
            a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0],
            a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1],
        )
        assert np.max(np.abs(angle - 0.7)) <= 1e-5

    def test_two_loop_direction_meets_the_secant_equation(self):
        # the L-BFGS inverse-Hessian estimate maps the newest y to its s,
        # whatever its initial estimate; here the model's
        rng = np.random.default_rng(20)
        model = relaxation._hessian_model(Grid(0.05, 6, 6, Boundary.OPEN), None, 0.3)
        pairs = deque()
        for _ in range(3):
            s = rng.normal(size=(6, 6))
            y = s + 0.1 * rng.normal(size=(6, 6))
            pairs.append((s, y, 1.0 / float(np.sum(s * y))))
        d = relaxation._lbfgs_direction(-y, pairs, model)
        assert np.allclose(d, s, rtol=0.0, atol=1e-12)
        grad = rng.normal(size=(6, 6))
        assert np.sum(grad * relaxation._lbfgs_direction(grad, pairs, model)) < 0.0

    def test_non_descent_direction_falls_back_to_steepest_descent(self, monkeypatch):
        # an uphill two-loop direction is replaced by -grad at cfg.step = 1,
        # the trial step L-BFGS takes on -grad itself once a pair is stored
        rng = np.random.default_rng(21)
        g = Grid(0.05, 10, 10, Boundary.PERIODIC)
        p = ModelParams(l=0.05, alpha=7.5)
        u0 = spins_from_lift(g, rng.normal(scale=0.4, size=(10, 10)))
        cfg = RelaxConfig(max_iters=30)
        traces = []
        for direction in (lambda grad, pairs, model: -grad, lambda grad, pairs, model: grad):
            monkeypatch.setattr(relaxation, "_lbfgs_direction", direction)
            _, trace, _ = relax(u0, p, cfg)
            traces.append(trace)
        assert len(traces[1]) == cfg.max_iters + 1
        assert np.all(np.diff(traces[1]) < 0.0)
        assert np.array_equal(traces[1], traces[0])

    def test_line_search_without_decrease_raises(self, monkeypatch):
        p = wall_params()
        g = Grid(p.l, 8, 8, Boundary.OPEN)
        b = FixedAngles((-S, S), (S, S))
        monkeypatch.setattr(relaxation, "_f_energy", lambda u, p, grid: 1.0)
        with pytest.raises(OptimizationError, match="line search failed"):
            relax(wall_start(b, p, g), p, RelaxConfig(boundary=b))


def dense_model_hessian(shape, kinds, delta):
    """``M = Delta_h^2 - 2 delta Delta_h`` as a dense matrix over the free cells,
    with the cell list: an axis of kind "frozen" has zero Dirichlet values on
    its two outer lines, "free" reflecting ghost cells, "periodic" wraps."""
    axes = [range(1, n - 1) if kind == "frozen" else range(n) for n, kind in zip(shape, kinds)]
    cells = [(i, j) for i in axes[0] for j in axes[1]]
    index = {c: k for k, c in enumerate(cells)}
    lap = np.zeros((len(cells), len(cells)))
    for k, (i, j) in enumerate(cells):
        for axis, step in ((0, -1), (0, 1), (1, -1), (1, 1)):
            nb = [i, j]
            nb[axis] += step
            n, kind = shape[axis], kinds[axis]
            if kind == "periodic":
                nb[axis] %= n
            elif kind == "free":
                nb[axis] = min(max(nb[axis], 0), n - 1)  # the ghost cell mirrors the edge
            lap[k, k] -= 1.0
            if tuple(nb) in index:  # a frozen neighbour holds zero
                lap[k, index[tuple(nb)]] += 1.0
    return lap @ lap - 2.0 * delta * lap, cells


class TestHessianModel:
    # the frames relax freezes: both outer line pairs, the outer columns only,
    # nothing on an open grid, and the periodic grid
    FRAMES = {
        "rows-too": (Boundary.OPEN, ("frozen", "frozen")),
        "columns-only": (Boundary.OPEN, ("frozen", "free")),
        "open": (Boundary.OPEN, ("free", "free")),
        "periodic": (Boundary.PERIODIC, ("periodic", "periodic")),
    }

    @pytest.mark.parametrize("frame", list(FRAMES))
    def test_applies_the_inverse_of_the_dense_model(self, frame):
        boundary, kinds = self.FRAMES[frame]
        nx, ny, delta = 7, 9, 0.3
        frozen = np.zeros((nx, ny), dtype=bool)
        if kinds[0] == "frozen":
            frozen[[0, -1], :] = True
        if kinds[1] == "frozen":
            frozen[:, [0, -1]] = True
        apply = relaxation._hessian_model(Grid(0.05, nx, ny, boundary), frozen, delta)
        m, cells = dense_model_hessian((nx, ny), kinds, delta)
        free = tuple(np.array(cells).T)
        # without a frozen line the constant mode is the null mode of rotation
        null = "frozen" not in kinds
        rng = np.random.default_rng(22)
        for _ in range(3):
            q = rng.normal(size=(nx, ny))
            x = apply(q)
            assert np.all(x[frozen] == 0.0)
            target = q[free] - np.mean(q[free]) if null else q[free]
            assert np.max(np.abs(m @ x[free] - target)) <= 1e-12 * np.max(np.abs(target))
        # the dense form of apply on the free cells is symmetric and positive
        a = np.empty((len(cells), len(cells)))
        for k, c in enumerate(cells):
            e = np.zeros((nx, ny))
            e[c] = 1.0
            a[:, k] = apply(e)[free]
        assert np.max(np.abs(a - a.T)) <= 1e-12 * np.max(np.abs(a))
        eig = np.linalg.eigvalsh(0.5 * (a + a.T))
        if null:
            assert abs(eig[0]) <= 1e-12 * eig[-1]
            eig = eig[1:]
        assert eig[0] > 0.0


class TestWallBoundary:
    def test_wall_start_needs_an_open_grid(self):
        p = wall_params()
        g = Grid(p.l, 12, 12, Boundary.PERIODIC)
        with pytest.raises(DomainError):
            wall_start(FixedAngles((-S, S), (S, S)), p, g)

    def test_relax_refuses_fixed_angles_on_a_periodic_grid(self):
        # across the wrap the two frozen outer columns would be neighbours
        p = ModelParams(l=0.05, alpha=8.0 - 8.0 * math.sin(math.pi / 12.0) ** 2)
        g = Grid(0.05, 12, 12, Boundary.PERIODIC)
        u0 = helical_field(HelixSpec(0.0, 2.0 * math.pi / 12.0, 0.0), g)
        cfg = RelaxConfig(max_iters=50, boundary=FixedAngles((-S, S), (S, S)))
        with pytest.raises(DomainError, match="open grid"):
            relax(u0, p, cfg)

    # frozen rows too when the two chiralities share their vertical component
    @pytest.mark.parametrize("chi_left, chi_right, rows", [
        ((-S, S), (S, S), True),
        ((0.6, 0.8), (0.8, -0.6), False),
    ], ids=["rows-too", "columns-only"])
    def test_frozen_cells_keep_the_wall_start_spins(self, chi_left, chi_right, rows):
        # the two-loop direction is zero wherever the gradient is, so the
        # frozen lift never moves and its spins keep their bits
        p = wall_params()
        g = Grid(p.l, 16, 16, Boundary.OPEN)
        b = FixedAngles(chi_left, chi_right)
        frozen = np.zeros((16, 16), dtype=bool)
        frozen[[0, -1], :] = True
        if rows:
            frozen[:, [0, -1]] = True
        u0 = wall_start(b, p, g)
        u, trace, _ = relax(u0, p, RelaxConfig(max_iters=300, boundary=b))
        assert len(trace) > 1
        assert u.values[frozen].tobytes() == u0.values[frozen].tobytes()
        assert not np.array_equal(u.values[~frozen], u0.values[~frozen])

    def test_wall_start_needs_the_transition_regime(self):
        # alpha = 9 gives delta < 0, whose square root the helix angles need
        g = Grid(0.1, 12, 12, Boundary.OPEN)
        with pytest.raises(ParameterError):
            wall_start(FixedAngles((0.6, 0.8), (-0.6, 0.8)), ModelParams(l=0.1, alpha=9.0), g)

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

    def test_criterion_9_wall_converges(self):
        # criterion 9's wall must end converged, not cut off by the cap
        eps = 0.02
        p = wall_params(eps)
        g = Grid(p.l, 48, 48, Boundary.OPEN)
        b = FixedAngles((-S, S), (S, S))
        cfg = RelaxConfig(max_iters=2000, boundary=b)
        _, trace, grad_max = relax(wall_start(b, p, g), p, cfg)
        assert grad_max <= cfg.tol_grad
        assert len(trace) - 1 < cfg.max_iters

    def test_wider_box_wall_tension_is_near_the_sharp_cost(self, tmp_path):
        # criterion 9's 48^2 box (15 eps) sits 12.5% below sqrt(2)/3; on 97^2
        # (30 eps) the deficit is about 6.7% and on 194^2 (60 eps) about 3.8%,
        # so a solver 10% worse fails each bound.  Most of each deficit is the
        # end effect of the open rows where the wall ends, and it falls as 1/K
        # in the box width K (in units of eps); the wall's tension away from its
        # ends is about 1% below the sharp cost here.  The model Hessian keeps
        # each box within a few dozen iterations (8, 11 and 12).
        sharp = math.sqrt(2.0) / 3.0
        deficits = []
        for n, bound in ((48, 0.14), (97, 0.09), (194, 0.05)):
            out = str(tmp_path / str(n))
            assert cli_main(["--out-dir", out, "relax", "--nx", str(n), "--ny", str(n),
                             "--tol-grad", "1e-9"]) == 0
            with open(os.path.join(out, "relax_manifest.json")) as fh:
                derived = json.load(fh)["derived"]
            assert derived["converged"] is True
            assert derived["iterations"] <= 40
            tension = derived["final_Hn"] / (derived["l"] * (n - 1))
            deficits.append((sharp - tension) / sharp)
            assert 0.0 <= deficits[-1] <= bound
        assert deficits[0] > deficits[1] > deficits[2]
