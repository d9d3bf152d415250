"""Relaxation of the bulk energy over angle lifts.

The spins are parametrized as ``u = (cos psi, sin psi)`` so the unit-norm
constraint disappears and the ``beta = 2`` energy becomes a smooth function of
the lift ``psi``.  Limited-memory BFGS (two-loop recursion; Liu & Nocedal
1989) with Armijo backtracking then produces chirality walls dynamically when
opposite chiralities are imposed on the frozen boundary frame.

Nothing here carries asymptotic guarantees: relaxed states are critical
points found by local descent and all outputs are labeled heuristic.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import DomainError, OptimizationError
from .ground_states import _helix_angles
from .lattice_core import Grid, ScalarField, _unit, _zero_outside, cell_sum
from .spin_energy import ModelParams, SpinField, _f_density, _f_residuals, _spins

__all__ = [
    "FixedAngles",
    "RelaxConfig",
    "f_gradient",
    "relax",
    "wall_start",
]

ARMIJO_C = 1e-4
LBFGS_MEMORY = 8  # (s, y) pairs kept for the two-loop recursion
BACKTRACK_FACTOR = 0.5
MAX_BACKTRACKS = 60


@dataclass(frozen=True)
class FixedAngles:
    """Boundary mode freezing the outer frame to the two ground-state lifts."""

    chi_left: tuple[float, float]
    chi_right: tuple[float, float]

    def __post_init__(self):
        for chi in (self.chi_left, self.chi_right):
            _unit(chi, "boundary chirality")


@dataclass(frozen=True)
class RelaxConfig:
    max_iters: int = 5000
    step: float = 1.0
    tol_grad: float = 1e-8
    boundary: FixedAngles | str = "periodic"

    def __post_init__(self):
        if self.max_iters < 0:
            raise DomainError("max_iters must be nonnegative")
        if not (0 < self.step < math.inf):
            raise DomainError("initial step must be positive and finite")
        if not (self.tol_grad > 0):
            raise DomainError("gradient tolerance must be positive")
        if not isinstance(self.boundary, FixedAngles) and self.boundary != "periodic":
            raise DomainError("boundary must be 'periodic' or FixedAngles(...)")


def _f_energy(u: NDArray, p: ModelParams, grid: Grid) -> float:
    """``energy_F`` of a raw spin array; perfbench counts energy evaluations by this name."""
    return p.l**2 * cell_sum(*_f_density(u, p, grid, grid.full_rect))


def _lift_gradient(u: NDArray, p: ModelParams, grid: Grid, frozen: NDArray | None) -> NDArray:
    """Gradient of ``_f_energy`` against the lift, from the spins ``u``."""
    rh, rv, rect = _f_residuals(u, p, grid, grid.full_rect)
    r = rh + rv
    _zero_outside(r, rect)
    # the 5-point stencil is symmetric: applying it to r gives its adjoint
    ah, av, _ = _f_residuals(r, p, grid, grid.full_rect)
    total = ah + av
    # total . u_perp with u_perp = (-u_2, u_1), the spin turned by 90 degrees
    grad = grid.spacing**2 * (total[..., 0] * -u[..., 1] + total[..., 1] * u[..., 0])
    if frozen is not None:
        grad = np.where(frozen, 0.0, grad)
    return grad


def f_gradient(psi: ScalarField, p: ModelParams) -> ScalarField:
    """Analytic gradient of the beta = 2 energy with respect to the lift.

    Each site enters its own residual with weight ``-alpha/2`` and the four
    neighbouring residuals with weight 1; differentiating the spin against the
    lift rotates it by 90 degrees.
    """
    p.require_transition_regime()
    g = psi.grid
    p.require_spacing(g)
    return ScalarField._adopt(g, _lift_gradient(_spins(psi.values), p, g, None), g.full_rect)


def _dot(a: NDArray, b: NDArray) -> float:
    """Inner product by numpy's pairwise sum, so no BLAS thread count enters."""
    return float(np.sum(a * b))


def _lbfgs_direction(grad: NDArray, pairs: deque) -> NDArray:
    """``-H grad`` for the L-BFGS inverse-Hessian estimate ``H`` of the stored
    ``(s, y, 1 / s.y)`` pairs, oldest first, by the two-loop recursion; the
    initial estimate is ``(s.y / y.y) I`` from the newest pair, or ``I``."""
    q = -grad
    coeffs = []
    for s, y, rho in reversed(pairs):
        a = rho * _dot(s, q)
        q -= a * y
        coeffs.append(a)
    if pairs:
        _, y, rho = pairs[-1]
        q *= 1.0 / (rho * _dot(y, y))
    for (s, y, rho), a in zip(pairs, reversed(coeffs)):
        q += (a - rho * _dot(y, q)) * s
    return q


def _roof_lift(b: FixedAngles, p: ModelParams, grid: Grid) -> tuple[NDArray, NDArray]:
    """Frozen boundary lift and mask for the fixed-angle mode.

    The outer columns carry the two prescribed ground-state lifts, both
    anchored at the grid's central column so the transition sits mid-domain.
    When the two chiralities share their vertical component the outer rows are
    frozen as well, to the roof lift joining the two helices with a kink at
    the centre: without this the minimizer slips out through the free rows in
    a fan-like sweep whose energy undercuts the wall.
    """
    if grid.periodic:  # the two frozen outer columns would be neighbours
        raise DomainError("fixed-angle walls need an open grid")
    th_l, tv_l = _helix_angles(b.chi_left, p)
    th_r, tv_r = _helix_angles(b.chi_right, p)
    i = np.arange(grid.nx)[:, None]
    j = np.arange(grid.ny)[None, :]
    ic = (grid.nx - 1) / 2.0
    left = (i - ic) * th_l + j * tv_l
    right = (i - ic) * th_r + j * tv_r
    lift = np.where(i <= ic, left, right)
    mask = np.zeros((grid.nx, grid.ny), dtype=bool)
    mask[0, :] = True
    mask[-1, :] = True
    if abs(tv_l - tv_r) <= 1e-12:
        mask[:, 0] = True
        mask[:, -1] = True
    return lift, mask


def wall_start(b: FixedAngles, p: ModelParams, grid: Grid) -> SpinField:
    """Sharp-kink start: the two prescribed helices glued at the central
    column.  Relaxation widens the one-cell kink into the diffuse transition
    profile.

    A ferromagnetic interior looks like the more natural start but is a trap:
    its lift differs from the frozen rows by more than a half turn, which
    seeds a row of vortices that descent cannot remove.
    """
    p.require_spacing(grid)
    lift, _ = _roof_lift(b, p, grid)
    return SpinField._adopt(grid, _spins(lift), grid.full_rect)


def relax(u0: SpinField, p: ModelParams, cfg: RelaxConfig) -> tuple[SpinField, NDArray, float]:
    """L-BFGS with Armijo backtracking on the lift; returns the relaxed
    field, the strictly decreasing trace of accepted energies, and the max
    |grad| at the returned field.  The run converged iff that is at most
    ``cfg.tol_grad``; otherwise it stopped after ``cfg.max_iters`` steps.

    The trial step is ``cfg.step`` while no ``(s, y)`` pair is stored (on
    the first iteration, say), capped so that no angle moves by more than
    pi, and 1 after that.  A pair is stored only when
    ``s . y > 0``; a direction that does not descend is replaced by
    ``-grad``, and the stored pairs are dropped.  A line search that finds no
    decrease raises ``OptimizationError``.

    With ``FixedAngles`` boundary (open grids only) the outer columns are
    reset to the prescribed ground-state lifts and never move.
    """
    p.require_transition_regime()
    g = u0.grid
    p.require_spacing(g)
    psi = np.arctan2(u0.values[..., 1], u0.values[..., 0])
    frozen = None
    if isinstance(cfg.boundary, FixedAngles):
        lift, frozen = _roof_lift(cfg.boundary, p, g)
        psi[frozen] = lift[frozen]

    u = _spins(psi)
    f = _f_energy(u, p, g)
    grad = _lift_gradient(u, p, g, frozen)
    trace = [f]
    pairs = deque(maxlen=LBFGS_MEMORY)

    # The Armijo test is strict: when the decrease it asks for is below the
    # rounding of f, the right side rounds to f and F must still go down, so
    # the trace decreases strictly.  An over-long trial may overflow; its
    # energy is then not finite and fails the test like any rejected step.
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(cfg.max_iters + 1):
            grad_max = float(np.max(np.abs(grad)))
            if grad_max <= cfg.tol_grad or it == cfg.max_iters:
                break
            d = _lbfgs_direction(grad, pairs)
            slope = _dot(grad, d)
            if not slope < 0.0:
                pairs.clear()
                d = -grad
                slope = _dot(grad, d)
            # -grad carries no curvature scale: no angle may turn past pi
            t = 1.0 if pairs else min(cfg.step, math.pi / float(np.max(np.abs(d))))
            for _bt in range(MAX_BACKTRACKS):
                trial = psi + t * d
                u_t = _spins(trial)
                f_t = _f_energy(u_t, p, g)
                if f_t < f + ARMIJO_C * t * slope:
                    break
                t *= BACKTRACK_FACTOR
            else:
                raise OptimizationError(
                    f"line search failed after {MAX_BACKTRACKS} backtracks at energy {f:.6g}"
                )
            grad_t = _lift_gradient(u_t, p, g, frozen)
            s, y = trial - psi, grad_t - grad
            sy = _dot(s, y)
            if sy > 0.0:
                pairs.append((s, y, 1.0 / sy))
            psi, u, f, grad = trial, u_t, f_t, grad_t
            trace.append(f)

    return SpinField._adopt(g, u, g.full_rect), np.asarray(trace), grad_max
