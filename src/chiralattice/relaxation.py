"""Gradient relaxation of the bulk energy over angle lifts.

The spins are parametrized as ``u = (cos psi, sin psi)`` so the unit-norm
constraint disappears and the ``beta = 2`` energy becomes a smooth function of
the lift ``psi``.  Descent with a backtracking line search then produces
chirality walls dynamically when opposite chiralities are imposed on the
frozen boundary frame.

Nothing here carries asymptotic guarantees: relaxed states are critical
points found by local descent and all outputs are labeled heuristic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import DomainError, OptimizationError
from .lattice_core import Grid, ScalarField, _mask_outside, cell_sum
from .spin_energy import ModelParams, SpinField, _f_residuals, _sq_norm

__all__ = [
    "FixedAngles",
    "RelaxConfig",
    "f_gradient",
    "relax",
    "wall_start",
]

ARMIJO_C = 1e-4
BACKTRACK_FACTOR = 0.5
MAX_BACKTRACKS = 60


@dataclass(frozen=True)
class FixedAngles:
    """Boundary mode freezing the outer frame to the two ground-state lifts."""

    chi_left: tuple[float, float]
    chi_right: tuple[float, float]


@dataclass(frozen=True)
class RelaxConfig:
    max_iters: int = 5000
    step: float = 1.0
    tol_grad: float = 1e-8
    boundary: FixedAngles | str = "periodic"

    def __post_init__(self):
        if not (self.step > 0):
            raise DomainError("initial step must be positive")
        if not (self.tol_grad > 0):
            raise DomainError("gradient tolerance must be positive")
        if not isinstance(self.boundary, FixedAngles) and self.boundary != "periodic":
            raise DomainError("boundary must be 'periodic' or FixedAngles(...)")


def _spins(psi: NDArray) -> NDArray:
    return np.stack([np.cos(psi), np.sin(psi)], axis=-1)


def _f_energy(psi: NDArray, p: ModelParams, grid: Grid) -> float:
    """``energy_F`` of the spins ``(cos psi, sin psi)``, bit for bit at beta = 2."""
    rh, rv, rect = _f_residuals(_spins(psi), p, grid, grid.full_rect)
    r = rh + rv
    return 0.5 * grid.spacing**2 * cell_sum(_sq_norm(r), rect)


def f_gradient(psi: ScalarField, p: ModelParams, frozen: NDArray | None = None) -> ScalarField:
    """Analytic gradient of the beta = 2 energy with respect to the lift.

    Each site enters its own residual with weight ``-alpha/2`` and the four
    neighbouring residuals with weight 1; differentiating the spin against the
    lift rotates it by 90 degrees.
    """
    p.require_transition_regime()
    g = psi.grid
    u = _spins(psi.values)
    rh, rv, rect = _f_residuals(u, p, g, g.full_rect)
    r = _mask_outside(rh + rv, rect, g)
    # the 5-point stencil is symmetric: applying it to r gives its adjoint
    ah, av, _ = _f_residuals(r, p, g, g.full_rect)
    total = ah + av
    uperp = np.stack([-u[..., 1], u[..., 0]], axis=-1)
    grad = g.spacing**2 * np.sum(total * uperp, axis=-1)
    if frozen is not None:
        grad = np.where(frozen, 0.0, grad)
    return ScalarField(g, grad)


def _ground_state_angles(chi, p: ModelParams) -> tuple[float, float]:
    chi = np.asarray(chi, dtype=np.float64)
    if abs(math.hypot(chi[0], chi[1]) - 1.0) > 1e-12:
        raise DomainError("boundary chirality must be a unit vector")
    sqd = math.sqrt(p.delta)
    return (
        2.0 * math.asin(sqd * chi[0] / 2.0),
        2.0 * math.asin(sqd * chi[1] / 2.0),
    )


def _roof_lift(b: FixedAngles, p: ModelParams, grid: Grid) -> tuple[NDArray, NDArray]:
    """Frozen boundary lift and mask for the fixed-angle mode.

    The outer columns carry the two prescribed ground-state lifts, both
    anchored at the grid's central column so the transition sits mid-domain.
    When the two chiralities share their vertical component the outer rows are
    frozen as well, to the roof lift joining the two helices with a kink at
    the centre: without this the minimizer slips out through the free rows in
    a fan-like sweep whose energy undercuts the wall.
    """
    th_l, tv_l = _ground_state_angles(b.chi_left, p)
    th_r, tv_r = _ground_state_angles(b.chi_right, p)
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
    if grid.periodic:
        raise DomainError("fixed-angle walls need an open grid")
    lift, _ = _roof_lift(b, p, grid)
    return SpinField(grid, _spins(lift))


def relax(u0: SpinField, p: ModelParams, cfg: RelaxConfig) -> tuple[SpinField, NDArray, float]:
    """Backtracking gradient descent on the lift; returns the relaxed field,
    the strictly decreasing trace of accepted energies, and the max |grad|
    at the returned field.  The run converged iff that is at most
    ``cfg.tol_grad``; otherwise it stopped after ``cfg.max_iters`` steps.

    With ``FixedAngles`` boundary the outer columns are reset to the
    prescribed ground-state lifts and never move.
    """
    p.require_transition_regime()
    g = u0.grid
    psi = np.arctan2(u0.values[..., 1], u0.values[..., 0])
    frozen = None
    if isinstance(cfg.boundary, FixedAngles):
        lift, frozen = _roof_lift(cfg.boundary, p, g)
        psi = psi.copy()
        psi[frozen] = lift[frozen]

    f = _f_energy(psi, p, g)
    trace = [f]
    step = cfg.step

    for it in range(cfg.max_iters + 1):
        grad = f_gradient(ScalarField(g, psi), p, frozen).values
        grad_max = float(np.max(np.abs(grad)))
        if grad_max <= cfg.tol_grad or it == cfg.max_iters:
            break
        gsq = cell_sum(grad * grad, g.full_rect)
        accepted = False
        s = step
        for _bt in range(MAX_BACKTRACKS):
            trial = psi - s * grad
            ft = _f_energy(trial, p, g)
            if ft <= f - ARMIJO_C * s * gsq:
                accepted = True
                break
            s *= BACKTRACK_FACTOR
        if not accepted:
            raise OptimizationError(
                f"line search failed after {MAX_BACKTRACKS} backtracks at energy {f:.6g}"
            )
        psi, f = trial, ft
        trace.append(f)
        step = 2.0 * s

    return SpinField(g, _spins(psi)), np.asarray(trace), grad_max
