"""Helical ground-state constructors.

A helix rotates by a fixed angle per lattice step in each direction; at
``beta = 2`` the zero-energy states are exactly the helices whose chirality
vector has unit length, a full circle of degenerate ground states.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError
from .lattice_core import Grid, _unit
from .spin_energy import ModelParams, SpinField, _spins

__all__ = [
    "HelixSpec",
    "helical_field",
    "ground_state_from_chirality",
    "commensurate_unit_chirality",
]

_COMMENSURABILITY_TOL = 1e-9


@dataclass(frozen=True)
class HelixSpec:
    """Global phase plus per-step rotation angles of a helical spin field."""

    theta0: float
    theta_h: float
    theta_v: float

    def __post_init__(self):
        for name in ("theta0", "theta_h", "theta_v"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite")
        if abs(self.theta_h) >= math.pi or abs(self.theta_v) >= math.pi:
            raise DomainError("per-step rotation angles must lie in (-pi, pi)")


def _check_commensurate(n: int, theta: float, axis: str) -> None:
    windings = n * theta / (2.0 * math.pi)
    if abs(windings - round(windings)) > _COMMENSURABILITY_TOL:
        raise ConfigError(
            f"{axis}-rotation {theta} is incommensurate with the periodic grid "
            f"({n} steps wind {windings} turns)",
            code="INCOMMENSURATE_HELIX",
        )


def helical_field(spec: HelixSpec, grid: Grid) -> SpinField:
    """Spin field u[i,j] = (cos, sin)(theta0 + i*theta_h + j*theta_v).

    On periodic grids the rotations must wind an integer number of turns
    across each axis, otherwise the wrap seam would carry spurious energy.
    """
    if grid.periodic:
        _check_commensurate(grid.nx, spec.theta_h, "x")
        _check_commensurate(grid.ny, spec.theta_v, "y")
    i = np.arange(grid.nx)[:, None]
    j = np.arange(grid.ny)[None, :]
    # fmod is exact, so a phase in (-2 pi, 2 pi) keeps its bits and a huge
    # one does not round the per-step angles away
    psi = math.fmod(spec.theta0, 2.0 * math.pi) + i * spec.theta_h + j * spec.theta_v
    return SpinField._adopt(grid, _spins(psi), grid.full_rect)


def _helix_angles(chi_unit, p: ModelParams) -> tuple[float, float]:
    """Per-step angles ``theta_k = 2 arcsin(sqrt(delta) chi_k / 2)`` of the
    helix with unit chirality ``chi_unit``, the inverse of the chirality map."""
    p.require_transition_regime()
    chi = _unit(chi_unit, "chirality")
    half_sines = math.sqrt(p.delta) * chi / 2.0
    if np.any(np.abs(half_sines) > 1.0):
        raise DomainError("sqrt(delta) |chi_k| / 2 exceeds 1; no rotation angle exists")
    if np.any(np.abs(half_sines) > 1.0 - 1e-8):
        warnings.warn(
            "chirality component is at the arcsin boundary; the inversion is ill-conditioned",
            stacklevel=3,
        )
    return 2.0 * math.asin(half_sines[0]), 2.0 * math.asin(half_sines[1])


def ground_state_from_chirality(
    chi_unit, p: ModelParams, grid: Grid, theta0: float = 0.0
) -> SpinField:
    """Helical ground state with prescribed unit chirality at ``beta = 2``.

    Inverts the chirality map: ``theta_k = 2 arcsin(sqrt(delta) chi_k / 2)``.
    For unit chirality, ``cos(theta_h) + cos(theta_v) = alpha / 4`` holds
    exactly, which makes every stencil residual of the bulk energy vanish.
    """
    p.require_spacing(grid)
    theta_h, theta_v = _helix_angles(chi_unit, p)
    return helical_field(HelixSpec(theta0, theta_h, theta_v), grid)


def commensurate_unit_chirality(
    delta_target: float, nx: int, ny: int, rng: np.random.Generator
) -> tuple[np.ndarray, float]:
    """Random unit chirality whose helix winds integrally on an nx-by-ny torus.

    Both rotation angles are exact multiples of the grid's angular quantum,
    and ``delta`` is defined from them so that the chirality has exactly unit
    length:  ``delta = 4 (sin^2(theta_h/2) + sin^2(theta_v/2))``.  The
    returned delta lands on the closest achievable value to ``delta_target``
    for the drawn horizontal winding number.
    """
    if not (0 < delta_target < 4):
        raise DomainError("delta_target must lie in (0, 4)")
    theta_max = 2.0 * math.asin(math.sqrt(delta_target) / 2.0)
    a_max = int(nx * theta_max / (2.0 * math.pi))
    if a_max < 1:
        raise DomainError("grid too coarse to host a commensurate helix at this delta")
    a = int(rng.integers(-a_max, a_max + 1))
    theta_h = 2.0 * math.pi * a / nx
    s1 = math.sin(theta_h / 2.0)
    # choose the vertical winding that brings delta closest to the target
    rem = max(delta_target / 4.0 - s1**2, 0.0)
    b_ideal = ny * 2.0 * math.asin(math.sqrt(rem)) / (2.0 * math.pi)
    b = int(round(b_ideal)) * int(rng.choice([-1, 1]))
    theta_v = 2.0 * math.pi * b / ny
    s2 = math.sin(theta_v / 2.0)
    delta = 4.0 * (s1**2 + s2**2)
    if delta <= 0:
        # both winding numbers collapsed to zero; retry deterministically
        theta_v = 2.0 * math.pi / ny
        s2 = math.sin(theta_v / 2.0)
        delta = 4.0 * (s1**2 + s2**2)
    sqd = math.sqrt(delta)
    chi = np.array([2.0 * s1 / sqd, 2.0 * s2 / sqd])
    return chi, delta
