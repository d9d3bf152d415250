"""Entropies, entropy production on lattice fields, and limit wall costs.

An entropy is a map ``Phi: R^2 -> R^2`` whose Jacobian satisfies
``xi . (DPhi(xi) xi_perp) = 0``; composed with a rotated unit field its
divergence measures the field's distance from being a smooth solution of the
eikonal constraint.  The cubic one-parameter family implemented here saturates
the wall cost: evaluated across a jump of size ``|[chi]|`` aligned with its
axis it produces exactly ``|[chi]|^3 / 6`` per unit interface length, which is
also the value of the optimal one-dimensional transition profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss
from numpy.typing import NDArray

from .errors import DomainError
from .lattice_core import ScalarField, VectorField, _sq_norm, _unit, cell_sum, div_d

__all__ = [
    "Entropy",
    "perp",
    "jin_kohn",
    "psi_alpha",
    "ent_norm_estimate",
    "entropy_production",
    "total_variation_production",
    "sigma_surface_density",
    "modica_mortola_profile_energy",
]


def perp(v: NDArray) -> NDArray:
    """Rotation by +90 degrees: (x, y) -> (-y, x)."""
    v = np.asarray(v, dtype=np.float64)
    return np.stack([-v[..., 1], v[..., 0]], axis=-1)


@dataclass(frozen=True)
class Entropy:
    """An entropy carried as a pair of callables (Phi, DPhi).

    ``phi`` maps (...,2) arrays to new (...,2) float64 arrays, which the
    production takes over; ``dphi`` maps (...,2) arrays to (...,2,2)
    Jacobians.  Both must be pure and reentrant.
    """

    phi: Callable[[NDArray], NDArray]
    dphi: Callable[[NDArray], NDArray]


def jin_kohn(nu) -> Entropy:
    """The cubic entropy attached to the axis ``nu``:
    ``Phi(xi) = (2/3) ((xi . nu_perp)^3 nu + (xi . nu)^3 nu_perp)``."""
    nu = _unit(nu, "nu")
    nup = perp(nu)

    def phi(xi: NDArray) -> NDArray:
        xi = np.asarray(xi, dtype=np.float64)
        a = xi @ nup
        b = xi @ nu
        return (2.0 / 3.0) * (a[..., None] ** 3 * nu + b[..., None] ** 3 * nup)

    outer_a = np.outer(nu, nup)
    outer_b = np.outer(nup, nu)

    def dphi(xi: NDArray) -> NDArray:
        xi = np.asarray(xi, dtype=np.float64)
        a = xi @ nup
        b = xi @ nu
        return 2.0 * (
            a[..., None, None] ** 2 * outer_a + b[..., None, None] ** 2 * outer_b
        )

    return Entropy(phi, dphi)


def psi_alpha(e: Entropy, xi) -> tuple[NDArray, NDArray]:
    """The pair (Psi, alpha) with ``DPhi + 2 Psi (x) xi = alpha Id``.

    ``alpha(xi) = xi_perp . (DPhi xi_perp) / |xi|^2`` and
    ``Psi(xi) = -(DPhi - alpha Id) xi / (2 |xi|^2)``.  Vectorized over
    leading axes of ``xi``; the origin is a singular point and rejected.
    """
    xi = np.asarray(xi, dtype=np.float64)
    norm_sq = _sq_norm(xi)
    if np.any(norm_sq == 0.0):
        raise DomainError("(Psi, alpha) is undefined at xi = 0")
    d = e.dphi(xi)
    xp = perp(xi)
    alpha = np.einsum("...i,...ij,...j->...", xp, d, xp) / norm_sq
    dxi = np.einsum("...ij,...j->...i", d, xi)
    psi = -(dxi - alpha[..., None] * xi) / (2.0 * norm_sq[..., None])
    return psi, alpha


def ent_norm_estimate(e: Entropy, sample_box, resolution: int) -> float:
    """Sampled lower bound for the Lipschitz constant of Psi.

    ``sample_box = (x0, x1, y0, y1)`` must avoid a neighbourhood of the
    origin; the estimate is the largest difference quotient of Psi over
    axis-adjacent sample pairs and converges to Lip(Psi) from below as the
    resolution grows.
    """
    x0, x1, y0, y1 = map(float, sample_box)
    if not (x1 > x0 and y1 > y0):
        raise DomainError("empty sample box")
    if resolution < 2:
        raise DomainError("resolution must be at least 2")
    xs = np.linspace(x0, x1, resolution)
    ys = np.linspace(y0, y1, resolution)
    xi = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1)
    norms = np.hypot(xi[..., 0], xi[..., 1])
    if np.min(norms) < 1e-9:
        raise DomainError("sample box must exclude a neighbourhood of the origin")
    psi, _ = psi_alpha(e, xi)
    best = 0.0
    for axis in (0, 1):
        dpsi = np.diff(psi, axis=axis)
        dxi = np.diff(xi, axis=axis)
        num = np.hypot(dpsi[..., 0], dpsi[..., 1])
        den = np.hypot(dxi[..., 0], dxi[..., 1])
        ratios = num / den
        if ratios.size:
            best = max(best, float(np.max(ratios)))
    return best


def _production_density(chi: VectorField, e: Entropy) -> ScalarField:
    return div_d(VectorField._adopt(chi.grid, e.phi(perp(chi.values)), chi.valid))


def entropy_production(chi: VectorField, e: Entropy, zeta: Callable) -> float:
    """Lattice pairing ``l^2 sum zeta * div_d(Phi o chi_perp)``.

    ``zeta`` is a smooth weight evaluated at the lattice points ``(l i, l j)``
    and must be supported inside the valid set of the divergence.
    """
    g = chi.grid
    dv = _production_density(chi, e)
    xs, ys = g.lattice_points()
    zvals = np.asarray(zeta(np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1)))
    if zvals.shape != (g.nx, g.ny):
        raise DomainError("zeta must map (nx, ny, 2) points to (nx, ny) weights")
    outside = np.ones((g.nx, g.ny), dtype=bool)
    outside[dv.valid.slices] = False
    if np.any(np.abs(zvals[outside]) > 1e-12):
        raise DomainError("test weight support escapes the valid index set")
    return g.spacing**2 * cell_sum(zvals * dv.values, dv.valid)


def total_variation_production(chi: VectorField, e: Entropy) -> float:
    """l^1 cell sum of the production density: the lattice total variation of
    ``div(Phi o chi_perp)`` over its valid set."""
    dv = _production_density(chi, e)
    return chi.grid.spacing**2 * cell_sum(np.abs(dv.values), dv.valid)


def _jump_size(a, b, nu) -> float:
    """``|[chi]| = |a - b|`` of a chirality jump from ``b`` to ``a`` across a
    wall with normal ``nu``: all three unit vectors, ``a != b``, and
    ``a - b`` parallel to ``nu`` within 1e-10."""
    jump = _unit(a, "chi_plus") - _unit(b, "chi_minus")
    nu = _unit(nu, "nu")
    size = math.hypot(*jump)
    if size == 0.0:
        raise DomainError("a chirality jump needs chi_plus != chi_minus")
    if abs(jump[0] * nu[1] - jump[1] * nu[0]) > 1e-10:
        raise DomainError("the chirality jump must be parallel to the wall normal")
    return size


def sigma_surface_density(a, b, nu) -> float:
    """Surface energy density of a unit-vector jump: |a - b|^3 / 6."""
    return _jump_size(a, b, nu) ** 3 / 6.0


def modica_mortola_profile_energy(d: float) -> float:
    """Energy of the optimal scalar transition profile, scaled to a jump of
    size ``|d|``: quadrature of ``(1 - gamma^2)^2 + gamma'^2`` for
    ``gamma = tanh`` times ``|d|^3 / 16``; the line integral equals 8/3.
    """
    if d == 0.0:
        raise DomainError("jump size d must be nonzero")
    # 256 panels of 16 Gauss nodes on [-12, 12]; beyond it 2 sech^4 < 5e-20
    z, w = leggauss(16)
    edges = np.linspace(-12.0, 12.0, 257)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    s = mid[:, None] + half[:, None] * z[None, :]
    weights = half[:, None] * w[None, :]
    sech2 = 1.0 / np.cosh(s) ** 2
    integrand = 2.0 * sech2**2
    integral = math.fsum((weights * integrand).ravel(order="C"))
    return abs(d) ** 3 / 16.0 * integral
