"""Microscopic spin energies and chirality order parameters.

Implements the three-coupling lattice energy ``E`` on unit spin fields, its
nonnegative bulk form ``F`` (they differ by an exact per-cell constant on
periodic grids), the chirality fields derived from the oriented angles between
adjacent spins, and the rescaled transition energies ``H_n`` / ``H_n*`` /
``AG_d`` that the package's wall experiments are built on.

The exact identity ``F = delta^{3/2} * l * H_n`` holds cell by cell over
matching index sets and is the central consistency check of this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np
from numpy.typing import NDArray

from .errors import DimensionError, DomainError, ParameterError
from .lattice_core import (
    Grid,
    Rect,
    ScalarField,
    VectorField,
    cell_sum,
    dpartial,
)

__all__ = [
    "ModelParams",
    "SpinField",
    "ChiralityFields",
    "EnergyRecord",
    "angles",
    "chirality",
    "energy_E",
    "energy_F",
    "bulk_identity_check",
    "Wd",
    "Ad",
    "energy_Hn",
    "energy_Hn_star",
    "energy_AGd",
    "potential_W",
]


@dataclass(frozen=True)
class ModelParams:
    """Couplings (l, alpha, beta) with the derived scales (delta, eps).

    ``delta = 4 - alpha/2`` measures the distance from the ferromagnetic
    transition; ``eps = l / sqrt(delta)`` is the width of the transition
    layer.  The rescaled energies require ``beta = 2`` and ``0 < delta < 4``.
    """

    l: float
    alpha: float
    beta: float = 2.0

    def __post_init__(self):
        if not (self.l > 0):
            raise ParameterError(f"lattice spacing must be positive, got {self.l}")
        if not (0 <= self.beta <= 2):
            raise ParameterError(f"beta must lie in [0, 2], got {self.beta}")

    @property
    def delta(self) -> float:
        return 4.0 - self.alpha / 2.0

    @property
    def eps(self) -> float:
        return self.l / math.sqrt(self.delta)

    def require_transition_regime(self) -> None:
        if self.beta != 2:
            raise ParameterError("rescaled energies are defined for beta = 2 only")
        if not (0 < self.delta < 4):
            raise ParameterError(
                f"transition regime requires 0 < alpha < 8, got alpha = {self.alpha}"
            )


class SpinField(VectorField):
    """Unit-vector valued lattice field (checked to 1e-12 per cell)."""

    def _seal(self) -> None:
        super()._seal()
        si, sj = self.valid.slices
        norms = np.hypot(self.values[si, sj, 0], self.values[si, sj, 1])
        if norms.size and np.max(np.abs(norms - 1.0)) > 1e-12:
            raise DomainError("spin field values must be unit vectors (1e-12)")


def _spins(psi: NDArray) -> NDArray:
    """The spins ``u = (cos psi, sin psi)`` of a lift, as a fresh array."""
    return np.stack([np.cos(psi), np.sin(psi)], axis=-1)


@dataclass(eq=False)
class ChiralityFields:
    """Oriented angle fields and the three chirality variants of a spin field.

    ``chi`` carries ``(2/sqrt(delta)) sin(theta/2)`` per direction, ``chi_tilde``
    the single-angle sine variant, and ``chi_bar`` the linearization
    ``theta / sqrt(delta)``.  Each variant is built on its first read.
    """

    theta_hor: ScalarField
    theta_ver: ScalarField
    sqrt_delta: float

    def _pack(self, f: Callable[[NDArray], NDArray]) -> VectorField:
        """``f`` of each angle field, stacked over their common valid rect."""
        th, tv = self.theta_hor, self.theta_ver
        vals = np.stack([f(th.values), f(tv.values)], axis=-1)
        return VectorField._adopt(th.grid, vals, th.valid.intersect(tv.valid))

    @cached_property
    def chi(self) -> VectorField:
        return self._pack(lambda theta: 2.0 / self.sqrt_delta * np.sin(theta / 2.0))

    @cached_property
    def chi_tilde(self) -> VectorField:
        return self._pack(lambda theta: np.sin(theta) / self.sqrt_delta)

    @cached_property
    def chi_bar(self) -> VectorField:
        return self._pack(lambda theta: theta / self.sqrt_delta)


def _oriented_angle(a: NDArray, b: NDArray) -> NDArray:
    """Signed angle from spin a to spin b in [-pi, pi), with -pi for antipodes.

    atan2 of (cross, dot) is used instead of sign(cross) * arccos(dot): the two
    agree everywhere except that atan2 returns +pi for antipodal pairs, where
    the sign(0) = -1 convention demands -pi.
    """
    cross = a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]
    dot = a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1]
    theta = np.arctan2(cross, dot)
    theta[theta == np.pi] = -np.pi
    return theta


def angles(u: SpinField) -> tuple[ScalarField, ScalarField]:
    """Oriented angles to the right and upper neighbour, in [-pi, pi)."""
    g = u.grid
    out = []
    for di, dj in ((1, 0), (0, 1)):
        nb, rect = u.sample(di, dj)
        rect = rect.intersect(u.valid)
        if rect.empty:
            raise DimensionError("empty valid set for neighbour angles")
        out.append(ScalarField._adopt(g, _oriented_angle(u.values, nb), rect))
    return out[0], out[1]


def chirality(u: SpinField, p: ModelParams) -> ChiralityFields:
    """All chirality variants of ``u`` at the scale ``delta`` of ``p``."""
    if not (p.delta > 0):
        raise ParameterError(f"chirality needs delta > 0, got {p.delta}")
    return ChiralityFields(*angles(u), math.sqrt(p.delta))


def _pair_dots(u: SpinField, shifts) -> tuple[NDArray, Rect]:
    """Per-cell dot products of u with each shifted copy, and the common rect."""
    rect = u.valid
    dots = []
    for di, dj in shifts:
        nb, r = u.sample(di, dj)
        rect = rect.intersect(r)
        dots.append(np.sum(u.values * nb, axis=-1))
    return np.stack(dots), rect


def _resolve_region(rect: Rect, region: Rect | None) -> Rect:
    if region is not None:
        rect = rect.intersect(region)
    if rect.empty:
        raise DimensionError("energy region has empty valid set")
    return rect


def energy_E(u: SpinField, p: ModelParams, region: Rect | None = None) -> float:
    """Three-coupling lattice energy: nearest (-alpha), diagonal (+beta),
    and third-neighbour (+1) pair terms, each weighted by l^2."""
    dots, rect = _pair_dots(u, ((1, 0), (0, 1), (1, 1), (-1, 1), (2, 0), (0, 2)))
    if region is None and rect.empty:
        return 0.0  # grid too small for any full stencil: nothing to sum
    rect = _resolve_region(rect, region)
    per_cell = (
        -p.alpha * (dots[0] + dots[1])
        + p.beta * (dots[2] + dots[3])
        + (dots[4] + dots[5])
    )
    return p.l**2 * cell_sum(per_cell, rect)


def _f_residuals(
    values: NDArray, p: ModelParams, grid: Grid, valid: Rect
) -> tuple[NDArray, NDArray, Rect]:
    """Horizontal and vertical 5-point residuals of ``F`` on a raw
    ``(nx, ny, 2)`` spin array, and the part of ``valid`` where the full
    stencil exists.  Indices wrap; the residuals are meaningful only on the
    returned rect."""
    cv = (p.alpha / (p.beta + 2.0)) * values
    rh = np.empty_like(values)
    rv = np.empty_like(values)
    # ahead + behind along each axis, wrapping at both ends, then - c * v
    np.add(values[2:], values[:-2], out=rh[1:-1])
    np.add(values[1], values[-1], out=rh[0])
    np.add(values[0], values[-2], out=rh[-1])
    np.add(values[:, 2:], values[:, :-2], out=rv[:, 1:-1])
    np.add(values[:, 1], values[:, -1], out=rv[:, 0])
    np.add(values[:, 0], values[:, -2], out=rv[:, -1])
    rh -= cv
    rv -= cv
    return rh, rv, valid if grid.periodic else valid.shrink(1)


def _sq_norm(r: NDArray) -> NDArray:
    """``|r|^2`` per cell of a ``(nx, ny, 2)`` array: the same bits as
    ``np.sum(r * r, axis=-1)`` (squares are never -0.0), without a
    reduction over the length-2 axis."""
    r1, r2 = r[..., 0], r[..., 1]
    return r1 * r1 + r2 * r2


def energy_F(u: SpinField, p: ModelParams, region: Rect | None = None) -> float:
    """Nonnegative bulk form of the lattice energy (squared stencil residuals).

    Both residual sums run over the common index set where the full 5-point
    stencil exists, so that the rescaling identity with ``energy_Hn`` holds
    cell by cell also on open grids.
    """
    rh, rv, rect = _f_residuals(u.values, p, u.grid, u.valid)
    if region is None and rect.empty:
        return 0.0
    rect = _resolve_region(rect, region)
    combined = _sq_norm(rh + rv)
    split = _sq_norm(rh) + _sq_norm(rv)
    per_cell = (p.beta / 4.0) * combined + ((2.0 - p.beta) / 4.0) * split
    return p.l**2 * cell_sum(per_cell, rect)


def bulk_identity_check(u: SpinField, p: ModelParams) -> float:
    """Relative residual of E + l^2 N (alpha^2/(2(beta+2)) + 2) = F.

    Exact (up to rounding) on periodic grids, where the index shifts used to
    complete the squares produce no boundary terms.
    """
    if not u.grid.periodic:
        raise DomainError("bulk identity holds without boundary terms only on periodic grids")
    e = energy_E(u, p)
    f = energy_F(u, p)
    n_cells = u.grid.nx * u.grid.ny
    shift = p.l**2 * n_cells * (p.alpha**2 / (2.0 * (p.beta + 2.0)) + 2.0)
    return abs(e + shift - f) / (1.0 + abs(f))


def Wd(ch: ChiralityFields) -> ScalarField:
    """Discrete double-well density ``w^2 / 4`` from four shifted chirality squares,
    ``w = 2 - |chi1|^2(i,j) - |chi1|^2(i-1,j) - |chi2|^2(i,j) - |chi2|^2(i,j-1)``."""
    g = ch.chi.grid
    c1 = ScalarField._adopt(g, ch.chi.values[..., 0] ** 2, ch.chi.valid)
    c2 = ScalarField._adopt(g, ch.chi.values[..., 1] ** 2, ch.chi.valid)
    c1m, r1 = c1.sample(-1, 0)
    c2m, r2 = c2.sample(0, -1)
    rect = c1.valid.intersect(r1).intersect(r2)
    if rect.empty:
        raise DimensionError("empty valid set for the shifted well density")
    w = 2.0 - c1.values - c1m - c2.values - c2m
    return ScalarField._adopt(g, w * w / 4.0, rect)


def Ad(ch: ChiralityFields) -> ScalarField:
    """Shifted discrete divergence of the sine-variant chirality."""
    d1 = dpartial(ch.chi_tilde.component(1), 1)
    d2 = dpartial(ch.chi_tilde.component(2), 2)
    d1s, r1 = d1.sample(-1, 0)
    d2s, r2 = d2.sample(0, -1)
    rect = r1.intersect(r2)
    if rect.empty:
        raise DimensionError("empty valid set for the shifted divergence")
    return ScalarField._adopt(ch.chi.grid, d1s + d2s, rect)


@dataclass(frozen=True)
class EnergyRecord:
    """Energy split into its potential and derivative contributions."""

    total: float
    potential_part: float
    derivative_part: float


def _record(p: ModelParams, w_vals: NDArray, d_vals: NDArray, rect: Rect) -> EnergyRecord:
    pot = 0.5 / p.eps * p.l**2 * cell_sum(w_vals, rect)
    der = 0.5 * p.eps * p.l**2 * cell_sum(d_vals, rect)
    return EnergyRecord(pot + der, pot, der)


def energy_Hn(u: SpinField, p: ModelParams, region: Rect | None = None) -> EnergyRecord:
    """Rescaled transition energy (1/2) int (1/eps) Wd + eps |Ad|^2.

    Satisfies ``F = delta^{3/2} * l * Hn`` exactly over matching cell sets.
    """
    p.require_transition_regime()
    ch = chirality(u, p)
    wd = Wd(ch)
    ad = Ad(ch)
    rect = _resolve_region(wd.valid.intersect(ad.valid), region)
    return _record(p, wd.values, ad.values**2, rect)


def potential_W(xi: NDArray) -> NDArray:
    """Double-well potential (1 - |xi|^2)^2 for (...,2)-shaped arguments."""
    xi = np.asarray(xi, dtype=np.float64)
    return (1.0 - np.sum(xi * xi, axis=-1)) ** 2


def _well_and_jacobian(
    p: ModelParams, w: NDArray, comps, rect: Rect, region: Rect | None
) -> EnergyRecord:
    """Energy of the well density ``w`` and the squared full forward-difference
    matrix of ``comps``, over the part of ``rect`` where all of it exists."""
    dsq = 0.0
    for comp in comps:
        for axis in (1, 2):
            d = dpartial(comp, axis)
            rect = rect.intersect(d.valid)
            dsq = dsq + d.values**2
    return _record(p, w, dsq, _resolve_region(rect, region))


def energy_Hn_star(u: SpinField, p: ModelParams, region: Rect | None = None) -> EnergyRecord:
    """Auxiliary energy with the pointwise well W(chi) and the full forward
    difference matrix of chi in place of the shifted stencils."""
    p.require_transition_regime()
    ch = chirality(u, p)
    comps = (ch.chi.component(1), ch.chi.component(2))
    return _well_and_jacobian(p, potential_W(ch.chi.values), comps, ch.chi.valid, region)


def energy_AGd(phi: ScalarField, p: ModelParams, region: Rect | None = None) -> EnergyRecord:
    """Discrete Aviles-Giga energy of a scalar potential: well of the discrete
    gradient plus the full second forward-difference matrix."""
    p.require_transition_regime()
    d1 = dpartial(phi, 1)
    d2 = dpartial(phi, 2)
    w = (1.0 - d1.values**2 - d2.values**2) ** 2
    return _well_and_jacobian(p, w, (d1, d2), d1.valid.intersect(d2.valid), region)
