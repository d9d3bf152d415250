"""Microscopic spin energies and chirality order parameters.

Implements the three-coupling lattice energy ``E`` on unit spin fields, its
nonnegative bulk form ``F`` (they differ by an exact per-cell constant on
periodic grids), the chirality fields of adjacent spins (from their
differences and cross products, and the linearized one from their oriented
angles), and the rescaled transition energies ``H_n`` / ``H_n*`` / ``AG_d``
that the package's wall experiments are built on.

The exact identity ``F = delta^{3/2} * l * H_n`` holds cell by cell over
matching index sets and is the central consistency check of this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .errors import DimensionError, DomainError, ParameterError
from .lattice_core import (
    _CROSS,
    Grid,
    Rect,
    ScalarField,
    VectorField,
    _cell_dot,
    _neighbours,
    _reach,
    _by_rows,
    _RowTile,
    _sq_norm,
    _tile_sums,
    _views,
    cell_sum,
    grad_d,
)

if TYPE_CHECKING:
    from numpy.typing import NDArray

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

    def require_spacing(self, grid: Grid) -> None:
        """The lattice spacing has one owner: ``l`` must be ``grid.spacing``."""
        if self.l != grid.spacing:
            raise ParameterError(f"l = {self.l!r} is not the grid spacing {grid.spacing!r}")

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
        _by_rows(_require_unit, self.values[self.valid.slices])


def _require_unit(spins: NDArray) -> None:
    """The unit-norm half of the spin field seal, on the cells it is given."""
    norms = np.hypot(spins[..., 0], spins[..., 1])
    if norms.size and np.max(np.abs(norms - 1.0)) > 1e-12:
        raise DomainError("spin field values must be unit vectors (1e-12)")


def _spins(psi: NDArray) -> NDArray:
    """The spins ``u = (cos psi, sin psi)`` of a lift, as a fresh array."""
    return np.stack([np.cos(psi), np.sin(psi)], axis=-1)


@dataclass(eq=False)
class ChiralityFields:
    """The chirality variants of a spin field, each built on its first read.

    ``chi`` carries ``(2/sqrt(delta)) sin(theta/2)`` per direction,
    ``chi_sq`` its square and ``chi_tilde`` the sine variant
    ``sin(theta)/sqrt(delta)``; all three come from the spins' differences
    and cross products (``_chiralities``), with no angle.  ``theta_hor`` and
    ``theta_ver`` are the oriented angles (``angles``), and ``chi_bar`` their
    linearization ``theta / sqrt(delta)``.
    """

    u: SpinField
    delta: float

    @property
    def sqrt_delta(self) -> float:
        return math.sqrt(self.delta)

    @cached_property
    def _steps(self) -> tuple[tuple[NDArray, NDArray], tuple[NDArray, NDArray], Rect]:
        """``_chiralities`` to the right and upper neighbour, and where both exist."""
        (right, up), rect = _neighbours(self.u, (1, 0), (0, 1))
        x = self.u.values
        return (_chiralities(x[..., 0], x[..., 1], right[..., 0], right[..., 1], self.delta),
                _chiralities(x[..., 0], x[..., 1], up[..., 0], up[..., 1], self.delta), rect)

    def _pack(self, k: int) -> VectorField:
        """Part ``k`` of both directions' ``_steps``, stacked over their rect."""
        hor, ver, rect = self._steps
        return VectorField._adopt(self.u.grid, np.stack([hor[k], ver[k]], axis=-1), rect)

    @cached_property
    def chi_sq(self) -> VectorField:
        return self._pack(0)

    @cached_property
    def chi_tilde(self) -> VectorField:
        return self._pack(1)

    @cached_property
    def chi(self) -> VectorField:
        chi = _chi(self.chi_sq.values, self.chi_tilde.values, self.delta)
        return VectorField._adopt(self.u.grid, chi, self.chi_sq.valid)

    @cached_property
    def _angles(self) -> tuple[ScalarField, ScalarField]:
        return angles(self.u)

    @property
    def theta_hor(self) -> ScalarField:
        return self._angles[0]

    @property
    def theta_ver(self) -> ScalarField:
        return self._angles[1]

    @cached_property
    def chi_bar(self) -> VectorField:
        th, tv = self._angles
        vals = np.stack([_chi_bar(th.values, self.sqrt_delta),
                         _chi_bar(tv.values, self.sqrt_delta)], axis=-1)
        return VectorField._adopt(self.u.grid, vals, th.valid.intersect(tv.valid))


def _chiralities(a0: NDArray, a1: NDArray, b0: NDArray, b1: NDArray,
                 delta: float) -> tuple[NDArray, NDArray]:
    """Per cell, ``|chi|^2 = |b - a|^2 / delta`` and ``chi_tilde = cross(a, b) /
    sqrt(delta)`` of the step from the spin ``a = (a0, a1)`` to ``b = (b0, b1)``.
    For unit spins at the angle ``theta`` these are ``4 sin^2(theta/2) / delta``
    and ``sin(theta) / sqrt(delta)``.  The square is formed from the
    component differences, never as ``2 - 2 a.b``, which cancels for small
    angles.  Reversing the step or mapping both spins by a quarter turn or a
    reflection keeps ``|chi|^2`` bit for bit and at most negates
    ``chi_tilde``."""
    cross = a0 * b1
    sq = a1 * b0
    cross -= sq
    cross /= math.sqrt(delta)
    np.subtract(b0, a0, out=sq)
    sq *= sq
    d1 = b1 - a1
    d1 *= d1
    sq += d1
    sq /= delta
    return sq, cross


def _chi(chi_sq: NDArray, chi_tilde: NDArray, delta: float) -> NDArray:
    """Per cell, the signed chirality ``(2/sqrt(delta)) sin(theta/2)``: the root
    of ``chi_sq`` with the sign of ``chi_tilde``, which is the sign of
    ``theta``.  An antipodal step (``chi_tilde`` is ``±0`` and ``chi_sq > 2 /
    delta``, that is ``a.b < 0``) is negative, as ``theta = -pi`` gives."""
    sign = np.where((chi_tilde == 0.0) & (chi_sq > 2.0 / delta), -1.0, chi_tilde)
    return np.copysign(np.sqrt(chi_sq), sign)


def _chi_bar(theta: NDArray, sqrt_delta: float) -> NDArray:
    """Per-cell linearized chirality ``theta/sqrt(delta)``."""
    return theta / sqrt_delta


def _oriented_angle(a: NDArray, b: NDArray) -> NDArray:
    """Signed angle from spin a to spin b in [-pi, pi], with -pi for antipodes.

    atan2 of (cross, dot) is used instead of sign(cross) * arccos(dot): the two
    agree everywhere except that atan2 returns +pi for antipodal pairs whose
    cross product is +0, where the sign(0) = -1 convention demands -pi.  A
    step whose positive cross product is too small to move atan2 off pi keeps
    +pi, so the angle has the sign of ``chi``.
    """
    cross = a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]
    theta = np.arctan2(cross, _cell_dot(a, b))
    theta[(theta == np.pi) & (cross == 0.0)] = -np.pi
    return theta


def _tile_angles(spins: NDArray) -> tuple[NDArray, NDArray]:
    """The angles from each spin of a tile array to its right and upper
    neighbour, on all but the array's last row and column."""
    here = spins[:-1, :-1]
    return _oriented_angle(here, spins[1:, :-1]), _oriented_angle(here, spins[:-1, 1:])


def _tile_chiralities(c: NDArray, s: NDArray, delta: float) -> tuple[NDArray, ...]:
    """``_chiralities`` from each spin ``(c, s)`` of a tile's component planes
    to its right and to its upper neighbour, on all but the planes' last row
    and column: ``|chi1|^2, chi_tilde1, |chi2|^2, chi_tilde2``."""
    c0, s0 = c[:-1, :-1], s[:-1, :-1]
    return (*_chiralities(c0, s0, c[1:, :-1], s[1:, :-1], delta),
            *_chiralities(c0, s0, c[:-1, 1:], s[:-1, 1:], delta))


def angles(u: SpinField) -> tuple[ScalarField, ScalarField]:
    """Oriented angles to the right and upper neighbour, in [-pi, pi]."""
    g = u.grid
    (right, up), _ = _neighbours(u, (1, 0), (0, 1))
    return (ScalarField._adopt(g, _oriented_angle(u.values, right), _reach(u, ((1, 0),))),
            ScalarField._adopt(g, _oriented_angle(u.values, up), _reach(u, ((0, 1),))))


def chirality(u: SpinField, p: ModelParams) -> ChiralityFields:
    """All chirality variants of ``u`` at the scale ``delta`` of ``p``, each
    built when it is first read."""
    if not (p.delta > 0):
        raise ParameterError(f"chirality needs delta > 0, got {p.delta}")
    return ChiralityFields(u, p.delta)


def _resolve_region(rect: Rect, region: Rect | None) -> Rect:
    if region is not None:
        rect = rect.intersect(region)
    if rect.empty:
        raise DimensionError("energy region has empty valid set")
    return rect


_PAIRS = ((1, 0), (0, 1), (1, 1), (-1, 1), (2, 0), (0, 2))  # the pairs of energy_E


def energy_E(u: SpinField, p: ModelParams) -> float:
    """Three-coupling lattice energy: nearest (-alpha), diagonal (+beta),
    and third-neighbour (+1) pair terms, each weighted by l^2.  An open grid
    sums only the cells whose six forward pairs all exist, so a reflected or
    transposed field drops other edge pairs and gives another value.  It
    streams over row tiles with a margin of two cells, as far as the pairs
    reach."""
    p.require_spacing(u.grid)
    if _reach(u, _PAIRS).empty:
        return 0.0

    def tile_e(tile: _RowTile, sums: list) -> None:
        x, *views = _views(u.values[tile.index], 2, ((0, 0),) + _PAIRS)
        dots = [_cell_dot(x, nb) for nb in views]
        per_cell = (
            -p.alpha * (dots[0] + dots[1])
            + p.beta * (dots[2] + dots[3])
            + (dots[4] + dots[5])
        )
        sums[0].add(per_cell[tile.cells(_PAIRS, 0)])

    (total,) = _tile_sums(u.grid, u.valid, 1, tile_e, margin=2)
    return p.l**2 * total


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


def _f_density(values: NDArray, p: ModelParams, grid: Grid, valid: Rect) -> tuple[NDArray, Rect]:
    """Per-cell density of ``energy_F`` on a raw ``(nx, ny, 2)`` spin array, and the
    rect it sums over; no field is built, so a non-finite trial is no error."""
    rh, rv, rect = _f_residuals(values, p, grid, valid)
    per_cell = (p.beta / 4.0) * _sq_norm(rh + rv)
    if p.beta != 2.0:  # at beta = 2 the split term is exactly +0.0
        per_cell += ((2.0 - p.beta) / 4.0) * (_sq_norm(rh) + _sq_norm(rv))
    return per_cell, rect


def energy_F(u: SpinField, p: ModelParams) -> float:
    """Nonnegative bulk form of the lattice energy (squared stencil residuals).

    Both residual sums run over the common index set where the full 5-point
    stencil exists, so that the rescaling identity with ``energy_Hn`` holds
    cell by cell also on open grids.  It streams over row tiles: the density
    of each tile array is exact on all but its one-cell margin.  Like
    ``energy_E``, it sums an empty set to 0.0 (an open grid too small for the
    stencil), where ``energy_Hn`` raises ``DimensionError`` on the same cells.
    """
    p.require_spacing(u.grid)

    def tile_f(tile: _RowTile, sums: list) -> None:
        per_cell, _ = _f_density(u.values[tile.index], p, u.grid, u.valid)
        sums[0].add(per_cell[tile.cells(_CROSS, 1)])

    (total,) = _tile_sums(u.grid, u.valid, 1, tile_f)
    return p.l**2 * total


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


def _wd(a1: NDArray, a1_left: NDArray, a2: NDArray, a2_down: NDArray) -> NDArray:
    """Per-cell Wd from the squared chirality components and their left and
    lower neighbours.  Each pair is summed first, so a flip (which swaps a
    square and its neighbour) or a transposition (which swaps the pairs)
    keeps every bit."""
    w = a1 + a1_left
    w += a2 + a2_down
    np.subtract(2.0, w, out=w)
    w *= w
    w /= 4.0
    return w


def _ad(t1: NDArray, t1_left: NDArray, t2: NDArray, t2_down: NDArray, l: float) -> NDArray:
    """Per-cell Ad from the sine-variant components and their left and lower neighbours."""
    ad = t1 - t1_left
    ad /= l
    ver = t2 - t2_down
    ver /= l
    ad += ver
    return ad


def Wd(ch: ChiralityFields) -> ScalarField:
    """Discrete double-well density ``w^2 / 4`` from four shifted chirality squares,
    ``w = 2 - ((|chi1|^2(i,j) + |chi1|^2(i-1,j)) + (|chi2|^2(i,j) + |chi2|^2(i,j-1)))``."""
    sq = ch.chi_sq
    (left, down), rect = _neighbours(sq, (-1, 0), (0, -1))
    x = sq.values
    wd = _wd(x[..., 0], left[..., 0], x[..., 1], down[..., 1])
    return ScalarField._adopt(sq.grid, wd, rect)


def Ad(ch: ChiralityFields) -> ScalarField:
    """Shifted discrete divergence of the sine-variant chirality:
    ``(x1 - x1(i-1,j)) / l + (x2 - x2(i,j-1)) / l``."""
    ct = ch.chi_tilde
    (left, down), rect = _neighbours(ct, (-1, 0), (0, -1))
    x = ct.values
    ad = _ad(x[..., 0], left[..., 0], x[..., 1], down[..., 1], ct.grid.spacing)
    return ScalarField._adopt(ct.grid, ad, rect)


@dataclass(frozen=True)
class EnergyRecord:
    """Energy split into its potential and derivative contributions."""

    total: float
    potential_part: float
    derivative_part: float


def _record(p: ModelParams, well_sum: float, derivative_sum: float) -> EnergyRecord:
    pot = 0.5 / p.eps * p.l**2 * well_sum
    der = 0.5 * p.eps * p.l**2 * derivative_sum
    return EnergyRecord(pot + der, pot, der)


def _hn_tile(tile: _RowTile, c: NDArray, s: NDArray, margin: int, delta: float, l: float,
             region: Rect | None, sums: list, signed: bool = False) -> NDArray | None:
    """One row tile of ``energy_Hn`` from the component planes ``c`` and ``s``
    of the tile's spins with a margin of ``margin >= 1`` cells: it forms both
    directions' ``|chi|^2`` and ``chi_tilde`` there (``_tile_chiralities``)
    and Wd and Ad one cell in, seals Wd and Ad on the reach of the 5-point
    stencil, and adds Wd and ``|Ad|^2`` there, cut to ``region``, to
    ``sums``.  With ``signed`` it returns the tile's ``chi`` (``_chi`` of
    each direction, stacked), else None.  Finite spins give finite
    chiralities (cells outside the valid rect hold ``(0, 0)``), so only Wd
    and Ad, which square or divide by ``l``, can overflow.  The spin and
    chirality planes live until it returns: freeing them before the sums
    about doubled the page faults of ``gamma-table --levels 5`` under glibc,
    whose heap then shrank and grew again tile by tile."""
    a1, t1, a2, t2 = _tile_chiralities(c, s, delta)
    wd = _wd(a1[1:, 1:], a1[:-1, 1:], a2[1:, 1:], a2[1:, :-1])
    ad = _ad(t1[1:, 1:], t1[:-1, 1:], t2[1:, 1:], t2[1:, :-1], l)
    chi = np.stack([_chi(a1, t1, delta), _chi(a2, t2, delta)], axis=-1) if signed else None
    tile.seal(_CROSS, margin - 1, wd, ad)
    cells = tile.cells(_CROSS, margin - 1, region)
    sums[0].add(wd[cells])
    sums[1].add(ad[cells] ** 2)
    return chi


def energy_Hn(u: SpinField, p: ModelParams, region: Rect | None = None) -> EnergyRecord:
    """Rescaled transition energy (1/2) int (1/eps) Wd + eps |Ad|^2.

    Satisfies ``F = delta^{3/2} * l * Hn`` exactly over matching cell sets.
    It streams over row tiles (``_hn_tile``): no whole-grid intermediate is
    built, and the sums, exact per tile, give the same floats for any tile
    height.  ``Wd(chirality(u, p))`` and ``Ad(chirality(u, p))`` are its
    whole-field oracle, bit for bit.
    """
    p.require_transition_regime()
    p.require_spacing(u.grid)
    rect = _reach(u, _CROSS)
    if rect.empty:  # the whole-field operators name the stencil without a cell
        Wd(chirality(u, p))

    def tile_hn(tile: _RowTile, sums: list) -> None:
        spins = u.values[tile.index]
        _hn_tile(tile, spins[..., 0], spins[..., 1], 1, p.delta, p.l, region, sums)

    well, derivative = _tile_sums(u.grid, u.valid, 2, tile_hn)
    _resolve_region(rect, region)  # after the seals, as with whole fields
    return _record(p, well, derivative)


def potential_W(xi: NDArray) -> NDArray:
    """Double-well potential (1 - |xi|^2)^2 for (...,2)-shaped arguments."""
    xi = np.asarray(xi, dtype=np.float64)
    return (1.0 - _sq_norm(xi)) ** 2


def _jacobian_sq(x: NDArray, right: NDArray, up: NDArray, l: float) -> NDArray:
    """Per cell, the squared full forward-difference matrix of the vectors
    ``x`` against their views ahead."""
    dsq = 0.0
    for k in (0, 1):
        for ahead in (right, up):
            dsq = dsq + ((ahead[..., k] - x[..., k]) / l) ** 2
    return dsq


def _well_and_jacobian(p: ModelParams, v: VectorField, region: Rect | None = None) -> EnergyRecord:
    """Energy of the well ``potential_W(v)`` and the squared full forward-difference
    matrix of ``v``, over the part of ``v.valid`` where all of it exists."""
    (e1, e2), rect = _neighbours(v, (1, 0), (0, 1))
    x = v.values
    rect = _resolve_region(rect, region)
    return _record(p, cell_sum(potential_W(x), rect),
                   cell_sum(_jacobian_sq(x, e1, e2, v.grid.spacing), rect))


def energy_Hn_star(u: SpinField, p: ModelParams, region: Rect | None = None) -> EnergyRecord:
    """Auxiliary energy with the pointwise well W(chi) and the full forward
    difference matrix of chi in place of the shifted stencils.  Both look only
    forward, so, unlike ``Hn``, it changes under a lattice reflection, on
    periodic grids too."""
    p.require_transition_regime()
    p.require_spacing(u.grid)
    return _well_and_jacobian(p, chirality(u, p).chi, region)


def energy_AGd(phi: ScalarField, p: ModelParams) -> EnergyRecord:
    """Discrete Aviles-Giga energy of a scalar potential: the well
    ``potential_W`` of the discrete gradient plus the full second
    forward-difference matrix, summed as ``energy_Hn_star`` sums the
    chirality's."""
    p.require_transition_regime()
    p.require_spacing(phi.grid)
    return _well_and_jacobian(p, grad_d(phi))
