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

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np
from numpy.polynomial.legendre import leggauss
from numpy.typing import NDArray

from .errors import DomainError
from .lattice_core import (
    _AHEAD, ScalarField, VectorField, _div, _reach, _require_finite, _RowTile, _sq_norm,
    _tile_sums, _unit, cell_sum, div_d,
)

__all__ = [
    "Entropy",
    "perp",
    "jin_kohn",
    "psi_alpha",
    "ent_norm_estimate",
    "entropy_production",
    "total_variation_production",
    "total_variation_productions",
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

    ``phi`` maps (...,2) arrays to (...,2) float64 arrays and must act on
    each cell alone: its value at a cell depends, bit for bit, only on that
    cell's two floats, not on the array's shape or the cell's place in it.
    The productions evaluate it once per run of bitwise-equal consecutive
    cells (row-major) and repeat the result; when every cell is its own run
    they take over the array ``phi`` returns, so it must be new.  The total
    variation scan finds the runs once per tile for a group of axes, and
    skips the cells that do not move (equal, bit for bit, to the cells ahead
    in ``i`` and in ``j``), whose divergence is an exact zero.  ``dphi``
    maps (...,2) arrays to (...,2,2) Jacobians.  Both must be pure and
    reentrant.
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


def _run_starts(cells: NDArray) -> NDArray | None:
    """Indices of the (n, 2) ``cells`` where a run of bitwise-equal
    consecutive cells starts (so 0.0 and -0.0 differ), or None when every run
    is one cell long.  The whole-grid mask dies on return, before ``Phi``
    runs: held alive across it, it slowed a 16-axis scan of an all-distinct
    512^2 field by 5-10% (glibc malloc, 2-vCPU x86_64)."""
    bits = cells.view(np.int64)
    new_run = bits[1:, 0] != bits[:-1, 0]
    new_run |= bits[1:, 1] != bits[:-1, 1]
    if new_run.all():
        return None
    return np.concatenate(([0], np.flatnonzero(new_run) + 1))


def _flux(values: NDArray, e: Entropy) -> NDArray:
    """``Phi o perp`` of the ``(..., 2)`` array ``values``, with ``Phi``
    evaluated once per run of bitwise-equal consecutive cells (row-major)
    and the result repeated."""
    cells = values.reshape(-1, 2)
    starts = _run_starts(cells)
    if starts is None:
        return e.phi(perp(values))
    lengths = np.diff(starts, append=len(cells))
    return np.repeat(e.phi(perp(cells[starts])), lengths, axis=0).reshape(values.shape)


def _production_density(chi: VectorField, e: Entropy) -> ScalarField:
    """``div_d(Phi o chi_perp)`` on the whole field."""
    return div_d(VectorField._adopt(chi.grid, _flux(chi.values, e), chi.valid))


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
    ``div(Phi o chi_perp)`` over its valid set.  The one-axis case of
    :func:`total_variation_productions`."""
    return total_variation_productions(chi, (e,))[0]


# axes per tile pass of total_variation_productions: each tile's rows, runs
# and moving cells serve this many productions, and a scan of any length
# holds this many accumulators; like _TILE_CELLS it sets memory and speed only
_GROUP_AXES = 64


def total_variation_productions(chi: VectorField, entropies: Iterable[Entropy]) -> list[float]:
    """:func:`total_variation_production` of ``chi`` for each entropy, in order.

    It streams over row tiles, once per group of ``_GROUP_AXES`` entropies
    taken from the iterable as it goes.  Each tile gathers its rows and the
    row ahead, finds its runs of bitwise-equal consecutive cells and, when
    there are runs, its moving cells: those of the divergence's reach whose
    value differs bitwise from the cell ahead in ``i`` or in ``j`` (wrapped
    on a periodic grid).  Per entropy it evaluates ``Phi`` once per run and
    forms the divergence on the moving cells only: a cell that does not move
    reads one flux three times, so its divergence is ``+0.0``, which adds
    nothing to the exact sum.  A tile with no runs forms the flux and the
    divergence of every cell.  Both are sealed where a whole field of them
    would be valid, so each sum is ``div_d``'s, bit for bit, with no
    whole-grid array.  When several entropies fail, the error of the first
    tile that fails is raised, whichever axis it belongs to.
    """
    g, out = chi.grid, []
    axes = iter(entropies)
    while group := list(itertools.islice(axes, _GROUP_AXES)):
        if _reach(chi, _AHEAD).empty:  # the whole-field path names the stencil without a cell
            _production_density(chi, group[0])
        kernel = functools.partial(_tv_tile, chi, group)
        out += [g.spacing**2 * total for total in _tile_sums(g, chi.valid, len(group), kernel,
                                                              margin=0)]
    return out


def _tv_tile(chi: VectorField, group: list[Entropy], tile: _RowTile, sums: list) -> None:
    """Add each entropy's ``|div(Phi o chi_perp)|`` on the tile's reach to its sum."""
    g, l = chi.grid, chi.grid.spacing
    # an open grid's last row and last column lie outside the reach, so
    # only a periodic grid wraps to the row and the column ahead
    rows = np.arange(tile.i0, min(tile.i1 + 1, g.nx + g.periodic)) % g.nx
    values = chi.values[rows]
    cells = values.reshape(-1, 2)
    starts = _run_starts(cells)
    reach = tile.cells(_AHEAD, 0)
    if starts is None:
        for e, total in zip(group, sums):
            flux = e.phi(perp(values))
            tile.seal((), 0, flux)
            if g.periodic:
                flux = np.concatenate((flux, flux[:, :1]), axis=1)
            div = _div(flux[:-1, :-1], flux[1:, :-1], flux[:-1, 1:], l)
            tile.seal(_AHEAD, 0, div)
            total.add(np.abs(div[reach]))
        return
    lengths = np.diff(starts, append=len(cells))
    here, right, up = _moving_runs(values, starts, reach, g.periodic)
    for e, total in zip(group, sums):
        flux = e.phi(perp(cells[starts]))
        if not np.all(np.isfinite(flux)):  # the seal of the cells, as on the whole tile
            tile.seal((), 0, np.repeat(flux, lengths, axis=0).reshape(values.shape))
        div = _div(flux[here], flux[right], flux[up], l)
        _require_finite(div)
        total.add(np.abs(div))


def _moving_runs(values: NDArray, starts: NDArray, reach: tuple[slice, slice],
                 periodic: bool) -> tuple[NDArray, NDArray, NDArray]:
    """The runs (indices into ``starts``) of each moving cell of ``reach`` in
    the ``(rows, ny, 2)`` tile ``values``, of the cell ahead in ``i`` and of
    the cell ahead in ``j``: a cell moves when its value differs bitwise from
    one of the two."""
    ny = values.shape[1]
    bits = values.view(np.int64)
    if periodic:
        bits = np.concatenate((bits, bits[:, :1]), axis=1)
    (r0, r1), (c0, c1) = ((s.start, s.stop) for s in reach)
    at = bits[r0:r1, c0:c1]
    moved = np.zeros(at.shape[:2], dtype=bool)
    for ahead in (bits[r0 + 1 : r1 + 1, c0:c1], bits[r0:r1, c0 + 1 : c1 + 1]):
        moved |= at[..., 0] != ahead[..., 0]
        moved |= at[..., 1] != ahead[..., 1]
    i, j = np.nonzero(moved)
    i += r0
    j += c0
    cell = i * ny + j
    runs = np.searchsorted(starts, np.concatenate((cell, cell + ny, cell - j + (j + 1) % ny)),
                           side="right") - 1
    return np.split(runs, 3)


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
