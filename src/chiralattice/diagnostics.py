"""Quantitative checks of the a-priori estimates on arbitrary fields.

Every reported bound is empirical: the checks return the measured quantity
(or the measured constant in front of the predicted scaling), never an
asserted theorem.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .errors import DimensionError, DomainError
from .lattice_core import (
    _AHEAD, _CROSS, ScalarField, VectorField, _curl, _reach, _RowTile, _sq_norm, _tile_sums,
    _views, cell_sum, curl_d,
)
from .spin_energy import (
    EnergyRecord, ModelParams, SpinField, _chi_bar, _hn_tile, _jacobian_sq, _record,
    _require_unit, _resolve_region, _tile_angles, _well_and_jacobian, energy_Hn, potential_W,
)

if TYPE_CHECKING:
    from numpy.typing import NDArray

__all__ = [
    "count_large_angle_cells",
    "curl_l1",
    "lp_norm",
    "hn_vs_hnstar",
    "curl_quantization_residual",
    "diagnose_report",
]

# where chi (the angles both ways) is valid is the reach of _AHEAD on the
# spins, and where a forward stencil on chi is valid the reach of _TWO_AHEAD
_TWO_AHEAD = ((2, 0), (0, 2))
_FORWARD = ((0, 0),) + _AHEAD  # a cell and its views ahead


def _check_threshold(t: float) -> None:
    if not (0 < t < math.pi):
        raise DomainError(f"threshold must lie in (0, pi), got {t}")


def _large_angles(theta_hor: NDArray, theta_ver: NDArray, t: float) -> NDArray:
    """Per cell, whether either neighbour angle exceeds ``t`` in size."""
    return (np.abs(theta_hor) > t) | (np.abs(theta_ver) > t)


def count_large_angle_cells(theta_hor: ScalarField, theta_ver: ScalarField, t: float) -> int:
    """Number of cells, valid for both neighbour angles, where either exceeds ``t``."""
    _check_threshold(t)
    si, sj = theta_hor.valid.intersect(theta_ver.valid).slices
    return int(np.count_nonzero(_large_angles(theta_hor.values[si, sj],
                                              theta_ver.values[si, sj], t)))


def curl_l1(chi_bar: VectorField) -> float:
    """Lattice L1 norm of the discrete curl: ``l^2 sum |curl_d chi_bar|``."""
    c = curl_d(chi_bar)
    return chi_bar.grid.spacing**2 * cell_sum(np.abs(c.values), c.valid)


def _lp_density(chi: NDArray, p: int) -> NDArray:
    """Per cell, ``|chi|^p``."""
    return _sq_norm(chi) ** (p / 2.0)


def lp_norm(chi: VectorField, p: int) -> float:
    """Lattice Lp norm of |chi| for p in {2, 4, 6}."""
    if p not in (2, 4, 6):
        raise DomainError(f"p must be one of 2, 4, 6, got {p}")
    if chi.valid.empty:
        raise DomainError("empty valid set for the Lp norm")
    total = chi.grid.spacing**2 * cell_sum(_lp_density(chi.values, p), chi.valid)
    return total ** (1.0 / p)


def hn_vs_hnstar(
    u: SpinField, chi: VectorField, p: ModelParams
) -> tuple[EnergyRecord, EnergyRecord, float]:

    """``energy_Hn`` and ``energy_Hn_star`` of ``u``, whose chirality is
    ``chi = chirality(u, p).chi``, over ``chi``'s valid rect shrunk by two
    cells, plus their ratio.

    The two-cell margin keeps both stencil families defined on every summed
    cell; the ratio is reported as NaN when the shifted-stencil energy
    vanishes.
    """
    inner = chi.valid.shrink(2)
    hn = energy_Hn(u, p, inner)  # runs the parameter checks first
    hs = _well_and_jacobian(p, chi, inner)
    return hn, hs, _ratio(hn, hs)


def _ratio(hn: EnergyRecord, hs: EnergyRecord) -> float:
    return hs.total / hn.total if hn.total != 0.0 else math.nan


def _turn_distance(curl: NDArray, p: ModelParams) -> NDArray:
    """Per cell, the distance of ``l sqrt(delta) curl`` from {-2pi, 0, 2pi}."""
    vals = p.l * math.sqrt(p.delta) * curl
    return np.minimum(np.abs(vals), np.abs(np.abs(vals) - 2.0 * math.pi))


def curl_quantization_residual(chi_bar: VectorField, p: ModelParams) -> float:
    """Largest distance of ``l sqrt(delta) curl_d(chi_bar)`` from {-2pi, 0, 2pi}.

    Each plaquette value is a cyclic sum of four neighbour angles and can only
    be a full turn up to rounding; recovery fields give identically zero.
    """
    p.require_spacing(chi_bar.grid)
    # outside the curl's valid set the values are zeros, whose distance is 0
    return float(np.max(_turn_distance(curl_d(chi_bar).values, p)))


def diagnose_report(field: VectorField, p: ModelParams, t: float) -> dict:
    """The five checks above on ``field``, a unit spin at every cell of its
    grid, as the ``diagnose`` report: the angle count over ``t`` and its
    counting constant, the curl's L1 norm and quantization residual, the L2,
    L4 and L6 norms of ``chi``, and ``Hn``, ``Hn*`` and their ratio (None
    when it is not finite).

    One pass over row tiles with a two-cell margin runs them all: each tile
    checks that its spins are unit vectors (the ``DomainError`` of
    :class:`SpinField`), forms the chiralities once from the spins'
    differences and cross products, and the angles once for the count and
    ``chi_bar``, and adds each check's cells to exact sums.  Each check
    takes the cells and the per-cell formula of its whole-field function, so
    the floats are theirs bit for bit, and no field besides ``field`` is
    built.
    """
    if field.valid != field.grid.full_rect:
        raise DimensionError(f"diagnose reads a field valid on the whole grid, got {field.valid}")
    _check_threshold(t)
    p.require_transition_regime()
    p.require_spacing(field.grid)
    sqd, l = math.sqrt(p.delta), p.l
    inner = _reach(field, _AHEAD).shrink(2)
    _resolve_region(_reach(field, _CROSS), inner)
    large, turn = 0, 0.0

    def tile_checks(tile: _RowTile, sums: list) -> None:
        nonlocal large, turn
        spins = field.values[tile.index]
        _require_unit(spins)  # every cell the tile reads
        chi = _hn_tile(tile, spins[..., 0], spins[..., 1], 2, p.delta, l, inner, sums, True)
        th, tv = _tile_angles(spins)
        cells = tile.cells(_AHEAD, 2)
        large += int(np.count_nonzero(_large_angles(th, tv, t)[cells]))
        for k, total in zip((2, 4, 6), sums[2:5]):
            total.add(_lp_density(chi, k)[cells])
        x, right, up = _views(chi, 1, _FORWARD)
        cells = tile.cells(_TWO_AHEAD, 1, inner)
        sums[5].add(potential_W(x)[cells])
        sums[6].add(_jacobian_sq(x, right, up, l)[cells])
        chi_bar = np.stack([_chi_bar(th, sqd), _chi_bar(tv, sqd)], axis=-1)
        curl = _curl(*_views(chi_bar, 1, _FORWARD), l)
        tile.seal(_TWO_AHEAD, 1, curl)
        curl = curl[tile.cells(_TWO_AHEAD, 1)]
        sums[7].add(np.abs(curl))
        turn = max(turn, float(np.max(_turn_distance(curl, p), initial=0.0)))

    hn_pot, hn_der, lp2, lp4, lp6, hs_pot, hs_der, curl_sum = _tile_sums(
        field.grid, field.valid, 8, tile_checks, margin=2)
    hn, hs = _record(p, hn_pot, hn_der), _record(p, hs_pot, hs_der)
    ratio = _ratio(hn, hs)
    return {
        "large_angle_cells": large,
        "angle_threshold": t,
        "curl_l1": l**2 * curl_sum,
        "curl_quantization_residual": turn,
        "lp_norms": {str(k): (l**2 * total) ** (1.0 / k)
                     for k, total in zip((2, 4, 6), (lp2, lp4, lp6))},
        "Hn": hn.total,
        "Hn_star": hs.total,
        "Hn_star_over_Hn": ratio if math.isfinite(ratio) else None,
        "counting_constant": large * p.l / p.delta**1.5,
    }
