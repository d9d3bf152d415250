"""Quantitative checks of the a-priori estimates on arbitrary fields.

Every reported bound is empirical: the checks return the measured quantity
(or the measured constant in front of the predicted scaling), never an
asserted theorem.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .lattice_core import Rect, VectorField, cell_sum, curl_d
from .spin_energy import (
    EnergyRecord,
    ModelParams,
    SpinField,
    angles,
    energy_Hn,
    energy_Hn_star,
)

__all__ = [
    "count_large_angle_cells",
    "curl_l1",
    "lp_norm",
    "hn_vs_hnstar",
    "curl_quantization_residual",
]


def count_large_angle_cells(u: SpinField, t: float) -> int:
    """Number of valid cells where either neighbour angle exceeds ``t``."""
    if not (0 < t < math.pi):
        raise DomainError(f"threshold must lie in (0, pi), got {t}")
    th, tv = angles(u)
    rect = th.valid.intersect(tv.valid)
    si, sj = rect.slices
    big = (np.abs(th.values[si, sj]) > t) | (np.abs(tv.values[si, sj]) > t)
    return int(np.count_nonzero(big))


def curl_l1(chi_bar: VectorField, region: Rect | None = None) -> float:
    """Lattice L1 norm of the discrete curl: ``l^2 sum |curl_d chi_bar|``."""
    c = curl_d(chi_bar)
    rect = c.valid if region is None else c.valid.intersect(region)
    if rect.empty:
        raise DomainError("empty region for the curl norm")
    return chi_bar.grid.spacing**2 * cell_sum(np.abs(c.values), rect)


def lp_norm(chi: VectorField, p: int, region: Rect | None = None) -> float:
    """Lattice Lp norm of |chi| for p in {2, 4, 6}."""
    if p not in (2, 4, 6):
        raise DomainError(f"p must be one of 2, 4, 6, got {p}")
    rect = chi.valid if region is None else chi.valid.intersect(region)
    if rect.empty:
        raise DomainError("empty region for the Lp norm")
    mag_sq = np.sum(chi.values**2, axis=-1)
    total = chi.grid.spacing**2 * cell_sum(mag_sq ** (p / 2.0), rect)
    return total ** (1.0 / p)


def hn_vs_hnstar(
    u: SpinField, p: ModelParams, inner_region: Rect
) -> tuple[EnergyRecord, EnergyRecord, float]:
    """Both transition energies over an inner region, plus their ratio.

    The region must keep a margin of at least two cells to the valid set so
    both stencil families are defined on it; the ratio is reported as NaN when
    the shifted-stencil energy vanishes.
    """
    if not u.grid.periodic:
        # the cells where both neighbour angles exist (energy_Hn raises if none)
        v = u.valid
        ahead = Rect(v.i0 - 1, v.i1 - 1, v.j0 - 1, v.j1 - 1)
        base = v.intersect(ahead).intersect(u.grid.full_rect)
        if not base.empty and base.shrink(2).intersect(inner_region) != inner_region:
            raise DomainError("inner region must keep a margin of >= 2 cells")
    hn = energy_Hn(u, p, inner_region)
    hs = energy_Hn_star(u, p, inner_region)
    ratio = hs.total / hn.total if hn.total != 0.0 else math.nan
    return hn, hs, ratio


def curl_quantization_residual(chi_bar: VectorField, p: ModelParams) -> float:
    """Largest distance of ``l sqrt(delta) curl_d(chi_bar)`` from {-2pi, 0, 2pi}.

    Each plaquette value is a cyclic sum of four neighbour angles and can only
    be a full turn up to rounding; recovery fields give identically zero.
    """
    # outside the curl's valid set the values are zeros, whose distance is 0
    vals = p.l * math.sqrt(p.delta) * curl_d(chi_bar).values
    dist = np.minimum(np.abs(vals), np.abs(np.abs(vals) - 2.0 * math.pi))
    return float(np.max(dist))
