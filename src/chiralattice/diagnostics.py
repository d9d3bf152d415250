"""Quantitative checks of the a-priori estimates on arbitrary fields.

Every reported bound is empirical: the checks return the measured quantity
(or the measured constant in front of the predicted scaling), never an
asserted theorem.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .lattice_core import VectorField, _reach, _sq_norm, cell_sum, curl_d
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


def curl_l1(chi_bar: VectorField) -> float:
    """Lattice L1 norm of the discrete curl: ``l^2 sum |curl_d chi_bar|``."""
    c = curl_d(chi_bar)
    return chi_bar.grid.spacing**2 * cell_sum(np.abs(c.values), c.valid)


def lp_norm(chi: VectorField, p: int) -> float:
    """Lattice Lp norm of |chi| for p in {2, 4, 6}."""
    if p not in (2, 4, 6):
        raise DomainError(f"p must be one of 2, 4, 6, got {p}")
    if chi.valid.empty:
        raise DomainError("empty valid set for the Lp norm")
    total = chi.grid.spacing**2 * cell_sum(_sq_norm(chi.values) ** (p / 2.0), chi.valid)
    return total ** (1.0 / p)


def hn_vs_hnstar(u: SpinField, p: ModelParams) -> tuple[EnergyRecord, EnergyRecord, float]:
    """Both transition energies over the chirality rect shrunk by two cells,
    plus their ratio.

    The two-cell margin keeps both stencil families defined on every summed
    cell; the ratio is reported as NaN when the shifted-stencil energy
    vanishes.
    """
    # the cells where both neighbour angles exist, without an angles pass
    inner = _reach(u, ((1, 0), (0, 1))).shrink(2)
    hn = energy_Hn(u, p, inner)
    hs = energy_Hn_star(u, p, inner)
    ratio = hs.total / hn.total if hn.total != 0.0 else math.nan
    return hn, hs, ratio


def curl_quantization_residual(chi_bar: VectorField, p: ModelParams) -> float:
    """Largest distance of ``l sqrt(delta) curl_d(chi_bar)`` from {-2pi, 0, 2pi}.

    Each plaquette value is a cyclic sum of four neighbour angles and can only
    be a full turn up to rounding; recovery fields give identically zero.
    """
    p.require_spacing(chi_bar.grid)
    # outside the curl's valid set the values are zeros, whose distance is 0
    vals = p.l * math.sqrt(p.delta) * curl_d(chi_bar).values
    dist = np.minimum(np.abs(vals), np.abs(np.abs(vals) - 2.0 * math.pi))
    return float(np.max(dist))
