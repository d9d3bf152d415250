"""Quantitative checks of the a-priori estimates on arbitrary fields.

Every reported bound is empirical: the checks return the measured quantity
(or the measured constant in front of the predicted scaling), never an
asserted theorem.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .lattice_core import ScalarField, VectorField, _sq_norm, cell_sum, curl_d
from .spin_energy import EnergyRecord, ModelParams, SpinField, _well_and_jacobian, energy_Hn

__all__ = [
    "count_large_angle_cells",
    "curl_l1",
    "lp_norm",
    "hn_vs_hnstar",
    "curl_quantization_residual",
]


def count_large_angle_cells(theta_hor: ScalarField, theta_ver: ScalarField, t: float) -> int:
    """Number of cells, valid for both neighbour angles, where either exceeds ``t``."""
    if not (0 < t < math.pi):
        raise DomainError(f"threshold must lie in (0, pi), got {t}")
    si, sj = theta_hor.valid.intersect(theta_ver.valid).slices
    big = (np.abs(theta_hor.values[si, sj]) > t) | (np.abs(theta_ver.values[si, sj]) > t)
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
