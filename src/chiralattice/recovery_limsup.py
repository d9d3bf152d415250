"""Recovery sequences for a single chirality wall and the limsup experiment.

The construction mollifies a roof-shaped potential whose gradient equals the
two wall chiralities, samples it on the lattice, and wraps it into a spin
field.  Along a scaling schedule ``(l_n, delta_n, eps_n)`` the rescaled
transition energy of these fields approaches the sharp wall cost
``|[chi]|^3 / 6`` per unit interface length.

The kernel is the quartic bump, whose marginal across the wall is
``m(w) = (256/315) c R (1 - w^2/R^2)^{9/2}``, so the mollified roof has a
closed form without quadrature (``mollified_wall_potential``): ``|s|`` outside
the layer ``|s| < eps R``, arcsine plus polynomial inside it.  ``mollify`` is
the generic tensor-rule reference it is tested against.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss
from numpy.typing import NDArray

from .errors import ConfigError, DomainError, ParameterError, ScalingError
from .lattice_core import (
    Boundary, Grid, Rect, ScalarField, _cell_dot, _sq_norm, grad_d, laplace_shifted,
)
from .spin_energy import (
    EnergyRecord, ModelParams, SpinField, _record, _spins, energy_Hn, potential_W,
)
from .entropy import _jump_size, perp, sigma_surface_density

__all__ = [
    "Mollifier",
    "WallConfig",
    "ScalingSchedule",
    "quartic_bump",
    "canonical_wall",
    "single_wall_potential",
    "mollify",
    "mollified_wall_potential",
    "discretize_potential",
    "spin_from_potential",
    "laplacian_AG_energy",
    "gamma_limsup_experiment",
    "DEFAULT_KERNEL_RADIUS",
]

# Radius (in units of eps) at which the quartic kernel's transition profile
# nearly minimizes the wall energy: the profile energy splits into
# R * (potential part) + (derivative part) / R, minimized at R ~ 4.0 with
# value about 0.7% above the optimal-profile cost.
DEFAULT_KERNEL_RADIUS = 4.0

# the default schedule needs about 5.8 million cells at six levels, 35 million at seven
MAX_GRID_CELLS = 1 << 24


@dataclass(frozen=True)
class Mollifier:
    """The quartic bump ``c (1 - |z/R|^2)^4``, ``c = 5 / (pi R^2)``, of unit
    mass on ``|z| <= R``; the only kernel, as ``mollified_wall_potential``
    uses its closed form."""

    radius: float = 1.0

    def __post_init__(self):
        if not (0 < self.radius < math.inf):
            raise DomainError(f"kernel radius must be positive and finite, got {self.radius!r}")

    def kernel(self, z: NDArray) -> NDArray:
        r2 = _sq_norm(np.asarray(z, dtype=np.float64) / self.radius)
        return 5.0 / (math.pi * self.radius**2) * np.maximum(1.0 - r2, 0.0) ** 4


def quartic_bump(radius: float = 1.0) -> Mollifier:
    """Normalized kernel ``c (1 - |z/R|^2)^4`` supported on |z| <= R."""
    return Mollifier(radius)


@dataclass(frozen=True)
class WallConfig:
    """A single straight wall in the unit square: one-sided chiralities,
    normal, offset.

    ``chi_plus`` is the value on the side ``x . nu > wall_offset``; the jump
    must be parallel to ``nu``.
    """

    chi_plus: tuple[float, float]
    chi_minus: tuple[float, float]
    nu: tuple[float, float] = (0.0, 1.0)
    wall_offset: float = 0.5

    def __post_init__(self):
        _jump_size(self.chi_plus, self.chi_minus, self.nu)
        if not math.isfinite(self.wall_offset):
            raise DomainError(f"wall offset must be finite, got {self.wall_offset!r}")

    @property
    def tangential(self) -> float:
        """Common tangential chirality component t = chi_plus . nu_perp."""
        return float(np.asarray(self.chi_plus) @ perp(np.asarray(self.nu)))

    @property
    def half_jump(self) -> float:
        """Signed normal component d/2 = chi_plus . nu."""
        return float(np.asarray(self.chi_plus) @ np.asarray(self.nu))


def canonical_wall(angle: float = 0.0) -> WallConfig:
    """The wall between the chiralities (1, +-1)/sqrt(2) through the centre of
    the unit square, with both chiralities and the normal (0, 1) turned by
    ``angle`` degrees."""
    a = math.radians(angle)
    rot = np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])
    s = 1.0 / math.sqrt(2.0)
    nu = (-math.sin(a), math.cos(a))
    return WallConfig(
        tuple(rot @ np.array([s, s])), tuple(rot @ np.array([s, -s])), nu,
        float(np.array([0.5, 0.5]) @ np.asarray(nu)),
    )


def single_wall_potential(cfg: WallConfig) -> Callable[[NDArray], NDArray]:
    """Roof potential with gradient chi_plus above the wall, chi_minus below.

    ``phi(x) = t (x . nu_perp) + (d/2) |x . nu - offset|``; on the wall line
    the absolute value vanishes and the lower-side branch is the convention.
    """
    nu = np.asarray(cfg.nu, dtype=np.float64)
    nup = perp(nu)
    t = cfg.tangential
    dh = cfg.half_jump

    def phi(x: NDArray) -> NDArray:
        x = np.asarray(x, dtype=np.float64)
        return t * (x @ nup) + dh * np.abs(x @ nu - cfg.wall_offset)

    return phi


def mollify(
    phi: Callable[[NDArray], NDArray],
    eps: float,
    m: Mollifier,
    order: int = 16,
    tol: float = 1e-10,
    max_order: int = 128,
) -> Callable[[NDArray], NDArray]:
    """Generic mollification ``phi_eps(x) = int kernel(z) phi(x + eps z) dz``.

    Uses a tensor Gauss rule on the kernel support, doubling the per-axis
    order until probe values are stable within ``tol``.  For potentials with
    kinks inside the support the stated tolerance may be unreachable; a
    warning is emitted and the finest rule is used.
    """
    if eps <= 0:
        raise DomainError("mollification scale must be positive")
    if order < 4:
        raise DomainError("tensor quadrature needs at least 4 nodes per axis")

    probes = np.array(
        [[0.0, 0.0], [0.37 * eps, -0.61 * eps], [-1.3 * eps, 0.24 * eps], [0.5, 0.5]]
    )

    def build(q: int):
        z, w = leggauss(q)
        z, w = z * m.radius, w * m.radius
        zz = np.stack(np.meshgrid(z, z, indexing="ij"), axis=-1).reshape(-1, 2)
        wk = (w[:, None] * w[None, :]).reshape(-1) * m.kernel(zz)
        keep = wk != 0.0

        def phi_eps(x: NDArray) -> NDArray:
            x = np.asarray(x, dtype=np.float64)
            acc = np.zeros(x.shape[:-1])
            for z, w in zip(zz[keep], wk[keep]):
                acc = acc + w * np.asarray(phi(x + eps * z))
            return acc

        return phi_eps

    q = order
    current = build(q)
    ref = current(probes)
    while q < max_order:
        q *= 2
        nxt = build(q)
        vals = nxt(probes)
        drift = np.max(np.abs(vals - ref))
        current, ref = nxt, vals
        if drift <= tol:
            return current
    warnings.warn(
        f"tensor quadrature did not stabilize to {tol} at order {max_order}; "
        "using the finest rule",
        stacklevel=2,
    )
    return current


# normalized marginal of the quartic bump: C (1 - v^2)^{9/2} on |v| <= 1
_C = 256.0 / (63.0 * math.pi)


def _kink_profile(s: NDArray, width: float) -> NDArray:
    """The kink profile ``g`` of ``mollified_wall_potential``; ``width = eps R``.

    ``P`` and ``Q`` are the mass and first moment of the normalized marginal
    on ``[-1, k]``.
    """
    flat = np.reshape(s, -1)
    g = np.abs(flat)
    inside = g < width
    k = -flat[inside] / width
    r2 = (1.0 - k) * (1.0 + k)  # 1 - k^2 without cancellation near |k| = 1
    r = np.sqrt(r2)
    poly = r * (63 / 256 + r2 * (63 / 384 + r2 * (63 / 480 + r2 * (9 / 80 + r2 / 10))))
    mass = _C * (k * poly + (63 / 256) * (np.arcsin(k) + math.pi / 2))
    moment = -_C / 11 * (r2 * r2) * (r2 * r2) * r2 * r
    g[inside] = width * (k * (2.0 * mass - 1.0) - 2.0 * moment)
    return g.reshape(np.shape(s))


def mollified_wall_potential(
    cfg: WallConfig, eps: float, m: Mollifier
) -> Callable[[NDArray], NDArray]:
    """Closed form of ``mollify(single_wall_potential(cfg), eps, m)``.

    With ``s = x . nu - offset`` the mollified roof is
    ``t (x . nu_perp) + (d/2) g(s)``: the kernel is radial, so its first
    moment vanishes and the affine part passes through unchanged.  The kink
    part is ``g(s) = int m(w) |s + eps w| dw`` against the kernel's marginal
    along ``nu``, ``m(w) = (256/315) c R (1 - w^2/R^2)^{9/2}``.  Outside the
    layer, ``|s| >= eps R``, ``g(s) = |s|``.  Inside it, with
    ``k = -s / (eps R)`` and ``r = sqrt(1 - k^2)``,
    ``g(s) = eps R (k (2 P(k) - 1) - 2 Q(k))``, where ``C = 256 / (63 pi)``,
    ``Q(k) = -C r^11 / 11`` and
    ``P(k) = C (k (r^9/10 + 9r^7/80 + 63r^5/480 + 63r^3/384 + 63r/256)
    + (63/256)(asin k + pi/2))``.

    The projections ``x . nu`` and ``x . nu_perp`` are formed component by
    component, not by a matrix product, and ``g`` is elementwise, so a
    point's value does not depend on the batch it comes in:
    ``phi_eps(pts[k]) == phi_eps(pts)[k]``.
    """
    if not (0 < eps < math.inf):
        raise DomainError("mollification scale must be positive and finite")
    nu = np.asarray(cfg.nu, dtype=np.float64)
    nup = perp(nu)
    t = cfg.tangential
    dh = cfg.half_jump
    width = eps * m.radius

    def phi_eps(x: NDArray) -> NDArray:
        x = np.asarray(x, dtype=np.float64)
        s = _cell_dot(x, nu) - cfg.wall_offset
        return t * _cell_dot(x, nup) + dh * _kink_profile(s, width)

    return phi_eps


def discretize_potential(
    phi_eps: Callable[[NDArray], NDArray], grid: Grid, origin: tuple[float, float] = (0.0, 0.0)
) -> ScalarField:
    """Sample a continuum potential at the lattice points ``origin + l (i, j)``."""
    xs, ys = grid.lattice_points()
    pts = np.stack(np.meshgrid(xs + origin[0], ys + origin[1], indexing="ij"), axis=-1)
    return ScalarField(grid, np.asarray(phi_eps(pts)))


def spin_from_potential(phi_n: ScalarField, p: ModelParams) -> SpinField:
    """Wrap a lattice potential into spins: ``u = (cos, sin)(sqrt(delta)/l phi)``.

    Requires ``sqrt(delta) max |D_d phi| < pi`` so every neighbour angle stays
    below a half turn and the linearized chirality equals the discrete
    gradient of the potential exactly.
    """
    p.require_transition_regime()
    p.require_spacing(phi_n.grid)
    sqd = math.sqrt(p.delta)
    d = grad_d(phi_n)
    max_angle = sqd * float(np.max(np.abs(d.values)))  # d.values are zeros outside d.valid
    if max_angle >= math.pi:
        raise ScalingError(
            f"sqrt(delta) * max|D_d phi| = {max_angle:.6g} >= pi; "
            "the potential oscillates too fast for this lattice scale",
        )
    return SpinField._adopt(phi_n.grid, _spins((sqd / p.l) * phi_n.values), phi_n.valid)


def laplacian_AG_energy(phi_n: ScalarField, p: ModelParams) -> EnergyRecord:
    """Discrete Aviles-Giga energy with the shifted 5-point Laplacian:
    ``(1/2) int (1/eps) W(D_d phi) + eps |Delta_s phi|^2``.

    ``W`` is taken of the one-sided forward gradient, so, unlike ``Hn``, the
    energy is not invariant under a lattice reflection: mirrored walls give
    different values.
    """
    p.require_transition_regime()
    p.require_spacing(phi_n.grid)
    d = grad_d(phi_n)
    lap = laplace_shifted(phi_n)
    return _record(p, potential_W(d.values), lap.values**2, d.valid.intersect(lap.valid))


@dataclass(frozen=True)
class ScalingSchedule:
    """Strictly decreasing sequence of (l, delta, eps) scales.

    Requires eps -> 0, delta -> 0 and ``delta^{5/2} / l`` decreasing, the
    regime in which the recovery construction attains the limit cost.
    """

    entries: tuple[ModelParams, ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        if not self.entries:
            raise ScalingError("schedule must contain at least one entry")
        for q in self.entries:
            q.require_transition_regime()
        eps = [q.eps for q in self.entries]
        delta = [q.delta for q in self.entries]
        ratio = [q.delta ** 2.5 / q.l for q in self.entries]
        for name, seq in (("eps", eps), ("delta", delta), ("delta^{5/2}/l", ratio)):
            if any(b >= a for a, b in zip(seq, seq[1:])):
                raise ScalingError(f"schedule violates strictly decreasing {name}")

    @classmethod
    def geometric(
        cls,
        eps0: float = 0.08,
        levels: int = 4,
        delta_exponent: float = 0.6,
        ratio: float = 0.5,
    ) -> "ScalingSchedule":
        """Default schedule: eps_n = eps0 ratio^n, delta = eps^q, l = eps sqrt(delta)."""
        if not (0 < ratio < 1 and levels >= 1 and 0 < eps0 < math.inf
                and 0 < delta_exponent < math.inf):
            raise ScalingError("geometric schedule needs 0 < ratio < 1, levels >= 1, "
                               "and a finite eps0 > 0 and delta exponent > 0")
        entries = []
        try:
            for n in range(levels):
                eps = eps0 * ratio**n
                delta = eps**delta_exponent
                l = eps * math.sqrt(delta)
                entries.append(ModelParams(l=l, alpha=8.0 - 2.0 * delta, beta=2.0))
            return cls(tuple(entries))
        except (OverflowError, ParameterError) as exc:
            raise ScalingError(f"geometric schedule: {exc}") from None


def _wall_length_in_box(cfg: WallConfig, box: tuple[float, float, float, float]) -> float:
    """Length of the wall line clipped to a rectangle."""
    nu = np.asarray(cfg.nu, dtype=np.float64)
    tau = perp(nu)
    anchor = cfg.wall_offset * nu
    x0, y0, x1, y1 = box
    t_lo, t_hi = -math.inf, math.inf
    for axis, (lo, hi) in enumerate(((x0, x1), (y0, y1))):
        a, b = anchor[axis], tau[axis]
        if abs(b) < 1e-15:
            if not (lo <= a <= hi):
                return 0.0
            continue
        ta, tb = (lo - a) / b, (hi - a) / b
        t_lo = max(t_lo, min(ta, tb))
        t_hi = min(t_hi, max(ta, tb))
    return max(0.0, t_hi - t_lo)


def gamma_limsup_experiment(
    cfg: WallConfig,
    schedule: ScalingSchedule,
    m: Mollifier | None = None,
) -> list[dict]:
    """Wall-energy convergence table along a scaling schedule.

    For each level: build the mollified-roof spin field on an open grid over
    the unit square, and report the transition energy, the scalar-potential
    Laplacian energy, their relative gap, and the sharp limit cost for the
    wall length actually covered by the summed cells.

    Before any level runs, a level whose mollified layer does not fit, or
    whose grid is over ``MAX_GRID_CELLS`` cells or under 3x3, is a ``ConfigError``.
    """
    if m is None:
        m = quartic_bump(DEFAULT_KERNEL_RADIUS)
    # farthest reach of the unit square on each side of the wall, over all corners
    reach = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]) @ np.asarray(cfg.nu)
    lo_gap = cfg.wall_offset - reach.min()
    hi_gap = reach.max() - cfg.wall_offset
    grids = []
    for n, p in enumerate(schedule.entries):
        layer = p.eps * m.radius
        if min(lo_gap, hi_gap) <= layer:
            raise ConfigError(
                f"mollified layer of width {layer:.4g} does not fit between the "
                "wall and the edge of the unit square",
            )
        side = 1.0 / p.l
        if not side * side <= MAX_GRID_CELLS:
            raise ConfigError(f"level {n} needs about {side * side:.3g} cells, over {MAX_GRID_CELLS}")
        size = int(round(side)) + 2
        if size < 3:
            raise ConfigError(f"level {n} has a {size}x{size} grid; the energies need 3x3")
        grids.append(Grid(p.l, size, size, Boundary.OPEN))
    rows: list[dict] = []
    sigma = sigma_surface_density(cfg.chi_plus, cfg.chi_minus, cfg.nu)
    for n, (p, grid) in enumerate(zip(schedule.entries, grids)):
        l, nx, ny = p.l, grid.nx, grid.ny
        origin = (-l, -l)
        phi_eps = mollified_wall_potential(cfg, p.eps, m)
        phi_n = discretize_potential(phi_eps, grid, origin)
        u = spin_from_potential(phi_n, p)
        hn = energy_Hn(u, p)
        ags = laplacian_AG_energy(phi_n, p)
        rect = Rect(1, nx - 1, 1, ny - 1)
        box = (
            origin[0] + l * rect.i0,
            origin[1] + l * rect.j0,
            origin[0] + l * rect.i1,
            origin[1] + l * rect.j1,
        )
        wall_length = _wall_length_in_box(cfg, box)
        limit = sigma * wall_length
        gap = abs(hn.total - ags.total) / hn.total if hn.total else 0.0
        rows.append(
            {
                "n": n,
                "l": l,
                "delta": p.delta,
                "eps": p.eps,
                "Hn": hn.total,
                "Hn_pot": hn.potential_part,
                "Hn_der": hn.derivative_part,
                "AGs_energy": ags.total,
                "gap": gap,
                "limit": limit,
                "rel_err": (hn.total - limit) / limit if limit else math.nan,
                "_params": p,
                "_field": u,
                "_origin": origin,
            }
        )
    return rows
