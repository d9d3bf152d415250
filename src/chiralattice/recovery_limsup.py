"""Recovery sequences for a single chirality wall and the limsup experiment.

The construction mollifies a roof-shaped potential whose gradient equals the
two wall chiralities, samples it on the lattice, and wraps it into a spin
field.  Along a scaling schedule ``(l_n, delta_n, eps_n)`` the rescaled
transition energy of these fields approaches the sharp wall cost
``|[chi]|^3 / 6`` per unit interface length.

Mollification of the roof is reduced exactly to a one-dimensional convolution
against the kernel's marginal across the wall; the quadrature splits at the
roof kink so the integrand is smooth on each piece.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss
from numpy.typing import NDArray

from .errors import ConfigError, DomainError, ScalingError
from .lattice_core import Boundary, Grid, Rect, ScalarField, grad_d, laplace_shifted
from .spin_energy import EnergyRecord, ModelParams, SpinField, _record, energy_Hn, potential_W
from .entropy import perp, sigma_surface_density

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


def _tensor_gauss(radius: float, order: int) -> tuple[NDArray, NDArray]:
    z, w = leggauss(order)
    z = z * radius
    w = w * radius
    zz = np.stack(np.meshgrid(z, z, indexing="ij"), axis=-1).reshape(-1, 2)
    ww = (w[:, None] * w[None, :]).reshape(-1)
    return zz, ww


@dataclass(frozen=True)
class Mollifier:
    """Compactly supported smooth kernel with unit mass on |z| <= radius."""

    kernel: Callable[[NDArray], NDArray]
    radius: float = 1.0

    def __post_init__(self):
        if not (self.radius > 0):
            raise DomainError("kernel radius must be positive")
        # the support edge cuts across the tensor grid, so a high order is
        # needed for the mass of merely finitely-smooth kernels
        zz, ww = _tensor_gauss(self.radius, 192)
        mass = math.fsum((ww * np.asarray(self.kernel(zz))).tolist())
        if abs(mass - 1.0) > 1e-10:
            raise DomainError(f"kernel mass is {mass}, expected 1 within 1e-10")
        # crude smoothness probe: second differences along a diameter stay bounded
        s = np.linspace(-self.radius, self.radius, 257)
        line = np.stack([s, np.zeros_like(s)], axis=-1)
        vals = np.asarray(self.kernel(line))
        h = s[1] - s[0]
        second = np.abs(np.diff(vals, 2)) / h**2
        if np.any(~np.isfinite(second)) or np.max(second) > 1e8:
            raise DomainError("kernel fails the sampled second-difference bound")


def quartic_bump(radius: float = 1.0) -> Mollifier:
    """Normalized kernel ``c (1 - |z/R|^2)^4`` supported on |z| <= R."""
    c = 5.0 / (math.pi * radius**2)

    def kernel(z: NDArray) -> NDArray:
        z = np.asarray(z, dtype=np.float64)
        zr = z / radius
        r2 = zr[..., 0] ** 2 + zr[..., 1] ** 2
        return c * np.maximum(1.0 - r2, 0.0) ** 4

    return Mollifier(kernel, radius)


def _unit(v, name: str) -> NDArray:
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (2,) or abs(math.hypot(v[0], v[1]) - 1.0) > 1e-12:
        raise DomainError(f"{name} must be a unit 2-vector")
    return v


@dataclass(frozen=True)
class WallConfig:
    """A single straight wall: one-sided chiralities, normal, offset, box.

    ``chi_plus`` is the value on the side ``x . nu > wall_offset``; the jump
    must be parallel to ``nu``.  ``domain`` is ``(x0, y0, x1, y1)``.
    """

    chi_plus: tuple[float, float]
    chi_minus: tuple[float, float]
    nu: tuple[float, float] = (0.0, 1.0)
    wall_offset: float = 0.5
    domain: tuple[float, float, float, float] = (0.0, 0.0, 1.0, 1.0)

    def __post_init__(self):
        a = _unit(self.chi_plus, "chi_plus")
        b = _unit(self.chi_minus, "chi_minus")
        nu = _unit(self.nu, "nu")
        jump = a - b
        if math.hypot(*jump) == 0.0:
            raise DomainError("wall with equal one-sided chiralities is not a wall")
        if abs(jump[0] * nu[1] - jump[1] * nu[0]) > 1e-10:
            raise DomainError("chirality jump must be parallel to the wall normal")
        x0, y0, x1, y1 = self.domain
        if not (x1 > x0 and y1 > y0):
            raise DomainError("empty wall domain")

    @property
    def tangential(self) -> float:
        """Common tangential chirality component t = chi_plus . nu_perp."""
        return float(np.asarray(self.chi_plus) @ perp(np.asarray(self.nu)))

    @property
    def half_jump(self) -> float:
        """Signed normal component d/2 = chi_plus . nu."""
        return float(np.asarray(self.chi_plus) @ np.asarray(self.nu))

    @property
    def jump_size(self) -> float:
        return abs(2.0 * self.half_jump)


def canonical_wall(domain=(0.0, 0.0, 1.0, 1.0), wall_offset: float = 0.5) -> WallConfig:
    """Horizontal wall between the chiralities (1, +-1)/sqrt(2)."""
    s = 1.0 / math.sqrt(2.0)
    return WallConfig((s, s), (s, -s), (0.0, 1.0), wall_offset, domain)


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
        zz, ww = _tensor_gauss(m.radius, q)
        wk = ww * np.asarray(m.kernel(zz))
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


def _marginal_factory(m: Mollifier, nu: NDArray, order: int = 32) -> Callable[[NDArray], NDArray]:
    """Marginal of the kernel along ``nu``: m(w) = int kernel(w nu + t nu_perp) dt."""
    nup = perp(nu)
    z, wq = leggauss(order)
    t = z * m.radius
    wt = wq * m.radius

    def marginal(w: NDArray) -> NDArray:
        w = np.asarray(w, dtype=np.float64)
        pts = w[..., None, None] * nu + t[:, None] * nup  # (..., order, 2)
        vals = np.asarray(m.kernel(pts))
        return vals @ wt

    return marginal


def _chunks(lo: int, hi: int, size: int) -> list[slice]:
    return [slice(k, min(k + size, hi)) for k in range(lo, hi, size)]


def mollified_wall_potential(
    cfg: WallConfig, eps: float, m: Mollifier, order: int = 96
) -> Callable[[NDArray], NDArray]:
    """Exact 1D reduction of ``mollify(single_wall_potential(cfg), eps, m)``.

    The affine part passes through mollification up to the kernel's first
    moment; the kink part reduces to ``g(s) = int marg(w) |s + eps w| dw``,
    integrated piecewise on both sides of the kink ``w = -s/eps`` so every
    quadrature panel sees a smooth integrand.

    Outside the layer, where ``|clip(-s/eps, -R, R)| == R``, one of the two
    panels is the full panel ``[-R, R]`` (mid 0.0, half ``R``) and the other
    has zero width, so its weights are 0.0 and it adds exactly 0.0.  The
    nodes, weights and marginal values of the full panel do not depend on
    ``s``; they are computed once here, and points outside the layer cost a
    single weighted sum with the same bits as the two-panel rule.

    The values are bitwise reproducible for the same batch of points only.
    The offsets ``x @ nu`` go through a matrix product, whose last bits for
    a point may depend on the batch it comes in; for a rotated wall,
    ``phi_eps(pts[k])`` and ``phi_eps(pts)[k]`` may differ by about 1e-15
    relative.  Aligned walls, where ``nu`` has a zero component, are not
    affected, and the CLI always evaluates the whole grid at once.
    """
    if eps <= 0:
        raise DomainError("mollification scale must be positive")
    nu = np.asarray(cfg.nu, dtype=np.float64)
    nup = perp(nu)
    t_comp = cfg.tangential
    dh = cfg.half_jump
    R = m.radius
    marginal = _marginal_factory(m, nu)
    zz, ww = _tensor_gauss(R, 48)
    kvals = ww * np.asarray(m.kernel(zz))
    moment_tau = math.fsum((kvals * (zz @ nup)).tolist())
    zq, wq = leggauss(order)
    full_w = R * zq
    full_wt = R * wq
    full_marg = marginal(full_w)

    def panel(s: NDArray, lo: NDArray, hi: NDArray) -> NDArray:
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        w_nodes = mid[..., None] + half[..., None] * zq
        weights = half[..., None] * wq
        vals = marginal(w_nodes) * np.abs(s[..., None] + eps * w_nodes)
        return np.sum(weights * vals, axis=-1)

    def g_far(s: NDArray) -> NDArray:
        return np.sum(full_wt * (full_marg * np.abs(s[:, None] + eps * full_w)), axis=-1)

    def g_near(s: NDArray, kink: NDArray) -> NDArray:
        edge = R * np.ones_like(s)
        return panel(s, -edge, kink) + panel(s, kink, edge)

    def phi_eps(x: NDArray) -> NDArray:
        x = np.asarray(x, dtype=np.float64)
        s = x @ nu - cfg.wall_offset
        shape = np.asarray(s).shape
        uniq, inverse = np.unique(np.asarray(s).reshape(-1), return_inverse=True)
        kink = np.clip(-uniq / eps, -R, R)
        # uniq is sorted and kink monotone in it, so the layer is one slice
        near = np.flatnonzero(np.abs(kink) < R)
        a, b = (near[0], near[-1] + 1) if near.size else (uniq.size, uniq.size)
        gs = np.empty_like(uniq)
        for sl in _chunks(0, a, 4096) + _chunks(b, uniq.size, 4096):
            gs[sl] = g_far(uniq[sl])
        for sl in _chunks(a, b, 512):
            gs[sl] = g_near(uniq[sl], kink[sl])
        tang = t_comp * (x @ nup + eps * moment_tau)
        return tang + dh * gs[inverse].reshape(shape)

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
    sqd = math.sqrt(p.delta)
    d = grad_d(phi_n)
    si, sj = d.valid.slices
    max_angle = sqd * float(np.max(np.abs(d.values[si, sj]))) if not d.valid.empty else 0.0
    if max_angle >= math.pi:
        raise ScalingError(
            f"sqrt(delta) * max|D_d phi| = {max_angle:.6g} >= pi; "
            "the potential oscillates too fast for this lattice scale",
        )
    psi = (sqd / p.l) * phi_n.values
    u = np.stack([np.cos(psi), np.sin(psi)], axis=-1)
    return SpinField(phi_n.grid, u, phi_n.valid)


def laplacian_AG_energy(phi_n: ScalarField, p: ModelParams, region: Rect | None = None) -> EnergyRecord:
    """Discrete Aviles-Giga energy with the shifted 5-point Laplacian:
    ``(1/2) int (1/eps) W(D_d phi) + eps |Delta_s phi|^2``."""
    p.require_transition_regime()
    d = grad_d(phi_n)
    lap = laplace_shifted(phi_n)
    rect = d.valid.intersect(lap.valid)
    if region is not None:
        rect = rect.intersect(region)
    if rect.empty:
        raise DomainError("empty region for the Laplacian energy")
    return _record(p, p.l**2, potential_W(d.values), lap.values**2, rect)


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
        if not (0 < ratio < 1) or levels < 1:
            raise ScalingError("geometric schedule needs 0 < ratio < 1 and levels >= 1")
        entries = []
        for n in range(levels):
            eps = eps0 * ratio**n
            delta = eps**delta_exponent
            l = eps * math.sqrt(delta)
            entries.append(ModelParams(l=l, alpha=8.0 - 2.0 * delta, beta=2.0))
        return cls(tuple(entries))


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
    ``cfg.domain``, and report the transition energy, the scalar-potential
    Laplacian energy, their relative gap, and the sharp limit cost for the
    wall length actually covered by the summed cells.
    """
    if m is None:
        m = quartic_bump(DEFAULT_KERNEL_RADIUS)
    x0, y0, x1, y1 = cfg.domain
    # farthest reach of the domain on each side of the wall, over all corners
    reach = np.array([[x0, y0], [x1, y0], [x0, y1], [x1, y1]]) @ np.asarray(cfg.nu)
    lo_gap = cfg.wall_offset - reach.min()
    hi_gap = reach.max() - cfg.wall_offset
    rows: list[dict] = []
    sigma = sigma_surface_density(cfg.chi_plus, cfg.chi_minus, cfg.nu)
    for n, p in enumerate(schedule.entries):
        l = p.l
        layer = p.eps * m.radius
        if min(lo_gap, hi_gap) <= layer:
            raise ConfigError(
                f"mollified layer of width {layer:.4g} does not fit between the "
                "wall and the domain boundary",
            )
        nx = int(round((x1 - x0) / l)) + 2
        ny = int(round((y1 - y0) / l)) + 2
        grid = Grid(l, nx, ny, Boundary.OPEN)
        origin = (x0 - l, y0 - l)
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
                "_potential": phi_n,
                "_origin": origin,
            }
        )
    return rows
