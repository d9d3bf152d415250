"""Mollified-roof recovery fields and the wall-energy convergence table."""

import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from chiralattice import (
    Boundary,
    ConfigError,
    DEFAULT_KERNEL_RADIUS,
    DomainError,
    Grid,
    Mollifier,
    ModelParams,
    Rect,
    ScalingError,
    ScalingSchedule,
    WallConfig,
    Wd,
    canonical_wall,
    cell_sum,
    chirality,
    discretize_potential,
    gamma_limsup_experiment,
    grad_d,
    mollified_wall_potential,
    mollify,
    potential_W,
    quartic_bump,
    sigma_surface_density,
    single_wall_potential,
    spin_from_potential,
)
from chiralattice.lattice_core import ScalarField

SQRT2_OVER_3 = math.sqrt(2.0) / 3.0


@pytest.fixture(scope="module")
def gamma_rows():
    schedule = ScalingSchedule.geometric(eps0=0.08, levels=4, ratio=0.5, delta_exponent=0.6)
    return gamma_limsup_experiment(canonical_wall(), schedule)


class TestMollifierAndWall:
    def test_quartic_bump_has_unit_mass(self):
        # r * kernel is a polynomial of degree 9 in r on the support, so the
        # 8-node radial rule is exact along every direction
        z, w = leggauss(8)
        for radius in (1.0, DEFAULT_KERNEL_RADIUS):
            m = quartic_bump(radius)
            r = 0.5 * radius * (z + 1.0)
            for theta in (0.0, 0.7, 2.0):
                pts = np.stack([r * math.cos(theta), r * math.sin(theta)], axis=-1)
                radial = math.fsum((0.5 * radius * w * r * m.kernel(pts)).tolist())
                assert abs(2.0 * math.pi * radial - 1.0) <= 1e-14

    def test_radius_must_be_positive_and_finite(self):
        for radius in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                Mollifier(radius)

    def test_wall_config_invariants(self):
        s = 1.0 / math.sqrt(2.0)
        w = canonical_wall()
        assert math.isclose(w.half_jump, s, rel_tol=1e-15)
        assert math.isclose(sigma_surface_density(w.chi_plus, w.chi_minus, w.nu),
                            math.sqrt(2.0) ** 3 / 6.0, rel_tol=1e-15)
        assert math.isclose(w.tangential, -s, rel_tol=1e-15)
        with pytest.raises(DomainError):
            WallConfig((s, s), (s, s))  # no jump
        with pytest.raises(DomainError):
            WallConfig((s, s), (-s, s), (0.0, 1.0))  # jump not parallel to nu

    def test_wall_config_rejects_a_nan_vector(self):
        s = 1.0 / math.sqrt(2.0)
        for args in (((math.nan, s), (s, -s)), ((s, s), (s, math.nan)),
                     ((s, s), (s, -s), (math.nan, 1.0))):
            with pytest.raises(DomainError, match="unit vector"):
                WallConfig(*args)

    @pytest.mark.parametrize("offset", [math.nan, math.inf, -math.inf])
    def test_wall_config_rejects_a_non_finite_offset(self, offset):
        s = 1.0 / math.sqrt(2.0)
        with pytest.raises(DomainError, match="wall offset"):
            WallConfig((s, s), (s, -s), (0.0, 1.0), offset)

    def test_roof_potential_gradient_sides(self):
        w = canonical_wall()
        phi = single_wall_potential(w)
        assert math.isclose(float(phi(np.array([0.0, 1.0]))), 0.5 / math.sqrt(2.0), rel_tol=1e-14)
        h = 1e-7
        for y, side in ((0.8, w.chi_plus), (0.2, w.chi_minus)):
            x = np.array([0.4, y])
            gx = (phi(x + [h, 0.0]) - phi(x - [h, 0.0])) / (2 * h)
            gy = (phi(x + [0.0, h]) - phi(x - [0.0, h])) / (2 * h)
            assert np.allclose([gx, gy], side, atol=1e-7)


class TestMollification:
    def test_affine_potentials_pass_through(self):
        # the kernel's circular support edge limits the tensor rule, so the
        # stabilization warning fires even though the values are accurate
        m = quartic_bump(1.0)
        affine = lambda x: 1.3 * np.asarray(x)[..., 0] - 0.4 * np.asarray(x)[..., 1] + 0.2
        with pytest.warns(UserWarning):
            phi_eps = mollify(affine, 0.05, m)
        pts = np.array([[0.0, 0.0], [0.3, -0.7], [1.1, 0.2]])
        assert np.allclose(phi_eps(pts), affine(pts), rtol=0, atol=1e-6)

    def test_wall_potential_is_exact_away_from_the_layer(self):
        w = canonical_wall()
        eps = 0.01
        m = quartic_bump(DEFAULT_KERNEL_RADIUS)
        sharp = single_wall_potential(w)
        phi_eps = mollified_wall_potential(w, eps, m)
        pts = np.array([[0.3, 0.1], [0.7, 0.95], [0.1, 0.44], [0.9, 0.56]])
        assert np.allclose(phi_eps(pts), sharp(pts), rtol=0, atol=1e-12)

    def test_kink_is_lifted_symmetrically(self):
        w = canonical_wall()
        eps = 0.02
        m = quartic_bump(DEFAULT_KERNEL_RADIUS)
        sharp = single_wall_potential(w)
        phi_eps = mollified_wall_potential(w, eps, m)
        on_wall = np.array([0.5, 0.5])
        lift = float(phi_eps(on_wall)) - float(sharp(on_wall))
        assert 0.0 < lift <= w.half_jump * eps * m.radius
        above = float(phi_eps(np.array([0.5, 0.5 + 0.013])))
        below = float(phi_eps(np.array([0.5, 0.5 - 0.013])))
        assert math.isclose(above, below, rel_tol=1e-12)

    def test_values_do_not_depend_on_the_batch(self):
        # far points take the precomputed full panel and in-layer points the
        # split rule, each in chunks; neither may change a point's bits.  On
        # the 30 degree wall both components of nu enter each x . nu.
        m = quartic_bump(DEFAULT_KERNEL_RADIUS)
        rotated = canonical_wall(30.0)
        pts = np.random.default_rng(5).uniform(0.0, 1.0, size=(12000, 2))
        for wall in (canonical_wall(), rotated):
            phi_eps = mollified_wall_potential(wall, 0.02, m)
            full = phi_eps(pts)
            assert np.array_equal(phi_eps(pts[::7]), full[::7])
            for k in (0, 1, 5999, 11999):
                assert phi_eps(pts[k]) == full[k]

    def test_reduction_matches_generic_mollification(self):
        w = canonical_wall()
        eps = 0.02
        m = quartic_bump(1.0)
        fast = mollified_wall_potential(w, eps, m)
        with pytest.warns(UserWarning):
            slow = mollify(single_wall_potential(w), eps, m, tol=1e-12)
        pts = np.array([[0.5, 0.5], [0.4, 0.505], [0.6, 0.49], [0.2, 0.52]])
        assert np.allclose(fast(pts), slow(pts), rtol=0, atol=1e-5)


def _kink_oracle(k):
    """``int C (1 - v^2)^{9/2} |v - k| dv`` over ``[-1, 1]``, ``C = 256 / (63 pi)``.

    With ``v = sin(theta)`` on each side of the kink the integrand becomes
    ``C cos^10(theta) |sin(theta) - k|``, smooth on each piece, so
    Gauss-Legendre converges to rounding.
    """
    z, w = leggauss(48)
    cut = math.asin(min(max(k, -1.0), 1.0))
    terms = []
    for lo, hi, sign in ((-math.pi / 2, cut, -1.0), (cut, math.pi / 2, 1.0)):
        theta = 0.5 * (lo + hi) + 0.5 * (hi - lo) * z
        piece = 0.5 * (hi - lo) * w * np.cos(theta) ** 10 * sign * (np.sin(theta) - k)
        terms += piece.tolist()
    return 256.0 / (63.0 * math.pi) * math.fsum(terms)


class TestClosedFormKink:
    # chi = (0, +-1) across nu = (0, 1) through the origin: no tangential
    # part and d/2 = 1, so phi_eps((0, s)) is the kink profile g(s) itself
    WALL = WallConfig((0.0, 1.0), (0.0, -1.0), (0.0, 1.0), 0.0)
    EPS = 0.04

    def profile(self, radius=DEFAULT_KERNEL_RADIUS):
        phi_eps = mollified_wall_potential(self.WALL, self.EPS, quartic_bump(radius))
        return lambda s: phi_eps(np.stack([np.zeros_like(s), s], axis=-1))

    def test_matches_the_quadrature_oracle(self):
        for radius in (1.0, DEFAULT_KERNEL_RADIUS):
            width = self.EPS * radius
            ks = np.array([0.0, 0.5, -0.5, 1 - 1e-9, -(1 - 1e-9), 0.83, 1.0, -1.0, 1.5, -3.0])
            s = -ks * width
            g = self.profile(radius)(s)
            for si, gi in zip(s.tolist(), g.tolist()):
                ref = width * _kink_oracle(-si / width)
                assert abs(gi - ref) <= 1e-14 * ref, (si, gi, ref)

    def test_second_derivative_is_twice_the_marginal(self):
        # g''(s) = (2 / eps) m(-s / eps), m(w) = (256/315) c R (1 - w^2/R^2)^{9/2}
        R = DEFAULT_KERNEL_RADIUS
        c = 5.0 / (math.pi * R**2)
        g = self.profile()
        h = 1e-4 * self.EPS * R
        s = self.EPS * R * np.array([-0.9, -0.4, 0.0, 0.3, 0.75])
        second = (g(s + h) - 2.0 * g(s) + g(s - h)) / h**2
        w = -s / self.EPS
        marginal = 256.0 / 315.0 * c * R * (1.0 - (w / R) ** 2) ** 4.5
        exact = 2.0 / self.EPS * marginal
        # rounding in g, 1e-17 over h^2, sets the floor near the layer edge
        assert np.allclose(second, exact, rtol=1e-6, atol=1e-6 * exact.max())

    def test_continuous_at_the_layer_edge(self):
        width = self.EPS * DEFAULT_KERNEL_RADIUS
        g = self.profile()
        for edge in (width, -width):
            inside = np.nextafter(edge, 0.0)
            assert g(np.array(edge)) == abs(edge)
            assert abs(g(np.array(inside)) - abs(inside)) <= 4e-16 * width


class TestSpinFromPotential:
    def test_zero_potential_gives_the_ferromagnet(self):
        g = Grid(0.05, 8, 8, Boundary.OPEN)
        phi = ScalarField(g, np.zeros((8, 8)))
        u = spin_from_potential(phi, ModelParams(l=0.05, alpha=7.5))
        assert np.all(u.values[..., 0] == 1.0)

    def test_linearized_chirality_equals_the_discrete_gradient(self):
        rng = np.random.default_rng(12)
        g = Grid(0.05, 10, 10, Boundary.OPEN)
        p = ModelParams(l=0.05, alpha=7.5)
        phi = ScalarField(g, rng.normal(scale=0.2 * p.l / math.sqrt(p.delta), size=(10, 10)))
        u = spin_from_potential(phi, p)
        bar = chirality(u, p).chi_bar
        d = grad_d(phi)
        rect = bar.valid.intersect(d.valid)
        si, sj = rect.slices
        assert np.allclose(bar.values[si, sj], d.values[si, sj], rtol=1e-12, atol=1e-12)

    def test_steep_potentials_rejected(self):
        g = Grid(0.05, 8, 8, Boundary.OPEN)
        p = ModelParams(l=0.05, alpha=7.5)
        i = np.arange(8, dtype=np.float64)[:, None] * np.ones((1, 8))
        phi = ScalarField(g, 100.0 * i * g.spacing)
        with pytest.raises(ScalingError):
            spin_from_potential(phi, p)


class TestScalingSchedule:
    def test_geometric_default_is_valid(self):
        s = ScalingSchedule.geometric()
        assert len(s.entries) == 4
        eps = [q.eps for q in s.entries]
        assert all(b < a for a, b in zip(eps, eps[1:]))

    def test_violations_rejected(self):
        with pytest.raises(ScalingError):
            ScalingSchedule(())
        p1 = ModelParams(l=0.01, alpha=7.5)
        with pytest.raises(ScalingError):
            ScalingSchedule((p1, p1))  # eps not strictly decreasing
        with pytest.raises(ScalingError):
            ScalingSchedule.geometric(ratio=1.5)


class TestGammaTable(object):
    def test_energy_column_decreases_to_the_limit(self, gamma_rows):
        hn = [r["Hn"] for r in gamma_rows]
        assert all(b <= a * 1.03 for a, b in zip(hn, hn[1:]))
        assert abs(gamma_rows[-1]["rel_err"]) <= 0.10

    def test_gap_column_decreases(self, gamma_rows):
        gaps = [r["gap"] for r in gamma_rows]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))

    def test_chirality_approaches_the_sharp_wall(self, gamma_rows):
        s = 1.0 / math.sqrt(2.0)
        l1 = []
        for r in gamma_rows:
            f, p, origin = r["_field"], r["_params"], r["_origin"]
            g = f.grid
            chi = chirality(f, p).chi
            xs = origin[1] + g.spacing * np.arange(g.ny)
            sharp = np.empty((g.nx, g.ny, 2))
            sharp[..., 0] = s
            sharp[..., 1] = np.where(xs[None, :] < 0.5, -s, s)
            rect = Rect(1, g.nx - 1, 1, g.ny - 1)
            diff = np.abs(chi.values - sharp).sum(axis=-1)
            l1.append(g.spacing**2 * cell_sum(diff, rect))
        assert all(b < a for a, b in zip(l1, l1[1:]))

    def test_well_gap_decays_linearly_in_l_over_eps(self, gamma_rows):
        # the reverse-triangle bound predicts |sqrt(Wd) - sqrt(W)| = O(l/eps)
        gaps, scales = [], []
        for r in gamma_rows:
            f, p = r["_field"], r["_params"]
            g = f.grid
            ch = chirality(f, p)
            wd = Wd(ch)
            w = potential_W(ch.chi.values)
            rect = Rect(1, g.nx - 1, 1, g.ny - 1).intersect(wd.valid)
            diff = np.abs(np.sqrt(np.maximum(wd.values, 0.0)) - np.sqrt(np.maximum(w, 0.0)))
            gaps.append(g.spacing**2 / (2.0 * p.eps) * cell_sum(diff, rect))
            scales.append(g.spacing / p.eps)
        slopes = np.diff(np.log(gaps)) / np.diff(np.log(scales))
        assert np.all(np.abs(slopes - 1.0) <= 0.3)

    def test_gap_differs_between_mirrored_walls(self):
        # the +-30 degree walls are mirror images, and Hn agrees; the gap does
        # not, since laplacian_AG_energy takes W of the one-sided forward
        # gradient, which a lattice reflection does not preserve
        schedule = ScalingSchedule.geometric(eps0=0.04, levels=1)
        rows = {}
        for degrees in (30.0, -30.0):
            rows[degrees] = gamma_limsup_experiment(canonical_wall(degrees), schedule)[0]
        assert math.isclose(rows[30.0]["Hn"], rows[-30.0]["Hn"], rel_tol=1e-11)
        assert math.isclose(rows[30.0]["gap"], 0.139437670452, rel_tol=1e-9)
        assert math.isclose(rows[-30.0]["gap"], 0.0535382290808, rel_tol=1e-9)

    def test_layer_must_fit_in_the_domain(self):
        schedule = ScalingSchedule.geometric(eps0=0.08, levels=1)
        s = 1.0 / math.sqrt(2.0)
        wall = WallConfig((s, s), (s, -s), (0.0, 1.0), 0.05)
        with pytest.raises(ConfigError):
            gamma_limsup_experiment(wall, schedule)

