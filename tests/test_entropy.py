"""Entropy algebra, lattice entropy production, and limit wall costs."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chiralattice import (
    Boundary,
    DimensionError,
    DomainError,
    Entropy,
    Grid,
    HelixSpec,
    ModelParams,
    Rect,
    VectorField,
    WallConfig,
    cell_sum,
    chirality,
    div_d,
    ent_norm_estimate,
    entropy_production,
    helical_field,
    jin_kohn,
    modica_mortola_profile_energy,
    perp,
    psi_alpha,
    sigma_surface_density,
    total_variation_production,
)
from chiralattice.cli import _sharp_wall_chi

SQRT2_OVER_3 = math.sqrt(2.0) / 3.0


def sharp_wall_chi(n, horizontal=True):
    """Unit chirality jumping between (s, -s) and (s, s) across the midline."""
    l = 1.0 / n
    g = Grid(l, n, n, Boundary.OPEN)
    s = 1.0 / math.sqrt(2.0)
    vals = np.empty((n, n, 2))
    vals[..., 0] = s
    if horizontal:
        vals[:, : n // 2, 1] = -s
        vals[:, n // 2 :, 1] = s
    else:
        vals[: n // 2, :, 1] = -s
        vals[n // 2 :, :, 1] = s
    return VectorField(g, vals)


def smooth01(t):
    t = np.clip(t, 0.0, 1.0)
    return t * t * t * (10.0 - 15.0 * t + 6.0 * t * t)


class TestJinKohnFamily:
    def test_axis_aligned_values(self):
        e = jin_kohn((1.0, 0.0))
        assert np.allclose(e.phi(np.array([1.0, 0.0])), (0.0, 2.0 / 3.0), atol=1e-15)
        assert np.allclose(e.phi(np.array([0.0, 1.0])), (2.0 / 3.0, 0.0), atol=1e-15)
        assert np.allclose(e.phi(np.array([0.0, 0.0])), (0.0, 0.0), atol=0)

    def test_entropy_condition(self):
        rng = np.random.default_rng(4)
        xi = rng.normal(scale=1.5, size=(10000, 2))
        for nu in ((1.0, 0.0), (0.6, 0.8)):
            e = jin_kohn(nu)
            d = e.dphi(xi)
            lhs = np.einsum("...i,...ij,...j->...", xi, d, perp(xi))
            assert np.all(np.abs(lhs) <= 1e-12 * (1.0 + np.linalg.norm(xi, axis=-1) ** 3))

    def test_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        e = jin_kohn((0.0, 1.0))
        xi = rng.normal(size=(50, 2))
        d = e.dphi(xi)
        h = 1e-5
        for k in range(2):
            step = np.zeros(2)
            step[k] = h
            fd = (e.phi(xi + step) - e.phi(xi - step)) / (2.0 * h)
            assert np.allclose(d[..., k], fd, rtol=0, atol=1e-6)

    def test_rejects_non_unit_axis(self):
        with pytest.raises(DomainError):
            jin_kohn((1.0, 1.0))

    def test_rejects_a_nan_axis_component(self):
        # |hypot(nan, 1) - 1| > tol is false, so nan must be rejected explicitly
        for nu in ((math.nan, 1.0), (1.0, math.nan)):
            with pytest.raises(DomainError, match="unit vector"):
                jin_kohn(nu)


class TestPsiAlpha:
    def test_axis_example(self):
        e = jin_kohn((1.0, 0.0))
        psi, alpha = psi_alpha(e, (1.0, 0.0))
        assert np.allclose(psi, (0.0, -1.0), atol=1e-14)
        assert abs(alpha) <= 1e-14

    def test_diagonal_example(self):
        e = jin_kohn((1.0, 0.0))
        _, alpha = psi_alpha(e, (1.0, 1.0))
        assert math.isclose(float(alpha), -2.0, rel_tol=1e-14)

    def test_defining_relation(self):
        rng = np.random.default_rng(9)
        e = jin_kohn((0.8, -0.6))
        xi = rng.normal(scale=2.0, size=(500, 2))
        psi, alpha = psi_alpha(e, xi)
        d = e.dphi(xi)
        lhs = d + 2.0 * psi[..., :, None] * xi[..., None, :]
        rhs = alpha[..., None, None] * np.eye(2)
        assert np.max(np.abs(lhs - rhs)) <= 1e-9

    def test_origin_rejected(self):
        with pytest.raises(DomainError):
            psi_alpha(jin_kohn((1.0, 0.0)), (0.0, 0.0))


class TestEntNorm:
    def test_jin_kohn_norm_is_one(self):
        e = jin_kohn((1.0, 0.0))
        v = ent_norm_estimate(e, (0.05, 2.0, 0.05, 2.0), 512)
        assert abs(v - 1.0) <= 1e-3

    def test_scaling_by_a_constant(self):
        e = jin_kohn((1.0, 0.0))
        doubled = type(e)(lambda xi: 2.0 * e.phi(xi), lambda xi: 2.0 * e.dphi(xi))
        v = ent_norm_estimate(doubled, (0.05, 2.0, 0.05, 2.0), 256)
        assert abs(v - 2.0) <= 2e-3

    def test_zero_entropy(self):
        zero = type(jin_kohn((1.0, 0.0)))(
            lambda xi: np.zeros_like(np.asarray(xi, dtype=np.float64)),
            lambda xi: np.zeros(np.asarray(xi).shape + (2,)),
        )
        assert ent_norm_estimate(zero, (0.1, 1.0, 0.1, 1.0), 64) == 0.0

    def test_rejects_boxes_touching_the_origin(self):
        with pytest.raises(DomainError):
            ent_norm_estimate(jin_kohn((1.0, 0.0)), (-0.5, 0.5, -0.5, 0.5), 65)


class TestEntropyProduction:
    def test_constant_field_produces_nothing(self):
        g = Grid(0.05, 16, 16, Boundary.OPEN)
        s = 1.0 / math.sqrt(2.0)
        chi = VectorField(g, np.full((16, 16, 2), s))
        zeta = lambda pts: (
            smooth01((0.35 - np.abs(pts[..., 0] - 0.3)) / 0.1)
            * smooth01((0.3 - np.abs(pts[..., 1] - 0.3)) / 0.1)
        )
        assert entropy_production(chi, jin_kohn((0.0, 1.0)), zeta) == 0.0

    def test_helix_chirality_produces_almost_nothing(self):
        p = ModelParams(l=1.0 / 64.0, alpha=7.92)
        g = Grid(p.l, 64, 64, Boundary.OPEN)
        u = helical_field(HelixSpec(0.0, 0.02, 0.01), g)
        chi = chirality(u, p).chi
        zeta = lambda pts: (
            smooth01((pts[..., 0] - 0.1) / 0.1) * smooth01((0.85 - pts[..., 0]) / 0.1)
            * smooth01((pts[..., 1] - 0.1) / 0.1) * smooth01((0.85 - pts[..., 1]) / 0.1)
        )
        assert abs(entropy_production(chi, jin_kohn((0.0, 1.0)), zeta)) <= 1e-10

    def test_sharp_wall_pairs_to_the_surface_density(self):
        n = 512
        l = 1.0 / n
        chi = sharp_wall_chi(n)
        w = 8.0 * l

        def zeta(pts):
            x, y = pts[..., 0], pts[..., 1]
            rx = smooth01((1.0 - 2.0 * l - x) / w)
            ry = smooth01((y - 2.0 * l) / 0.2) * smooth01((1.0 - 3.0 * l - y) / 0.2)
            return rx * ry

        prod = entropy_production(chi, jin_kohn((0.0, 1.0)), zeta)
        assert abs(abs(prod) - SQRT2_OVER_3) / SQRT2_OVER_3 <= 0.02

    def test_weight_escaping_the_valid_set_rejected(self):
        chi = sharp_wall_chi(32)
        with pytest.raises(DomainError):
            entropy_production(chi, jin_kohn((0.0, 1.0)), lambda pts: np.ones(pts.shape[:-1]))


class TestTotalVariation:
    def test_constant_field(self):
        g = Grid(0.05, 12, 12, Boundary.OPEN)
        chi = VectorField(g, np.full((12, 12, 2), 1.0 / math.sqrt(2.0)))
        assert total_variation_production(chi, jin_kohn((0.0, 1.0))) == 0.0

    def test_sharp_wall_covered_length_is_exact(self):
        n = 64
        chi = sharp_wall_chi(n)
        tv = total_variation_production(chi, jin_kohn((0.0, 1.0)))
        assert math.isclose(tv, SQRT2_OVER_3 * (n - 1) / n, rel_tol=1e-12)

    def test_quarter_turn_axis_gives_the_same_value(self):
        # the jump lives in one component, so the two axis-aligned entropies
        # pair to identical total variation across this wall
        n = 64
        chi = sharp_wall_chi(n)
        tv0 = total_variation_production(chi, jin_kohn((0.0, 1.0)))
        tv90 = total_variation_production(chi, jin_kohn((1.0, 0.0)))
        assert math.isclose(tv0, tv90, rel_tol=1e-12)

    def test_diagonal_axis_is_strictly_smaller(self):
        n = 64
        s = 1.0 / math.sqrt(2.0)
        chi = sharp_wall_chi(n)
        tv45 = total_variation_production(chi, jin_kohn((s, s)))
        tv0 = total_variation_production(chi, jin_kohn((0.0, 1.0)))
        assert tv45 <= 1e-12
        assert tv45 < tv0

    def test_an_empty_valid_set_raises_the_error_of_entropy_production(self):
        # one valid row leaves the divergence no cell, as in entropy_production
        g = Grid(0.25, 4, 4, Boundary.OPEN)
        chi = VectorField(g, np.full((4, 4, 2), 1.0 / math.sqrt(2.0)), Rect(0, 1, 0, 4))
        e = jin_kohn((0.0, 1.0))
        message = r"^empty valid set for the stencil \(\(1, 0\), \(0, 1\)\)$"
        with pytest.raises(DimensionError, match=message):
            total_variation_production(chi, e)
        with pytest.raises(DimensionError, match=message):
            entropy_production(chi, e, lambda pts: np.zeros(pts.shape[:-1]))


# cell values the piecewise-constant fields draw from: signed zeros in either
# component, so that 0.0 and -0.0 cells meet in one row
_ZERO_CELLS = [(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0)]

# a cell-wise map that tells 0.0 from -0.0, which the productions of the cubic
# entropies do not: a production that merged the two would move its total
_SIGNS = Entropy(lambda xi: np.copysign(1.0, xi), lambda xi: np.zeros(np.shape(xi) + (2,)))


@st.composite
def production_cases(draw):
    """A vector field on a 2..40 a side grid, open with a valid rect of at
    least 2x2 cells (so the divergence has cells) or periodic.  Its cells are
    all distinct, or runs (row-major, from one cell up to the whole grid) of
    1 to 4 values that may be signed zeros.  The entropy is a random
    ``jin_kohn`` axis or ``_SIGNS``."""
    nx, ny = draw(st.integers(2, 40)), draw(st.integers(2, 40))
    periodic = draw(st.booleans())
    g = Grid(1.0 / max(nx, ny), nx, ny, Boundary.PERIODIC if periodic else Boundary.OPEN)
    valid = g.full_rect
    if not periodic and draw(st.booleans()):
        i0, j0 = draw(st.integers(0, nx - 2)), draw(st.integers(0, ny - 2))
        valid = Rect(i0, draw(st.integers(i0 + 2, nx)), j0, draw(st.integers(j0 + 2, ny)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["runs", "distinct", "zeros"]))
    if kind == "distinct":
        cells = rng.normal(size=(nx * ny, 2))
    else:
        pool = _ZERO_CELLS if kind == "zeros" else _ZERO_CELLS[:1] + [
            tuple(rng.normal(size=2)) for _ in range(3)]
        values = [pool[k] for k in rng.choice(len(pool), draw(st.integers(1, 4)))]
        cells = np.empty((nx * ny, 2))
        start, longest = 0, draw(st.integers(1, nx * ny))
        while start < nx * ny:
            stop = start + int(rng.integers(1, longest + 1))
            cells[start:stop] = values[rng.integers(len(values))]
            start = stop
    chi = VectorField(g, cells.reshape(nx, ny, 2), valid)
    angle = draw(st.floats(0.0, 2.0 * math.pi))
    e = draw(st.sampled_from([jin_kohn((math.cos(angle), math.sin(angle))), _SIGNS]))
    return chi, e, rng


@settings(max_examples=150, deadline=None)
@given(case=production_cases())
def test_both_productions_equal_the_per_cell_formula_bit_for_bit(case):
    chi, e, rng = case
    g = chi.grid
    dv = div_d(VectorField._adopt(g, e.phi(perp(chi.values)), chi.valid))
    tv = g.spacing**2 * cell_sum(np.abs(dv.values), dv.valid)
    assert total_variation_production(chi, e).hex() == tv.hex()
    weights = np.zeros((g.nx, g.ny))
    weights[dv.valid.slices] = rng.normal(size=weights[dv.valid.slices].shape)
    paired = g.spacing**2 * cell_sum(weights * dv.values, dv.valid)
    assert entropy_production(chi, e, lambda pts: weights).hex() == paired.hex()


def test_the_sharp_wall_evaluates_phi_once_per_run_of_equal_cells():
    # the CLI's wall holds two runs per row, so a production evaluates Phi on
    # at most 2 nx cells, not on all nx ny
    nx, ny = 24, 40
    chi = _sharp_wall_chi(Grid(1.0 / ny, nx, ny, Boundary.OPEN))
    for k in range(8):
        e = jin_kohn((math.cos(math.pi * k / 4), math.sin(math.pi * k / 4)))
        seen = []

        def phi(xi, phi=e.phi):
            seen.append(np.asarray(xi).size // 2)
            return phi(xi)

        counted = Entropy(phi, e.dphi)
        total_variation_production(chi, counted)
        entropy_production(chi, counted, lambda pts: np.zeros(pts.shape[:-1]))
        assert len(seen) == 2 and max(seen) <= 2 * nx, seen


class TestLimitFunctionals:
    def test_entropy_formulation_agrees(self):
        # the cubic entropy attached to the wall normal pairs a jump to its
        # cost: |(Phi(chi+_perp) - Phi(chi-_perp)) . nu| = |[chi]|^3 / 6; the
        # relative tolerance keeps the small-angle cost (~1.7e-10) meaningful
        s = 1.0 / math.sqrt(2.0)
        t = math.asin(5e-4)
        jumps = {
            "canonical": ((s, s), (s, -s), (0.0, 1.0)),
            "antipodal": ((1.0, 0.0), (-1.0, 0.0), (1.0, 0.0)),
            "small-angle": ((math.cos(t), math.sin(t)), (math.cos(t), -math.sin(t)), (0.0, 1.0)),
        }
        for name, (a, b, nu) in jumps.items():
            phi = jin_kohn(nu).phi
            pair = abs(float((phi(perp(a)) - phi(perp(b))) @ np.asarray(nu)))
            assert math.isclose(pair, sigma_surface_density(a, b, nu), rel_tol=1e-12), name

    def test_antipodal_jump(self):
        v = sigma_surface_density((1.0, 0.0), (-1.0, 0.0), (1.0, 0.0))
        assert math.isclose(v, 8.0 / 6.0, rel_tol=1e-15)


class TestSurfaceDensity:
    def test_canonical_value(self):
        s = 1.0 / math.sqrt(2.0)
        assert math.isclose(sigma_surface_density((s, s), (s, -s), (0.0, 1.0)), SQRT2_OVER_3, rel_tol=1e-15)

    def test_small_jump_cubic_scaling(self):
        t = math.asin(5e-4)
        a = (math.cos(t), math.sin(t))
        b = (math.cos(t), -math.sin(t))
        v = sigma_surface_density(a, b, (0.0, 1.0))
        assert math.isclose(v, (1e-3) ** 3 / 6.0, rel_tol=1e-9)

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(DomainError):
            sigma_surface_density((1.0, 0.0), (1.0, 0.0), (1.0, 0.0))


_S = 1.0 / math.sqrt(2.0)
BAD_JUMPS = {
    "equal-values": ((_S, _S), (_S, _S), (0.0, 1.0)),
    "not-parallel": ((_S, _S), (_S, -_S), (1.0, 0.0)),
    "non-unit": ((0.5, 0.5), (_S, -_S), (0.0, 1.0)),
    "nan": ((_S, _S), (_S, math.nan), (0.0, 1.0)),
}


@pytest.mark.parametrize("a, b, nu", BAD_JUMPS.values(), ids=BAD_JUMPS.keys())
def test_every_wall_rejects_a_bad_jump_with_one_message(a, b, nu):
    messages = set()
    for build in (lambda: WallConfig(a, b, nu), lambda: sigma_surface_density(a, b, nu)):
        with pytest.raises(DomainError) as exc:
            build()
        messages.add(str(exc.value))
    assert len(messages) == 1, messages


class TestOptimalProfile:
    @pytest.mark.parametrize("d", [0.5, math.sqrt(2.0), 2.0])
    def test_cubic_wall_constant(self, d):
        v = modica_mortola_profile_energy(d)
        assert abs(v - d**3 / 6.0) <= 1e-6

    def test_rejects_degenerate_arguments(self):
        with pytest.raises(DomainError):
            modica_mortola_profile_energy(0.0)
