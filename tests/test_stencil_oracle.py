"""Every stencil against an ``np.roll`` formula written out here.

Each operator and energy is recomputed from the field values with
``np.roll`` and the same float operations in the same order, on the cells a
brute-force scan finds to have all their lookups inside the input's valid
set.  Values must agree bit for bit, and the operator's valid rect must be
exactly that set of cells.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chiralattice import (
    Ad,
    Boundary,
    DimensionError,
    EnergyRecord,
    Grid,
    ModelParams,
    Rect,
    ScalarField,
    SpinField,
    VectorField,
    Wd,
    angles,
    chirality,
    curl_d,
    div_d,
    dpartial,
    energy_AGd,
    energy_E,
    energy_F,
    energy_Hn,
    energy_Hn_star,
    f_gradient,
    grad_d,
    laplace_shifted,
)
from chiralattice.lattice_core import _reach


def ahead(x, di, dj):
    """``x[(i + di) % nx, (j + dj) % ny]`` indexed by ``(i, j)``."""
    return np.roll(x, (-di, -dj), axis=(0, 1))


def rect_mask(rect, shape):
    mask = np.zeros(shape, dtype=bool)
    mask[rect.slices] = True
    return mask


def lookup_mask(mask, offsets, periodic):
    """The cells of ``mask`` whose every lookup ``(i + di, j + dj)`` lands in
    ``mask``, cell by cell: indices wrap on a periodic grid and leave the
    grid on an open one."""
    nx, ny = mask.shape
    out = mask.copy()
    for di, dj in offsets:
        i = np.arange(nx)[:, None] + di
        j = np.arange(ny)[None, :] + dj
        if periodic:
            i, j = i % nx, j % ny
        inside = (0 <= i) & (i < nx) & (0 <= j) & (j < ny)
        out &= inside & mask[np.clip(i, 0, nx - 1), np.clip(j, 0, ny - 1)]
    return out


CROSS = ((1, 0), (-1, 0), (0, 1), (0, -1))


def f_residuals(v, p):
    """The horizontal and vertical 5-point residuals of ``F``: ahead plus
    behind, less ``alpha / (beta + 2)`` times the cell."""
    cv = (p.alpha / (p.beta + 2.0)) * v
    return (ahead(v, 1, 0) + ahead(v, -1, 0)) - cv, (ahead(v, 0, 1) + ahead(v, 0, -1)) - cv


def oriented_angle(a, b):
    cross = a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]
    dot = a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1]
    theta = np.arctan2(cross, dot)
    theta[theta == np.pi] = -np.pi
    return theta


def check_field(make, expected, mask):
    """``make()`` is ``expected`` on ``mask`` and +0.0 elsewhere, valid on
    exactly ``mask``; or a ``DimensionError`` when ``mask`` is empty."""
    if not mask.any():
        with pytest.raises(DimensionError):
            make()
        return
    f = make()
    assert np.array_equal(rect_mask(f.valid, mask.shape), mask)
    keep = mask if expected.ndim == 2 else mask[..., None]
    assert f.values.tobytes() == np.where(keep, expected, 0.0).tobytes()


def check_record(make, p, well, derivative, mask):
    """``make()`` is the rescaled record of the two densities summed over
    ``mask``; or a ``DimensionError`` when ``mask`` is empty."""
    if not mask.any():
        with pytest.raises(DimensionError):
            make()
        return
    pot = 0.5 / p.eps * p.l**2 * math.fsum(well[mask].tolist())
    der = 0.5 * p.eps * p.l**2 * math.fsum(derivative[mask].tolist())
    assert make() == EnergyRecord(pot + der, pot, der)


@st.composite
def fields(draw):
    """A scalar, a vector and a spin field on one grid with sides 3 to 40;
    on an open grid they share a drawn valid rect, possibly one cell wide."""
    boundary = draw(st.sampled_from([Boundary.OPEN, Boundary.PERIODIC]))
    nx, ny = draw(st.integers(3, 40)), draw(st.integers(3, 40))
    grid = Grid(draw(st.sampled_from([0.05, 0.1, 0.25, 1.0 / 3.0])), nx, ny, boundary)
    valid = None
    if boundary is Boundary.OPEN:
        i0, j0 = draw(st.integers(0, nx - 1)), draw(st.integers(0, ny - 1))
        valid = Rect(i0, draw(st.integers(i0 + 1, nx)), j0, draw(st.integers(j0 + 1, ny)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    psi = rng.uniform(-math.pi, math.pi, (nx, ny))
    return (
        ScalarField(grid, rng.normal(size=(nx, ny)), valid),
        VectorField(grid, rng.normal(size=(nx, ny, 2)), valid),
        SpinField(grid, np.stack([np.cos(psi), np.sin(psi)], axis=-1), valid),
    )


@settings(max_examples=60, deadline=None)
@given(fields(), st.sampled_from([0.0, 1.5, 2.0]))
def test_every_stencil_matches_its_np_roll_formula(fs, beta):
    scalar, vector, spin = fs
    g = scalar.grid
    l, per = g.spacing, g.periodic
    valid = rect_mask(scalar.valid, (g.nx, g.ny))
    right, up = lookup_mask(valid, ((1, 0),), per), lookup_mask(valid, ((0, 1),), per)
    both = right & up

    x = scalar.values
    check_field(lambda: dpartial(scalar, 1), (ahead(x, 1, 0) - x) / l, right)
    check_field(lambda: dpartial(scalar, 2), (ahead(x, 0, 1) - x) / l, up)
    check_field(lambda: dpartial(vector, 1), (ahead(vector.values, 1, 0) - vector.values) / l,
                right)
    check_field(lambda: grad_d(scalar),
                np.stack([(ahead(x, 1, 0) - x) / l, (ahead(x, 0, 1) - x) / l], axis=-1), both)
    v1, v2 = vector.values[..., 0], vector.values[..., 1]
    check_field(lambda: div_d(vector),
                (ahead(v1, 1, 0) - v1) / l + (ahead(v2, 0, 1) - v2) / l, both)
    check_field(lambda: curl_d(vector),
                (ahead(v2, 1, 0) - v2) / l - (ahead(v1, 0, 1) - v1) / l, both)
    lap = -4.0 * x
    for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        lap = lap + ahead(x, di, dj)
    check_field(lambda: laplace_shifted(scalar), lap / l**2,
                lookup_mask(valid, ((1, 0), (-1, 0), (0, 1), (0, -1)), per))

    u = spin.values
    pairs = ((1, 0), (0, 1), (1, 1), (-1, 1), (2, 0), (0, 2))
    pe = ModelParams(l=l, alpha=7.5, beta=beta)
    d = [np.sum(u * ahead(u, di, dj), axis=-1) for di, dj in pairs]
    per_cell = -pe.alpha * (d[0] + d[1]) + pe.beta * (d[2] + d[3]) + (d[4] + d[5])
    mask = lookup_mask(valid, pairs, per)
    assert energy_E(spin, pe) == pe.l**2 * math.fsum(per_cell[mask].tolist())
    rh, rv = f_residuals(u, pe)
    per_cell = (pe.beta / 4.0) * np.sum((rh + rv) * (rh + rv), axis=-1) + (
        (2.0 - pe.beta) / 4.0) * (np.sum(rh * rh, axis=-1) + np.sum(rv * rv, axis=-1))
    mask = lookup_mask(valid, CROSS, per)
    assert energy_F(spin, pe) == pe.l**2 * math.fsum(per_cell[mask].tolist())

    p = ModelParams(l=l, alpha=7.5)
    # the lift gradient reads every cell of the lift, valid or not
    full = np.ones((g.nx, g.ny), dtype=bool)
    s = np.stack([np.cos(x), np.sin(x)], axis=-1)
    rh, rv = f_residuals(s, p)
    th, tv = f_residuals(np.where(lookup_mask(full, CROSS, per)[..., None], rh + rv, 0.0), p)
    t = th + tv
    grad = l**2 * (t[..., 0] * -s[..., 1] + t[..., 1] * s[..., 0])
    check_field(lambda: f_gradient(scalar, p), grad, full)
    # the jacobian reads the gradient only where both of its cells are valid
    d1, d2 = (ahead(x, 1, 0) - x) / l, (ahead(x, 0, 1) - x) / l
    jac = lookup_mask(both, ((1, 0), (0, 1)), per)
    dsq = 0.0
    for c in (d1, d2):
        for di, dj in ((1, 0), (0, 1)):
            dsq = dsq + ((ahead(c, di, dj) - c) / l) ** 2
    check_record(lambda: energy_AGd(scalar, p), p, (1.0 - d1**2 - d2**2) ** 2, dsq, jac)

    if not both.any():
        # one axis without a neighbour pair leaves no chirality cell at all
        with pytest.raises(DimensionError):
            angles(spin)
        return
    check_field(lambda: angles(spin)[0], oriented_angle(u, ahead(u, 1, 0)), right)
    check_field(lambda: angles(spin)[1], oriented_angle(u, ahead(u, 0, 1)), up)
    ch = chirality(spin, p)
    c, t = ch.chi.values, ch.chi_tilde.values
    c1, c2, t1, t2 = c[..., 0], c[..., 1], t[..., 0], t[..., 1]
    w = 2.0 - c1**2 - ahead(c1, -1, 0) ** 2 - c2**2 - ahead(c2, 0, -1) ** 2
    behind = lookup_mask(both, ((-1, 0), (0, -1)), per)
    check_field(lambda: Wd(ch), w * w / 4.0, behind)
    a = (t1 - ahead(t1, -1, 0)) / l + (t2 - ahead(t2, 0, -1)) / l
    check_field(lambda: Ad(ch), a, behind)
    check_record(lambda: energy_Hn(spin, p), p, w * w / 4.0, a**2, behind)
    dsq = 0.0
    for comp in (c1, c2):
        for di, dj in ((1, 0), (0, 1)):
            dsq = dsq + ((ahead(comp, di, dj) - comp) / l) ** 2
    check_record(lambda: energy_Hn_star(spin, p), p, (1.0 - np.sum(c * c, axis=-1)) ** 2, dsq,
                 lookup_mask(both, ((1, 0), (0, 1)), per))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_reach_is_the_cells_whose_lookups_stay_valid(data):
    boundary = data.draw(st.sampled_from([Boundary.OPEN, Boundary.PERIODIC]))
    nx, ny = data.draw(st.integers(2, 9)), data.draw(st.integers(2, 9))
    grid = Grid(0.5, nx, ny, boundary)
    valid = grid.full_rect
    if boundary is Boundary.OPEN:
        i0, j0 = data.draw(st.integers(0, nx)), data.draw(st.integers(0, ny))
        valid = Rect(i0, data.draw(st.integers(i0, nx)), j0, data.draw(st.integers(j0, ny)))
    offsets = data.draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                                 min_size=1, max_size=4))
    f = ScalarField(grid, np.ones((nx, ny)), valid)
    cells = {
        (i, j)
        for i in range(valid.i0, valid.i1)
        for j in range(valid.j0, valid.j1)
        if all(grid.periodic or (valid.i0 <= i + di < valid.i1 and valid.j0 <= j + dj < valid.j1)
               for di, dj in offsets)
    }
    rect = _reach(f, offsets)
    assert {(i, j) for i in range(rect.i0, rect.i1) for j in range(rect.j0, rect.j1)} == cells
