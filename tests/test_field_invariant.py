"""The field invariant: values outside ``valid`` are +0.0, and every field
owns its values, write-locked, sharing no memory with another field."""

import math

import numpy as np
import pytest

from chiralattice import (
    Ad,
    Boundary,
    DimensionError,
    FixedAngles,
    Grid,
    HelixSpec,
    ModelParams,
    Rect,
    RelaxConfig,
    ScalarField,
    SpinField,
    VectorField,
    Wd,
    angles,
    chirality,
    curl_d,
    div_d,
    dpartial,
    f_gradient,
    grad_d,
    ground_state_from_chirality,
    helical_field,
    laplace_shifted,
    relax,
    spin_from_potential,
    wall_start,
)

P = ModelParams(l=0.25, alpha=7.5)


def inputs(grid, valid):
    """A scalar, a vector and a spin field with nonzero values everywhere."""
    i = np.arange(grid.nx)[:, None] * np.ones((1, grid.ny))
    j = np.ones((grid.nx, 1)) * np.arange(grid.ny)[None, :]
    psi = 0.3 * i + 0.2 * j + 0.05 * i * j
    scalar = ScalarField(grid, 1.0 + np.sin(psi), valid)
    vector = VectorField(grid, np.stack([np.cos(psi) + 2.0, i - j + 0.5], axis=-1), valid)
    spin = SpinField(grid, np.stack([np.cos(psi), np.sin(psi)], axis=-1), valid)
    return scalar, vector, spin


def outputs(scalar, vector, spin):
    """(operator name, output field, the input fields it was made from)."""
    ch = chirality(spin, P)
    th, tv = angles(spin)
    found = [
        ("dpartial-1", dpartial(scalar, 1), [scalar]),
        ("dpartial-2", dpartial(scalar, 2), [scalar]),
        ("dpartial-vector", dpartial(vector, 1), [vector]),
        ("grad_d", grad_d(scalar), [scalar]),
        ("div_d", div_d(vector), [vector]),
        ("curl_d", curl_d(vector), [vector]),
        ("laplace_shifted", laplace_shifted(scalar), [scalar]),
        ("angles-hor", th, [spin]),
        ("angles-ver", tv, [spin]),
        ("Wd", Wd(ch), [spin, ch.chi, ch.chi_tilde]),
        ("Ad", Ad(ch), [spin, ch.chi, ch.chi_tilde]),
    ]
    for name in ("theta_hor", "theta_ver", "chi", "chi_tilde", "chi_bar"):
        found.append((f"chirality-{name}", getattr(ch, name), [spin]))
    return found + spin_makers(scalar, spin)


def spin_makers(scalar, spin):
    """The same for the constructors that build spins from a lift."""
    g = spin.grid
    # one turn across each axis, so the helices fit a periodic grid too
    th, tv = 2.0 * math.pi / g.nx, 2.0 * math.pi / g.ny
    delta = 4.0 * (math.sin(th / 2.0) ** 2 + math.sin(tv / 2.0) ** 2)
    chi = (2.0 * math.sin(th / 2.0) / math.sqrt(delta), 2.0 * math.sin(tv / 2.0) / math.sqrt(delta))
    p = ModelParams(l=g.spacing, alpha=8.0 - 2.0 * delta)
    u, _, _ = relax(spin, P, RelaxConfig(max_iters=2))
    found = [
        ("helical_field", helical_field(HelixSpec(0.1, th, tv), g), []),
        ("ground_state_from_chirality", ground_state_from_chirality(chi, p, g, 0.1), []),
        # a small delta keeps every neighbour angle of the potential below pi
        ("spin_from_potential", spin_from_potential(scalar, ModelParams(l=g.spacing, alpha=7.98)),
         [scalar]),
        ("relax", u, [spin]),
        ("f_gradient", f_gradient(scalar, P), [scalar]),
    ]
    if not g.periodic:
        found.append(("wall_start", wall_start(FixedAngles(chi, chi[::-1]), P, g), []))
    return found


CASES = {
    "open-partial": (Grid(0.25, 9, 8, Boundary.OPEN), Rect(1, 8, 2, 7)),
    "periodic": (Grid(0.25, 8, 7, Boundary.PERIODIC), None),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_every_operator_hands_over_a_sealed_array_of_its_own(case):
    grid, valid = CASES[case]
    fields = inputs(grid, valid)
    produced = outputs(*fields)
    for name, f, sources in produced:
        outside = np.ones((grid.nx, grid.ny), dtype=bool)
        outside[f.valid.slices] = False
        kept = f.values[outside]
        assert np.all(kept == 0.0) and not np.any(np.signbit(kept)), name
        assert not f.values.flags.writeable, name
        for src in sources + list(fields):
            assert not np.shares_memory(f.values, src.values), name
        for other_name, other, _ in produced:
            if other is not f:
                assert not np.shares_memory(f.values, other.values), (name, other_name)


@pytest.mark.parametrize("cls, shape", [(ScalarField, (4, 5)), (VectorField, (4, 5, 2))])
def test_public_constructors_copy_the_callers_array(cls, shape):
    grid = Grid(0.25, 4, 5, Boundary.OPEN)
    mine = np.arange(1.0, 1.0 + np.prod(shape)).reshape(shape)
    before = mine.copy()
    f = cls(grid, mine, Rect(1, 3, 1, 4))
    assert mine.flags.writeable
    assert not np.shares_memory(mine, f.values)
    assert np.array_equal(mine, before)
    mine[2, 2] = -7.0
    assert f.values[2, 2].tolist() == before[2, 2].tolist()


# the block of cells kept (i0, i1, j0, j1), or None for none, for a valid
# rect that is empty or reaches past a 4 x 5 grid, recorded before the
# masking moved into the field constructor: the kept block followed numpy's
# slice rules, so a negative bound counted from the end of the axis.  A rect
# must now lie in the grid with i0 <= i1 and j0 <= j1; one that does not
# raises, and an empty one inside the grid still zeroes every cell.
ODD_RECTS = [
    (Rect(2, 2, 0, 5), None),
    (Rect(3, 1, 1, 4), None),
    (Rect(-1, 3, 0, 5), None),
    (Rect(-6, 2, 0, 5), (0, 2, 0, 5)),
    (Rect(-3, 3, 1, 9), (1, 3, 1, 5)),
    (Rect(1, 9, -2, 3), None),
    (Rect(1, 3, 2, 7), (1, 3, 2, 5)),
    (Rect(-1, 9, -1, 9), (3, 4, 4, 5)),
    (Rect(5, 7, 0, 5), None),
    (Rect(0, 0, 0, 5), None),
    (Rect(4, 4, 0, 5), None),
    (Rect(0, 4, 5, 5), None),
    (Rect(1, 3, 2, 2), None),
    (Rect(0, 0, 0, 0), None),
]


@pytest.mark.parametrize("rect, kept", ODD_RECTS)
def test_odd_valid_rects_zero_the_same_cells_as_before(rect, kept):
    grid = Grid(0.25, 4, 5, Boundary.OPEN)
    values = np.arange(1.0, 21.0).reshape(4, 5)
    makers = (lambda: ScalarField(grid, values, rect),
              lambda: VectorField(grid, np.stack([values, -values], axis=-1), rect))
    if not (0 <= rect.i0 <= rect.i1 <= 4 and 0 <= rect.j0 <= rect.j1 <= 5):
        for make in makers:
            with pytest.raises(DimensionError, match="does not lie in the 4x5 grid"):
                make()
        return
    assert rect.empty and kept is None  # so it keeps no cell, as before
    for make in makers:
        f = make()
        assert not np.any(f.values) and not np.any(np.signbit(f.values))
