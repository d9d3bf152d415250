"""The row-tiled energies: the tile height never changes a bit.

``energy_E``, ``energy_F``, ``energy_Hn``, the entropy production, the
helical fields and each gamma-table level stream over row tiles of about
``lattice_core._TILE_CELLS`` cells.  Here the constant is patched down to
tiles of a few rows, so every case crosses tile seams, and the results are
compared bit for bit with one tile over the whole grid, and under the
lattice's own symmetries and the global spin maps.  The tiles' cells are
checked against the whole-field reach rule, and the errors of degenerate
inputs against the whole-field operators.  ``laplacian_AG_energy`` sums whole
fields and reads no tile height, so it meets the degenerate grids once each;
``tests/test_stencil_oracle.py`` checks its bits, and
``tests/test_recovery.py`` uses it as the oracle of a level's AG part.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chiralattice import (
    Boundary,
    Grid,
    HelixSpec,
    ModelParams,
    Rect,
    ScalarField,
    ScalingSchedule,
    SpinField,
    Wd,
    canonical_wall,
    chirality,
    discretize_potential,
    energy_E,
    energy_F,
    energy_Hn,
    gamma_limsup_experiment,
    grad_d,
    helical_field,
    jin_kohn,
    laplace_shifted,
    laplacian_AG_energy,
    lattice_core,
    recovery_limsup,
    spin_from_potential,
    total_variation_production,
)
from chiralattice.lattice_core import _CROSS, _reach_rect, _tile_sums

HEIGHTS = (1, 2, 7)
P = ModelParams(l=0.1, alpha=7.5)


def outcome(run):
    """``run()``'s floats as hex strings, or its exception's type and message."""
    try:
        result = run()
    except Exception as exc:  # the error is the outcome compared
        return type(exc).__name__, str(exc)
    if isinstance(result, float):
        return result.hex()
    if isinstance(result, list):  # gamma-table rows
        return [{k: v.hex() if isinstance(v, float) else v for k, v in row.items()}
                for row in result]
    return tuple(x.hex() for x in (result.total, result.potential_part, result.derivative_part))


def at_height(rows, run, grid):
    """``outcome(run)`` with tiles of ``rows`` rows of ``grid``, or one tile if None."""
    cells = grid.nx * grid.ny if rows is None else rows * grid.ny
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lattice_core, "_TILE_CELLS", cells)
        return outcome(run)


def smooth_lift(rng, nx, ny):
    """A smooth wave plus noise, so neighbour angles are neither all tiny nor random."""
    i, j = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    k1, k2, phase = rng.uniform(0.05, 0.6), rng.uniform(0.05, 0.6), rng.uniform(0, 2 * math.pi)
    return np.sin(k1 * i + phase) * 2.0 + k2 * j + rng.normal(scale=0.2, size=(nx, ny))


def spins(grid, psi, valid=None):
    return SpinField(grid, np.stack([np.cos(psi), np.sin(psi)], axis=-1), valid)


@st.composite
def cases(draw):
    """A lift on a grid with sides 3 to 30, valid on a drawn rect of an open
    grid, and an energy region that may miss it."""
    boundary = draw(st.sampled_from([Boundary.OPEN, Boundary.PERIODIC]))
    nx, ny = draw(st.integers(3, 30)), draw(st.integers(3, 30))
    grid = Grid(0.1, nx, ny, boundary)
    valid = None
    if boundary is Boundary.OPEN and draw(st.booleans()):
        i0, j0 = draw(st.integers(0, nx - 1)), draw(st.integers(0, ny - 1))
        valid = Rect(i0, draw(st.integers(i0 + 1, nx)), j0, draw(st.integers(j0 + 1, ny)))
    region = None
    if draw(st.booleans()):
        i0, j0 = draw(st.integers(0, nx)), draw(st.integers(0, ny))
        region = Rect(i0, draw(st.integers(i0, nx)), j0, draw(st.integers(j0, ny)))
    psi = smooth_lift(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), nx, ny)
    return grid, psi, valid, region


@settings(max_examples=60, deadline=None)
@given(cases())
def test_tile_height_changes_no_bit_of_the_energies(case):
    # energy_E reads two rows ahead, the others one
    grid, psi, valid, region = case
    u = spins(grid, psi, valid)
    e = jin_kohn((math.cos(psi[0, 0]), math.sin(psi[0, 0])))
    for run in (lambda: energy_Hn(u, P), lambda: energy_Hn(u, P, region),
                lambda: energy_E(u, P), lambda: energy_F(u, P),
                lambda: total_variation_production(chirality(u, P).chi, e)):
        whole = at_height(None, run, grid)
        assert [at_height(h, run, grid) for h in HEIGHTS] == [whole] * len(HEIGHTS)


@pytest.mark.parametrize("boundary", [Boundary.OPEN, Boundary.PERIODIC])
def test_tile_height_changes_no_bit_of_a_helix(boundary):
    grid = Grid(0.1, 23, 17, boundary)
    spec = HelixSpec(0.3, 2.0 * math.pi * 3 / 23, -2.0 * math.pi * 2 / 17)
    found = []
    for rows in HEIGHTS + (None,):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lattice_core, "_TILE_CELLS", grid.nx * grid.ny if rows is None
                       else rows * grid.ny)
            found.append(helical_field(spec, grid).values.tobytes())
    assert found == found[-1:] * len(found)


@pytest.mark.parametrize("angle, eps0, levels", [(0.0, 0.08, 2), (30.0, 0.04, 1)])
def test_tile_height_changes_no_bit_of_a_gamma_level(angle, eps0, levels):
    schedule = ScalingSchedule.geometric(eps0=eps0, levels=levels)
    finest = int(round(1.0 / schedule.entries[-1].l)) + 2

    def run():
        return gamma_limsup_experiment(canonical_wall(angle), schedule)

    grid = Grid(1.0, finest, finest)  # the tile height is counted on the finest level
    whole = at_height(None, run, grid)
    assert [at_height(h, run, grid) for h in HEIGHTS] == [whole] * len(HEIGHTS)


def test_a_steep_level_raises_the_whole_grid_angle_error(monkeypatch):
    def steep(cfg, eps, m):  # steep only near x = 1, so a late tile holds the largest angle
        return lambda x: np.where(x[..., 0] > 0.9, 40.0 * x[..., 0] ** 2, x[..., 1])

    monkeypatch.setattr(recovery_limsup, "mollified_wall_potential", steep)
    schedule = ScalingSchedule.geometric(levels=1)
    p = schedule.entries[0]
    side = int(round(1.0 / p.l)) + 2
    grid = Grid(p.l, side, side, Boundary.OPEN)
    whole = outcome(
        lambda: spin_from_potential(discretize_potential(steep(0, 0, 0), grid, (-p.l, -p.l)), p))
    assert whole[0] == "ScalingError"
    for h in HEIGHTS + (None,):
        assert at_height(h, lambda: gamma_limsup_experiment(canonical_wall(), schedule),
                         grid) == whole


SYMMETRIES = {
    "transpose": np.transpose,
    "flip-rows": lambda a: a[::-1],
    "flip-columns": lambda a: a[:, ::-1],
    "quarter-turn": np.rot90,
}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([Boundary.OPEN, Boundary.PERIODIC]), st.integers(8, 47),
       st.integers(8, 47), st.integers(1, 7), st.integers(0, 2**32 - 1))
def test_hn_and_f_are_invariant_under_the_lattice_symmetries(boundary, nx, ny, rows, seed):
    """F and both parts of Hn are bitwise invariant.  A flip reverses the
    steps along one axis, which negates each spin difference and cross
    product exactly, and swaps each chirality square of Wd with its
    neighbour; a transposition swaps the two pairs.  Wd sums each pair
    first, ``2 - ((a + b) + (c + d))``, so neither map moves a bit."""
    psi = smooth_lift(np.random.default_rng(seed), nx, ny)

    def energies(lift):
        grid = Grid(0.1, *lift.shape, boundary)
        u = spins(grid, np.ascontiguousarray(lift))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lattice_core, "_TILE_CELLS", rows * grid.ny)
            hn = energy_Hn(u, P)
        return hn.potential_part.hex(), hn.derivative_part.hex(), energy_F(u, P).hex()

    exact = energies(psi)
    for f in SYMMETRIES.values():
        assert energies(f(psi)) == exact


SPIN_MAPS = {
    "quarter-turn": lambda v: np.stack([-v[..., 1], v[..., 0]], axis=-1),
    "reflection": lambda v: np.stack([v[..., 0], -v[..., 1]], axis=-1),
    "half-turn": np.negative,
}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([Boundary.OPEN, Boundary.PERIODIC]), st.integers(4, 39),
       st.integers(4, 39), st.integers(0, 2**32 - 1))
def test_the_energies_are_bitwise_invariant_under_the_global_spin_maps(boundary, nx, ny, seed):
    """The maps permute and negate spin components, which leaves every dot
    product bitwise as it is and every cross product up to its sign, so E, F
    and both parts of Hn keep every bit, not only 1e-12 as for a general
    rotation."""
    grid = Grid(0.1, nx, ny, boundary)
    u = spins(grid, smooth_lift(np.random.default_rng(seed), nx, ny))

    def energies(v):
        hn = energy_Hn(v, P)
        return [x.hex() for x in (energy_E(v, P), energy_F(v, P), hn.potential_part,
                                  hn.derivative_part)]

    for f in SPIN_MAPS.values():
        assert energies(SpinField(grid, f(u.values))) == energies(u)


def test_a_level_peak_memory_grows_less_than_twice_from_400_to_982_cells_per_side():
    entries = ScalingSchedule.geometric(levels=5).entries
    peaks = []
    for p in entries[3:]:
        tracemalloc.start()
        try:
            gamma_limsup_experiment(canonical_wall(), ScalingSchedule((p,)))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    sides = [int(round(1.0 / p.l)) + 2 for p in entries[3:]]
    assert sides == [400, 982]
    assert peaks[1] < 2 * peaks[0]


STENCILS = ((), ((1, 0),), ((0, 1),), ((1, 0), (0, 1)), _CROSS)


@st.composite
def tile_cases(draw):
    """A grid with sides 2 to 12, a valid rect (partial, possibly empty, on an
    open grid), a region that may miss it, a stencil, a margin and a tile height."""
    boundary = draw(st.sampled_from([Boundary.OPEN, Boundary.PERIODIC]))
    nx, ny = draw(st.integers(2, 12)), draw(st.integers(2, 12))
    grid = Grid(0.1, nx, ny, boundary)
    valid = grid.full_rect
    if boundary is Boundary.OPEN and draw(st.booleans()):
        i0, j0 = draw(st.integers(0, nx)), draw(st.integers(0, ny))
        valid = Rect(i0, draw(st.integers(i0, nx)), j0, draw(st.integers(j0, ny)))
    region = None
    if draw(st.booleans()):
        i0, j0 = draw(st.integers(-2, nx + 2)), draw(st.integers(-2, ny + 2))
        region = Rect(i0, draw(st.integers(i0 - 2, nx + 2)), j0, draw(st.integers(j0 - 2, ny + 2)))
    return (grid, valid, region, draw(st.sampled_from(STENCILS)), draw(st.integers(0, 1)),
            draw(st.integers(1, 7)))


def rect_mask(rect, shape):
    mask = np.zeros(shape, dtype=bool)
    mask[max(rect.i0, 0) : max(rect.i1, 0), max(rect.j0, 0) : max(rect.j1, 0)] = True
    return mask


@settings(max_examples=300, deadline=None)
@given(tile_cases())
def test_the_tiles_cells_cover_the_reach_of_the_stencil_once(case):
    """Each tile's ``cells`` lie in the array a kernel forms on it (its own rows
    and columns, with ``margin`` more above and to the left), and together
    they cover ``_reach_rect(valid, periodic, offsets)``, cut to the region,
    each cell once."""
    grid, valid, region, offsets, margin, rows = case
    hits = np.zeros((grid.nx, grid.ny), dtype=int)

    def count(tile, sums):
        assert sums == []
        r, c = tile.cells(offsets, margin, region)
        assert 0 <= r.start <= r.stop and 0 <= c.start <= c.stop
        if r.start < r.stop and c.start < c.stop:
            assert r.stop <= tile.i1 - tile.i0 + margin and c.stop <= grid.ny + margin
        top = tile.i0 - margin
        hits[r.start + top : r.stop + top, c.start - margin : c.stop - margin] += 1

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lattice_core, "_TILE_CELLS", rows * grid.ny)
        assert _tile_sums(grid, valid, 0, count) == []
    reach = _reach_rect(valid, grid.periodic, offsets)
    expected = rect_mask(reach if region is None else reach.intersect(region), hits.shape)
    assert np.array_equal(hits, expected.astype(int))


def error_of(run):
    """The type and message of ``run()``'s exception, or None."""
    try:
        run()
    except Exception as exc:  # the error is the outcome compared
        return type(exc).__name__, str(exc)
    return None


DEGENERATE = [
    (Grid(0.1, 2, 5, Boundary.OPEN), None),
    (Grid(0.1, 5, 2, Boundary.OPEN), None),
    (Grid(0.1, 2, 2, Boundary.PERIODIC), None),
    (Grid(0.1, 2, 6, Boundary.PERIODIC), None),
    (Grid(0.1, 5, 6, Boundary.OPEN), Rect(2, 3, 0, 6)),  # one row
    (Grid(0.1, 5, 6, Boundary.OPEN), Rect(0, 5, 3, 4)),  # one column
    (Grid(0.1, 5, 6, Boundary.OPEN), Rect(2, 2, 1, 5)),  # empty
]
DEGENERATE_IDS = ["open-2x5", "open-5x2", "periodic-2x2", "periodic-2x6", "one-row",
                  "one-column", "empty"]


@pytest.mark.parametrize("grid, valid", DEGENERATE, ids=DEGENERATE_IDS)
@pytest.mark.parametrize("rows", HEIGHTS)
def test_degenerate_inputs_end_as_the_whole_field_operators_do(grid, valid, rows):
    psi = smooth_lift(np.random.default_rng(grid.nx * grid.ny), grid.nx, grid.ny)
    u = spins(grid, psi, valid)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lattice_core, "_TILE_CELLS", rows * grid.ny)
        assert error_of(lambda: energy_Hn(u, P)) == error_of(lambda: Wd(chirality(u, P)))


@pytest.mark.parametrize("grid, valid", DEGENERATE, ids=DEGENERATE_IDS)
def test_degenerate_inputs_end_the_ag_energy_as_its_operators_do(grid, valid):
    psi = smooth_lift(np.random.default_rng(grid.nx * grid.ny), grid.nx, grid.ny)
    phi = ScalarField(grid, psi, valid)

    def whole_ag():
        grad_d(phi)
        laplace_shifted(phi)

    assert error_of(lambda: laplacian_AG_energy(phi, P)) == error_of(whole_ag)


def test_a_level_raises_the_angle_error_before_its_sums_overflow(monkeypatch):
    """A slope so steep that ``W(D_d phi)`` sums past the float range: the
    whole-field path stops at the angle bound before any energy is summed,
    and so does a tiled level, at every tile height."""
    def huge(cfg, eps, m):
        return lambda x: 5e76 * x[..., 0]

    monkeypatch.setattr(recovery_limsup, "mollified_wall_potential", huge)
    schedule = ScalingSchedule.geometric(levels=1)
    p = schedule.entries[0]
    side = int(round(1.0 / p.l)) + 2
    grid = Grid(p.l, side, side, Boundary.OPEN)
    phi = discretize_potential(huge(0, 0, 0), grid, (-p.l, -p.l))
    assert error_of(lambda: laplacian_AG_energy(phi, p))[0] == "DomainError"  # the overflow
    whole = outcome(lambda: spin_from_potential(phi, p))
    assert whole[0] == "ScalingError"
    for h in HEIGHTS + (None,):
        assert at_height(h, lambda: gamma_limsup_experiment(canonical_wall(), schedule),
                         grid) == whole
