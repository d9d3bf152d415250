"""Discrete operators, fields, and CSV round-trips."""

import contextlib
import functools
import math
import os
import tempfile
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chiralattice import (
    Boundary,
    ConfigError,
    DimensionError,
    DomainError,
    Grid,
    Rect,
    ScalarField,
    VectorField,
    cell_sum,
    curl_d,
    div_d,
    dpartial,
    format_float,
    grad_d,
    laplace_shifted,
    read_field_csv,
    write_field_csv,
)
from chiralattice import lattice_core


def open_grid(n, l=0.25):
    return Grid(l, n, n, Boundary.OPEN)


def periodic_grid(n, l=0.25):
    return Grid(l, n, n, Boundary.PERIODIC)


def index_arrays(grid):
    i = np.arange(grid.nx, dtype=np.float64)[:, None]
    j = np.arange(grid.ny, dtype=np.float64)[None, :]
    return i * np.ones((1, grid.ny)), j * np.ones((grid.nx, 1))


class TestRectAndGrid:
    def test_rect_empty_and_count(self):
        assert Rect(2, 2, 0, 5).empty
        assert Rect(0, 3, 0, 4).count == 12
        assert Rect(1, 0, 0, 4).count == 0

    def test_rect_intersect_and_shrink(self):
        r = Rect(0, 6, 1, 5).intersect(Rect(2, 8, 0, 4))
        assert r == Rect(2, 6, 1, 4)
        assert Rect(0, 6, 0, 6).shrink(2) == Rect(2, 4, 2, 4)

    def test_grid_rejects_bad_geometry(self):
        with pytest.raises(DomainError):
            Grid(0.0, 4, 4)
        with pytest.raises(DomainError):
            Grid(-1.0, 4, 4)
        with pytest.raises(DimensionError):
            Grid(0.1, 1, 5)

    def test_fields_reject_bad_shapes_and_values(self):
        g = open_grid(4)
        with pytest.raises(DimensionError):
            ScalarField(g, np.zeros((3, 4)))
        with pytest.raises(DimensionError):
            VectorField(g, np.zeros((4, 4)))
        with pytest.raises(DomainError):
            ScalarField(g, np.full((4, 4), np.nan))

    def test_neighbours_wrap_like_np_roll(self):
        rng = np.random.default_rng(3)
        offsets = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, 1), (2, 0), (0, 2))
        for g, values in ((periodic_grid(5), rng.random((5, 5))),
                          (Grid(0.25, 4, 6), rng.random((4, 6, 2))),
                          (Grid(0.25, 2, 3), rng.random((2, 3)))):
            f = (ScalarField if values.ndim == 2 else VectorField)(g, values)
            views, rect = lattice_core._neighbours(f, *offsets)
            assert rect == g.full_rect
            for (di, dj), view in zip(offsets, views):
                assert np.array_equal(view, np.roll(values, (-di, -dj), axis=(0, 1)))
                assert view.base is views[0].base
                assert not np.shares_memory(view, f.values)

    def test_periodic_fields_are_valid_on_the_whole_grid(self):
        g = Grid(0.1, 8, 8, Boundary.PERIODIC)
        ramp, _ = index_arrays(g)
        for valid in (Rect(0, 5, 0, 8), Rect(0, 0, 0, 0), Rect(0, 8, 0, 9)):
            with pytest.raises(DimensionError):
                ScalarField(g, ramp, valid)
            with pytest.raises(DimensionError):
                VectorField(g, np.stack([ramp, ramp], axis=-1), valid)
        assert ScalarField(g, ramp, g.full_rect).valid == g.full_rect

    def test_field_values_are_write_locked(self):
        f = ScalarField(open_grid(4), np.zeros((4, 4)))
        with pytest.raises(ValueError):
            f.values[0, 0] = 1.0


class TestForwardDifferences:
    def test_dpartial_of_constant_is_zero(self):
        g = periodic_grid(6)
        d = dpartial(ScalarField(g, np.full((6, 6), 3.7)), 1)
        assert np.all(d.values == 0.0)

    def test_dpartial_of_quadratic_ramp(self):
        g = open_grid(8)
        l = g.spacing
        i, _ = index_arrays(g)
        d = dpartial(ScalarField(g, (i * l) ** 2), 1)
        si, sj = d.valid.slices
        expected = (2 * i[:7] + 1) * l
        assert np.allclose(d.values[si, sj], expected, rtol=0, atol=1e-14)
        assert d.valid == Rect(0, 7, 0, 8)

    def test_dpartial_rejects_bad_axis(self):
        g = open_grid(4)
        with pytest.raises(DomainError):
            dpartial(ScalarField(g, np.zeros((4, 4))), 3)

    def test_grad_of_affine_is_constant(self):
        g = open_grid(6)
        l = g.spacing
        i, j = index_arrays(g)
        v = grad_d(ScalarField(g, 1.0 + 2.0 * i * l - 0.5 * j * l))
        si, sj = v.valid.slices
        assert np.allclose(v.values[si, sj, 0], 2.0, rtol=0, atol=1e-13)
        assert np.allclose(v.values[si, sj, 1], -0.5, rtol=0, atol=1e-13)

    def test_div_of_identity_field_is_two(self):
        g = open_grid(6)
        l = g.spacing
        i, j = index_arrays(g)
        vf = VectorField(g, np.stack([i * l, j * l], axis=-1))
        d = div_d(vf)
        si, sj = d.valid.slices
        assert np.allclose(d.values[si, sj], 2.0, rtol=0, atol=1e-13)

    def test_curl_of_rotation_field_is_two(self):
        g = open_grid(6)
        l = g.spacing
        i, j = index_arrays(g)
        vf = VectorField(g, np.stack([-j * l, i * l], axis=-1))
        c = curl_d(vf)
        si, sj = c.valid.slices
        assert np.allclose(c.values[si, sj], 2.0, rtol=0, atol=1e-13)

    def test_curl_of_gradient_vanishes_bitwise(self):
        # integer values times a power-of-two spacing keep every difference exact
        rng = np.random.default_rng(7)
        g = open_grid(9, l=0.25)
        psi = ScalarField(g, rng.integers(-8, 9, size=(9, 9)) * g.spacing)
        c = curl_d(grad_d(psi))
        assert np.all(c.values == 0.0)

    def test_periodic_forward_difference_telescopes_to_zero(self):
        # integer values times a power-of-two spacing make every difference exact
        rng = np.random.default_rng(11)
        g = periodic_grid(8)
        d = dpartial(ScalarField(g, rng.integers(-50, 50, size=(8, 8)) * g.spacing), 2)
        assert cell_sum(d.values, g.full_rect) == 0.0


class TestCellSum:
    def test_intermediate_overflow_is_a_domain_error(self):
        vals = np.array([[1.7e308, 1.7e308, -1.7e308]])
        with pytest.raises(DomainError):
            cell_sum(vals, Rect(0, 1, 0, 3))

    def test_opposite_infinities_are_a_domain_error(self):
        vals = np.array([[np.inf, -np.inf]])
        with pytest.raises(DomainError):
            cell_sum(vals, Rect(0, 1, 0, 2))

    def test_sums_near_the_float_range_stay_exact(self):
        vals = np.array([[1.7e308, -1.7e308, 1.7e308, 2.0**-1074]])
        assert cell_sum(vals, Rect(0, 1, 0, 4)) == 1.7e308

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_equals_fsum_bitwise(self, data):
        vals, rect = data.draw(_grid_and_rect())
        assert_fsum_equal(vals, rect)

    @pytest.mark.parametrize("shape", [(3, 40000), (700, 100), (2, 70000)])
    def test_blocks_of_every_shape_stay_exact(self, shape):
        # more rows than one block, and rows wider than one block
        rng = np.random.default_rng(sum(shape))
        vals = rng.standard_normal(shape) * 10.0 ** rng.integers(-30, 30, shape)
        vals[:, 1::2] = -vals[:, ::2][:, : shape[1] // 2]
        vals[0, 0] += 1e-40
        assert_fsum_equal(vals, Rect(0, shape[0], 0, shape[1]))
        assert_fsum_equal(vals, Rect(1, shape[0], 3, shape[1] - 2))

    def test_block_size_does_not_change_the_sum(self, monkeypatch):
        rng = np.random.default_rng(5)
        vals = rng.standard_normal((40, 50)) * 10.0 ** rng.integers(-200, 200, (40, 50))
        rect = Rect(2, 39, 1, 50)
        sums = set()
        for cells in (7, 50, 64, 1000, 1 << 16):
            monkeypatch.setattr(lattice_core, "_BLOCK_CELLS", cells)
            sums.add(cell_sum(vals, rect))
        assert sums == {math.fsum(vals[2:39, 1:50].ravel().tolist())}

    def test_blocks_near_the_float_range_keep_the_fsum_behaviour(self):
        vals = np.full((6, 8), 1e307)
        vals[:, 1::2] = -1e307
        vals[0, 0] = 3.0
        assert_fsum_equal(vals, Rect(0, 6, 0, 8))
        with pytest.raises(DomainError):
            cell_sum(np.full((6, 8), 1e307), Rect(0, 6, 0, 8))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_an_accumulator_fed_blocks_of_any_length_equals_fsum(self, data):
        # short blocks wait, and go in with the next longer block, once
        # _SHORT_WAIT of their cells wait, or at the value
        vals, _ = data.draw(_grid_and_rect())
        flat = vals.ravel()
        cuts = sorted(data.draw(st.lists(st.integers(0, flat.size), max_size=40)))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lattice_core, "_SHORT_WAIT", data.draw(st.sampled_from([1, 5, 64, 1 << 10])))
            total = lattice_core._ExactSum()
            for block in np.split(flat, cuts):
                total.add(block)
            assert total.value().hex() == math.fsum(flat.tolist()).hex()

    def test_short_blocks_waiting_go_in_before_the_next_longer_block(self):
        # in order the sum leaves the float range part way, as under math.fsum;
        # the longer block first would cancel it and give 1.7e308
        total = lattice_core._ExactSum()
        total.add(np.array([1.7e308, 1.7e308]))
        total.add(np.concatenate(([-1.7e308], np.zeros(40))))
        with pytest.raises(DomainError):
            total.value()

    def test_empty_rect_sums_to_zero(self):
        assert cell_sum(np.ones((4, 4)), Rect(2, 2, 0, 4)) == 0.0

    @pytest.mark.parametrize("n", [4, 300])
    def test_nan_gives_nan(self, n):
        vals = np.ones((n, n))
        vals[n - 1, n // 2] = np.nan
        assert math.isnan(cell_sum(vals, Rect(0, n, 0, n)))
        vals[0, 0] = np.inf
        assert math.isnan(cell_sum(vals, Rect(0, n, 0, n)))
        vals[0, 1] = -np.inf
        with pytest.raises(DomainError):
            cell_sum(vals, Rect(0, n, 0, n))


def assert_fsum_equal(vals, rect):
    si, sj = rect.slices
    expected = math.fsum(vals[si, sj].ravel().tolist())
    found = cell_sum(vals, rect)
    assert found.hex() == expected.hex()


@st.composite
def _grid_and_rect(draw):
    """A grid of values whose exponents run from subnormal up to 1e300, with
    exact cancellations ``x, -x``, a few drawn floats, in random order, and a
    non-empty sub-rectangle of it."""
    ni = draw(st.integers(1, 30))
    nj = draw(st.integers(1, 30))
    n = ni * nj
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    top = draw(st.integers(-1070, 996))  # 2.0**996 is about 6.7e299
    low = max(-1074, top - draw(st.integers(0, 2100)))
    vals = np.ldexp(rng.uniform(-1.0, 1.0, n), rng.integers(low, top + 1, n))
    pairs = draw(st.integers(0, n // 2))
    vals[n - pairs :] = -vals[:pairs]
    extra = draw(st.lists(st.floats(min_value=-1e300, max_value=1e300), max_size=min(n, 4)))
    vals[: len(extra)] = extra
    rng.shuffle(vals)
    i0 = draw(st.integers(0, min(2, ni - 1)))
    j0 = draw(st.integers(0, min(2, nj - 1)))
    i1 = ni - draw(st.integers(0, min(2, ni - i0 - 1)))
    j1 = nj - draw(st.integers(0, min(2, nj - j0 - 1)))
    return vals.reshape(ni, nj), Rect(i0, i1, j0, j1)


class TestShiftedLaplacian:
    def test_affine_has_zero_laplacian(self):
        g = periodic_grid(6)
        # constants are the only periodic affine fields
        lap = laplace_shifted(ScalarField(g, np.full((6, 6), 2.5)))
        assert np.all(lap.values == 0.0)

    def test_quadratic_has_constant_laplacian(self):
        g = open_grid(8)
        l = g.spacing
        i, j = index_arrays(g)
        lap = laplace_shifted(ScalarField(g, 0.5 * ((i * l) ** 2 + (j * l) ** 2)))
        si, sj = lap.valid.slices
        assert np.allclose(lap.values[si, sj], 2.0, rtol=0, atol=1e-11)
        assert lap.valid == Rect(1, 7, 1, 7)

    def test_mixed_product_is_harmonic(self):
        g = open_grid(8)
        l = g.spacing
        i, j = index_arrays(g)
        lap = laplace_shifted(ScalarField(g, (i * l) * (j * l)))
        si, sj = lap.valid.slices
        assert np.allclose(lap.values[si, sj], 0.0, rtol=0, atol=1e-12)

    def test_needs_three_cells_per_axis(self):
        g = open_grid(2)
        with pytest.raises(DimensionError):
            laplace_shifted(ScalarField(g, np.zeros((2, 2))))


def reference_field_csv(f):
    """The per-cell writer that ``write_field_csv`` replaced: the oracle for
    its bytes."""
    vec = isinstance(f, VectorField)
    lines = ["i,j,v1,v2" if vec else "i,j,v1"]
    for i in range(f.grid.nx):
        for j in range(f.grid.ny):
            if vec:
                lines.append(
                    f"{i},{j},{format_float(f.values[i, j, 0])},{format_float(f.values[i, j, 1])}"
                )
            else:
                lines.append(f"{i},{j},{format_float(f.values[i, j])}")
    return "\n".join(lines) + "\n"


def row_template_field_csv(f):
    """The row-template writer that ``write_field_csv`` replaced (one ``%``
    template per grid row, with ``i`` and ``j`` as text): the oracle for
    the bytes of whole files."""
    vec = isinstance(f, VectorField)
    nx, ny = f.grid.nx, f.grid.ny
    cells = [f"{j},%.17g,%.17g\n" if vec else f"{j},%.17g\n" for j in range(ny)]
    values = f.values.reshape(nx, -1)
    text = ["i,j,v1,v2\n" if vec else "i,j,v1\n"]
    for i in range(nx):
        text.append((f"{i}," + f"{i},".join(cells)) % tuple(values[i].tolist()))
    return "".join(text).encode("ascii")


def _oracle_loadtxt(rows, max_rows=None):
    return np.loadtxt(rows, delimiter=",", ndmin=2, max_rows=max_rows)


def _oracle_whole_file_error(path):
    with open(path, encoding="ascii") as fh, warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        fh.readline()
        _oracle_loadtxt(line for line in fh if not line.isspace())


def _oracle_place_rows(data, names, grid, values, given):
    fi, fj = data[:, names.index("i")], data[:, names.index("j")]
    inside = (fi >= 0) & (fi < grid.nx) & (fj >= 0) & (fj < grid.ny)
    inside &= (np.floor(fi) == fi) & (np.floor(fj) == fj)
    if not np.all(inside):
        return int(np.argmin(inside)) + 1
    cell = fi.astype(int) * grid.ny + fj.astype(int)
    ordered = np.sort(cell)
    twice = np.concatenate((ordered[1:][ordered[1:] == ordered[:-1]], cell[given[cell] > 0]))
    given[cell] = 1
    given[twice] = 2
    values[cell, 0] = data[:, names.index("v1")]
    if values.shape[1] == 2:
        values[cell, 1] = data[:, names.index("v2")]
    return None


def loadtxt_read_field_csv(path, grid):
    """The reader that ``read_field_csv`` replaced (every body line through
    ``np.loadtxt``, ``_TILE_CELLS`` lines per call): the oracle for the
    fields and error messages of every file, but for a header that names a
    column twice, which it reads."""
    nx, ny = grid.nx, grid.ny
    width = bad_row = None
    offset = 0
    tile = lattice_core._TILE_CELLS
    try:
        with open(path, encoding="ascii") as fh, warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            warnings.filterwarnings("ignore", "Input line", UserWarning)
            names = [name.strip() for name in fh.readline().split(",")]
            columns = {"i", "j", "v1"} <= set(names)
            vec = "v2" in names
            values = np.empty((nx * ny, 2 if vec else 1))
            given = np.zeros(nx * ny, dtype=np.uint8)
            rows = (line for line in fh if not line.isspace())
            while True:
                try:
                    data = _oracle_loadtxt(rows, tile)
                    if data.size and data.shape[1] != (width or data.shape[1]):
                        raise ValueError("the number of columns changed")
                except ValueError:
                    if offset:
                        _oracle_whole_file_error(path)
                    raise
                if data.size == 0:
                    break
                width = data.shape[1]
                if columns and width == len(names) and bad_row is None:
                    row = _oracle_place_rows(data, names, grid, values, given)
                    bad_row = None if row is None else offset + row
                offset += len(data)
                if len(data) < tile:
                    break
    except ValueError as exc:
        raise ConfigError(f"{path}: malformed field CSV: {exc}") from None
    if not columns:
        raise ConfigError(f"{path}: field CSV needs the columns i, j, v1[, v2]")
    if width is not None and width != len(names):
        raise ConfigError(
            f"{path}: malformed field CSV: the header names {len(names)} columns, "
            f"the rows hold {width}"
        )
    if bad_row is not None:
        raise ConfigError(
            f"{path}: cell index is not an integer inside the {nx}x{ny} grid at row {bad_row}"
        )
    if np.any(given != 1):
        bad = int(np.argmax(given != 1))
        what = "repeats" if given[bad] > 1 else "misses"
        raise ConfigError(f"{path}: field CSV {what} cell {divmod(bad, ny)}")
    cls = VectorField if vec else ScalarField
    try:
        return cls._adopt(grid, values.reshape((nx, ny, 2) if vec else (nx, ny)), grid.full_rect)
    except DomainError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def read_outcome(reader, path, grid):
    """The type and bytes of the field ``reader`` reads, or its error's message."""
    try:
        f = reader(str(path), grid)
    except ConfigError as exc:
        return str(exc)
    return type(f).__name__, f.values.tobytes()


def float_texts(values):
    """The writer's text of each float, as the block formatter lays it out
    and the writer strips it."""
    rows = lattice_core._float_text(np.array(values, dtype=np.float64))
    return [row.tobytes().translate(None, b"\0 ").decode("ascii") for row in rows]


def extreme_field(cls):
    """A field on a 5x7 open grid of random finite bit patterns, led by
    signed zero, the smallest subnormal, the float extremes and 0.1."""
    shape = (5, 7, 2) if cls is VectorField else (5, 7)
    bits = np.random.default_rng(13).integers(0, 2**64, size=shape, dtype=np.uint64)
    vals = bits.view(np.float64)
    vals[~np.isfinite(vals)] = 0.5
    vals.flat[:5] = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 0.1]
    return cls(Grid(0.25, 5, 7, Boundary.OPEN), vals)


class TestSerialization:
    @pytest.mark.parametrize("cls", [ScalarField, VectorField])
    def test_writer_matches_the_per_cell_reference_and_reads_back_bitwise(self, cls, tmp_path):
        f = extreme_field(cls)
        path = tmp_path / "field.csv"
        write_field_csv(f, str(path))
        assert path.read_bytes() == reference_field_csv(f).encode("ascii")
        back = read_field_csv(str(path), f.grid)
        assert type(back) is cls
        assert back.values.tobytes() == f.values.tobytes()

    @pytest.mark.parametrize("cls", [ScalarField, VectorField])
    @pytest.mark.parametrize("boundary", list(Boundary))
    @pytest.mark.parametrize("shape, tile_cells", [
        ((2, 2), None), ((2, 50), 64), ((5, 13), 64), ((4, 7), 8), ((3, 5), 1),
        ((2, 10050), None), ((10001, 2), 256),
    ])
    def test_writer_matches_the_row_template_writer_across_block_seams(
        self, cls, boundary, shape, tile_cells, tmp_path, monkeypatch
    ):
        # the writer's blocks are an eighth of a row tile: rows longer than a
        # block, blocks cut inside rows, one-cell blocks, indices past 9999
        if tile_cells is not None:
            monkeypatch.setattr(lattice_core, "_TILE_CELLS", tile_cells)
        rng = np.random.default_rng(sum(shape))
        size = shape + ((2,) if cls is VectorField else ())
        bits = rng.integers(0, 2**64, size=size, dtype=np.uint64)
        values = np.where(rng.random(size) < 0.3, bits.view(np.float64),
                          np.cos(rng.normal(size=size)))
        values[~np.isfinite(values)] = -0.0
        values.flat[::7] = 0.0
        f = cls(Grid(0.25, *shape, boundary), values)
        path = tmp_path / "field.csv"
        write_field_csv(f, str(path))
        assert path.read_bytes() == row_template_field_csv(f)

    def test_the_writers_peak_memory_on_a_wide_grid_is_under_twice_a_square_ones(self, tmp_path):
        # the writer works in blocks of cells, not rows: a 2 x 131072 grid
        # (row-template writer: 27 MB) holds no more than a 512 x 512 one
        peaks = []
        for shape in ((512, 512), (2, 131072)):
            phase = 0.37 * np.arange(shape[0] * shape[1]).reshape(shape)
            f = VectorField(Grid(0.01, *shape, Boundary.OPEN),
                            np.stack([np.cos(phase), np.sin(phase)], axis=-1))
            tracemalloc.start()
            try:
                write_field_csv(f, str(tmp_path / "field.csv"))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 2 * peaks[0]

    def test_columns_and_rows_in_any_order_between_blank_lines(self, tmp_path):
        f = extreme_field(VectorField)
        path = tmp_path / "field.csv"
        write_field_csv(f, str(path))
        header, *rows = path.read_text().splitlines()
        order = [1, 3, 0, 2]  # j, v2, i, v1
        lines = [",".join(header.split(",")[k] for k in order)]
        for r in np.random.default_rng(14).permutation(len(rows)):
            cells = rows[r].split(",")
            lines.append(",".join(cells[k] for k in order))
        assert lines[0] == "j,v2,i,v1"
        lines[5:5] = ["", " \t "]
        path.write_text("\n".join(lines) + "\n")
        back = read_field_csv(str(path), f.grid)
        assert type(back) is VectorField
        assert back.values.tobytes() == f.values.tobytes()

    def test_header_only_non_ascii_and_non_finite_files_are_config_errors(self, tmp_path):
        path = tmp_path / "field.csv"
        cases = [
            (b"i,j,v1,v2\n", "misses"),
            (b"i,j,v1,v\xe92\n0,0,1,2\n", "malformed"),
            (b"i,j,v1,v2\n0,0,1,2\xff\n", "malformed"),
            (b"i,j,v1\n0,0,1\n0,1,nan\n1,0,1\n1,1,1\n", "finite"),
            (b"i,j,v1\n0,0,1\n0,1,1e400\n1,0,1\n1,1,1\n", "finite"),
        ]
        for text, match in cases:
            path.write_bytes(text)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ConfigError, match=match):
                    read_field_csv(str(path), open_grid(2))

    def test_format_float_round_trips(self):
        for x in (0.1, -1.0 / 3.0, 2.0**-52, 1e300):
            assert float(format_float(x)) == x

    def test_scalar_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        g = open_grid(6)
        f = ScalarField(g, rng.normal(size=(6, 6)))
        path = str(tmp_path / "scalar.csv")
        write_field_csv(f, path)
        back = read_field_csv(path, g)
        assert isinstance(back, ScalarField) and not isinstance(back, VectorField)
        assert np.array_equal(back.values, f.values)

    def test_vector_round_trip(self, tmp_path):
        rng = np.random.default_rng(10)
        g = open_grid(6)
        f = VectorField(g, rng.normal(size=(6, 6, 2)))
        path = str(tmp_path / "vector.csv")
        write_field_csv(f, path)
        back = read_field_csv(path, g)
        assert isinstance(back, VectorField)
        assert np.array_equal(back.values, f.values)

    def _written(self, tmp_path, n=4):
        rng = np.random.default_rng(12)
        path = tmp_path / "field.csv"
        write_field_csv(VectorField(open_grid(n), rng.normal(size=(n, n, 2))), str(path))
        return path

    def test_grid_larger_than_the_file_is_rejected(self, tmp_path):
        path = self._written(tmp_path)
        with pytest.raises(ConfigError, match="misses"):
            read_field_csv(str(path), open_grid(5))

    def test_grid_smaller_than_the_file_is_rejected(self, tmp_path):
        path = self._written(tmp_path)
        with pytest.raises(ConfigError, match="inside"):
            read_field_csv(str(path), open_grid(3))

    def test_repeated_cell_is_rejected(self, tmp_path):
        path = self._written(tmp_path)
        lines = path.read_text().splitlines()
        lines[-1] = lines[1]  # cell (3, 3) replaced by a second copy of (0, 0)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError, match="repeats"):
            read_field_csv(str(path), open_grid(4))

    def test_fractional_index_is_rejected(self, tmp_path):
        path = self._written(tmp_path)
        lines = path.read_text().splitlines()
        lines[2] = "0.5" + lines[2][1:]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError, match="inside"):
            read_field_csv(str(path), open_grid(4))

    def test_malformed_rows_and_columns_are_rejected(self, tmp_path):
        path = self._written(tmp_path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines + ["1,2"]) + "\n")
        with pytest.raises(ConfigError, match="malformed"):
            read_field_csv(str(path), open_grid(4))
        path.write_text("a,b,c\n0,0,1.0\n")
        with pytest.raises(ConfigError, match="columns"):
            read_field_csv(str(path), open_grid(4))


_BITS_1E4, _BITS_1 = (int(b) for b in np.array([1e-4, 1.0]).view(np.uint64))
_SIGNS = st.sampled_from([1.0, -1.0])
# every double of [1e-4, 1]; log-uniform values of [1e-5, 10], across the
# range's ends; short decimals, whose 17 digits mostly carry through 9s
_IN_RANGE = st.builds(lambda b, s: s * float(np.uint64(b).view(np.float64)),
                      st.integers(_BITS_1E4, _BITS_1), _SIGNS)
_LOG_UNIFORM = st.builds(lambda u, s: s * 10.0**u, st.floats(-5.0, 1.0), _SIGNS)
_SHORT_DECIMAL = st.integers(1, 19).flatmap(
    lambda p: st.integers(0, 10**p - 1).map(lambda n: float(f"0.{n:0{p}d}")))


def _ties(k):
    """Decade ``k`` and the doubles ``n / 2^(18 - k)``, ``n`` odd, of the
    decade ``[10^(k-1), 10^k)``: each has 18 significant digits, the last a
    5, so its 17 digits are a tie."""
    lo, hi = Fraction(2 ** (18 - k), 10 ** (1 - k)), Fraction(2 ** (18 - k), 10**-k)
    return st.integers(math.ceil((lo - 1) / 2), math.floor((hi - 1) / 2) - 1).map(
        lambda n: (k, (2 * n + 1) / 2.0 ** (18 - k)))


class TestFieldText:
    """``_float_text`` writes the text of ``format_float`` for every float:
    from integers for ``±0`` and ``1e-4 <= |x| <= 1``, else by the rule."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(_IN_RANGE, _LOG_UNIFORM, _SHORT_DECIMAL,
                              st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0])),
                    min_size=1, max_size=40))
    def test_each_value_is_written_as_format_float_writes_it(self, values):
        assert float_texts(values) == [format_float(x) for x in values]

    def test_zeros_subnormals_extremes_and_the_neighbours_of_each_decade(self):
        values = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1.0, -1.0,
                  1e300, -1e300, 1e-300, -1e-300, 1.7976931348623157e308]
        for edge in (1e-4, 1e-3, 0.01, 0.1, 1.0):
            for toward in (0.0, 2.0):
                values += [np.nextafter(edge, toward), edge]
        for nines in range(1, 22):  # 0.99999999999999999..., 0.099999999999999999...
            values += [float("0." + "9" * nines), float("0.0" + "9" * nines)]
        values += [-x for x in values]
        assert float_texts(values) == [format_float(x) for x in values]
        assert float_texts(values[:2]) == ["0", "-0"]  # a block of zeros only
        assert float_texts([2.0, 1e-9]) == ["2", "1.0000000000000001e-09"]  # no value in range

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(-3, 0).flatmap(_ties), min_size=1, max_size=20), _SIGNS)
    def test_ties_round_half_to_even(self, ties, sign):
        for k, x in ties:
            assert 10.0 ** (k - 1) < x < 10.0**k
            assert (Fraction(x) * 10 ** (17 - k)).denominator == 2
        values = [sign * x for _, x in ties]
        assert float_texts(values) == [format_float(x) for x in values]


# the writer's values: those it writes from integers, and by the rule the
# values outside [1e-4, 1], subnormals and the extremes
_ANY_VALUE = st.one_of(
    _IN_RANGE, _LOG_UNIFORM, _SHORT_DECIMAL,
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1e300, -1e300, 1.7976931348623157e308]),
)
# hand-written tokens: short, padded, signed, exponent and over-long forms
_HAND_TOKEN_LIST = ["0.1", "0.50", ".5", "5.", "+0.5", "00.5", "1E-5", "1e-5", "-0.25",
                    "0.99999999999999999", "-0.99999999999999999", " 0.5", "0.5 ",
                    "0.5 # c", "-0", "0", "1", "-1", "007", "0.0001", "0.00001", "0.",
                    "-", "e", "1e", "0x1", "nan", ""]
_HAND_TOKENS = st.one_of(
    st.sampled_from(_HAND_TOKEN_LIST),
    st.integers(18, 25).flatmap(lambda k: st.tuples(
        st.sampled_from(["0.", "-0.", ""]), st.text("0123456789", min_size=k - 2, max_size=k))
    ).map("".join),
)


@contextlib.contextmanager
def blocks_of(lines, text):
    """``read_field_csv`` patched to read blocks of the ``lines`` longest
    lines of ``text``, or not patched for None.  ``_READ_BYTES`` alone cuts
    the reader's blocks; the ``_TILE_CELLS`` patch reaches only the seal of
    the field read, in blocks of ``lines`` cells."""
    with pytest.MonkeyPatch.context() as mp:
        if lines is not None:
            longest = max(len(line) for line in text.split(b"\n")) + 1
            mp.setattr(lattice_core, "_READ_BYTES", lines * longest)
            mp.setattr(lattice_core, "_TILE_CELLS", lines)
        yield


def assert_reads_as_loadtxt_reads(text, grid, blocks=(None, 1, 2, 7)):
    """``read_field_csv`` reads the file ``text`` as the loadtxt reader
    does, in blocks of each length; returns the outcome."""
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        path = os.path.join(tmp, "field.csv")
        with open(path, "wb") as fh:
            fh.write(text)
        expected = read_outcome(loadtxt_read_field_csv, path, grid)
        for lines in blocks:
            with blocks_of(lines, text):
                assert read_outcome(read_field_csv, path, grid) == expected
    return expected


@contextlib.contextmanager
def loadtxt_calls():
    """The list of the values each ``lattice_core._loadtxt`` call parses."""
    calls = []

    def counting(rows, max_rows=None):
        data = np.loadtxt(rows, delimiter=",", ndmin=2, max_rows=max_rows)
        calls.append(data.size)
        return data

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lattice_core, "_loadtxt", counting)
        yield calls


@functools.cache
def helix_300_lines():
    """The lines of ``write_field_csv``'s text of a helix on an open 300 x 300
    grid, more rows than one ``_TILE_CELLS`` block of lines."""
    phase = 0.37 * np.arange(300)[:, None] + 0.011 * np.arange(300)[None, :] + 0.3
    f = VectorField(open_grid(300), np.stack([np.cos(phase), np.sin(phase)], axis=-1))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "field.csv")
        write_field_csv(f, path)
        with open(path, "rb") as fh:
            return tuple(fh.read().split(b"\n")[:-1])


def _with_v1(line, token):
    i, j, _, v2 = line.split(b",")
    return b",".join([i, j, token, v2])


# each takes the lines before and from the edited one, and joins them edited
_HELIX_EDITS = {
    "a non-ASCII byte": lambda head, tail: head + [tail[0][:-1] + b"\xe9"] + tail[1:],
    "a bad token": lambda head, tail: head + [tail[0] + b"x"] + tail[1:],
    "a comment line": lambda head, tail: head + [b"# a comment"] + tail,
    "a blank line": lambda head, tail: head + [b""] + tail,
    "CRLF from there on": lambda head, tail: head + [line + b"\r" for line in tail],
    "one extra column": lambda head, tail: head + [tail[0] + b",1"] + tail[1:],
    "300 rows of 1e-05": lambda head, tail: (
        head + [_with_v1(line, b"1e-05") for line in tail[:300]] + tail[300:]),
}


def odd_field_csv(case):
    """The text and grid of a field CSV that holds ``case``: line ends of
    another kind, a line longer than small blocks, rows one column short of
    the header or of the rest, a token that only ``np.loadtxt`` can refuse,
    the writer's rows with one repeated or in reverse order, or one of
    ``_HELIX_EDITS`` ``at`` a fraction of the body of ``helix_300_lines``."""
    if case.startswith("helix: "):
        kind, at = case[len("helix: "):].rsplit(" at ", 1)
        lines = list(helix_300_lines())
        k = 1 + int(float(at) * (len(lines) - 1))
        return b"\n".join(_HELIX_EDITS[kind](lines[:k], lines[k:])) + b"\n", open_grid(300)
    n = 4 if case.startswith("a token ") else 3
    f = VectorField(open_grid(n), np.cos(np.arange(2.0 * n * n)).reshape(n, n, 2))
    lines = row_template_field_csv(f).split(b"\n")[:-1]
    if case.startswith("a token "):  # of number bytes, so it reaches np.loadtxt, at row 9
        lines[10] = _with_v1(lines[10], case[len("a token "):].encode("ascii"))
        return b"\n".join(lines) + b"\n", f.grid
    if case == "cr only":
        return b"\r".join(lines) + b"\r", f.grid
    if case == "blank cr lines":  # blocks of 20 of them hold no delimiter
        return b"\r".join(lines[:1] + [b""] * 50 + lines[1:]) + b"\r", f.grid
    if case == "lone cr in the header":
        return b"\n".join([b"i,j\r,v1,v2"] + lines[1:]) + b"\n", f.grid
    if case == "cr cr lf after the header":
        return lines[0] + b"\r\r\n" + b"\n".join(lines[1:]) + b"\n", f.grid
    if case == "mixed line ends":
        return b"".join(line + (b"\r", b"\n", b"\r\n")[k % 3]
                        for k, line in enumerate(lines)), f.grid
    if case == "a short first row":  # then a block of 47 bytes holds one line
        lines[1] = b"0,0,1"
        return b"\n".join(lines) + b"\n", f.grid
    if case == "a line repeated across a block seam":  # the rows of cells 0-3 fill 170 bytes
        return b"\n".join(lines[:5] + lines[4:]) + b"\n", f.grid
    if case == "rows in reverse order":
        return b"\n".join(lines[:1] + lines[:0:-1]) + b"\n", f.grid
    if case == "rows one column short of the header":
        lines[1:] = [line.rsplit(b",", 1)[0] for line in lines[1:]]
        return b"\n".join(lines) + b"\n", f.grid
    assert case == "long token"  # a 302-byte token, longer than a block of 64
    lines[4] = _with_v1(lines[4], b"0." + b"1" * 300)
    return b"\n".join(lines) + b"\n", f.grid


class TestFieldReader:
    """``read_field_csv`` reads every file as ``loadtxt_read_field_csv``
    does: the same field, bit for bit, or the same ``ConfigError`` message."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 5), st.integers(2, 5), st.booleans(), st.data())
    def test_the_writers_output_reads_as_loadtxt_reads_it(self, nx, ny, vec, data):
        shape = (nx, ny, 2) if vec else (nx, ny)
        values = data.draw(st.lists(_ANY_VALUE, min_size=math.prod(shape),
                                    max_size=math.prod(shape)))
        cls = VectorField if vec else ScalarField
        f = cls(Grid(0.25, nx, ny, Boundary.OPEN), np.reshape(values, shape))
        text = row_template_field_csv(f)
        outcome = assert_reads_as_loadtxt_reads(text, f.grid)
        assert outcome == (type(f).__name__, f.values.tobytes())

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.one_of(
        st.builds(lambda b, s: s * float(np.uint64(b).view(np.float64)),
                  st.integers(_BITS_1E4, _BITS_1 - 1), _SIGNS),
        _SHORT_DECIMAL.filter(lambda x: x == 0.0 or x >= 1e-4), st.sampled_from([0.0, 1.0])),
        min_size=18, max_size=18))
    def test_the_writers_values_in_range_never_reach_loadtxt(self, values):
        # every candidate 1 ulp off is found by the retry, and every index
        # and 0 or 1 is read as an integer
        f = VectorField(Grid(0.25, 3, 3, Boundary.OPEN), np.reshape(values, (3, 3, 2)))
        with tempfile.TemporaryDirectory() as tmp, loadtxt_calls() as calls:
            path = os.path.join(tmp, "field.csv")
            write_field_csv(f, path)
            back = read_field_csv(path, f.grid)
        assert calls == []
        assert back.values.tobytes() == f.values.tobytes()

    def test_a_helix_reads_in_blocks_cut_anywhere_with_loadtxt_for_its_tiny_values(
            self, tmp_path, monkeypatch):
        phase = 0.37 * np.arange(64)[:, None] + 0.011 * np.arange(40)[None, :] + 0.3
        f = VectorField(Grid(0.1, 64, 40, Boundary.OPEN),
                        np.stack([np.cos(phase), np.sin(phase)], axis=-1))
        path = str(tmp_path / "field.csv")
        write_field_csv(f, path)
        for read_bytes in (1000, 3000, 1 << 17):
            monkeypatch.setattr(lattice_core, "_READ_BYTES", read_bytes)
            with loadtxt_calls() as calls:
                back = read_field_csv(path, f.grid)
            assert sum(calls) == np.count_nonzero(np.abs(f.values) < 1e-4) > 0
            assert back.values.tobytes() == f.values.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_HAND_TOKENS, min_size=18, max_size=18), st.sampled_from(["\n", "\r\n"]),
           st.booleans())
    def test_hand_written_tokens_read_as_loadtxt_reads_them(self, tokens, newline, last_end):
        lines = ["i,j,v1,v2"] + [f"{i},{j},{tokens[2 * (3 * i + j)]},{tokens[2 * (3 * i + j) + 1]}"
                                 for i in range(3) for j in range(3)]
        text = (newline.join(lines) + (newline if last_end else "")).encode("ascii")
        assert_reads_as_loadtxt_reads(text, Grid(0.25, 3, 3, Boundary.OPEN))

    def test_each_hand_written_token_reads_as_loadtxt_reads_it(self):
        for token in _HAND_TOKEN_LIST + ["0." + "9" * k for k in range(15, 24)] + ["1" * 25]:
            lines = ["i,j,v1", f"0,0,{token}", "0,1,0.5", "1,0,0.25", "1,1,-0.125"]
            for newline in ("\n", "\r\n"):
                text = (newline.join(lines) + newline).encode("ascii")
                assert_reads_as_loadtxt_reads(text, Grid(0.25, 2, 2, Boundary.OPEN))
        assert float("0.99999999999999999") == 1.0

    @pytest.mark.parametrize("header", ["i,j,i,v1", "i,j,v1,v1", "j,i,j,v1,v2", "i,j,v1,v2,v2"])
    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_a_header_that_names_a_column_twice_is_a_columns_error(self, header, newline,
                                                                  tmp_path):
        # the loadtxt reader read the first of the two columns
        ncol = len(header.split(","))
        rows = [",".join([str(i), str(j)] + ["1"] * (ncol - 2)) for i in range(2) for j in range(2)]
        path = tmp_path / "field.csv"
        path.write_bytes(newline.join([header] + rows).encode("ascii") + newline.encode())
        with pytest.raises(ConfigError, match="needs the columns i, j, v1"):
            read_field_csv(str(path), open_grid(2))

    @pytest.mark.parametrize("case, read_bytes", [
        ("cr only", None), ("cr only", 20), ("blank cr lines", 20),
        ("lone cr in the header", None), ("cr cr lf after the header", None),
        ("mixed line ends", None), ("long token", 64), ("a short first row", 47),
        ("rows one column short of the header", None), ("a token 1e", None), ("a token -", None),
        ("a line repeated across a block seam", None), ("a line repeated across a block seam", 170),
        ("rows in reverse order", None), ("rows in reverse order", 47),
    ] + [(f"helix: {kind} at {at}", None) for kind in _HELIX_EDITS for at in (0.3, 0.9)])
    def test_an_odd_file_reads_as_loadtxt_reads_it(self, case, read_bytes, tmp_path,
                                                    monkeypatch):
        text, grid = odd_field_csv(case)
        path = tmp_path / "field.csv"
        path.write_bytes(text)
        expected = read_outcome(loadtxt_read_field_csv, path, grid)
        if read_bytes is not None:
            monkeypatch.setattr(lattice_core, "_READ_BYTES", read_bytes)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert read_outcome(read_field_csv, path, grid) == expected

    def test_a_read_that_does_not_fail_opens_the_file_once(self, tmp_path, monkeypatch):
        # values in [1, 101) go to np.loadtxt from the first block, and a
        # lone \r ends the header as in text mode
        opened = []

        def counting_open(*args, **kwargs):
            opened.append(args[0])
            return open(*args, **kwargs)

        monkeypatch.setattr(lattice_core, "open", counting_open, raising=False)
        grid = open_grid(16)
        f = VectorField(grid, 1.0 + 100.0 * np.random.default_rng(1).random((16, 16, 2)))
        above_one, lone_cr = str(tmp_path / "above_one.csv"), tmp_path / "lone_cr.csv"
        write_field_csv(f, above_one)
        with open(above_one, "rb") as fh:
            lone_cr.write_bytes(fh.read().replace(b"\n", b"\r", 1))
        for path in (above_one, str(lone_cr)):
            opened.clear()
            assert read_field_csv(path, grid).values.tobytes() == f.values.tobytes()
            assert opened == [path]

    def test_blocks_of_one_line_keep_to_their_path(self, tmp_path, monkeypatch):
        # blocks of 30 bytes, then of 60 after a longer line, hold one line:
        # the writer's text stays in numpy after a block that holds only the
        # header, and a file with no \n is cut at its \r, one line per
        # np.loadtxt call
        monkeypatch.setattr(lattice_core, "_READ_BYTES", 30)
        text, grid = odd_field_csv("cr only")
        for line_end, expected in ((b"\n", []), (b"\r", [4] * 9)):
            path = tmp_path / "field.csv"
            path.write_bytes(text.replace(b"\r", line_end))
            with loadtxt_calls() as calls:
                read_field_csv(str(path), grid)
            assert calls == expected

    def test_the_readers_peak_memory_is_one_field_and_one_block(self, tmp_path):
        # 6.6 MB for the loadtxt reader on 512 x 512 (a 4.2 MB field); a
        # 2 x 131072 grid holds no more than twice as much
        peaks = []
        for shape in ((512, 512), (2, 131072)):
            phase = 0.37 * np.arange(shape[0] * shape[1]).reshape(shape)
            grid = Grid(0.01, *shape, Boundary.OPEN)
            write_field_csv(VectorField(grid, np.stack([np.cos(phase), np.sin(phase)], axis=-1)),
                            str(tmp_path / "field.csv"))
            tracemalloc.start()
            try:
                read_field_csv(str(tmp_path / "field.csv"), grid)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= 6.6e6
        assert peaks[1] < 2 * peaks[0]
