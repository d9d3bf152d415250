"""Discrete operators, fields, and CSV round-trips."""

import math
import warnings

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
