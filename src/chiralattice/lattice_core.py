"""Lattice geometry, piecewise-constant fields, and discrete differential operators.

A field assigns one value (scalar or 2-vector) to every cell of a rectangular
lattice with spacing ``l``; the value at index ``(i, j)`` represents the cell
``[l*i, l*(i+1)) x [l*j, l*(j+1))`` (half-open convention).  All forward
difference operators are of the form ``(v[(i,j)+e_k] - v[i,j]) / l``.

Every field carries the half-open index rectangle, inside the grid, on which
its values are meaningful; on a periodic grid, where indices wrap, it is the
whole grid.  A stencil reads the values at ``(i+di, j+dj)`` as views of one
wrapped copy of the field and is valid where every lookup lands in the
field's rectangle.
The field constructor alone enforces the invariant: a field's values are
finite, exact zeros outside its rectangle (the whole grid if periodic), and
write-locked.  Public constructors copy the caller's array and check it;
internal operators hand over the fresh array they computed, which is checked
for finiteness all the same.

All cell reductions go through :func:`cell_sum`.  It extracts the cells'
values error-free into a few exact partials in numpy and rounds their sum
once with ``math.fsum``, so every sum is the correctly rounded real sum: bit
for bit the same whatever the block size, the thread count or the run order.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np
from numpy.typing import NDArray

from .errors import ConfigError, DimensionError, DomainError

__all__ = [
    "Boundary",
    "Rect",
    "Grid",
    "ScalarField",
    "VectorField",
    "cell_sum",
    "dpartial",
    "grad_d",
    "div_d",
    "curl_d",
    "laplace_shifted",
    "write_field_csv",
    "read_field_csv",
    "format_float",
]


class Boundary(Enum):
    PERIODIC = "periodic"
    OPEN = "open"


@dataclass(frozen=True)
class Rect:
    """Half-open index rectangle [i0, i1) x [j0, j1)."""

    i0: int
    i1: int
    j0: int
    j1: int

    @property
    def empty(self) -> bool:
        return self.i1 <= self.i0 or self.j1 <= self.j0

    @property
    def count(self) -> int:
        return 0 if self.empty else (self.i1 - self.i0) * (self.j1 - self.j0)

    def intersect(self, other: "Rect") -> "Rect":
        return Rect(
            max(self.i0, other.i0),
            min(self.i1, other.i1),
            max(self.j0, other.j0),
            min(self.j1, other.j1),
        )

    def shrink(self, margin: int) -> "Rect":
        return Rect(self.i0 + margin, self.i1 - margin, self.j0 + margin, self.j1 - margin)

    @property
    def slices(self) -> tuple[slice, slice]:
        return slice(self.i0, self.i1), slice(self.j0, self.j1)


@dataclass(eq=False)
class Grid:
    """Lattice geometry: spacing, cell counts per axis, boundary mode.

    Grids compare by identity, but no code compares the grids of two fields:
    every operator reads one field and puts its result on that field's grid.
    """

    spacing: float
    nx: int
    ny: int
    boundary: Boundary = Boundary.PERIODIC

    def __post_init__(self):
        if not (self.spacing > 0):
            raise DomainError(f"grid spacing must be positive, got {self.spacing}")
        if self.nx < 2 or self.ny < 2:
            raise DimensionError(f"grid must be at least 2x2, got {self.nx}x{self.ny}")

    @property
    def full_rect(self) -> Rect:
        return Rect(0, self.nx, 0, self.ny)

    @property
    def periodic(self) -> bool:
        return self.boundary is Boundary.PERIODIC

    def lattice_points(self) -> tuple[NDArray, NDArray]:
        l = self.spacing
        return l * np.arange(self.nx), l * np.arange(self.ny)


def _unit(v, name: str) -> NDArray:
    """``v`` as a float64 2-vector of length 1 to within 1e-12, else ``DomainError``."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (2,):
        raise DomainError(f"{name} must be a 2-vector")
    if not abs(math.hypot(v[0], v[1]) - 1.0) <= 1e-12:  # rejects nan too
        raise DomainError(f"{name} must be a unit vector")
    return v


def _zero_outside(values: NDArray, rect: Rect) -> None:
    """Zero ``values`` in place outside ``values[rect.slices]``, allocating
    nothing; ``rect`` lies in the grid, and an empty one zeroes every cell."""
    values[: rect.i0] = values[rect.i1 :] = 0.0
    values[:, : rect.j0] = values[:, rect.j1 :] = 0.0


def _cell_dot(a: NDArray, b: NDArray) -> NDArray:
    """``a . b`` per cell over a last axis of length 2 (or with one 2-vector ``b``)."""
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1]


def _sq_norm(x: NDArray) -> NDArray:
    """``|x|^2`` per cell over a last axis of length 2."""
    return _cell_dot(x, x)


@dataclass(eq=False)
class ScalarField:
    grid: Grid
    values: NDArray
    valid: Rect = None  # type: ignore[assignment]

    _vdim = 0

    def __post_init__(self):
        if self.valid is None:
            self.valid = self.grid.full_rect
        self.values = np.array(self.values, dtype=np.float64, order="C", copy=True)
        self._seal()

    @classmethod
    def _adopt(cls, grid: Grid, values: NDArray, valid: Rect):
        """Field that takes over ``values``, a fresh float64 array no one else holds."""
        f = cls.__new__(cls)
        f.grid, f.values, f.valid = grid, values, valid
        f._seal()
        return f

    def _seal(self) -> None:
        """Enforce the field invariant on the array the field owns."""
        shape = (self.grid.nx, self.grid.ny) + ((2,) if self._vdim else ())
        if self.values.shape != shape:
            raise DimensionError(
                f"field values have shape {self.values.shape}, expected {shape}"
            )
        v, g = self.valid, self.grid
        if not (0 <= v.i0 <= v.i1 <= g.nx and 0 <= v.j0 <= v.j1 <= g.ny):
            raise DimensionError(f"valid rect {v} does not lie in the {g.nx}x{g.ny} grid")
        if g.periodic and v != g.full_rect:
            raise DimensionError(f"a periodic field is valid on the whole grid, got {v}")
        _zero_outside(self.values, v)
        if not np.all(np.isfinite(self.values)):
            raise DomainError("field values must be finite")
        self.values.setflags(write=False)


@dataclass(eq=False)
class VectorField(ScalarField):
    _vdim = 2


def cell_sum(values: NDArray, rect: Rect) -> float:
    """Exactly rounded sum of ``values`` over ``rect``.

    The cells are split into blocks of at most about 64k.  Each block goes
    through rounds of error-free extraction (Rump, Ogita and Oishi, "Accurate
    floating-point summation, Part I", SIAM J. Sci. Comput. 2008): against a
    power of two ``sigma`` above the block's whole absolute sum,
    ``q = (sigma + a) - sigma`` keeps the leading bits of every value.  The
    ``q`` lie on one grid of spacing ``ulp(sigma)/2`` and sum exactly in
    numpy; ``a - q`` is exact too, and its nonzero entries, far smaller, go
    to the next round.  ``math.fsum`` then rounds the few exact partials and
    the short leftover once.  The result is the correctly rounded real sum,
    bitwise equal to ``math.fsum`` over the cells in any order, so it depends
    neither on the block size nor on the thread count.

    If a block holds a non-finite value or could sum to near the float
    range, all cells go to ``math.fsum`` in row-major order instead, so
    ``nan``, ``inf`` and overflow behave exactly as under ``math.fsum``.
    Leftovers below the normal range go to ``math.fsum`` as they are.  A sum
    beyond the float range (or ``inf - inf``) raises :class:`DomainError`.
    """
    if rect.empty:
        return 0.0
    si, sj = rect.slices
    block = values[si, sj]
    parts = _exact_parts(block)
    try:
        return math.fsum(block.ravel(order="C") if parts is None else parts)
    except (OverflowError, ValueError) as exc:
        raise DomainError(f"cell sum is not a finite float: {exc}") from None


_BLOCK_CELLS = 1 << 16
# a block whose sigma stays below 2**1000 cannot, even with millions of
# blocks, bring any partial or running sum near the float range
_MAX_SIGMA_EXP = 1000
_FLOAT_MIN = sys.float_info.min
_SHORT = 32  # leftovers at most this long go to math.fsum as they are


def _exact_parts(block: NDArray) -> list[float] | None:
    """Floats whose exact sum is the exact sum of ``block``, or None when a
    value is not finite or a block's sum may come near the float range."""
    ni = block.shape[0]
    block = block.reshape(ni, -1)  # trailing axes (vector fields) join the row
    nj = block.shape[1]
    cols = min(nj, _BLOCK_CELLS)
    rows = max(1, _BLOCK_CELLS // cols)
    parts: list[float] = []
    for i in range(0, ni, rows):
        for j in range(0, nj, cols):
            a = block[i : i + rows, j : j + cols]
            while a.size:
                amax = max(float(a.max()), -float(a.min()))
                if not math.isfinite(amax):
                    return None
                if amax < _FLOAT_MIN:  # zeros and subnormals add exactly
                    a = a[a != 0.0]
                    break
                exp = math.frexp(amax)[1] + (a.size + 2).bit_length()
                if exp > _MAX_SIGMA_EXP:
                    return None
                if a.size <= _SHORT:
                    break
                sigma = math.ldexp(1.0, exp)
                q = sigma + a
                q -= sigma
                parts.append(float(np.sum(q)))
                a = a - q
                a = a[a != 0.0]
            parts.extend(a.ravel().tolist())
    return parts


def _reach(f: ScalarField, offsets) -> Rect:
    """The part of ``f.valid`` where every lookup ``(i + di, j + dj)`` of
    ``offsets`` lands in ``f.valid``; on a periodic grid, where indices wrap,
    all of ``f.valid``."""
    v = rect = f.valid
    if f.grid.periodic:
        return v
    for di, dj in offsets:
        rect = rect.intersect(Rect(v.i0 - di, v.i1 - di, v.j0 - dj, v.j1 - dj))
    return rect


def _neighbours(f: ScalarField, *offsets: tuple[int, int]) -> tuple[list[NDArray], Rect]:
    """Per offset, a view indexed by ``(i, j)`` of the values at
    ``(i + di, j + dj)`` with wrapped indices, and ``_reach(f, offsets)``.

    The views share one copy of the values, wrapped around by the largest
    offset.  An empty reach is a :class:`DimensionError`.
    """
    rect = _reach(f, offsets)
    if rect.empty:
        raise DimensionError(f"empty valid set for the stencil {offsets}")
    h = max(max(abs(di), abs(dj)) for di, dj in offsets)
    pad = ((h, h), (h, h)) + ((0, 0),) * (f.values.ndim - 2)
    wrapped = np.pad(f.values, pad, mode="wrap")
    nx, ny = f.grid.nx, f.grid.ny
    return [wrapped[h + di : h + di + nx, h + dj : h + dj + ny] for di, dj in offsets], rect


def dpartial(v: ScalarField, axis: int) -> ScalarField:
    """Forward difference quotient along ``axis`` in {1, 2}."""
    if axis not in (1, 2):
        raise DomainError(f"axis must be 1 or 2, got {axis}")
    (ahead,), rect = _neighbours(v, (1, 0) if axis == 1 else (0, 1))
    return type(v)._adopt(v.grid, (ahead - v.values) / v.grid.spacing, rect)


def grad_d(v: ScalarField) -> VectorField:
    """Discrete gradient: the pair of forward differences of a scalar field."""
    (e1, e2), rect = _neighbours(v, (1, 0), (0, 1))
    x, l = v.values, v.grid.spacing
    return VectorField._adopt(v.grid, np.stack([(e1 - x) / l, (e2 - x) / l], axis=-1), rect)


def div_d(v: VectorField) -> ScalarField:
    (e1, e2), rect = _neighbours(v, (1, 0), (0, 1))
    x, l = v.values, v.grid.spacing
    div = (e1[..., 0] - x[..., 0]) / l + (e2[..., 1] - x[..., 1]) / l
    return ScalarField._adopt(v.grid, div, rect)


def curl_d(v: VectorField) -> ScalarField:
    (e1, e2), rect = _neighbours(v, (1, 0), (0, 1))
    x, l = v.values, v.grid.spacing
    curl = (e1[..., 1] - x[..., 1]) / l - (e2[..., 0] - x[..., 0]) / l
    return ScalarField._adopt(v.grid, curl, rect)


def laplace_shifted(phi: ScalarField) -> ScalarField:
    """Shifted discrete Laplacian: the standard 5-point stencil.

    Defined as the second forward differences evaluated at the left/lower
    shifted points, which collapses to
    ``(phi[i+1,j] + phi[i-1,j] + phi[i,j+1] + phi[i,j-1] - 4 phi[i,j]) / l^2``.
    """
    g = phi.grid
    if g.nx < 3 or g.ny < 3:
        raise DimensionError("shifted Laplacian needs at least a 3x3 grid")
    views, rect = _neighbours(phi, (1, 0), (-1, 0), (0, 1), (0, -1))
    total = -4.0 * phi.values
    for nb in views:
        total += nb
    return ScalarField._adopt(g, total / g.spacing**2, rect)


def format_float(x: float) -> str:
    """17-significant-digit decimal formatting (round-trips float64)."""
    return f"{x:.17g}"


def write_field_csv(f: ScalarField, path: str) -> None:
    """Write a field as ASCII CSV: the header ``i,j,v1[,v2]``, then one line
    per cell in row-major order with each value as ``%.17g`` (the bytes of
    :func:`format_float`), so every float64 reads back exactly.

    Lines are formatted one grid row at a time by a single ``%`` template, so
    the per-cell work runs in C and memory stays at one row of text.
    """
    vec = isinstance(f, VectorField)
    nx, ny = f.grid.nx, f.grid.ny
    row_fmt = "%d,%d,%.17g,%.17g\n" if vec else "%d,%d,%.17g\n"
    width = 4 if vec else 3
    values = f.values.reshape(nx, ny, -1)
    cells = [0] * (width * ny)
    cells[1::width] = range(ny)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("i,j,v1,v2\n" if vec else "i,j,v1\n")
        for i in range(nx):
            cells[0::width] = [i] * ny
            cells[2::width] = values[i, :, 0].tolist()
            if vec:
                cells[3::width] = values[i, :, 1].tolist()
            fh.write((row_fmt * ny) % tuple(cells))


def read_field_csv(path: str, grid: Grid) -> ScalarField | VectorField:
    """Read a field written by :func:`write_field_csv` onto ``grid``.

    The first line names the columns; ``i``, ``j`` and ``v1`` are required
    and ``v2`` makes a vector field.  The columns may come in any order and
    extra ones are ignored.  Every other line that is not blank holds one
    number per column, and these lines must give every cell of ``grid``
    exactly once, in any order.  Values written as ``%.17g`` read back bit
    for bit.

    Every bad file raises :class:`ConfigError`: a file that is not ASCII, a
    body that does not parse as numbers in as many columns as the header
    ("malformed"), a missing column ("columns"), an index that is not an
    integer inside the grid ("inside"), a cell given twice ("repeats") or
    not at all ("misses", also for a header with no rows), and a value that
    is not finite.  A missing or unreadable file raises ``OSError``.
    """
    try:
        with open(path, encoding="ascii") as fh:
            names = [name.strip() for name in fh.readline().split(",")]
            with warnings.catch_warnings():
                # a header-only file is the "misses" error below
                warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                        UserWarning)
                rows = (line for line in fh if not line.isspace())
                data = np.loadtxt(rows, delimiter=",", ndmin=2)
    except ValueError as exc:  # UnicodeDecodeError included
        raise ConfigError(f"{path}: malformed field CSV: {exc}") from None
    if not {"i", "j", "v1"} <= set(names):
        raise ConfigError(f"{path}: field CSV needs the columns i, j, v1[, v2]")
    if data.size == 0:
        data = data.reshape(0, len(names))
    if data.shape[1] != len(names):
        raise ConfigError(
            f"{path}: malformed field CSV: the header names {len(names)} columns, "
            f"the rows hold {data.shape[1]}"
        )
    vec = "v2" in names
    fi, fj = data[:, names.index("i")], data[:, names.index("j")]
    inside = (fi >= 0) & (fi < grid.nx) & (fj >= 0) & (fj < grid.ny)
    inside &= (np.floor(fi) == fi) & (np.floor(fj) == fj)
    if not np.all(inside):
        raise ConfigError(
            f"{path}: cell index is not an integer inside the {grid.nx}x{grid.ny} grid "
            f"at row {int(np.argmin(inside)) + 1}"
        )
    ii = fi.astype(int)
    jj = fj.astype(int)
    hits = np.bincount(ii * grid.ny + jj, minlength=grid.nx * grid.ny)
    if np.any(hits != 1):
        bad = int(np.argmax(hits != 1))
        what = "repeats" if hits[bad] > 1 else "misses"
        raise ConfigError(f"{path}: field CSV {what} cell {divmod(bad, grid.ny)}")
    v1 = data[:, names.index("v1")]
    if vec:
        cls, values = VectorField, np.empty((grid.nx, grid.ny, 2))
        values[ii, jj, 0] = v1
        values[ii, jj, 1] = data[:, names.index("v2")]
    else:
        cls, values = ScalarField, np.empty((grid.nx, grid.ny))
        values[ii, jj] = v1
    try:
        return cls._adopt(grid, values, grid.full_rect)
    except DomainError as exc:
        raise ConfigError(f"{path}: {exc}") from None
