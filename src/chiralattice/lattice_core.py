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

All cell reductions go through one exact accumulator, ``_ExactSum``.  It
extracts the values of each block of cells error-free into a few exact
partials in numpy and rounds their sum once with ``math.fsum``, so every sum
is the correctly rounded real sum: bit for bit the same whatever the blocks,
the thread count or the run order.  :func:`cell_sum` is the accumulator over
one block.  The streams the CLI runs (the energies ``E``, ``F`` and ``Hn``,
a gamma-table level, the entropy production and the ``diagnose`` report)
read row tiles (``_RowTile``) in one loop, ``_tile_sums``, whose kernels add
one block per tile, so no tile height changes a bit of their sums; each tiled
quantity that can be non-finite is sealed on the reach of its stencil, the
cells where a whole field of it would be valid.  The field seals work in
blocks of rows of the same size, the CSV writer in blocks of an eighth as
many cells and the CSV reader, in one pass over the file, in blocks of
96 KB of text, so a subcommand holds its one field and the arrays of one
tile.
"""

from __future__ import annotations

import functools
import io
import itertools
import math
import re
import sys
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigError, DimensionError, DomainError

if TYPE_CHECKING:
    from numpy.typing import NDArray

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


def _require_finite(values: NDArray) -> None:
    """The finiteness half of the field seal, on the cells it is given."""
    if not np.all(np.isfinite(values)):
        raise DomainError("field values must be finite")


def _by_rows(check, values: NDArray) -> None:
    """``check`` on each block of ``_row_blocks`` rows of ``values``, so that
    the check of a whole field holds the temporaries of one block only."""
    for i0, i1 in _row_blocks(*values.shape[:2]):
        check(values[i0:i1])


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
        _by_rows(_require_finite, self.values)
        self.values.setflags(write=False)


@dataclass(eq=False)
class VectorField(ScalarField):
    _vdim = 2


def cell_sum(values: NDArray, rect: Rect) -> float:
    """Exactly rounded sum of ``values`` over ``rect``: ``_ExactSum`` of one block.

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
    total = _ExactSum()
    total.add(values[rect.slices])
    return total.value()


class _ExactSum:
    """Exact running sum of blocks of cells, rounded once by :meth:`value`.

    Each block adds its exact partials (``_exact_parts``) or, when it has
    none, its cells in row-major order.  The partials of a block sum exactly
    to its cells, so the value is the correctly rounded sum of all cells
    added, the same float however they are cut into blocks; only a sum that
    leaves the float range part way depends, as under ``math.fsum``, on the
    order.  Blocks of at most ``_SHORT`` cells have no partials to extract:
    they wait, in order, and go in as one block before the next longer
    block, once ``_SHORT_WAIT`` of their cells wait, or at the value, so a
    stream of short blocks holds a few partials and not every cell.
    """

    def __init__(self):
        self._chunks: list = []
        self._short: list = []  # the short blocks waiting, in order
        self._waiting = 0

    def add(self, block: NDArray) -> None:
        if block.size > _SHORT:
            self._add_short()
            self._add(block)
        elif block.size:
            self._short.append(block.flatten())
            self._waiting += block.size
            if self._waiting >= _SHORT_WAIT:
                self._add_short()

    def _add_short(self) -> None:
        if self._short:
            self._add(np.concatenate(self._short))
            self._short, self._waiting = [], 0

    def _add(self, block: NDArray) -> None:
        parts = _exact_parts(block)
        self._chunks.append(block.ravel(order="C") if parts is None else parts)

    def value(self) -> float:
        self._add_short()
        try:
            return math.fsum(itertools.chain.from_iterable(self._chunks))
        except (OverflowError, ValueError) as exc:
            raise DomainError(f"cell sum is not a finite float: {exc}") from None


_BLOCK_CELLS = 1 << 16
# a block whose sigma stays below 2**1000 cannot, even with millions of
# blocks, bring any partial or running sum near the float range
_MAX_SIGMA_EXP = 1000
_FLOAT_MIN = sys.float_info.min
_SHORT = 32  # leftovers at most this long go to math.fsum as they are
_SHORT_WAIT = 1 << 10  # cells of short blocks an accumulator holds unextracted


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


# the lookups of the 5-point stencil, and of the forward differences
_CROSS = ((1, 0), (-1, 0), (0, 1), (0, -1))
_AHEAD = ((1, 0), (0, 1))


def _reach(f: ScalarField, offsets) -> Rect:
    """The part of ``f.valid`` where every lookup ``(i + di, j + dj)`` of
    ``offsets`` lands in ``f.valid``; on a periodic grid, where indices wrap,
    all of ``f.valid``."""
    return _reach_rect(f.valid, f.grid.periodic, offsets)


def _reach_rect(v: Rect, periodic: bool, offsets) -> Rect:
    """``_reach`` of a field valid on ``v``, for callers that hold no field."""
    if periodic:
        return v
    rect = v
    for di, dj in offsets:
        rect = rect.intersect(Rect(v.i0 - di, v.i1 - di, v.j0 - dj, v.j1 - dj))
    return rect


def _views(wrapped: NDArray, h: int, offsets) -> list[NDArray]:
    """Per offset, the view indexed by ``(i, j)`` of the value at
    ``(i + di, j + dj)`` in ``wrapped``, values with a margin of ``h`` cells."""
    n, m = wrapped.shape[0] - 2 * h, wrapped.shape[1] - 2 * h
    return [wrapped[h + di : h + di + n, h + dj : h + dj + m] for di, dj in offsets]


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
    return _views(np.pad(f.values, pad, mode="wrap"), h, offsets), rect


# cells per row tile of the streams and per block of the field seals (the
# CSV writer's blocks are an eighth of it); like _BLOCK_CELLS it sets memory
# and speed only, never a bit of a result
_TILE_CELLS = 1 << 15


def _row_blocks(nx: int, ny: int) -> list[tuple[int, int]]:
    """The rows ``0 .. nx - 1`` cut into ranges ``i0 .. i1 - 1`` of about
    ``_TILE_CELLS`` cells of rows ``ny`` long."""
    step = max(1, _TILE_CELLS // max(ny, 1))
    return [(i0, min(i0 + step, nx)) for i0 in range(0, nx, step)]


@dataclass(frozen=True)
class _RowTile:
    """The rows ``i0 .. i1 - 1`` of a field valid on ``valid``, read as
    ``values[index]`` with a margin of ``m`` cells: rows ``i0 - m .. i1 + m - 1``
    and columns ``-m .. ny + m - 1``, wrapped as in ``_neighbours``."""

    i0: int
    i1: int
    index: tuple[NDArray, NDArray]
    valid: Rect
    periodic: bool

    def cells(self, offsets, margin: int, region: Rect | None = None) -> tuple[slice, slice]:
        """Where the stencil ``offsets`` reaches, as on a whole field, cut to
        ``region`` and to the tile's rows: slices into a tile array whose
        ``[0, 0]`` is the cell ``(i0 - margin, -margin)``."""
        rect = _reach_rect(self.valid, self.periodic, offsets)
        if region is not None:
            rect = rect.intersect(region)
        a, b, r = max(rect.i0, self.i0), min(rect.i1, self.i1), self.i0 - margin
        return slice(a - r, max(a, b) - r), slice(rect.j0 + margin, max(rect.j0, rect.j1) + margin)

    def seal(self, offsets, margin: int, *arrays: NDArray) -> None:
        """The finiteness seal of each array on its ``cells(offsets, margin)``."""
        cells = self.cells(offsets, margin)
        for values in arrays:
            _require_finite(values[cells])


def _tile_sums(grid: Grid, valid: Rect, n: int, kernel, margin: int = 1) -> list[float]:
    """The values of ``n`` exact accumulators once ``kernel(tile, sums)`` has
    added its blocks for each row tile (``_row_blocks``), with a margin of
    ``margin`` cells, of a field on ``grid`` valid on ``valid``, in order."""
    nx, ny = grid.nx, grid.ny
    cols = np.arange(-margin, ny + margin) % ny
    sums = [_ExactSum() for _ in range(n)]
    for i0, i1 in _row_blocks(nx, ny):
        index = np.ix_(np.arange(i0 - margin, i1 + margin) % nx, cols)
        kernel(_RowTile(i0, i1, index, valid, grid.periodic), sums)
    return [s.value() for s in sums]


def _forward_grad(x: NDArray, right: NDArray, up: NDArray, l: float) -> NDArray:
    """The pair of forward differences of ``x`` against its views ahead."""
    return np.stack([(right - x) / l, (up - x) / l], axis=-1)


def _laplace(x: NDArray, cross: list[NDArray], l: float) -> NDArray:
    """The 5-point Laplacian of ``x`` against its views at ``(1, 0), (-1, 0),
    (0, 1), (0, -1)``."""
    total = -4.0 * x
    for nb in cross:
        total += nb
    return total / l**2


def _div(x: NDArray, right: NDArray, up: NDArray, l: float) -> NDArray:
    """The forward divergence of the vectors ``x`` against their views ahead."""
    return (right[..., 0] - x[..., 0]) / l + (up[..., 1] - x[..., 1]) / l


def _curl(x: NDArray, right: NDArray, up: NDArray, l: float) -> NDArray:
    """The forward curl of the vectors ``x`` against their views ahead."""
    return (right[..., 1] - x[..., 1]) / l - (up[..., 0] - x[..., 0]) / l


def dpartial(v: ScalarField, axis: int) -> ScalarField:
    """Forward difference quotient along ``axis`` in {1, 2}."""
    if axis not in (1, 2):
        raise DomainError(f"axis must be 1 or 2, got {axis}")
    (ahead,), rect = _neighbours(v, (1, 0) if axis == 1 else (0, 1))
    return type(v)._adopt(v.grid, (ahead - v.values) / v.grid.spacing, rect)


def grad_d(v: ScalarField) -> VectorField:
    """Discrete gradient: the pair of forward differences of a scalar field."""
    (e1, e2), rect = _neighbours(v, (1, 0), (0, 1))
    return VectorField._adopt(v.grid, _forward_grad(v.values, e1, e2, v.grid.spacing), rect)


def div_d(v: VectorField) -> ScalarField:
    (e1, e2), rect = _neighbours(v, (1, 0), (0, 1))
    return ScalarField._adopt(v.grid, _div(v.values, e1, e2, v.grid.spacing), rect)


def curl_d(v: VectorField) -> ScalarField:
    (e1, e2), rect = _neighbours(v, (1, 0), (0, 1))
    return ScalarField._adopt(v.grid, _curl(v.values, e1, e2, v.grid.spacing), rect)


def laplace_shifted(phi: ScalarField) -> ScalarField:
    """Shifted discrete Laplacian: the standard 5-point stencil.

    Defined as the second forward differences evaluated at the left/lower
    shifted points, which collapses to
    ``(phi[i+1,j] + phi[i-1,j] + phi[i,j+1] + phi[i,j-1] - 4 phi[i,j]) / l^2``.
    """
    g = phi.grid
    if g.nx < 3 or g.ny < 3:
        raise DimensionError("shifted Laplacian needs at least a 3x3 grid")
    views, rect = _neighbours(phi, *_CROSS)
    return ScalarField._adopt(g, _laplace(phi.values, views, g.spacing), rect)


_G17 = ".17g"  # every float the package writes, to read back bit for bit


def format_float(x: float) -> str:
    """17-significant-digit decimal formatting (round-trips float64)."""
    return format(x, _G17)


@functools.cache
def _groups() -> NDArray:
    """The 4-digit groups 0..9999 as '<u4' words of ASCII digits: in full
    ("0012"), then without trailing zeros ("12", 0 as ""), then without
    leading zeros ("12", 0 as "0"), a dropped digit as NUL.  Built at the
    first write, in uint8, to keep the import's time and memory."""
    d = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T.copy()  # the digits of 0..9999
    zero = d == 0
    trail = np.logical_and.accumulate(zero[:, ::-1], axis=1)[:, ::-1]
    lead = np.logical_and.accumulate(zero, axis=1)
    lead[:, 3] = False  # 0 keeps its last digit
    d = d + np.uint8(ord("0"))
    words = np.concatenate([d, np.where(trail, np.uint8(0), d), np.where(lead, np.uint8(0), d)])
    words = words.view("<u4").ravel()
    words.setflags(write=False)
    return words


# The text before the last 16 digits, as '<u8' words at [sign, e, d]: a
# "-" or not, then "0." and 3 - e zeros for the decade e = 0..3 of
# [1e-4, 1), or neither for e = 4 (the values 0 and 1), then the lead digit d.
_HEADS = np.frombuffer(b"".join(
    (sign + ("0." + "0" * (3 - e) if e < 4 else "") + str(d)).encode().ljust(8, b"\0")
    for sign in ("", "-") for e in range(5) for d in range(10)), "<u8")
_U = np.uint64
_POW5 = np.array([5**20, 5**19, 5**18, 5**17], _U)
# |x| as bits, which order as the magnitudes do
_B1E4, _B1E3, _B1E2, _B1E1, _B1, _BHALF = np.array([1e-4, 1e-3, 1e-2, 0.1, 1.0, 0.5]).view(_U)
_M32 = _U(0xFFFFFFFF)


def _float_text(x: NDArray) -> NDArray:
    """:func:`format_float`'s text of each value of the 1-D float64 ``x``,
    as rows of 24 bytes padded with NULs and spaces.  ``±0`` and every
    ``1e-4 <= |x| <= 1`` (all spin components but rare near-zero ones) are
    written from integers (``_digits17``), the same at every SIMD level: the
    sign, ``0.`` and ``-k`` zeros for the decade ``[10^(k-1), 10^k)``, the
    lead digit and four 4-digit groups, the last nonzero one without its
    trailing zeros.  The other values take the rule (``_rule_text``)."""
    bits = x.view(_U)
    a = bits & _U(0x7FFFFFFFFFFFFFFF)
    fast = (a >= _B1E4) & (a <= _B1)
    zero = a == 0
    slow = np.flatnonzero(~(fast | zero))
    if slow.size == x.size:
        return _rule_text(x)
    rows = np.zeros((x.size, 6), "<u4")  # the head word, then the groups
    e, lead = 4, 0  # "0" in every row, when no value is in range
    if fast.any():
        a[~fast] = _BHALF  # a value in range, for shifts that stay in range
        e, d = _digits17(a)
        e[zero] = 4
        d[zero] = 0
        tail = np.ones(x.size, bool)  # the groups after this one are zero
        q = np.empty_like(d)
        for g in range(5, 1, -1):  # the 4-digit groups, last first
            np.divmod(d, 10000, out=(d, q))
            blank = q == 0
            q += tail * 10000
            rows[:, g] = _groups().take(q)
            tail &= blank
        lead = d
    rows.view("<u8")[:, 0] = _HEADS.take((bits >> _U(63)).view(np.int64) * 50 + e * 10 + lead)
    rows = rows.view(np.uint8)
    if slow.size:
        rows[slow] = _rule_text(x[slow])
    return rows


def _rule_text(x: NDArray) -> NDArray:
    """:func:`format_float`'s text of each value of ``x``, from one ``%``
    template, as rows padded with spaces to 24, the longest text's length."""
    text = (f"%-24{_G17}" * x.size) % tuple(x.tolist())
    return np.frombuffer(text.encode("ascii"), np.uint8).reshape(x.size, 24)


def _digits17(a: NDArray) -> tuple[NDArray, NDArray]:
    """The decade ``e = k + 3`` and the 17 digits ``D`` of each double
    ``1e-4 <= |x| <= 1`` given by its bits ``a``: ``x = D 10^(k-17)`` rounded
    half to even, in integers.  The decade ``[10^(k-1), 10^k)`` comes from
    exact comparisons, and for ``|x| = m 2^E``, ``D = round(m 5^(17-k)
    2^(E+17-k))`` in two 64-bit limbs, shifted 36 to 46 bits.  Each decade
    starts at a double above its decimal value, so ``D < 10^17`` but for
    ``|x| = 1``, returned as ``D = 10^16`` in the decade ``e = 4``."""
    e = (a >= _B1E3).view(np.uint8) + (a >= _B1E2).view(np.uint8)
    e += (a >= _B1E1).view(np.uint8)
    u = 1023 - (a >> _U(52)).view(np.int64)  # the shift, less 32
    u += e
    u = u.view(_U)
    c0 = _POW5.take(e)
    c1 = c0 >> _U(32)
    c0 &= _M32
    m0 = (a & _U((1 << 52) - 1)) | _U(1 << 52)
    m1 = m0 >> _U(32)
    m0 &= _M32
    low = m0 * c0
    mid = m1 * c0  # the product is m1 c1 2^64 + mid 2^32 + low
    m0 *= c1
    mid += m0
    mid += low >> _U(32)
    d = mid >> u
    m1 *= c1
    m1 <<= _U(32) - u
    d += m1
    mid &= (_U(1) << u) - _U(1)  # the remainder, from here on
    mid <<= _U(32)
    low &= _M32
    mid |= low
    mid += d & _U(1)  # a tie rounds up from an odd d only
    d += mid > (_U(1) << (u + _U(31)))
    d = d.view(np.int64)
    one = d == 10**17
    e[one] = 4
    d[one] = 10**16
    return e, d


def _int_text(n: NDArray, groups: int) -> NDArray:
    """The decimal text of each int ``0 <= n < 10^(4 groups)`` as rows of
    ``4 groups`` bytes, NUL-padded on the left."""
    words = np.empty((n.size, groups), "<u4")
    for g in range(groups):
        q = n // 10 ** (4 * (groups - 1 - g))  # the digits up to this group
        index = q % 10000 + 20000 * (q < 10000)
        if g < groups - 1:
            index[q == 0] = 10000  # blank above the leading digit
        words[:, g] = _groups().take(index)
    return words.view(np.uint8)


def write_field_csv(f: ScalarField, path: str) -> None:
    """Write a field as ASCII CSV: the header ``i,j,v1[,v2]``, then one line
    per cell in row-major order with each value as ``%.17g`` (the bytes of
    :func:`format_float`), so every float64 reads back exactly.

    Blocks of an eighth of a row tile of cells are laid out with each field
    at a fixed column of a padded row and written without the padding, so
    memory stays at one block whatever the grid's shape.  (A vector block's
    temporaries are then 64 KB; from 128 KB glibc maps each one afresh, and
    the formatter measured twice as slow per value.)
    """
    nv = 2 if isinstance(f, VectorField) else 1
    nx, ny = f.grid.nx, f.grid.ny
    step = max(1, _TILE_CELLS // 8)
    gi, gj = (len(str(nx - 1)) + 3) // 4, (len(str(ny - 1)) + 3) // 4
    values = f.values.reshape(-1)
    line = np.zeros((min(step, nx * ny), 4 * (gi + gj) + 25 * nv + 2), np.uint8)
    line[:, 4 * gi] = ord(",")
    line[:, -1] = ord("\n")
    texts = line[:, 4 * (gi + gj) + 1 : -1].reshape(len(line), nv, 25)
    texts[:, :, 0] = ord(",")
    with open(path, "wb") as fh:
        fh.write(b"i,j,v1,v2\n" if nv == 2 else b"i,j,v1\n")
        for c0 in range(0, nx * ny, step):
            c1 = min(c0 + step, nx * ny)
            i, j = np.divmod(np.arange(c0, c1), ny)
            line[: c1 - c0, : 4 * gi] = _int_text(i, gi)
            line[: c1 - c0, 4 * gi + 1 : 4 * (gi + gj) + 1] = _int_text(j, gj)
            texts[: c1 - c0, :, 1:] = _float_text(values[c0 * nv : c1 * nv]).reshape(-1, nv, 24)
            fh.write(line[: c1 - c0].tobytes().translate(None, b"\0 "))


# The reader takes blocks of at most _READ_BYTES bytes cut at line ends (a
# longer line grows the buffer for the rest of the file), after _PAD bytes
# kept for the 8-byte loads that end in the block's first tokens; like
# _TILE_CELLS it sets memory and speed only.
# (From 128 KB, glibc maps a block's temporaries afresh and holds more:
# 128 KB blocks raised the reader's peak resident memory by 0.2 MB.)
_READ_BYTES = 96 << 10
_PAD = 24
_LINE_END = re.compile(rb"\r\n?|\n")
_ZEROS = _U(0x3030303030303030)  # "00000000"
_HIGH = _U(0x8080808080808080)
_DIGIT_LIMIT = _U(0x7676767676767676)  # 0x76 + b sets the high bit for 9 < b < 0x80
_PAIRS = _U(0x000000FF000000FF)
_MUL1, _MUL2 = _U(100 + (10**6 << 32)), _U(1 + (10**4 << 32))
# the groups of 8 digits before a token's last 8: where each ends before
# the token's end, and how many digits come after it
_GROUP_ENDS = np.array([[16], [24]])
_GROUP_SKIPS = np.array([[8], [16]])
_NEIGHBOURS = np.array([[1], [(1 << 64) - 1]], _U)  # + 1 and - 1 in the last bit


@functools.cache
def _read_tables() -> tuple[NDArray, NDArray, NDArray]:
    """The reader's lookup tables, built at the first read: the mask that
    keeps the last ``n`` bytes of a '<u8' word for ``n = 0..8``, and
    ``10^n`` for ``n = 0..17`` in uint64 and ``0..20`` in float64."""
    keep = np.array([((1 << 8 * n) - 1) << (64 - 8 * n) for n in range(9)], _U)
    return keep, np.array([10**n for n in range(18)], _U), 10.0 ** np.arange(21)


def _digits8(words: NDArray, n: NDArray) -> tuple[NDArray, NDArray]:
    """The number written by the last ``n <= 8`` bytes of each little-endian
    word, and whether those bytes are all ASCII digits.  The bytes before
    them read as leading zeros; eight digits combine in three multiplies
    (SWAR, as in Lemire, "Number parsing at a gigabyte per second", 2021)."""
    v = words ^ _ZEROS
    v &= _read_tables()[0].take(n)
    digits = ((v + _DIGIT_LIMIT) | v) & _HIGH == 0
    v *= _U(10 * 256 + 1)
    v >>= _U(8)  # byte k: 10 d_k + d_(k+1), a pair of digits at even k
    t = v >> _U(16)
    t &= _PAIRS
    t *= _MUL2
    v &= _PAIRS
    v *= _MUL1
    v += t
    v >>= _U(32)
    return v, digits


def _is_17_digits(bits: NDArray, whole: NDArray, m: NDArray) -> NDArray:
    """Whether each double, given by the bits of ``|x|``, is written by
    ``%.17g`` as ``whole 10^-m``: ``1e-4 <= |x| <= 1`` and ``_digits17``,
    the writer's own digits, give back the same number.  As ``%.17g`` is
    one to one on doubles, such an ``x`` is ``float`` of that text."""
    ok = (bits >= _B1E4) & (bits <= _B1)
    e, digits = _digits17(np.where(ok, bits, _BHALF))
    shift = 20 - m - e  # the digits' 10^(e - 20) over 10^-m
    ok &= (shift >= 0) & (shift <= 16)
    np.minimum(np.maximum(shift, 0, out=shift), 16, out=shift)
    pow10 = _read_tables()[1]
    ok &= whole < pow10.take(17 - shift)
    ok &= whole * pow10.take(shift) == digits.view(_U)
    return ok


def _parse_tokens(buf: NDArray, words: NDArray, end: NDArray,
                  size: NDArray) -> tuple[NDArray, NDArray]:
    """The values of tokens of ``size`` bytes that end before the bytes
    ``end`` of ``buf``, and a mask of those left to ``_loadtxt``: integers
    of up to 8 digits are exact, and the others go to ``_parse_decimals``
    with the number their last 8 bytes write."""
    low, digits = _digits8(words[end - 8], np.minimum(size, 8))
    ok = digits & (size <= 8)
    value = low.astype(np.float64)
    rest = np.flatnonzero(~ok)
    if rest.size:
        low, digits = low[rest], digits[rest]  # and the whole-block arrays go
        value[rest], ok[rest] = _parse_decimals(buf, words, end[rest], size[rest], low, digits)
    return value, ~ok


def _parse_decimals(buf: NDArray, words: NDArray, end: NDArray, size: NDArray,
                    low: NDArray, digits: NDArray) -> tuple[NDArray, NDArray]:
    """The values of the tokens of the writer's form ``[-]0.<m digits>``,
    ``1 <= m <= 20``, and a mask of those read exactly; ``low`` and
    ``digits`` are ``_digits8`` of each token's last ``min(size, 8)`` bytes.

    Such a token is ``D 10^-m``.  ``D / 10^m`` in floats, or a neighbour
    1 ulp away, is its value when ``_is_17_digits`` confirms it."""
    start = end - size
    neg = buf[start] == ord("-")
    start += neg
    form = (buf[start] == ord("0")) & (buf[start + 1] == ord("."))
    m = end - start - 2  # the digits after "0."
    form &= (m >= 1) & (m <= 20)
    if not form.any():
        return np.zeros(end.size), form
    np.minimum(np.maximum(m, 0, out=m), 20, out=m)
    short = np.flatnonzero(m < 8)  # the last 8 bytes hold the "."
    if short.size:
        low[short], digits[short] = _digits8(words[end[short] - 8], m[short])
    whole, digits = _all_digits(words, end, m, low, digits)
    form &= digits
    x = _quotient(whole, m)
    bits = x.view(_U)
    exact = form & _is_17_digits(bits, whole, m)
    miss = np.flatnonzero(form & ~exact)
    if miss.size:  # the two neighbours of each miss, in one pass
        near = bits[miss] + _NEIGHBOURS
        up, down = _is_17_digits(near, whole[miss], m[miss])
        bits[miss] = np.where(up, near[0], near[1])
        exact[miss] = up | down
    bits |= neg.astype(_U) << _U(63)
    return x, exact


def _all_digits(words: NDArray, end: NDArray, m: NDArray, low: NDArray,
                digits: NDArray) -> tuple[NDArray, NDArray]:
    """The number ``D`` written by the ``m <= 20`` bytes before ``end``, and
    whether they are all digits, given ``_digits8`` of the last 8 of them:
    the digits before those, in two groups of 8, last first."""
    parts, ok = _digits8(words[end - _GROUP_ENDS], np.minimum(np.maximum(m - _GROUP_SKIPS, 0), 8))
    pow10 = _read_tables()[1]
    return (low + parts[0] * pow10[8] + parts[1] * pow10[16],
            digits & ok[0] & ok[1] & (parts[1] < _U(10)))


def _quotient(whole: NDArray, m: NDArray) -> NDArray:
    """``D / 10^m`` to within 1 ulp, from D's low 12 bits and the rest,
    each an exact float."""
    scale = _read_tables()[2].take(m)
    low12 = whole & _U(0xFFF)
    x = (whole - low12).astype(np.float64) / scale
    x += low12.astype(np.float64) / scale
    return x


def _number_bytes(text: NDArray) -> NDArray:
    """Which bytes are ``0-9 + - . e E``, a ``,`` or a line end."""
    ok = (text - np.uint8(ord("+"))) <= np.uint8(ord("9") - ord("+"))
    ok &= text != ord("/")
    ok |= (text == ord("e")) | (text == ord("E")) | (text == ord("\n"))
    return ok


def _plain_rows(raw: bytearray, lo: int, hi: int, ncol: int) -> NDArray | None:
    """The rows ``np.loadtxt`` reads from ``raw[lo:hi]``, whole lines of
    ``ncol`` non-empty tokens split by ``,`` and ended by ``\\n``, parsed in
    numpy; or None when a line is not of that form, when more than one token
    in 8 lines is not an integer or of the writer's form, or when one such
    token is not a number of ``0-9 + - . e E`` that ``np.loadtxt`` reads.
    ``raw`` holds ``_PAD`` bytes before ``lo`` for the 8-byte loads.

    ``_parse_tokens`` checks every byte of the tokens it reads; those it
    leaves go, joined as one row, to one ``_loadtxt`` call."""
    buf = np.frombuffer(raw, np.uint8)
    # the 8 bytes from each byte on as a '<u8' word: a gather is a load of each
    words = np.ndarray((len(raw) - 7,), "<u8", buffer=raw, strides=(1,))
    block = buf[lo:hi]
    cut = np.flatnonzero((block == ord(",")) | (block == ord("\n")))
    lines = cut.size // ncol
    line_end = block[cut] == ord("\n")
    if (not lines or cut.size % ncol or np.count_nonzero(line_end) != lines
            or not line_end[ncol - 1 :: ncol].all()):
        return None
    size = np.empty_like(cut)  # the bytes between a delimiter and the one before
    size[0] = cut[0]
    np.subtract(cut[1:], cut[:-1] + 1, out=size[1:])
    if size.min() < 1:
        return None
    cut += lo
    data, other = _parse_tokens(buf, words, cut, size)
    token = np.flatnonzero(other)
    if 8 * token.size > lines:
        return None
    if token.size:
        text = b",".join(buf.data[e - n : e] for e, n in zip(cut[token].tolist(),
                                                             size[token].tolist()))
        if not np.all(_number_bytes(np.frombuffer(text, np.uint8))):
            return None
        try:
            parsed = _loadtxt([text.decode("ascii")])
        except ValueError:
            return None
        if parsed.shape != (1, token.size):
            return None
        data[token] = parsed[0]
    return data.reshape(lines, ncol)


def _loadtxt(rows) -> NDArray:
    return np.loadtxt(rows, delimiter=",", ndmin=2)


def _loadtxt_block(text: bytearray) -> NDArray:
    """The rows ``np.loadtxt`` reads from the lines of ``text`` that are not
    blank, decoded as ASCII and split at ``\\n``, ``\\r\\n`` and ``\\r`` as
    in text mode."""
    lines = io.StringIO(text.decode("ascii"), newline=None)
    return _loadtxt(line for line in lines if not line.isspace())


def _whole_file_error(path: str) -> None:
    """Parse the body of ``path`` in one call, for the ``ValueError`` with
    the message and row number a single ``np.loadtxt`` gives."""
    with open(path, encoding="ascii") as fh, warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        fh.readline()
        _loadtxt(line for line in fh if not line.isspace())


class _FieldRows:
    """The field that blocks of parsed CSV rows fill, one row per cell."""

    def __init__(self, header: str, grid: Grid):
        self.names = [name.strip() for name in header.split(",")]
        self.grid = grid
        self.columns = (all(self.names.count(name) == 1 for name in ("i", "j", "v1"))
                        and self.names.count("v2") <= 1)
        self.values = np.empty((grid.nx * grid.ny, 2 if "v2" in self.names else 1))
        self.given = np.zeros(grid.nx * grid.ny, dtype=np.uint8)  # 0, 1, or 2 for twice or more
        self.width = self.bad_row = None  # the columns of the first row; the first row off the grid
        self.offset = 0  # the rows added

    def add(self, data: NDArray) -> None:
        self.width = data.shape[1]
        if self.columns and self.width == len(self.names) and self.bad_row is None:
            row = _place_rows(data, self.names, self.grid, self.values, self.given)
            self.bad_row = None if row is None else self.offset + row
        self.offset += len(data)

    def field(self, path: str) -> ScalarField | VectorField:
        nx, ny = self.grid.nx, self.grid.ny
        if not self.columns:
            raise ConfigError(f"{path}: field CSV needs the columns i, j, v1[, v2]")
        if self.width is not None and self.width != len(self.names):
            raise ConfigError(
                f"{path}: malformed field CSV: the header names {len(self.names)} columns, "
                f"the rows hold {self.width}"
            )
        if self.bad_row is not None:
            raise ConfigError(
                f"{path}: cell index is not an integer inside the {nx}x{ny} grid "
                f"at row {self.bad_row}"
            )
        if np.any(self.given != 1):
            bad = int(np.argmax(self.given != 1))
            what = "repeats" if self.given[bad] > 1 else "misses"
            raise ConfigError(f"{path}: field CSV {what} cell {divmod(bad, ny)}")
        vec = self.values.shape[1] == 2
        cls = VectorField if vec else ScalarField
        try:
            return cls._adopt(self.grid, self.values.reshape((nx, ny, 2) if vec else (nx, ny)),
                              self.grid.full_rect)
        except DomainError as exc:
            raise ConfigError(f"{path}: {exc}") from None


def read_field_csv(path: str, grid: Grid) -> ScalarField | VectorField:
    """Read a field written by :func:`write_field_csv` onto ``grid``.

    The first line names the columns; ``i``, ``j`` and ``v1`` are required
    once each and ``v2``, at most once, makes a vector field.  The columns
    may come in any order and extra ones are ignored.  Every other line
    that is not blank holds one number per column, as ``np.loadtxt`` reads
    it, and these lines must give every cell of ``grid`` exactly once, in
    any order.  Values written as ``%.17g`` read back bit for bit.  Lines
    end as in text mode, at ``\\n``, ``\\r\\n`` or ``\\r``.

    Every bad file raises :class:`ConfigError`: a file that is not ASCII, a
    body that does not parse as numbers in as many columns as the header
    ("malformed"), a missing or repeated column ("columns"), an index that
    is not an integer inside the grid ("inside"), a cell given twice
    ("repeats") or not at all ("misses", also for a header with no rows),
    and a value that is not finite.  A missing or unreadable file raises
    ``OSError``.

    The file is read once, in blocks of whole lines of up to
    ``_READ_BYTES`` bytes (a longer line grows them).  Each is parsed in
    numpy (``_plain_rows``): integers of up to 8 digits are exact, and a
    value of the writer's form ``[-]0.<digits>`` is taken only when
    ``_digits17``, the writer's own digits, gives back its digits; each
    block's few other tokens go to one ``np.loadtxt`` call.  From the
    first block that holds a line of another form (a blank line, a
    comment, a ``\\r``, a space, a byte that is not ASCII) or more than one
    other token in 8 lines, ``np.loadtxt`` parses every block.  A read that
    fails parses the whole body again in one ``np.loadtxt`` call for its
    message.  So every file reads to the bits, and fails with the message
    and row number, of one ``np.loadtxt`` parse of the whole body.  The
    reader holds the field, one byte per cell to count the cells given,
    and one block.
    """
    try:
        try:
            with open(path, "rb") as fh, warnings.catch_warnings():
                # a block of comments only is skipped, as in a single parse
                warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                        UserWarning)
                rows = _read_rows(fh, grid)
        except ValueError:  # UnicodeDecodeError included
            _whole_file_error(path)
            raise
    except ValueError as exc:
        raise ConfigError(f"{path}: malformed field CSV: {exc}") from None
    return rows.field(path)


def _read_rows(fh, grid: Grid) -> _FieldRows:
    """The header and rows of the field CSV open in ``fh``.  Each block is
    cut at its last ``\\n``, or at its last ``\\r`` when it holds no
    ``\\n``; a line longer than the buffer doubles it.  ``_plain_rows``
    parses the blocks up to the first that it refuses, and ``np.loadtxt``
    that block and every later one.  The header is the first line, up to
    its first ``\\r`` or ``\\n``."""
    size, held = _READ_BYTES, 0  # the room for a block; the bytes of a line begun
    raw = bytearray(_PAD + size + 1)  # and a line end after a last line with none
    rows, plain = None, True
    while True:
        if held == size:  # a line longer than the buffer
            raw = raw + bytes(size)
            size *= 2
        got = fh.readinto(memoryview(raw)[_PAD + held : _PAD + size])
        end = _PAD + held + got
        if not got:  # the end of the file
            if not held:
                return rows or _FieldRows("", grid)
            raw[end] = ord("\n")
            end += 1
        cut = raw.rfind(b"\n", _PAD, end) + 1 or raw.rfind(b"\r", _PAD, end) + 1
        if not cut:
            held = end - _PAD
            continue
        lo = _PAD
        if rows is None:
            line_end = _LINE_END.search(raw, _PAD, cut)
            rows = _FieldRows(raw[_PAD : line_end.start()].decode("ascii"), grid)
            lo = line_end.end()
        if lo < cut:
            data = _plain_rows(raw, lo, cut, len(rows.names)) if plain else None
            if data is None:
                plain = False
                data = _loadtxt_block(raw[lo:cut])
                if data.size and data.shape[1] != (rows.width or data.shape[1]):
                    raise ValueError("the number of columns changed")
            if data.size:
                rows.add(data)
        held = end - cut
        raw[_PAD : _PAD + held] = raw[cut:end]


def _place_rows(data: NDArray, names: list[str], grid: Grid, values: NDArray,
                given: NDArray) -> int | None:
    """Put the values of a block of parsed rows into ``values`` (one row per
    cell, row-major) and count their cells in ``given``, up to 2.  Returns
    the 1-based row in the block of the first index that is not a cell of
    the grid, with nothing put, or None.  A block of consecutive cells (the
    writer's order) holds no cell twice, so it goes by slices, with no sort."""
    fi, fj = data[:, names.index("i")], data[:, names.index("j")]
    inside = (fi >= 0) & (fi < grid.nx) & (fj >= 0) & (fj < grid.ny)
    inside &= (np.floor(fi) == fi) & (np.floor(fj) == fj)
    if not np.all(inside):
        return int(np.argmin(inside)) + 1
    cell = fi.astype(int) * grid.ny + fj.astype(int)
    c0 = int(cell[0])
    if np.array_equal(cell, np.arange(c0, c0 + len(cell))):  # the writer's row-major order
        cell = slice(c0, c0 + len(cell))
        given[cell] = np.minimum(given[cell] + 1, 2)
    else:
        ordered = np.sort(cell)
        twice = np.concatenate((ordered[1:][ordered[1:] == ordered[:-1]], cell[given[cell] > 0]))
        given[cell] = 1
        given[twice] = 2
    values[cell, 0] = data[:, names.index("v1")]
    if values.shape[1] == 2:
        values[cell, 1] = data[:, names.index("v2")]
    return None
