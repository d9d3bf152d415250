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
cells where a whole field of it would be valid.  The field seals and the CSV
reader work in blocks of rows of the same size, and the CSV writer in blocks
of an eighth as many cells, so a subcommand holds its one field and the
arrays of one tile.
"""

from __future__ import annotations

import functools
import itertools
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
    order.
    """

    def __init__(self):
        self._chunks: list = []

    def add(self, block: NDArray) -> None:
        if block.size:
            parts = _exact_parts(block)
            self._chunks.append(block.ravel(order="C") if parts is None else parts)

    def value(self) -> float:
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


# cells per row tile of the streams, per block of the field seals and per
# block of lines the CSV reader parses; like _BLOCK_CELLS it sets memory and
# speed only, never a bit of a result
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


def _loadtxt(rows, max_rows=None) -> NDArray:
    return np.loadtxt(rows, delimiter=",", ndmin=2, max_rows=max_rows)


def _whole_file_error(path: str) -> None:
    """Parse the body of ``path`` in one call, for the ``ValueError`` with
    the message and row number a single ``np.loadtxt`` gives."""
    with open(path, encoding="ascii") as fh, warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        fh.readline()
        _loadtxt(line for line in fh if not line.isspace())


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

    The body is parsed ``_TILE_CELLS`` rows at a time into the field's own
    array, with one byte per cell to count the cells given, so the reader
    holds the field and one block of rows.  The errors, and the row numbers
    in them, are those of one parse of the whole body: a block that fails to
    parse after the first is parsed again with the whole body.
    """
    nx, ny = grid.nx, grid.ny
    width = bad_row = None  # the columns of the first row; the first row off the grid
    offset = 0  # the rows parsed before the block
    try:
        with open(path, encoding="ascii") as fh, warnings.catch_warnings():
            # a header-only file is the "misses" error below; lines with no
            # data are skipped as they are by a single parse
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            warnings.filterwarnings("ignore", "Input line", UserWarning)
            names = [name.strip() for name in fh.readline().split(",")]
            columns = {"i", "j", "v1"} <= set(names)
            vec = "v2" in names
            values = np.empty((nx * ny, 2 if vec else 1))
            given = np.zeros(nx * ny, dtype=np.uint8)  # 0, 1, or 2 for twice or more
            rows = (line for line in fh if not line.isspace())
            while True:
                try:
                    data = _loadtxt(rows, _TILE_CELLS)
                    if data.size and data.shape[1] != (width or data.shape[1]):
                        raise ValueError("the number of columns changed")
                except ValueError:
                    if offset:
                        _whole_file_error(path)
                    raise
                if data.size == 0:
                    break
                width = data.shape[1]
                if columns and width == len(names) and bad_row is None:
                    row = _place_rows(data, names, grid, values, given)
                    bad_row = None if row is None else offset + row
                offset += len(data)
                if len(data) < _TILE_CELLS:
                    break
    except ValueError as exc:  # UnicodeDecodeError included
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
        return cls._adopt(grid, values.reshape((nx, ny, 2) if vec else (nx, ny)),
                          grid.full_rect)
    except DomainError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _place_rows(data: NDArray, names: list[str], grid: Grid, values: NDArray,
                given: NDArray) -> int | None:
    """Put the values of a block of parsed rows into ``values`` (one row per
    cell, row-major) and count their cells in ``given``, up to 2.  Returns
    the 1-based row in the block of the first index that is not a cell of
    the grid, with nothing put, or None."""
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
