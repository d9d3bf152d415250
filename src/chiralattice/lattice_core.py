"""Lattice geometry, piecewise-constant fields, and discrete differential operators.

A field assigns one value (scalar or 2-vector) to every cell of a rectangular
lattice with spacing ``l``; the value at index ``(i, j)`` represents the cell
``[l*i, l*(i+1)) x [l*j, l*(j+1))`` (half-open convention).  All forward
difference operators are of the form ``(v[(i,j)+e_k] - v[i,j]) / l``.

Under the open boundary mode an operator needing out-of-range neighbours is
undefined there; every field therefore carries the half-open index rectangle
on which its values are meaningful, and values outside that rectangle are
stored as exact zeros.  Under the periodic boundary mode indices wrap and the
valid rectangle is always the full grid.

All cell reductions go through :func:`cell_sum`, which accumulates in a fixed
(row-major) order with exactly rounded compensated summation, so energy values
are bit-reproducible regardless of thread count or run order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

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
    "interpolate_I",
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

    Grids compare by identity; fields constructed on different grid objects
    cannot be combined even if the geometry matches.
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


def _mask_outside(values: NDArray, rect: Rect, grid: Grid) -> NDArray:
    """Zero all entries outside ``rect`` (no-op when rect is the full grid)."""
    if rect.i0 == 0 and rect.j0 == 0 and rect.i1 == grid.nx and rect.j1 == grid.ny:
        return values
    out = np.zeros_like(values)
    if not rect.empty:
        si, sj = rect.slices
        out[si, sj] = values[si, sj]
    return out


@dataclass(eq=False)
class ScalarField:
    grid: Grid
    values: NDArray
    valid: Rect = None  # type: ignore[assignment]

    _vdim = 0

    def __post_init__(self):
        if self.valid is None:
            self.valid = self.grid.full_rect
        shape = (self.grid.nx, self.grid.ny) + ((2,) if self._vdim else ())
        self.values = np.array(self.values, dtype=np.float64, order="C", copy=True)
        if self.values.shape != shape:
            raise DimensionError(
                f"field values have shape {self.values.shape}, expected {shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise DomainError("field values must be finite")
        self.values = _mask_outside(self.values, self.valid, self.grid)
        self.values.setflags(write=False)

    def sample(self, di: int, dj: int) -> tuple[NDArray, Rect]:
        """Values at ``(i+di, j+dj)`` as an array indexed by ``(i, j)``.

        Returns the shifted array and the rectangle where the lookup is valid.
        """
        g = self.grid
        shifted = np.roll(self.values, (-di, -dj), axis=(0, 1))
        if g.periodic:
            return shifted, self.valid
        rect = Rect(self.valid.i0 - di, self.valid.i1 - di,
                    self.valid.j0 - dj, self.valid.j1 - dj).intersect(g.full_rect)
        return shifted, rect


@dataclass(eq=False)
class VectorField(ScalarField):
    _vdim = 2

    def component(self, k: int) -> ScalarField:
        """Component k in {1, 2} as a scalar field on the same grid."""
        return ScalarField(self.grid, self.values[..., k - 1].copy(), self.valid)


def cell_sum(values: NDArray, rect: Rect) -> float:
    """Exactly rounded sum of ``values`` over ``rect`` in fixed row-major order.

    ``math.fsum`` gives the correctly rounded result of the real-number sum,
    which is independent of blocking or thread count by construction.  A sum
    beyond the float range (or ``inf - inf``) raises :class:`DomainError`.
    """
    if rect.empty:
        return 0.0
    si, sj = rect.slices
    block = values[si, sj]
    try:
        return math.fsum(block.ravel(order="C"))
    except (OverflowError, ValueError) as exc:
        raise DomainError(f"cell sum is not a finite float: {exc}") from None


def dpartial(v: ScalarField, axis: int) -> ScalarField:
    """Forward difference quotient along ``axis`` in {1, 2}."""
    if axis not in (1, 2):
        raise DomainError(f"axis must be 1 or 2, got {axis}")
    g = v.grid
    if (axis == 1 and g.nx < 2) or (axis == 2 and g.ny < 2):
        raise DimensionError("grid too small along difference axis")
    di, dj = (1, 0) if axis == 1 else (0, 1)
    ahead, rect = v.sample(di, dj)
    rect = rect.intersect(v.valid)
    if not g.periodic and rect.empty:
        raise DimensionError("empty valid set after forward difference")
    vals = (ahead - v.values) / g.spacing
    cls = type(v)
    return cls(g, _mask_outside(vals, rect, g), rect)


def grad_d(v: ScalarField) -> VectorField:
    """Discrete gradient: the pair of forward differences of a scalar field."""
    d1 = dpartial(v, 1)
    d2 = dpartial(v, 2)
    rect = d1.valid.intersect(d2.valid)
    vals = np.stack([d1.values, d2.values], axis=-1)
    return VectorField(v.grid, _mask_outside(vals, rect, v.grid), rect)


def div_d(v: VectorField) -> ScalarField:
    d1 = dpartial(v.component(1), 1)
    d2 = dpartial(v.component(2), 2)
    rect = d1.valid.intersect(d2.valid)
    return ScalarField(v.grid, _mask_outside(d1.values + d2.values, rect, v.grid), rect)


def curl_d(v: VectorField) -> ScalarField:
    d1 = dpartial(v.component(2), 1)
    d2 = dpartial(v.component(1), 2)
    rect = d1.valid.intersect(d2.valid)
    return ScalarField(v.grid, _mask_outside(d1.values - d2.values, rect, v.grid), rect)


def laplace_shifted(phi: ScalarField) -> ScalarField:
    """Shifted discrete Laplacian: the standard 5-point stencil.

    Defined as the second forward differences evaluated at the left/lower
    shifted points, which collapses to
    ``(phi[i+1,j] + phi[i-1,j] + phi[i,j+1] + phi[i,j-1] - 4 phi[i,j]) / l^2``.
    """
    g = phi.grid
    if g.nx < 3 or g.ny < 3:
        raise DimensionError("shifted Laplacian needs at least a 3x3 grid")
    total = -4.0 * phi.values
    rect = phi.valid
    for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        arr, r = phi.sample(di, dj)
        total = total + arr
        rect = rect.intersect(r)
    if not g.periodic and rect.empty:
        raise DimensionError("empty valid set for shifted Laplacian")
    vals = total / g.spacing**2
    return ScalarField(g, _mask_outside(vals, rect, g), rect)


def interpolate_I(v: VectorField, x: Iterable[float]) -> NDArray:
    """Componentwise linear blend of a lattice vector field at a point.

    Component 1 is blended along axis 1 only and component 2 along axis 2
    only, so that the distributional divergence of the interpolant equals the
    discrete divergence.  Cells are half-open: the point ``l*(i, j)`` belongs
    to cell ``(i, j)``.
    """
    g = v.grid
    l = g.spacing
    x = np.asarray(x, dtype=np.float64)
    s = x / l
    if g.periodic:
        s = np.mod(s, (g.nx, g.ny))
    i, j = int(np.floor(s[0])), int(np.floor(s[1]))
    y1, y2 = s[0] - i, s[1] - j
    if not (0 <= i < g.nx and 0 <= j < g.ny):
        raise DomainError(f"point {x} outside grid extent")

    def at(ii, jj):
        if g.periodic:
            return v.values[ii % g.nx, jj % g.ny]
        if not (0 <= ii < g.nx and 0 <= jj < g.ny):
            raise DomainError(f"interpolation stencil for {x} leaves the grid")
        return v.values[ii, jj]

    base = at(i, j)
    out = np.empty(2)
    out[0] = (1 - y1) * base[0] + (y1 * at(i + 1, j)[0] if y1 > 0 else 0.0)
    out[1] = (1 - y2) * base[1] + (y2 * at(i, j + 1)[1] if y2 > 0 else 0.0)
    return out


def format_float(x: float) -> str:
    """17-significant-digit decimal formatting (round-trips float64)."""
    return f"{x:.17g}"


def write_field_csv(f: ScalarField, path: str) -> None:
    """Write a field as CSV with columns (i, j, v1[, v2]) in row-major order."""
    vec = isinstance(f, VectorField)
    header = "i,j,v1,v2" if vec else "i,j,v1"
    lines = [header]
    for i in range(f.grid.nx):
        for j in range(f.grid.ny):
            if vec:
                lines.append(
                    f"{i},{j},{format_float(f.values[i, j, 0])},{format_float(f.values[i, j, 1])}"
                )
            else:
                lines.append(f"{i},{j},{format_float(f.values[i, j])}")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_field_csv(path: str, grid: Grid) -> ScalarField | VectorField:
    """Read a field written by :func:`write_field_csv` onto ``grid``.

    The file must give every cell of ``grid`` exactly once; a malformed
    file, a missing column, or a missing, repeated or out-of-range ``(i, j)``
    raises :class:`ConfigError`.
    """
    try:
        data = np.atleast_1d(np.genfromtxt(path, delimiter=",", names=True))
    except ValueError as exc:
        raise ConfigError(f"{path}: malformed field CSV: {exc}") from None
    names = data.dtype.names or ()
    if not {"i", "j", "v1"} <= set(names):
        raise ConfigError(f"{path}: field CSV needs the columns i, j, v1[, v2]")
    vec = "v2" in names
    shape = (grid.nx, grid.ny) + ((2,) if vec else ())
    values = np.zeros(shape)
    fi, fj = data["i"], data["j"]
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
    if vec:
        values[ii, jj, 0] = data["v1"]
        values[ii, jj, 1] = data["v2"]
        return VectorField(grid, values)
    values[ii, jj] = data["v1"]
    return ScalarField(grid, values)
