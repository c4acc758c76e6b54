"""Phase-space grids and sampled symbol fields.

The joint limit studied by this package couples the Planck constant to the
truncation rank through hbar * N = mu; every caller passes hbar = mu / N
as a plain float.  Phase-space data lives on midpoint-rule rectangular
grids (:class:`PhaseGrid`) as plain real arrays (:class:`SymbolField`),
each filled by `SymbolField.sample` in blocks of cells under the one work
budget that every layer shares.

A block holds at most _BLOCK_CELLS = 2^15 cells (or one row) and at most 64
_BLOCK_CELLS entries of each of its symbol's tables of one entry per level
and x entry (the momentum's prefix sums, the level sum's sines) or per
level and p entry (the level sum's reciprocals): `levels` entries per x row
and per p column for a field, N per x entry and per p entry for a box point
call, which the same loop (`_in_blocks`) cuts into blocks of points under
the same rule.  Blocks take x rows and, on two or more axes, p columns.
Cells are independent, so every blocking gives the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["PhaseGrid", "SymbolField"]

_BUDGET = 2_000_000_000  # largest N * (grid cells or terms per level) of a request
_BLOCK_CELLS = 1 << 15  # cells per block of a grid field (256 KiB per temporary)


def _check_budget(N: int, points: int) -> None:
    """Refuse N levels of `points` cells or terms each over the budget; a
    level costs at least one field block, whatever its points."""
    if N * max(points, _BLOCK_CELLS) > _BUDGET:
        raise ValueError(f"resource guard exceeded (N * points budget) at N = {N}")


def _table_rows(entries: int) -> int:
    """Rows of `entries` table entries each that fit in 64 _BLOCK_CELLS
    entries, at least one: the table rule of fields and point calls."""
    return max(1, 64 * _BLOCK_CELLS // max(entries, 1))


def _in_blocks(fn, x: np.ndarray, p: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """fn(x, p) on arrays of one ndim that broadcast, called on blocks of at
    most `rows` leading-axis rows and, with two or more axes, `cols`
    last-axis columns, and written into one array of the broadcast shape.
    An argument of length one on a cut axis goes whole to every block; an
    empty block is never computed.  Cells are independent, so every
    blocking is bit-identical to one call."""
    out = np.empty(np.broadcast_shapes(x.shape, p.shape))  # raises on shapes that do not broadcast
    for i in range(0, out.shape[0], rows):
        r = slice(i, i + rows)
        x_r, p_r = (a[r] if a.shape[0] > 1 else a for a in (x, p))
        if out.ndim == 1:
            out[r] = fn(x_r, p_r)
            continue
        for j in range(0, out.shape[-1], cols):
            c = slice(j, j + cols)
            out[r, ..., c] = fn(*(a[..., c] if a.shape[-1] > 1 else a for a in (x_r, p_r)))
    return out


def _point_arrays(x, y):
    """Float arrays of two point coordinates, each of its own size with
    leading unit axes up to one ndim (at least 1), and the function that
    hands a result on their broadcast shape back in the caller's form: the
    single element (float or complex, from the dtype) when both coordinates
    were scalars, else the array."""
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    y_arr = np.atleast_1d(np.asarray(y, dtype=float))
    nd = max(x_arr.ndim, y_arr.ndim)
    x_arr, y_arr = (a.reshape((1,) * (nd - a.ndim) + a.shape) for a in (x_arr, y_arr))
    if np.ndim(x) == 0 and np.ndim(y) == 0:
        return x_arr, y_arr, lambda out: out.item()
    return x_arr, y_arr, lambda out: out


@dataclass(frozen=True)
class PhaseGrid:
    """Uniform midpoint-rule lattice on [x_min, x_max] x [p_min, p_max].

    Sample points are cell centers, x_i = x_min + (i + 1/2) dx, so constant
    fields integrate exactly and no endpoint is double weighted.
    """

    x_min: float
    x_max: float
    p_min: float
    p_max: float
    nx: int
    np: int

    def __post_init__(self) -> None:
        if not self.x_min < self.x_max:
            raise ValueError("x_min must be < x_max")
        if not self.p_min < self.p_max:
            raise ValueError("p_min must be < p_max")
        if self.nx < 2 or self.np < 2:
            raise ValueError("nx and np must be >= 2")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.nx

    @property
    def dp(self) -> float:
        return (self.p_max - self.p_min) / self.np

    def x_centers(self) -> np.ndarray:
        return self.x_min + (np.arange(self.nx) + 0.5) * self.dx

    def p_centers(self) -> np.ndarray:
        return self.p_min + (np.arange(self.np) + 0.5) * self.dp

    def meshgrid(self) -> tuple[np.ndarray, np.ndarray]:
        """(nx, 1) x-column and (1, np) p-row, ready to broadcast."""
        return self.x_centers()[:, None], self.p_centers()[None, :]

    def contains(self, x: float, p: float) -> bool:
        return self.x_min <= x <= self.x_max and self.p_min <= p <= self.p_max


@dataclass(frozen=True)
class SymbolField:
    """Real field sampled on a :class:`PhaseGrid`, values[i, j] = f(x_i, p_j)."""

    grid: PhaseGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        # a copy: the caller's array is never frozen, nor aliased
        self._freeze(np.array(self.values, dtype=float))

    def _freeze(self, vals: np.ndarray) -> None:
        if vals.shape != (self.grid.nx, self.grid.np):
            raise ValueError(
                f"values shape {vals.shape} does not match grid ({self.grid.nx}, {self.grid.np})"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("field values must be finite")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @classmethod
    def _adopt(cls, grid: PhaseGrid, values: np.ndarray) -> "SymbolField":
        """A field on `values`, a float array its caller has just built and
        hands over: checked as in the constructor and made read-only in
        place, with no copy."""
        fld = object.__new__(cls)
        object.__setattr__(fld, "grid", grid)
        fld._freeze(np.asarray(values, dtype=float))
        return fld

    @classmethod
    def sample(cls, fn, grid: PhaseGrid, levels: int = 1) -> "SymbolField":
        """Sample a broadcastable fn(x, p) on the grid, one call per block of cells.

        fn makes `levels` passes over the cells, checked against the work
        budget before fn is called.  A block holds at most _BLOCK_CELLS cells
        (or one row), and at most 64 _BLOCK_CELLS entries of fn's tables of
        `levels` doubles per x row and of those per p column: a grid row
        longer than that goes in blocks of columns.  Cells are independent,
        so every blocking is bit-identical to one call; the filled array is
        adopted, not copied.
        """
        _check_budget(levels, grid.nx * grid.np)
        rows = max(1, min(_BLOCK_CELLS // grid.np, _table_rows(levels)))
        return cls._adopt(grid, _in_blocks(fn, *grid.meshgrid(), rows, _table_rows(levels)))

    def to_csv(self, path) -> None:
        """Write rows `x,p,value`, x outer ascending, p inner ascending, each
        number as `%.17g` (the bytes `np.savetxt` writes for the same table).

        The p centers are formatted once, into a template for one grid row;
        each grid row then fills it with its x center and values in one
        formatting call and is written as one string.
        """
        fmt = "%.17g".__mod__
        n = self.grid.np
        row_template = "".join(f"%s,{p},%.17g\n" for p in map(fmt, self.grid.p_centers().tolist()))
        args = [None] * (2 * n)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("x,p,value\n")
            for x, row in zip(self.grid.x_centers().tolist(), self.values):
                args[0::2] = [fmt(x)] * n
                args[1::2] = row.tolist()
                fh.write(row_template % tuple(args))
