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
Cells are independent, so every blocking gives the same bits.  The CSV
writer spells a field's values in numpy, in blocks of grid rows whose byte
buffers hold at most 8 _BLOCK_CELLS bytes, the 256 KiB of one temporary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

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
        """Refuse bounds that are not finite or not increasing, spans whose
        cell width overflows and counts that are not integers >= 2; an
        integer-valued float count is taken as its integer."""
        if not all(np.isfinite([self.x_min, self.x_max, self.p_min, self.p_max])):
            raise ValueError("grid bounds must be finite")
        if not self.x_min < self.x_max:
            raise ValueError("x_min must be < x_max")
        if not self.p_min < self.p_max:
            raise ValueError("p_min must be < p_max")
        for name in ("nx", "np"):
            n = getattr(self, name)
            if not (n >= 2 and float(n).is_integer()):
                raise ValueError(f"nx and np must be integers >= 2, got {name} = {n!r}")
            object.__setattr__(self, name, int(n))
        if not np.isfinite(self.dx) or not np.isfinite(self.dp):
            raise ValueError(f"grid span overflows: dx = {self.dx!r}, dp = {self.dp!r}")

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

        The x and p centers are formatted once, by Python's `%.17g`, into
        NUL-padded byte rows.  Each block of grid rows is then laid out as
        one byte array, a cell's x, p and value text at fixed columns with
        NUL pads (the values spelled in numpy by `_spell_g17`), and written
        after one `bytes.translate` drops the pads.  A block holds at most
        8 _BLOCK_CELLS bytes (or one grid row); the bytes do not depend on
        the blocking.
        """
        g = self.grid
        xs, ps = _padded_g17(g.x_centers(), b","), _padded_g17(g.p_centers(), b",")
        value_col = xs.shape[1] + ps.shape[1]
        width = value_col + _G17_BYTES + 1
        rows = max(1, 8 * _BLOCK_CELLS // (g.np * width))
        with open(path, "wb") as fh:
            fh.write(b"x,p,value\n")
            for i in range(0, g.nx, rows):
                vals = self.values[i : i + rows]
                block = np.empty((len(vals), g.np, width), dtype=np.uint8)
                block[..., : xs.shape[1]] = xs[i : i + len(vals), None]
                block[..., xs.shape[1] : value_col] = ps
                block[..., value_col:-1] = _spell_g17(vals.ravel()).reshape(len(vals), g.np, -1)
                block[..., -1] = ord("\n")
                fh.write(block.tobytes().translate(None, b"\0"))


# --- %.17g in numpy ------------------------------------------------------------

_G17_BYTES = 48  # one value's text at fixed columns: 12 four-byte words


def _padded_g17(values: np.ndarray, suffix: bytes = b"") -> np.ndarray:
    """Python's `%.17g` of each value, then `suffix`, as the rows of a uint8
    array padded with NUL bytes to the longest."""
    text = np.array([b"%.17g" % v + suffix for v in values.tolist()], dtype=bytes)
    return text.view(np.uint8).reshape(len(values), -1)


@lru_cache(maxsize=1)
def _g17_tables():
    """The tables of `_spell_g17`, built on its first call.

    - 10^s for s = 0..22 (exact doubles) and their 26-bit halves hi + lo;
    - 10^s for s = 0..17 as int64;
    - the 4-digit words of 0..9999 as uint32 (four ASCII bytes): plain,
      leading zeros blank, the same but 0 keeping its last `0`, and
      trailing zeros blank, at offsets 0, 10^4, 2 10^4 and 3 10^4;
    - per decimal exponent K = -6..16, the word after the integer part
      (`.` and the zeros of 0.000ddd, -4 <= K <= -2) and the exponent word
      (`e-05`, `e-06`, blank for K >= -4).
    """
    ten = 10.0 ** np.arange(23)
    split = 134217729.0 * ten  # Veltkamp: 2^27 + 1
    ten_hi = split - (split - ten)
    # the digits of 0..9999 by broadcasting, not by integer division, which
    # would touch several hundred KiB more of numpy's code (resident memory)
    digits = np.empty((10, 10, 10, 10, 4), dtype=np.uint8)
    for j in range(4):
        digits[..., j] = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8).reshape((10,) + (1,) * (3 - j))
    digits = digits.reshape(10000, 4)
    zero = digits == ord("0")
    lead_zero = np.logical_and.accumulate(zero, axis=1)
    trail_zero = np.logical_and.accumulate(zero[:, ::-1], axis=1)[:, ::-1]
    K, col = np.arange(-6, 17)[:, None], np.arange(4)
    words = np.concatenate([digits, np.where(lead_zero, 0, digits), np.where(lead_zero & (col < 3), 0, digits),
                            np.where(trail_zero, 0, digits)])
    dot = np.where(col == 0, ord("."), np.where((col <= -1 - K) & (K >= -4), ord("0"), 0))
    expo = np.where(K < -4, np.array([ord("e"), ord("-"), ord("0"), 0]) + (col == 3) * (ord("0") - K), 0)
    return (
        ten, ten_hi, ten - ten_hi, 10 ** np.arange(18, dtype=np.int64),
        words.view(np.uint32).ravel(),
        dot.astype(np.uint8).view(np.uint32).ravel(), expo.astype(np.uint8).view(np.uint32).ravel(),
    )


def _times_ten(a: np.ndarray, s: np.ndarray):
    """a 10^s as hi + lo, exactly (Dekker's two-product; 0 <= s <= 22)."""
    ten, ten_hi, ten_lo = _g17_tables()[:3]
    t, t_hi, t_lo = ten[s], ten_hi[s], ten_lo[s]
    hi = a * t
    split = 134217729.0 * a
    a_hi = split - (split - a)
    a_lo = a - a_hi
    return hi, ((a_hi * t_hi - hi) + a_hi * t_lo + a_lo * t_hi) + a_lo * t_lo


def _groups(n: np.ndarray):
    """The leading digit and the four 4-digit groups of int64 n < 10^17."""
    out = []
    for p in (10**16, 10**12, 10**8, 10**4):
        q = n // p
        out.append(q)
        n = n - q * p  # `%` costs several times `//` on int64 arrays
    return *out, n


def _spell_g17(v: np.ndarray) -> np.ndarray:
    """`%.17g` of each double of the 1-D v, as the rows of a (len(v),
    _G17_BYTES) uint8 array: the text at fixed columns, NUL elsewhere.

    For 1e-6 < |v| < 1e17, K = floor(log10 |v|) is corrected by one where
    hi + lo = |v| 10^(16 - K), exact as a double-double, falls outside
    [1e16, 1e17); in it, hi is an even integer, so D = hi + rint(lo) is the
    17-digit integer rounded half to even, as Python's dtoa rounds (a carry
    to 10^17 raises K).  D splits into the integer part and the digits after
    the dot, spelled in 4-digit words: zeros leading the integer part and
    trailing the fraction are blank, a bare dot too, and -4 <= K < 17 is
    fixed notation, lower K exponent notation, as `%g` lays them out.  The
    sign comes from the sign bit (-0.0 is `-0`).  0 is spelled here too;
    other values (subnormals, |v| <= 1e-6, |v| >= 1e17) go through Python's
    own `%.17g`.

    Columns (bytes): 0 sign, 1 leading digit of the integer part, 4-19 its
    other 16 digits, 20-23 the dot and the zeros of 0.000ddd, 24 the first
    digit after them, 28-43 the other 16, 44-47 the exponent.
    """
    _, _, _, ten, words, dot, expo = _g17_tables()
    out = np.zeros((len(v), _G17_BYTES), dtype=np.uint8)
    word = out.view(np.uint32)
    mag = np.abs(v)
    fast = (mag > 1e-6) & (mag < 1e17)
    mag = np.where(fast, mag, 1.0)
    K = np.clip(np.floor(np.log10(mag)), -6, 16).astype(np.intp)
    hi, lo = _times_ten(mag, 16 - K)
    step = ((hi > 1e17) | ((hi == 1e17) & (lo >= 0))).astype(np.intp)
    step -= (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    fix = np.flatnonzero(step)
    if fix.size:
        K[fix] += step[fix]
        hi[fix], lo[fix] = _times_ten(mag[fix], 16 - K[fix])
    D = np.where(fast, hi.astype(np.int64) + np.rint(lo).astype(np.int64), 0)
    carry = D == 10**17
    D[carry] = 10**16
    K += carry
    # the integer part D // 10^shift: K + 1 digits, 0 for 0.000ddd and 0, d0 in
    # exponent notation; the rest left-aligned in 17 digits (d0 first for 0.000ddd)
    shift = np.where(K >= 0, 16 - K, np.where(K >= -4, 17, 16))
    whole = D // ten[shift]
    out[:, 0] = np.where(np.signbit(v), ord("-"), 0)
    # a word of the integer part blanks its leading zeros while every digit
    # before it is 0; the last keeps a lone 0
    first, *quads = _groups(whole)
    blank = first == 0
    out[:, 1] = np.where(blank, 0, ord("0") + first)
    for j, q in enumerate(quads, 1):
        word[:, j] = words[q + (10000 if j < 4 else 20000) * blank]
        blank &= q == 0
    # a word of the fraction blanks its trailing zeros while every digit
    # after it is 0; with all 17 blank, the dot goes too
    first, *quads = _groups((D - whole * ten[shift]) * ten[17 - shift])
    blank = np.ones(len(v), dtype=bool)
    for j, q in zip((10, 9, 8, 7), reversed(quads)):
        word[:, j] = words[q + 30000 * blank]
        blank &= q == 0
    blank &= first == 0
    out[:, 24] = np.where(blank, 0, ord("0") + first)
    word[:, 5] = np.where(blank, 0, dot[K + 6])
    word[:, 11] = expo[K + 6]
    other = np.flatnonzero(~fast & (v != 0))
    if other.size:
        text = _padded_g17(v[other])
        out[other] = 0
        out[other, : text.shape[1]] = text
    return out
