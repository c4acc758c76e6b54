"""Moyal (star) products: exact finite-rank composition vs direct quadrature.

Composition is exact for finite-rank operators (matrix product of the
coefficient matrices, then one closed-form symbol evaluation: the rank-one
closed forms grouped by j + k and j - k for the box, Groenewold's
associated-Laguerre form for the oscillator) and
serves as ground truth.  The direct route discretizes the 4-fold
star-product integral in its y/p pairing form by two successive 2-fold
midpoint sums.  Its momentum shifts fall on the grid's own p-centres, so
the sampled symbols are interpolated along x only: cubically (4-point
Lagrange) between whole grid rows, zero outside the grid.  On that lattice
the phase sums are shifted discrete Fourier transforms, so a row of momenta
at one position costs O(M^2 log M) by FFT along p.  It exists to exercise
that integral formula and is validated against composition; `direct_grid`
is the grid that resolves a rank-N box symbol for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .basis import EigenBasis, Model
from .kernel import _check_levels
from .scale import PhaseGrid, SymbolField, _at_points, _check_budget
from .truncate import MAX_DIMENSION
from .weyl import _box_operator_symbol, _oscillator_operator_symbol

__all__ = [
    "FiniteRankOperator",
    "moyal_via_composition",
    "moyal_via_composition_complex",
    "moyal_direct",
    "direct_grid",
    "operator_symbol_complex",
]


@dataclass(frozen=True)
class FiniteRankOperator:
    """Operator sum_{j,k} M_jk |u_j><u_k| over the first dim(M) levels."""

    basis: EigenBasis
    coeff: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.coeff, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("coeff must be a square matrix")
        if m.shape[0] > MAX_DIMENSION:
            raise ValueError(f"rank {m.shape[0]} exceeds the {MAX_DIMENSION} cap")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "coeff", m)

    @property
    def n(self) -> int:
        return self.coeff.shape[0]


def operator_symbol_complex(basis: EigenBasis, coeff: np.ndarray, hbar: float, x, p):
    """Symbol of sum M_jk |u_j><u_k|; complex for non-Hermitian M.

    Both models broadcast over arrays of points, in the blocks of
    `scale._at_points`: the box by its rank-one closed forms grouped by
    j + k and j - k, the oscillator by Groenewold's associated-Laguerre
    form.  coeff must be a square matrix, hbar the basis's own, and no
    coordinate NaN.
    """
    if hbar != basis.hbar:
        raise ValueError(f"hbar = {hbar!r} differs from the basis's hbar = {basis.hbar!r}")
    coeff = np.asarray(coeff)
    if coeff.ndim != 2 or coeff.shape[0] != coeff.shape[1]:
        raise ValueError(f"coeff must be a square matrix, got shape {coeff.shape}")
    if basis.model is Model.BOX:
        fn = partial(_box_operator_symbol, coeff, hbar, basis.L)  # 2N - 1 entries per point
        return _at_points(fn, *np.broadcast_arrays(x, p), 2 * coeff.shape[0] - 1)
    return _at_points(partial(_oscillator_operator_symbol, coeff, hbar), x, p, 1)


def moyal_via_composition_complex(
    A: FiniteRankOperator, B: FiniteRankOperator, hbar: float, x: float, p: float
) -> complex:
    """Star product via the operator product: symbol of the operator with
    coefficient matrix M_A M_B.  Exact up to symbol-evaluation error."""
    if A.basis != B.basis:
        raise ValueError("operators live in different bases")
    if A.n != B.n:
        raise ValueError("operator dimensions differ")
    return operator_symbol_complex(A.basis, A.coeff @ B.coeff, hbar, x, p)


def moyal_via_composition(
    A: FiniteRankOperator, B: FiniteRankOperator, hbar: float, x: float, p: float
) -> float:
    """Real part of the composed symbol.

    Equals the full star product when A B is Hermitian (e.g. projections,
    A = B*); for non-commuting Hermitian factors the symbol of A B acquires
    an imaginary part, available from moyal_via_composition_complex.
    """
    return moyal_via_composition_complex(A, B, hbar, x, p).real


def direct_grid(N: int, mu: float, L: float) -> PhaseGrid:
    """The sampling grid of `moyal_direct` for a rank-N box symbol at
    hbar N = mu, half width L: [-1.5 L, 1.5 L] x [-h, h], h = max(6, pi mu / L)
    (twice the symbol's momentum reach once that passes 3), with 16 N x cells
    and ceil(8 L N h / pi mu) p cells.
    sigma_N(x, .) is band-limited: its Fourier transform in p is the kernel
    K(x - hbar y / 2, x + hbar y / 2), zero for |y| > 2 (L - |x|) / hbar, so
    the midpoint p-sum is exact for dp <= pi hbar / 2L (sampling theorem);
    the grid keeps half that, dp <= pi hbar / 4L.  Along x, sigma_N's
    frequencies reach about omega = pi N / L (those of its eigenfunction
    products), and at dx = 3L / 16N the cubic rows of `_rows_at` keep within
    (3/128) (omega dx)^4 = 0.0028 of the largest value of a field band-limited
    to omega, whatever N, mu and L."""
    reach = math.pi * mu / L
    half = max(6.0, reach)
    # 8 L N h / pi mu, exactly 8 N once h = reach
    cells = math.ceil(8 * N * (half / reach))
    return PhaseGrid(-1.5 * L, 1.5 * L, -half, half, 16 * N, cells)


def _check_direct_grid(N: int, grid: PhaseGrid) -> None:
    """The guard of a rank-N direct star product on `grid`, before any field:
    at most 4096 p cells M, as `moyal_direct` holds M x M complex arrays."""
    _check_budget(N, grid.nx * grid.np)
    if grid.np > 4096:
        raise ValueError(f"resource guard exceeded ({grid.np} p cells > 4096) at N = {N}")


def _rows_at(field: SymbolField, X: np.ndarray) -> np.ndarray:
    """Whole grid rows at the positions X (1-d): 4-point (cubic) Lagrange
    interpolation through the two rows on either side of each position, a
    row index outside the grid weighing zero; shape (X.size, np).

    For a field whose x-frequencies reach omega, the error is at most
    (3/128) (omega dx)^4 times its largest value: max |f''''| / 4! times
    max |(t + 1) t (t - 1) (t - 2)| dx^4 = 9/16 dx^4 over a cell."""
    g = field.grid
    fx = (np.asarray(X, dtype=float) - (g.x_min + 0.5 * g.dx)) / g.dx
    i0 = np.floor(fx).astype(np.int64)
    t = fx - i0
    weights = (
        -t * (t - 1) * (t - 2) / 6,
        (t + 1) * (t - 1) * (t - 2) / 2,
        -(t + 1) * t * (t - 2) / 2,
        (t + 1) * t * (t - 1) / 6,
    )
    vals = field.values
    rows = np.zeros((t.size, g.np))
    for shift, w in zip(range(-1, 3), weights):
        # a row index outside the grid gets weight zero on a clipped gather;
        # in place: one (X.size, np) temporary beside the result
        i = i0 + shift
        row = vals[np.clip(i, 0, g.nx - 1)]
        row *= np.where((i >= 0) & (i < g.nx), w, 0.0)[:, None]
        rows += row
    return rows


def moyal_direct(sigma1: SymbolField, sigma2: SymbolField, hbar: float, x: float, p):
    """Star product at (x, p) by direct discretization of the 4-fold integral;
    p may be an array of momenta at the one position x.

    The integral in its (y_i, p_i) form factorizes: the inner (y2, p1)
    pairing and the outer (y1, p2) pairing become two successive 2-fold
    midpoint sums.  Momentum shifts p - p_i are sampled on the grid's own
    p-centers q; the conjugate y-lattice has spacing 2 pi / (np dp), so the
    discrete phase sums act as the correct resolution-limited deltas.  The
    symbols are read at the shifted positions x - hbar y / 2 as whole grid
    rows, interpolated along x; positions outside the window contribute
    zero.

    With S_n[a, i] = sigma_n(x - hbar y_a / 2, q_i) and F[i, j] = e^{i q_i y_j}
    the sum is  sum_{a,j} e^{ip (y_a - y_j)} (S1 F)[a, j] (S2 conj F)[j, a].
    As q_i = q_0 + i dp, y_j = y_0 + j dy and dp dy = 2 pi / M,
    F[i, j] = e^{i q_0 y_j} e^{i i dp y_0} e^{2 pi i ij / M}: the rows of S F
    are inverse DFTs of the twisted rows of S, those of S conj F forward
    ones, and e^{i q_0 y_j} moves into the outer phase e^{i (p - q_0) y}.
    A row of p at fixed x costs one or two batches of M length-M FFTs,
    O(M^2 log M) (one when sigma2 is sigma1, since then S2 conj F =
    conj(S1 F)), and O(M^2) per p.
    Returns a float for scalar p, else an array shaped like p.
    """
    _check_levels(1, hbar)  # hbar alone: finite and > 0
    if sigma1.grid != sigma2.grid:
        raise ValueError("incompatible grids")
    g = sigma1.grid
    p_arr = np.asarray(p, dtype=float)
    if not all(g.contains(x, float(q)) for q in p_arr.ravel()):
        raise ValueError("point outside window")

    M = g.np
    q0 = g.p_min + 0.5 * g.dp
    dy = 2.0 * math.pi / (M * g.dp)
    y = (np.arange(M) + 0.5 - M / 2.0) * dy

    shifted_x = x - hbar * y / 2.0
    twist = np.exp(1j * g.dp * y[0] * np.arange(M))
    # H[a, j] = (S1 F)[a, j] (S2 conj F)[j, a] e^{i q_0 (y_a - y_j)}, built in
    # place: each transform overwrites the twisted rows it reads, and
    # norm="forward" leaves the inverse transform unscaled
    H = _rows_at(sigma1, shifted_x) * twist                        # (My, M)
    np.fft.ifft(H, axis=1, norm="forward", out=H)                   # (My, My)
    if sigma2 is sigma1:
        H *= H.T.conj()
    else:
        G = _rows_at(sigma2, shifted_x) * twist.conj()
        H *= np.fft.fft(G, axis=1, out=G).T
    E = np.exp(1j * (p_arr.reshape(-1) - q0)[:, None] * y[None, :])  # (P, My)
    vals = (dy * g.dp / (2.0 * math.pi)) ** 2 * np.sum((E @ H) * E.conj(), axis=1)
    if p_arr.ndim == 0:
        return float(vals[0].real)
    return vals.real.reshape(p_arr.shape)
