"""Dense coefficient matrices as plain complex arrays, kept as the one slow
oracle of the banded ladder power and its norms (`truncate.matrix_linear_power`,
`diag.band_norm_sq`) and of the box momentum norm
(`diag._box_momentum_inner_norm_sq`).

- `ladder_power` is (a x + b p)^n on levels 1..N + n: the identity
  multiplied n times by the tridiagonal a X + b P of `ladder_matrices`.
  Each product sums the weights of every up-or-down step from a level, so
  entry (l, k) is the sum over all n-step sign sequences from k to l.
- `hs_norm_sq` and `offdiag_block_norm_sq` are the dense definitions of
  the trace-identity norms: 2 pi hbar sum |M_jk|^2 over the whole matrix,
  or over the block coupling levels <= N to levels > N.
- `dense_power` scatters a band into the N x N complex matrix it stands
  for, to compare it with `ladder_power`.
- `box_multiplication_matrix` is the tridiagonal matrix of multiplication
  by sin(pi x / 2L) / sqrt(L), whose norm the `box-tridiag-norm` sweep
  takes from its nonzero entries alone.
- `box_momentum_entry` / `box_momentum_matrix` are the box momentum C_jk;
  the program reaches their norm in O(N) (`diag`) and their symbol in
  closed form (`weyl`).
- `rank_one_box_symbol` is no oracle: it is the program's box operator
  symbol at the one-entry coefficient matrix of |u_j><u_k|.

Level indices are 1-based (u_1 is the ground state); rows of the arrays
are 0-based.
"""

import math

import numpy as np

from weylsym.basis import EigenBasis, Model
from weylsym.moyal import operator_symbol_complex
from weylsym.truncate import LadderBand


def hs_norm_sq(entries: np.ndarray, hbar: float) -> float:
    """Exact squared L2 norm of the symbol of a dense matrix: 2 pi hbar sum |M_jk|^2."""
    return 2.0 * math.pi * hbar * float(np.sum(np.abs(entries) ** 2))


def offdiag_block_norm_sq(padded: np.ndarray, N: int, hbar: float) -> float:
    """Squared symbol norm of the block of `padded` (the observable on more
    than N levels) in rows j > N, columns k <= N: the block coupling levels
    <= N to levels > N."""
    if padded.shape[0] <= N:
        raise ValueError(f"padded dimension {padded.shape[0]} must exceed N = {N}")
    return hs_norm_sq(padded[N:, :N], hbar)


def dense_power(band: LadderBand) -> np.ndarray:
    """The N x N matrix of a band: entry (k + d, k) = weights[d + n] * diagonals[d + n, k]
    for the rows k + d < N; the band's rows beyond N are dropped."""
    N = band.N
    M = np.zeros((N, N), dtype=complex)
    k = np.arange(N)
    for d, weight, diagonal in zip(band.offsets, band.weights, band.diagonals):
        cols = k[(k + d >= 0) & (k + d < N)]
        M[cols + d, cols] = weight * diagonal[cols]
    return M


def ladder_matrices(hbar: float, N: int, pad: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Position and momentum matrices on levels 1..N+pad.

    X is real symmetric, P purely imaginary Hermitian, both tridiagonal with
    <u_{k+1}|.|u_k> magnitude sqrt(hbar k / 2).
    """
    if N < 1 or pad < 0:
        raise ValueError("need N >= 1 and pad >= 0")
    dim = N + pad
    c = np.sqrt(hbar * np.arange(1, dim) / 2.0)
    X = np.zeros((dim, dim), dtype=complex)
    P = np.zeros((dim, dim), dtype=complex)
    idx = np.arange(dim - 1)
    X[idx + 1, idx] = c
    X[idx, idx + 1] = c
    P[idx + 1, idx] = 1j * c
    P[idx, idx + 1] = -1j * c
    return X, P


def ladder_power(a: float, b: float, n: int, hbar: float, N: int) -> np.ndarray:
    """(a x + b p)^n on levels 1..N + n, enough for every entry of the rows
    up to N + n in columns up to N: n products of the identity with the two
    off-diagonals of a X + b P."""
    X, P = ladder_matrices(hbar, N, pad=n)
    A = a * X + b * P
    lower, upper = np.diagonal(A, -1)[:, None], np.diagonal(A, 1)[:, None]
    M = np.eye(N + n, dtype=complex)
    for _ in range(n):
        step = np.zeros_like(M)
        step[1:] += lower * M[:-1]
        step[:-1] += upper * M[1:]
        M = step
    return M


def box_multiplication_matrix(N: int, L: float) -> np.ndarray:
    """Tridiagonal matrix of multiplication by sin(pi x / 2L) / sqrt(L)."""
    M = np.zeros((N, N), dtype=complex)
    idx = np.arange(N - 1)
    M[idx + 1, idx] = -1.0 / (2.0 * math.sqrt(L))
    M[idx, idx + 1] = -1.0 / (2.0 * math.sqrt(L))
    return M


def box_momentum_entry(j, k, L: float, hbar: float) -> np.ndarray | complex:
    """Momentum matrix element <u_j| p |u_k>; zero for same-parity j, k."""
    j_arr = np.asarray(j, dtype=float)
    k_arr = np.asarray(k, dtype=float)
    diff = j_arr**2 - k_arr**2
    parity = 1.0 - (-1.0) ** (j_arr + k_arr)
    safe = np.where(diff == 0, 1.0, diff)
    out = np.where(diff == 0, 0.0, -1j * hbar / L * parity * j_arr * k_arr / safe)
    return out if (np.ndim(j) or np.ndim(k)) else complex(out[()])


def box_momentum_matrix(N: int, L: float, hbar: float) -> np.ndarray:
    """Truncated momentum matrix C_jk for the box, levels 1..N."""
    j = np.arange(1, N + 1)
    return box_momentum_entry(j[:, None], j[None, :], L, hbar)


def rank_one_box_symbol(j: int, k: int, hbar: float, L: float, x, p):
    coeff = np.zeros((max(j, k), max(j, k)))
    coeff[j - 1, k - 1] = 1.0
    return operator_symbol_complex(EigenBasis(Model.BOX, hbar=hbar, box_half_width=L), coeff, hbar, x, p)
