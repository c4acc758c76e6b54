"""Dense coefficient matrices as plain complex arrays, kept as the one slow
oracle of the banded ladder power (`truncate.matrix_linear_power`, read by
`diag.band_norm_sq`), of the box tridiagonal norm sweep and of the matrix
elements the program only uses in closed form.

- `hs_norm_sq` and `offdiag_block_norm_sq` are the dense definitions of
  the trace-identity norms: 2 pi hbar sum |M_jk|^2 over the whole matrix,
  or over the block coupling levels <= N to levels > N.
- `dense_power` scatters a band into the N x N complex matrix it stands
  for; the two norms of that matrix are those of the band.
- `box_multiplication_matrix` is the tridiagonal matrix of multiplication
  by sin(pi x / 2L) / sqrt(L), whose norm the `box-tridiag-norm` sweep
  takes from its nonzero entries alone.
- `path_sum_matrix` builds (a x + b p)^n entry by entry from the 2^n
  sign-sequence path sums, independent of the band.
- `ladder_matrices` are the tridiagonal X and P, whose explicit matrix
  power is a third route to the same entries.
- `box_momentum_entry` / `box_momentum_matrix` are the box momentum C_jk;
  the program reaches their norms in O(N) (`diag`) and their symbol in
  closed form (`weyl`).
- `rank_one_box_symbol` is the symbol of |u_j><u_k|: the program's box
  operator symbol at the one-entry coefficient matrix.

Level indices are 1-based (u_1 is the ground state); rows of the arrays
are 0-based.
"""

import itertools
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


def sign_sequences(n, d):
    """All +-1 step sequences of length n with sum d, plus their exclusive
    prefix sums.  Shapes (m, n); m = binom(n, (n+d)/2)."""
    if n == 0:
        z = np.zeros((1, 0), dtype=np.int64)
        return z, z
    signs = np.array(list(itertools.product((1, -1), repeat=n)), dtype=np.int64)
    signs = signs[signs.sum(axis=1) == d]
    prefix = np.zeros_like(signs)
    prefix[:, 1:] = np.cumsum(signs[:, :-1], axis=1)
    return signs, prefix


def path_weight_sum(n, k, d, a, b):
    """Sum of ladder path weights over n-step paths from k to k + d.

    Per step from level j, the ladder factor is sqrt(j) going up and
    sqrt(j - 1) going down, i.e. sqrt(min of the two levels); clamping at
    zero makes below-ground excursions vanish identically, which is exactly
    the exclusion of paths touching level 0.
    """
    signs, prefix = sign_sequences(n, d)
    if signs.shape[0] == 0:
        return 0.0j
    levels = k + prefix  # level before each step
    ladder = np.maximum(levels + (signs - 1) // 2, 0).astype(float)
    radical = float(np.sum(np.sqrt(np.prod(ladder, axis=1))) if n else 1.0)
    s_up = (n + d) // 2
    return (a + 1j * b) ** s_up * (a - 1j * b) ** (n - s_up) * radical


def path_sum_matrix(a, b, n, hbar, N):
    """(a x + b p)^n on levels 1..N entry by entry from the sign-sequence sums."""
    pref = (hbar / 2.0) ** (n / 2.0)
    M = np.zeros((N, N), dtype=complex)
    for k in range(1, N + 1):
        for l in range(max(1, k - n), min(N, k + n) + 1):
            if (l - k + n) % 2 == 0:
                M[l - 1, k - 1] = pref * path_weight_sum(n, k, l - k, a, b)
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
