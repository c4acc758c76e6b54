"""Coefficient matrices of truncated observables in the eigenbasis.

Oscillator observables (a x + b p)^n are banded powers of the ladder
matrix; the box supplies the tridiagonal multiplication operator and the
truncated momentum in closed form.

Ladder elements: with 1-based levels (u_1 = ground state) the raising
matrix element is <u_{k+1}| x |u_k> = sqrt(hbar k / 2), pinned by quadrature
against the eigenfunctions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import EigenBasis, Model
from .scale import SemiclassicalScale

__all__ = [
    "OperatorMatrix",
    "matrix_linear_power",
    "ladder_matrices",
    "box_multiplication_matrix",
    "box_momentum_matrix",
    "box_momentum_entry",
]

# The only bound on `sweep --n`, which comes from the command line: the
# banded power holds (2n + 1) x N doubles, ~0.8 GB at n = 100000, N = 512.
MAX_MATRIX_POWER = 12
MAX_DIMENSION = 4096
_HERMITICITY_TOL = 1e-12


@dataclass(frozen=True)
class OperatorMatrix:
    """Hermitian N x N coefficient matrix <u_j| H |u_k>, j, k = 1..N.

    `basis` records which model the coefficients refer to; matrices whose
    entries are model-independent (pure index formulas) may carry None.
    """

    entries: np.ndarray
    basis: EigenBasis | None = None

    def __post_init__(self) -> None:
        m = np.asarray(self.entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("entries must be a square matrix")
        if m.shape[0] > MAX_DIMENSION:
            raise ValueError(f"dimension {m.shape[0]} exceeds the {MAX_DIMENSION} cap")
        scale = max(1.0, float(np.max(np.abs(m))) if m.size else 1.0)
        if float(np.max(np.abs(m - m.conj().T))) > _HERMITICITY_TOL * scale:
            raise ValueError("entries are not Hermitian")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "entries", m)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def ladder_matrices(
    scale: SemiclassicalScale, N: int, pad: int = 0
) -> tuple[OperatorMatrix, OperatorMatrix]:
    """Position and momentum matrices on levels 1..N+pad.

    X is real symmetric, P purely imaginary Hermitian, both tridiagonal with
    <u_{k+1}|.|u_k> magnitude sqrt(hbar k / 2).
    """
    if N < 1 or pad < 0:
        raise ValueError("need N >= 1 and pad >= 0")
    dim = N + pad
    hbar = scale.hbar
    c = np.sqrt(hbar * np.arange(1, dim) / 2.0)
    X = np.zeros((dim, dim), dtype=complex)
    P = np.zeros((dim, dim), dtype=complex)
    idx = np.arange(dim - 1)
    X[idx + 1, idx] = c
    X[idx, idx + 1] = c
    P[idx + 1, idx] = 1j * c
    P[idx, idx + 1] = -1j * c
    basis = EigenBasis(model=Model.OSCILLATOR, hbar=hbar)
    return OperatorMatrix(entries=X, basis=basis), OperatorMatrix(entries=P, basis=basis)


def matrix_linear_power(
    a: float, b: float, n: int, scale: SemiclassicalScale, N: int
) -> OperatorMatrix:
    """Matrix of (a x + b p)^n on levels 1..N as a banded power.

    Every n-step path from level k to l = k + d climbs (n + d)/2 times, so
    entry (l, k) is (hbar/2)^(n/2) (a + ib)^((n+d)/2) (a - ib)^((n-d)/2)
    times entry (l, k) of J^n, J the real ladder matrix with
    <k+1|J|k> = sqrt(k).  J^n is built column by column on its 2n + 1
    diagonals, which reach level N + n: exactly the power on N + n levels
    truncated to N x N, with the corner k, l <= n included.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > MAX_MATRIX_POWER:
        raise ValueError(f"matrix build refused for n > {MAX_MATRIX_POWER}")
    if N < 1:
        raise ValueError("N must be >= 1")
    hbar = scale.hbar
    rows = np.arange(N)[None, :] + np.arange(-n, n + 1)[:, None]  # 0-based level of entry (d, k)
    # J couples 0-based levels j and j + 1 with sqrt(j + 1); nothing below level 0
    up = np.sqrt(np.maximum(rows, 0.0))  # <l|J|l-1>
    down = np.sqrt(np.maximum(rows + 1.0, 0.0))  # <l|J|l+1>
    band = np.zeros((2 * n + 1, N))
    band[n] = 1.0
    for _ in range(n):
        nxt = np.zeros_like(band)
        nxt[1:] = up[1:] * band[:-1]
        nxt[:-1] += down[:-1] * band[1:]
        band = nxt
    pref = (hbar / 2.0) ** (n / 2.0)
    M = np.zeros((N, N), dtype=complex)
    k = np.arange(N)
    for d in range(-n, n + 1, 2):
        cols = k[(k + d >= 0) & (k + d < N)]
        s_up = (n + d) // 2
        weight = pref * (a + 1j * b) ** s_up * (a - 1j * b) ** (n - s_up)
        M[cols + d, cols] = weight * band[d + n, cols]
    basis = EigenBasis(model=Model.OSCILLATOR, hbar=hbar)
    return OperatorMatrix(entries=M, basis=basis)


def box_multiplication_matrix(N: int, L: float) -> OperatorMatrix:
    """Tridiagonal matrix of multiplication by sin(pi x / 2L) / sqrt(L)."""
    if N < 1:
        raise ValueError("N must be >= 1")
    if not L > 0:
        raise ValueError("L must be positive")
    M = np.zeros((N, N), dtype=complex)
    idx = np.arange(N - 1)
    M[idx + 1, idx] = -1.0 / (2.0 * math.sqrt(L))
    M[idx, idx + 1] = -1.0 / (2.0 * math.sqrt(L))
    return OperatorMatrix(entries=M, basis=None)


def box_momentum_entry(j, k, L: float, hbar: float) -> np.ndarray | complex:
    """Momentum matrix element <u_j| p |u_k>; zero for same-parity j, k."""
    j_arr = np.asarray(j, dtype=float)
    k_arr = np.asarray(k, dtype=float)
    diff = j_arr**2 - k_arr**2
    parity = 1.0 - (-1.0) ** (j_arr + k_arr)
    safe = np.where(diff == 0, 1.0, diff)
    out = np.where(diff == 0, 0.0, -1j * hbar / L * parity * j_arr * k_arr / safe)
    return out if (np.ndim(j) or np.ndim(k)) else complex(out[()])


def box_momentum_matrix(N: int, L: float, hbar: float) -> OperatorMatrix:
    """Truncated momentum matrix C_jk for the box, levels 1..N."""
    if N < 1:
        raise ValueError("N must be >= 1")
    j = np.arange(1, N + 1)
    M = box_momentum_entry(j[:, None], j[None, :], L, hbar)
    basis = EigenBasis(model=Model.BOX, hbar=hbar, box_half_width=L)
    return OperatorMatrix(entries=np.asarray(M), basis=basis)
