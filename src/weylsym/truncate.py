"""Coefficient matrices of truncated observables in the eigenbasis.

Oscillator observables (a x + b p)^n are banded powers of the ladder
matrix, held as their 2n + 1 diagonals (`LadderBand`) and never as an
N x N matrix: both of their norms read the diagonals directly.

Ladder elements: with 1-based levels (u_1 = ground state) the raising
matrix element is <u_{k+1}| x |u_k> = sqrt(hbar k / 2), pinned by quadrature
against the eigenfunctions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernel import _check_count, _check_levels

__all__ = [
    "LadderBand",
    "matrix_linear_power",
]

# The only bound on `sweep --n`, which comes from the command line: the
# banded power holds (2n + 1) x N doubles, ~0.8 GB at n = 100000, N = 512.
MAX_MATRIX_POWER = 12
# The bound on N, which also comes from the command line: the banded power
# holds (2n + 1) x N doubles, 0.8 MB at n = 12, N = 4096, and without the
# bound `sweep --N` would size that allocation.  It also caps the rank of a
# `moyal.FiniteRankOperator`, whose box symbol holds a (2N - 1)^2 complex
# array W (`weyl._box_operator_symbol`): 1.07 GB at N = 4096.
MAX_DIMENSION = 4096


@dataclass(frozen=True)
class LadderBand:
    """(a x + b p)^n on levels 1..N as the diagonals of J^n.

    Entry (l, k) of the matrix, 0-based, with offset d = l - k in -n..n, is
    weights[d + n] * diagonals[d + n, k].  Column k holds all of column k of
    the untruncated power, so the rows l = N..N + n - 1 are exact too: they
    form the block coupling levels <= N to levels > N.  Only the offsets
    d = n mod 2 carry entries, and on each of them
    |weight|^2 = weight_sq = (hbar/2)^n (a^2 + b^2)^n.
    """

    a: float
    b: float
    hbar: float
    diagonals: np.ndarray  # (2n + 1, N), real

    @property
    def n(self) -> int:
        return self.diagonals.shape[0] // 2

    @property
    def N(self) -> int:
        return self.diagonals.shape[1]

    @property
    def offsets(self) -> np.ndarray:
        return np.arange(-self.n, self.n + 1)

    @property
    def weights(self) -> np.ndarray:
        """(hbar/2)^(n/2) (a + ib)^u (a - ib)^(n - u) on offset d, u = (n + d)/2
        the number of raising steps; 0 on the offsets that carry no entry."""
        n, a, b = self.n, self.a, self.b
        pref = (self.hbar / 2.0) ** (n / 2.0)
        w = np.zeros(2 * n + 1, dtype=complex)
        for d in range(-n, n + 1, 2):
            s_up = (n + d) // 2
            w[d + n] = pref * (a + 1j * b) ** s_up * (a - 1j * b) ** (n - s_up)
        return w

    @property
    def weight_sq(self) -> float:
        return (self.hbar / 2.0) ** self.n * (self.a * self.a + self.b * self.b) ** self.n


def _check_power(n: int, hbar: float, N: int) -> tuple[int, int]:
    """The refusals of `matrix_linear_power`, which allocate nothing; n and
    N handed back as ints."""
    N = _check_levels(N, hbar)
    n = _check_count(n, "n")
    if n > MAX_MATRIX_POWER:
        raise ValueError(f"matrix build refused for n > {MAX_MATRIX_POWER}")
    if N > MAX_DIMENSION:
        raise ValueError(f"dimension {N} exceeds the {MAX_DIMENSION} cap")
    return n, N


def _ladder_step(band: np.ndarray) -> np.ndarray:
    """The diagonals of J^t from those of J^(t - 1), on the same columns.

    Entry (d + t, k) is entry (k + d, k) of J^t, 0-based.  Every entry is
    >= 0, so a term missing at the band's edge adds the +0 a wider band
    would have added: each entry is the same double at every band width.
    """
    t, N = band.shape[0] // 2 + 1, band.shape[1]
    # J couples 0-based levels j and j + 1 with sqrt(j + 1); nothing below level 0
    up = np.sqrt(np.maximum(np.arange(N)[None, :] + np.arange(-t, t + 1)[:, None], 0.0))  # <l|J|l-1>
    nxt = np.zeros((2 * t + 1, N))
    nxt[2:] = up[2:] * band
    nxt[:-2] += up[1:-1] * band  # <l|J|l+1> = <l+1|J|l>
    return nxt


def _ladder_powers(n: int, N: int):
    """Yield the diagonals of J^t on columns k < N, t = 0..n, each a
    (2t + 1, N) array built from the one before.  No column depends on N,
    so a sweep builds the band once at its largest N and reads the first N
    columns of it.  Only the band is held between steps."""
    band = np.ones((1, N))
    yield band
    for _ in range(n):
        band = _ladder_step(band)
        yield band


def matrix_linear_power(a: float, b: float, n: int, hbar: float, N: int) -> LadderBand:
    """(a x + b p)^n on levels 1..N as a band of the ladder power.

    Every n-step path from level k to l = k + d climbs (n + d)/2 times, so
    entry (l, k) is (hbar/2)^(n/2) (a + ib)^((n+d)/2) (a - ib)^((n-d)/2)
    times entry (l, k) of J^n, J the real ladder matrix with
    <k+1|J|k> = sqrt(k).  J^n is the last band of `_ladder_powers`, built
    column by column on its 2n + 1 diagonals, which reach level N + n:
    truncated to rows <= N, exactly the power on N + n levels truncated to
    N x N, with the corner k, l <= n included.  Refuses an n that is not an
    integer in 0..MAX_MATRIX_POWER, an N that is not an integer in
    1..MAX_DIMENSION (an integer-valued float is taken as its integer, for
    both) and an hbar that is not finite and > 0 before it allocates
    anything.
    """
    n, N = _check_power(n, hbar, N)
    for band in _ladder_powers(n, N):
        pass
    band.flags.writeable = False
    return LadderBand(a=a, b=b, hbar=hbar, diagonals=band)
