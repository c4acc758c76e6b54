"""Eigenfunction sums, kept as the one slow oracle of the box projection
kernel (`kernel.box_projection_kernel`, and `weyl.rescaled_kernel_f2`
built on it); the eigenfunctions also feed the quadratures of
`quadrature_oracle` and the checks of the matrix elements in `matrix_oracle`.

Oscillator states are Hermite wavefunctions by the normalized three-term
recurrence with the Gaussian folded in; a carried binary exponent keeps the
recurrence finite for k well beyond 4096 even where the bare Gaussian factor
would underflow before the polynomial growth catches up.  Box states are
hard-wall sine modes, exactly zero outside (-L, L).  Kernels are sums
sum_{j,k} M_jk u_j(x) u_k(y) over those values.

Level indices are 1-based (u_1 is the ground state); rows of the arrays
are 0-based.
"""

import math

import numpy as np

from weylsym.basis import EigenBasis, Model

_LN2 = math.log(2.0)


def gauss_legendre(n: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [a, b]."""
    if n < 1:
        raise ValueError("need at least one node")
    x, w = np.polynomial.legendre.leggauss(n)
    half = 0.5 * (b - a)
    return half * x + 0.5 * (a + b), half * w


def oscillator_support_halfwidth(hbar: float, k_max: int) -> float:
    """Classically allowed half-width for levels up to k_max, plus tail margin."""
    return math.sqrt(2.0 * hbar * (k_max + 10)) + 10.0 * math.sqrt(hbar)


def hermite_wavefunctions(k_max: int, hbar: float, x) -> np.ndarray:
    """Oscillator eigenfunctions u_1..u_{k_max} at the points x, shape (k_max, x.size).

    Recurrence on phi_j = u_j directly (never on raw Hermite polynomials):
    the start value carries log(u_1) as a separate base-2 exponent, and the
    pair (phi_j, phi_{j+1}) is renormalized every step, so deep tails where
    exp(-x^2 / 2 hbar) underflows still produce the correct O(1) values
    inside the classically allowed region of high levels.  Values whose true
    magnitude underflows come out as exact zeros.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if not hbar > 0:
        raise ValueError("hbar must be positive")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    xi = x / math.sqrt(hbar)

    # u_1 = (pi hbar)^(-1/4) exp(-xi^2 / 2) = m * 2^E
    log_u1 = -0.5 * xi**2 - 0.25 * math.log(math.pi * hbar)
    expo = np.floor(log_u1 / _LN2)
    m0 = np.exp(log_u1 - expo * _LN2)
    expo = expo.astype(np.int64)

    out = np.empty((k_max, x.size))
    out[0] = np.ldexp(m0, expo)
    if k_max == 1:
        return out

    m1 = math.sqrt(2.0) * xi * m0
    out[1] = np.ldexp(m1, expo)
    for n in range(1, k_max - 1):
        # h_{n+1} = sqrt(2/(n+1)) xi h_n - sqrt(n/(n+1)) h_{n-1}
        m2 = math.sqrt(2.0 / (n + 1)) * xi * m1 - math.sqrt(n / (n + 1)) * m0
        mant, shift = np.frexp(m2)
        live = m2 != 0.0
        m2 = np.where(live, mant, 0.0)
        shift = np.where(live, shift, 0)
        m1 = np.ldexp(m1, -shift)
        m0, m1 = m1, m2
        expo = expo + shift
        out[n + 1] = np.ldexp(m1, expo)
    return out


def box_wavefunctions(k_max: int, L: float, x) -> np.ndarray:
    """Box eigenfunctions u_1..u_{k_max} at the points x; 0 outside (-L, L)."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if not L > 0:
        raise ValueError("L must be positive")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    inside = np.abs(x) < L
    theta = np.where(inside, (x + L) * (math.pi / (2.0 * L)), 0.0)
    k = np.arange(1, k_max + 1)[:, None]
    vals = np.sin(k * theta[None, :]) / math.sqrt(L)
    vals[:, ~inside] = 0.0
    return vals


def wavefunctions(basis: EigenBasis, k_max: int, x) -> np.ndarray:
    """u_k(x) of the basis for k = 1..k_max, shape (k_max, x.size)."""
    if basis.model is Model.OSCILLATOR:
        return hermite_wavefunctions(k_max, basis.hbar, x)
    return box_wavefunctions(k_max, basis.L, x)


def oscillator_eigenvalue(hbar: float, k: int) -> float:
    """Level k energy of the oscillator, hbar (k - 1/2)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return hbar * (k - 0.5)


def _kernel_sum(basis: EigenBasis, entries: np.ndarray, x, y):
    """sum_{j,k} entries_jk u_j(x) u_k(y), x broadcast against y; a number
    for two scalars."""
    x_arr, y_arr = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    ux = wavefunctions(basis, entries.shape[0], x_arr.ravel())
    uy = wavefunctions(basis, entries.shape[0], y_arr.ravel())
    out = np.einsum("jq,jk,kq->q", ux, entries, uy).reshape(x_arr.shape)
    return out if out.ndim else out.item()


def projection_kernel_sum(basis: EigenBasis, N: int, x, y) -> np.ndarray | float:
    """Rank-N projection kernel sum_{k<=N} u_k(x) u_k(y); broadcasts x against y."""
    if N < 1:
        raise ValueError("N must be >= 1")
    return _kernel_sum(basis, np.eye(N), x, y)


def truncated_operator_kernel(matrix, basis: EigenBasis, x, y) -> np.ndarray | complex:
    """Kernel sum_{j,k} M_jk u_j(x) u_k(y) of a truncated observable.

    Complex even for real coefficient matrices, so purely imaginary momentum
    coefficients go through the same path.
    """
    entries = np.asarray(matrix, dtype=complex)
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
        raise ValueError("coefficient matrix must be square")
    return _kernel_sum(basis, entries, x, y)
