"""Direct term-by-term sums of the closed forms, kept as the one slow oracle
of the box level sum (`weyl._level_sum`), the box projection and momentum
symbols, the normalised Laguerre functions behind the oscillator
projection symbol (`weyl._laguerre_functions`), the Dirichlet kernel
(`kernel.dirichlet_kernel`, as its cosine sum) and the sin(A d)/d quotient
(`kernel._sin_ratio`, as its Taylor series where A d is small).

Every box quotient sin(A d)/d is taken here one by one, with its own
removable point, in place of the program's angle-addition split; the
Laguerre polynomials run their plain three-term recurrence on floats, with
no carried exponent, so z must stay below about 1400.  The y-quadrature of
`quadrature_oracle` checks these sums in turn, at some points each.
"""

import math

import numpy as np


def sin_ratio(A, d):
    """sin(A d) / d, and A at d = 0, broadcasting."""
    A, d = np.broadcast_arrays(np.asarray(A, dtype=float), np.asarray(d, dtype=float))
    out = np.array(A, dtype=float)
    live = d != 0
    out[live] = np.sin(A[live] * d[live]) / d[live]
    return out


def taylor_sin_ratio(A, d):
    """4-term Taylor series of sin(A d) / d, exact to rounding for |A d| < 1e-3."""
    z2 = (A * d) ** 2
    return A * (1.0 - z2 / 6.0 + z2 * z2 / 120.0 - z2 * z2 * z2 / 5040.0)


def dirichlet_cosine_sum(N, x):
    """D_N(x) = 1 + 2 sum_{k<=N} cos(k x) at one point, the cosines summed exactly."""
    return 1.0 + 2.0 * math.fsum(np.cos(np.arange(1, N + 1) * x))


def projection_direct_sum(N, hbar, L, x_arr, p_arr):
    """The box projection symbol as its three sums with the 2N + 1
    sin(A d)/d quotients taken directly, broadcasting x against p.

    The third sum is sin(A p)/p times sum_k cos(k pi (L + x) / L), which
    depends on x alone, so the cosines are summed on x's own shape.
    """
    A = 2.0 * np.maximum(L - np.abs(x_arr), 0.0) / hbar
    cos_sum = np.zeros(np.shape(x_arr))
    for k in range(1, N + 1):
        cos_sum = cos_sum + np.cos(math.pi * k * (L + x_arr) / L)
    tot = -2.0 * cos_sum * sin_ratio(A, p_arr)
    for k in range(1, N + 1):
        m = hbar * math.pi * k / (2.0 * L)
        tot += sin_ratio(A, m + p_arr) + sin_ratio(A, m - p_arr)
    tot *= hbar / (2.0 * L)
    return np.where(np.abs(x_arr) > L, 0.0, tot)


def level_sum_direct(coef, levels, parity, A, q):
    """sum_j coef_j [S(m_j + q) + parity S(m_j - q)] with every
    S(t) = sin(A t) / t taken directly, level by level."""
    coef = np.broadcast_to(coef, levels.shape + A.shape)
    return sum(w * (sin_ratio(A, m + q) + parity * sin_ratio(A, m - q)) for w, m in zip(coef, levels))


def momentum_double_sum(N, hbar, L, x, p):
    """The truncated box momentum symbol as the real double sum over pairs
    j > k with j + k odd, pairing (j, k) with (k, j) so that the complex
    prefactors become 2 Im C_jk sin(...) factors; O(N^2) quotients."""
    x_arr = np.asarray(x, dtype=float)
    p_arr = np.asarray(p, dtype=float)
    A = 2.0 * np.maximum(L - np.abs(x_arr), 0.0) / hbar
    tot = np.zeros(np.broadcast(x_arr, p_arr).shape)
    for jj in range(2, N + 1):
        for kk in range(1 + jj % 2, jj, 2):
            c_im = -hbar / L * 2.0 * jj * kk / (jj**2 - kk**2)  # Im C_jk
            g1 = math.pi * hbar * (jj + kk) / (4.0 * L)
            g2 = math.pi * hbar * (jj - kk) / (4.0 * L)
            ph1 = (math.pi / (2.0 * L)) * (jj - kk) * (x_arr + L)
            ph2 = (math.pi / (2.0 * L)) * (jj + kk) * (x_arr + L)
            tot = tot - c_im * (
                np.sin(ph1) * (sin_ratio(A, p_arr - g1) - sin_ratio(A, p_arr + g1))
                - np.sin(ph2) * (sin_ratio(A, p_arr - g2) - sin_ratio(A, p_arr + g2))
            )
    tot = tot * (hbar / L)
    return np.where(np.abs(x_arr) > L, 0.0, tot)


def laguerre_direct(d, z, count):
    """l_n^(d)(z) = sqrt(n! / (n+d)!) z^{d/2} e^{-z/2} L_n^(d)(z), n < count,
    shape (count,) + z.shape, from the plain recurrence
    (n + 1) L_{n+1} = (2n + 1 + d - z) L_n - (n + d) L_{n-1}."""
    z = np.asarray(z, dtype=float)
    poly = [np.ones_like(z), 1.0 + d - z]
    for n in range(1, count - 1):
        poly.append(((2 * n + 1 + d - z) * poly[n] - (n + d) * poly[n - 1]) / (n + 1))
    return np.array([
        np.exp(0.5 * (math.lgamma(n + 1) - math.lgamma(n + d + 1)) - 0.5 * z) * z ** (0.5 * d) * poly[n]
        for n in range(count)
    ])


def oscillator_projection_sum(N, hbar, x, p):
    """The rank-N oscillator projection symbol 2 sum_{n<N} (-1)^n l_n^(0)(z),
    z = 2 (x^2 + p^2) / hbar, broadcasting x against p."""
    z = 2.0 * (np.asarray(x, dtype=float) ** 2 + np.asarray(p, dtype=float) ** 2) / hbar
    signs = np.where(np.arange(N) % 2, -2.0, 2.0).reshape((N,) + (1,) * z.ndim)
    return np.sum(signs * laguerre_direct(0, z, N), axis=0)
