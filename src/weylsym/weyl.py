"""Weyl symbols in closed form.

The box model has closed forms for the projection symbol, the truncated
momentum symbol and the symbol of any finite-rank operator (the box branch
of `moyal.operator_symbol_complex`: its rank-one terms grouped by j + k and
j - k), built from the singularity-safe sin(A d)/d quotient of `kernel`.
The oscillator has Groenewold's associated-Laguerre form: one recurrence
for the normalised Laguerre functions serves both the projection symbol and
the symbol of any finite-rank operator (the oscillator branch of
`moyal.operator_symbol_complex`).
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from .kernel import _check_box, _sin_ratio, box_projection_kernel
from .scale import PhaseGrid, SymbolField, _point_arrays

__all__ = [
    "symbol_projection_box",
    "projection_symbol_field",
    "symbol_truncated_momentum_box",
    "momentum_symbol_field",
    "rescaled_kernel_f2",
    "symbol_oscillator_projection",
]

_LN2 = math.log(2.0)


def _projection_symbol_values(N: int, hbar: float, L: float, x_arr, p_arr) -> np.ndarray:
    """Three-sum closed form, broadcasting x against p, with O(1)
    transcendentals per cell.

    With A = 2 (L - |x|) / hbar, S(t) = sin(A t) / t, q = |p| and the
    resonances m_k = k g, g = pi hbar / 2L,

        sigma = (hbar / 2L) [sum_k (S(m_k + q) + S(m_k - q)) - 2 S(q) sum_k cos(A m_k)],

    since cos(k pi (L + x) / L) = cos(A m_k) for |x| <= L.  S is even, so
    sigma is exactly even in p.  By angle addition

        S(m + q) + S(m - q) = cos(Aq) sin(Am) [1/(m+q) + 1/(m-q)]
                            + sin(Aq) cos(Am) [1/(m+q) - 1/(m-q)],

    so per level sin(A m_k) and cos(A m_k) depend on x alone (a field's x
    column) and the reciprocals on q alone (a p row); the cells see two
    multiply-adds per level, in a fixed order of k, and then cos(Aq),
    sin(Aq), S(q) and one resonance term.

    Resonance: the split carries absolute errors eps / |m_k - q| that
    cancel in exact arithmetic but not in floating point.  The nearest
    level k* = rint(q / g), clipped to [1, N], is therefore left out of the
    reciprocals and S(m_k* - q) is added directly.  Every other level has
    |m_k - q| >= g / 2 > hbar / 2L, so its error is at most 2L eps / hbar,
    O(eps) after the hbar / 2L prefactor.
    """
    A = 2.0 * np.maximum(L - np.abs(x_arr), 0.0) / hbar
    alpha = math.pi * (L - np.abs(x_arr)) / L  # A g
    q = np.abs(p_arr)
    g = math.pi * hbar / (2.0 * L)
    k_star = np.clip(np.rint(q / g), 1, N)
    cos_sum = np.zeros(x_arr.shape)
    shape = np.broadcast(x_arr, p_arr).shape
    even = np.zeros(shape)  # sum_k sin(A m_k) [1/(m_k+q) + 1/(m_k-q)]
    odd = np.zeros(shape)  # sum_k cos(A m_k) [1/(m_k+q) - 1/(m_k-q)]
    for k in range(1, N + 1):
        m = k * g
        k_alpha = k * alpha  # A m_k
        sin_k, cos_k = np.sin(k_alpha), np.cos(k_alpha)
        cos_sum += cos_k
        r_plus = 1.0 / (m + q)
        d_minus = m - q
        d_minus[k_star == k] = np.inf
        r_minus = 1.0 / d_minus
        even += sin_k * (r_plus + r_minus)
        odd += cos_k * (r_plus - r_minus)
    Aq = A * q
    tot = np.cos(Aq) * even + np.sin(Aq) * odd
    tot -= 2.0 * cos_sum * _sin_ratio(A, q)
    tot += _sin_ratio(A, k_star * g - q)
    tot *= hbar / (2.0 * L)
    return np.where(np.abs(x_arr) > L, 0.0, tot)


def symbol_projection_box(N: int, hbar: float, L: float, x, p) -> np.ndarray | float:
    """Closed-form symbol of the rank-N box projection; 0 for |x| > L."""
    if N < 1:
        raise ValueError("N must be >= 1")
    _check_box(L, hbar)
    x_arr, p_arr, unwrap = _point_arrays(x, p, broadcast=False)
    return unwrap(_projection_symbol_values(N, hbar, L, x_arr, p_arr))


def symbol_truncated_momentum_box(N: int, hbar: float, L: float, x, p) -> np.ndarray | float:
    """Closed-form symbol of the truncated box momentum; odd in p, 0 for
    |x| >= L, O(N) per point."""
    if N < 1:
        raise ValueError("N must be >= 1")
    _check_box(L, hbar)
    x_arr, p_arr, unwrap = _point_arrays(x, p, broadcast=False)
    return unwrap(_momentum_symbol_values(N, hbar, L, x_arr, p_arr))


def _momentum_symbol_values(N: int, hbar: float, L: float, x_arr, p_arr) -> np.ndarray:
    """The momentum symbol from prefix sums, broadcasting x against p.

    Index the pairs j > k with j + k odd by s = j + k and d = j - k, both
    odd, with d <= s - 2 and s + d <= 2N.  With theta = pi (x + L) / 2L,
    g_m = pi hbar m / 4L, S(q) = sin(A q) / q, T(m) = S(p - g_m) - S(p + g_m),
    and since j k / (j^2 - k^2) = (s/d - d/s) / 4,

        sigma = (hbar^2 / 2L^2) sum_{s,d} (s/d - d/s) [sin(d theta) T(s) - sin(s theta) T(d)].

    Collected by m (odd, m <= 2N - 1), T(m) is multiplied by

        m sum_{d<=D} sin(d theta)/d - (1/m) sum_{d<=D} d sin(d theta)
          + m sum_{s=m+2}^{2N-m} sin(s theta)/s - (1/m) sum_{s=m+2}^{2N-m} s sin(s theta),

    D = min(m - 2, 2N - m), all sums over odd indices: differences of prefix
    sums that depend on x alone.  The prefix tables take x's own shape (a
    field's x column, never the cell block); the cells see 2N sin(A q)/q
    passes.
    """
    A = 2.0 * np.maximum(L - np.abs(x_arr), 0.0) / hbar
    m = np.arange(1, 2 * N, 2)  # m = 2i + 1
    sines = np.sin(m * (math.pi * (x_arr[..., None] + L) / (2.0 * L)))
    start = np.zeros(x_arr.shape + (1,))
    # q[..., c]: sums over the first c odd indices
    q1 = np.concatenate([start, np.cumsum(sines / m, axis=-1)], axis=-1)
    q2 = np.concatenate([start, np.cumsum(sines * m, axis=-1)], axis=-1)
    i = np.arange(N)
    n_d = np.minimum(i, N - i)  # odd d <= D
    hi, lo = N - i, np.minimum(i + 1, N - i)  # odd s in [m + 2, 2N - m], empty for m >= N
    coef = m * (q1[..., n_d] + q1[..., hi] - q1[..., lo])
    coef -= (q2[..., n_d] + q2[..., hi] - q2[..., lo]) / m
    tot = np.zeros(np.broadcast(x_arr, p_arr).shape)
    for ii in range(N):
        g = math.pi * hbar * (2 * ii + 1) / (4.0 * L)
        tot += coef[..., ii] * (_sin_ratio(A, p_arr - g) - _sin_ratio(A, p_arr + g))
    tot *= hbar * hbar / (2.0 * L * L)
    return np.where(np.abs(x_arr) >= L, 0.0, tot)


def rescaled_kernel_f2(N: int, hbar: float, L: float, x, y) -> np.ndarray | float:
    """2 pi hbar K_N(x - hbar y/2, x + hbar y/2) for the rank-N box kernel:
    the partial Fourier transform of the symbol in p, compared against the
    bulk sine profile."""
    _check_box(L, hbar)
    shift = hbar * np.asarray(y) / 2.0
    return 2.0 * math.pi * hbar * box_projection_kernel(N, L, x - shift, x + shift)


def _oscillator_z(hbar: float, x_arr: np.ndarray, p_arr: np.ndarray) -> np.ndarray:
    """z = 2 (x^2 + p^2) / hbar, capped at 1e9: beyond it every symbol here
    is below the smallest subnormal for any rank < 10^7, and the cap keeps
    the carried exponent a finite integer."""
    with np.errstate(over="ignore"):
        return np.minimum(2.0 * (x_arr**2 + p_arr**2) / hbar, 1e9)


def _laguerre_functions(d: int, z: np.ndarray, count: int):
    """Yield the normalised Laguerre functions
    l_n(z) = sqrt(n! / (n+d)!) z^{d/2} e^{-z/2} L_n^(d)(z), n = 0..count-1,
    as (mantissa, shift): l_n = mantissa * 2^e with e the sum of the shifts
    yielded so far.  Each step renormalises the mantissa, so e^{-z/2} never
    underflows on its own and large z gives exact zeros, never NaNs.

    l_0 = z^{d/2} e^{-z/2} / sqrt(d!), l_1 = (1 + d - z) l_0 / sqrt(1 + d),
    sqrt((n+1)(n+1+d)) l_{n+1} = (2n + 1 + d - z) l_n - sqrt(n (n+d)) l_{n-1}.
    d stays a Python int, so at d = 0 the square roots are exact integers.
    """
    if d == 0:
        expo = np.floor(-0.5 * z / _LN2)
        m0 = np.exp(-0.5 * z - expo * _LN2)
    else:
        # at z = 0, l_0 = 0 for d > 0: no 0 log 0
        pos = z > 0
        log_l0 = 0.5 * d * np.log(np.where(pos, z, 1.0)) - 0.5 * z - 0.5 * math.lgamma(d + 1)
        expo = np.floor(log_l0 / _LN2)
        m0 = np.where(pos, np.exp(log_l0 - expo * _LN2), 0.0)
    yield m0, expo.astype(np.int64)
    if count == 1:
        return
    m1 = (1 + d - z) * m0 / math.sqrt(1 + d)
    yield m1, 0
    for n in range(1, count - 1):
        m2 = ((2 * n + 1 + d - z) * m1 - math.sqrt(n * (n + d)) * m0) / math.sqrt(
            (n + 1) * (n + 1 + d)
        )
        m2, shift = np.frexp(m2)
        m0 = np.ldexp(m1, -shift)
        m1 = m2
        yield m2, shift


def symbol_oscillator_projection(N: int, hbar: float, x, p) -> np.ndarray | float:
    """Closed-form symbol of the rank-N oscillator projection (Groenewold).

    sigma_N = 2 e^{-z/2} sum_{n<N} (-1)^n L_n(z) with z = 2 (x^2 + p^2) / hbar:
    the d = 0 Laguerre functions, summed as mantissas at the recurrence's
    carried binary exponent.  O(N) vector operations per call; broadcasts x
    against p.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if not hbar > 0:
        raise ValueError("hbar must be positive")
    x_arr, p_arr, unwrap = _point_arrays(x, p)
    ells = _laguerre_functions(0, _oscillator_z(hbar, x_arr, p_arr), N)
    total, expo = next(ells)
    for n, (m, shift) in enumerate(ells, start=1):
        total = np.ldexp(total, -shift)
        total = total - m if n % 2 else total + m
        expo = expo + shift
    out = 2.0 * np.ldexp(total, expo)
    return unwrap(out)


def _oscillator_operator_symbol(coeff: np.ndarray, hbar: float, x_arr, p_arr) -> np.ndarray:
    """Symbol of sum_{j,k} M_jk |u_j><u_k| for the oscillator (Groenewold),
    with 0-based n, theta = atan2(p, x) and z = 2 (x^2 + p^2) / hbar:

        sigma = 2 sum_{d>=0} sum_n (-1)^n l_n^(d)(z) [M_{n+d,n} e^{-i d theta} + M_{n,n+d} e^{i d theta}],

    the d = 0 term counted once.  Diagonals of M that are all zero are
    skipped, and each recurrence stops at its diagonal's last nonzero entry,
    so a banded M costs O(bandwidth * M) steps.  x and p broadcast.
    """
    z = _oscillator_z(hbar, x_arr, p_arr)
    theta = np.arctan2(p_arr, x_arr)
    M = coeff.shape[0]
    signs = np.where(np.arange(M) % 2, -2.0, 2.0)  # 2 (-1)^n
    out = np.zeros(z.shape, dtype=complex)
    for d in range(M):
        below = signs[: M - d] * np.diagonal(coeff, -d)  # 2 (-1)^n M_{n+d,n}
        above = signs[: M - d] * np.diagonal(coeff, d)  # 2 (-1)^n M_{n,n+d}
        live = np.flatnonzero((below != 0) | (above != 0))
        if live.size == 0:
            continue
        sum_below = sum_above = 0.0
        expo = 0
        for n, (m, shift) in enumerate(_laguerre_functions(d, z, int(live[-1]) + 1)):
            expo = expo + shift
            ell = np.ldexp(m, expo)
            sum_below = sum_below + below[n] * ell
            if d:
                sum_above = sum_above + above[n] * ell
        if d == 0:
            out += sum_below
        else:
            phase = np.exp(-1j * d * theta)
            out += sum_below * phase + sum_above * phase.conj()
    return out


def _box_operator_symbol(coeff: np.ndarray, hbar: float, L: float, x_arr, p_arr) -> np.ndarray:
    """Symbol of sum_{j,k} M_jk |u_j><u_k| for the box, on x and p of one shape.

    With s = j + k, t = j - k, theta = pi (x + L) / 2L, g = pi hbar / 4L,
    A = 2 (L - |x|) / hbar and S(d) = sin(A d) / d, the symbol of |u_j><u_k| is

        (hbar / 2L) sum_{e = +-1} [e^{-i e theta t} S(g s + e p) - e^{-i e theta s} S(g t + e p)]:

    each quotient depends on (j, k) through s or t alone, its phase through
    the other.  So M is written once into W[t + N - 1, s - 2] = M_jk, and
    for each sign e the coefficients a_s = sum_t e^{-i e theta t} W[t, s]
    and b_t = sum_s e^{-i e theta s} W[t, s] of every point are two matrix
    products; each point then takes 4 (2N - 1) quotients.  0 for |x| > L.
    """
    N = coeff.shape[0]
    s = np.arange(2, 2 * N + 1)
    t = np.arange(1 - N, N)
    j, k = np.indices(coeff.shape)
    W = np.zeros((t.size, s.size), dtype=complex)
    W[j - k + N - 1, j + k] = coeff
    x = x_arr.reshape(-1, 1)
    p = p_arr.reshape(-1, 1)
    A = 2.0 * np.maximum(L - np.abs(x), 0.0) / hbar
    theta = math.pi * (x + L) / (2.0 * L)
    g = math.pi * hbar / (4.0 * L)
    out = np.zeros(x.shape[0], dtype=complex)
    for e in (1, -1):
        a = np.exp(-1j * e * theta * t) @ W
        b = np.exp(-1j * e * theta * s) @ W.T
        out += np.sum(a * _sin_ratio(A, g * s + e * p), axis=1)
        out -= np.sum(b * _sin_ratio(A, g * t + e * p), axis=1)
    out *= hbar / (2.0 * L)
    out[np.abs(x[:, 0]) > L] = 0.0
    return out.reshape(x_arr.shape)


def projection_symbol_field(N: int, hbar: float, L: float, grid: PhaseGrid) -> SymbolField:
    """Box projection symbol sampled on a grid."""
    if N < 1:
        raise ValueError("N must be >= 1")
    _check_box(L, hbar)
    return SymbolField.sample(partial(_projection_symbol_values, N, hbar, L), grid, levels=N)


def momentum_symbol_field(N: int, hbar: float, L: float, grid: PhaseGrid) -> SymbolField:
    """Truncated box momentum symbol sampled on a grid (prefix tables of N per x row)."""
    if N < 1:
        raise ValueError("N must be >= 1")
    _check_box(L, hbar)
    fn = partial(_momentum_symbol_values, N, hbar, L)
    return SymbolField.sample(fn, grid, levels=N, row_table=N)
