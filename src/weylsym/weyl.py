"""Weyl symbols in closed form.

Box: the projection and truncated momentum symbols share one level sum,
sum_j c_j [S(m_j + q) +- S(m_j - q)] with S = sin(A d)/d from `kernel`,
split by angle addition; the symbol of any finite-rank operator (the box
branch of `moyal.FiniteRankOperator.symbol`) groups its rank-one terms by
j + k and j - k.  On an outer product of more than one cell (an x column
against a p row: a field block, a grid or a row of points) the level sum
is two in-order contractions of a (levels x rows) table from x with a
(levels x columns) table from p.  Paired points and one cell take its
levels in chunks of at most _LEVEL_CHUNK = 2^12 entries (levels x cells):
many paired points one level at a time, a point alone all of them.  Every
cell adds its levels one by one in order on either route, so a field
keeps the bytes of point calls for every block size.  Oscillator:
Groenewold's associated-Laguerre form, one recurrence yielding the
normalised Laguerre functions at their true scale (on Python floats at one
point), summed by the projection symbol, the operator symbol (the
oscillator branch of `moyal.FiniteRankOperator.symbol`) and
`diag.oscillator_disk_distance_sq`.
"""

from __future__ import annotations

import math
import sys
from functools import partial

import numpy as np

from .kernel import _check_box, _check_levels, _sin_ratio, dirichlet_kernel
from .scale import PhaseGrid, SymbolField, _at_points, _point_arrays, _refuse_nan

__all__ = [
    "symbol_projection_box",
    "projection_symbol_field",
    "symbol_truncated_momentum_box",
    "momentum_symbol_field",
    "rescaled_kernel_f2",
    "symbol_oscillator_projection",
]

_LN2 = math.log(2.0)
_LEVEL_CHUNK = 1 << 12  # entries (levels x cells) per chunk of `_level_sum`
_Q_FAR = sys.float_info.max / 4  # q beyond which a phase A q <= pi q may overflow


def _level_sum(coef, levels: np.ndarray, parity: float, A: np.ndarray, q: np.ndarray) -> np.ndarray:
    """sum_j coef_j [S(m_j + q) + parity S(m_j - q)], S(t) = sin(A t) / t, over
    levels m_j > 0 in arithmetic progression, for q >= 0.  A (from x) and q
    (from p) have one ndim and broadcast; coef broadcasts to (levels,) + A.shape,
    or is None for unit coefficients, which skips their multiplies.

    By angle addition S(m + q) + e S(m - q) = cos(Aq) sin(Am) [1/(m+q) + e/(m-q)]
    + sin(Aq) cos(Am) [1/(m+q) - e/(m-q)]: per level a sine and a cosine on
    A's shape, reciprocals on q's and two products per cell.  The split's
    rounding errors eps / |m - q| cancel only in exact arithmetic, so the
    nearest level is left out of the reciprocals and its S(m - q) is added
    directly; every other level is at least half a spacing from q.

    When A and q broadcast as an outer product of more than one cell (A
    varies only on axes before every axis q varies on), each sum is one
    `np.einsum('kx,kp->xp', T, R, optimize=False)` of the (levels x A) table
    T by the (levels x q) table R: with the levels outermost, numpy adds
    out[x, :] += T[k, x] R[k, :] for k in order.  Otherwise (paired points,
    one cell) levels go in chunks of at most _LEVEL_CHUNK levels x cells,
    each cell adding them one by one in order.  So no value depends on the
    route or the chunking.  einsum sums a one-cell result unrolled, and BLAS
    matrix products round differently by layout, so neither serves there.
    """
    if coef is not None:
        coef = np.broadcast_to(coef, levels.shape + A.shape)
    step = levels[1] - levels[0] if levels.size > 1 else 1.0
    near = np.clip(np.rint((q - levels[0]) / step), 0, levels.size - 1).astype(np.intp)
    m_near = levels[near]
    levels_col = levels.reshape((-1,) + (1,) * A.ndim)

    def tables(chunk):
        """sin(A m) coef and cos(A m) coef on A's shape, u and v on q's."""
        m = levels_col[chunk]
        Am = A * m
        sin_m, cos_m = np.sin(Am), np.cos(Am)
        if coef is not None:
            sin_m *= coef[chunk]
            cos_m *= coef[chunk]
        r_plus, r_minus = 1.0 / (m + q), m - q
        r_minus[m == m_near] = np.inf
        np.divide(parity, r_minus, out=r_minus)
        return sin_m, cos_m, r_plus + r_minus, r_plus - r_minus

    shape = np.broadcast_shapes(A.shape, q.shape)
    cells = math.prod(shape)
    x_axes = max((i + 1 for i, n in enumerate(A.shape) if n > 1), default=0)
    if cells > 1 and math.prod(q.shape[:x_axes]) == 1:
        sin_m, cos_m, u, v = tables(slice(None))
        k = levels.size
        even, odd = (
            np.einsum("kx,kp->xp", a.reshape(k, -1), b.reshape(k, -1), optimize=False).reshape((1,) + shape)
            for a, b in ((sin_m, u), (cos_m, v))
        )
    else:
        c = max(1, min(levels.size, _LEVEL_CHUNK // max(cells, 1)))
        # run[0] holds the (even, odd) sums and run[1:] a chunk's products; the
        # pair axis keeps the levels off the innermost axis, which numpy would
        # reduce pairwise.  One level per chunk adds in place, with no run.
        run = np.zeros((c + 1, 2) + shape) if c > 1 else None
        sums = run[:1] if c > 1 else np.zeros((1, 2) + shape)
        even, odd = sums[:, 0], sums[:, 1]
        for j0 in range(0, levels.size, c):
            sin_m, cos_m, u, v = tables(slice(j0, j0 + c))
            n = sin_m.shape[0]
            if n == 1:  # the same sums; numpy would copy run[0] for the overlap
                even += sin_m * u
                odd += cos_m * v
            else:
                np.multiply(sin_m, u, out=run[1 : n + 1, 0])
                np.multiply(cos_m, v, out=run[1 : n + 1, 1])
                np.add.reduce(run[: n + 1], axis=0, out=run[0])
    even *= np.cos(A * q)
    odd *= np.sin(A * q)
    even += odd
    nearest = parity * _sin_ratio(A, m_near - q)
    if coef is not None:
        nearest = nearest * np.take_along_axis(coef, near[None], axis=0)
    even += nearest
    return even[0]


def _level_units(p_arr, scale: float) -> tuple[np.ndarray, np.ndarray]:
    """q = |p| scale, and the momenta with q > _Q_FAR, where the phases of the
    level sum could overflow: every quotient sin(A t)/t there is below 1/q,
    so the symbol is 0.  Those take q = 0 in the sum, whose value is then
    replaced."""
    size = np.abs(p_arr)
    far = size > _Q_FAR / scale
    return np.where(far, 0.0, size) * scale, far


def _projection_symbol_values(N: int, hbar: float, L: float, x_arr, p_arr) -> np.ndarray:
    """The projection symbol, x and p broadcasting.  With A = 2 (L - |x|) / hbar,
    S(t) = sin(A t) / t, q = |p| and m_k = k g, g = pi hbar / 2L,

        sigma = (hbar / 2L) [sum_k (S(m_k + q) + S(m_k - q)) - 2 S(q) sum_k cos(A m_k)],

    since cos(k pi (L + x) / L) = cos(A m_k) for |x| <= L; even in p.  In
    units of g the levels are k and the phase per level is alpha = A g: the
    first sum is `_level_sum`, and 2 sum_k cos(k alpha) = D_N(alpha) - 1.
    """
    alpha = math.pi * np.maximum(L - np.abs(x_arr), 0.0) / L
    q, far = _level_units(p_arr, 2.0 * L / (math.pi * hbar))
    tot = _level_sum(None, np.arange(1.0, N + 1), 1.0, alpha, q)
    tot -= _sin_ratio(alpha, q) * (dirichlet_kernel(N, alpha) - 1.0)
    tot *= 1.0 / math.pi
    tot = np.where(np.abs(x_arr) > L, 0.0, tot)
    return np.where(far, 0.0, tot) if far.any() else tot


def symbol_projection_box(N: int, hbar: float, L: float, x, p) -> np.ndarray | float:
    """Closed-form symbol of the rank-N box projection; 0 for |x| > L."""
    N = _check_box(L, hbar, N)
    return _at_points(partial(_projection_symbol_values, N, hbar, L), x, p, N)


def symbol_truncated_momentum_box(N: int, hbar: float, L: float, x, p) -> np.ndarray | float:
    """Closed-form symbol of the truncated box momentum; odd in p, 0 for
    |x| >= L, O(N) per point."""
    N = _check_box(L, hbar, N)
    return _at_points(partial(_momentum_symbol_values, N, hbar, L), x, p, N)


def _momentum_symbol_values(N: int, hbar: float, L: float, x_arr, p_arr) -> np.ndarray:
    """The momentum symbol from prefix sums, x and p broadcasting.

    Index the pairs j > k with j + k odd by s = j + k and d = j - k, both
    odd, with d <= s - 2 and s + d <= 2N.  With theta = pi (x + L) / 2L,
    g_m = pi hbar m / 4L, S(q) = sin(A q) / q, T(m) = S(p - g_m) - S(p + g_m),
    and since j k / (j^2 - k^2) = (s/d - d/s) / 4,

        sigma = (hbar^2 / 2L^2) sum_{s,d} (s/d - d/s) [sin(d theta) T(s) - sin(s theta) T(d)].

    Collected by m (odd, m <= 2N - 1), T(m) is multiplied by

        m sum_{d<=D} sin(d theta)/d - (1/m) sum_{d<=D} d sin(d theta)
          + m sum_{s=m+2}^{2N-m} sin(s theta)/s - (1/m) sum_{s=m+2}^{2N-m} s sin(s theta),

    D = min(m - 2, 2N - m), all sums over odd indices: differences of prefix
    sums on x's own shape.  As T(m) = -sign(p) [S(g_m + q) - S(g_m - q)],
    q = |p|, the sum over m is `_level_sum` in units of g_1; +0 at p = 0.
    """
    m = np.arange(1.0, 2 * N, 2).reshape((-1,) + (1,) * x_arr.ndim)  # m = 2i + 1
    outside = np.abs(x_arr) >= L  # masked, infinite x too: 0 stands in for them
    sines = np.sin(m * (math.pi * (np.where(outside, 0.0, x_arr) + L) / (2.0 * L)))
    i = np.arange(N)
    n_d = np.minimum(i, N - i)  # odd d <= D
    hi, lo = N - i, np.minimum(i + 1, N - i)  # odd s in [m + 2, 2N - m], empty for m >= N
    # prefix[c]: sums over the first c odd indices, of sin / m and then of
    # m sin, in one buffer; at most five tables of N rows are live at once
    prefix = np.empty((N + 1,) + x_arr.shape)
    prefix[0] = 0.0
    np.cumsum(sines / m, axis=0, out=prefix[1:])
    coef = prefix[n_d]
    coef += prefix[hi]
    coef -= prefix[lo]
    coef *= m
    sines *= m
    np.cumsum(sines, axis=0, out=prefix[1:])
    del sines
    term = prefix[n_d]
    term += prefix[hi]
    term -= prefix[lo]
    del prefix
    term /= m
    coef -= term
    del term
    alpha = math.pi * np.maximum(L - np.abs(x_arr), 0.0) / (2.0 * L)
    q, far = _level_units(p_arr, 4.0 * L / (math.pi * hbar))
    tot = _level_sum(coef, m.ravel(), -1.0, alpha, q)
    tot *= np.sign(p_arr) * (-2.0 * hbar / (math.pi * L))
    return np.where(outside | (p_arr == 0) | far, 0.0, tot)


def rescaled_kernel_f2(N: int, hbar: float, L: float, x, y) -> np.ndarray | float:
    """2 pi hbar K_N(x - hbar y/2, x + hbar y/2) for the rank-N box kernel:
    the partial Fourier transform of the symbol in p, compared against the
    bulk sine profile.

    With x1, y1 = x -+ hbar y/2 the kernel's two Dirichlet factors are
    separable: D_N(c (x1 - y1)) = D_N(c hbar y) (D_N is even) depends on y
    alone and D_N(c (x1 + y1 + 2L)) = D_N(c (2x + 2L)) on x alone,
    c = pi / 2L.  Each is evaluated on its own coordinate's points; only
    their difference and the mask |x1|, |y1| <= L take the broadcast shape.
    A NaN x or y is refused.
    """
    N = _check_box(L, hbar, N)
    x_arr, y_arr, unwrap = _point_arrays(x, y)
    _refuse_nan(x=x_arr, y=y_arr)
    # |x| > L or |hbar y / 2| > L puts a point outside; masked, infinite ones
    # too, each axis takes 0 in their place
    x_in, y_in = np.abs(x_arr) <= L, np.abs(hbar * y_arr / 2.0) <= L
    x_arr, y_arr = np.where(x_in, x_arr, 0.0), np.where(y_in, y_arr, 0.0)
    shift = hbar * y_arr / 2.0
    c = math.pi / (2.0 * L)
    inside = x_in & y_in & (np.abs(x_arr - shift) <= L) & (np.abs(x_arr + shift) <= L)
    across = dirichlet_kernel(N, c * (hbar * y_arr))
    along = dirichlet_kernel(N, c * (2.0 * x_arr + 2.0 * L))
    out = (across - along) / (4.0 * L)
    return unwrap(2.0 * math.pi * hbar * np.where(inside, out, 0.0))


def _oscillator_z(hbar: float, x_arr: np.ndarray, p_arr: np.ndarray) -> np.ndarray:
    """z = 2 (x^2 + p^2) / hbar, capped at 1e9: beyond it every symbol here
    is below the smallest subnormal for any rank < 10^7, and the cap keeps
    the binary exponent of `_laguerre_functions` within int32."""
    with np.errstate(over="ignore"):
        return np.minimum(2.0 * (x_arr**2 + p_arr**2) / hbar, 1e9)


def _laguerre_functions(d: int, z: np.ndarray, count: int):
    """Yield the normalised Laguerre functions
    l_n(z) = sqrt(n! / (n+d)!) z^{d/2} e^{-z/2} L_n^(d)(z), n = 0..count-1,
    at their true scale.

    The recurrence runs on mantissas, renormalised at every step, beside a
    binary exponent E held as int32 (|E| <= 7.3e8 since z <= 1e9); each l_n
    is yielded as ldexp(mantissa, E).  So e^{-z/2} never underflows on its
    own, and large z gives exact zeros, never NaNs.  At one point (z of
    size 1) the start is the same numpy one, and the steps then run on
    Python floats with `math.frexp` / `math.ldexp`, each l_n yielded as a
    float: the same correctly rounded operations in the same order, so the
    same bits, without numpy's per-call overhead on one-element arrays.

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
    expo = expo.astype(np.int32)
    frexp, ldexp = np.frexp, np.ldexp
    if z.size == 1:
        z, m0, expo = z.item(), m0.item(), expo.item()
        frexp, ldexp = math.frexp, math.ldexp
    yield ldexp(m0, expo)
    if count == 1:
        return
    m1 = (1 + d - z) * m0 / math.sqrt(1 + d)
    yield ldexp(m1, expo)
    for n in range(1, count - 1):
        m2 = ((2 * n + 1 + d - z) * m1 - math.sqrt(n * (n + d)) * m0) / math.sqrt(
            (n + 1) * (n + 1 + d)
        )
        m2, shift = frexp(m2)
        m0 = ldexp(m1, -shift)
        m1 = m2
        expo = expo + shift
        yield ldexp(m2, expo)


def symbol_oscillator_projection(N: int, hbar: float, x, p) -> np.ndarray | float:
    """Closed-form symbol of the rank-N oscillator projection (Groenewold).

    sigma_N = 2 e^{-z/2} sum_{n<N} (-1)^n L_n(z) with z = 2 (x^2 + p^2) / hbar:
    twice the alternating sum of the d = 0 Laguerre functions.  O(N) vector
    operations per call; broadcasts x against p.
    """
    N = _check_levels(N, hbar)
    return _at_points(partial(_oscillator_projection_values, N, hbar), x, p, N)


def _oscillator_projection_values(N: int, hbar: float, x_arr, p_arr) -> np.ndarray:
    z = _oscillator_z(hbar, x_arr, p_arr)
    total = 0.0
    for n, ell in enumerate(_laguerre_functions(0, z, N)):
        total = total - ell if n % 2 else total + ell
    return np.reshape(2.0 * total, z.shape)  # a float at one point


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
        for n, ell in enumerate(_laguerre_functions(d, z, int(live[-1]) + 1)):
            sum_below = sum_below + below[n] * ell
            sum_above = sum_above + above[n] * ell
        phase = np.exp(-1j * d * theta)
        out += sum_below * phase + sum_above * phase.conj() if d else sum_below
    return out


def _box_operator_symbol(coeff: np.ndarray, hbar: float, L: float, x_arr, p_arr) -> np.ndarray:
    """Symbol of sum_{j,k} M_jk |u_j><u_k| for the box, at x and p of one shape.

    With s = j + k, t = j - k, theta = pi (x + L) / 2L, g = pi hbar / 4L,
    A = 2 (L - |x|) / hbar and S(d) = sin(A d) / d, the symbol of |u_j><u_k| is

        (hbar / 2L) sum_{e = +-1} [e^{-i e theta t} S(g s + e p) - e^{-i e theta s} S(g t + e p)]:

    each quotient depends on (j, k) through s or t alone, its phase through
    the other.  So M is written once into W[t + N - 1, s - 2] = M_jk, and
    for each sign e the coefficients a_s = sum_t e^{-i e theta t} W[t, s]
    and b_t = sum_s e^{-i e theta s} W[t, s] of every point are two matrix
    products; each point then takes 4 (2N - 1) quotients.  0 for |x| > L,
    and where the projection symbol's q = |p| / 2g passes _Q_FAR.
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
    outside = np.abs(x[:, 0]) > L  # masked, infinite x too: 0 stands in for them
    theta = math.pi * (np.where(outside[:, None], 0.0, x) + L) / (2.0 * L)
    g = math.pi * hbar / (4.0 * L)
    # as for the projection symbol's q = |p| / 2g; A g <= pi / 2 keeps the rest finite
    far = np.abs(p[:, 0]) > _Q_FAR * 2.0 * g
    p = np.where(far[:, None], 0.0, p)
    out = np.zeros(x.shape[0], dtype=complex)
    for e in (1, -1):
        a = np.exp(-1j * e * theta * t) @ W
        b = np.exp(-1j * e * theta * s) @ W.T
        out += np.sum(a * _sin_ratio(A, g * s + e * p), axis=1)
        out -= np.sum(b * _sin_ratio(A, g * t + e * p), axis=1)
    out *= hbar / (2.0 * L)
    out[outside | far] = 0.0
    return out.reshape(x_arr.shape)


def projection_symbol_field(N: int, hbar: float, L: float, grid: PhaseGrid) -> SymbolField:
    """Box projection symbol sampled on a grid."""
    N = _check_box(L, hbar, N)
    return SymbolField.sample(partial(_projection_symbol_values, N, hbar, L), grid, levels=N)


def momentum_symbol_field(N: int, hbar: float, L: float, grid: PhaseGrid) -> SymbolField:
    """Truncated box momentum symbol sampled on a grid."""
    N = _check_box(L, hbar, N)
    return SymbolField.sample(partial(_momentum_symbol_values, N, hbar, L), grid, levels=N)


def _oscillator_projection_field(N: int, hbar: float, grid: PhaseGrid) -> SymbolField:
    """Oscillator projection symbol sampled on a grid (the CLI's osc field)."""
    N = _check_levels(N, hbar)
    return SymbolField.sample(partial(_oscillator_projection_values, N, hbar), grid, levels=N)
