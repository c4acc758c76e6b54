"""Weyl symbols: quadrature transform of kernels, and closed forms.

The generic route integrates hbar * K(x - hbar y/2, x + hbar y/2) e^{ipy}
over a Gauss-Legendre rule; the box model additionally has closed forms for
rank-one symbols, the projection symbol and the truncated momentum symbol,
built from singularity-safe sin(A d)/d quotients, and the oscillator
projection symbol has Groenewold's Laguerre closed form.
"""

from __future__ import annotations

import concurrent.futures
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .basis import Model, gauss_legendre
from .kernel import KernelEval, projection_kernel
from .scale import PhaseGrid, SymbolField, _point_arrays, worker_count

__all__ = [
    "WeylQuadratureSpec",
    "CoverageWarning",
    "symbol_from_kernel",
    "symbol_from_kernel_complex",
    "symbol_rank_one_box",
    "symbol_rank_one_box_complex",
    "symbol_projection_box",
    "projection_symbol_field",
    "symbol_truncated_momentum_box",
    "momentum_symbol_field",
    "rescaled_kernel_f2",
    "oscillator_quadrature_spec",
    "box_quadrature_spec",
    "symbol_oscillator_projection",
]

_IM_TOL = 1e-9
_LN2 = math.log(2.0)


class CoverageWarning(UserWarning):
    """Quadrature window does not cover the kernel's y-support."""


@dataclass(frozen=True)
class WeylQuadratureSpec:
    """Gauss-Legendre budget for the y-integral: window [-Y, Y], n nodes."""

    y_halfwidth: float
    n_nodes: int

    def __post_init__(self) -> None:
        if not self.y_halfwidth > 0:
            raise ValueError("y_halfwidth must be positive")
        if self.n_nodes < 64:
            raise ValueError("n_nodes must be >= 64")


def box_quadrature_spec(hbar: float, L: float, x: float, p: float, mu: float) -> WeylQuadratureSpec:
    """Spec matched to the box kernel: window equal to the exact y-support.

    The integrand is trig-smooth inside the support and identically zero
    outside, so putting the window edge exactly on the support corner keeps
    Gauss-Legendre spectrally accurate.
    """
    Y = 2.0 * max(L - abs(x), 0.0) / hbar
    if Y == 0.0:
        Y = 1.0  # integrand identically zero; any window works
    rate = math.pi * mu / (2.0 * L) + abs(p) + 1.0
    n = max(64, math.ceil(4.0 * Y * rate / math.pi))
    return WeylQuadratureSpec(y_halfwidth=Y, n_nodes=n)


def oscillator_quadrature_spec(hbar: float, N: int, p: float) -> WeylQuadratureSpec:
    """Spec covering the oscillator kernel support plus Gaussian tails.

    Y = 2 (sqrt(2 hbar N) + 8 sqrt(hbar)) / hbar; nodes scale to keep at
    least 4 nodes per period of e^{ipy} against the kernel oscillation.
    """
    mu = hbar * N
    Y = 2.0 * (math.sqrt(2.0 * hbar * N) + 8.0 * math.sqrt(hbar)) / hbar
    n = max(256, math.ceil(4.0 * Y * (abs(p) + math.sqrt(2.0 * mu)) / math.pi))
    return WeylQuadratureSpec(y_halfwidth=Y, n_nodes=n)


def _kernel_callable(kernel):
    if isinstance(kernel, KernelEval):
        ke = kernel
        return lambda xa, ya: projection_kernel(ke, xa, ya)
    if callable(kernel):
        return kernel
    raise TypeError("kernel must be a KernelEval or a callable K(x, y)")


def _kernel_y_support(kernel, hbar: float, x: float) -> float | None:
    if isinstance(kernel, KernelEval) and kernel.basis.model is Model.BOX:
        return 2.0 * max(kernel.basis.L - abs(x), 0.0) / hbar
    return None


def symbol_from_kernel_complex(
    kernel, hbar: float, spec: WeylQuadratureSpec, x: float, p: float
) -> complex:
    """Raw quadrature value of the symbol integral, no reality reduction."""
    K = _kernel_callable(kernel)
    ys, wy = gauss_legendre(spec.n_nodes, -spec.y_halfwidth, spec.y_halfwidth)
    vals = np.asarray(K(x - hbar * ys / 2.0, x + hbar * ys / 2.0), dtype=complex)
    return complex(hbar * np.sum(wy * vals * np.exp(1j * p * ys)))


def symbol_from_kernel(
    kernel,
    hbar: float,
    spec: WeylQuadratureSpec,
    x: float,
    p: float,
    y_support: float | None = None,
) -> float:
    """Weyl symbol of a Hermitian kernel at (x, p) by Gauss-Legendre.

    The kernel must be real-symmetric or complex-Hermitian so the symbol is
    real; an imaginary residue above 1e-9 (1 + |Re|) raises.  For box
    kernels the window must cover the y-support {y : |x +- hbar y/2| <= L},
    otherwise a CoverageWarning is emitted.
    """
    support = y_support if y_support is not None else _kernel_y_support(kernel, hbar, x)
    if support is not None and spec.y_halfwidth < support * (1.0 - 1e-12):
        warnings.warn(
            f"quadrature window {spec.y_halfwidth:g} does not cover the kernel "
            f"y-support {support:g}",
            CoverageWarning,
        )
    val = symbol_from_kernel_complex(kernel, hbar, spec, x, p)
    if abs(val.imag) > _IM_TOL * (1.0 + abs(val.real)):
        raise ValueError("non-Hermitian kernel")
    return val.real


def _sin_ratio(amplitude, d):
    """sin(A d) / d, and A at d = 0; amplitude and d broadcast, amplitude >= 0.

    The quotient is well conditioned at every nonzero float d, so only the
    removable point needs its limit.  Resonances d = 0 land exactly on
    natural grid choices (p = hbar pi k / 2L).
    """
    A = np.asarray(amplitude, dtype=float)
    d = np.asarray(d, dtype=float)
    zero = d == 0
    safe = np.where(zero, 1.0, d)
    return np.where(zero, A, np.sin(A * safe) / safe)


def symbol_rank_one_box_complex(
    j: int, k: int, hbar: float, L: float, x, p
) -> np.ndarray | complex:
    """Symbol of |u_j><u_k| for the box; complex for j != k.

    Four epsilon terms e^{-i eps2 (pi/2L)(j - eps1 k)(x+L)} sin(A d)/d with
    d = (pi hbar / 4L)(j + eps1 k) + eps2 p and A = 2 (L - |x|) / hbar.
    """
    if j < 1 or k < 1:
        raise ValueError("levels are 1-based")
    x_arr, p_arr, unwrap = _point_arrays(x, p)
    A = 2.0 * np.maximum(L - np.abs(x_arr), 0.0) / hbar
    out = np.zeros(x_arr.shape, dtype=complex)
    for eps1 in (1, -1):
        gamma = math.pi * hbar * (j + eps1 * k) / (4.0 * L)
        phase = (math.pi / (2.0 * L)) * (j - eps1 * k) * (x_arr + L)
        for eps2 in (1, -1):
            out += eps1 * np.exp(-1j * eps2 * phase) * _sin_ratio(A, gamma + eps2 * p_arr)
    out *= hbar / (2.0 * L)
    out[np.abs(x_arr) > L] = 0.0
    return unwrap(out)


def symbol_rank_one_box(j: int, k: int, hbar: float, L: float, x, p) -> np.ndarray | float:
    """Real part of the rank-one box symbol.

    For j = k this is the full (real) symbol; for j != k the symbol is
    genuinely complex and the real part equals the symbol of the Hermitian
    symmetrization (|u_j><u_k| + |u_k><u_j|) / 2.
    """
    return symbol_rank_one_box_complex(j, k, hbar, L, x, p).real


def _projection_symbol_values(N: int, hbar: float, L: float, x_arr, p_arr) -> np.ndarray:
    """Three-sum closed form, broadcasting x against p.

    The third sum is sin(A p)/p times sum_k cos(k pi (L + x) / L), which
    depends on x alone, so the cosines are summed on x's own shape (a
    field's x column) and the quotient is taken once.
    """
    A = 2.0 * np.maximum(L - np.abs(x_arr), 0.0) / hbar
    cos_sum = np.zeros(x_arr.shape)
    for k in range(1, N + 1):
        cos_sum = cos_sum + np.cos(math.pi * k * (L + x_arr) / L)
    tot = -2.0 * cos_sum * _sin_ratio(A, p_arr)
    for k in range(1, N + 1):
        m = hbar * math.pi * k / (2.0 * L)
        tot += _sin_ratio(A, m + p_arr) + _sin_ratio(A, m - p_arr)
    tot *= hbar / (2.0 * L)
    return np.where(np.abs(x_arr) > L, 0.0, tot)


def symbol_projection_box(N: int, hbar: float, L: float, x, p) -> np.ndarray | float:
    """Closed-form symbol of the rank-N box projection; 0 for |x| > L."""
    if N < 1:
        raise ValueError("N must be >= 1")
    x_arr, p_arr, unwrap = _point_arrays(x, p, broadcast=False)
    return unwrap(_projection_symbol_values(N, hbar, L, x_arr, p_arr))


def symbol_truncated_momentum_box(N: int, hbar: float, L: float, x, p) -> np.ndarray | float:
    """Closed-form symbol of the truncated box momentum; odd in p, 0 for
    |x| >= L, O(N) per point.

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
    if N < 1:
        raise ValueError("N must be >= 1")
    x_arr, p_arr, unwrap = _point_arrays(x, p, broadcast=False)
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
    return unwrap(np.where(np.abs(x_arr) >= L, 0.0, tot))


def rescaled_kernel_f2(eval: KernelEval, hbar: float, x, y) -> np.ndarray | float:
    """2 pi hbar K(x - hbar y/2, x + hbar y/2): the partial Fourier transform
    of the symbol in p, compared against the bulk sine profile."""
    return 2.0 * math.pi * hbar * projection_kernel(eval, x - hbar * np.asarray(y) / 2.0, x + hbar * np.asarray(y) / 2.0)


def symbol_oscillator_projection(N: int, hbar: float, x, p) -> np.ndarray | float:
    """Closed-form symbol of the rank-N oscillator projection (Groenewold).

    sigma_N = 2 e^{-z/2} sum_{n<N} (-1)^n L_n(z) with z = 2 (x^2 + p^2) / hbar,
    by the three-term recurrence (n+1) L_{n+1} = (2n+1-z) L_n - n L_{n-1}
    run on e^{-z/2} L_n(z) as a mantissa with a carried binary exponent,
    renormalized every step, so e^{-z/2} never underflows on its own: large
    z gives exact zeros, never NaNs.  O(N) vector operations per call;
    broadcasts x against p.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if not hbar > 0:
        raise ValueError("hbar must be positive")
    x_arr, p_arr, unwrap = _point_arrays(x, p)
    # beyond z = 1e9 the symbol is below the smallest subnormal for any
    # N < 10^7; the cap keeps the carried exponent a finite integer
    with np.errstate(over="ignore"):
        z = np.minimum(2.0 * (x_arr**2 + p_arr**2) / hbar, 1e9)

    # e^{-z/2} L_0 = m0 * 2^expo and e^{-z/2} L_1 = m1 * 2^expo
    expo = np.floor(-0.5 * z / _LN2)
    m0 = np.exp(-0.5 * z - expo * _LN2)
    expo = expo.astype(np.int64)
    m1 = (1.0 - z) * m0
    total = m0 - m1 if N > 1 else m0
    for n in range(1, N - 1):
        m2 = ((2 * n + 1 - z) * m1 - n * m0) / (n + 1)
        m2, shift = np.frexp(m2)
        m0 = np.ldexp(m1, -shift)
        m1 = m2
        total = np.ldexp(total, -shift)
        total = total + m2 if n % 2 else total - m2
        expo = expo + shift
    out = 2.0 * np.ldexp(total, expo)
    return unwrap(out)


def _field_rows(N: int, hbar: float, L: float, xs: np.ndarray, ps: np.ndarray, fn) -> np.ndarray:
    """Evaluate a closed-form symbol on xs x ps, chunked over rows of x.

    Row results are independent, so assembling ordered chunks from worker
    threads is bit-identical to the serial evaluation.
    """
    workers = worker_count()
    if workers <= 1 or xs.size < 2 * workers:
        return fn(N, hbar, L, xs[:, None], ps[None, :])
    chunks = np.array_split(np.arange(xs.size), workers)
    out = np.empty((xs.size, ps.size))
    with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
        futures = {
            pool.submit(fn, N, hbar, L, xs[idx][:, None], ps[None, :]): idx for idx in chunks
        }
        for fut, idx in futures.items():
            out[idx] = fut.result()
    return out


def projection_symbol_field(N: int, hbar: float, L: float, grid: PhaseGrid) -> SymbolField:
    """Box projection symbol sampled on a grid."""
    vals = _field_rows(N, hbar, L, grid.x_centers(), grid.p_centers(), _projection_symbol_values)
    return SymbolField(grid=grid, values=vals)


def momentum_symbol_field(N: int, hbar: float, L: float, grid: PhaseGrid) -> SymbolField:
    """Truncated box momentum symbol sampled on a grid."""

    def fn(N_, hbar_, L_, xcol, prow):
        return symbol_truncated_momentum_box(N_, hbar_, L_, xcol, prow)

    vals = _field_rows(N, hbar, L, grid.x_centers(), grid.p_centers(), fn)
    return SymbolField(grid=grid, values=vals)
