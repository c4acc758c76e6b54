"""Closed-form asymptotic targets: the bulk and edge profiles of the box.

Near the boundary of the classically allowed rectangle |x| <= L,
|p| <= pi mu / 2L the finite-rank symbols approach two distinct microscopic
profiles: a sine-integral profile across the hard wall (x edge) and a
shifted-index sine series across the momentum edge (p edge).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .kernel import _check_box, _sin_ratio, sine_kernel
from .scale import _point_arrays

__all__ = [
    "bulk_profile_box",
    "bulk_sup_constant",
    "si",
    "edge_profile_x",
    "edge_profile_p",
]


def bulk_profile_box(mu: float, L: float, y) -> np.ndarray | float:
    """(pi mu / L) S(pi mu y / L): bulk limit of the rescaled box kernel."""
    _check_scales(mu, L, y=y)
    c = math.pi * mu / L
    return c * sine_kernel(c * np.asarray(y) if np.ndim(y) else c * y)


def bulk_sup_constant(mu: float, L: float, c_u: float, c_v: float) -> float:
    """Explicit constant C with sup |rescaled kernel - bulk profile| <= C hbar
    on |x| <= C_U, |y| <= C_V, valid for hbar < (L - C_U) / C_V."""
    if not 0 <= c_u < L:
        raise ValueError("need 0 <= C_U < L")
    return math.pi / (2.0 * L) * (L / (L - c_u) + math.pi * mu / (2.0 * L) * c_v + 1.0)


# --- sine and cosine integrals ------------------------------------------------

_SI_SWITCH = 4.0  # power series up to here, continued fraction beyond
_FRACTION_STEPS = 60  # truncation error 4e-19 at x = 4, 2e-21 at x = 5
# Si(x) / x and (Ci(x) - gamma - ln x) / x^2 in powers of x^2 (DLMF 6.6.5, 6.6.6), to
# 17 terms: the first omitted one is below 4e-21 at x = 4
_SI_COEFFS = [(-1) ** k / ((2 * k + 1) * math.factorial(2 * k + 1)) for k in range(17)]
_CI_COEFFS = [-((-1) ** k) / ((2 * k + 2) * math.factorial(2 * k + 2)) for k in range(17)]


def _si_ci(x) -> tuple[np.ndarray, np.ndarray]:
    """Si(x) and Ci(x) on an array of x >= 0, within 1e-15 of both, in the
    same fixed steps for every element, so that an array call gives the bits
    of its one-element calls: up to x = 4 the power series, beyond it
    E1(ix) = -Ci(x) + i (Si(x) - pi/2) (DLMF 6.5.5) from the continued
    fraction E1(z) = e^{-z} / (z + 1 - 1^2/(z + 3 - 2^2/(z + 5 - ...)))
    (DLMF 6.9.1) at z = ix, evaluated from its 60th step back."""
    x = np.asarray(x, dtype=float)
    s = np.minimum(x, _SI_SWITCH)
    t = s * s
    si_sum = ci_sum = 0.0
    for a, b in zip(reversed(_SI_COEFFS), reversed(_CI_COEFFS)):  # Horner's rule
        si_sum, ci_sum = si_sum * t + a, ci_sum * t + b
    with np.errstate(divide="ignore"):  # Ci(0) = -inf
        ci = np.euler_gamma + np.log(s) + t * ci_sum
    # the denominators d_{k-1} = z + 2k - 1 - k^2 / d_k from d_60 = z + 121
    z = 1j * np.clip(x, _SI_SWITCH, np.finfo(float).max)
    d = z + (2 * _FRACTION_STEPS + 1)
    for k in range(_FRACTION_STEPS, 0, -1):
        d = (z + (2 * k - 1)) - k * k / d
    e1 = np.where(x < math.inf, np.exp(-z) / d, 0.0)  # Si(inf) = pi/2, Ci(inf) = 0
    return (np.where(x <= _SI_SWITCH, s * si_sum, 0.5 * math.pi + e1.imag),
            np.where(x <= _SI_SWITCH, ci, -e1.real))


def si(x) -> np.ndarray | float:
    """Sine integral Si(x) = int_0^x sin(t)/t dt, odd, from `_si_ci`: within
    1e-15 on the whole line, Si(+-inf) = +-pi/2, NaN refused.  Broadcasts
    over an array of x and returns a float for a scalar."""
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    if np.isnan(x_arr).any():
        raise ValueError(f"Si needs a number, got {x!r}")
    out = np.copysign(_si_ci(np.abs(x_arr))[0], x_arr)
    return out if np.ndim(x) else float(out[0])


# --- microscopic edge profiles ----------------------------------------------


def _check_scales(mu: float, L: float, **coords) -> None:
    """Refuse a mu or a box half width L that is not finite and > 0 (L by
    `_check_box`, mu by the same rule), and non-finite named coordinates."""
    _check_box(L)
    if not 0 < mu < math.inf:
        raise ValueError(f"mu must be positive and finite, got {mu!r}")
    for name, value in coords.items():
        if not np.isfinite(value).all():
            raise ValueError(f"{name} must be finite, got {value!r}")


def edge_profile_x(u, p, mu: float, L: float) -> np.ndarray | float:
    """Hard-wall profile: limit of the symbol at x = L - hbar u, fixed p.

    (1/pi)[Si(2u(p + pi mu/2L)) - Si(2u(p - pi mu/2L))
           - (sin(2pu)/(pu)) sin(pi mu u / L)] for u >= 0, else 0; u and p
    broadcast as the kernel functions' points do (a float for two scalars).
    Where 2u(p -+ pi mu/2L) overflows, Si is +-pi/2; where 2pu overflows, the
    last term, below 1/|pu|, is 0.  A u >= 0 whose phase pi mu u / L
    overflows while pu does not is refused.
    """
    _check_scales(mu, L, u=u, p=p)
    u_arr, p_arr, unwrap = _point_arrays(u, p)
    half = math.pi * mu / (2.0 * L)
    with np.errstate(over="ignore"):
        plus, minus = si(np.stack([2.0 * u_arr * (p_arr + half), 2.0 * u_arr * (p_arr - half)]))
        pu = p_arr * u_arr
        phase = math.pi * mu * u_arr / L
    far = np.abs(pu) > 0.5 * np.finfo(float).max  # sin(2 pu) would take inf
    lost = np.isinf(phase)
    if (lost & ~far & (u_arr >= 0)).any():
        raise ValueError(f"u is too large: pi mu u / L overflows, got u = {u!r}")
    sinc = np.where(far, 0.0, _sin_ratio(2.0, np.where(far, 1.0, pu)))
    prof = (plus - minus - sinc * np.sin(np.where(lost, 0.0, phase))) / math.pi
    return unwrap(np.where(u_arr < 0, 0.0, prof))


_EDGE_P_SWITCH = 64.0  # c |v - 1/2| above which the Laplace form takes over


@lru_cache(maxsize=1)
def _leggauss32() -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(32)


@lru_cache(maxsize=1)
def _laguerre48() -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.laguerre.laggauss(48)


def _edge_p_legendre(c: float, w: float) -> float:
    """(1/pi) int_0^c -sin(w s) / (2 sin(s/2)) ds by 32-node Gauss-Legendre on
    ceil(c (|w| + 1) / 8) panels: at most ~8 radians of sin(w s) per panel,
    and the integrand is analytic on |s| < 2 pi."""
    panels = math.ceil(c * (abs(w) + 1.0) / 8.0)
    t, wt = _leggauss32()
    h = c / panels
    s = (np.arange(panels)[:, None] + 0.5 * (t + 1.0)) * h
    return -0.25 * h * float(np.sum(wt * (np.sin(w * s) / np.sin(0.5 * s)))) / math.pi


def _edge_p_laguerre(c: float, v: float) -> float:
    """F(c, v) / pi for v > 0 by 48-node Gauss-Laguerre on the Laplace form
    F = (1/v) int_0^inf e^{-u} Im[e^{icv} / (1 - e^{ic - u/v})] du, whose
    nearest pole lies c v from the real u axis."""
    if c * v == math.inf:
        # |F| / pi < 1 / (pi v sin(c/2)) <= 1 / (c v) < 6e-309 (Abel summation)
        return 0.0
    u, wt = _laguerre48()
    # 1 - e^{ic - u/v} by expm1, which keeps its digits as c, u/v -> 0
    vals = (-complex(math.cos(c * v), math.sin(c * v)) / np.expm1(1j * c - u / v)).imag
    return float(np.sum(wt * vals)) / (v * math.pi)


def edge_profile_p(x: float, v: float, mu: float, L: float) -> float:
    """Momentum-edge profile: limit of the symbol at p = pi mu/2L + hbar pi v/2L.

    With c = pi (L - |x|)/L in (0, pi], it is F(c, v) / pi for the series
    F(c, v) = sum_{j>=0} sin(c (j+v)) / (j+v).  F tends to pi/2 as c -> 0+
    and its c-derivative is Re[e^{icv} / (1 - e^{ic})], so

        F / pi = 1/2 + (1/pi) int_0^c g(s) ds,
        g(s) = [cos(sv) - sin(sv) cot(s/2)] / 2 = -sin((v - 1/2) s) / (2 sin(s/2)),

    with g analytic on |s| < 2 pi (g(0) = 1/2 - v).  It is continuous in v,
    so every finite v is allowed.  O(1) per call: Gauss-Legendre panels for
    c |v - 1/2| <= 64, else the Gauss-Laguerre Laplace form for v > 0 and
    the reflection F(c, v) + F(c, 1 - v) = pi (exact: g_v + g_{1-v} = 0)
    for v < 0.  At v = 1/2, g = 0 and the profile is exactly 1/2.
    """
    _check_scales(mu, L, x=x, v=v)
    x, v = float(x), float(v)  # numpy floats would warn where c v overflows
    if abs(x) >= L:
        return 0.0
    c = math.pi * (L - abs(x)) / L
    w = v - 0.5
    if c * abs(w) <= _EDGE_P_SWITCH:
        return 0.5 + _edge_p_legendre(c, w)
    if w > 0:
        return _edge_p_laguerre(c, v)
    return 1.0 - _edge_p_laguerre(c, 1.0 - v)
