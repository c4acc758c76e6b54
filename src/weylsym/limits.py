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

from .kernel import sine_kernel

__all__ = [
    "bulk_profile_box",
    "bulk_sup_constant",
    "si",
    "edge_profile_x",
    "edge_profile_p",
]


def bulk_profile_box(mu: float, L: float, y) -> np.ndarray | float:
    """(pi mu / L) S(pi mu y / L): bulk limit of the rescaled box kernel."""
    c = math.pi * mu / L
    return c * sine_kernel(c * np.asarray(y) if np.ndim(y) else c * y)


def bulk_sup_constant(mu: float, L: float, c_u: float, c_v: float) -> float:
    """Explicit constant C with sup |rescaled kernel - bulk profile| <= C hbar
    on |x| <= C_U, |y| <= C_V, valid for hbar < (L - C_U) / C_V."""
    if not 0 <= c_u < L:
        raise ValueError("need 0 <= C_U < L")
    return math.pi / (2.0 * L) * (L / (L - c_u) + math.pi * mu / (2.0 * L) * c_v + 1.0)


# --- sine integral -----------------------------------------------------------

_SI_SWITCH = 6.0


def _si_series(x: float) -> float:
    # Si(x) = sum_k (-1)^k x^(2k+1) / ((2k+1) (2k+1)!), terms until < 1e-16
    term = x
    total = x
    k = 0
    while abs(term) >= 1e-16:
        # t_{k+1} = -t_k x^2 (2k+1) / ((2k+3)^2 (2k+2))
        term *= -x * x * (2 * k + 1) / ((2 * k + 3) ** 2 * (2 * k + 2))
        total += term
        k += 1
    return total


def _e1_imaginary(x: float) -> complex:
    """E1(ix) from E1(z) = e^{-z} / (z + 1 - 1/(z + 3 - 4/(z + 5 - ...)))
    (DLMF 6.9) by modified Lentz; under 40 steps for x >= 6."""
    b = complex(1.0, x)
    h = d = 1.0 / b
    c = math.inf  # Lentz's 1/tiny start: the first step sets c = b
    for k in range(1, 200):
        b += 2.0
        d = 1.0 / (b - k * k * d)
        c = b - k * k / c
        h *= c * d
        if abs(c * d - 1.0) <= 1e-16:
            return h * complex(math.cos(x), -math.sin(x))
    raise RuntimeError(f"E1 continued fraction did not converge at x = {x!r}")


def si(x: float) -> float:
    """Sine integral Si(x) = int_0^x sin(t)/t dt; odd.

    Power series for |x| <= 6; beyond, Si(x) = pi/2 + Im E1(ix) (DLMF 6.5),
    with E1 from its continued fraction, in a cost that does not grow with x.
    Si(+-inf) = +-pi/2; NaN is refused.
    """
    if x < 0:
        return -si(-x)
    if x <= _SI_SWITCH:
        return _si_series(x)
    if not x < math.inf:
        if x == math.inf:
            return 0.5 * math.pi
        raise ValueError(f"Si needs a number, got {x!r}")
    return 0.5 * math.pi + _e1_imaginary(x).imag


# --- microscopic edge profiles ----------------------------------------------


def _sin2z_over_z(z: float) -> float:
    """sin(2z)/z with limit 2 at z = 0."""
    return 2.0 if z == 0 else math.sin(2.0 * z) / z


def edge_profile_x(u: float, p: float, mu: float, L: float) -> float:
    """Hard-wall profile: limit of the symbol at x = L - hbar u, fixed p.

    (1/pi)[Si(2u(p + pi mu/2L)) - Si(2u(p - pi mu/2L))
           - (sin(2pu)/(pu)) sin(pi mu u / L)] for u >= 0, else 0.
    """
    if u < 0:
        return 0.0
    half = math.pi * mu / (2.0 * L)
    return (
        si(2.0 * u * (p + half))
        - si(2.0 * u * (p - half))
        - _sin2z_over_z(p * u) * math.sin(math.pi * mu * u / L)
    ) / math.pi


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
    if not math.isfinite(v):
        raise ValueError(f"v must be finite, got {v}")
    if abs(x) >= L:
        return 0.0
    c = math.pi * (L - abs(x)) / L
    w = v - 0.5
    if c * abs(w) <= _EDGE_P_SWITCH:
        return 0.5 + _edge_p_legendre(c, w)
    if w > 0:
        return _edge_p_laguerre(c, v)
    return 1.0 - _edge_p_laguerre(c, 1.0 - v)
