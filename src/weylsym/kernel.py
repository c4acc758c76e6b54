"""Integral kernels in closed form: Dirichlet, sine, and the box projection.

The rank-N box projection kernel sum_{k<=N} u_k(x) u_k(y) is a difference
of two Dirichlet kernels, O(1) per point; every evaluator broadcasts over
numpy arrays of points.  One singularity-safe sin(A d)/d quotient serves the
kernels here and every closed-form box symbol in `weyl`, as the checks of
N, hbar and L serve every symbol, kernel and distance of both models.
"""

from __future__ import annotations

import math

import numpy as np

from .scale import _point_arrays, _refuse_nan

__all__ = ["dirichlet_kernel", "sine_kernel", "box_projection_kernel"]

_PHASE_MAX = 2.0**52  # from here on, adjacent doubles are a radian or more apart


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


def _check_count(n: int, name: str) -> int:
    """Reject a count that is not an integer >= 0 (NaN and inf included) and
    hand it back as an int, an integer-valued float as its integer."""
    if not (n >= 0 and float(n).is_integer()):
        raise ValueError(f"{name} must be >= 0 and an integer, got {n!r}")
    return int(n)


def _check_levels(N: int, hbar: float | None = None) -> int:
    """Reject a rank N that is not an integer >= 1 and, when one is given,
    an hbar that is not finite and > 0 (NaN fails both tests); hand N back
    as an int, so an integer-valued float N (4.0) acts as its integer."""
    if not (N >= 1 and float(N).is_integer()):
        raise ValueError(f"N must be >= 1 and an integer, got {N!r}")
    if hbar is not None and not 0 < hbar < math.inf:
        raise ValueError(f"hbar must be positive and finite, got {hbar!r}")
    return int(N)


def _check_box(L: float, hbar: float | None = None, N: int = 1) -> int:
    """`_check_levels`, and reject a box half width L that is not finite
    and > 0; called once per public box call.  Hands N back as an int."""
    N = _check_levels(N, hbar)
    if not 0 < L < math.inf:
        raise ValueError(f"L must be positive and finite, got {L!r}")
    return N


def dirichlet_kernel(N: int, x) -> np.ndarray | float:
    """D_N(x) = sin((2N+1)x/2) / sin(x/2) = 1 + 2 sum_{k<=N} cos(kx), O(1) per point.

    Both sines are taken at h = r/2, r = x - 2 pi rint(x / 2 pi): D_N has
    period 2 pi, and at x itself sin(x/2) loses its digits near 2 pi Z.
    An |x| beyond 2^52 is refused: adjacent doubles there are a radian or
    more apart, so x fixes no phase, and at infinity D_N has no limit.
    """
    N = _check_count(N, "N")
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    if (np.abs(x_arr) > _PHASE_MAX).any():  # NaN passes, as it always has
        raise ValueError(f"x must not be infinite or beyond 2^52 in size, where it fixes no phase: got x = {x!r}")
    h = 0.5 * (x_arr - 2.0 * math.pi * np.rint(x_arr / (2.0 * math.pi)))
    out = _sin_ratio(2 * N + 1, h) / _sin_ratio(1.0, h)
    return out if np.ndim(x) else float(out[0])


def sine_kernel(x) -> np.ndarray | float:
    """S(x) = sin(x/2) / (x/2) with S(0) = 1 and its limit S(+-inf) = 0."""
    half = 0.5 * np.atleast_1d(np.asarray(x, dtype=float))
    inf = np.isinf(half)
    out = np.where(inf, 0.0, _sin_ratio(1.0, np.where(inf, 1.0, half)))
    return out if np.ndim(x) else float(out[0])


def box_projection_kernel(N: int, L: float, x, y) -> np.ndarray | float:
    """Kernel of the rank-N box projection at (x, y), 0 unless |x|, |y| <= L;
    a NaN x or y is refused.

    With u_k(x) = sin(k c (x + L)) / sqrt(L), c = pi / 2L,

        sum_{k<=N} u_k(x) u_k(y) = [D_N(c (x - y)) - D_N(c (x + y + 2L))] / 4L.
    """
    N = _check_box(L, N=N)
    x_arr, y_arr, unwrap = _point_arrays(x, y)
    _refuse_nan(x=x_arr, y=y_arr)
    inside = (np.abs(x_arr) <= L) & (np.abs(y_arr) <= L)
    # points outside, infinite ones too, are masked: 0 stands in for them
    x_arr, y_arr = np.where(inside, x_arr, 0.0), np.where(inside, y_arr, 0.0)
    c = math.pi / (2.0 * L)
    out = (dirichlet_kernel(N, c * (x_arr - y_arr)) - dirichlet_kernel(N, c * (x_arr + y_arr + 2.0 * L))) / (4.0 * L)
    return unwrap(np.where(inside, out, 0.0))
