"""Independent references for the values weylsym prints.

None of these calls weylsym or compares with a stored copy of its output.
They are built from the definitions, with scipy and mpmath:

- box symbols: sigma(x, p) = hbar int K(x - hbar y/2, x + hbar y/2) e^{ipy} dy
  with K summed from the sine modes, integrated by composite Gauss-Legendre
  panels (scipy's nodes, 20 per panel);
- L2 distance of the box projection symbol to the rectangle indicator:
  d^2 = 4 pi mu - 2 int_R sigma, with
  int_R sigma = 2 hbar int int_{[-L,L]^2} K(a,b) sin(pi N (b-a) / 2L) / (b-a) da db;
- hard-wall edge profile: scipy.special.sici;
- momentum-edge profile: 1/(j+v) = int_0^inf e^{-(j+v)t} dt, the j-sum as a
  geometric series, the t-integral by scipy.integrate.quad;
- oscillator projection symbol: Groenewold's Laguerre form
  2 e^{-z/2} sum_{n<N} (-1)^n L_n(z), z = 2(x^2 + p^2)/hbar, in mpmath;
- oscillator matrices: powers of the tridiagonal ladder matrices;
- box momentum matrix C_jk = -i hbar/L (1 - (-1)^{j+k}) jk / (j^2 - k^2).
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy import sparse
from scipy.integrate import quad
from scipy.special import roots_legendre, sici

_GL_X, _GL_W = roots_legendre(20)
# a 20-point rule integrates e^{i w y} over a panel of width h with an error
# below 1e-19 while w h <= 10
_PANEL_PHASE = 10.0


def _panels(a: float, b: float, omega: float) -> tuple[np.ndarray, np.ndarray]:
    m = max(1, math.ceil((b - a) * omega / _PANEL_PHASE))
    edges = np.linspace(a, b, m + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[1:] + edges[:-1])
    return (mid[:, None] + half[:, None] * _GL_X).ravel(), (half[:, None] * _GL_W).ravel()


def box_modes(N: int, L: float, a: np.ndarray) -> np.ndarray:
    """u_k(a) = sin(k pi (a + L) / 2L) / sqrt(L), k = 1..N, as an (N, len(a)) array."""
    theta = (np.asarray(a, dtype=float) + L) * (math.pi / (2.0 * L))
    return np.sin(np.arange(1, N + 1)[:, None] * theta[None, :]) / math.sqrt(L)


def box_momentum_matrix(N: int, L: float, hbar: float) -> np.ndarray:
    j = np.arange(1, N + 1, dtype=float)
    J, K = j[:, None], j[None, :]
    diff = J**2 - K**2
    parity = 1.0 - (-1.0) ** (J + K)
    return np.where(diff == 0, 0.0, -1j * hbar / L * parity * J * K / np.where(diff == 0, 1.0, diff))


def box_symbol(observable: str, N: int, hbar: float, L: float, x: float, p: float) -> float:
    """Weyl symbol of the rank-N box projection or truncated momentum at (x, p)."""
    if abs(x) >= L:
        return 0.0
    Y = 2.0 * (L - abs(x)) / hbar  # y-support of the kernel
    # highest frequency in y: two modes of index <= N, and e^{ipy}
    omega = math.pi * N * hbar / (2.0 * L) + abs(p)
    if observable == "projection":
        # K real and symmetric: the integrand is even in y
        y, w = _panels(0.0, Y, omega)
        total = np.zeros(y.size)
        for k0 in range(0, N, 128):
            k = np.arange(k0 + 1, min(N, k0 + 128) + 1)[:, None]
            ta = (x - hbar * y / 2.0 + L) * (math.pi / (2.0 * L))
            tb = (x + hbar * y / 2.0 + L) * (math.pi / (2.0 * L))
            total += np.sum(np.sin(k * ta) * np.sin(k * tb), axis=0) / L
        return 2.0 * hbar * float(np.sum(w * total * np.cos(p * y)))
    y, w = _panels(-Y, Y, omega)
    C = box_momentum_matrix(N, L, hbar)
    kern = np.einsum("jq,jk,kq->q", box_modes(N, L, x - hbar * y / 2.0), C,
                     box_modes(N, L, x + hbar * y / 2.0))
    return float((hbar * np.sum(w * kern * np.exp(1j * p * y))).real)


def box_projection_l2(N: int, mu: float, L: float, nodes: int | None = None) -> float:
    """Squared L2 distance of the rank-N box projection symbol to the indicator
    of |x| <= L, |p| <= pi mu / 2L, over the whole phase plane."""
    hbar = mu / N
    n = nodes or 4 * N + 64
    t, w = roots_legendre(n)
    a, wa = L * t, L * w
    c = math.pi * N / (2.0 * L)
    D = a[None, :] - a[:, None]  # b - a, rows a, columns b
    S = np.where(D == 0, c, np.sin(c * D) / np.where(D == 0, 1.0, D))
    V = box_modes(N, L, a) * wa[None, :]
    int_r = 2.0 * hbar * float(np.sum((V @ S) * V))
    return 4.0 * math.pi * mu - 2.0 * int_r


def edge_limit_x(u: float, p: float, mu: float, L: float) -> float:
    """Hard-wall profile at x = L - hbar u, from scipy's sine integral."""
    if u < 0:
        return 0.0
    half = math.pi * mu / (2.0 * L)
    si1 = sici(2.0 * u * (p + half))[0]
    si2 = sici(2.0 * u * (p - half))[0]
    z = p * u
    sin2z_over_z = 2.0 if z == 0 else math.sin(2.0 * z) / z
    return float(si1 - si2 - sin2z_over_z * math.sin(math.pi * mu * u / L)) / math.pi


def edge_limit_p(x: float, v: float, mu: float, L: float) -> float:
    """Momentum-edge profile (1/2L) sum_{j>=0} sin(c(j+v)) / (d(j+v)),
    c = pi (L - |x|)/L, d = pi/2L, for v > -1, v != 0.

    The j = 0 term is taken as it is; for j >= 1, 1/(j+v) = int_0^inf
    e^{-(j+v)t} dt turns the sum into
    int_0^inf Im[e^{(ic-t)(1+v)} / (1 - e^{ic-t})] dt.
    Near the wall the integrand is a peak of width c at t = 0, so the
    integral is split there.
    """
    if abs(x) >= L:
        return 0.0
    c = math.pi * (L - abs(x)) / L
    d = math.pi / (2.0 * L)

    def f(t):
        return (np.exp((1j * c - t) * (1.0 + v)) / (1.0 - np.exp(1j * c - t))).imag

    cuts = [0.0] + [b for b in (c, 10.0 * c, 1.0) if b < 1.0] + [1.0]
    total = sum(quad(f, lo, hi, limit=400, epsabs=1e-14, epsrel=1e-13)[0]
                for lo, hi in zip(cuts, cuts[1:]))
    total += quad(f, 1.0, np.inf, limit=400, epsabs=1e-14, epsrel=1e-13)[0]
    return (math.sin(c * v) / (d * v) + total / d) / (2.0 * L)


def oscillator_symbol(N: int, hbar: float, x: float, p: float) -> float:
    """Rank-N oscillator projection symbol, 2 e^{-z/2} sum_{n<N} (-1)^n L_n(z).

    |L_n(z)| <= e^{z/2}, so the sum can cancel down from N e^{z/2} to O(1):
    the working precision covers that many digits plus 25.
    """
    z0 = 2.0 * (x * x + p * p) / hbar
    dps = 25 + int(z0 / (2.0 * math.log(10.0))) + len(str(N))
    with mpmath.workdps(dps):
        z = 2 * (mpmath.mpf(x) ** 2 + mpmath.mpf(p) ** 2) / mpmath.mpf(hbar)
        prev, cur = mpmath.mpf(1), 1 - z  # L_0, L_1
        total = prev - cur if N > 1 else prev
        for n in range(1, N - 1):
            prev, cur = cur, ((2 * n + 1 - z) * cur - n * prev) / (n + 1)
            total += cur if n % 2 else -cur
        return float(2 * mpmath.exp(-z / 2) * total)


def ladder_power(a: float, b: float, n: int, hbar: float, dim: int) -> sparse.csr_matrix:
    """(a X + b P)^n on levels 1..dim as a sparse matrix, with
    <k+1|X|k> = sqrt(hbar k / 2) and P = i [upper, -lower] the same magnitudes."""
    c = np.sqrt(hbar * np.arange(1, dim) / 2.0)
    T = sparse.diags([(a + 1j * b) * c, (a - 1j * b) * c], [-1, 1], shape=(dim, dim), format="csr")
    M = sparse.identity(dim, dtype=complex, format="csr")
    for _ in range(n):
        M = T @ M
    return M.tocsr()


def linear_power_norm(a: float, b: float, n: int, mu: float, N: int) -> float:
    """2 pi hbar sum |M_jk|^2 of (a x + b p)^n truncated to N levels, hbar = mu/N.

    Paths of n steps from a level <= N stay below N + n, so n extra levels
    make the truncated block exact."""
    hbar = mu / N
    M = ladder_power(a, b, n, hbar, N + n)[:N, :N]
    return 2.0 * math.pi * hbar * float(np.sum(np.abs(M.data) ** 2))


def linear_power_offdiag(a: float, b: float, n: int, mu: float, N: int) -> float:
    """Squared symbol norm of the block of (a x + b p)^n from levels <= N to
    levels N+1..N+n, hbar = mu/N."""
    hbar = mu / N
    M = ladder_power(a, b, n, hbar, N + 2 * n)
    return 2.0 * math.pi * hbar * float(np.sum(np.abs(M[N:N + n, :N].data) ** 2))


def box_momentum_norms(N: int, mu: float, L: float, j_factor: int = 64) -> tuple[float, float]:
    """(2 pi hbar sum_{j,k<=N} |C_jk|^2, 2 pi hbar sum_{N<j<=64N, k<=N} |C_jk|^2)."""
    hbar = mu / N
    k = np.arange(1, N + 1, dtype=float)[None, :]

    def block(j0, j1):
        j = np.arange(j0, j1, dtype=float)[:, None]
        odd = ((j + k) % 2) == 1
        safe = np.where(odd, j * j - k * k, 1.0)
        vals = np.where(odd, 2.0 * hbar / L * j * k / safe, 0.0)
        return float(np.sum(vals**2))

    inner = block(1, N + 1)
    tail = sum(block(j0, min(j0 + 4096, j_factor * N + 1))
               for j0 in range(N + 1, j_factor * N + 1, 4096))
    return 2.0 * math.pi * hbar * inner, 2.0 * math.pi * hbar * tail


def rescaled_kernel(N: int, mu: float, L: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """2 pi hbar K(x - hbar y/2, x + hbar y/2) from the sine modes; x, y broadcast."""
    hbar = mu / N
    X, Y = np.broadcast_arrays(x, y)
    a = (X - hbar * Y / 2.0).ravel()
    b = (X + hbar * Y / 2.0).ravel()
    inside = (np.abs(a) <= L) & (np.abs(b) <= L)
    out = np.zeros(a.size)
    for k0 in range(0, N, 64):
        ks = np.arange(k0 + 1, min(N, k0 + 64) + 1)[:, None]
        out += np.sum(np.sin(ks * ((a + L) * math.pi / (2 * L)))
                      * np.sin(ks * ((b + L) * math.pi / (2 * L))), axis=0) / L
    return (2.0 * math.pi * hbar * np.where(inside, out, 0.0)).reshape(X.shape)


def sine_profile(mu: float, L: float, y: np.ndarray) -> np.ndarray:
    """Bulk limit (pi mu / L) sin(pi mu y / 2L) / (pi mu y / 2L)."""
    c = math.pi * mu / L
    return c * np.sinc(c * np.asarray(y) / (2.0 * math.pi))
