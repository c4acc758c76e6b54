"""Quadratures kept as slow oracles.

- The y-quadrature of Weyl symbols is the one oracle of both operator
  symbols (`weyl._box_operator_symbol` and `weyl._oscillator_operator_symbol`,
  the two branches of `moyal.FiniteRankOperator.symbol`), and checks the
  direct sums of `sum_oracle` at some points.  It integrates
  hbar * K(x - hbar y/2, x + hbar y/2) e^{ipy} over a Gauss-Legendre rule on
  a window [-Y, Y], one cold quadrature per point.
- `box_distance_x_space` and `osc_distance_z_space` are the one oracles of
  the two closed L2 distances (`diag.box_projection_distance_sq` and
  `diag.oscillator_disk_distance_sq`): one global Gauss-Legendre rule each,
  over the sine modes or the plain Laguerre sum.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from eigen_oracle import box_wavefunctions, gauss_legendre, truncated_operator_kernel
from sum_oracle import oscillator_projection_sum

from weylsym.basis import Model

_IM_TOL = 1e-9


class CoverageWarning(UserWarning):
    """An integration window does not cover the support it must contain."""


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


def box_y_support(hbar: float, L: float, x: float) -> float:
    """Half width of {y : |x +- hbar y/2| <= L}, where a box kernel lives."""
    return 2.0 * max(L - abs(x), 0.0) / hbar


def box_quadrature_spec(hbar: float, L: float, x: float, p: float, mu: float) -> WeylQuadratureSpec:
    """Spec matched to the box kernel: window equal to the exact y-support.

    The integrand is trig-smooth inside the support and identically zero
    outside, so putting the window edge exactly on the support corner keeps
    Gauss-Legendre spectrally accurate.
    """
    Y = box_y_support(hbar, L, x)
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


def symbol_from_kernel_complex(
    kernel, hbar: float, spec: WeylQuadratureSpec, x: float, p: float
) -> complex:
    """Raw quadrature value of the symbol integral of the kernel K(x, y),
    no reality reduction."""
    ys, wy = gauss_legendre(spec.n_nodes, -spec.y_halfwidth, spec.y_halfwidth)
    vals = np.asarray(kernel(x - hbar * ys / 2.0, x + hbar * ys / 2.0), dtype=complex)
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
    real; an imaginary residue above 1e-9 (1 + |Re|) raises.  Given the
    kernel's y-support (`box_y_support` for a box kernel), a window that does
    not cover it emits a CoverageWarning.
    """
    if y_support is not None and spec.y_halfwidth < y_support * (1.0 - 1e-12):
        warnings.warn(
            f"quadrature window {spec.y_halfwidth:g} does not cover the kernel "
            f"y-support {y_support:g}",
            CoverageWarning,
        )
    val = symbol_from_kernel_complex(kernel, hbar, spec, x, p)
    if abs(val.imag) > _IM_TOL * (1.0 + abs(val.real)):
        raise ValueError("non-Hermitian kernel")
    return val.real


def operator_symbol_quadrature(basis, coeff, hbar: float, x: float, p: float) -> complex:
    """Symbol of sum M_jk |u_j><u_k| at one point by quadrature of the
    truncated-operator kernel, on the box's exact y-support or over the
    oscillator's Gaussian tails."""
    N = coeff.shape[0]
    if basis.model is Model.BOX:
        spec = box_quadrature_spec(hbar, basis.L, x, p, hbar * N)
    else:
        spec = oscillator_quadrature_spec(hbar, N, p)
    return symbol_from_kernel_complex(
        lambda xa, ya: truncated_operator_kernel(coeff, basis, xa, ya), hbar, spec, x, p
    )


def box_distance_x_space(N, mu, L, nodes):
    """The box distance from the x-space form of the cross term,
    int_{|x|<L, |p|<P} sigma = 2 hbar int int sum_k u_k(a) u_k(b) sin(c(b-a))/(b-a),
    c = P / hbar, on a global Gauss-Legendre rule over the sine modes."""
    hbar = mu / N
    a, wa = gauss_legendre(nodes, -L, L)
    c = math.pi * N / (2.0 * L)
    D = a[None, :] - a[:, None]
    S = np.where(D == 0, c, np.sin(c * D) / np.where(D == 0, 1.0, D))
    V = box_wavefunctions(N, L, a) * wa[None, :]
    return 4.0 * math.pi * mu - 4.0 * hbar * float(np.sum((V @ S) * V))


def osc_distance_z_space(N, hbar, nodes):
    """The disk distance as 4 pi mu - pi hbar int_0^{4N} sigma_N dz on one
    global Gauss-Legendre rule in z, sigma_N from the plain Laguerre sum."""
    z, wz = gauss_legendre(nodes, 0.0, 4.0 * N)
    sigma = oscillator_projection_sum(N, hbar, np.sqrt(0.5 * hbar * z), 0.0)
    return 4.0 * math.pi * hbar * N - math.pi * hbar * float(np.sum(wz * sigma))
