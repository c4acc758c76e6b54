"""The y-quadrature route to Weyl symbols, kept as the one slow oracle of the
closed forms (`weyl.symbol_*`, and both branches of
`moyal.operator_symbol_complex`).

It integrates hbar * K(x - hbar y/2, x + hbar y/2) e^{ipy} over a
Gauss-Legendre rule on a window [-Y, Y], one cold quadrature per point.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from eigen_oracle import gauss_legendre, truncated_operator_kernel

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
