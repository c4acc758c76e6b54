"""Integral kernels: projections, truncated operators, Dirichlet and sine kernels.

All kernel evaluators broadcast over numpy arrays of points.  The box
projection kernel has a closed Dirichlet-kernel form (O(1) per point); the
eigenfunction sum is kept as the cross-check oracle and as the only route
for the oscillator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .basis import EigenBasis, Model
from .scale import _point_arrays

__all__ = [
    "EvalMode",
    "KernelEval",
    "dirichlet_kernel",
    "sine_kernel",
    "projection_kernel",
    "truncated_operator_kernel",
]

# Below this, sin(x/2) loses enough digits that the Dirichlet kernel is
# summed as cosines instead of taken as the quotient.
_SINGULAR_EPS = 1e-8


class EvalMode(Enum):
    SUM = "sum"
    CLOSED_FORM = "closed-form"


@dataclass(frozen=True)
class KernelEval:
    """Projection-kernel evaluator: model, rank N, and evaluation route."""

    basis: EigenBasis
    n_levels: int
    mode: EvalMode = EvalMode.SUM

    def __post_init__(self) -> None:
        if self.n_levels < 1:
            raise ValueError("n_levels must be >= 1")
        if self.mode is EvalMode.CLOSED_FORM and self.basis.model is not Model.BOX:
            raise ValueError("closed form unavailable")

    def __call__(self, x, y):
        return projection_kernel(self, x, y)


def dirichlet_kernel(N: int, x) -> np.ndarray | float:
    """D_N(x) = sin((2N+1)x/2) / sin(x/2), with D_N = 1 + 2 sum_k cos(kx) near x in 2 pi Z."""
    if N < 0:
        raise ValueError("N must be >= 0")
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    s = np.sin(0.5 * x_arr)
    small = np.abs(s) < _SINGULAR_EPS
    safe = np.where(small, 1.0, s)
    out = np.sin((2 * N + 1) * 0.5 * x_arr) / safe
    if np.any(small):
        xs = x_arr[small]
        acc = np.ones_like(xs)
        for k in range(1, N + 1):
            acc += 2.0 * np.cos(k * xs)
        out[small] = acc
    return out if np.ndim(x) else float(out[0])


def sine_kernel(x) -> np.ndarray | float:
    """S(x) = sin(x/2) / (x/2) with S(0) = 1."""
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    h = 0.5 * x_arr
    zero = h == 0
    safe = np.where(zero, 1.0, h)
    out = np.where(zero, 1.0, np.sin(safe) / safe)
    return out if np.ndim(x) else float(out[0])


def projection_kernel(eval: KernelEval, x, y) -> np.ndarray | float:
    """Kernel of the rank-N projection at (x, y); broadcasts over arrays."""
    x_arr, y_arr, unwrap = _point_arrays(x, y)
    if eval.mode is EvalMode.CLOSED_FORM:
        out = _box_kernel_closed(eval.n_levels, eval.basis.L, x_arr, y_arr)
    else:
        out = _kernel_sum(eval.basis, eval.n_levels, x_arr, y_arr)
    return unwrap(out)


def _box_kernel_closed(N: int, L: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    c = math.pi / (2.0 * L)
    out = (dirichlet_kernel(N, c * (x - y)) - dirichlet_kernel(N, c * (x + y + 2.0 * L))) / (4.0 * L)
    inside = (np.abs(x) <= L) & (np.abs(y) <= L)
    return np.where(inside, out, 0.0)


def _kernel_sum(basis: EigenBasis, N: int, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    shape = x.shape
    ux = basis.wavefunctions(N, x.ravel())
    uy = basis.wavefunctions(N, y.ravel())
    return np.einsum("kq,kq->q", ux, uy).reshape(shape)


def truncated_operator_kernel(matrix, basis: EigenBasis, x, y) -> np.ndarray | complex:
    """Kernel sum_{j,k} M_jk u_j(x) u_k(y) of a truncated observable.

    Complex even for real coefficient matrices, so purely imaginary momentum
    coefficients go through the same path.
    """
    entries = np.asarray(matrix.entries if hasattr(matrix, "entries") else matrix, dtype=complex)
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
        raise ValueError("coefficient matrix must be square")
    N = entries.shape[0]
    x_arr, y_arr, unwrap = _point_arrays(x, y)
    shape = x_arr.shape
    ux = basis.wavefunctions(N, x_arr.ravel())
    uy = basis.wavefunctions(N, y_arr.ravel())
    out = np.einsum("jq,jk,kq->q", ux, entries, uy).reshape(shape)
    return unwrap(out)
