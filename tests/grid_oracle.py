"""The phase-grid route to L2 distances, kept as the oracle of the exact
route (`diag.box_projection_distance_sq`).

The distance is the windowed midpoint sum of (sigma - target)^2 plus the
symbol mass outside the window, which the trace identity gives exactly.  Its
error is first order in the cell size.
"""

import math
import warnings

import numpy as np
from matrix_oracle import hs_norm_sq

from weylsym.scale import SymbolField


def rectangle(mu: float, L: float):
    """The indicator of the closed box rectangle |x| <= L, |p| <= pi mu / 2L,
    as a broadcasting callable (x, p) -> 0.0 or 1.0."""
    p_half = math.pi * mu / (2.0 * L)
    return lambda x, p: ((np.abs(x) <= L) & (np.abs(p) <= p_half)).astype(float)


class TailDeficitWarning(UserWarning):
    """Windowed mass exceeds the exact total norm by more than quadrature noise."""


def l2_distance_with_tail(field: SymbolField, target, matrix: np.ndarray, hbar: float) -> float:
    """Global squared L2 distance from the sampled symbol to a compactly
    supported target: windowed distance plus the symbol mass outside the
    window, recovered exactly from the trace identity.

    `target` is a broadcastable callable (x, p) -> values, supported strictly
    inside the grid window (checked on the outermost cell ring).
    """
    g = field.grid
    x, p = g.meshgrid()
    tvals = np.broadcast_to(np.asarray(target(x, p), dtype=float), (g.nx, g.np))
    ring = np.zeros((g.nx, g.np), dtype=bool)
    ring[0, :] = ring[-1, :] = True
    ring[:, 0] = ring[:, -1] = True
    if np.any(tvals[ring] != 0.0):
        raise ValueError("target support exceeds window")

    cell = g.dx * g.dp
    windowed_dist = float(np.sum((field.values - tvals) ** 2)) * cell
    windowed_mass = float(np.sum(field.values**2)) * cell
    total = hs_norm_sq(matrix, hbar)
    tail = total - windowed_mass
    if tail < -1e-3 * total:
        warnings.warn(
            f"windowed mass {windowed_mass:g} exceeds the exact norm {total:g}; "
            "window or grid is inconsistent with the matrix",
            TailDeficitWarning,
        )
    return windowed_dist + max(tail, 0.0)
