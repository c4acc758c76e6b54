"""weylsym: phase-space symbols of truncated observables and their limits.

Truncate an observable onto the span of the first N eigenfunctions of an
exactly solvable model (harmonic oscillator or hard-wall box), evaluate its
Weyl symbol in closed form, and measure convergence to the classical symbol
cut off on the allowed region in the joint limit hbar -> 0, N -> infinity
with hbar N = mu fixed.
"""

__version__ = "0.1.0"

from .basis import EigenBasis, Model
from .diag import (
    SweepConfig,
    SweepReport,
    band_norm_sq,
    box_projection_distance_sq,
    catalan_limit_value,
    edge_section,
    oscillator_disk_distance_sq,
    run_sweep,
)
from .kernel import box_projection_kernel, dirichlet_kernel, sine_kernel
from .limits import bulk_profile_box, edge_profile_p, edge_profile_x, si
from .moyal import FiniteRankOperator, moyal_direct, moyal_via_composition
from .scale import PhaseGrid, SymbolField
from .truncate import LadderBand, matrix_linear_power
from .weyl import (
    rescaled_kernel_f2,
    symbol_projection_box,
    symbol_truncated_momentum_box,
)

__all__ = [
    "__version__",
    "PhaseGrid", "SymbolField",
    "Model", "EigenBasis",
    "dirichlet_kernel", "sine_kernel", "box_projection_kernel",
    "symbol_projection_box", "symbol_truncated_momentum_box", "rescaled_kernel_f2",
    "FiniteRankOperator", "moyal_via_composition", "moyal_direct",
    "LadderBand", "matrix_linear_power",
    "bulk_profile_box", "si", "edge_profile_x", "edge_profile_p",
    "band_norm_sq",
    "box_projection_distance_sq", "oscillator_disk_distance_sq",
    "catalan_limit_value", "edge_section", "SweepConfig", "SweepReport", "run_sweep",
]
