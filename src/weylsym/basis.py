"""The two exactly solvable models, and the Gauss-Legendre rule of `diag` and `limits`.

`EigenBasis` names a model (oscillator or hard-wall box on [-L, L]) with its
hbar; the closed forms in `weyl`, `kernel` and `moyal` need no eigenfunction
values.  Level indices are 1-based throughout (u_1 is the ground state).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

__all__ = ["Model", "EigenBasis"]


class Model(Enum):
    OSCILLATOR = "oscillator"
    BOX = "box"


@dataclass(frozen=True)
class EigenBasis:
    """An exactly solvable model: which one, its hbar, and L for the box."""

    model: Model
    hbar: float
    box_half_width: float | None = None

    def __post_init__(self) -> None:
        if not self.hbar > 0:
            raise ValueError(f"hbar must be positive, got {self.hbar}")
        if self.model is Model.BOX:
            if self.box_half_width is None or not self.box_half_width > 0:
                raise ValueError("box model requires a positive box_half_width")

    @property
    def L(self) -> float:
        if self.model is not Model.BOX:
            raise ValueError("box_half_width only exists for the box model")
        assert self.box_half_width is not None
        return self.box_half_width


@lru_cache(maxsize=32)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights on [-1, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w
