"""The two exactly solvable models.

`EigenBasis` names a model (oscillator or hard-wall box on [-L, L]) with its
hbar; the closed forms in `weyl`, `kernel` and `moyal` need no eigenfunction
values.  Level indices are 1-based throughout (u_1 is the ground state).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .kernel import _check_box, _check_levels

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
        if self.model is not Model.BOX:
            _check_levels(1, self.hbar)
            if self.box_half_width is not None:
                raise ValueError(f"box_half_width is for the box model only, got {self.box_half_width!r}")
        elif self.box_half_width is None:
            raise ValueError("the box model needs its half width L")
        else:
            _check_box(self.box_half_width, self.hbar)

    @property
    def L(self) -> float:
        if self.model is not Model.BOX:
            raise ValueError("box_half_width only exists for the box model")
        assert self.box_half_width is not None
        return self.box_half_width

