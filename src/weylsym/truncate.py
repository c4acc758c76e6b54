"""Coefficient matrices of truncated observables in the eigenbasis.

Oscillator observables (a x + b p)^n are banded powers of the ladder
matrix, whose entries are the lattice-path sums that `enumerate_paths` and
`path_weight` spell out path by path; the box supplies the tridiagonal
multiplication operator and the truncated momentum in closed form.  A
quadrature builder doubles as the slow oracle for all of them.

Ladder convention: with 1-based levels (u_1 = ground state) the raising
matrix element is <u_{k+1}| x |u_k> = sqrt(hbar k / 2), pinned by quadrature
against the eigenfunctions.  Path weights therefore carry sqrt(min(j, j'))
per step ("ladder" convention); the max-based weight as printed elsewhere is
available as the "literal" convention but does not reproduce matrix powers
at the k ~ 1 boundary.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .basis import EigenBasis, Model, gauss_legendre, oscillator_support_halfwidth
from .scale import SemiclassicalScale

__all__ = [
    "OperatorMatrix",
    "LatticePath",
    "enumerate_paths",
    "path_weight",
    "matrix_linear_power",
    "ladder_matrices",
    "box_multiplication_matrix",
    "box_momentum_matrix",
    "box_momentum_entry",
    "generic_weyl_matrix",
    "MatrixQuadratureSpec",
    "matrix_to_json",
]

MAX_PATH_STEPS = 24
MAX_MATRIX_POWER = 12
MAX_DIMENSION = 4096
_HERMITICITY_TOL = 1e-12


@dataclass(frozen=True)
class OperatorMatrix:
    """Hermitian N x N coefficient matrix <u_j| H |u_k>, j, k = 1..N.

    `basis` records which model the coefficients refer to; matrices whose
    entries are model-independent (pure index formulas) may carry None.
    """

    entries: np.ndarray
    basis: EigenBasis | None = None

    def __post_init__(self) -> None:
        m = np.asarray(self.entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("entries must be a square matrix")
        if m.shape[0] > MAX_DIMENSION:
            raise ValueError(f"dimension {m.shape[0]} exceeds the {MAX_DIMENSION} cap")
        scale = max(1.0, float(np.max(np.abs(m))) if m.size else 1.0)
        if float(np.max(np.abs(m - m.conj().T))) > _HERMITICITY_TOL * scale:
            raise ValueError("entries are not Hermitian")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "entries", m)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def truncated(self, N: int) -> "OperatorMatrix":
        if N > self.n:
            raise ValueError("cannot truncate to a larger dimension")
        return OperatorMatrix(entries=self.entries[:N, :N], basis=self.basis)


def matrix_to_json(matrix: OperatorMatrix, hbar: float, path=None) -> str:
    """Serialize as {"n", "hbar", "entries": [[re, im], ...]} row-major."""
    flat = matrix.entries.ravel(order="C")
    payload = {
        "n": matrix.n,
        "hbar": hbar,
        "entries": [[float(v.real), float(v.imag)] for v in flat],
    }
    text = json.dumps(payload, sort_keys=True)
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


@dataclass(frozen=True)
class LatticePath:
    """Nearest-neighbor walk on levels >= 1, stored as consecutive step pairs."""

    steps: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        for (a, b) in self.steps:
            if abs(b - a) != 1 or a < 1 or b < 1:
                raise ValueError(f"invalid step ({a}, {b})")
        for (_, b), (c, _) in zip(self.steps, self.steps[1:]):
            if b != c:
                raise ValueError("steps do not chain")


def enumerate_paths(n: int, k: int, l: int) -> list[LatticePath]:
    """All n-step nearest-neighbor paths from level k to level l staying >= 1.

    Paths that would touch level 0 are excluded: the step out of the ground
    state annihilates it (weight sqrt(0)), so they contribute nothing and
    their inclusion would break exact agreement with ladder matrix powers
    near the corner.  Away from the boundary (k, l > n) the count is
    binom(n, (n + l - k) / 2).
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > MAX_PATH_STEPS:
        raise ValueError(f"enumeration refused for n > {MAX_PATH_STEPS}")
    if k < 1 or l < 1:
        raise ValueError("levels are 1-based")
    if abs(k - l) > n:
        return []
    out: list[LatticePath] = []
    _extend((), k, n, l, out)
    return out


def _extend(steps: tuple, pos: int, remaining: int, target: int, out: list) -> None:
    if remaining == 0:
        if pos == target:
            out.append(LatticePath(steps=steps))
        return
    if abs(target - pos) > remaining:
        return
    _extend(steps + ((pos, pos + 1),), pos + 1, remaining - 1, target, out)
    if pos > 1:
        _extend(steps + ((pos, pos - 1),), pos - 1, remaining - 1, target, out)


def path_weight(path: LatticePath, a: float, b: float, convention: str = "ladder") -> complex:
    """Product over steps of (a + (j' - j) i b) sqrt(ladder index).

    convention="ladder" uses sqrt(min(j, j')), which reproduces the 1-based
    matrix elements exactly; "literal" uses sqrt(max(j, j')) as printed in
    the max-based form (an O(1) index shift that leaves large-k asymptotics
    unchanged).
    """
    if convention not in ("ladder", "literal"):
        raise ValueError(f"unknown convention {convention!r}")
    w = complex(1.0)
    for (j0, j1) in path.steps:
        idx = min(j0, j1) if convention == "ladder" else max(j0, j1)
        w *= (a + (j1 - j0) * 1j * b) * math.sqrt(idx)
    return w


def ladder_matrices(
    scale: SemiclassicalScale, N: int, pad: int = 0
) -> tuple[OperatorMatrix, OperatorMatrix]:
    """Position and momentum matrices on levels 1..N+pad.

    X is real symmetric, P purely imaginary Hermitian, both tridiagonal with
    <u_{k+1}|.|u_k> magnitude sqrt(hbar k / 2).
    """
    if N < 1 or pad < 0:
        raise ValueError("need N >= 1 and pad >= 0")
    dim = N + pad
    hbar = scale.hbar
    c = np.sqrt(hbar * np.arange(1, dim) / 2.0)
    X = np.zeros((dim, dim), dtype=complex)
    P = np.zeros((dim, dim), dtype=complex)
    idx = np.arange(dim - 1)
    X[idx + 1, idx] = c
    X[idx, idx + 1] = c
    P[idx + 1, idx] = 1j * c
    P[idx, idx + 1] = -1j * c
    basis = EigenBasis(model=Model.OSCILLATOR, hbar=hbar)
    return OperatorMatrix(entries=X, basis=basis), OperatorMatrix(entries=P, basis=basis)


def matrix_linear_power(
    a: float, b: float, n: int, scale: SemiclassicalScale, N: int
) -> OperatorMatrix:
    """Matrix of (a x + b p)^n on levels 1..N as a banded power.

    Every n-step path from level k to l = k + d climbs (n + d)/2 times, so
    entry (l, k) is (hbar/2)^(n/2) (a + ib)^((n+d)/2) (a - ib)^((n-d)/2)
    times entry (l, k) of J^n, J the real ladder matrix with
    <k+1|J|k> = sqrt(k).  J^n is built column by column on its 2n + 1
    diagonals, which reach level N + n: exactly the power on N + n levels
    truncated to N x N, with the corner k, l <= n included.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > MAX_MATRIX_POWER:
        raise ValueError(f"matrix build refused for n > {MAX_MATRIX_POWER}")
    if N < 1:
        raise ValueError("N must be >= 1")
    hbar = scale.hbar
    rows = np.arange(N)[None, :] + np.arange(-n, n + 1)[:, None]  # 0-based level of entry (d, k)
    # J couples 0-based levels j and j + 1 with sqrt(j + 1); nothing below level 0
    up = np.sqrt(np.maximum(rows, 0.0))  # <l|J|l-1>
    down = np.sqrt(np.maximum(rows + 1.0, 0.0))  # <l|J|l+1>
    band = np.zeros((2 * n + 1, N))
    band[n] = 1.0
    for _ in range(n):
        nxt = np.zeros_like(band)
        nxt[1:] = up[1:] * band[:-1]
        nxt[:-1] += down[:-1] * band[1:]
        band = nxt
    pref = (hbar / 2.0) ** (n / 2.0)
    M = np.zeros((N, N), dtype=complex)
    k = np.arange(N)
    for d in range(-n, n + 1, 2):
        cols = k[(k + d >= 0) & (k + d < N)]
        s_up = (n + d) // 2
        weight = pref * (a + 1j * b) ** s_up * (a - 1j * b) ** (n - s_up)
        M[cols + d, cols] = weight * band[d + n, cols]
    basis = EigenBasis(model=Model.OSCILLATOR, hbar=hbar)
    return OperatorMatrix(entries=M, basis=basis)


def box_multiplication_matrix(N: int, L: float) -> OperatorMatrix:
    """Tridiagonal matrix of multiplication by sin(pi x / 2L) / sqrt(L)."""
    if N < 1:
        raise ValueError("N must be >= 1")
    if not L > 0:
        raise ValueError("L must be positive")
    M = np.zeros((N, N), dtype=complex)
    idx = np.arange(N - 1)
    M[idx + 1, idx] = -1.0 / (2.0 * math.sqrt(L))
    M[idx, idx + 1] = -1.0 / (2.0 * math.sqrt(L))
    return OperatorMatrix(entries=M, basis=None)


def box_momentum_entry(j, k, L: float, hbar: float) -> np.ndarray | complex:
    """Momentum matrix element <u_j| p |u_k>; zero for same-parity j, k."""
    j_arr = np.asarray(j, dtype=float)
    k_arr = np.asarray(k, dtype=float)
    diff = j_arr**2 - k_arr**2
    parity = 1.0 - (-1.0) ** (j_arr + k_arr)
    safe = np.where(diff == 0, 1.0, diff)
    out = np.where(diff == 0, 0.0, -1j * hbar / L * parity * j_arr * k_arr / safe)
    return out if (np.ndim(j) or np.ndim(k)) else complex(out[()])


def box_momentum_matrix(N: int, L: float, hbar: float) -> OperatorMatrix:
    """Truncated momentum matrix C_jk for the box, levels 1..N."""
    if N < 1:
        raise ValueError("N must be >= 1")
    j = np.arange(1, N + 1)
    M = box_momentum_entry(j[:, None], j[None, :], L, hbar)
    basis = EigenBasis(model=Model.BOX, hbar=hbar, box_half_width=L)
    return OperatorMatrix(entries=np.asarray(M), basis=basis)


@dataclass(frozen=True)
class MatrixQuadratureSpec:
    """Quadrature budget for the slow generic builder.

    n_position / n_momentum are Gauss-Legendre node counts per phase-space
    axis; n_transform is the node count of the inner y-integral producing
    the rank-one symbols.  Halfwidths default to the model's support.
    """

    n_position: int = 160
    n_momentum: int = 160
    n_transform: int = 512
    x_halfwidth: float | None = None
    p_halfwidth: float | None = None


def generic_weyl_matrix(
    f,
    basis: EigenBasis,
    N: int,
    hbar: float,
    quad: MatrixQuadratureSpec | None = None,
    p_dependent: bool = True,
) -> OperatorMatrix:
    """Matrix of the Weyl quantisation of f(x, p) by quadrature; slow oracle.

    Entries come from pairing f against the rank-one symbols over a finite
    phase-space window (the sandwiched double quadrature of the defining
    integral after one Fubini step).  With p_dependent=False the exact
    p-marginal identity collapses the pairing to a single position
    quadrature of f(x) u_j(x) u_k(x), valid for multiplication operators in
    either model.  Entries are recomputed at a doubled budget; a gap above
    1e-6 raises a non-convergence warning.
    """
    if quad is None:
        quad = MatrixQuadratureSpec()
    if N < 1:
        raise ValueError("N must be >= 1")
    if basis.model is Model.BOX and p_dependent:
        raise ValueError(
            "p-dependent quadrature oracle is only supported for the oscillator; "
            "box symbols decay too slowly in p for a windowed pairing"
        )
    coarse = _weyl_matrix_once(f, basis, N, hbar, quad, p_dependent)
    fine = _weyl_matrix_once(f, basis, N, hbar, _doubled(quad), p_dependent)
    gap = float(np.max(np.abs(fine - coarse)))
    if gap > 1e-6:
        warnings.warn(
            f"generic_weyl_matrix refinement gap {gap:.3e} exceeds 1e-6", RuntimeWarning
        )
    return OperatorMatrix(entries=_hermitized(fine), basis=basis)


def _doubled(quad: MatrixQuadratureSpec) -> MatrixQuadratureSpec:
    return MatrixQuadratureSpec(
        n_position=2 * quad.n_position,
        n_momentum=2 * quad.n_momentum,
        n_transform=2 * quad.n_transform,
        x_halfwidth=quad.x_halfwidth,
        p_halfwidth=quad.p_halfwidth,
    )


def _hermitized(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.conj().T)


def _weyl_matrix_once(
    f, basis: EigenBasis, N: int, hbar: float, quad: MatrixQuadratureSpec, p_dependent: bool
) -> np.ndarray:
    if basis.model is Model.BOX:
        X = quad.x_halfwidth if quad.x_halfwidth is not None else basis.L
    else:
        X = (
            quad.x_halfwidth
            if quad.x_halfwidth is not None
            else oscillator_support_halfwidth(hbar, N)
        )
    xs, wx = gauss_legendre(quad.n_position, -X, X)
    U = basis.wavefunctions(N, xs)  # (N, nx)

    if not p_dependent:
        fx = np.asarray(f(xs, np.zeros_like(xs)), dtype=float)
        return np.einsum("q,q,jq,kq->jk", wx, fx, U, U).astype(complex)

    P = quad.p_halfwidth if quad.p_halfwidth is not None else math.sqrt(2.0 * hbar * N) + 10.0 * math.sqrt(hbar)
    ps, wp = gauss_legendre(quad.n_momentum, -P, P)
    Y = 2.0 * X / hbar
    ys, wy = gauss_legendre(quad.n_transform, -Y, Y)

    # entry(j,k) = (1/2 pi hbar) sum_i w_i sum_q wy_q u_k(x_i - h y_q/2) u_j(x_i + h y_q/2)
    #              * hbar * F[i, q],   F[i, q] = sum_m wp_m f(x_i, p_m) e^{i p_m y_q}
    F = np.asarray(f(xs[:, None], ps[None, :]), dtype=float) * wp[None, :]
    F = F @ np.exp(1j * ps[:, None] * ys[None, :])  # (nx, ny)
    UA = basis.wavefunctions(N, (xs[:, None] - hbar * ys[None, :] / 2.0).ravel()).reshape(
        N, xs.size, ys.size
    )
    UB = basis.wavefunctions(N, (xs[:, None] + hbar * ys[None, :] / 2.0).ravel()).reshape(
        N, xs.size, ys.size
    )
    W = (wx[:, None] * wy[None, :]) * F
    return np.einsum("jiq,kiq,iq->jk", UB, UA, W) / (2.0 * math.pi)
