"""Norm and convergence diagnostics for the semiclassical limits.

Absolute symbol norms always go through the trace identity (exact, no grid).
The L2 distances of the projection symbols to the indicators of their
classical regions are closed O(N) sums: of Si and Ci at multiples of pi for
the box, of Laguerre functions at one point for the oscillator.  No grid or
quadrature enters them.  `edge_section` sets the finite-N box symbol beside
its microscopic edge profile.  One table of named experiments drives the
N-sweeps behind the acceptance criteria.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .limits import (
    _e1_imaginary,
    bulk_profile_box,
    bulk_sup_constant,
    edge_profile_p,
    edge_profile_x,
)
from .moyal import _check_direct_grid, direct_grid, moyal_direct
from .scale import _check_budget, pairwise_sum
from .truncate import MAX_DIMENSION, LadderBand, matrix_linear_power
from .weyl import (
    _laguerre_functions,
    projection_symbol_field,
    rescaled_kernel_f2,
    symbol_oscillator_projection,
    symbol_projection_box,
)

__all__ = [
    "band_norm_sq",
    "box_projection_distance_sq",
    "oscillator_disk_distance_sq",
    "catalan_limit_value",
    "edge_section",
    "box_momentum_tail_norm_sq",
    "SweepConfig",
    "SweepRow",
    "Verdict",
    "SweepReport",
    "EXPERIMENTS",
    "default_n_levels",
    "run_sweep",
]

def band_norm_sq(power: LadderBand, lo: int, hi: int) -> float:
    """Squared symbol norm 2 pi hbar sum |M_lk|^2 (the trace identity) of
    the entries of a ladder power in 0-based rows lo <= l < hi and its
    columns k < N.

    Every entry is a weight of squared modulus `weight_sq` times an entry of
    J^n, so the sum runs over the real diagonals alone.  Rows [0, N) give
    the norm of the truncated observable, rows [N, N + n) the block coupling
    levels <= N to levels > N.
    """
    rows = power.offsets[:, None] + np.arange(power.N)[None, :]
    inside = power.diagonals[(rows >= lo) & (rows < hi)]
    return 2.0 * math.pi * power.hbar * power.weight_sq * pairwise_sum(inside * inside)


def _check_levels(N: int, hbar: float) -> None:
    if N < 1:
        raise ValueError("N must be >= 1")
    if not hbar > 0:
        raise ValueError("hbar must be positive")


def box_projection_distance_sq(N: int, hbar: float, L: float) -> float:
    """Squared L2 distance, over the whole phase plane, from the rank-N box
    projection symbol to the indicator of |x| <= L, |p| <= P = pi hbar N / 2L.

    Both have squared norm 2 pi mu (mu = hbar N), and the symbol vanishes for
    |x| > L, so d^2 = 4 pi mu - 2 hbar int_{-c}^{c} sum_{k<=N} |u^_k(w)|^2 dw,
    c = pi N / 2L, with the Fourier transforms u^_k of the sine modes:
    |u^_k(w)|^2 = (s(kappa_k - w) - (-1)^k s(kappa_k + w))^2 / L for
    s(d) = sin(L d) / d, kappa_k = k pi / 2L.  The integral is elementary in
    Si and Ci at the multiples m pi, m = N -+ k, and L drops out.  With
    f(m) = Si(m pi) - pi/2 - 2 [m odd] / (m pi),
    G(m) = (gamma + ln(m pi) - Ci(m pi)) / 2 and f(0) = G(0) = 0,

        d^2 = 2 pi hbar - 2 hbar sum_{k<=N} [2 (f(N + k) + f(N - k))
                                             + (4 / k pi) (G(N + k) - G(N - k))],

    the pi/2 of each Si having cancelled 4 pi mu exactly.  O(N) work.
    """
    _check_levels(N, hbar)
    if not L > 0:
        raise ValueError("L must be positive")
    m = np.arange(1, 2 * N + 1)
    # E1(i m pi) = -Ci(m pi) + i (Si(m pi) - pi/2)
    e1 = np.array([_e1_imaginary(math.pi * j) for j in range(1, 2 * N + 1)])
    f = np.concatenate([[0.0], e1.imag - np.where(m % 2, 2.0 / (math.pi * m), 0.0)])
    G = np.concatenate([[0.0], 0.5 * (np.euler_gamma + np.log(math.pi * m) + e1.real)])
    k = np.arange(1, N + 1)
    terms = 2.0 * (f[N + k] + f[N - k]) + (4.0 / (math.pi * k)) * (G[N + k] - G[N - k])
    return 2.0 * math.pi * hbar - 2.0 * hbar * float(np.sum(terms))


def oscillator_disk_distance_sq(N: int, hbar: float) -> float:
    """Squared L2 distance, over the whole phase plane, from the rank-N
    oscillator projection symbol to the indicator of the disk
    x^2 + p^2 <= 2 mu (mu = hbar N).

    Both have squared norm 2 pi mu, and the symbol is radial, so
    d^2 = 4 pi mu - pi hbar int_0^{4N} sigma_N dz in z = 2 (x^2 + p^2) / hbar,
    with sigma_N = 2 sum_{k<N} (-1)^k l_k(z), l_k = e^{-z/2} L_k.  As
    L_k' = -sum_{j<k} L_j (DLMF 18.9), each l_k integrates in closed form to

        d^2 = 2 pi hbar sum_{k<N} (-1)^k (4 (N - k) - 2) l_k(4N),

    one Laguerre recurrence at z = 4N, summed as mantissas at its carried
    binary exponent (e^{-2N} underflows past N ~ 370).  O(N) work.
    """
    _check_levels(N, hbar)
    ells = _laguerre_functions(0, np.float64(4 * N), N)
    total, expo = next(ells)
    total = total * (4 * N - 2)
    for k, (m, shift) in enumerate(ells, start=1):
        total = np.ldexp(total, -shift) + (-1) ** k * (4 * (N - k) - 2) * m
        expo = expo + shift
    return 2.0 * math.pi * hbar * float(np.ldexp(total, expo))


def catalan_limit_value(n: int, a: float, b: float, mu: float) -> float:
    """Limit of the squared symbol norm of truncated (a x + b p)^n:
    2 pi mu^(n+1) ((a^2 + b^2)/2)^n C_n."""
    if n < 0:
        raise ValueError("n must be >= 0")
    catalan = math.comb(2 * n, n) // (n + 1)
    return 2.0 * math.pi * mu ** (n + 1) * ((a * a + b * b) / 2.0) ** n * catalan


def edge_section(
    kind: str, N: int, mu: float, L: float, coords, fixed
) -> tuple[np.ndarray, np.ndarray]:
    """The rank-N box projection symbol (hbar = mu / N) along an edge
    section, and the microscopic edge profile it tends to there.

    kind "x" crosses the hard wall, x = L - hbar u for u = coords >= 0 at
    momentum p = fixed; kind "p" crosses the momentum edge,
    p = pi mu / 2L + hbar pi v / 2L for v = coords at position x = fixed.
    coords and fixed broadcast against each other, and one symbol call
    covers every point; the profile is evaluated point by point.  The N
    levels are checked against the work budget first.
    """
    hbar = mu / N
    coords = np.asarray(coords, dtype=float)
    fixed = np.asarray(fixed, dtype=float)
    points = np.broadcast(coords, fixed)
    _check_budget(N, points.size)
    if kind == "x":
        if np.any(coords < 0):
            raise ValueError("u must be >= 0")
        sym = symbol_projection_box(N, hbar, L, L - hbar * coords, fixed)
        prof = [edge_profile_x(float(u), float(p), mu, L) for u, p in points]
    elif kind == "p":
        p = math.pi * mu / (2.0 * L) + hbar * math.pi * coords / (2.0 * L)
        sym = symbol_projection_box(N, hbar, L, fixed, p)
        prof = [edge_profile_p(float(x), float(v), mu, L) for v, x in points]
    else:
        raise ValueError(f"edge kind must be 'x' or 'p', got {kind!r}")
    return sym, np.reshape(prof, points.shape)


_TAIL_CUTOFF = 64


# The momentum norms below use, for j + k odd, |C_jk|^2 = (2 hbar / L)^2 (jk / (j^2 - k^2))^2
# and (jk / (j^2 - k^2))^2 = (k^2 / 4) [1/(j-k)^2 + 1/(j+k)^2 + (1/k) (1/(j-k) - 1/(j+k))],
# so for each level k the j-sum is a sum of 1/m^2 and 1/m over odd m in ranges.


def _odd_inverse_square_sums(top: int):
    """The function (lo, hi) -> sum of 1/m^2 over odd m in [lo, hi], for
    1 <= lo and hi <= top: differences of suffix sums, each accumulated
    smallest terms first."""
    m = np.arange(1, top + 1, 2, dtype=float)
    suffix = np.concatenate([np.cumsum(1.0 / (m * m)[::-1])[::-1], [0.0]])
    return lambda lo, hi: suffix[lo // 2] - suffix[(hi + 1) // 2]


def _odd_inverse_windows(centre: int, N: int) -> np.ndarray:
    """Sums of 1/m over odd m in [centre + 1 - k, centre + k], k = 1..N, each
    window grown from its centre outward."""
    k = np.arange(1, N + 1)
    lo, hi = centre + 1 - k, centre + k
    return np.cumsum(np.where(lo % 2 == 1, 1.0 / lo, 0.0) + np.where(hi % 2 == 1, 1.0 / hi, 0.0))


def _momentum_norm_sq(sq: np.ndarray, inv: np.ndarray, L: float, hbar: float) -> float:
    """2 pi hbar (hbar / L)^2 sum_k (k^2 sq_k + k inv_k): the squared symbol
    norm from each level's sums of 1/(j -+ k)^2 (sq) and of 1/(j-k) - 1/(j+k) (inv)."""
    k = np.arange(1, sq.size + 1, dtype=float)
    return 2.0 * math.pi * hbar * (hbar / L) ** 2 * float(np.sum(k * k * sq + k * inv))


def _box_momentum_inner_norm_sq(N: int, L: float, hbar: float) -> float:
    """2 pi hbar sum_{j,k<=N} |C_jk|^2: squared symbol norm of the truncated
    box momentum; O(N).

    For level k, j - k runs over odd values in [1 - k, N - k] and j + k over
    [1 + k, N + k]; the 1/m difference telescopes to 1/k (k odd) less the
    window [N + 1 - k, N + k].
    """
    k = np.arange(1, N + 1)
    between = _odd_inverse_square_sums(2 * N)
    sq = between(1, k - 1) + between(1, N - k) + between(k + 1, N + k)
    inv = np.where(k % 2 == 1, 1.0 / k, 0.0) - _odd_inverse_windows(N, N)
    return _momentum_norm_sq(sq, inv, L, hbar)


def box_momentum_tail_norm_sq(N: int, L: float, hbar: float) -> float:
    """B(N): squared symbol norm of the momentum block coupling levels <= N
    to levels > N, with the j-sum truncated at _TAIL_CUTOFF * N; O(N).  That
    leaves B low by 0.307%, 0.278% and 0.254% at N = 128, 256 and 512
    (mu = L = 1; Richardson extrapolation of the cutoffs 1024 N and 4096 N).

    For level k, j - k runs over odd values in [N + 1 - k, c N - k] and
    j + k over [N + 1 + k, c N + k] (c = _TAIL_CUTOFF); the 1/m difference
    telescopes to the windows [N + 1 - k, N + k] and [c N - k + 1, c N + k].
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    top = _TAIL_CUTOFF * N
    k = np.arange(1, N + 1)
    between = _odd_inverse_square_sums(top + N)
    sq = between(N + 1 - k, top - k) + between(N + 1 + k, top + k)
    inv = _odd_inverse_windows(N, N) - _odd_inverse_windows(top, N)
    return _momentum_norm_sq(sq, inv, L, hbar)


# --- sweeps -------------------------------------------------------------------


def _increasing(seq) -> bool:
    return all(b > a for a, b in zip(seq, seq[1:]))


@dataclass(frozen=True)
class SweepConfig:
    """One registered experiment and its physical parameters.

    mu and L set the scale, powers, a and b the linear-power observables
    (a x + b p)^n; every field has a default except the N list, which must
    be nonempty, strictly increasing and >= 1.  The powers must be nonempty
    and strictly increasing too.  mu, L, a and b must be finite, mu and L
    also > 0.  Grids, windows and verdict bounds are fixed per experiment.
    """

    experiment: str
    n_levels: tuple[int, ...]
    mu: float = 1.0
    L: float = 1.0
    powers: tuple[int, ...] = (1, 2, 3)
    a: float = 0.0
    b: float = 1.0

    def __post_init__(self) -> None:
        if not self.n_levels:
            raise ValueError("N list must be nonempty")
        if not _increasing(self.n_levels):
            raise ValueError("N list must be strictly increasing")
        if self.n_levels[0] < 1:
            raise ValueError("N list must hold positive integers")
        if not self.powers:
            raise ValueError("powers must be nonempty")
        if not _increasing(self.powers):
            raise ValueError("powers must be strictly increasing")
        if not all(math.isfinite(v) for v in (self.mu, self.L, self.a, self.b)):
            raise ValueError("mu, L, a and b must be finite")
        if not self.mu > 0 or not self.L > 0:
            raise ValueError("mu and L must be positive")


@dataclass(frozen=True)
class SweepRow:
    N: int
    hbar: float
    metric: str
    value: float


@dataclass(frozen=True)
class Verdict:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class SweepReport:
    experiment: str
    mu: float
    model: str
    observable: str
    rows: tuple[SweepRow, ...] = field(default_factory=tuple)
    verdicts: tuple[Verdict, ...] = field(default_factory=tuple)

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def values(self, metric: str) -> list[float]:
        return [r.value for r in self.rows if r.metric == metric]

    def to_json_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "mu": self.mu,
            "model": self.model,
            "observable": self.observable,
            "rows": [
                {"N": r.N, "hbar": r.hbar, "metric": r.metric, "value": r.value}
                for r in self.rows
            ],
            "verdicts": [
                {"name": v.name, "passed": v.passed, "detail": v.detail} for v in self.verdicts
            ],
        }

    def to_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, sort_keys=True, indent=1)
            fh.write("\n")

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("N,hbar,metric,value\n")
            for r in self.rows:
                fh.write(f"{r.N},{r.hbar:.17g},{r.metric},{r.value:.17g}\n")


def _decrease_verdict(name: str, values: list[float]) -> Verdict:
    """Strict decrease across the last two steps; earlier wobble is reported
    in the detail string but not failed."""
    tail = values[-3:]
    ok = all(v2 < v1 for v1, v2 in zip(tail, tail[1:]))
    detail = " -> ".join(f"{v:.6g}" for v in values)
    return Verdict(name=name, passed=ok, detail=detail)


def _threshold_verdict(name: str, value: float, bound: float) -> Verdict:
    return Verdict(
        name=name, passed=value <= bound, detail=f"{value:.6g} vs bound {bound:.6g}"
    )


def _ratio_band_verdict(name: str, n_levels, values: list[float], band) -> Verdict:
    """Every ratio of successive values, taken per doubling of N as
    (v2 / v1)^(log 2 / log(N2 / N1)), lies in [lo, hi]."""
    lo, hi = band
    ratios = [
        (v2 / v1) ** (math.log(2.0) / math.log(n2 / n1))
        for n1, n2, v1, v2 in zip(n_levels, n_levels[1:], values, values[1:])
    ]
    return Verdict(
        name=name,
        passed=all(lo <= r <= hi for r in ratios),
        detail="ratios " + ", ".join(f"{r:.4f}" for r in ratios) + f" in [{lo:g}, {hi:g}]",
    )


# Bands for the per-doubling ratio of d^2.  d^2 / mu depends on N alone (the
# symbol is a fixed function of x / L and p / P at each N), so neither mu nor
# L can move a ratio.
# - Box: the ratio falls toward 1/2 from above (a rate of order log(N) / N):
#   0.581 from N = 5 to 10, then 0.566, 0.556, 0.549 up to N = 80, and 0.534
#   from 1280 to 2560.  The band is that limit and 0.6, above the largest.
# - Oscillator: the Airy edge layer of width hbar^(2/3) gives d^2 ~ N^(-2/3),
#   whose ratio 2^(-2/3) = 0.630 is approached from above: 0.645 from N = 5
#   to 10, then 0.639, 0.636, 0.633 up to N = 80, and 0.6303 from 1280 to
#   2560.  The band is that limit less 0.01, and 0.66.
_BOX_L2_RATIO_BAND = (0.5, 0.6)
_OSC_L2_RATIO_BAND = (0.62, 0.66)


def _l2_sweep(config: SweepConfig, distance, band):
    """distance_sq rows for every N and the three verdicts on them; refuses
    before any work if the largest N exceeds the budget (N terms per N)."""
    N_max = max(config.n_levels)
    _check_budget(N_max, N_max)
    rows = []
    for N in config.n_levels:
        hbar = config.mu / N
        rows.append(SweepRow(N=N, hbar=hbar, metric="distance_sq", value=distance(N, hbar)))
    vals = [r.value for r in rows]
    verdicts = (
        _decrease_verdict("distance-decreasing", vals),
        _threshold_verdict("final-below-threshold", vals[-1], 0.35 * 2.0 * math.pi * config.mu),
        _ratio_band_verdict("ratio-band", config.n_levels, vals, band),
    )
    return rows, verdicts


def _sweep_box_projection_l2(config: SweepConfig):
    L = config.L
    return _l2_sweep(
        config, lambda N, hbar: box_projection_distance_sq(N, hbar, L), _BOX_L2_RATIO_BAND
    )


def _sweep_osc_disk_l2(config: SweepConfig):
    return _l2_sweep(config, oscillator_disk_distance_sq, _OSC_L2_RATIO_BAND)


def _edge_sweep(kind: str, config: SweepConfig):
    """Worst |symbol - edge profile| at every N over fixed sections: u in
    [0, 6] at p = 0 and p = P / 2 across the wall (kind "x"), or
    v = 1/4, 1/2, 3/2 at x = 0 and x = L / 2 across the momentum edge
    (kind "p"); one `edge_section` call per N."""
    mu, L = config.mu, config.L
    if kind == "x":
        coords = np.linspace(0.0, 6.0, 121)
        fixed = np.array([[0.0], [math.pi * mu / (4.0 * L)]])
    else:
        coords = np.tile([0.25, 0.5, 1.5], 2)
        fixed = np.repeat([0.0, 0.5 * L], 3)
    rows = []
    for N in config.n_levels:
        sym, prof = edge_section(kind, N, mu, L, coords, fixed)
        worst = float(np.max(np.abs(sym - prof)))
        rows.append(SweepRow(N=N, hbar=mu / N, metric="max_abs_err", value=worst))
    vals = [r.value for r in rows]
    verdicts = (
        _decrease_verdict("error-decreasing", vals),
        _threshold_verdict("final-below-threshold", vals[-1], 0.05),
    )
    return rows, verdicts


def _sweep_box_bulk_sup(config: SweepConfig):
    mu, L = config.mu, config.L
    c_u, c_v = 0.5 * L, 4.0
    C = bulk_sup_constant(mu, L, c_u, c_v)
    hbar0 = (L - c_u) / c_v
    xs = np.linspace(-c_u, c_u, 101)[:, None]
    ys = np.linspace(-c_v, c_v, 161)[None, :]
    bulk = bulk_profile_box(mu, L, ys) * np.ones_like(xs)
    rows = []
    all_ok = True
    for N in config.n_levels:
        hbar = mu / N
        if not hbar < hbar0:
            raise ValueError(f"hbar = {hbar:g} is not below hbar_0 = {hbar0:g}; increase N")
        resc = rescaled_kernel_f2(N, hbar, L, xs, ys)
        sup = float(np.max(np.abs(resc - bulk)))
        rows.append(SweepRow(N=N, hbar=hbar, metric="sup_err", value=sup))
        rows.append(SweepRow(N=N, hbar=hbar, metric="bound", value=C * hbar))
        all_ok = all_ok and sup <= C * hbar
    verdicts = (
        Verdict(
            name="sup-within-explicit-bound",
            passed=all_ok,
            detail=f"C = {C:.6g}, hbar_0 = {hbar0:.6g}",
        ),
    )
    return rows, verdicts


def _sweep_box_tridiag_norm(config: SweepConfig):
    """Multiplication by sin(pi x / 2L) / sqrt(L) couples level k to k +- 1
    alone, with entry -1/(2 sqrt L): its truncated norm is 2 pi hbar times
    the pairwise sum of the 2(N - 1) squared entries, the same float as the
    sum over the whole N x N matrix."""
    mu, L = config.mu, config.L
    N_max = config.n_levels[-1]
    if N_max > MAX_DIMENSION:
        raise ValueError(f"dimension {N_max} exceeds the {MAX_DIMENSION} cap")
    entry = -1.0 / (2.0 * math.sqrt(L))
    limit = math.pi * mu / L
    rows = []
    id_ok = True
    gaps = []
    for N in config.n_levels:
        hbar = mu / N
        val = 2.0 * math.pi * hbar * pairwise_sum(np.full(2 * (N - 1), entry) ** 2)
        exact = math.pi * hbar * (N - 1) / L
        rel = abs(val - exact) / exact if exact else abs(val)
        id_ok = id_ok and rel <= 1e-12
        gaps.append(abs(val - limit))
        rows.append(SweepRow(N=N, hbar=hbar, metric="hs_norm_sq", value=val))
    verdicts = (
        Verdict("finite-N-identity", id_ok, f"pi hbar (N-1)/L, limit {limit:.6g}"),
        _decrease_verdict("gap-to-limit-decreasing", gaps),
    )
    return rows, verdicts


def _sweep_box_momentum_norm(config: SweepConfig):
    mu, L = config.mu, config.L
    limit = math.pi**3 * mu**3 / (6.0 * L**2)
    rows = []
    rels = []
    bvals = []
    for N in config.n_levels:
        hbar = mu / N
        val = _box_momentum_inner_norm_sq(N, L, hbar)
        B = box_momentum_tail_norm_sq(N, L, hbar)
        rels.append(abs(val - limit) / limit)
        bvals.append(B)
        rows.append(SweepRow(N=N, hbar=hbar, metric="hs_norm_sq", value=val))
        rows.append(SweepRow(N=N, hbar=hbar, metric="rel_err", value=rels[-1]))
        rows.append(SweepRow(N=N, hbar=hbar, metric="offdiag_norm_sq", value=B))
    ratios = [b2 / b1 for b1, b2 in zip(bvals, bvals[1:])]
    verdicts = (
        _decrease_verdict("rel-err-decreasing", rels),
        _threshold_verdict("final-rel-err", rels[-1], 0.05),
        Verdict(
            "offdiag-halving",
            all(r < 0.75 for r in ratios),
            "ratios " + ", ".join(f"{r:.4f}" for r in ratios),
        ),
    )
    return rows, verdicts


def _check_linear_power(config: SweepConfig) -> None:
    """Refuse what a linear-power sweep cannot measure: with a = b = 0 every
    norm and limit is 0, so every ratio is 0 / 0; and n = 0 is the identity,
    whose norm equals its limit at every N (a relative error of 0 that
    cannot decrease) and whose coupling block is empty."""
    if config.a == 0 and config.b == 0:
        raise ValueError("a and b must not both be 0")
    if min(config.powers) < 1:
        raise ValueError(f"{config.experiment} needs powers n >= 1")


def _sweep_osc_catalan(config: SweepConfig):
    _check_linear_power(config)
    mu, a, b = config.mu, config.a, config.b
    rows = []
    verdicts = []
    for n in config.powers:
        limit = catalan_limit_value(n, a, b, mu)
        rels = []
        for N in config.n_levels:
            hbar = mu / N
            val = band_norm_sq(matrix_linear_power(a, b, n, hbar, N), 0, N)
            rel = abs(val - limit) / limit
            rels.append(rel)
            rows.append(SweepRow(N=N, hbar=hbar, metric=f"rel_err_n{n}", value=rel))
        verdicts.append(_decrease_verdict(f"rel-err-decreasing-n{n}", rels))
        verdicts.append(_threshold_verdict(f"final-rel-err-n{n}", rels[-1], 0.05))
    return rows, verdicts


def _sweep_osc_offdiag(config: SweepConfig):
    _check_linear_power(config)
    mu, a, b = config.mu, config.a, config.b
    rows = []
    verdicts = []
    for n in config.powers:
        vals = {}
        for N in sorted(set(config.n_levels) | {2 * N for N in config.n_levels}):
            # the band's columns k <= N reach the block rows N+1..N+n
            hbar = mu / N
            vals[N] = band_norm_sq(matrix_linear_power(a, b, n, hbar, N), N, N + n)
            rows.append(SweepRow(N=N, hbar=hbar, metric=f"offdiag_n{n}", value=vals[N]))
        first = config.n_levels[0]
        c_n = vals[first] / ((a * a + b * b) ** n * (mu / first) ** (n + 1) * first**n)
        ratios = [vals[2 * N] / vals[N] for N in config.n_levels]
        in_band = all(0.4 <= r <= 0.6 for r in ratios)
        bound_ok = all(
            vals[N] <= 2.0 * c_n * (a * a + b * b) ** n * (mu / N) ** (n + 1) * N**n
            for N in config.n_levels
        )
        verdicts.append(
            Verdict(
                f"halving-n{n}", in_band, "ratios " + ", ".join(f"{r:.4f}" for r in ratios)
            )
        )
        verdicts.append(Verdict(f"calibrated-bound-n{n}", bound_ok, f"c_n = {c_n:.6g}"))
    return rows, verdicts


def _sweep_osc_origin_parity(config: SweepConfig):
    mu = config.mu
    rows = []
    worst = 0.0
    for N in config.n_levels:
        hbar = mu / N
        val = symbol_oscillator_projection(N, hbar, 0.0, 0.0)
        dev = abs(val - (1.0 + (-1.0) ** (N + 1)))
        worst = max(worst, dev)
        rows.append(SweepRow(N=N, hbar=hbar, metric="origin_parity_dev", value=dev))
    verdicts = (_threshold_verdict("parity-within-tolerance", worst, 1e-4),)
    return rows, verdicts


def _sweep_moyal_idempotency(config: SweepConfig):
    """Distance of the direct star square of the projection symbol from the
    symbol itself, on a fixed evaluation lattice.

    The defect is entirely a property of the direct-quadrature scheme (the
    composition is exact), so the sampling grid must resolve the symbol's
    1/hbar oscillation at each N: it is `moyal.direct_grid`, whose cells
    scale with N: 16 N in x, read by cubic interpolation, and in p the
    sampling theorem's ceil(8 L N h / pi mu).  Its p window [-h, h],
    h = max(6, pi mu / L) (twice the symbol's momentum extent pi mu / 2L if
    that is wider than [-6, 6]), and the evaluation lattice stay fixed
    across N.  The budget is checked once, at the largest N, before any
    work.
    """
    mu, L = config.mu, config.L
    N_max = max(config.n_levels)
    _check_direct_grid(N_max, direct_grid(N_max, mu, L))
    # fixed interior evaluation lattice, well inside the rectangle
    ex = np.linspace(-0.6 * L, 0.6 * L, 10)
    p_half = math.pi * mu / (2.0 * L)
    ep = np.linspace(-0.6 * p_half, 0.6 * p_half, 10)
    rows = []
    for N in config.n_levels:
        hbar = mu / N
        fld = projection_symbol_field(N, hbar, L, direct_grid(N, mu, L))
        acc = 0.0
        for x0 in ex:
            diff = moyal_direct(fld, fld, hbar, float(x0), ep) - symbol_projection_box(
                N, hbar, L, float(x0), ep
            )
            for d_p in diff:
                acc += d_p * d_p
        d = acc * (ex[1] - ex[0]) * (ep[1] - ep[0])
        rows.append(SweepRow(N=N, hbar=hbar, metric="idempotency_defect_sq", value=d))
    vals = [r.value for r in rows]
    return rows, (_decrease_verdict("defect-decreasing", vals),)


# name -> (sweep, model, observable, default N list); each sweep returns its
# rows and verdicts.
EXPERIMENTS = {
    "box-projection-l2": (_sweep_box_projection_l2, "box", "projection", (10, 20, 40, 80)),
    "box-edge-x": (partial(_edge_sweep, "x"), "box", "projection", (100, 400)),
    "box-edge-p": (partial(_edge_sweep, "p"), "box", "projection", (250, 1000)),
    "box-bulk-sup": (_sweep_box_bulk_sup, "box", "projection", (50, 100, 200, 400)),
    "box-tridiag-norm": (_sweep_box_tridiag_norm, "box", "tridiagonal", (16, 64, 256, 1024)),
    "box-momentum-norm": (_sweep_box_momentum_norm, "box", "momentum", (128, 256, 512)),
    "osc-catalan": (_sweep_osc_catalan, "oscillator", "linear-power", (64, 128, 256, 512)),
    "osc-offdiag": (_sweep_osc_offdiag, "oscillator", "linear-power", (64, 128, 256)),
    "osc-origin-parity": (_sweep_osc_origin_parity, "oscillator", "projection", (4, 5, 6, 7)),
    "osc-disk-l2": (_sweep_osc_disk_l2, "oscillator", "projection", (10, 20, 40, 80)),
    "moyal-idempotency": (_sweep_moyal_idempotency, "box", "projection", (8, 16)),
}


def _experiment(name: str) -> tuple:
    if name not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {name!r}")
    return EXPERIMENTS[name]


def default_n_levels(experiment: str) -> tuple[int, ...]:
    return _experiment(experiment)[3]


def run_sweep(config: SweepConfig) -> SweepReport:
    """Run a registered experiment; deterministic given the config."""
    sweep, model, observable, _ = _experiment(config.experiment)
    rows, verdicts = sweep(config)
    return SweepReport(config.experiment, config.mu, model, observable, tuple(rows), tuple(verdicts))
