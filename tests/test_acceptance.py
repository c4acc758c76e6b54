"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is fixed here, nothing is calibrated at runtime
except where a criterion itself defines calibration (AC-4's c_n).
"""

import math

import numpy as np
import pytest
from eigen_oracle import projection_kernel_sum
from matrix_oracle import box_momentum_matrix, hs_norm_sq
from quadrature_oracle import box_distance_x_space, osc_distance_z_space
from test_truncate import assert_band_meets_ladder_power, assert_momentum_entries_match_quadrature
from test_weyl import assert_box_symbols_match_quadrature, random_box_points

from weylsym.basis import EigenBasis, Model
from weylsym.diag import (
    EXPERIMENTS,
    SweepConfig,
    band_norm_sq,
    box_projection_distance_sq,
    catalan_limit_value,
    default_n_levels,
    run_sweep,
)
from weylsym.kernel import box_projection_kernel
from weylsym.limits import bulk_profile_box, bulk_sup_constant, edge_profile_p, edge_profile_x
from weylsym.moyal import FiniteRankOperator, direct_grid, moyal_direct, moyal_via_composition
from weylsym.truncate import matrix_linear_power
from weylsym.weyl import (
    projection_symbol_field,
    rescaled_kernel_f2,
    symbol_oscillator_projection,
    symbol_projection_box,
)


def report(line):
    print(line)


def test_ac1_exact_norm_identity():
    """hs norm of the rank-N projection symbol is exactly 2 pi hbar N: the
    band norm of the ladder power n = 0, the identity."""
    mu = 1.0
    for N in (1, 10, 100, 1000):
        hbar = mu / N
        got = band_norm_sq(matrix_linear_power(1.0, 0.0, 0, hbar, N), 0, N)
        want = 2 * math.pi * hbar * N
        assert abs(got - want) <= 1e-14 * want
    report("AC-1 exact norm identity (2 pi hbar N, N in {1,10,100,1000}): PASS")


def test_ac2_box_l2_convergence():
    """Global distance^2 to chi_R decreases and is below 0.35 * 2 pi mu at N=80,
    against a global x-space rule."""
    mu = 1.0
    L = math.sqrt(math.pi / 2.0)
    dist = {}
    for N in (10, 20, 40, 80):
        dist[N] = box_projection_distance_sq(N, mu / N, L)
        assert abs(dist[N] - box_distance_x_space(N, mu, L, 4 * N + 64)) <= 1e-12
    assert dist[40] < dist[20] and dist[80] < dist[40]
    assert dist[80] < 0.35 * 2 * math.pi * mu
    report(
        "AC-2 box L2 convergence (distance^2 "
        + " -> ".join(f"{dist[N]:.4f}" for N in (10, 20, 40, 80))
        + f", bound {0.35 * 2 * math.pi * mu:.4f}): PASS"
    )


def test_ac3_catalan_limit():
    """Truncated momentum powers approach the Catalan-number limit."""
    mu, a, b = 1.0, 0.0, 1.0
    for n in (1, 2, 3):
        limit = catalan_limit_value(n, a, b, mu)
        rels = []
        for N in (64, 128, 256, 512):
            val = band_norm_sq(matrix_linear_power(a, b, n, mu / N, N), 0, N)
            rels.append(abs(val - limit) / limit)
        assert all(r2 < r1 for r1, r2 in zip(rels, rels[1:])), (n, rels)
        assert rels[-1] < 0.05
    report("AC-3 Catalan limit (n in {1,2,3}, rel err decreasing, < 5% at N=512): PASS")


def test_ac4_offdiagonal_decay():
    """Coupling block norm obeys the calibrated n-dependent bound and halves with N."""
    mu, a, b = 1.0, 0.0, 1.0
    for n in (1, 2, 3):
        vals = {}
        for N in (64, 128, 256, 512):
            vals[N] = band_norm_sq(matrix_linear_power(a, b, n, mu / N, N), N, N + n)
        c_n = vals[64] / ((a * a + b * b) ** n * (mu / 64) ** (n + 1) * 64**n)
        for N in (64, 128, 256):
            hbar = mu / N
            assert vals[N] <= 2 * c_n * (a * a + b * b) ** n * hbar ** (n + 1) * N**n
            assert 0.4 <= vals[2 * N] / vals[N] <= 0.6
    report("AC-4 off-diagonal decay (bound with c_n at N=64; halving in [0.4, 0.6]): PASS")


def test_ac5_bulk_sine_estimate():
    """sup |rescaled kernel - bulk profile| <= C hbar with the explicit constant."""
    mu, L = 1.0, 1.0
    c_u, c_v = 0.5, 4.0
    C = bulk_sup_constant(mu, L, c_u, c_v)
    hbar0 = (L - c_u) / c_v
    xs = np.linspace(-c_u, c_u, 101)[:, None]
    ys = np.linspace(-c_v, c_v, 161)[None, :]
    bulk = bulk_profile_box(mu, L, ys) * np.ones_like(xs)
    sups = {}
    for N in (50, 100, 200, 400):
        hbar = mu / N
        assert hbar < hbar0
        resc = rescaled_kernel_f2(N, hbar, L, xs, ys)
        sups[N] = float(np.max(np.abs(resc - bulk)))
        assert sups[N] <= C * hbar, (N, sups[N], C * hbar)
    report(
        "AC-5 bulk sine estimate (sup err <= C hbar, C = "
        f"{C:.4f}, N in {{50,100,200,400}}): PASS"
    )


def test_ac6_x_edge_profile():
    """Hard-wall profile matches the N=400 symbol within 0.05, improving on N=100."""
    mu, L = 1.0, 1.0
    us = np.linspace(0.0, 6.0, 121)
    p_list = (0.0, math.pi * mu / (4 * L))
    worst = {}
    for N in (100, 400):
        hbar = mu / N
        w = 0.0
        for p0 in p_list:
            sym = symbol_projection_box(N, hbar, L, L - hbar * us, p0)
            prof = np.array([edge_profile_x(float(u), p0, mu, L) for u in us])
            w = max(w, float(np.max(np.abs(sym - prof))))
        worst[N] = w
    assert worst[400] <= 0.05
    assert worst[400] < worst[100]
    report(
        f"AC-6 x-edge profile (max err {worst[400]:.4f} at N=400 <= 0.05, "
        f"below {worst[100]:.4f} at N=100): PASS"
    )


def test_ac7_p_edge_profile():
    """Momentum-edge series matches the N=1000 symbol within 0.05, improving on N=250."""
    mu, L = 1.0, 1.0
    cases = [(x0, v) for x0 in (0.0, 0.5) for v in (0.25, 0.5, 1.5)]
    prof = {c: edge_profile_p(c[0], c[1], mu, L) for c in cases}
    worst = {}
    for N in (250, 1000):
        hbar = mu / N
        w = 0.0
        for (x0, v) in cases:
            p0 = math.pi * mu / (2 * L) + hbar * math.pi * v / (2 * L)
            w = max(w, abs(symbol_projection_box(N, hbar, L, x0, p0) - prof[(x0, v)]))
        worst[N] = w
    assert worst[1000] <= 0.05
    assert worst[1000] < worst[250]
    report(
        f"AC-7 p-edge profile (max err {worst[1000]:.4f} at N=1000 <= 0.05, "
        f"below {worst[250]:.4f} at N=250): PASS"
    )


def test_ac8_truncated_momentum_norm():
    """Momentum truncation norm converges to pi^3 mu^3 / 6 L^2; tail block
    halves.  The sweep's norms agree with the dense matrix oracle."""
    mu, L = 1.0, 1.0
    levels = (128, 256, 512)
    limit = math.pi**3 * mu**3 / (6 * L**2)
    rep = run_sweep(SweepConfig("box-momentum-norm", levels, mu, L))
    for N, val in zip(levels, rep.values("hs_norm_sq")):
        hbar = mu / N
        assert val == pytest.approx(hs_norm_sq(box_momentum_matrix(N, L, hbar), hbar), rel=1e-12)
    rels = rep.values("rel_err")
    tails = rep.values("offdiag_norm_sq")
    assert rels == [abs(v - limit) / limit for v in rep.values("hs_norm_sq")]
    assert all(r2 < r1 for r1, r2 in zip(rels, rels[1:]))
    assert rels[-1] < 0.05
    for b1, b2 in zip(tails, tails[1:]):
        assert b2 / b1 < 0.75
    report(
        f"AC-8 truncated momentum norm (rel err {rels[-1]:.4%} at N=512 < 5%, "
        f"B ratios {[f'{b2/b1:.3f}' for b1, b2 in zip(tails, tails[1:])]}): PASS"
    )


def test_ac9_tridiagonal_norm_identity():
    """Exact finite-N identity pi hbar (N-1)/L, approaching pi mu / L."""
    mu, L = 1.0, 1.0
    limit = math.pi * mu / L
    levels = (4, 16, 64, 256, 1024)
    vals = run_sweep(SweepConfig("box-tridiag-norm", levels, mu, L)).values("hs_norm_sq")
    gaps = []
    for N, val in zip(levels, vals):
        hbar = mu / N
        want = math.pi * hbar * (N - 1) / L
        assert abs(val - want) <= 1e-12 * want
        gaps.append(abs(val - limit))
    assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))
    report("AC-9 tridiagonal norm identity (pi hbar (N-1)/L exact; gap to pi mu/L shrinking): PASS")


def test_ac10_origin_parity():
    """Oscillator symbol at the origin alternates between 0 and 2 with N."""
    mu = 1.0
    for N in (4, 5, 6, 7):
        assert symbol_oscillator_projection(N, mu / N, 0.0, 0.0) == 1 + (-1) ** (N + 1)
    report("AC-10 origin parity (sigma(0,0) = 1 + (-1)^(N+1) exactly, N in 4..7): PASS")


def test_ac11_oracle_equivalences():
    """Banded vs explicit ladder powers; momentum entries vs derivative
    quadrature; closed forms vs their direct sums and the quadrature
    transform; kernel closed form vs eigenfunction sum.  Parts (a)-(c) run
    the one check of their oracle family."""
    # (a) banded vs explicit ladder powers
    for (a, b) in ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (2.0, -1.0)):
        for n in range(0, 6):
            assert_band_meets_ladder_power(a, b, n, 1.0 / 16, 16)
    # (b) box momentum entries vs derivative quadrature
    assert_momentum_entries_match_quadrature(1.0, 0.25)
    # (c) the box projection and momentum symbols vs their direct sums, and
    # those and the rank-one operator symbol vs the quadrature transform, at
    # 50 random points of N = 6
    assert_box_symbols_match_quadrature(6, random_box_points(6, 11))
    # (d) kernel closed form vs eigenfunction sum
    L = 1.0
    basis = EigenBasis(Model.BOX, hbar=1.0 / 6, box_half_width=L)
    rng = np.random.default_rng(12)
    for N in (1, 5, 12):
        for _ in range(20):
            x, y = rng.uniform(-L, L, size=2)
            assert abs(box_projection_kernel(N, L, x, y) - projection_kernel_sum(basis, N, x, y)) <= 1e-12
    report("AC-11 oracle equivalences (ladder 1e-14 of the largest; C_jk 1e-10; symbols 1e-12, "
           "quadrature and rank one 1e-8; kernels 1e-12): PASS")


def test_ac12_moyal_layer():
    """Composition reproduces idempotency; direct quadrature on its default
    grid within 0.5%."""
    mu, L, N = 1.0, 1.0, 10
    hbar = mu / N
    basis = EigenBasis(Model.BOX, hbar=hbar, box_half_width=L)
    proj = FiniteRankOperator(basis=basis, coeff=np.eye(N, dtype=complex))

    # composition = projection symbol, exactly (identity matrix product)
    for (x, p) in [(0.2, 0.4), (-0.6, -1.1), (0.0, 1.3)]:
        got = moyal_via_composition(proj, proj, hbar, x, p)
        assert abs(got - symbol_projection_box(N, hbar, L, x, p)) <= 1e-12

    # direct vs composition at 10 interior points
    fld = projection_symbol_field(N, hbar, L, direct_grid(N, mu, L))
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(10):
        x = float(rng.uniform(-0.5 * L, 0.5 * L))
        p = float(rng.uniform(-0.6, 0.6) * math.pi * mu / (2 * L))
        direct = moyal_direct(fld, fld, hbar, x, p)
        comp = moyal_via_composition(proj, proj, hbar, x, p)
        worst = max(worst, abs(direct - comp) / max(1.0, abs(comp)))
    assert worst <= 0.005
    report(f"AC-12 Moyal layer (idempotency exact; direct vs composition {worst:.4f} <= 0.5%): PASS")


def test_ac13_osc_disk_l2():
    """Global distance^2 of the oscillator projection symbol to the disk
    x^2 + p^2 <= 2 mu decreases at the N^(-2/3) rate: per-doubling ratios
    within [0.62, 0.66] around 2^(-2/3), against a global z-space rule."""
    mu = 1.0
    rep = run_sweep(SweepConfig(experiment="osc-disk-l2", n_levels=(10, 20, 40, 80), mu=mu))
    assert rep.passed
    dist = dict(zip((10, 20, 40, 80), rep.values("distance_sq")))
    for N, got in dist.items():
        assert abs(got - osc_distance_z_space(N, mu / N, 8 * N + 128)) <= 1e-10
    ratios = [dist[2 * N] / dist[N] for N in (10, 20, 40)]
    assert all(0.62 <= r <= 0.66 for r in ratios)
    assert dist[80] < 0.35 * 2 * math.pi * mu
    report(
        "AC-13 oscillator disk L2 convergence (distance^2 "
        + " -> ".join(f"{dist[N]:.4f}" for N in (10, 20, 40, 80))
        + ", ratios " + ", ".join(f"{r:.3f}" for r in ratios) + "): PASS"
    )


# every registered experiment with the model and observable its report names
REGISTERED = [
    ("box-projection-l2", "box", "projection"),
    ("box-edge-x", "box", "projection"),
    ("box-edge-p", "box", "projection"),
    ("box-bulk-sup", "box", "projection"),
    ("box-tridiag-norm", "box", "tridiagonal"),
    ("box-momentum-norm", "box", "momentum"),
    ("osc-catalan", "oscillator", "linear-power"),
    ("osc-offdiag", "oscillator", "linear-power"),
    ("osc-origin-parity", "oscillator", "projection"),
    ("osc-disk-l2", "oscillator", "projection"),
    ("moyal-idempotency", "box", "projection"),
]


def test_registry_is_the_listed_experiments():
    assert list(EXPERIMENTS) == [name for name, _, _ in REGISTERED]


@pytest.mark.parametrize("experiment, model, observable", REGISTERED)
def test_registered_sweeps_mirror_acceptance(experiment, model, observable):
    """Every registered experiment passes at its default N list and labels
    its report with its model and observable."""
    levels = default_n_levels(experiment)
    rep = run_sweep(SweepConfig(experiment=experiment, n_levels=levels))
    assert (rep.experiment, rep.model, rep.observable) == (experiment, model, observable)
    assert set(levels) <= {r.N for r in rep.rows}
    assert rep.passed
    report(f"Registered sweep {experiment} ({model}, {observable}) at N = {levels}: PASS")
