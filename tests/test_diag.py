import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from matrix_oracle import (
    box_momentum_entry,
    box_momentum_matrix,
    box_multiplication_matrix,
    dense_power,
    hs_norm_sq,
    ladder_power,
    offdiag_block_norm_sq,
)
from quadrature_oracle import box_distance_x_space, osc_distance_z_space

from weylsym.diag import (
    _TAIL_CUTOFF,
    SweepConfig,
    _box_momentum_inner_norm_sq,
    band_norm_sq,
    box_momentum_tail_norm_sq,
    box_projection_distance_sq,
    catalan_limit_value,
    default_n_levels,
    edge_section,
    oscillator_disk_distance_sq,
    run_sweep,
)
import weylsym.truncate
from weylsym import diag
from weylsym.scale import PhaseGrid
from weylsym.truncate import matrix_linear_power
from weylsym.weyl import projection_symbol_field, symbol_oscillator_projection


def identity_matrix(N):
    return np.eye(N, dtype=complex)


class TestHsNorm:
    def test_identity_projection(self):
        for N in (1, 7, 64):
            hbar = 1.0 / N
            assert hs_norm_sq(identity_matrix(N), hbar) == pytest.approx(
                2 * math.pi * hbar * N, rel=1e-14
            )

    def test_zero_matrix(self):
        assert hs_norm_sq(np.zeros((5, 5), dtype=complex), 0.3) == 0.0

    def test_box_momentum_approaches_limit(self):
        N, mu, L = 256, 1.0, 1.0
        hbar = mu / N
        val = hs_norm_sq(box_momentum_matrix(N, L, hbar), hbar)
        limit = math.pi**3 * mu**3 / (6 * L**2)
        assert abs(val - limit) / limit < 0.05

    @settings(max_examples=60, deadline=None)
    @given(N=st.integers(1, 300), mu=st.floats(0.05, 20.0), L=st.floats(0.05, 20.0))
    def test_tridiag_exact_identity(self, N, mu, L):
        # the sweep sums the 2(N - 1) nonzero entries alone: the sum over the
        # whole dense matrix up to rounding, and pi hbar (N - 1) / L
        rep = run_sweep(SweepConfig("box-tridiag-norm", (N,), mu=mu, L=L))
        hbar = mu / N
        (val,) = rep.values("hs_norm_sq")
        assert val == pytest.approx(hs_norm_sq(box_multiplication_matrix(N, L), hbar), rel=1e-14)
        assert val == pytest.approx(math.pi * hbar * (N - 1) / L, rel=1e-12)

    def test_tridiag_sweep_builds_no_square_matrix(self):
        # one complex 4096 x 4096 matrix alone would take 268 MB
        config = SweepConfig("box-tridiag-norm", (1024, 4096))
        tracemalloc.start()
        try:
            run_sweep(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestOffdiagBlock:
    def test_diagonal_matrix_has_no_coupling(self):
        m = np.diag(np.arange(1.0, 7.0)).astype(complex)
        assert offdiag_block_norm_sq(m, 3, 0.5) == 0.0

    def test_requires_padding(self):
        m = identity_matrix(4)
        with pytest.raises(ValueError):
            offdiag_block_norm_sq(m, 4, 0.5)

    def test_momentum_block_scales_as_inverse_N(self):
        # rank-one block for n = 1: exactly pi hbar^2 N = pi mu^2 / N
        mu = 1.0
        vals = {}
        for N in (64, 128, 256):
            hbar = mu / N
            padded = dense_power(matrix_linear_power(0.0, 1.0, 1, hbar, N + 1))
            vals[N] = offdiag_block_norm_sq(padded, N, hbar)
            assert vals[N] == pytest.approx(math.pi * hbar**2 * N, rel=1e-12)
        assert vals[128] / vals[64] == pytest.approx(0.5, abs=1e-12)

    def test_box_momentum_tail_halves(self):
        mu, L = 1.0, 1.0
        prev = None
        for N in (128, 256):
            B = box_momentum_tail_norm_sq(N, L, mu / N)
            if prev is not None:
                assert B / prev < 0.75
            prev = B


# The band norms and the dense definitions add the same squares in other
# orders, and the band takes |weight|^2 once instead of per entry.
BAND_NORM_RTOL = 1e-14


class TestBandNorms:
    @settings(max_examples=80, deadline=None)
    @given(
        a=st.floats(-3.0, 3.0),
        b=st.floats(-3.0, 3.0),
        n=st.integers(0, 12),
        N=st.integers(1, 300),
        hbar=st.floats(1e-3, 2.0),
    )
    def test_match_dense_oracle(self, a, b, n, N, hbar):
        assume(a * a + b * b > 1e-6)
        band = matrix_linear_power(a, b, n, hbar, N)
        power = ladder_power(a, b, n, hbar, N)
        want = hs_norm_sq(power[:N, :N], hbar)
        assert band_norm_sq(band, 0, N) == pytest.approx(want, rel=BAND_NORM_RTOL)
        if n:
            want = offdiag_block_norm_sq(power, N, hbar)
            assert band_norm_sq(band, N, N + n) == pytest.approx(want, rel=BAND_NORM_RTOL)

    def test_catalan_sweep_builds_no_square_matrix(self):
        # one complex 1024 x 1024 matrix alone would take 16.8 MB
        config = SweepConfig("osc-catalan", (64, 128, 256, 512, 1024), powers=tuple(range(1, 9)))
        tracemalloc.start()
        try:
            run_sweep(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000


def momentum_tail_oracle(N, L, hbar):
    """Direct sum 2 pi hbar sum_{k<=N} sum_{N<j<=_TAIL_CUTOFF N} |C_jk|^2, one
    row of j per level k; only j of the parity opposite to k's, since C_jk
    is zero for the other."""
    js = np.arange(N + 1, _TAIL_CUTOFF * N + 1, dtype=float)
    total = 0.0
    for k in range(1, N + 1):
        c = box_momentum_entry(js[(N + k) % 2 :: 2], float(k), L, hbar)
        total += float(np.sum(np.abs(c) ** 2))
    return 2.0 * math.pi * hbar * total


class TestBoxMomentumNorms:
    @pytest.mark.parametrize("N", list(range(1, 41)) + [128, 256, 512, 1024, 2048])
    def test_prefix_sums_match_direct_sums(self, N):
        mu, L = 1.01, 0.97
        hbar = mu / N
        inner = hs_norm_sq(box_momentum_matrix(N, L, hbar), hbar)  # exactly 0 for N = 1
        assert _box_momentum_inner_norm_sq(N, L, hbar) == pytest.approx(inner, rel=1e-13, abs=0.0)
        tail = momentum_tail_oracle(N, L, hbar)
        assert box_momentum_tail_norm_sq(N, L, hbar) == pytest.approx(tail, rel=1e-13, abs=0.0)

    def test_sweep_rows_are_the_norms(self):
        mu, L = 1.0, 1.2
        rep = run_sweep(SweepConfig(experiment="box-momentum-norm", n_levels=(16, 32), mu=mu, L=L))
        for N in (16, 32):
            row = {r.metric: r.value for r in rep.rows if r.N == N}
            inner = hs_norm_sq(box_momentum_matrix(N, L, mu / N), mu / N)
            tail = momentum_tail_oracle(N, L, mu / N)
            assert row["hs_norm_sq"] == pytest.approx(inner, rel=1e-13)
            assert row["offdiag_norm_sq"] == pytest.approx(tail, rel=1e-13)


class TestExactDistances:
    @pytest.mark.parametrize("N", [1, 3, 10, 20, 40, 160])
    @pytest.mark.parametrize("L", [1.0, 0.37])
    def test_box_matches_x_space_quadrature(self, N, L):
        got = box_projection_distance_sq(N, 1.0 / N, L)
        assert got == pytest.approx(box_distance_x_space(N, 1.0, L, 4 * N + 64), abs=1e-12)

    @pytest.mark.parametrize("N", [2, 10, 40, 80, 160])
    def test_osc_matches_z_space_quadrature(self, N):
        # the z-rule needs ~4N + 64 nodes for 1e-10 at N <= 80 (the ripples
        # shorten toward z = 0), hence the looser tolerance
        got = oscillator_disk_distance_sq(N, 1.0 / N)
        assert got == pytest.approx(osc_distance_z_space(N, 1.0 / N, 8 * N + 128), abs=1e-10)

    @pytest.mark.parametrize("hbar", [0.5, 1.0, 3.0])
    def test_osc_rank_one_closed_form(self, hbar):
        # sigma_1 = 2 e^{-z/2}: d^2 = 4 pi hbar - 4 pi hbar (1 - e^{-2})
        want = 4.0 * math.pi * hbar * math.exp(-2.0)
        assert oscillator_disk_distance_sq(1, hbar) == pytest.approx(want, rel=1e-14)

    @settings(max_examples=25, deadline=None)
    @given(
        N=st.sampled_from([1, 4, 10, 33]),
        mu=st.floats(0.05, 20.0),
        L=st.floats(0.05, 20.0),
    )
    def test_distance_over_mu_depends_on_N_alone(self, N, mu, L):
        box = box_projection_distance_sq(N, mu / N, L) / mu
        assert box == pytest.approx(box_projection_distance_sq(N, 1.0 / N, 1.0), abs=1e-12)
        osc = oscillator_disk_distance_sq(N, mu / N) / mu
        assert osc == pytest.approx(oscillator_disk_distance_sq(N, 1.0 / N), abs=1e-12)

    @pytest.mark.parametrize("bad", [(0, 0.1, 1.0), (4, 0.0, 1.0), (4, 0.1, 0.0), (4, -1.0, 1.0)])
    def test_domain_errors(self, bad):
        N, hbar, L = bad
        with pytest.raises(ValueError):
            box_projection_distance_sq(N, hbar, L)
        if L > 0:
            with pytest.raises(ValueError):
                oscillator_disk_distance_sq(N, hbar)


class TestCatalanAndAngular:
    def test_catalan_base_case(self):
        for mu in (0.5, 1.0, 2.0):
            assert catalan_limit_value(0, 3.0, -2.0, mu) == pytest.approx(2 * math.pi * mu)

    def test_catalan_momentum_n1(self):
        assert catalan_limit_value(1, 0.0, 1.0, 1.0) == pytest.approx(math.pi, rel=1e-14)

    def test_catalan_n2_mixed(self):
        # 2 pi mu^3 ((a^2+b^2)/2)^2 C_2 at a=b=1, mu=1: 2 pi * 1 * 2 = 4 pi
        assert catalan_limit_value(2, 1.0, 1.0, 1.0) == pytest.approx(4 * math.pi, rel=1e-14)

    def test_catalan_integer_valued_float_n(self):
        assert catalan_limit_value(2.0, 1.0, 0.5, 1.3) == catalan_limit_value(2, 1.0, 0.5, 1.3)

    @pytest.mark.parametrize("n", [2.5, math.nan, math.inf, -1])
    def test_catalan_refuses_bad_n(self, n):
        # the refusal of matrix_linear_power; TypeError from math.comb before
        with pytest.raises(ValueError, match="n must be >= 0 and an integer"):
            catalan_limit_value(n, 1.0, 0.0, 1.0)

    @pytest.mark.parametrize("n,a,b", [(1, 1.0, 0.0), (2, 0.3, 1.1), (3, 2.0, 1.0), (4, -1.0, 2.5)])
    def test_angular_matches_trapezoid(self, n, a, b):
        # the limit is the integral of (a x + b p)^{2n} over the disk of
        # radius R = sqrt(2 mu): R^{2n+2} / (2n + 2) times the angular
        # integral of (a cos t + b sin t)^{2n}, here by the trapezoid rule
        mu = 0.7
        ts = np.linspace(0.0, 2 * math.pi, 2001)
        f = (a * np.cos(ts) + b * np.sin(ts)) ** (2 * n)
        want = (2 * mu) ** (n + 1) / (2 * n + 2) * float(np.trapezoid(f, ts))
        assert catalan_limit_value(n, a, b, mu) == pytest.approx(want, rel=1e-9)


class TestOscillatorParitySpot:
    @pytest.mark.parametrize("N", [4, 5, 6, 7])
    def test_origin_value_tight(self, N):
        # exact, as for every N of TestOscillatorLaguerreSymbol
        hbar = 1.0 / N
        assert symbol_oscillator_projection(N, hbar, 0.0, 0.0) == 1 + (-1) ** (N + 1)


class TestConditionC1Bounded:
    def test_norms_bounded_along_sweeps(self):
        mu, L = 1.0, 1.0
        levels = (16, 32, 64, 128)
        seqs = {
            "tridiag": run_sweep(SweepConfig("box-tridiag-norm", levels, mu, L)).values("hs_norm_sq"),
            "momentum": [_box_momentum_inner_norm_sq(N, L, mu / N) for N in levels],
            "power2": [band_norm_sq(matrix_linear_power(0.0, 1.0, 2, mu / N, N), 0, N) for N in levels],
        }
        for name, vals in seqs.items():
            assert max(vals) / min(vals) < 3.0, name


class TestParsevalConsistency:
    def test_figure_configuration(self):
        N, mu = 40, 1.0
        L = math.sqrt(math.pi / 2.0)
        hbar = mu / N
        g = PhaseGrid(-1.5 * L, 1.5 * L, -3.0, 3.0, 500, 500)
        fld = projection_symbol_field(N, hbar, L, g)
        windowed = float(np.sum(fld.values**2)) * g.dx * g.dp
        total = hs_norm_sq(identity_matrix(N), hbar)
        tail = total - windowed
        assert tail >= 0
        assert windowed + tail == pytest.approx(total, rel=1e-12)
        assert windowed == pytest.approx(total, rel=0.01)  # window holds 99%


class TestEdgeSection:
    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["x", "p"]),
        N=st.integers(1, 300),
        mu=st.floats(0.1, 5.0),
        L=st.floats(0.1, 5.0),
        coords=st.lists(st.floats(0.0, 8.0), min_size=1, max_size=8),
        fixed=st.tuples(st.floats(-1.2, 1.2), st.floats(-1.2, 1.2)),
    )
    def test_two_sections_in_one_call_bit_for_bit(self, kind, N, mu, L, coords, fixed):
        # the sweeps stack their sections into one symbol call; each row must
        # be the doubles of that section alone (v is shifted to [-2, 6], the
        # fixed x or p scaled to L or to P = pi mu / 2L)
        coords = np.array(coords) - (2.0 if kind == "p" else 0.0)
        scale = L if kind == "p" else math.pi * mu / (2.0 * L)
        pair = [scale * f for f in fixed]
        sym, prof = edge_section(kind, N, mu, L, coords, np.array(pair)[:, None])
        assert sym.shape == prof.shape == (2, coords.size)
        for row, f in enumerate(pair):
            one_sym, one_prof = edge_section(kind, N, mu, L, coords, f)
            assert np.array_equal(sym[row], one_sym)
            assert np.array_equal(prof[row], one_prof)

    @pytest.mark.parametrize("kind, coords, message", [
        ("x", [0.5, -0.1], "u must be >= 0"),
        ("q", [0.5], "edge kind must be"),
        ("x", [math.nan], "u must be finite"),
        ("p", [math.nan], "v must be finite"),
    ])
    def test_refusals(self, kind, coords, message):
        with pytest.raises(ValueError, match=message):
            edge_section(kind, 10, 1.0, 1.0, coords, 0.0)


class TestSweeps:
    def test_unknown_experiment(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            run_sweep(SweepConfig(experiment="no-such", n_levels=(4, 8)))

    def test_empty_n_list(self):
        with pytest.raises(ValueError, match="nonempty"):
            SweepConfig(experiment="osc-catalan", n_levels=())

    def test_non_increasing_n_list(self):
        with pytest.raises(ValueError, match="increasing"):
            SweepConfig(experiment="osc-catalan", n_levels=(8, 8))

    @pytest.mark.parametrize("powers, message", [
        ((2, 2), "strictly increasing"),
        ((3, 1), "strictly increasing"),
        ((1, 2, 2), "strictly increasing"),
        ((), "nonempty"),
    ])
    def test_non_increasing_powers(self, powers, message):
        # a repeated power once wrote its rows and verdicts twice, and no
        # power at all failed inside the sweep on min(())
        with pytest.raises(ValueError, match=f"powers must be {message}"):
            SweepConfig(experiment="osc-catalan", n_levels=(64, 128), powers=powers)

    @pytest.mark.parametrize("experiment", ["box-edge-x", "osc-catalan", "box-tridiag-norm"])
    def test_n_below_one_refused(self, experiment):
        # hbar = mu / N: N = 0 once raised ZeroDivisionError inside the sweep
        with pytest.raises(ValueError, match="positive integers"):
            SweepConfig(experiment, (0, 4))

    @pytest.mark.parametrize("field", ["mu", "L", "a", "b"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameters_refused(self, field, value):
        with pytest.raises(ValueError, match="must be finite"):
            SweepConfig("osc-catalan", (64, 128), **{field: value})

    def test_budget_guard(self):
        # the default grid at N = 20000 is 20000 * 320000 * 305578 cells
        cfg = SweepConfig(experiment="moyal-idempotency", n_levels=(10, 20, 40, 20000))
        with pytest.raises(ValueError, match="resource guard"):
            run_sweep(cfg)

    @pytest.mark.parametrize("experiment", ["box-projection-l2", "osc-disk-l2"])
    def test_l2_budget_guard(self, experiment):
        cfg = SweepConfig(experiment=experiment, n_levels=(10, 300000))
        with pytest.raises(ValueError, match="resource guard"):
            run_sweep(cfg)

    def test_bulk_sup_at_huge_n(self):
        # each Dirichlet kernel is O(1) for every N: the cosine loop it took
        # near multiples of 2 pi made this sweep linear in N (about 6 min
        # at 1e8 levels)
        report = run_sweep(SweepConfig("box-bulk-sup", (10**8,)))
        assert [r.metric for r in report.rows] == ["sup_err", "bound"]
        assert report.passed

    def test_box_projection_small(self):
        cfg = SweepConfig(
            experiment="box-projection-l2",
            n_levels=(5, 10, 20),
            mu=1.0,
            L=math.sqrt(math.pi / 2.0),
        )
        rep = run_sweep(cfg)
        assert rep.experiment == "box-projection-l2"
        vals = rep.values("distance_sq")
        assert len(vals) == 3
        assert vals[2] < vals[0]
        names = [v.name for v in rep.verdicts]
        assert "distance-decreasing" in names and "final-below-threshold" in names

    @pytest.mark.parametrize("experiment", ["box-projection-l2", "osc-disk-l2"])
    def test_l2_sweeps_pass_at_defaults(self, experiment):
        rep = run_sweep(SweepConfig(experiment=experiment, n_levels=default_n_levels(experiment)))
        assert rep.passed
        assert [v.name for v in rep.verdicts] == [
            "distance-decreasing", "final-below-threshold", "ratio-band"]

    def test_ratio_band_per_doubling(self):
        # N = 10, 40 is two doublings: the verdict takes the square root of
        # the ratio, which matches the two single-doubling ratios' range
        rep = run_sweep(SweepConfig(experiment="box-projection-l2", n_levels=(10, 40)))
        d10, d40 = rep.values("distance_sq")
        band = rep.verdicts[2]
        assert band.passed
        assert f"{math.sqrt(d40 / d10):.4f}" in band.detail

    def test_ratio_band_fails_off_rate(self):
        # from N = 1 the first doubling is still far from the asymptotic rate
        rep = run_sweep(SweepConfig(experiment="osc-disk-l2", n_levels=(1, 2, 4)))
        assert not rep.verdicts[2].passed

    def test_tridiag_sweep_passes(self):
        rep = run_sweep(SweepConfig(experiment="box-tridiag-norm", n_levels=(16, 64, 256)))
        assert rep.passed

    def test_origin_parity_sweep(self):
        rep = run_sweep(SweepConfig(experiment="osc-origin-parity", n_levels=(4, 5, 6, 7)))
        assert rep.passed

    def test_default_n_levels_known(self):
        assert default_n_levels("box-bulk-sup") == (50, 100, 200, 400)
        with pytest.raises(ValueError):
            default_n_levels("nope")

    def test_report_serialization(self, tmp_path):
        rep = run_sweep(SweepConfig(experiment="box-tridiag-norm", n_levels=(8, 16)))
        jpath = tmp_path / "r.json"
        cpath = tmp_path / "r.csv"
        rep.to_json(jpath)
        rep.to_csv(cpath)
        payload = json.loads(jpath.read_text())
        assert payload["experiment"] == "box-tridiag-norm"
        assert {"N", "hbar", "metric", "value"} <= set(payload["rows"][0])
        assert {"name", "passed", "detail"} <= set(payload["verdicts"][0])
        lines = cpath.read_text().strip().splitlines()
        assert lines[0] == "N,hbar,metric,value"
        assert len(lines) == 1 + len(payload["rows"])


def _ladder_oracle(config, n_levels, block):
    """One matrix_linear_power call per (n, N), as the sweeps once made
    them: the norms of rows [0, N), or of the block rows [N, N + n)."""
    mu, a, b = config.mu, config.a, config.b
    out = {}
    for n in config.powers:
        for N in n_levels:
            lo, hi = (N, N + n) if block else (0, N)
            out[n, N] = band_norm_sq(matrix_linear_power(a, b, n, mu / N, N), lo, hi)
    return out


def _first_refusal(config, n_levels):
    for n in config.powers:
        for N in n_levels:
            try:
                matrix_linear_power(config.a, config.b, n, config.mu / N, N)
            except ValueError as exc:
                return str(exc)
    return None


ladder_case = dict(
    a=st.floats(-2.0, 2.0),
    b=st.floats(-2.0, 2.0),
    mu=st.floats(0.5, 2.0),
    powers=st.lists(st.integers(1, 12), min_size=1, max_size=4, unique=True).map(sorted),
    n_levels=st.lists(st.integers(1, 300), min_size=1, max_size=4, unique=True).map(sorted),
)


class TestSweepsHoistNIndependentWork:
    """Each sweep computes what does not depend on N once: the same doubles
    as the per-N calls, and the work counted through wrappers."""

    @pytest.mark.parametrize("kind, n_levels, mu, L", [
        ("x", (100, 400), 1.0, 1.0),
        ("x", (7, 50, 130), 1.013, 0.987),
        ("p", (250, 1000, 4000), 0.991, 1.017),
        ("p", (10, 40), 1.0, 1.0),
    ])
    def test_edge_rows_match_per_n_sections(self, kind, n_levels, mu, L):
        if kind == "x":
            coords = np.linspace(0.0, 6.0, 121)
            fixed = np.array([[0.0], [math.pi * mu / (4.0 * L)]])
        else:
            coords = np.tile([0.25, 0.5, 1.5], 2)
            fixed = np.repeat([0.0, 0.5 * L], 3)
        rep = run_sweep(SweepConfig(f"box-edge-{kind}", n_levels, mu=mu, L=L))
        want = []
        for N in n_levels:
            sym, prof = edge_section(kind, N, mu, L, coords, fixed)
            want.append(float(np.max(np.abs(sym - prof))))
        assert rep.values("max_abs_err") == want

    @pytest.mark.parametrize("kind, n_levels, calls", [
        ("x", (100, 400), 242), ("p", (250, 1000, 4000), 6),
    ])
    def test_edge_profiles_once_per_sweep(self, monkeypatch, kind, n_levels, calls):
        # counts the points evaluated: the x profile takes a whole section
        # set per call, the p profile one point
        name = f"edge_profile_{kind}"
        count = []
        profile = getattr(diag, name)

        def counted(*args):
            count.append(np.broadcast(*args[:2]).size)
            return profile(*args)

        monkeypatch.setattr(diag, name, counted)
        run_sweep(SweepConfig(f"box-edge-{kind}", n_levels))
        assert sum(count) == calls

    @settings(max_examples=40, deadline=None)
    @given(**ladder_case)
    def test_catalan_rows_match_per_n_bands(self, a, b, mu, powers, n_levels):
        assume(a * a + b * b > 1e-6)
        config = SweepConfig("osc-catalan", tuple(n_levels), mu=mu, powers=tuple(powers), a=a, b=b)
        vals = _ladder_oracle(config, n_levels, block=False)
        want = []
        for n in powers:
            limit = catalan_limit_value(n, a, b, mu)
            want += [abs(vals[n, N] - limit) / limit for N in n_levels]
        assert [r.value for r in run_sweep(config).rows] == want

    @settings(max_examples=40, deadline=None)
    @given(**ladder_case)
    def test_offdiag_rows_match_per_n_bands(self, a, b, mu, powers, n_levels):
        # the sweep also reads N = 2 N_i, beyond its largest listed N
        assume(a * a + b * b > 1e-6)
        config = SweepConfig("osc-offdiag", tuple(n_levels), mu=mu, powers=tuple(powers), a=a, b=b)
        read = sorted(set(n_levels) | {2 * N for N in n_levels})
        vals = _ladder_oracle(config, read, block=True)
        want = [vals[n, N] for n in powers for N in read]
        assert [r.value for r in run_sweep(config).rows] == want

    @pytest.mark.parametrize("experiment, n_levels, powers, mu", [
        ("osc-offdiag", (2100, 2200), (1, 2), 1.0),
        ("osc-catalan", (64, 5000), (3,), 1.0),
        ("osc-catalan", (64, 128), (1, 13), 1.0),
        ("osc-offdiag", (64,), (2,), 5e-324),
    ])
    def test_refusals_come_first_with_the_per_n_messages(self, monkeypatch, experiment, n_levels, powers, mu):
        config = SweepConfig(experiment, n_levels, mu=mu, powers=powers)
        read = n_levels
        if experiment == "osc-offdiag":
            read = sorted(set(n_levels) | {2 * N for N in n_levels})
        message = _first_refusal(config, read)
        assert message is not None
        # with numpy gone from truncate, a band built before the refusal fails
        monkeypatch.setattr(weylsym.truncate, "np", None)
        with pytest.raises(ValueError) as err:
            run_sweep(config)
        assert str(err.value) == message

    def test_catalan_builds_one_band_one_power_at_a_time(self, monkeypatch):
        calls, steps = [], []
        powers, step = diag._ladder_powers, weylsym.truncate._ladder_step

        def counted_powers(n, N):
            calls.append((n, N))
            return powers(n, N)

        def counted_step(band):
            steps.append(band.shape)
            return step(band)

        monkeypatch.setattr(diag, "_ladder_powers", counted_powers)
        monkeypatch.setattr(weylsym.truncate, "_ladder_step", counted_step)
        run_sweep(SweepConfig("osc-catalan", (64, 128, 256, 512, 1024), powers=(2, 5, 8)))
        assert calls == [(8, 1024)]
        assert steps == [(2 * t + 1, 1024) for t in range(8)]  # max(powers) ladder steps
