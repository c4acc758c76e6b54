import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from eigen_oracle import box_wavefunctions, gauss_legendre, projection_kernel_sum, truncated_operator_kernel
from hypothesis import example, given, settings
from hypothesis import strategies as st
from matrix_oracle import box_momentum_matrix, dense_power
from quadrature_oracle import (
    CoverageWarning,
    WeylQuadratureSpec,
    box_quadrature_spec,
    box_y_support,
    oscillator_quadrature_spec,
    symbol_from_kernel,
    symbol_from_kernel_complex,
)
from sum_oracle import (
    laguerre_direct,
    level_sum_direct,
    momentum_double_sum,
    oscillator_projection_sum,
    projection_direct_sum,
    taylor_sin_ratio,
)

from test_scale import BlockCase, assert_blocks_give_the_bits_of_one_block, rng_calls

from weylsym.basis import EigenBasis, Model
from weylsym import scale, weyl
from weylsym.diag import box_momentum_tail_norm_sq, box_projection_distance_sq, oscillator_disk_distance_sq
from weylsym.moyal import operator_symbol_complex
from weylsym.truncate import matrix_linear_power
from weylsym.kernel import _sin_ratio, box_projection_kernel, dirichlet_kernel
from weylsym.scale import PhaseGrid
from weylsym.weyl import (
    _laguerre_functions,
    _oscillator_operator_symbol,
    _level_sum,
    momentum_symbol_field,
    projection_symbol_field,
    rescaled_kernel_f2,
    symbol_oscillator_projection,
    symbol_projection_box,
    symbol_truncated_momentum_box,
)


def rank_one_box_symbol(j, k, hbar, L, x, p):
    """The box operator symbol (`moyal.operator_symbol_complex`) of |u_j><u_k|."""
    coeff = np.zeros((max(j, k), max(j, k)))
    coeff[j - 1, k - 1] = 1.0
    return operator_symbol_complex(EigenBasis(Model.BOX, hbar=hbar, box_half_width=L), coeff, hbar, x, p)


def assert_rank_one_matches_quadrature(j, k, hbar, L, x, p):
    """The box operator symbol of |u_j><u_k| is finite and within 1e-8 of the
    quadrature transform of its kernel."""
    got = rank_one_box_symbol(j, k, hbar, L, x, p)
    assert math.isfinite(got.real) and math.isfinite(got.imag)

    def kernel(xa, ya):
        return box_wavefunctions(j, L, xa)[j - 1] * box_wavefunctions(k, L, ya)[k - 1]

    spec = box_quadrature_spec(hbar, L, x, p, hbar * max(j, k))
    assert abs(got - symbol_from_kernel_complex(kernel, hbar, spec, x, p)) <= 1e-8, (j, k, hbar, L, x, p)


def summed_kernel(basis, N):
    """The rank-N projection kernel as the oracle's eigenfunction sum."""
    return lambda xa, ya: projection_kernel_sum(basis, N, xa, ya)


# the `test_scale.evaluators` name of each box symbol
ROUTE = {symbol_projection_box: "projection", symbol_truncated_momentum_box: "momentum"}


def field_case(N, hbar, L, grid):
    """The grid's call of the symbols at rank N and their fields, in blocks
    of 40 cells and of one."""
    return BlockCase(N, hbar, L, None, [(grid.x_centers()[:, None], grid.p_centers()[None, :])], (40, 1), grid)


class TestQuadratureSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            WeylQuadratureSpec(y_halfwidth=-1.0, n_nodes=128)
        with pytest.raises(ValueError):
            WeylQuadratureSpec(y_halfwidth=1.0, n_nodes=32)

    def test_coverage_warning(self):
        N, L, hbar = 4, 1.0, 0.25
        ke = summed_kernel(EigenBasis(model=Model.BOX, hbar=hbar, box_half_width=L), N)
        spec = WeylQuadratureSpec(y_halfwidth=1.0, n_nodes=128)  # the support is 8
        with pytest.warns(CoverageWarning):
            symbol_from_kernel(ke, hbar, spec, 0.0, 0.0, y_support=box_y_support(hbar, L, 0.0))


class TestSymbolFromKernel:
    def test_oscillator_ground_state_gaussian(self):
        # rank-one ground projector: sigma = 2 exp(-(x^2 + p^2)/hbar)
        hbar = 0.5
        ke = summed_kernel(EigenBasis(model=Model.OSCILLATOR, hbar=hbar), 1)
        x, p = 0.3, -0.2
        spec = oscillator_quadrature_spec(hbar, 1, p)
        got = symbol_from_kernel(ke, hbar, spec, x, p)
        assert got == pytest.approx(2.0 * math.exp(-(x * x + p * p) / hbar), abs=1e-8)

    def test_box_rank_one_outside_support(self):
        L, hbar = 1.0, 0.2

        def kernel(xa, ya):
            ua = box_wavefunctions(1, L, xa)[0]
            ub = box_wavefunctions(1, L, ya)[0]
            return ua * ub

        spec = WeylQuadratureSpec(y_halfwidth=2 * L / hbar, n_nodes=256)
        assert symbol_from_kernel(kernel, hbar, spec, 1.4, 0.3, y_support=0.0) == 0.0

    def test_projection_quadrature_matches_closed_form(self):
        # the quadrature checks the direct-sum oracle, which checks the program
        assert_box_symbols_match_quadrature(6, [(0.25, 1.1, None, None)])

    def test_non_hermitian_kernel_rejected(self):
        L, hbar = 1.0, 0.25

        def kernel(xa, ya):  # |u_1><u_2|: not symmetric
            return box_wavefunctions(1, L, xa)[0] * box_wavefunctions(2, L, ya)[1]

        spec = WeylQuadratureSpec(y_halfwidth=2 * L / hbar, n_nodes=512)
        with pytest.raises(ValueError, match="non-Hermitian kernel"):
            symbol_from_kernel(kernel, hbar, spec, 0.3, 0.8)


class TestRankOneBox:
    def test_outside_box_is_zero(self):
        assert rank_one_box_symbol(3, 4, 0.2, 1.0, 1.2, 0.7) == 0.0
        assert rank_one_box_symbol(3, 4, 0.2, 1.0, -1.000001, 0.7) == 0.0

    def test_momentum_marginal_recovers_kernel_diagonal(self):
        # int sigma_{11}(x, p) dp = 2 pi hbar u_1(x)^2
        L, hbar, x = 1.0, 0.2, 0.2
        P = 50 * hbar / L + 10
        ps, ws = gauss_legendre(2000, -P, P)
        vals = rank_one_box_symbol(1, 1, hbar, L, np.full_like(ps, x), ps).real
        got = float(np.sum(ws * vals))
        want = 2 * math.pi * hbar * box_wavefunctions(1, L, np.array([x]))[0, 0] ** 2
        assert got == pytest.approx(want, rel=1e-2)

    def test_matches_quadrature_complex(self):
        assert_rank_one_matches_quadrature(2, 5, 0.2, 1.0, 0.4, 0.7)

    def test_diagonal_is_real(self):
        for k in (1, 3, 6):
            val = rank_one_box_symbol(k, k, 0.15, 1.0, 0.33, -0.9)
            assert val.imag == pytest.approx(0.0, abs=1e-15)


class TestProjectionSymbolBox:
    def test_equals_sum_of_diagonal_rank_ones(self):
        N, mu, L = 8, 1.0, 1.0
        hbar = mu / N
        rng = np.random.default_rng(12)
        for _ in range(30):
            x = rng.uniform(-1.2 * L, 1.2 * L)
            p = rng.uniform(-3.0, 3.0)
            want = sum(rank_one_box_symbol(k, k, hbar, L, x, p).real for k in range(1, N + 1))
            got = symbol_projection_box(N, hbar, L, x, p)
            assert got == pytest.approx(want, abs=1e-10)

    def test_vanishes_at_wall(self):
        for p in (-2.0, 0.0, 0.0123, 5.5):
            assert symbol_projection_box(9, 0.1, 1.0, 1.0, p) == 0.0
            assert symbol_projection_box(9, 0.1, 1.0, -1.0, p) == 0.0

    def test_even_in_x(self):
        # substituting x -> -x swaps L + x and L - x throughout the closed
        # form and lands back on the same value
        N, hbar, L = 11, 1.0 / 11, 1.0
        rng = np.random.default_rng(3)
        for _ in range(25):
            x = rng.uniform(0.0, L)
            p = rng.uniform(-4.0, 4.0)
            a = symbol_projection_box(N, hbar, L, x, p)
            b = symbol_projection_box(N, hbar, L, -x, p)
            assert a == pytest.approx(b, abs=1e-12)

    def test_even_in_p(self):
        # the closed form reads p only through |p|, so evenness is exact,
        # on resonances too
        N, hbar, L = 6, 1.0 / 6, 1.0
        g = math.pi * hbar / (2.0 * L)
        for x in (0.37, -0.9, 0.0, 1.0 - 1e-9):
            for p in (1.3, 0.0, 2 * g, 5 * g + 1e-13, 1e-300):
                assert symbol_projection_box(N, hbar, L, x, p) == symbol_projection_box(N, hbar, L, x, -p)

    def test_plateau_and_gibbs(self):
        # Figure-style configuration: plateau near 1 inside the rectangle,
        # overshoot near the boundary
        N, mu = 40, 1.0
        L = math.sqrt(math.pi / 2.0)
        hbar = mu / N
        p_half = math.pi * mu / (2 * L)
        grid = PhaseGrid(-1.5 * L, 1.5 * L, -2.5, 2.5, 301, 301)
        fld = projection_symbol_field(N, hbar, L, grid)
        x, p = grid.meshgrid()
        interior = (np.abs(x) < 0.7 * L) & (np.abs(p) < 0.7 * p_half)
        exterior = (np.abs(x) > 1.2 * L) | (np.abs(p) > 1.4 * p_half)
        assert abs(float(np.mean(fld.values[np.broadcast_to(interior, fld.values.shape)])) - 1.0) < 0.05
        assert float(np.max(fld.values)) > 1.05  # Gibbs overshoot
        assert float(np.max(np.abs(fld.values[np.broadcast_to(exterior, fld.values.shape)]))) < 0.35


projection_settings = settings(deadline=None, derandomize=True, max_examples=80)
projection_case = dict(
    N=st.integers(1, 128), mu=st.floats(0.5, 2.0), L=st.floats(0.5, 2.0), u=st.floats(-1.3, 1.3),
)


def assert_matches_direct_sum(N, hbar, L, x, p):
    got = symbol_projection_box(N, hbar, L, x, p)
    assert isinstance(got, float)
    want = float(projection_direct_sum(N, hbar, L, np.array([x]), np.array([p]))[0])
    assert abs(got - want) <= 1e-12


class TestProjectionAngleSplit:
    """The angle-addition form of the projection sum against the direct
    2N-quotient sum, away from and on the resonances m_k = k pi hbar / 2L."""

    @projection_settings
    @given(**projection_case, v=st.floats(-3.0, 3.0))
    def test_matches_direct_sum_oracle(self, N, mu, L, u, v):
        # x = u L, p = v P with P = pi mu / 2L, the classical momentum edge
        hbar = mu / N
        assert_matches_direct_sum(N, hbar, L, u * L, v * math.pi * mu / (2.0 * L))

    @projection_settings
    @given(
        **projection_case, k=st.integers(0, 140), sign=st.sampled_from((1.0, -1.0)),
        offset=st.sampled_from((0.0, 1e-15, -1e-15, 1e-12, -1e-12, 1e-9, -1e-9)),
    )
    def test_matches_direct_sum_at_resonances(self, N, mu, L, u, k, sign, offset):
        hbar = mu / N
        g = math.pi * hbar / (2.0 * L)
        assert_matches_direct_sum(N, hbar, L, u * L, sign * (g * k + offset))

    @projection_settings
    @given(**projection_case, v=st.floats(0.0, 3.0))
    def test_exactly_even_in_p(self, N, mu, L, u, v):
        hbar, x, p = mu / N, u * L, v * math.pi * mu / (2.0 * L)
        assert symbol_projection_box(N, hbar, L, x, p) == symbol_projection_box(N, hbar, L, x, -p)

    def test_field_equals_scalar_calls_for_any_block_size(self):
        # p centers 0, +-g, +-2g, ...: every box momentum sits on a
        # resonance; the box field, and the oscillator field as the CLI
        # samples it
        N, mu, L = 13, 1.1, 0.9
        hbar = mu / N
        g = math.pi * hbar / (2.0 * L)
        grid = PhaseGrid(-1.2 * L, 1.2 * L, -9.5 * g, 9.5 * g, 11, 19)
        for name in ("projection", "oscillator"):
            assert_blocks_give_the_bits_of_one_block(name, field_case(N, hbar, L, grid))


class TestLevelSum:
    """The one level sum behind both box closed forms, against its direct
    quotient sum and across its chunkings."""

    @settings(deadline=None, derandomize=True, max_examples=150)
    @given(
        J=st.integers(1, 40), first=st.floats(0.1, 3.0), step=st.floats(0.1, 3.0),
        parity=st.sampled_from((1.0, -1.0)), paired=st.booleans(), seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_direct_sum(self, J, first, step, parity, paired, seed):
        rng = np.random.default_rng(seed)
        levels = first + step * np.arange(J)
        on = levels[rng.integers(0, J, 5)]
        # q at 0, on levels, one ulp either side of them, anywhere up to a
        # spacing past the top level, and beyond it
        q = np.concatenate([
            [0.0], on, np.nextafter(on, np.inf), np.nextafter(on, 0.0),
            rng.uniform(0.0, levels[-1] + step, 6), levels[-1] + step * rng.uniform(1.0, 20.0, 3),
        ])
        if paired:  # A, q and the coefficients per point
            A = rng.uniform(0.0, 60.0, q.size)
        else:  # an x column against a p row
            A, q = rng.uniform(0.0, 60.0, (4, 1)), q[None, :]
        coef = rng.standard_normal((J,) + A.shape)
        got = _level_sum(coef, levels, parity, A, q)
        want = level_sum_direct(coef, levels, parity, A, q)
        # both carry rounding of order eps A m in each phase, and the split
        # divides it by |m - q| >= step / 2 away from the nearest level
        m = levels.reshape(-1, *(1,) * A.ndim)
        bound = np.sum(np.abs(coef) * (1.0 + A * (m + q)) * (1.0 / (m + q) + 2.0 / step), axis=0)
        assert got.shape == np.broadcast_shapes(A.shape, q.shape)
        assert np.all(np.abs(got - want) <= 2e-15 * bound)

    @pytest.mark.parametrize("symbol", [symbol_projection_box, symbol_truncated_momentum_box])
    def test_values_do_not_depend_on_the_chunk_bound(self, monkeypatch, symbol):
        # every cell adds its levels one by one, whether a chunk holds one
        # level (in place), a few (numpy's reduce) or all of them; a grid
        # takes the contraction, so it is compared with the paired call on
        # its cells, which takes the chunks
        N, hbar, L = 37, 1.0 / 37, 1.0
        grid = (np.linspace(-1.1, 1.1, 23)[:, None], np.linspace(-2.2, 2.2, 17)[None, :])
        cells = [a.ravel() for a in np.broadcast_arrays(*grid)]
        paired = (np.linspace(-1.0, 1.0, 50), np.linspace(2.0, -2.0, 50))
        seen = set()
        for chunk in (1, 1000, 5000, 1 << 20):
            monkeypatch.setattr(weyl, "_LEVEL_CHUNK", chunk)
            on_grid = symbol(N, hbar, L, *grid).tobytes()
            assert symbol(N, hbar, L, *cells).tobytes() == on_grid
            seen.add((on_grid, symbol(N, hbar, L, *paired).tobytes()))
        assert len(seen) == 1

    @pytest.mark.parametrize("symbol", [symbol_projection_box, symbol_truncated_momentum_box])
    @pytest.mark.parametrize("N, cells", [(17, 1), (60, 3)])
    def test_grid_contraction_equals_point_calls(self, symbol, N, cells):
        # an x column against a p row sums by the contraction, the paired
        # call on its cells and each point alone by the chunked loop: the
        # same levels in the same order, so the same bits.  p sits on
        # resonances, one ulp either side of them and at +-0.  With
        # _BLOCK_CELLS = cells the 7 x 16 grid goes in blocks of one row and
        # at most 64 cells // N = 3 columns, and a row of points in blocks
        # of at most `cells` points, so one-row, one-column and one-cell
        # blocks all occur
        hbar, L = 1.3 / N, 0.9
        on = math.pi * hbar / (2.0 * L) * np.array([1.0, 2.0, 5.0, -3.0])
        ps = np.concatenate([np.nextafter(on[:1], np.inf), on, np.nextafter(on[1:], np.inf),
                             np.nextafter(on, -np.inf), [0.0, -0.0, 0.37, -1.1]])
        xs = np.array([0.0, -1.0, -0.9, -0.5, 0.2, 0.81, 0.95]) * L
        calls = [(xs[:, None], ps[None, :]), (xs, ps[0]), (xs[0], ps)]
        assert_blocks_give_the_bits_of_one_block(ROUTE[symbol], BlockCase(N, hbar, L, None, calls, (cells,)))

    @pytest.mark.parametrize("symbol", [symbol_projection_box, symbol_truncated_momentum_box])
    @pytest.mark.parametrize("x, p", [
        (np.zeros((3, 0)), 0.5),
        (np.zeros((3, 1)), np.zeros((1, 0))),
        (np.zeros((0, 1)), np.zeros((1, 4))),
        (np.zeros(0), 0.5),
    ])
    def test_empty_axes_give_empty_arrays(self, symbol, x, p):
        # the broadcast shape, empty, as the oscillator gives
        got = symbol(20, 0.05, 1.0, x, p)
        assert got.shape == np.broadcast_shapes(np.shape(x), np.shape(p))
        assert got.shape == symbol_oscillator_projection(20, 0.05, x, p).shape

    def test_chunked_call_matches_point_calls(self):
        # 3e4 paired points take one level per chunk, a point alone all 400
        rng = np.random.default_rng(7)
        x, p = rng.uniform(-1.1, 1.1, 30000), rng.uniform(-2.5, 2.5, 30000)
        tracemalloc.start()
        try:
            vals = symbol_projection_box(400, 1.0 / 400, 1.0, x, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the former per-level loop peaked at 4.6 MB here; one chunk of all
        # 400 levels would hold 96 MB per table
        assert peak < 6e6
        picks = np.arange(0, x.size, 300)
        points = [symbol_projection_box(400, 1.0 / 400, 1.0, x[i], p[i]) for i in picks]
        np.testing.assert_array_equal(vals[picks], points)  # each cell sums in level order

    def test_unit_coefficients_are_skipped_bit_for_bit(self):
        # coef None leaves out the multiplies by 1.0, which change no bits
        rng = np.random.default_rng(3)
        levels = np.arange(1.0, 31.0)
        for A, q in (
            (rng.uniform(0.0, 3.0, 40), rng.uniform(0.0, 35.0, 40)),
            (rng.uniform(0.0, 3.0, (6, 1)), np.concatenate([levels[:5], rng.uniform(0.0, 35.0, 5)])[None, :]),
        ):
            unit = _level_sum(None, levels, 1.0, A, q)
            assert unit.tobytes() == _level_sum(1.0, levels, 1.0, A, q).tobytes()


class TestSinRatio:
    def test_removable_point(self):
        assert _sin_ratio(3.5, 0.0) == 3.5
        np.testing.assert_array_equal(_sin_ratio(np.array([0.0, 2.0]), 0.0), [0.0, 2.0])

    @pytest.mark.parametrize("N", [8000, 12000, 16000])
    def test_plateau_at_large_amplitude(self, N):
        # A = 2 (L - |x|) / hbar = 2N: the resonance quotients here have
        # |d| < 1e-8 A but A d far beyond the range of a Taylor sinc
        assert symbol_projection_box(N, 1.0 / N, 1.0, 0.0, 0.5) == pytest.approx(1.0, abs=1e-3)

    @settings(deadline=None, derandomize=True, max_examples=400)
    @given(
        A=st.floats(1e-2, 1e6),
        log_d=st.floats(-18.0, 1.0),
        sign=st.sampled_from((1.0, -1.0)),
    )
    def test_matches_taylor_and_direct_quotient(self, A, log_d, sign):
        d = sign * 10.0**log_d
        got = float(_sin_ratio(A, d))
        if abs(A * d) < 1e-3:
            assert got == pytest.approx(taylor_sin_ratio(A, d), rel=1e-15, abs=0.0)
        else:
            assert got == pytest.approx(math.sin(A * d) / d, rel=1e-15, abs=0.0)


momentum_settings = settings(deadline=None, derandomize=True, max_examples=60)
momentum_case = dict(
    N=st.integers(1, 64), mu=st.floats(0.5, 2.0), L=st.floats(0.5, 2.0),
    u=st.floats(-1.3, 1.3), v=st.floats(-3.0, 3.0),
)


class TestMomentumSymbolBox:
    @pytest.mark.parametrize("symbol", [symbol_truncated_momentum_box, symbol_projection_box])
    def test_point_chunks_are_bit_identical(self, symbol):
        # `scale._at_points` cuts a paired call, an x column against a p row,
        # x against one p and one x against p into blocks of at most
        # _BLOCK_CELLS points and 64 _BLOCK_CELLS table entries of N per x
        # entry: 16 points (64 * 16 // 60 = 17 by the tables) and 4 points.
        # The 40 x 9 grid goes first, so its points are also called one by one
        paired, grid, *rows = rng_calls(11, 1.1, (500, 500), ((40, 1), (1, 9)), (300, 0.7), (0.4, 300))
        case = BlockCase(60, 1.0 / 60, 1.0, None, [grid, paired, *rows], (16, 4))
        assert_blocks_give_the_bits_of_one_block(ROUTE[symbol], case)

    def test_paired_call_tables_stay_under_the_row_table_bound(self, monkeypatch):
        # one block's tables hold at most 64 _BLOCK_CELLS entries each, and
        # at most five of them are live at once (about four at the peak); in
        # one piece, 1e4 points at N = 400 would hold 32 MB per table
        monkeypatch.setattr(scale, "_BLOCK_CELLS", 1 << 11)
        rng = np.random.default_rng(7)
        x, p = rng.uniform(-1.1, 1.1, 10000), rng.uniform(-2.5, 2.5, 10000)
        tracemalloc.start()
        try:
            vals = symbol_truncated_momentum_box(400, 1.0 / 400, 1.0, x, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * (64 << 11) * 8 + vals.nbytes  # 5.3 MB; 4.3 MB here
        picks = np.arange(0, x.size, 500)
        points = [symbol_truncated_momentum_box(400, 1.0 / 400, 1.0, x[i], p[i]) for i in picks]
        np.testing.assert_array_equal(vals[picks], points)

    @momentum_settings
    @given(**momentum_case)
    def test_matches_double_sum_oracle(self, N, mu, L, u, v):
        # x = u L, p = v P with P = pi mu / 2L, the classical momentum edge
        hbar, x, p = mu / N, u * L, v * math.pi * mu / (2.0 * L)
        got = symbol_truncated_momentum_box(N, hbar, L, x, p)
        assert isinstance(got, float)
        assert abs(got - float(momentum_double_sum(N, hbar, L, x, p))) <= 1e-12

    @momentum_settings
    @given(**momentum_case)
    def test_odd_in_p_property(self, N, mu, L, u, v):
        hbar, x, p = mu / N, u * L, v * math.pi * mu / (2.0 * L)
        plus = symbol_truncated_momentum_box(N, hbar, L, x, p)
        assert abs(symbol_truncated_momentum_box(N, hbar, L, x, -p) + plus) <= 1e-14

    @momentum_settings
    @given(
        N=st.integers(1, 64), mu=st.floats(0.5, 2.0), L=st.floats(0.5, 2.0),
        u=st.floats(1.0, 3.0), sign=st.sampled_from((1.0, -1.0)), v=st.floats(-3.0, 3.0),
    )
    def test_zero_for_x_outside_box(self, N, mu, L, u, sign, v):
        hbar, p = mu / N, v * math.pi * mu / (2.0 * L)
        assert symbol_truncated_momentum_box(N, hbar, L, sign * u * L, p) == 0.0
        assert symbol_truncated_momentum_box(N, hbar, L, sign * L, p) == 0.0

    @momentum_settings
    @given(
        N=st.integers(1, 64), mu=st.floats(0.5, 2.0), L=st.floats(0.5, 2.0),
        u=st.floats(-0.99, 0.99), k=st.integers(0, 130), sign=st.sampled_from((1.0, -1.0)),
    )
    def test_resonant_momenta(self, N, mu, L, u, k, sign):
        # p = hbar pi k / 4L puts p - g_m exactly on the removable point
        hbar, x = mu / N, u * L
        p = sign * math.pi * hbar * k / (4.0 * L)
        got = symbol_truncated_momentum_box(N, hbar, L, x, p)
        assert math.isfinite(got)
        assert abs(got - float(momentum_double_sum(N, hbar, L, x, p))) <= 1e-12

    def test_broadcast_matches_scalar_calls(self):
        xs = np.array([-1.2, -0.7, 0.0, 0.4, 1.1])
        ps = np.array([-2.0, 0.0, 0.3, 1.7])
        case = BlockCase(9, 0.12, 1.1, None, [(xs[:, None], ps[None, :])])
        assert_blocks_give_the_bits_of_one_block("momentum", case)

    def test_odd_in_p(self):
        N, mu, L = 6, 1.0, 1.0
        hbar = mu / N
        rng = np.random.default_rng(21)
        for _ in range(20):
            x = rng.uniform(-L, L)
            p = rng.uniform(0.0, 4.0)
            assert symbol_truncated_momentum_box(N, hbar, L, x, -p) == pytest.approx(
                -symbol_truncated_momentum_box(N, hbar, L, x, p), abs=1e-12
            )

    def test_outside_box_is_zero(self):
        assert symbol_truncated_momentum_box(5, 0.2, 1.0, 1.01, 0.7) == 0.0

    def test_matches_quadrature_oracle(self):
        # the quadrature checks the double-sum oracle, which checks the program
        assert_box_symbols_match_quadrature(6, [(0.3, 1.0, None, None)])


class TestRescaledKernel:
    def test_zero_offset_matches_dirichlet_combination(self):
        N, L = 6, 1.0
        hbar = 1.0 / N
        got = rescaled_kernel_f2(N, hbar, L, 0.0, 0.0)
        want = (math.pi * hbar / (2 * L)) * (2 * N + 1 - dirichlet_kernel(N, math.pi))
        assert got == pytest.approx(want, abs=1e-12)
        # eigenfunction-sum oracle
        basis = EigenBasis(model=Model.BOX, hbar=hbar, box_half_width=L)
        summed = 2 * math.pi * hbar * projection_kernel_sum(basis, N, 0.0, 0.0)
        assert got == pytest.approx(summed, abs=1e-12)

    def test_outside_box_is_zero(self):
        assert rescaled_kernel_f2(5, 0.2, 1.0, 1.5, 0.4) == 0.0

    @settings(max_examples=60, deadline=None)
    @given(
        N=st.integers(1, 400), mu=st.floats(0.5, 2.0), L=st.floats(0.2, 3.0),
        u=st.lists(st.floats(-1.2, 1.2), min_size=1, max_size=6),
        y=st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=7),
    )
    def test_separable_factors_match_the_kernel_and_the_mode_sum(self, N, mu, L, u, y):
        # each Dirichlet factor on its own axis: against the two-point kernel
        # at (x - hbar y/2, x + hbar y/2) and the sum over the sine modes,
        # and exactly 0 wherever either point leaves the box
        hbar = mu / N
        x = L * np.array(u)[:, None]
        y = np.array(y)[None, :]
        got = rescaled_kernel_f2(N, hbar, L, x, y)
        x1, y1 = x - hbar * y / 2.0, x + hbar * y / 2.0
        tol = 1e-12 * (2 * N + 1)
        kernel = 2.0 * math.pi * hbar * box_projection_kernel(N, L, x1, y1)
        np.testing.assert_allclose(got, kernel, rtol=0, atol=tol)
        basis = EigenBasis(model=Model.BOX, hbar=hbar, box_half_width=L)
        mode_sum = 2.0 * math.pi * hbar * projection_kernel_sum(basis, N, x1, y1)
        np.testing.assert_allclose(got, mode_sum, rtol=0, atol=tol)
        outside = (np.abs(x1) > L) | (np.abs(y1) > L)
        assert np.all(got[outside] == 0.0)

    def test_each_factor_takes_its_own_axis(self, monkeypatch):
        # on an (nx, 1) x (1, ny) grid: ny + nx Dirichlet points, not 2 nx ny
        sizes = []

        def counted(N, x):
            sizes.append(np.size(x))
            return dirichlet_kernel(N, x)

        monkeypatch.setattr(weyl, "dirichlet_kernel", counted)
        xs, ys = np.linspace(-0.5, 0.5, 101)[:, None], np.linspace(-4.0, 4.0, 161)[None, :]
        assert rescaled_kernel_f2(100, 0.01, 1.0, xs, ys).shape == (101, 161)
        assert sorted(sizes) == [101, 161]

    def test_return_forms(self):
        assert isinstance(rescaled_kernel_f2(6, 0.1, 1.0, 0.2, 0.3), float)
        assert rescaled_kernel_f2(6, 0.1, 1.0, np.zeros(3), 0.3).shape == (3,)
        assert rescaled_kernel_f2(6, 0.1, 1.0, 0.2, np.zeros((2, 1))).shape == (2, 1)

    @pytest.mark.parametrize("N, hbar, L, message", [
        (0, 0.1, 1.0, "N must be >= 1"),
        (4, 0.1, 0.0, "L must be positive"),
        (4, 0.1, -1.0, "L must be positive"),
        (4, 0.0, 1.0, "hbar must be positive"),
        (4, -0.1, 1.0, "hbar must be positive"),
    ])
    def test_refusals(self, N, hbar, L, message):
        with pytest.raises(ValueError, match=message):
            rescaled_kernel_f2(N, hbar, L, 0.0, 0.0)

    def test_bulk_limit_with_explicit_constant(self):
        from weylsym.limits import bulk_profile_box, bulk_sup_constant

        N, mu, L = 100, 1.0, 1.0
        hbar = mu / N
        x, y = 0.2, 1.3
        got = rescaled_kernel_f2(N, hbar, L, x, y)
        want = bulk_profile_box(mu, L, y)
        C = bulk_sup_constant(mu, L, abs(x), abs(y))
        assert abs(got - want) <= C * hbar


class TestNormIdentityOnGrid:
    @pytest.mark.parametrize("N", [10, 40])
    def test_windowed_norm_plus_tail(self, N):
        # windowed grid norm of the projection symbol + exact tail == 2 pi hbar N
        mu = 1.0
        L = math.sqrt(math.pi / 2.0)
        hbar = mu / N
        grid = PhaseGrid(-1.5 * L, 1.5 * L, -3.0, 3.0, 500, 500)
        fld = projection_symbol_field(N, hbar, L, grid)
        windowed = float(np.sum(fld.values**2)) * grid.dx * grid.dp
        total = 2 * math.pi * hbar * N
        assert windowed <= total * 1.005
        assert windowed >= total * 0.99  # tails hold < 1% of the mass here


def random_box_points(N, seed):
    """50 points (x, p, j, k) of the box [-1, 1]: |x| < 0.95, |p| < 4 and two
    levels up to N, drawn in turn."""
    rng = np.random.default_rng(seed)
    points = []
    for _ in range(50):
        x, p = float(rng.uniform(-0.95, 0.95)), float(rng.uniform(-4.0, 4.0))
        points.append((x, p, int(rng.integers(1, N + 1)), int(rng.integers(1, N + 1))))
    return points


def assert_box_symbols_match_quadrature(N, points):
    """At hbar = 1 / N in the box [-1, 1] and each (x, p, j, k) of the points:
    the projection and momentum symbols within 1e-12 of their direct sums,
    the sums within 1e-8 of the quadrature transform of their kernels, and,
    unless j is None, `assert_rank_one_matches_quadrature` for |u_j><u_k|."""
    hbar, L = 1.0 / N, 1.0
    mat = box_momentum_matrix(N, L, hbar)
    basis = EigenBasis(model=Model.BOX, hbar=hbar, box_half_width=L)
    ke = summed_kernel(basis, N)

    def mom_kernel(xa, ya):
        return truncated_operator_kernel(mat, basis, xa, ya)

    for x, p, j, k in points:
        spec = box_quadrature_spec(hbar, L, x, p, 1.0)
        c_proj = float(projection_direct_sum(N, hbar, L, x, p))
        assert abs(symbol_projection_box(N, hbar, L, x, p) - c_proj) <= 1e-12
        q_proj = symbol_from_kernel(ke, hbar, spec, x, p, y_support=box_y_support(hbar, L, x))
        assert abs(q_proj - c_proj) <= 1e-8
        c_mom = float(momentum_double_sum(N, hbar, L, x, p))
        assert abs(symbol_truncated_momentum_box(N, hbar, L, x, p) - c_mom) <= 1e-12
        q_mom = symbol_from_kernel(mom_kernel, hbar, spec, x, p, y_support=0.0)
        assert abs(q_mom - c_mom) <= 1e-8
        if j is not None:
            assert_rank_one_matches_quadrature(j, k, hbar, L, x, p)


class TestClosedFormsAgainstQuadrature:
    def test_fifty_random_points(self):
        assert_box_symbols_match_quadrature(5, random_box_points(5, 2024))


class TestOscillatorQuadratureSymbol:
    @pytest.mark.parametrize("N", [4, 5, 6, 7])
    def test_origin_parity(self, N):
        # exact, as for every N of TestOscillatorLaguerreSymbol
        hbar = 1.0 / N
        assert symbol_oscillator_projection(N, hbar, 0.0, 0.0) == 1.0 + (-1.0) ** (N + 1)


def oscillator_quadrature_oracle(N, hbar, x, p):
    """Oscillator projection symbol by quadrature of the eigenfunction-sum kernel."""
    ke = summed_kernel(EigenBasis(model=Model.OSCILLATOR, hbar=hbar), N)
    return symbol_from_kernel(ke, hbar, oscillator_quadrature_spec(hbar, N, p), x, p)


coord = st.floats(-2.0, 2.0)
osc_settings = settings(deadline=None, derandomize=True, max_examples=40)


class TestOscillatorLaguerreSymbol:
    @osc_settings
    @given(N=st.integers(1, 24), mu=st.floats(0.5, 2.0), x=coord, p=coord)
    def test_matches_quadrature_oracle(self, N, mu, x, p):
        # the quadrature checks the Laguerre-sum oracle, which checks the program
        hbar = mu / N
        direct = float(oscillator_projection_sum(N, hbar, x, p))
        assert abs(oscillator_quadrature_oracle(N, hbar, x, p) - direct) <= 1e-10
        assert abs(symbol_oscillator_projection(N, hbar, x, p) - direct) <= 1e-12

    @osc_settings
    @given(
        N=st.integers(1, 64), mu=st.floats(0.5, 2.0), r=st.floats(0.0, 2.5),
        theta=st.floats(0.0, 2.0 * math.pi),
    )
    def test_radial(self, N, mu, r, theta):
        hbar = mu / N
        x, p = r * math.cos(theta), r * math.sin(theta)
        val = symbol_oscillator_projection(N, hbar, x, p)
        for xm, pm in ((-x, p), (x, -p), (p, x), (-p, -x)):
            assert symbol_oscillator_projection(N, hbar, xm, pm) == val
        assert val == pytest.approx(symbol_oscillator_projection(N, hbar, r, 0.0), abs=1e-10)

    def test_origin_is_exactly_zero_or_two(self):
        for N in range(1, 301):
            for mu in (0.5, 1.0, 1.7):
                assert symbol_oscillator_projection(N, mu / N, 0.0, 0.0) == (2.0 if N % 2 else 0.0)

    def test_large_rank_far_tail_is_finite(self):
        N = 4096
        hbar = 1.0 / N
        for r in (1.0, 1.5, 3.0, 10.0, 1e200):  # z = 2 r^2 / hbar up to far beyond 4N
            val = symbol_oscillator_projection(N, hbar, r, 0.0)
            assert math.isfinite(val)
            assert abs(val) <= 2.0
        assert symbol_oscillator_projection(N, hbar, 10.0, 0.0) == 0.0
        inside = symbol_oscillator_projection(N, hbar, 0.5, 0.5)  # deep in the disk
        assert inside == pytest.approx(1.0, abs=0.05)

    @osc_settings
    @given(
        N=st.integers(1, 40), mu=st.floats(0.5, 2.0),
        xs=st.lists(coord, min_size=1, max_size=7), ps=st.lists(coord, min_size=1, max_size=5),
    )
    def test_broadcast_is_bit_identical_to_scalar_calls(self, N, mu, xs, ps):
        case = BlockCase(N, mu / N, 1.0, None, [(np.array(xs)[:, None], np.array(ps)[None, :])], ())
        assert_blocks_give_the_bits_of_one_block("oscillator", case)

    @pytest.mark.parametrize("N", [0, -3])
    def test_rejects_rank_below_one(self, N):
        with pytest.raises(ValueError):
            symbol_oscillator_projection(N, 0.1, 0.0, 0.0)


class TestLaguerreFunctions:
    @pytest.mark.parametrize("d", [0, 1, 3])
    def test_yielded_at_true_scale(self, d):
        z = np.array([0.0, 0.5, 7.3, 40.0])
        got = np.array(list(_laguerre_functions(d, z, 30)))
        want = laguerre_direct(d, z, 30)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)

    def test_far_tail_is_exact_zeros(self):
        # z at the 1e9 cap: the exponent, held as int32, sends every l_n to 0
        for ell in _laguerre_functions(2, np.array([1e9, 2.0]), 5):
            assert ell[0] == 0.0 and math.isfinite(ell[1])


# one oscillator point at z = 2 (x^2 + p^2) / hbar = u (2 N + 1): u = 0 is
# the origin, u ~ 1 the disk's edge, u = 3 at N > 370 puts e^{-z/2} below the
# smallest double, and u = 1e300 is capped at z = 1e9
osc_z_scale = st.one_of(st.just(0.0), st.floats(0.0, 3.0), st.just(1e300))
one_point_settings = settings(deadline=None, derandomize=True, max_examples=60)


def osc_pair(N, hbar, u, theta):
    """(x, p) at z = u (2 N + 1) and angle theta, and a second point on the
    other side of the disk's edge."""
    r = math.sqrt(0.5 * hbar * u * (2 * N + 1))
    r2 = math.sqrt(0.5 * hbar * (2 * N + 1) * (0.5 if u > 1 else 2.0))
    return (r * math.cos(theta), r * math.sin(theta)), (r2 * math.sin(theta), -r2 * math.cos(theta))


class TestOnePointRoute:
    """At one point `_laguerre_functions` steps on Python floats, on two or
    more on numpy arrays: every consumer's one-point value is the matching
    element of a two-point call, byte for byte."""

    @one_point_settings
    @given(d=st.integers(0, 6), N=st.integers(1, 500), u=osc_z_scale)
    @example(d=0, N=1, u=0.0)
    @example(d=3, N=2, u=1e300)
    @example(d=0, N=400, u=3.0)
    def test_laguerre_functions(self, d, N, u):
        z = min(u * (2 * N + 1), 1e9)
        one = list(_laguerre_functions(d, np.array([z]), N))
        two = list(_laguerre_functions(d, np.array([z, 0.5 * N]), N))
        assert len(one) == len(two) == N
        assert all(type(a) is float for a in one)
        assert np.array(one).tobytes() == np.array([b[0] for b in two]).tobytes()

    @one_point_settings
    @given(N=st.integers(1, 500), mu=st.floats(0.5, 2.0), u=osc_z_scale, theta=st.floats(0.0, 6.3))
    @example(N=1, mu=1.0, u=0.0, theta=0.0)
    @example(N=2, mu=1.0, u=1e300, theta=1.0)
    @example(N=400, mu=1.0, u=3.0, theta=0.3)
    def test_projection_symbol(self, N, mu, u, theta):
        hbar = mu / N
        (x, p), (x2, p2) = osc_pair(N, hbar, u, theta)
        one = symbol_oscillator_projection(N, hbar, x, p)
        for i, (xs, ps) in enumerate((([x, x2], [p, p2]), ([x2, x], [p2, p]))):
            two = symbol_oscillator_projection(N, hbar, np.array(xs), np.array(ps))
            assert np.float64(one).tobytes() == two[i].tobytes()

    @one_point_settings
    @given(
        kind=st.sampled_from(("diagonal", "ladder", "complex")), N=st.integers(1, 40),
        hbar=st.floats(0.05, 1.0), u=osc_z_scale, theta=st.floats(0.0, 6.3),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(kind="complex", N=1, hbar=1.0, u=0.0, theta=0.0, seed=0)
    @example(kind="ladder", N=2, hbar=0.5, u=1e300, theta=2.0, seed=0)
    def test_operator_symbol(self, kind, N, hbar, u, theta, seed):
        rng = np.random.default_rng(seed)
        if kind == "diagonal":
            m = np.diag(rng.standard_normal(N))
        elif kind == "ladder":
            m = dense_power(matrix_linear_power(rng.uniform(-1, 1), rng.uniform(-1, 1), 3, hbar, N))
        else:
            m = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
        (x, p), (x2, p2) = osc_pair(N, hbar, u, theta)
        one = _oscillator_operator_symbol(m, hbar, np.array([x]), np.array([p]))
        two = _oscillator_operator_symbol(m, hbar, np.array([x, x2]), np.array([p, p2]))
        assert one.tobytes() == two[:1].tobytes()

    @one_point_settings
    @given(N=st.integers(1, 2000), mu=st.floats(0.5, 2.0))
    @example(N=1, mu=1.0)
    @example(N=2, mu=1.0)
    @example(N=371, mu=1.0)
    def test_disk_distance(self, N, mu):
        # the distance's weighted sum of l_k(4N), taken from a two-point recurrence
        total = 0.0
        for k, ell in enumerate(_laguerre_functions(0, np.array([4.0 * N, 1.0]), N)):
            total = total + (-1) ** k * (4 * (N - k) - 2) * ell[0]
        want = 2.0 * math.pi * (mu / N) * float(total)
        assert np.float64(oscillator_disk_distance_sq(N, mu / N)).tobytes() == np.float64(want).tobytes()

    def test_return_forms(self):
        N, hbar = 9, 0.2
        assert type(symbol_oscillator_projection(N, hbar, 0.3, 0.4)) is float
        assert type(symbol_oscillator_projection(N, hbar, np.float64(0.3), 0.4)) is float
        assert type(oscillator_disk_distance_sq(N, hbar)) is float
        for x, p, shape in (
            ([0.3], [0.4], (1,)), ([[0.3]], [[0.4]], (1, 1)), ([[0.3]], 0.4, (1, 1)), (0.3, [0.4], (1,)),
        ):
            got = symbol_oscillator_projection(N, hbar, x, p)
            assert isinstance(got, np.ndarray) and got.shape == shape and got.dtype == float
            assert got.item() == symbol_oscillator_projection(N, hbar, 0.3, 0.4)
        basis = EigenBasis(model=Model.OSCILLATOR, hbar=hbar)
        m = np.eye(N) + 0.5j * np.eye(N, k=1)
        scalar = operator_symbol_complex(basis, m, hbar, 0.3, 0.4)
        assert type(scalar) is complex
        for x, p, shape in (([0.3], [0.4], (1,)), ([[0.3]], [[0.4]], (1, 1))):
            got = operator_symbol_complex(basis, m, hbar, x, p)
            assert isinstance(got, np.ndarray) and got.shape == shape and got.item() == scalar


class TestFields:
    def test_momentum_field_matches_pointwise(self):
        grid = PhaseGrid(-1.2, 1.2, -2.0, 2.0, 8, 6)
        assert_blocks_give_the_bits_of_one_block("momentum", field_case(4, 0.25, 1.0, grid))


_grid = PhaseGrid(-1.2, 1.2, -2.0, 2.0, 4, 3)
BOX_CALLS = {
    "rank_one": lambda hbar, L: rank_one_box_symbol(1, 2, hbar, L, 0.0, 0.0),
    "projection": lambda hbar, L: symbol_projection_box(4, hbar, L, 0.0, 0.0),
    "momentum": lambda hbar, L: symbol_truncated_momentum_box(4, hbar, L, 0.0, 0.0),
    "projection_field": lambda hbar, L: projection_symbol_field(4, hbar, L, _grid),
    "momentum_field": lambda hbar, L: momentum_symbol_field(4, hbar, L, _grid),
    "rescaled_kernel": lambda hbar, L: rescaled_kernel_f2(4, hbar, L, 0.0, 0.0),
}


class TestBoxScaleValidation:
    # hbar <= 0 or L <= 0 once returned a plausible number (-1.97e-32 or 0.0)
    # or died in a ZeroDivisionError
    @pytest.mark.parametrize("call", sorted(BOX_CALLS))
    @pytest.mark.parametrize(
        "hbar,L,name",
        [(-0.1, 1.0, "hbar"), (0.0, 1.0, "hbar"), (math.nan, 1.0, "hbar"),
         (0.1, -1.0, "L"), (0.1, 0.0, "L"), (0.1, math.nan, "L")],
    )
    def test_rejects_nonpositive_scale(self, call, hbar, L, name):
        with pytest.raises(ValueError, match=f"{name} must be positive"):
            BOX_CALLS[call](hbar, L)

    @pytest.mark.parametrize("field", [projection_symbol_field, momentum_symbol_field])
    def test_fields_reject_rank_zero(self, field):
        # N = 0 once gave a projection field of 0.75 at p = 0, as the scalar
        # call refuses
        with pytest.raises(ValueError, match="N must be >= 1"):
            field(0, 0.1, 1.0, _grid)


# every entry point that takes a rank N, an hbar or an L, with the names of
# the arguments it takes; at N = 4.5 the box projection summed 5 levels
# against a Dirichlet kernel of 4.5 and returned 0.379, at L = inf it gave
# nan and at hbar = inf 0.787, and the disk distance at hbar = inf was inf
RANK_SCALE_CALLS = {
    "projection": (lambda N, hbar, L: symbol_projection_box(N, hbar, L, 0.1, 0.2), "N hbar L"),
    "momentum": (lambda N, hbar, L: symbol_truncated_momentum_box(N, hbar, L, 0.1, 0.2), "N hbar L"),
    "projection_field": (lambda N, hbar, L: projection_symbol_field(N, hbar, L, _grid), "N hbar L"),
    "momentum_field": (lambda N, hbar, L: momentum_symbol_field(N, hbar, L, _grid), "N hbar L"),
    "rescaled_kernel": (lambda N, hbar, L: rescaled_kernel_f2(N, hbar, L, 0.0, 0.0), "N hbar L"),
    "box_kernel": (lambda N, hbar, L: box_projection_kernel(N, L, 0.1, 0.2), "N L"),
    "box_distance": (lambda N, hbar, L: box_projection_distance_sq(N, hbar, L), "N hbar L"),
    "momentum_tail": (lambda N, hbar, L: box_momentum_tail_norm_sq(N, L, hbar), "N hbar L"),
    "oscillator": (lambda N, hbar, L: symbol_oscillator_projection(N, hbar, 0.1, 0.2), "N hbar"),
    "disk_distance": (lambda N, hbar, L: oscillator_disk_distance_sq(N, hbar), "N hbar"),
}
BAD_RANK_SCALE = {"N": (4.5, 0.25, 1.0), "hbar": (4, math.inf, 1.0), "L": (4, 0.25, math.inf)}


@pytest.mark.parametrize("call,name", [
    (call, name) for call, (_, names) in sorted(RANK_SCALE_CALLS.items()) for name in names.split()
])
def test_rejects_fractional_rank_and_infinite_scale(call, name):
    with pytest.raises(ValueError, match=f"{name} must be"):
        RANK_SCALE_CALLS[call][0](*BAD_RANK_SCALE[name])


@pytest.mark.parametrize("symbol", [symbol_projection_box, symbol_truncated_momentum_box])
def test_momenta_whose_phases_overflow_give_zero(symbol):
    # at p = 1e308 cos(A q) took an overflowed A q and gave NaN; every
    # quotient sin(A t)/t there is below 1/q, so the symbol is 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p in (1e308, -1e308, sys.float_info.max):
            assert symbol(5, 0.2, 1.0, 0.1, p) == 0.0
        grid = symbol(5, 0.2, 1.0, np.array([[0.1], [1.0]]), np.array([1e308, 0.5]))
    np.testing.assert_array_equal(grid, [[0.0, symbol(5, 0.2, 1.0, 0.1, 0.5)], [0.0, 0.0]])
    # a NaN p raised IndexError, a NaN x gave NaN, or 0 beside p = 0
    for x, p, name in ((0.1, math.nan, "p"), (np.array([0.1, math.nan]), 0.0, "x")):
        with pytest.raises(ValueError, match=f"{name} must be a number"):
            symbol(5, 0.2, 1.0, x, p)


box_settings = settings(deadline=None, derandomize=True, max_examples=40)


class TestBoxWallsAndResonances:
    @box_settings
    @given(
        N=st.integers(1, 64), mu=st.floats(0.5, 2.0), L=st.floats(0.5, 2.0),
        u=st.floats(1.0, 3.0), sign=st.sampled_from((1.0, -1.0)), v=st.floats(-3.0, 3.0),
        j=st.integers(1, 64), k=st.integers(1, 64),
    )
    def test_zero_for_x_outside_box(self, N, mu, L, u, sign, v, j, k):
        hbar, p = mu / N, v * math.pi * mu / (2.0 * L)
        for x in (sign * L, sign * u * L):
            assert symbol_projection_box(N, hbar, L, x, p) == 0.0
            assert rank_one_box_symbol(j, k, hbar, L, x, p) == 0.0

    @box_settings
    @given(
        N=st.integers(1, 8), mu=st.floats(0.5, 2.0), L=st.floats(0.5, 2.0),
        u=st.floats(-0.95, 0.95), k=st.integers(0, 20), sign=st.sampled_from((1.0, -1.0)),
    )
    def test_projection_at_resonant_momenta(self, N, mu, L, u, k, sign):
        # p = hbar pi k / 2L puts m -+ p exactly on the removable point
        hbar, x = mu / N, u * L
        p = sign * math.pi * hbar * k / (2.0 * L)
        got = symbol_projection_box(N, hbar, L, x, p)
        assert math.isfinite(got)
        assert abs(got - float(projection_direct_sum(N, hbar, L, x, p))) <= 1e-12

    @box_settings
    @given(
        j=st.integers(1, 8), k=st.integers(1, 8), mu=st.floats(0.5, 2.0), L=st.floats(0.5, 2.0),
        u=st.floats(-0.95, 0.95), m=st.integers(0, 20), sign=st.sampled_from((1.0, -1.0)),
    )
    def test_rank_one_at_resonant_momenta(self, j, k, mu, L, u, m, sign):
        # p = hbar pi m / 4L hits (pi hbar / 4L)(j -+ k) -+ p = 0 for either
        # parity of j + k; hbar pi m / 2L are the even m
        hbar = mu / max(j, k)
        assert_rank_one_matches_quadrature(j, k, hbar, L, u * L, sign * math.pi * hbar * m / (4.0 * L))

    @box_settings
    @given(
        j=st.integers(1, 8), k=st.integers(1, 8), mu=st.floats(0.5, 2.0), L=st.floats(0.5, 2.0),
        u=st.floats(-0.95, 0.95), v=st.floats(-3.0, 3.0),
    )
    def test_rank_one_matches_quadrature(self, j, k, mu, L, u, v):
        assert_rank_one_matches_quadrature(j, k, mu / max(j, k), L, u * L, v * math.pi * mu / (2.0 * L))
