import math
import tempfile
import tracemalloc
from functools import partial
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weylsym import moyal, scale, weyl
from weylsym.basis import EigenBasis, Model
from weylsym.moyal import FiniteRankOperator
from weylsym.scale import PhaseGrid, SymbolField
from weylsym.weyl import (
    momentum_symbol_field,
    projection_symbol_field,
    symbol_oscillator_projection,
    symbol_projection_box,
    symbol_truncated_momentum_box,
)


def unit_grid(n=50):
    return PhaseGrid(0.0, 1.0, 0.0, 1.0, n, n)


class TestPhaseGrid:
    def test_centers_are_cell_midpoints(self):
        g = PhaseGrid(-1.0, 1.0, 0.0, 4.0, 4, 8)
        assert g.dx == pytest.approx(0.5)
        assert g.dp == pytest.approx(0.5)
        np.testing.assert_allclose(g.x_centers(), [-0.75, -0.25, 0.25, 0.75])
        assert g.p_centers()[0] == pytest.approx(0.25)

    @pytest.mark.parametrize("kwargs", [
        dict(x_min=1.0, x_max=0.0, p_min=0.0, p_max=1.0, nx=4, np=4),
        dict(x_min=0.0, x_max=1.0, p_min=2.0, p_max=1.0, nx=4, np=4),
        dict(x_min=0.0, x_max=1.0, p_min=0.0, p_max=1.0, nx=1, np=4),
        dict(x_min=0.0, x_max=1.0, p_min=0.0, p_max=1.0, nx=4, np=1),
        # a count that is not an integer once built a grid of ceil(count) centers
        dict(x_min=0.0, x_max=1.0, p_min=0.0, p_max=1.0, nx=2.5, np=4),
        dict(x_min=0.0, x_max=1.0, p_min=0.0, p_max=1.0, nx=4, np=float("inf")),
        dict(x_min=0.0, x_max=1.0, p_min=0.0, p_max=1.0, nx=float("nan"), np=4),
        # bounds that are not finite
        dict(x_min=0.0, x_max=float("inf"), p_min=0.0, p_max=1.0, nx=4, np=4),
        dict(x_min=0.0, x_max=1.0, p_min=float("-inf"), p_max=1.0, nx=4, np=4),
        dict(x_min=float("nan"), x_max=1.0, p_min=0.0, p_max=1.0, nx=4, np=4),
        # a span whose cell width overflows
        dict(x_min=-1e308, x_max=1e308, p_min=0.0, p_max=1.0, nx=4, np=3),
        dict(x_min=0.0, x_max=1.0, p_min=-1.5e308, p_max=1.5e308, nx=4, np=3),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            PhaseGrid(**kwargs)

    @pytest.mark.parametrize("count", [4.0, np.float64(4.0), np.int64(4)], ids=["float", "float64", "int64"])
    def test_integer_valued_count_is_taken_as_its_integer(self, count):
        g = PhaseGrid(0.0, 1.0, 0.0, 1.0, count, count)
        assert type(g.nx) is int and type(g.np) is int
        assert g.x_centers().tobytes() == PhaseGrid(0.0, 1.0, 0.0, 1.0, 4, 4).x_centers().tobytes()


class TestSymbolField:
    def test_rejects_nonfinite(self):
        g = unit_grid(4)
        vals = np.zeros((4, 4))
        vals[2, 1] = np.nan
        with pytest.raises(ValueError):
            SymbolField(grid=g, values=vals)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            SymbolField(grid=unit_grid(4), values=np.zeros((4, 5)))

    def test_callers_array_is_copied(self):
        vals = np.arange(16.0).reshape(4, 4)
        f = SymbolField(grid=unit_grid(4), values=vals)
        assert vals.flags.writeable and not f.values.flags.writeable
        assert not np.shares_memory(f.values, vals)
        vals[0, 0] = 99.0
        assert f.values[0, 0] == 0.0

    @pytest.mark.parametrize("cells", [1 << 15, 4])
    def test_sample_spreads_a_result_that_only_broadcasts(self, monkeypatch, cells):
        # at 16 cells the grid is one block, at a block of 4 cells four; a
        # result of shape (nx, 1) or () was refused by the shape check when
        # the whole grid went to fn in one call
        monkeypatch.setattr(scale, "_BLOCK_CELLS", cells)
        g = PhaseGrid(-1.0, 1.0, -1.0, 1.0, 4, 4)
        f = SymbolField.sample(lambda x, p: np.cos(x), g)
        assert f.values.tobytes() == np.repeat(np.cos(g.x_centers())[:, None], 4, axis=1).tobytes()
        assert (SymbolField.sample(lambda x, p: 1.0, g).values == 1.0).all()

    def test_sample_never_freezes_the_array_fn_returns(self):
        # a one-block grid hands fn's own result back; sample copies it
        kept = np.arange(16.0).reshape(4, 4)
        f = SymbolField.sample(lambda x, p: kept, unit_grid(4))
        assert kept.flags.writeable and not np.shares_memory(f.values, kept)
        assert f.values.tobytes() == kept.tobytes()

    @pytest.mark.parametrize("builder", [projection_symbol_field, momentum_symbol_field])
    def test_box_builders_hand_their_array_over(self, monkeypatch, builder):
        sampled, adopted = [], []
        sample, adopt = SymbolField.sample.__func__, SymbolField._adopt.__func__

        def recording_sample(cls, *args, **kwargs):
            sampled.append(sample(cls, *args, **kwargs))
            return sampled[-1]

        def recording_adopt(cls, grid, values):
            adopted.append(values)
            return adopt(cls, grid, values)

        monkeypatch.setattr(SymbolField, "sample", classmethod(recording_sample))
        monkeypatch.setattr(SymbolField, "_adopt", classmethod(recording_adopt))
        f = builder(9, 1.0 / 9, 1.0, PhaseGrid(-1.2, 1.2, -2.0, 2.0, 23, 31))
        # built by SymbolField.sample, which freezes the array it filled in place
        assert f is sampled[0]
        assert f.values is adopted[0]
        assert not f.values.flags.writeable

    def test_momentum_blocks_are_sized_by_its_tables(self, monkeypatch):
        # a tall two-column grid: blocks sized by cells alone held (rows x N)
        # prefix tables of 2 MB each here, and 262 MB each at N = 2000 on
        # 30000 x 2 cells; with at most 64 blocks' worth of table entries
        # per block the peak stays a few tables of that size
        N, grid = 500, PhaseGrid(-1.0, 1.0, -1.0, 1.0, 512, 2)
        whole = momentum_symbol_field(N, 1.0 / N, 1.0, grid).values
        cells = 1 << 10
        monkeypatch.setattr(scale, "_BLOCK_CELLS", cells)
        tracemalloc.start()
        try:
            blocked = momentum_symbol_field(N, 1.0 / N, 1.0, grid).values
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * (64 * cells) * 8
        assert blocked.tobytes() == whole.tobytes()

    @pytest.mark.parametrize("builder", [projection_symbol_field, momentum_symbol_field])
    def test_blocks_are_sized_by_p_side_tables(self, monkeypatch, builder):
        # a wide two-row grid: the contraction's (levels x p) tables of a
        # whole 512-cell row hold 2 MB each here; blocks of columns under 64
        # _BLOCK_CELLS table entries keep the peak a few tables of that size
        N, grid = 500, PhaseGrid(-1.0, 1.0, -1.0, 1.0, 2, 512)
        whole = builder(N, 1.0 / N, 1.0, grid).values
        cells = 1 << 10
        monkeypatch.setattr(scale, "_BLOCK_CELLS", cells)
        tracemalloc.start()
        try:
            blocked = builder(N, 1.0 / N, 1.0, grid).values
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * (64 * cells) * 8
        assert blocked.tobytes() == whole.tobytes()

    @pytest.mark.parametrize("symbol", [symbol_projection_box, symbol_truncated_momentum_box])
    def test_point_calls_are_sized_by_p_side_tables(self, monkeypatch, symbol):
        # an x column against a 20000-long p row: in one piece the (levels x
        # p) tables would hold 64 MB each at N = 400
        N = 400
        x, p = np.array([[-0.5], [0.1], [0.7]]), np.linspace(-3.0, 3.0, 20000)[None, :]
        whole = symbol(N, 1.0 / N, 1.0, x, p)
        cells = 1 << 10
        monkeypatch.setattr(scale, "_BLOCK_CELLS", cells)
        tracemalloc.start()
        try:
            blocked = symbol(N, 1.0 / N, 1.0, x, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * (64 * cells) * 8
        assert blocked.tobytes() == whole.tobytes()

    @pytest.mark.parametrize("bad", [np.zeros((4, 5)), np.full((4, 4), np.inf)])
    def test_handed_over_array_is_checked(self, bad):
        with pytest.raises(ValueError):
            SymbolField._adopt(unit_grid(4), bad)

    def test_csv_format(self, tmp_path):
        g = PhaseGrid(0.0, 1.0, 0.0, 1.0, 2, 2)
        f = SymbolField.sample(lambda x, p: x + 10 * p, g)
        out = tmp_path / "field.csv"
        f.to_csv(out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "x,p,value"
        assert len(lines) == 5
        # x outer ascending, p inner ascending
        first = [float(t) for t in lines[1].split(",")]
        second = [float(t) for t in lines[2].split(",")]
        assert first[0] == second[0] == 0.25
        assert first[1] < second[1]
        # %.17g round-trips doubles exactly
        val = float(lines[1].split(",")[2])
        assert val == f.values[0, 0]

    @pytest.mark.parametrize(
        "grid, values",
        [
            (PhaseGrid(0.0, 1.0, 0.0, 1.0, 2, 2), [[-0.0, 5e-324], [1e300, -1e-300]]),
            (PhaseGrid(-1.3, 1.7, -2.5, 0.5, 3, 4),
             [[0.0, -0.0, 2.2250738585072014e-308, -4.9e-310],
              [1e-300, -1e300, 1.7976931348623157e308, 0.1],
              [1.0 / 3.0, -2.0 / 3.0, 123456789.0, 1e16]]),
        ],
    )
    def test_csv_bytes_match_savetxt(self, tmp_path, grid, values):
        # signed zeros, subnormals and extreme exponents format as savetxt does
        f = SymbolField(grid=grid, values=np.array(values))
        f.to_csv(tmp_path / "field.csv")
        savetxt_oracle(f, tmp_path / "oracle.csv")
        assert (tmp_path / "field.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()

    def test_csv_bytes_match_savetxt_on_a_projection_field(self, tmp_path):
        grid = PhaseGrid(-1.2, 1.2, -2.0, 2.0, 23, 31)
        f = projection_symbol_field(9, 1.0 / 9, 1.0, grid)
        f.to_csv(tmp_path / "field.csv")
        savetxt_oracle(f, tmp_path / "oracle.csv")
        assert (tmp_path / "field.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


class TestCsvDigits:
    """The numpy `%.17g` route of `SymbolField.to_csv` against the savetxt
    oracle, value by value, on the cases that decide its digits."""

    @staticmethod
    def assert_matches_oracle(values, path: Path, cols: int = 4):
        vals = np.asarray(values, dtype=float).ravel()
        vals = np.concatenate([vals, np.zeros(-len(vals) % cols)]).reshape(-1, cols)
        if len(vals) < 2:
            vals = np.vstack([vals, vals])
        f = SymbolField(grid=PhaseGrid(-1.3, 1.7, -2.5, 0.5, len(vals), cols), values=vals)
        f.to_csv(path / "field.csv")
        savetxt_oracle(f, path / "oracle.csv")
        assert (path / "field.csv").read_bytes() == (path / "oracle.csv").read_bytes()

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=24))
    def test_any_finite_doubles(self, values):
        with tempfile.TemporaryDirectory() as tmp:
            self.assert_matches_oracle(values, Path(tmp))

    def test_exact_half_way_cases(self, tmp_path):
        # m / 2^k with m odd and m 5^k of 18 digits ends in ...5 exactly:
        # the 17-digit rounding is a tie, broken to even
        rng = np.random.default_rng(5)
        values = []
        for k in range(2, 26):
            lo, hi = -(-(10**17) // 5**k), min(10**18 // 5**k, 2**53)
            m = rng.integers(lo, hi, 64) | 1
            m = m[(m < hi) & (m * 5**k >= 10**17)]
            values.append(m.astype(float) / 2.0**k)
        values = np.concatenate(values)
        assert len(values) > 1000
        self.assert_matches_oracle(np.concatenate([values, -values]), tmp_path, cols=64)

    def test_neighbours_of_powers_of_ten(self, tmp_path):
        tens = 10.0 ** np.arange(-7, 18)
        values = np.concatenate([np.nextafter(tens, 0.0), tens, np.nextafter(tens, np.inf)])
        self.assert_matches_oracle(np.concatenate([values, -values]), tmp_path, cols=25)

    def test_integers_with_trailing_zeros_and_signed_zeros(self, tmp_path):
        values = [120.0, 1e16, 0.0, -0.0, 100.0, -1200.0, 1e15, 9e16, 10.0, 1.0, -5e3, 0.5]
        self.assert_matches_oracle(values, tmp_path)

    @pytest.mark.parametrize("cells", [1, 4])
    def test_bytes_do_not_depend_on_the_block_size(self, monkeypatch, tmp_path, cells):
        f = projection_symbol_field(9, 1.0 / 9, 1.0, PhaseGrid(-1.2, 1.2, -2.0, 2.0, 23, 31))
        f.to_csv(tmp_path / "whole.csv")
        monkeypatch.setattr(scale, "_BLOCK_CELLS", cells)
        f.to_csv(tmp_path / "blocked.csv")
        savetxt_oracle(f, tmp_path / "oracle.csv")
        assert (tmp_path / "blocked.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()
        assert (tmp_path / "blocked.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


def evaluators(N, hbar, L, m):
    """The five symbol evaluators at points, at rank N (the operators at the
    coefficients m), each with the (module, name) of the function it hands
    to `scale._at_points` and, where it has one, its field."""
    box, osc = EigenBasis(Model.BOX, hbar=hbar, box_half_width=L), EigenBasis(Model.OSCILLATOR, hbar=hbar)
    return {
        "projection": (
            partial(symbol_projection_box, N, hbar, L), (weyl, "_projection_symbol_values"),
            partial(projection_symbol_field, N, hbar, L),
        ),
        "momentum": (
            partial(symbol_truncated_momentum_box, N, hbar, L), (weyl, "_momentum_symbol_values"),
            partial(momentum_symbol_field, N, hbar, L),
        ),
        "oscillator": (
            partial(symbol_oscillator_projection, N, hbar), (weyl, "_oscillator_projection_values"),
            partial(weyl._oscillator_projection_field, N, hbar),
        ),
        "box_operator": (lambda x, p: FiniteRankOperator(box, m).symbol(x, p), (moyal, "_box_operator_symbol"), None),
        "osc_operator": (lambda x, p: FiniteRankOperator(osc, m).symbol(x, p), (moyal, "_oscillator_operator_symbol"), None),
    }


class BlockCase(NamedTuple):
    """Calls (x, p) of every evaluator at rank N in the box [-L, L], the
    operators at the coefficients m, under each patched block size of
    `cells`; a grid also samples the fields."""

    N: int
    hbar: float
    L: float
    m: np.ndarray
    calls: list
    cells: tuple = (16, 1)
    grid: PhaseGrid | None = None


@st.composite
def block_cases(draw):
    """An x column against a p row and both rows against one coordinate,
    with walls, signed zeros, the momenta p = k pi hbar / 4L that put a box
    quotient on its removable point and their ulp neighbours, in blocks of
    one size."""
    N, mu, L = draw(st.integers(1, 40)), draw(st.floats(0.05, 12.0)), draw(st.floats(0.5, 2.0))
    hbar = mu / N
    g = math.pi * hbar / (4.0 * L)
    resonance = st.builds(
        lambda k, side: float(np.nextafter(k * g, side * math.inf)) if side else k * g,
        st.integers(-4 * N - 4, 4 * N + 4), st.sampled_from((-1, 0, 1)),
    )
    x = st.one_of(st.floats(-2.5, 2.5), st.sampled_from((0.0, -0.0, L, -L)))
    xs = np.array(draw(st.lists(x, min_size=1, max_size=7)))
    ps = np.array(draw(st.lists(st.one_of(st.floats(-4.0, 4.0), st.just(-0.0), resonance), min_size=1, max_size=5)))
    size, seed = draw(st.integers(1, 24)), draw(st.integers(0, 2**32 - 1))
    m = np.random.default_rng(seed).uniform(-1.0, 1.0, (size, 2 * size)).view(complex)
    cells = (draw(st.sampled_from((1, 3, 16))),)
    return BlockCase(N, hbar, L, m, [(xs[:, None], ps[None, :]), (xs, ps[0]), (xs[0], ps)], cells)


_N, _L = 12, 1.0
_M = np.random.default_rng(5).standard_normal((_N, 2 * _N)).view(complex)


def rng_calls(seed, x_max, *shapes):
    """Calls whose x and p are uniform in [-x_max, x_max] and [-3, 3] (a
    float shape is that fixed coordinate) from one generator, drawn in turn."""
    rng = np.random.default_rng(seed)
    return [
        tuple(s if isinstance(s, float) else rng.uniform(-b, b, s) for s, b in zip(pair, (x_max, 3.0)))
        for pair in shapes
    ]


def assert_blocks_give_the_bits_of_one_block(name, case):
    """Every call of the evaluator `name` equals the paired call on its
    broadcast cells, and the first one its points called one by one.  Every
    block size gives the bits of the default one, which holds each of these
    calls whole, and refuses shapes that do not broadcast; a field has the
    bits of its grid's call.  BLAS rounds the box operator's matrix products
    by layout: against single points it agrees within 1e-14 of the sum of
    |m|, and its one-point blocks moved values by up to 2.7e-16 of the
    largest, so across blocks it agrees within 1e-15 of that (or of 1)."""
    evaluate, (module, values), field = evaluators(case.N, case.hbar, case.L, case.m)[name]
    if name == "box_operator":
        bound = 1e-14 * np.sum(np.abs(case.m))
        same = lambda got, want: np.max(np.abs(got - want), initial=0.0) <= bound
    else:
        same = lambda got, want: got.tobytes() == want.tobytes()
    whole = [evaluate(x, p) for x, p in case.calls]
    for i, ((x, p), want) in enumerate(zip(case.calls, whole)):
        assert np.shape(want) == np.broadcast_shapes(np.shape(x), np.shape(p))
        cells = [np.ravel(a) for a in np.broadcast_arrays(x, p)]
        assert same(np.ravel(want), evaluate(*cells))
        if i == 0:
            ones = [evaluate(float(a), float(b)) for a, b in zip(*cells)]
            assert all(type(one) is type(ones[0]) in (float, complex) for one in ones)
            assert same(np.ravel(want), np.array(ones))
    blocks = []
    inner = getattr(module, values)
    default = scale._BLOCK_CELLS
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(module, values, lambda *args: blocks.append(1) or inner(*args))
        for cells in (default, *case.cells):
            patch.setattr(scale, "_BLOCK_CELLS", cells)
            for (x, p), want in zip(case.calls, whole):
                blocks.clear()
                got = evaluate(x, p)
                shape = np.broadcast_shapes(np.shape(x), np.shape(p))
                if math.prod(shape) > cells and shape[0] > 1:
                    assert len(blocks) > 1
                assert got.dtype == want.dtype
                if name == "box_operator" and cells != default:
                    assert np.max(np.abs(got - want)) <= 1e-15 * max(np.max(np.abs(want)), 1.0)
                else:
                    assert got.tobytes() == want.tobytes()
            with pytest.raises(ValueError):  # blocks would broadcast where the whole does not
                evaluate(np.zeros(18), np.ones(17))
            if case.grid is not None and field is not None:
                assert field(case.grid).values.tobytes() == whole[0].tobytes()


class TestOneBlockRule:
    """`scale._at_points` cuts every symbol evaluation into blocks by one rule."""

    @pytest.mark.parametrize("name", ["box_operator", "momentum", "osc_operator", "oscillator", "projection"])
    @settings(deadline=None, derandomize=True, max_examples=40)
    @given(case=block_cases())
    # an x column against a p row and paired points; at 16 cells a block is
    # one grid row or 16 points, at one cell one row cut into columns of
    # 64 // levels (5 for N = 12, 2 for the box operator's 2N - 1 = 23) or
    # one point.  The routes' own tests hand their inputs to the same check
    @example(case=BlockCase(_N, 1.0 / _N, _L, _M, rng_calls(2, 1.2, ((7, 1), (1, 9)), (40, 40))))
    def test_blocks_give_the_bits_of_one_block(self, name, case):
        assert_blocks_give_the_bits_of_one_block(name, case)

    @pytest.mark.parametrize("name", ["box_operator", "momentum", "osc_operator", "oscillator", "projection"])
    @pytest.mark.parametrize("bad", ["x", "p"])
    def test_nan_coordinate_is_refused(self, name, bad):
        # the box symbols refused one before; the oscillator symbols and the
        # box operator symbol gave nan with a RuntimeWarning
        evaluate = evaluators(_N, 1.0 / _N, _L, _M)[name][0]
        point = {"x": np.array([0.1, 0.2]), "p": 0.3}
        point[bad] = np.nan if bad == "p" else np.array([0.1, np.nan])
        with pytest.raises(ValueError, match=f"{bad} must be a number, not NaN"):
            evaluate(point["x"], point["p"])

    def test_box_operator_symbol_on_a_grid_stays_within_its_block_tables(self, monkeypatch):
        # tables of 2N - 1 = 127 complex entries per point: one block of the
        # 64 x 64 grid holds 8 rows, 512 points; the whole grid in one piece
        # held 8.3 MB per table
        N = 64
        op = FiniteRankOperator(EigenBasis(Model.BOX, hbar=1.0 / N, box_half_width=1.0),
                                np.random.default_rng(4).standard_normal((N, N)))
        grid = PhaseGrid(-1.2, 1.2, -3.0, 3.0, 64, 64)
        whole = op.symbol(*grid.meshgrid())
        cells = 1 << 10
        monkeypatch.setattr(scale, "_BLOCK_CELLS", cells)
        tracemalloc.start()
        try:
            blocked = op.symbol(*grid.meshgrid())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        table = 64 * cells * 16  # one block's table of complex entries
        assert peak < 8 * table + blocked.nbytes  # 4.4 tables here
        assert np.max(np.abs(blocked - whole)) <= 1e-15 * np.max(np.abs(whole))


def savetxt_oracle(field, path):
    """The CSV layout written through np.savetxt: one (x, p, value) row per
    cell, x outer, p inner, %.17g."""
    g = field.grid
    xs = np.repeat(g.x_centers(), g.np)
    ps = np.tile(g.p_centers(), g.nx)
    data = np.column_stack([xs, ps, field.values.ravel(order="C")])
    np.savetxt(path, data, fmt="%.17g", delimiter=",", header="x,p,value", comments="")

