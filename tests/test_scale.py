import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylsym import scale
from weylsym.scale import PhaseGrid, SymbolField
from weylsym.weyl import (
    momentum_symbol_field,
    projection_symbol_field,
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


def savetxt_oracle(field, path):
    """The CSV layout written through np.savetxt: one (x, p, value) row per
    cell, x outer, p inner, %.17g."""
    g = field.grid
    xs = np.repeat(g.x_centers(), g.np)
    ps = np.tile(g.p_centers(), g.nx)
    data = np.column_stack([xs, ps, field.values.ravel(order="C")])
    np.savetxt(path, data, fmt="%.17g", delimiter=",", header="x,p,value", comments="")

