import tracemalloc

import numpy as np
import pytest

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
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            PhaseGrid(**kwargs)


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


def savetxt_oracle(field, path):
    """The CSV layout written through np.savetxt: one (x, p, value) row per
    cell, x outer, p inner, %.17g."""
    g = field.grid
    xs = np.repeat(g.x_centers(), g.np)
    ps = np.tile(g.p_centers(), g.nx)
    data = np.column_stack([xs, ps, field.values.ravel(order="C")])
    np.savetxt(path, data, fmt="%.17g", delimiter=",", header="x,p,value", comments="")

