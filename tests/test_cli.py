import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import weylsym.cli
import weylsym.diag
import weylsym.weyl
from weylsym import scale
from weylsym.cli import main
from weylsym.scale import PhaseGrid, SymbolField
from weylsym.weyl import projection_symbol_field, symbol_oscillator_projection, symbol_projection_box


def run(args):
    return main(args)


class TestFieldCommand:
    def test_figure_configuration(self, tmp_path):
        out = tmp_path / "sym.csv"
        code = run([
            "field", "--model", "box", "--N", "40", "--mu", "1",
            "--L", "1.2533141373155", "--grid", "-2:2:400,-2.5:2.5:400",
            "-o", str(out),
        ])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "x,p,value"
        assert len(lines) == 1 + 160_000
        manifest = json.loads((tmp_path / "sym.csv.manifest.json").read_text())
        assert manifest["N"] == 40
        assert manifest["hbar"] == pytest.approx(1.0 / 40)
        assert manifest["grid"]["nx"] == 400
        assert "command_line" in manifest and "version" in manifest

    def test_rejects_zero_rank(self, tmp_path):
        code = run([
            "field", "--model", "box", "--N", "0", "--mu", "1", "--L", "1",
            "--grid", "-1:1:8,-1:1:8", "-o", str(tmp_path / "x.csv"),
        ])
        assert code == 2

    def test_refuses_a_span_whose_cell_width_overflows(self, tmp_path, capsys):
        # 1e308 - (-1e308) overflows: the field once exited 0 with rows of inf
        out = tmp_path / "x.csv"
        code = run(["field", "--N", "4", "--mu", "1", "--L", "1",
                    "--grid", "-1e308:1e308:4,0:1:3", "-o", str(out)])
        assert code == 2
        assert "grid span overflows" in capsys.readouterr().err
        assert not out.exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out in (a, b):
            assert run([
                "field", "--model", "box", "--N", "12", "--mu", "1", "--L", "1",
                "--grid", "-1.5:1.5:50,-3:3:50", "-o", str(out),
            ]) == 0
        assert a.read_bytes() == b.read_bytes()
        ma = (tmp_path / "a.csv.manifest.json").read_text()
        mb = (tmp_path / "b.csv.manifest.json").read_text()
        assert ma.replace("a.csv", "X") == mb.replace("b.csv", "X")

    def test_momentum_observable(self, tmp_path):
        out = tmp_path / "mom.csv"
        assert run([
            "field", "--model", "box", "--observable", "momentum", "--N", "6",
            "--mu", "1", "--L", "1", "--grid", "-1.2:1.2:24,-3:3:24", "-o", str(out),
        ]) == 0
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        assert data.shape == (576, 3)

    def test_json_format(self, tmp_path):
        out = tmp_path / "field.json"
        assert run([
            "field", "--model", "box", "--N", "5", "--mu", "1", "--L", "1",
            "--grid", "-1:1:10,-2:2:12", "--format", "json", "-o", str(out),
        ]) == 0
        payload = json.loads(out.read_text())
        assert len(payload["x"]) == 10 and len(payload["p"]) == 12
        assert len(payload["values"]) == 10 and len(payload["values"][0]) == 12
        from weylsym.weyl import symbol_projection_box

        assert payload["values"][3][4] == symbol_projection_box(
            5, 0.2, 1.0, payload["x"][3], payload["p"][4]
        )

    def test_json_bytes_equal_json_dump(self, tmp_path):
        # the field is encoded by json.dumps (the C encoder) and must keep
        # the bytes that json.dump (the pure-Python one) writes
        out = tmp_path / "field.json"
        assert run([
            "field", "--N", "7", "--mu", "1.1", "--L", "0.9",
            "--grid", "-1.2:1.3:31,-4:3.5:29", "--format", "json", "-o", str(out),
        ]) == 0
        grid = PhaseGrid(-1.2, 1.3, -4.0, 3.5, 31, 29)
        payload = {
            "x": grid.x_centers().tolist(),
            "p": grid.p_centers().tolist(),
            "values": projection_symbol_field(7, 1.1 / 7, 0.9, grid).values.tolist(),
        }
        want = tmp_path / "want.json"
        with open(want, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True)
            fh.write("\n")
        assert out.read_bytes() == want.read_bytes()

    def test_json_writer_holds_one_row(self, tmp_path):
        # the whole document as one string peaked at 4.92 MB for this field
        fld = projection_symbol_field(40, 1.0 / 40, 1.0, PhaseGrid(-1.2, 1.2, -2.0, 2.0, 300, 300))
        tracemalloc.start()
        try:
            weylsym.cli._write_field_json(str(tmp_path / "f.json"), fld)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 500_000
        assert len(json.loads((tmp_path / "f.json").read_text())["values"]) == 300

    def test_bad_grid_spec(self, tmp_path):
        code = run([
            "field", "--model", "box", "--N", "4", "--mu", "1", "--L", "1",
            "--grid", "-1:1:8", "-o", str(tmp_path / "x.csv"),
        ])
        assert code == 2

    def test_io_failure(self, tmp_path):
        code = run([
            "field", "--model", "box", "--N", "4", "--mu", "1", "--L", "1",
            "--grid", "-1:1:8,-1:1:8", "-o", str(tmp_path / "no" / "such" / "dir" / "x.csv"),
        ])
        assert code == 3

    def test_oscillator_projection_field(self, tmp_path):
        # one broadcast call on the grid equals the pointwise calls bit for bit
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run([
                "field", "--model", "osc", "--N", "30", "--mu", "1.3",
                "--grid", "-2.2:2.2:13,-2:2.4:9", "-o", str(out),
            ]) == 0
        assert a.read_bytes() == b.read_bytes()
        lines = a.read_text().strip().splitlines()
        assert lines[0] == "x,p,value"
        assert len(lines) == 1 + 13 * 9
        for line in lines[1:]:
            x, p, value = (float(t) for t in line.split(","))
            assert value == symbol_oscillator_projection(30, 1.3 / 30, x, p)
        manifest = json.loads((tmp_path / "a.csv.manifest.json").read_text())
        assert manifest["model"] == "osc" and manifest["observable"] == "projection"

    def test_oscillator_field_hands_its_array_over(self, tmp_path, monkeypatch):
        sampled = []
        sample = SymbolField.sample.__func__

        def recording(cls, *args, **kwargs):
            sampled.append(sample(cls, *args, **kwargs))
            return sampled[-1]

        monkeypatch.setattr(SymbolField, "sample", classmethod(recording))
        assert run(["field", "--model", "osc", "--N", "8", "--grid", "-1:1:8,-1:1:6",
                    "-o", str(tmp_path / "o.csv")]) == 0
        # filled by SymbolField.sample, which freezes the array in place
        assert len(sampled) == 1
        assert not sampled[0].values.flags.writeable

    def test_oscillator_field_is_built_in_blocks(self, tmp_path):
        # the field and a point call on its grid's meshgrid take the same
        # blocks of `scale._at_points`; one unblocked call on the whole 300^2
        # grid peaked at 7.05 MB, and at 111 MB of VmHWM on 1000^2 against
        # 39 MB for the box field
        grid = PhaseGrid(-2.0, 2.0, -2.0, 2.0, 300, 300)
        builds = (
            (lambda: run(["field", "--model", "osc", "--N", "60", "--grid", "-2:2:300,-2:2:300",
                          "-o", str(tmp_path / "o.csv")]), lambda out: out == 0),
            (lambda: symbol_oscillator_projection(60, 1.0 / 60, *grid.meshgrid()),
             lambda out: np.shape(out) == (300, 300)),
        )
        for build, built in builds:
            tracemalloc.start()
            try:
                out = build()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert built(out)
            # the field, and at most 16 block-sized temporaries
            assert peak < 300 * 300 * 8 + 16 * (1 << 15) * 8

    @pytest.mark.parametrize("model,observable,patched", [
        ("box", "momentum", (weylsym.weyl, "_momentum_symbol_values")),
        ("box", "projection", (weylsym.weyl, "_projection_symbol_values")),
        ("osc", "projection", (weylsym.weyl, "_oscillator_projection_values")),
    ])
    def test_resource_guard_refuses_before_any_symbol(self, tmp_path, monkeypatch, capsys,
                                                      model, observable, patched):
        # every level costs at least one block: 2e6 * 32768 > 2e9, though
        # the grid has four cells (the momentum field took 42.8 s here)
        def no_symbol(*args):
            raise AssertionError("symbol evaluated")

        monkeypatch.setattr(*patched, no_symbol)
        out = tmp_path / "x.csv"
        assert run(["field", "--model", model, "--observable", observable, "--N", "2000000",
                    "--grid", "-0.5:0.5:2,-1:1:2", "-o", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: resource guard exceeded (N * points budget) at N = 2000000\n"
        )
        assert not out.exists()

    def test_thread_variable_changes_nothing(self, tmp_path, monkeypatch):
        # WEYL_THREADS once chose a thread pool, and 0 or soup exited 2; the
        # fields, here of 20 blocks each, come from one serial loop
        def no_thread(self):
            raise AssertionError("thread started")

        monkeypatch.setattr(threading.Thread, "start", no_thread)
        monkeypatch.setattr(scale, "_BLOCK_CELLS", 64)
        for model in ("box", "osc"):
            outputs = []
            for value in (None, "0", "soup", "3"):
                if value is None:
                    monkeypatch.delenv("WEYL_THREADS", raising=False)
                else:
                    monkeypatch.setenv("WEYL_THREADS", value)
                out = tmp_path / f"{model}.csv"
                assert run(["field", "--model", model, "--N", "12", "--grid", "-1.5:1.5:40,-3:3:30",
                            "-o", str(out)]) == 0
                outputs.append(out.read_bytes())
            assert outputs[1:] == outputs[:1] * 3

    def test_oscillator_momentum_field_refused(self, tmp_path, capsys):
        code = run([
            "field", "--model", "osc", "--observable", "momentum", "--N", "8",
            "--grid", "-1:1:8,-1:1:8", "-o", str(tmp_path / "x.csv"),
        ])
        assert code == 2
        assert "momentum field is box-only" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()


class TestSweepCommand:
    def test_unknown_experiment(self, tmp_path):
        assert run(["sweep", "--exp", "no-such", "-o", str(tmp_path / "s")]) == 2

    def test_tridiag_sweep_passes(self, tmp_path):
        prefix = tmp_path / "tri"
        code = run(["sweep", "--exp", "box-tridiag-norm", "--N", "16,64,256", "-o", str(prefix)])
        assert code == 0
        payload = json.loads((tmp_path / "tri.json").read_text())
        assert payload["experiment"] == "box-tridiag-norm"
        assert all(v["passed"] for v in payload["verdicts"])
        assert (tmp_path / "tri.csv").exists()

    def test_tridiag_sweep_takes_the_shared_budget(self, tmp_path, capsys):
        # the sweep holds 2 (N - 1) doubles: the 4096 cap of the dense route
        # is gone, the N * points budget stays
        code = run(["sweep", "--exp", "box-tridiag-norm", "--N", "16,8192", "-o", str(tmp_path / "t")])
        assert code == 0
        rows = json.loads((tmp_path / "t.json").read_text())["rows"]
        assert [r["N"] for r in rows] == [16, 8192]
        code = run(["sweep", "--exp", "box-tridiag-norm", "--N", "16,40000", "-o", str(tmp_path / "u")])
        assert code == 2
        assert capsys.readouterr().err == "error: resource guard exceeded (N * points budget) at N = 40000\n"
        assert not (tmp_path / "u.json").exists()

    def test_failing_verdict_exits_one(self, tmp_path):
        # a momentum-norm sweep with tiny N cannot reach the 5% bound
        prefix = tmp_path / "mom"
        code = run(["sweep", "--exp", "box-momentum-norm", "--N", "2,4", "-o", str(prefix)])
        assert code == 1
        payload = json.loads((tmp_path / "mom.json").read_text())
        assert any(not v["passed"] for v in payload["verdicts"])  # report still written

    def test_momentum_norm_full_config(self, tmp_path):
        prefix = tmp_path / "mn"
        code = run([
            "sweep", "--exp", "box-momentum-norm", "--N", "128,256,512",
            "--mu", "1", "--L", "1", "-o", str(prefix),
        ])
        assert code == 0
        payload = json.loads((tmp_path / "mn.json").read_text())
        rel_rows = [r for r in payload["rows"] if r["metric"] == "rel_err"]
        assert len(rel_rows) == 3
        assert rel_rows[-1]["value"] < 0.05

    @pytest.mark.parametrize("exp", ["box-projection-l2", "osc-disk-l2"])
    def test_l2_guard_refuses_before_quadrature(self, tmp_path, monkeypatch, capsys, exp):
        import weylsym.diag

        def no_distance(*args):
            raise AssertionError("distance computed")

        monkeypatch.setattr(weylsym.diag, "box_projection_distance_sq", no_distance)
        monkeypatch.setattr(weylsym.diag, "oscillator_disk_distance_sq", no_distance)
        code = run(["sweep", "--exp", exp, "--N", "10,300000", "-o", str(tmp_path / "g")])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: resource guard exceeded (N * points budget) at N = 300000\n")
        assert not (tmp_path / "g.json").exists()

    @pytest.mark.parametrize("exp", ["box-projection-l2", "osc-disk-l2"])
    def test_l2_sweeps_reach_thousands_of_levels(self, tmp_path, capsys, exp):
        # both distances are O(N) sums; the box's former panel quadrature
        # alone took ~17 s at N = 5000
        code = run(["sweep", "--exp", exp, "--N", "640,1280,2560,5120", "-o", str(tmp_path / "b")])
        assert code == 0
        rows = json.loads((tmp_path / "b.json").read_text())["rows"]
        assert [r["N"] for r in rows] == [640, 1280, 2560, 5120]
        assert f"{exp}: ratio-band: pass" in capsys.readouterr().out

    def test_moyal_guard_refuses_before_any_field(self, tmp_path, monkeypatch, capsys):
        # N = 202 asks for 202 * 3232 * 3087 > 2e9 cells; N = 8 alone would fit
        import weylsym.diag

        def no_field(*args):
            raise AssertionError("field built")

        monkeypatch.setattr(weylsym.diag, "projection_symbol_field", no_field)
        code = run(["sweep", "--exp", "moyal-idempotency", "--N", "8,202",
                    "-o", str(tmp_path / "m")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: resource guard")
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("exp, patched", [
        ("box-momentum-norm", ("_box_momentum_inner_norm_sq", "box_momentum_tail_norm_sq")),
        ("osc-origin-parity", ("symbol_oscillator_projection",)),
        ("box-edge-x", ("symbol_projection_box",)),
        ("box-edge-p", ("symbol_projection_box",)),
    ])
    def test_guard_refuses_the_largest_n_before_any_work(self, tmp_path, monkeypatch, capsys,
                                                          exp, patched):
        # the momentum norms held 99 MB at N = 131072 and origin parity costs
        # ~17 us per level; the edge sweeps ran N = 250 before refusing
        import weylsym.diag

        def no_work(*args):
            raise AssertionError("work done")

        for name in patched:
            monkeypatch.setattr(weylsym.diag, name, no_work)
        code = run(["sweep", "--exp", exp, "--N", "250,100000000", "-o", str(tmp_path / "g")])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: resource guard exceeded (N * points budget) at N = 100000000\n")
        assert not (tmp_path / "g.json").exists()

    @pytest.mark.parametrize("flag", ["--N", "--n"])
    def test_bad_int_list_names_its_flag(self, tmp_path, capsys, flag):
        code = run(["sweep", "--exp", "osc-catalan", flag, "1,x", "-o", str(tmp_path / "c")])
        assert code == 2
        assert capsys.readouterr().err == f"error: bad {flag} list '1,x'\n"
        assert not (tmp_path / "c.json").exists()

    @pytest.mark.parametrize("exp,flag", [("box-projection-l2", "--N"), ("osc-catalan", "--n")])
    def test_empty_int_list_refused(self, tmp_path, capsys, exp, flag):
        # an empty list once ran the default list and exited 0
        code = run(["sweep", "--exp", exp, flag, "", "-o", str(tmp_path / "c")])
        assert code == 2
        assert capsys.readouterr() == ("", f"error: bad {flag} list ''\n")
        assert not (tmp_path / "c.json").exists()

    def test_moyal_idempotency_below_l_over_pi(self, tmp_path):
        # mu < L / pi: with dp ~ hbar / 2 mu the defect rose 1.50e-5 -> 2.06e-5
        code = run(["sweep", "--exp", "moyal-idempotency", "--mu", "0.3", "-o", str(tmp_path / "m")])
        assert code == 0
        rows = json.loads((tmp_path / "m.json").read_text())["rows"]
        assert rows[-1]["value"] < 0.5 * rows[0]["value"]

    def test_moyal_window_covers_the_symbol_at_large_mu(self, tmp_path):
        # P = 5 pi / 2 lies beyond a fixed [-6, 6] window, where the defect
        # read 7.85 -> 1.62
        code = run(["sweep", "--exp", "moyal-idempotency", "--mu", "5", "-o", str(tmp_path / "m")])
        assert code == 0
        rows = json.loads((tmp_path / "m.json").read_text())["rows"]
        assert [r["N"] for r in rows] == [8, 16]
        assert rows[-1]["value"] < 1e-3

    @pytest.mark.parametrize("flags, message", [
        (["--n", "13"], "error: matrix build refused for n > 12\n"),
        (["--N", "5000"], "error: dimension 5000 exceeds the 4096 cap\n"),
        (["--n", "2,2", "--N", "64,128", "--a", "1"], "error: powers must be strictly increasing\n"),
    ])
    def test_linear_power_refused_before_any_band(self, tmp_path, monkeypatch, capsys, flags, message):
        import weylsym.truncate

        monkeypatch.setattr(weylsym.truncate, "np", None)  # any array built would fail
        code = run(["sweep", "--exp", "osc-catalan", *flags, "-o", str(tmp_path / "c")])
        assert code == 2
        assert capsys.readouterr().err == message
        assert not (tmp_path / "c.json").exists()

    @pytest.mark.parametrize("exp, flags, message", [
        ("osc-catalan", ["--a", "0", "--b", "0"], "error: a and b must not both be 0\n"),
        ("osc-offdiag", ["--a", "0", "--b", "0"], "error: a and b must not both be 0\n"),
        ("osc-catalan", ["--n", "0,1"], "error: osc-catalan needs powers n >= 1\n"),
        ("osc-offdiag", ["--n", "0,1"], "error: osc-offdiag needs powers n >= 1\n"),
    ])
    def test_linear_power_without_a_norm_refused(self, tmp_path, capsys, exp, flags, message):
        code = run(["sweep", "--exp", exp, *flags, "-o", str(tmp_path / "z")])
        assert code == 2
        assert capsys.readouterr().err == message
        assert not (tmp_path / "z.json").exists()

    def test_osc_disk_l2_sweep(self, tmp_path, capsys):
        code = run(["sweep", "--exp", "osc-disk-l2", "--mu", "1.3", "-o", str(tmp_path / "d")])
        assert code == 0
        payload = json.loads((tmp_path / "d.json").read_text())
        assert [r["N"] for r in payload["rows"]] == [10, 20, 40, 80]
        assert payload["model"] == "oscillator"
        assert "osc-disk-l2: ratio-band: pass" in capsys.readouterr().out


class TestEdgeCommand:
    def test_x_edge_rows(self, tmp_path):
        out = tmp_path / "edge.csv"
        code = run([
            "edge", "--kind", "x", "--u", "0:6:121", "--p", "0", "--N", "400",
            "--mu", "1", "--L", "1", "-o", str(out),
        ])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "u,finite_N_value,limit_value,abs_error"
        assert len(lines) == 1 + 121

    def test_x_edge_at_large_u(self, tmp_path):
        # Si at 2u(p -+ P) up to 4e12: a stopping continued fraction ran out
        # of steps on this section
        out = tmp_path / "edge.csv"
        assert run(["edge", "--kind", "x", "--u", "0:1e12:11", "--p", "0.3", "--N", "400",
                    "-o", str(out)]) == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        assert rows.shape == (11, 4) and np.all(np.isfinite(rows))

    @pytest.mark.parametrize("section", [["--kind", "p", "--x", "0", "--v", "0.5"],
                                         ["--kind", "x", "--u", "0:6:121"]])
    def test_resource_guard_refuses_before_any_symbol(self, tmp_path, monkeypatch, capsys,
                                                      section):
        def no_symbol(*args):
            raise AssertionError("symbol evaluated")

        monkeypatch.setattr(weylsym.diag, "symbol_projection_box", no_symbol)
        out = tmp_path / "e.csv"
        assert run(["edge", *section, "--N", "100000000", "-o", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: resource guard exceeded (N * points budget) at N = 100000000\n"
        )
        assert not out.exists()

    def test_p_edge_forbidden_v(self, tmp_path):
        # every finite v has a limit; a non-finite one has none
        for v in ("nan", "inf", "0:inf:5"):
            code = run([
                "edge", "--kind", "p", "--x", "0", "--v", v, "--N", "100",
                "--mu", "1", "--L", "1", "-o", str(tmp_path / "e.csv"),
            ])
            assert code == 2
            assert not (tmp_path / "e.csv").exists()
        # nor does any other non-finite float flag, refused as it is parsed
        out = ["-o", str(tmp_path / "e")]
        for argv in (
            ["edge", "--kind", "p", "--x", "nan", "--v", "0.5", "--N", "100"],
            ["edge", "--kind", "x", "--u", "1", "--L", "inf", "--N", "100"],
            ["edge", "--kind", "x", "--u", "1", "--p", "nan", "--N", "100"],
            ["edge", "--kind", "x", "--u", "1", "--mu", "inf", "--N", "100"],
            ["field", "--N", "4", "--mu", "-inf", "--grid", "-1:1:8,-1:1:8"],
            ["sweep", "--exp", "box-tridiag-norm", "--mu", "inf"],
            ["sweep", "--exp", "osc-catalan", "--a", "nan"],
            ["sweep", "--exp", "osc-catalan", "--b", "inf"],
            ["moyal-check", "--N", "4", "--tol", "nan"],
        ):
            assert run(argv + out) == 2, argv
            assert list(tmp_path.iterdir()) == [], argv

    def test_p_edge_near_wall(self, tmp_path):
        out = tmp_path / "p.csv"
        assert run([
            "edge", "--kind", "p", "--x", "0.999", "--v", "0.5", "--N", "1000", "-o", str(out),
        ]) == 0
        _, _, lim, err = np.loadtxt(out, delimiter=",", skiprows=1)
        assert lim == 0.5
        assert err <= 0.05

    @pytest.mark.parametrize("x, v", [("0.999999999", "0.5"), ("0", "1e9"), ("0.5", "-5:-1:9")])
    def test_p_edge_extreme_sections_are_finite(self, tmp_path, x, v):
        out = tmp_path / "p.csv"
        assert run(["edge", "--kind", "p", "--x", x, "--v", v, "--N", "1000", "-o", str(out)]) == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
        assert np.all(np.isfinite(rows))

    def test_p_edge_accuracy_column(self, tmp_path):
        out = tmp_path / "p.csv"
        code = run([
            "edge", "--kind", "p", "--x", "0", "--v", "0.5", "--N", "1000",
            "--mu", "1", "--L", "1", "-o", str(out),
        ])
        assert code == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
        assert rows.shape[1] == 4
        assert float(np.max(rows[:, 3])) <= 0.05

    def test_missing_section_flag(self, tmp_path):
        assert run([
            "edge", "--kind", "x", "--N", "10", "-o", str(tmp_path / "e.csv"),
        ]) == 2

    @pytest.mark.parametrize("kind", ["x", "p"])
    def test_finite_column_matches_pointwise_calls(self, tmp_path, kind):
        # one broadcast call per section gives the same doubles as one call per point
        out = tmp_path / "e.csv"
        N, mu, L = 60, 1.1, 0.9
        hbar = mu / N
        section = "0:7:29" if kind == "x" else "-0.6:2.4:29"
        assert run([
            "edge", "--kind", kind, f"--{'u' if kind == 'x' else 'v'}", section,
            "--p", "0.3", "--x", "0.2", "--N", str(N), "--mu", str(mu), "--L", str(L),
            "-o", str(out),
        ]) == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
        for c, fin in rows[:, :2]:
            if kind == "x":
                want = symbol_projection_box(N, hbar, L, L - hbar * c, 0.3)
            else:
                want = symbol_projection_box(
                    N, hbar, L, 0.2, math.pi * mu / (2.0 * L) + hbar * math.pi * c / (2.0 * L)
                )
            assert fin == want

    @pytest.mark.parametrize("section, want", [
        (["--kind", "x", "--u", "1e200", "--p", "1e200"], [1e200, 0.0, 0.0, 0.0]),
        (["--kind", "p", "--v", "1e308", "--x", "0.3"], [1e308, 0.0, 0.0, 0.0]),
        (["--kind", "p", "--v", "-1e308", "--x", "0.3"], [-1e308, 0.0, 1.0, 1.0]),
    ])
    def test_overflowing_sections_write_their_limits(self, tmp_path, section, want):
        # u p = 1e400 wrote a NaN limit_value with exit 0; v = 1e308 exited 2
        # on a "math domain error"; the symbol there gave NaN
        out = tmp_path / "e.csv"
        assert run(["edge", *section, "--N", "10", "-o", str(out)]) == 0
        assert np.loadtxt(out, delimiter=",", skiprows=1).tolist() == want


class TestMoyalCheckCommand:
    def test_passes_at_default_tolerance(self, tmp_path):
        out = tmp_path / "moyal.json"
        code = run([
            "moyal-check", "--N", "10", "--mu", "1", "--L", "1",
            "--points", "6", "--seed", "1", "-o", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["passed"] is True
        assert payload["max_rel_err"] <= 0.02
        assert len(payload["points"]) == 6

    def test_default_grid_scales_with_n(self, tmp_path):
        # a fixed 192^2 grid gives 0.0277 here; the 16N x 245 default with
        # cubic rows 0.00097 (0.0086 on the 24N grid with linear rows)
        out = tmp_path / "moyal.json"
        code = run(["moyal-check", "--N", "16", "--seed", "2", "--points", "20", "-o", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["max_rel_err"] <= 0.005

    def test_grid_flag_refused(self, tmp_path, capsys):
        # the grid follows from N, mu and L: this one undersampled the
        # symbol in p and printed FAIL at 0.0947, against 0.0010 by default
        out = tmp_path / "moyal.json"
        code = run(["moyal-check", "--N", "16", "--mu", "0.3", "--grid=-1.5:1.5:384,-6:6:384",
                    "--points", "20", "-o", str(out)])
        assert code == 2
        assert "unrecognized arguments: --grid" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("points", ["0", "-3"])
    def test_no_points_refused(self, tmp_path, capsys, points):
        # with no point checked, the verdict would pass on nothing
        out = tmp_path / "moyal.json"
        assert run(["moyal-check", "--N", "4", "--points", points, "-o", str(out)]) == 2
        assert capsys.readouterr().err == "error: points must be >= 1\n"
        assert not out.exists()

    def test_negative_tolerance_refused(self, tmp_path, capsys):
        # no error is below a negative tolerance: the check could only fail
        out = tmp_path / "moyal.json"
        assert run(["moyal-check", "--N", "4", "--tol", "-1", "-o", str(out)]) == 2
        assert capsys.readouterr() == ("", "error: tol must be >= 0\n")
        assert not out.exists()

    def test_resource_guard_refuses_before_any_field(self, tmp_path, monkeypatch, capsys):
        # the moyal-idempotency guard: the default grid at N = 202 is
        # 202 * 3232 * 3087 > 2e9 cells (N = 201 fits)
        def no_field(*args):
            raise AssertionError("field built")

        message = "error: resource guard exceeded (N * points budget) at N = 202\n"
        monkeypatch.setattr(weylsym.cli, "projection_symbol_field", no_field)
        monkeypatch.setattr(weylsym.diag, "projection_symbol_field", no_field)
        out = tmp_path / "moyal.json"
        assert run(["moyal-check", "--N", "202", "-o", str(out)]) == 2
        assert capsys.readouterr().err == message
        assert not out.exists()
        with pytest.raises(AssertionError, match="field built"):
            run(["moyal-check", "--N", "201", "-o", str(out)])
        code = run(["sweep", "--exp", "moyal-idempotency", "--N", "8,202", "-o", str(tmp_path / "m")])
        assert code == 2
        assert capsys.readouterr().err == message

    @pytest.mark.parametrize("flags", [["--mu", "0.3"], ["--mu", "1", "--L", "4"]])
    def test_default_grid_meets_the_sampling_theorem(self, tmp_path, flags):
        # mu < L / pi: dp ~ hbar / 2 mu undersampled the symbol in p, with
        # max rel err 0.0947 at mu = 0.3 and 0.1645 at L = 4
        out = tmp_path / "moyal.json"
        code = run(["moyal-check", "--N", "16", *flags, "--points", "20", "-o", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["max_rel_err"] <= 0.005

    def test_p_cell_guard_refuses_before_any_field(self, tmp_path, monkeypatch, capsys):
        # at mu = 0.05 the sampling theorem asks for dp <= pi hbar / 4L:
        # 16 * 256 * 4890 cells fit the budget, but the direct product's
        # 4890^2 complex work arrays would take 383 MB each
        def no_field(*args):
            raise AssertionError("field built")

        message = "error: resource guard exceeded (4890 p cells > 4096) at N = 16\n"
        monkeypatch.setattr(weylsym.cli, "projection_symbol_field", no_field)
        monkeypatch.setattr(weylsym.diag, "projection_symbol_field", no_field)
        out = tmp_path / "moyal.json"
        assert run(["moyal-check", "--N", "16", "--mu", "0.05", "-o", str(out)]) == 2
        assert capsys.readouterr().err == message
        assert not out.exists()
        code = run(["sweep", "--exp", "moyal-idempotency", "--mu", "0.05", "-o", str(tmp_path / "m")])
        assert code == 2
        assert capsys.readouterr().err == message
        assert not (tmp_path / "m.json").exists()

    def test_default_grid_scales_with_mu(self, tmp_path):
        # P = 2 pi: a fixed [-6, 6] p window gave max rel err 1.49 here
        out = tmp_path / "moyal.json"
        code = run(["moyal-check", "--N", "16", "--mu", "4", "--points", "20", "-o", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["max_rel_err"] <= 0.02

    def test_resource_guard_counts_the_wider_window(self, tmp_path, monkeypatch, capsys):
        # at mu = 8 the p window is [-8 pi, 8 pi] with 8N cells: N = 251
        # asks for 251 * 4016 * 2008 > 2e9 cells (N = 250 fits)
        def no_field(*args):
            raise AssertionError("field built")

        monkeypatch.setattr(weylsym.cli, "projection_symbol_field", no_field)
        out = tmp_path / "moyal.json"
        assert run(["moyal-check", "--N", "251", "--mu", "8", "-o", str(out)]) == 2
        assert capsys.readouterr().err == "error: resource guard exceeded (N * points budget) at N = 251\n"
        assert not out.exists()
        with pytest.raises(AssertionError, match="field built"):
            run(["moyal-check", "--N", "250", "--mu", "8", "-o", str(out)])

    def test_deterministic_given_seed(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            run(["moyal-check", "--N", "6", "--points", "3", "--seed", "7", "-o", str(out)])
        assert a.read_text().replace("a.json", "o") == b.read_text().replace("b.json", "o")


def assert_cli_import_leaves_unloaded(module):
    code = f"import sys, weylsym.cli; assert {module!r} not in sys.modules, '{module} loaded'"
    env = dict(os.environ, PYTHONPATH=str(Path(weylsym.cli.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_import_leaves_concurrent_futures_unloaded():
    # fields are filled by one serial loop, so nothing the CLI runs needs it
    assert_cli_import_leaves_unloaded("concurrent.futures")


def test_p_edge_runs_leave_numpy_polynomial_unloaded(tmp_path):
    # the p-edge profile's Gauss rules come from their Jacobi matrices by
    # numpy.linalg, on first use, so importing builds neither, and a p-edge
    # section over both branches and the p-edge sweep never import
    # numpy.polynomial
    code = (
        "import sys, numpy\n"
        "if 'numpy.polynomial' in sys.modules: sys.exit(3)\n"
        "from weylsym.cli import main\n"
        "from weylsym.limits import _laguerre48, _legendre32\n"
        "assert _legendre32.cache_info().currsize == _laguerre48.cache_info().currsize == 0\n"
        "assert main(['edge', '--kind', 'p', '--x', '0.3', '--v', '-200:200:9', '--N', '100',"
        " '-o', 'p.csv']) == 0\n"
        "assert main(['sweep', '--exp', 'box-edge-p', '--N', '50,100', '-o', 'sweep']) == 0\n"
        "assert 'numpy.polynomial' not in sys.modules, 'numpy.polynomial loaded'\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(weylsym.cli.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    if proc.returncode == 3:
        pytest.skip("import numpy alone loads numpy.polynomial")
    assert proc.returncode == 0, proc.stderr


def test_import_leaves_numpy_fft_unloaded():
    # numpy loads numpy.fft on first use; moyal_direct reaches it as np.fft,
    # so importing the CLI does not pay for it
    assert_cli_import_leaves_unloaded("numpy.fft")


# runs `main` on each argv of a JSON list in one process and prints, as JSON,
# the exit code, stdout and stderr of the last run
RUN_MAIN_IN_TURN = """
import contextlib, io, json, sys
from weylsym.cli import main
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
print(json.dumps([code, out.getvalue(), err.getvalue()]))
"""


class TestSharedParser:
    """`main` builds its parser once per process; a run after others gives
    what it gives in a fresh process."""

    def test_parser_is_built_once(self, monkeypatch):
        built = []
        build = weylsym.cli.build_parser
        monkeypatch.setattr(weylsym.cli, "build_parser", lambda: built.append(1) or build())
        weylsym.cli._shared_parser.cache_clear()
        assert run(["--version"]) == 0
        assert run(["sweep", "--exp", "nope"]) == 2
        assert built == [1]
        assert build() is not build()  # a caller of build_parser gets its own

    @pytest.mark.parametrize("last", [
        # defaults for every flag the earlier runs set
        ["field", "--model", "osc", "--N", "6", "--grid", "-1:1:5,-1:1:4", "-o", "last.csv"],
        ["edge", "--kind", "p", "--v", "-1:1:3", "--N", "8", "-o", "last.csv"],
        ["sweep", "--exp", "box-projection-l2", "--N", "4,x", "-o", "last"],  # exit 2
    ])
    def test_later_run_matches_a_fresh_process(self, tmp_path, last):
        earlier = [
            ["edge", "--kind", "x", "--u", "0.5", "--p", "0.25", "--N", "8", "--mu", "2", "--L", "1.5",
             "-o", "first.csv"],
            ["field", "--observable", "momentum", "--N", "5", "--mu", "0.5", "--L", "2", "--format",
             "json", "--grid", "-1:1:4,-1:1:4", "-o", "first.json"],
            ["field", "--N"],  # argparse exits 2
        ]
        env = dict(os.environ, PYTHONPATH=str(Path(weylsym.cli.__file__).resolve().parents[1]))
        seen = []
        for name, runs in (("shared", earlier + [last]), ("fresh", [last])):
            cwd = tmp_path / name
            cwd.mkdir()
            proc = subprocess.run([sys.executable, "-c", RUN_MAIN_IN_TURN, json.dumps(runs)], cwd=cwd,
                                  env=env, capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            outputs = {f.name: f.read_bytes() for f in sorted(cwd.glob("last*"))}
            seen.append((json.loads(proc.stdout), outputs))
        assert seen[0] == seen[1]
        assert seen[0][0][0] == (2 if last[0] == "sweep" else 0)


class TestVersionFlag:
    def test_version_exits_zero(self, capsys):
        assert run(["--version"]) == 0
        assert "weylsym" in capsys.readouterr().out
