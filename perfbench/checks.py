"""Checks of one pass's outputs against the references in references.py.

`check_pass` reads what the pass wrote (CSV, JSON, library-call values) and
compares each value with its reference under a stated tolerance.  Every
comparison is recorded under the name of its reference, so that
`refcheck.py` can print the worst disagreement of each.  The README derives
each tolerance.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

import references as ref

EPS = np.finfo(float).eps
# Oscillator quadrature against the Laguerre form: the sum of n <= 4100 node
# terms of a symbol of size O(1) rounds to ~2 Y eps <= 1e-12; 100x margin.
TOL_OSC = 1e-10
# Paper's bound on the distance of finite-N values to the edge profiles.
EDGE_BOUND = 0.05
# Relative rounding of sums of squares and of short matrix products.
TOL_NORM = 1e-12


def tol_box(observable: str, N: int) -> float:
    """Rounding bound of the box closed forms: T terms of size <= 1 whose sine
    arguments reach N pi, so each carries an error up to ~N pi eps.  T = 3N
    for the projection; for the momentum, N^2 terms with coefficients up to
    N, counted as T = N^3."""
    terms = 3 * N if observable == "projection" else N**3
    return 1e-13 + 4.0 * terms * N * EPS


def tol_si(*args: float) -> float:
    """Bound of the program's Si: each pi-wide panel beyond 6 stops once the
    Kronrod and Gauss estimates agree to 1e-14 (1 + |panel|)."""
    panels = sum(math.ceil(max(0.0, abs(a) - 6.0) / math.pi) + 1 for a in args)
    return 1e-15 + 2e-14 * panels / math.pi


class Checker:
    """Collects comparisons: the worst |got - want| and |got - want| / tol per
    reference, and a message for each one outside its tolerance."""

    def __init__(self) -> None:
        self.worst: dict[str, list] = {}
        self.failures: list[str] = []

    def compare(self, name: str, got: float, want: float, tol: float, what: str) -> None:
        err = abs(got - want)
        w = self.worst.setdefault(name, [0.0, 0.0, 0])
        w[0] = max(w[0], err)
        w[1] = max(w[1], err / tol)
        w[2] += 1
        if not err <= tol:
            self.failures.append(
                f"{name}: {what}: got {got!r}, reference {want!r}, |diff| {err:.3g} > {tol:.3g}")

    def require(self, ok: bool, name: str, what: str) -> None:
        w = self.worst.setdefault(name, [0.0, 0.0, 0])
        w[2] += 1
        if not ok:
            w[1] = max(w[1], math.inf)
            self.failures.append(f"{name}: {what}")


def _flags(argv: list[str]) -> dict[str, str]:
    return {argv[i]: argv[i + 1] for i in range(len(argv) - 1) if argv[i].startswith("-")}


def _axis(text: str) -> np.ndarray:
    lo, hi, n = text.split(":")
    lo, hi, n = float(lo), float(hi), int(n)
    return lo + (np.arange(n) + 0.5) * ((hi - lo) / n)


def _section(text: str) -> np.ndarray:
    if ":" not in text:
        return np.array([float(text)])
    lo, hi, n = text.split(":")
    return np.linspace(float(lo), float(hi), int(n))


def _json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _sweep(chk: Checker, d: str, op: dict) -> dict:
    rep = _json(os.path.join(d, op["outputs"][0]))
    for v in rep["verdicts"]:
        chk.require(v["passed"], "sweep-verdicts", f"{rep['experiment']}: {v['name']} ({v['detail']})")
    return rep


def _rows(rep: dict, metric: str) -> list[tuple[int, float]]:
    return [(r["N"], r["value"]) for r in rep["rows"] if r["metric"] == metric]


# --- box-grid -----------------------------------------------------------------


def _check_field(chk: Checker, d: str, op: dict, rng: np.random.Generator) -> None:
    f = _flags(op["argv"])
    N, mu, L = int(f["--N"]), float(f["--mu"]), float(f["--L"])
    observable = f.get("--observable", "projection")
    xg, pg = (_axis(t) for t in f["--grid"].split(","))
    path = os.path.join(d, f["-o"])
    if f.get("--format") == "json":
        data = _json(path)
        xs, ps = np.array(data["x"]), np.array(data["p"])
        vals = np.array(data["values"], dtype=float)
    else:
        table = np.loadtxt(path, delimiter=",", skiprows=1)
        xs, ps = table[:: pg.size, 0], table[: pg.size, 1]
        vals = table[:, 2].reshape(xg.size, pg.size)
        chk.require(np.array_equal(table[:, 0], np.repeat(xs, pg.size))
                    and np.array_equal(table[:, 1], np.tile(ps, xg.size)),
                    "field-layout", f"{op['name']}: rows are x outer, p inner")
    chk.require(vals.shape == (xg.size, pg.size), "field-layout", f"{op['name']}: shape {vals.shape}")
    chk.compare("field-layout", float(np.max(np.abs(xs - xg))), 0.0, 1e-12, f"{op['name']}: x centers")
    chk.compare("field-layout", float(np.max(np.abs(ps - pg))), 0.0, 1e-12, f"{op['name']}: p centers")
    outside = np.abs(xs) > L
    chk.require(bool(np.all(vals[outside] == 0.0)), "box-zero-outside",
                f"{op['name']}: nonzero value at |x| > L")
    hbar = mu / N
    # mirror cells p_j = -p_{n-1-j} up to the rounding of the centers
    sign = 1.0 if observable == "projection" else -1.0
    parity = float(np.max(np.abs(vals - sign * vals[:, ::-1])))
    chk.compare("box-parity-in-p", parity, 0.0, 1e-10, f"{op['name']}: {observable} parity")
    inside = np.flatnonzero(~outside)
    for i, j in zip(rng.choice(inside, 12), rng.integers(0, pg.size, 12)):
        want = ref.box_symbol(observable, N, hbar, L, float(xs[i]), float(ps[j]))
        chk.compare(f"box-symbol-{observable}", float(vals[i, j]), want, tol_box(observable, N),
                    f"{op['name']} at x={xs[i]:.6g}, p={ps[j]:.6g}")


def _check_l2(chk: Checker, d: str, op: dict) -> None:
    f = _flags(op["argv"])
    mu, L = float(f["--mu"]), float(f["--L"])
    rep = _sweep(chk, d, op)
    # the sweep's default window and grid: [-1.5L, 1.5L] x [-3, 3], 800 x 800
    dx, dp = 3.0 * L / 800, 6.0 / 800
    P = math.pi * mu / (2.0 * L)
    bound = 2.0 * P * dx + 2.0 * L * dp
    for N, value in _rows(rep, "distance_sq"):
        chk.compare("box-l2-distance", value, ref.box_projection_l2(N, mu, L), bound,
                    f"distance_sq at N={N}")


def _check_moyal(chk: Checker, d: str, op: dict) -> None:
    rep = _sweep(chk, d, op)
    vals = [v for _, v in _rows(rep, "idempotency_defect_sq")]
    chk.require(len(vals) > 0 and all(math.isfinite(v) and v >= 0 for v in vals),
                "sweep-verdicts", "moyal-idempotency rows")


# --- box-point ----------------------------------------------------------------


def _check_edge(chk: Checker, d: str, op: dict, rng: np.random.Generator) -> None:
    f = _flags(op["argv"])
    N, mu, L = int(f["--N"]), float(f.get("--mu", 1.0)), float(f.get("--L", 1.0))
    hbar = mu / N
    table = np.loadtxt(os.path.join(d, f["-o"]), delimiter=",", skiprows=1, ndmin=2)
    coord, fin, lim, err = table.T
    kind = f["--kind"]
    expect = _section(f["--u"] if kind == "x" else f["--v"])
    chk.require(np.array_equal(coord, expect), "edge-layout", f"{op['name']}: section coordinates")
    chk.require(np.array_equal(err, np.abs(fin - lim)), "edge-layout", f"{op['name']}: abs_error column")
    P = math.pi * mu / (2.0 * L)
    tol_p = float(f.get("--tol", 1e-6)) / (2.0 * L) + 1e-9
    for c, lv in zip(coord, lim):
        if kind == "x":
            p0 = float(f.get("--p", 0.0))
            chk.compare("edge-x-limit", lv, ref.edge_limit_x(c, p0, mu, L),
                        tol_si(2 * c * (p0 + P), 2 * c * (p0 - P)), f"{op['name']} at u={c:.6g}")
        else:
            chk.compare("edge-p-limit", lv, ref.edge_limit_p(float(f["--x"]), c, mu, L), tol_p,
                        f"{op['name']} at v={c:.6g}")
    for i in sorted(rng.choice(coord.size, min(coord.size, 6), replace=False)):
        if kind == "x":
            x, p = L - hbar * coord[i], float(f.get("--p", 0.0))
        else:
            x, p = float(f["--x"]), P + hbar * math.pi * coord[i] / (2.0 * L)
        chk.compare("box-symbol-projection", fin[i], ref.box_symbol("projection", N, hbar, L, x, p),
                    tol_box("projection", N), f"{op['name']} finite_N_value at {coord[i]:.6g}")
    if op.get("near_edge"):
        chk.compare("edge-finite-N", float(np.max(err)), 0.0, EDGE_BOUND,
                    f"{op['name']}: largest |finite N - limit|")


def _check_limit_sweep(chk: Checker, d: str, op: dict) -> None:
    f = _flags(op["argv"])
    mu, L = float(f["--mu"]), float(f["--L"])
    rep = _sweep(chk, d, op)
    exp = rep["experiment"]
    P = math.pi * mu / (2.0 * L)
    if exp == "box-edge-x":
        us = np.linspace(0.0, 6.0, 121)
        for N, value in _rows(rep, "max_abs_err"):
            hbar = mu / N
            worst = max(
                abs(ref.box_symbol("projection", N, hbar, L, L - hbar * u, p0) - ref.edge_limit_x(u, p0, mu, L))
                for p0 in (0.0, P / 2.0) for u in us)
            chk.compare("edge-x-sweep", value, worst, tol_box("projection", N) + tol_si(12 * P, 6 * P),
                        f"max_abs_err at N={N}")
    elif exp == "box-edge-p":
        prof = {(x0, v): ref.edge_limit_p(x0, v, mu, L) for x0 in (0.0, 0.5 * L) for v in (0.25, 0.5, 1.5)}
        for N, value in _rows(rep, "max_abs_err"):
            if N > 1000:  # mode sums at N = 4000 cost seconds a point; the verdicts cover it
                continue
            hbar = mu / N
            worst = max(
                abs(ref.box_symbol("projection", N, hbar, L, x0, P + hbar * math.pi * v / (2 * L)) - pv)
                for (x0, v), pv in prof.items())
            chk.compare("edge-p-sweep", value, worst, tol_box("projection", N) + 1e-6 / (2 * L) + 1e-9,
                        f"max_abs_err at N={N}")
    elif exp == "box-bulk-sup":
        xs = np.linspace(-0.5 * L, 0.5 * L, 101)[:, None]
        ys = np.linspace(-4.0, 4.0, 161)[None, :]
        bounds = dict(_rows(rep, "bound"))
        for N, value in _rows(rep, "sup_err"):
            sup = float(np.max(np.abs(ref.rescaled_kernel(N, mu, L, xs, ys) - ref.sine_profile(mu, L, ys))))
            chk.compare("bulk-sup", value, sup, 1e-11, f"sup_err at N={N}")
            chk.require(value <= bounds[N], "bulk-sup", f"sup_err {value} above C hbar {bounds[N]} at N={N}")
    elif exp == "box-tridiag-norm":
        for N, value in _rows(rep, "hs_norm_sq"):
            want = math.pi * (mu / N) * (N - 1) / L
            chk.compare("tridiag-norm", value, want, TOL_NORM * want, f"hs_norm_sq at N={N}")
    elif exp == "box-momentum-norm":
        limit = math.pi**3 * mu**3 / (6.0 * L**2)
        rels = dict(_rows(rep, "rel_err"))
        tails = dict(_rows(rep, "offdiag_norm_sq"))
        for N, value in _rows(rep, "hs_norm_sq"):
            inner, tail = ref.box_momentum_norms(N, mu, L)
            chk.compare("momentum-norm", value, inner, TOL_NORM * inner, f"hs_norm_sq at N={N}")
            chk.compare("momentum-norm", rels[N], abs(inner - limit) / limit, TOL_NORM, f"rel_err at N={N}")
            chk.compare("momentum-norm", tails[N], tail, TOL_NORM * tail, f"offdiag_norm_sq at N={N}")


# --- osc ----------------------------------------------------------------------


def _check_osc_sweep(chk: Checker, d: str, op: dict) -> None:
    f = _flags(op["argv"])
    mu = float(f["--mu"])
    a, b = float(f.get("--a", 0.0)), float(f.get("--b", 1.0))
    rep = _sweep(chk, d, op)
    exp = rep["experiment"]
    if exp == "osc-catalan":
        for r in rep["rows"]:
            n, N = int(r["metric"].rsplit("n", 1)[1]), r["N"]
            limit = 2.0 * math.pi * mu ** (n + 1) * ((a * a + b * b) / 2.0) ** n * math.comb(2 * n, n) / (n + 1)
            want = abs(ref.linear_power_norm(a, b, n, mu, N) - limit) / limit
            chk.compare("linear-power", r["value"], want, TOL_NORM, f"{r['metric']} at N={N}")
    elif exp == "osc-offdiag":
        for r in rep["rows"]:
            n, N = int(r["metric"].rsplit("n", 1)[1]), r["N"]
            want = ref.linear_power_offdiag(a, b, n, mu, N)
            chk.compare("linear-power", r["value"], want, TOL_NORM * want, f"{r['metric']} at N={N}")
    else:  # origin parity: the reference values at the origin are exactly 0 or 2
        for N, dev in _rows(rep, "origin_parity_dev"):
            want = ref.oscillator_symbol(N, mu / N, 0.0, 0.0)
            chk.require(want in (0.0, 2.0), "osc-symbol", f"Laguerre origin value {want} at N={N}")
            chk.compare("osc-symbol", dev, 0.0, TOL_OSC, f"origin deviation at N={N}")


def check_pass(plan: dict, d: str, record: dict) -> Checker:
    """Check the outputs of one pass in directory `d` with its record."""
    chk = Checker()
    rng = np.random.default_rng([plan["seed"], 7919])
    for op, res in zip(plan["ops"], record["ops"]):
        if res["error"]:
            continue
        for out in op.get("outputs", ()):
            chk.require(os.path.isfile(os.path.join(d, out)), "outputs", f"{op['name']}: {out} missing")
        stage = op["stage"]
        if op["kind"] == "osc":
            N = op["N"]
            for (x, p), got in zip(op["points"], record["values"][op["name"]]):
                chk.compare("osc-symbol", got, ref.oscillator_symbol(N, op["mu"] / N, x, p), TOL_OSC,
                            f"{op['name']} at x={x:.6g}, p={p:.6g}")
        elif op["kind"] == "composition":
            # P_N^2 = P_N: the star square is the projection symbol itself
            N = op["N"]
            for (x, p), got in zip(op["points"], record["values"][op["name"]]):
                want = ref.box_symbol("projection", N, op["mu"] / N, op["L"], x, p)
                chk.compare("moyal-star-square", got, want, tol_box("projection", N),
                            f"{op['name']} at x={x:.6g}, p={p:.6g}")
        elif stage == "field":
            _check_field(chk, d, op, rng)
        elif stage == "l2_sweep":
            _check_l2(chk, d, op)
        elif stage == "moyal":
            _check_moyal(chk, d, op)
        elif stage == "edge":
            _check_edge(chk, d, op, rng)
        elif stage == "limit_sweeps":
            _check_limit_sweep(chk, d, op)
        elif stage == "osc_sweeps":
            _check_osc_sweep(chk, d, op)
    return chk
