"""Command-line front end.

Subcommands: `field` renders a symbol on a grid to CSV plus a JSON manifest;
`sweep` runs a registered convergence experiment and writes JSON + CSV
reports; `edge` tabulates a finite-N symbol section against its microscopic
limit profile; `moyal-check` spot-checks the direct star product against the
exact composition route.

Exit codes: 0 success (all verdicts pass), 1 a verdict failed (report still
written), 2 invalid configuration, 3 I/O failure.  Outputs are byte-stable
under re-runs of the same command line: fixed summation orders, fixed seeds,
no timestamps.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import cache

import numpy as np

from . import __version__
from .basis import EigenBasis, Model
from .diag import SweepConfig, default_n_levels, edge_section, run_sweep
from .moyal import FiniteRankOperator, _check_direct_grid, direct_grid
from .moyal import moyal_direct, moyal_via_composition
from .scale import PhaseGrid, SymbolField
from .weyl import _oscillator_projection_field, momentum_symbol_field, projection_symbol_field

_EXIT_OK = 0
_EXIT_VERDICT = 1
_EXIT_CONFIG = 2
_EXIT_IO = 3


def _parse_axis(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"axis spec must be min:max:count, got {text!r}")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ValueError(f"bad axis spec {text!r}: {exc}") from exc
    if n < 2 or not -math.inf < lo < hi < math.inf:
        raise ValueError(f"axis spec needs finite min < max and count >= 2, got {text!r}")
    return lo, hi, n


def _parse_grid(text: str) -> PhaseGrid:
    axes = text.split(",")
    if len(axes) != 2:
        raise ValueError(f"grid spec must be two comma-separated axes, got {text!r}")
    (x0, x1, nx) = _parse_axis(axes[0])
    (p0, p1, npts) = _parse_axis(axes[1])
    return PhaseGrid(x_min=x0, x_max=x1, p_min=p0, p_max=p1, nx=nx, np=npts)


def _parse_int_list(text: str, flag: str) -> tuple[int, ...]:
    """Comma-separated integers for `flag`; `SweepConfig` checks their range."""
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise ValueError(f"bad {flag} list {text!r}") from exc


def _parse_section(text: str) -> np.ndarray:
    """A 1-D coordinate section: either a scalar or min:max:count."""
    if ":" in text:
        lo, hi, n = _parse_axis(text)
        return np.linspace(lo, hi, n)
    try:
        value = float(text)
    except ValueError as exc:
        raise ValueError(f"bad coordinate spec {text!r}") from exc
    if not math.isfinite(value):
        raise ValueError(f"coordinate must be finite, got {text!r}")
    return np.array([value])


def _finite(text: str) -> float:
    """The argparse type of every float flag: a finite float, else exit 2."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _positive(value: float, name: str) -> float:
    if not value > 0:
        raise ValueError(f"{name} must be positive")
    return value


def _write_manifest(path: str, payload: dict) -> None:
    payload = dict(payload)
    payload["version"] = __version__
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _write_field_json(path: str, fld: SymbolField) -> None:
    """json.dump's bytes for {"x", "p", "values"} with sorted keys, plus a newline,
    by one json.dumps (the C encoder) per row: O(one row) memory."""
    grid = fld.grid
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"p": ' + json.dumps(grid.p_centers().tolist()) + ', "values": [')
        for i, row in enumerate(fld.values):
            fh.write((", " if i else "") + json.dumps(row.tolist()))
        fh.write('], "x": ' + json.dumps(grid.x_centers().tolist()) + "}\n")


def _cmd_field(args: argparse.Namespace, argv: list[str]) -> int:
    N = args.N
    if N < 1:
        raise ValueError("N must be >= 1")
    mu = _positive(args.mu, "mu")
    hbar = mu / N
    grid = _parse_grid(args.grid)
    if args.model == "box":
        L = _positive(args.L, "L")
        if args.observable == "projection":
            fld = projection_symbol_field(N, hbar, L, grid)
        else:
            fld = momentum_symbol_field(N, hbar, L, grid)
    elif args.observable == "projection":
        fld = _oscillator_projection_field(N, hbar, grid)
    else:
        raise ValueError("the momentum field is box-only; --model osc renders the projection")
    if args.format == "csv":
        fld.to_csv(args.output)
    else:
        _write_field_json(args.output, fld)
    _write_manifest(
        args.output + ".manifest.json",
        {
            "command_line": argv,
            "model": args.model,
            "observable": args.observable,
            "N": N,
            "mu": mu,
            "hbar": hbar,
            "L": args.L,
            "grid": {
                "x_min": grid.x_min, "x_max": grid.x_max, "nx": grid.nx,
                "p_min": grid.p_min, "p_max": grid.p_max, "np": grid.np,
            },
            "output": args.output,
        },
    )
    return _EXIT_OK


def _cmd_sweep(args: argparse.Namespace, argv: list[str]) -> int:
    name = args.exp
    n_levels = _parse_int_list(args.N, "--N") if args.N is not None else default_n_levels(name)
    powers = _parse_int_list(args.n, "--n") if args.n is not None else (1, 2, 3)
    config = SweepConfig(
        experiment=name,
        n_levels=n_levels,
        mu=_positive(args.mu, "mu"),
        L=_positive(args.L, "L"),
        powers=powers,
        a=args.a,
        b=args.b,
    )
    report = run_sweep(config)
    prefix = args.output
    report.to_json(prefix + ".json")
    report.to_csv(prefix + ".csv")
    _write_manifest(prefix + ".manifest.json", {"command_line": argv, "experiment": name})
    for v in report.verdicts:
        print(f"{name}: {v.name}: {'pass' if v.passed else 'FAIL'} ({v.detail})")
    return _EXIT_OK if report.passed else _EXIT_VERDICT


def _cmd_edge(args: argparse.Namespace, argv: list[str]) -> int:
    N = args.N
    if N < 1:
        raise ValueError("N must be >= 1")
    mu = _positive(args.mu, "mu")
    L = _positive(args.L, "L")
    hbar = mu / N
    if args.kind == "x":
        coord, coords, fixed = "u", _parse_section(args.u), args.p
    else:
        coord, coords, fixed = "v", _parse_section(args.v), args.x
    fins, lims = edge_section(args.kind, N, mu, L, coords, fixed)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(f"{coord},finite_N_value,limit_value,abs_error\n")
        for r in zip(coords, fins, lims, np.abs(fins - lims)):
            fh.write(",".join(f"{v:.17g}" for v in r) + "\n")
    _write_manifest(
        args.output + ".manifest.json",
        {"command_line": argv, "kind": args.kind, "N": N, "mu": mu, "L": L, "hbar": hbar},
    )
    return _EXIT_OK


def _cmd_moyal_check(args: argparse.Namespace, argv: list[str]) -> int:
    N = args.N
    if N < 1:
        raise ValueError("N must be >= 1")
    mu = _positive(args.mu, "mu")
    L = _positive(args.L, "L")
    if args.points < 1:
        raise ValueError("points must be >= 1")
    if args.tol < 0:
        raise ValueError("tol must be >= 0")
    hbar = mu / N
    grid = direct_grid(N, mu, L)
    _check_direct_grid(N, grid)  # the moyal-idempotency guard
    fld = projection_symbol_field(N, hbar, L, grid)
    basis = EigenBasis(Model.BOX, hbar=hbar, box_half_width=L)
    proj = FiniteRankOperator(basis=basis, coeff=np.eye(N, dtype=complex))
    rng = np.random.default_rng(args.seed)
    p_half = math.pi * mu / (2.0 * L)
    points = []
    worst = 0.0
    for _ in range(args.points):
        x0 = float(rng.uniform(-0.5 * L, 0.5 * L))
        p0 = float(rng.uniform(-0.6 * p_half, 0.6 * p_half))
        direct = moyal_direct(fld, fld, hbar, x0, p0)
        comp = moyal_via_composition(proj, proj, hbar, x0, p0)
        err = abs(direct - comp) / max(1.0, abs(comp))
        worst = max(worst, err)
        points.append({"x": x0, "p": p0, "direct": direct, "composition": comp, "rel_err": err})
    passed = worst <= args.tol
    payload = {
        "command_line": argv,
        "N": N,
        "mu": mu,
        "L": L,
        "seed": args.seed,
        "tolerance": args.tol,
        "max_rel_err": worst,
        "passed": passed,
        "points": points,
    }
    _write_manifest(args.output, payload)
    print(f"moyal-check: max rel err {worst:.4g} vs tol {args.tol:g}: {'pass' if passed else 'FAIL'}")
    return _EXIT_OK if passed else _EXIT_VERDICT


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="weylsym",
        description="Phase-space symbols of truncated observables and their semiclassical limits.",
    )
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    f = sub.add_parser("field", help="render a symbol field to CSV + manifest")
    f.add_argument("--model", choices=("box", "osc"), default="box")
    f.add_argument("--observable", choices=("projection", "momentum"), default="projection")
    f.add_argument("--N", type=int, required=True)
    f.add_argument("--mu", type=_finite, default=1.0)
    f.add_argument("--L", type=_finite, default=1.0)
    f.add_argument("--grid", required=True, help="x0:x1:nx,p0:p1:np (cell centers)")
    f.add_argument("--format", choices=("csv", "json"), default="csv")
    f.add_argument("-o", "--output", required=True)

    s = sub.add_parser("sweep", help="run a registered convergence experiment")
    s.add_argument("--exp", required=True)
    s.add_argument("--N", help="comma-separated strictly increasing N list")
    s.add_argument("--n", help="comma-separated observable powers (where applicable)")
    s.add_argument("--mu", type=_finite, default=1.0)
    s.add_argument("--L", type=_finite, default=1.0)
    s.add_argument("--a", type=_finite, default=0.0)
    s.add_argument("--b", type=_finite, default=1.0)
    s.add_argument("-o", "--output", default="sweep", help="output path prefix")

    e = sub.add_parser("edge", help="tabulate a symbol section against its edge profile")
    e.add_argument("--kind", choices=("x", "p"), required=True)
    e.add_argument("--u", help="u section (scalar or min:max:count), kind x")
    e.add_argument("--v", help="v section (scalar or min:max:count), kind p")
    e.add_argument("--p", type=_finite, default=0.0, help="fixed momentum, kind x")
    e.add_argument("--x", type=_finite, default=0.0, help="fixed position, kind p")
    e.add_argument("--N", type=int, required=True)
    e.add_argument("--mu", type=_finite, default=1.0)
    e.add_argument("--L", type=_finite, default=1.0)
    e.add_argument("-o", "--output", required=True)

    m = sub.add_parser("moyal-check", help="direct star product vs exact composition, on -1.5L:1.5L"
                       ":16N,-h:h:np, h = max(6, pi mu / L), np = ceil(8LNh / pi mu)")
    m.add_argument("--N", type=int, default=10)
    m.add_argument("--mu", type=_finite, default=1.0)
    m.add_argument("--L", type=_finite, default=1.0)
    m.add_argument("--points", type=int, default=10)
    m.add_argument("--seed", type=int, default=0)
    m.add_argument("--tol", type=_finite, default=0.02)
    m.add_argument("-o", "--output", default="moyal-check.json")

    return ap


@cache
def _shared_parser() -> argparse.ArgumentParser:
    """`main`'s parser, built once per process: parsing leaves it unchanged,
    so every call shares it, while `build_parser` hands each caller a new one."""
    return build_parser()


# flags whose values legitimately start with a dash (-2:2:400 style); argparse
# would read them as option strings, so they are folded into --flag=value form
_DASH_VALUE_FLAGS = ("--grid", "--u", "--v")


def _fold_dash_values(argv: list[str]) -> list[str]:
    out = []
    skip = False
    for i, tok in enumerate(argv):
        if skip:
            skip = False
            continue
        if tok in _DASH_VALUE_FLAGS and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"{tok}={argv[i + 1]}")
            skip = True
        else:
            out.append(tok)
    return out


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _shared_parser()
    try:
        args = parser.parse_args(_fold_dash_values(argv))
    except SystemExit as exc:
        # argparse exits 2 on bad flags, 0 on --help; pass both through
        return int(exc.code or 0)
    handlers = {
        "field": _cmd_field,
        "sweep": _cmd_sweep,
        "edge": _cmd_edge,
        "moyal-check": _cmd_moyal_check,
    }
    try:
        if args.command == "edge":
            if args.kind == "x" and args.u is None:
                raise ValueError("kind x requires --u")
            if args.kind == "p" and args.v is None:
                raise ValueError("kind p requires --v")
        return handlers[args.command](args, argv)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return _EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
