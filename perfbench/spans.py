"""Spans around the public functions of weylsym, recorded from outside.

`install()` wraps the public functions of the nine modules, and a few
methods, and puts each wrapper under every name that a weylsym module binds
the original to.  Modules bind names at import time (`weyl` imports
`gauss_legendre` from `basis`; `cli` and `diag` import
`projection_symbol_field` from `weyl`), so wrapping only the defining module
would miss most calls.

A span records its name, start, end, parent and the work counts of the
call.  Spans stay in memory; the pass writes them out when it ends.  Self
time is a span's duration minus the time its direct children cover.  The
recorder assumes one thread, which holds while WEYL_THREADS is unset.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter

import numpy as np

MODULES = ("cli", "scale", "basis", "kernel", "weyl", "truncate", "moyal", "limits", "diag")
METHODS = (("scale", "SymbolField", "to_csv"),)


def _band_entries(n: int, N: int) -> int:
    # entries matrix_linear_power fills: |l - k| <= n, l - k + n even
    return sum(
        sum(1 for l in range(max(1, k - n), min(N, k + n) + 1) if (l - k + n) % 2 == 0)
        for k in range(1, N + 1)
    )


def _grid_cells(grid) -> int:
    return grid.nx * grid.np


# Work counts per call, from the bound arguments `a` of the call.
COUNTERS = {
    "scale.SymbolField.to_csv": lambda a: {"rows": _grid_cells(a["self"].grid)},
    "weyl.projection_symbol_field": lambda a: {
        "cells": _grid_cells(a["grid"]), "terms": _grid_cells(a["grid"]) * a["N"]},
    # the momentum double sum runs over the pairs k < j <= N with j + k odd
    "weyl.momentum_symbol_field": lambda a: {
        "cells": _grid_cells(a["grid"]), "terms": _grid_cells(a["grid"]) * (a["N"] ** 2 // 4)},
    "weyl.symbol_from_kernel_complex": lambda a: {"points": 1, "nodes": a["spec"].n_nodes},
    "basis.gauss_legendre": lambda a: {"n": a["n"]},
    "basis.hermite_wavefunctions": lambda a: {"values": a["k_max"] * np.size(a["x"])},
    "truncate.matrix_linear_power": lambda a: {"entries": _band_entries(a["n"], a["N"])},
    # two (M x M)(M x M) products of a real and a complex matrix: 8 M^3 flops
    "moyal.moyal_direct": lambda a: {"flops": 8 * a["sigma1"].grid.np ** 3},
}


def _kernel_mode_name(a) -> str:
    return "kernel.projection_kernel." + a["eval"].mode.name.lower()


NAMERS = {"kernel.projection_kernel": _kernel_mode_name}

# Calls that are part of their caller's work, not separate ones: the momentum
# field evaluates the pointwise closed form on whole row blocks.
FOLD_INTO = {"weyl.symbol_truncated_momentum_box": ("weyl.momentum_symbol_field",)}


class Tracer:
    def __init__(self) -> None:
        # span: [name, start, end, parent index, counts or None]
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        namer = NAMERS.get(name)
        fold = (name,) + FOLD_INTO.get(name, ())
        signature = inspect.signature(fn) if counter or namer else None
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs).arguments if signature else None
            span_name = namer(bound) if namer else name
            # a function calling itself (si on negative arguments) is one call,
            # and a call folded into its caller adds no span of its own
            if stack and spans[stack[-1]][0] in fold + (span_name,):
                return fn(*args, **kwargs)
            span = [span_name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counter is not None:
                span[4] = counter(bound)
            return result

        return wrapper

    def install(self) -> int:
        """Wrap every public function at each of its bound names; returns the
        number of names replaced."""
        import weylsym

        originals = {}
        for short in MODULES:
            mod = sys.modules[f"weylsym.{short}"]
            public = getattr(mod, "__all__", None) or [n for n in vars(mod) if not n.startswith("_")]
            for attr in public:
                fn = getattr(mod, attr, None)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    originals[id(fn)] = (fn, self.wrap(f"{short}.{attr}", fn))
        replaced = 0
        mods = [weylsym] + [sys.modules[f"weylsym.{m}"] for m in MODULES]
        for mod in mods:
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    replaced += 1
        for short, cls_name, meth in METHODS:
            cls = getattr(sys.modules[f"weylsym.{short}"], cls_name)
            setattr(cls, meth, self.wrap(f"{short}.{cls_name}.{meth}", getattr(cls, meth)))
            replaced += 1
        return replaced


# Per-layer metrics: self time over a set of span names, or a sum of counts.
SELF_TIMES = {
    "scale.csv_s": ("scale.SymbolField.to_csv",),
    "scale.pairwise_sum_s": ("scale.pairwise_sum",),
    "weyl.grid_s": ("weyl.projection_symbol_field", "weyl.momentum_symbol_field"),
    "weyl.point_s": ("weyl.symbol_projection_box", "weyl.symbol_truncated_momentum_box",
                     "weyl.symbol_rank_one_box", "weyl.symbol_rank_one_box_complex",
                     "weyl.rescaled_kernel_f2"),
    "weyl.quad_s": ("weyl.symbol_oscillator_projection", "weyl.symbol_from_kernel",
                    "weyl.symbol_from_kernel_complex", "weyl.oscillator_quadrature_spec",
                    "weyl.box_quadrature_spec"),
    "basis.gauss_legendre_s": ("basis.gauss_legendre",),
    "basis.hermite_s": ("basis.hermite_wavefunctions", "basis.eval_hermite_wavefunction"),
    "kernel.sum_s": ("kernel.projection_kernel.sum", "kernel.truncated_operator_kernel"),
    "kernel.closed_s": ("kernel.projection_kernel.closed_form", "kernel.dirichlet_kernel",
                        "kernel.sine_kernel"),
    "limits.si_s": ("limits.si",),
    "limits.edge_x_s": ("limits.edge_profile_x",),
    "limits.edge_p_s": ("limits.edge_profile_p",),
    "truncate.linear_power_s": ("truncate.matrix_linear_power",),
    "truncate.momentum_s": ("truncate.box_momentum_entry", "truncate.box_momentum_matrix"),
    "moyal.direct_s": ("moyal.moyal_direct",),
    "moyal.composition_s": ("moyal.moyal_via_composition", "moyal.moyal_via_composition_complex",
                            "moyal.operator_symbol_complex"),
    "diag.l2_tail_s": ("diag.l2_distance_with_tail",),
    "diag.momentum_tail_s": ("diag.box_momentum_tail_norm_sq",),
}
CALLS = {
    "cli.commands": ("cli.main",),
    "weyl.point_calls": ("weyl.symbol_projection_box", "weyl.symbol_truncated_momentum_box",
                         "weyl.symbol_rank_one_box_complex"),
    "basis.gauss_legendre_calls": ("basis.gauss_legendre",),
    "limits.si_calls": ("limits.si",),
    "limits.edge_p_calls": ("limits.edge_profile_p",),
    "moyal.direct_calls": ("moyal.moyal_direct",),
}
COUNTS = {
    "scale.csv_rows": (("scale.SymbolField.to_csv", "rows"),),
    "weyl.grid_cells": (("weyl.projection_symbol_field", "cells"),
                        ("weyl.momentum_symbol_field", "cells")),
    "weyl.grid_terms": (("weyl.projection_symbol_field", "terms"),
                        ("weyl.momentum_symbol_field", "terms")),
    "weyl.quad_points": (("weyl.symbol_from_kernel_complex", "points"),),
    "weyl.quad_nodes": (("weyl.symbol_from_kernel_complex", "nodes"),),
    "basis.hermite_values": (("basis.hermite_wavefunctions", "values"),),
    "truncate.linear_power_entries": (("truncate.matrix_linear_power", "entries"),),
    "moyal.direct_flops": (("moyal.moyal_direct", "flops"),),
}


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer self times and work counts of one pass."""
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_time: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[tuple[str, str], int] = {}
    legendre_n = set()
    for i, (name, start, end, _, cnt) in enumerate(spans):
        self_time[name] = self_time.get(name, 0.0) + (end - start) - child_time[i]
        calls[name] = calls.get(name, 0) + 1
        for key, val in (cnt or {}).items():
            counts[(name, key)] = counts.get((name, key), 0) + int(val)
        if name == "basis.gauss_legendre" and cnt:
            legendre_n.add(cnt["n"])
    out: dict[str, float] = {}
    for metric, names in SELF_TIMES.items():
        out[metric] = sum(self_time.get(n, 0.0) for n in names)
    for metric, names in CALLS.items():
        out[metric] = sum(calls.get(n, 0) for n in names)
    for metric, keys in COUNTS.items():
        out[metric] = sum(counts.get(k, 0) for k in keys)
    out["basis.gauss_legendre_distinct_n"] = len(legendre_n)
    return out
