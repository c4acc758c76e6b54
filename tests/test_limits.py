import cmath
import math

import mpmath
import numpy as np
import pytest
from grid_oracle import rectangle
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from weylsym.limits import (
    _EDGE_P_SWITCH,
    _SI_SWITCH,
    _edge_p_laguerre,
    _edge_p_legendre,
    _si_ci,
    bulk_profile_box,
    bulk_sup_constant,
    edge_profile_p,
    edge_profile_x,
    si,
)
from weylsym.diag import catalan_limit_value
from weylsym.weyl import symbol_projection_box

limit_settings = settings(deadline=None, derandomize=True, max_examples=60)


# --- slow oracles: pi-wide Gauss-Kronrod panels for Si, the direct series for
# the momentum-edge profile -----------------------------------------------------

# Gauss-Kronrod 15/7 on [-1, 1]: Kronrod nodes/weights plus embedded Gauss weights.
_GK_NODES = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769, -0.741531185599394,
    -0.586087235467691, -0.405845151377397, -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691, 0.741531185599394,
    0.864864423359769, 0.949107912342759, 0.991455371120813,
])
_GK_WEIGHTS = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250, 0.140653259715525,
    0.169004726639267, 0.190350578064785, 0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267, 0.140653259715525,
    0.104790010322250, 0.063092092629979, 0.022935322010529,
])
_G7_WEIGHTS = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119, 0.417959183673469,
    0.381830050505119, 0.279705391489277, 0.129484966168870,
])


def _gk_panel(a: float, b: float, depth: int = 0) -> float:
    """Adaptive G7/K15 on one panel of sin(t)/t, t > 0."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    f = np.sin(mid + half * _GK_NODES) / (mid + half * _GK_NODES)
    k15 = half * float(np.sum(_GK_WEIGHTS * f))
    g7 = half * float(np.sum(_G7_WEIGHTS * f[1::2]))
    if abs(k15 - g7) < 1e-14 * (1.0 + abs(k15)) or depth >= 20:
        return k15
    return _gk_panel(a, mid, depth + 1) + _gk_panel(mid, b, depth + 1)


def si_panel_oracle(x: float) -> float:
    """Si(x) for x >= 0 from pi-wide G7/K15 panels of sin(t)/t on [0, x]
    (no panel node sits at t = 0)."""
    total = 0.0
    a = 0.0
    while a < x:
        b = min(a + math.pi, x)
        total += _gk_panel(a, b)
        a = b
    return total


def edge_p_series_oracle(x: float, v: float, L: float, terms: int = 4096) -> float:
    """(1/pi) sum_{j>=0} sin(c (j+v)) / (j+v), c = pi (L - |x|)/L, v > -1, v != 0.

    The first `terms` terms are summed directly.  Cut there, the series is
    only good to its 1/(J sin(c/2)) tail; the tail is added by Euler's
    transformation sum_{m>=0} z^m f(J+m) = sum_k (-z)^k k! / ((1-z)^{k+1}
    (J+v)(J+v+1)...(J+v+k)) with z = e^{ic}, f(j) = 1/(j+v), whose terms
    shrink like (k / (2 J sin(c/2)))^k.
    """
    c = math.pi * (L - abs(x)) / L
    j = np.arange(terms) + v
    head = math.fsum(np.sin(c * j) / j)
    z = cmath.exp(1j * c)
    ratio = -z / (1.0 - z)
    term = 1.0 / (terms + v)
    tail = 0.0
    for k in range(12):
        tail += term
        term *= ratio * (k + 1) / (terms + v + k + 1)
    tail *= cmath.exp(1j * c * (terms + v)) / (1.0 - z)
    return (head + tail.imag) / math.pi


class TestClassicalRegion:
    """The box rectangle that the grid oracle of the L2 distance targets."""

    def test_rectangle_just_outside(self):
        mu = 1.0
        L = math.sqrt(math.pi / 2.0)
        R = rectangle(mu, L)
        p_half = math.pi * mu / (2 * L)
        assert R(0.0, p_half + 0.01) == 0
        assert R(0.0, p_half) == 1
        assert R(L, 0.0) == 1

    def test_indicator_broadcasts(self):
        R = rectangle(1.0, 1.0)
        xs = np.linspace(-2, 2, 9)[:, None]
        ps = np.linspace(-3, 3, 7)[None, :]
        vals = R(xs, ps)
        assert vals.shape == (9, 7)
        assert vals.max() == 1 and vals.min() == 0


def limit_symbol(f, region, x, p):
    """f(x, p) cut off on the region: the macroscopic limit of truncations of f."""
    return f(np.asarray(x, dtype=float), np.asarray(p, dtype=float)) * region(x, p)


class TestLimitSymbol:
    def test_constant_one_is_indicator(self):
        R = rectangle(1.0, 1.0)
        for (x, p) in [(0.0, 0.0), (2.0, 2.0), (0.9, 1.5)]:
            assert limit_symbol(lambda x_, p_: np.ones_like(x_), R, x, p) == R(x, p)

    def test_momentum_cutoff_is_odd(self):
        R = rectangle(1.0, 1.0)
        f = lambda x_, p_: p_
        for p in (0.3, 1.2, 2.0):
            assert limit_symbol(f, R, 0.2, -p) == -limit_symbol(f, R, 0.2, p)

    @pytest.mark.parametrize("n,a,b", [(1, 0.0, 1.0), (2, 1.0, 1.0), (3, 2.0, -1.0)])
    def test_squared_mass_on_disk_matches_catalan(self, n, a, b):
        # polar quadrature of (a x + b p)^{2n} over the disk of radius sqrt(2 mu)
        mu = 1.0
        nr, nt = 400, 1024
        r_edges = np.linspace(0.0, math.sqrt(2 * mu), nr + 1)
        r = 0.5 * (r_edges[1:] + r_edges[:-1])
        dr = r_edges[1] - r_edges[0]
        t = (np.arange(nt) + 0.5) * (2 * math.pi / nt)
        dt = 2 * math.pi / nt
        f = (a * r[:, None] * np.cos(t)[None, :] + b * r[:, None] * np.sin(t)[None, :]) ** (2 * n)
        integral = float(np.sum(f * r[:, None]) * dr * dt)
        assert integral == pytest.approx(catalan_limit_value(n, a, b, mu), rel=1e-4)


class TestBulkProfile:
    def test_peak(self):
        assert bulk_profile_box(1.0, 1.0, 0.0) == pytest.approx(math.pi, rel=1e-15)
        assert bulk_profile_box(2.0, 0.5, 0.0) == pytest.approx(4 * math.pi, rel=1e-15)

    def test_at_unit_offset(self):
        # (pi mu / L) S(pi mu / L) at mu = L = 1: pi * sin(pi/2)/(pi/2) = 2
        assert bulk_profile_box(1.0, 1.0, 1.0) == pytest.approx(2.0, rel=1e-14)

    def test_sup_constant_formula(self):
        # C = (pi/2L)[L/(L - C_U) + (pi mu / 2L) C_V + 1]
        val = bulk_sup_constant(1.0, 1.0, 0.5, 2.0)
        assert val == pytest.approx((math.pi / 2) * (2.0 + math.pi + 1.0), rel=1e-14)
        with pytest.raises(ValueError):
            bulk_sup_constant(1.0, 1.0, 1.0, 2.0)

    @pytest.mark.parametrize("args, message", [
        ((1.0, 0.0, 0.3), "L must be positive and finite"),  # was ZeroDivisionError
        ((1.0, math.nan, 0.3), "L must be positive and finite"),
        ((0.0, 1.0, 0.3), "mu must be positive and finite"),
        ((math.inf, 1.0, 0.3), "mu must be positive and finite"),
        ((1.0, 1.0, math.nan), "y must be finite"),
        ((1.0, 1.0, np.array([0.0, math.inf])), "y must be finite"),
    ])
    def test_refuses_bad_input(self, args, message):
        with pytest.raises(ValueError, match=message):
            bulk_profile_box(*args)


class TestSineIntegral:
    def test_zero(self):
        assert si(0.0) == 0.0

    def test_odd_exact(self):
        for x in (0.3, 2.0, 7.7, 42.0):
            assert si(-x) == -si(x)

    def test_asymptote(self):
        assert abs(si(200.0) - math.pi / 2) <= 0.006

    def test_against_brute_force_trapezoid(self):
        # 1e6-node trapezoid oracle on [0, pi]
        n = 1_000_000
        ts = np.linspace(0.0, math.pi, n + 1)
        f = np.ones_like(ts)
        f[1:] = np.sin(ts[1:]) / ts[1:]
        want = float(np.trapezoid(f, ts))
        assert si(math.pi) == pytest.approx(want, abs=1e-9)
        assert si(math.pi) == pytest.approx(1.851937051982, abs=1e-9)

    @pytest.mark.parametrize("x", [0.5, 3.0, 5.9, 6.1, 9.5, 25.0])
    def test_series_and_panels_agree_with_trapezoid(self, x):
        n = 400_000
        ts = np.linspace(0.0, x, n + 1)
        f = np.ones_like(ts)
        f[1:] = np.sin(ts[1:]) / ts[1:]
        want = float(np.trapezoid(f, ts))
        assert si(x) == pytest.approx(want, abs=1e-9)

    def test_switchover_continuity(self):
        assert si(_SI_SWITCH - 1e-12) == pytest.approx(si(_SI_SWITCH + 1e-12), abs=1e-12)

    @limit_settings
    @given(d=st.floats(0.0, 1e-3))
    def test_continuous_across_switch(self, d):
        # Si(X + d) - Si(X - d) = 2 d sin(X)/X + O(d^3) at the switch X
        X = _SI_SWITCH
        jump = si(X + d) - si(X - d)
        # the series carries ~1e-15 of rounding at the switch (terms up to ~3 cancel)
        assert abs(jump - 2.0 * d * math.sin(X) / X) <= 4e-15 + d**3

    @limit_settings
    @given(x=st.floats(0.0, 1e6))
    def test_odd(self, x):
        assert si(-x) == -si(x)

    @limit_settings
    @given(x=st.floats(6.0, 1000.0))
    def test_matches_panel_oracle(self, x):
        assert abs(si(x) - si_panel_oracle(x)) <= 1e-13

    def test_infinity(self):
        assert si(math.inf) == math.pi / 2
        assert si(-math.inf) == -math.pi / 2

    def test_refuses_nan(self):
        # the continued fraction ran out of steps and raised RuntimeError
        with pytest.raises(ValueError, match="Si needs a number"):
            si(math.nan)

    def test_large_argument_in_one_step(self):
        # Si(x) = pi/2 - cos(x)/x - sin(x)/x^2 + O(x^-3); at 716678418685.5199
        # a continued fraction stopped by |c d - 1| <= 1e-16 never stopped
        # (c d stays at 1 - 2^-53) and raised RuntimeError
        for x in (1e6, 1e9, 716678418685.5199, 1e15):
            want = math.pi / 2 - math.cos(x) / x - math.sin(x) / x**2
            assert abs(si(x) - want) <= 1e-15 + 2.0 / x**3

    def test_broadcasts(self):
        xs = np.array([[-7.5, 0.0], [3.0, 1e12]])
        got = si(xs)
        assert got.shape == (2, 2)
        assert [got[i, j] for i in range(2) for j in range(2)] == [si(v) for v in xs.ravel()]
        assert type(si(3.0)) is float


# x on both branches, on both sides of the switch and up to 1e15
_SI_CI_POINTS = np.concatenate([
    np.geomspace(1e-3, 1e15, 181),
    np.linspace(0.5, 8.0, 31),
    [np.nextafter(_SI_SWITCH, 0.0), _SI_SWITCH, np.nextafter(_SI_SWITCH, 9.0),
     _SI_SWITCH - 1e-6, _SI_SWITCH + 1e-6, 716678418685.5199],
])


class TestSiCi:
    """`_si_ci` against 30-digit mpmath: Si and Ci, and E1(ix) = -Ci + i (Si - pi/2)."""

    def test_against_mpmath(self):
        s, c = _si_ci(_SI_CI_POINTS)
        with mpmath.workdps(30):
            for x, s_x, c_x in zip(_SI_CI_POINTS, s, c):
                e1 = mpmath.e1(1j * mpmath.mpf(x))
                assert abs(-c_x - float(e1.real)) <= 4e-15, x
                assert abs(s_x - 0.5 * math.pi - float(e1.imag)) <= 4e-15, x
                assert abs(s_x - float(mpmath.si(x))) <= 4e-15, x
                assert abs(c_x - float(mpmath.ci(x))) <= 4e-15, x

    def test_ends(self):
        s, c = _si_ci([0.0, math.inf, 1e200, np.finfo(float).max])
        assert list(s) == [0.0, math.pi / 2, math.pi / 2, math.pi / 2]
        assert c[:2].tolist() == [-math.inf, 0.0]
        assert abs(c[2]) <= 1e-200 and abs(c[3]) <= 1e-308

    @limit_settings
    @given(xs=st.lists(st.one_of(st.floats(0.0, 10.0), st.floats(0.0, 1e15)), min_size=1, max_size=12))
    def test_section_equals_its_one_element_calls_bit_for_bit(self, xs):
        s, c = _si_ci(np.array(xs))
        for i, x in enumerate(xs):
            s_1, c_1 = _si_ci(np.array([x]))
            assert s[i].tobytes() == s_1[0].tobytes() and c[i].tobytes() == c_1[0].tobytes()


class TestEdgeProfileX:
    def test_negative_u_is_zero(self):
        assert edge_profile_x(-0.5, 0.3, 1.0, 1.0) == 0.0

    def test_u_zero_is_zero(self):
        assert edge_profile_x(0.0, 0.7, 1.0, 1.0) == 0.0

    def test_matches_finite_rank_symbol(self):
        # sigma_{Pi_N}(L - hbar u, 0) at N = 800 sits within 0.03
        mu, L, N = 1.0, 1.0, 800
        hbar = mu / N
        for u in (0.5, 1.5, 3.0):
            fin = symbol_projection_box(N, hbar, L, L - hbar * u, 0.0)
            lim = edge_profile_x(u, 0.0, mu, L)
            assert abs(fin - lim) <= 0.03

    def test_deep_interior_limit_is_one(self):
        # u -> infinity inside |p| < pi mu / 2L: profile -> 1 like 1/u
        assert edge_profile_x(200.0, 0.0, 1.0, 1.0) == pytest.approx(1.0, abs=0.02)

    @pytest.mark.parametrize("args", [(math.nan, 0.3, 1.0, 1.0), (1.5, math.nan, 1.0, 1.0),
                                      (1.5, 0.3, math.nan, 1.0)])
    def test_refuses_nan(self, args):
        name = ("u", "p", "mu")[[math.isnan(a) for a in args].index(True)]
        with pytest.raises(ValueError, match=f"^{name} must be"):
            edge_profile_x(*args)

    @pytest.mark.parametrize("args, message", [
        ((1.0, 0.3, 1.0, 0.0), "L must be positive and finite"),  # was ZeroDivisionError
        ((1.0, 0.3, 1.0, -1.0), "L must be positive and finite"),  # was -1.1429
        ((1.0, 0.3, -1.0, 1.0), "mu must be positive and finite"),  # was -1.1429
        ((1.0, 0.3, math.inf, 1.0), "mu must be positive and finite"),
        ((1.0, 0.3, 1.0, math.inf), "L must be positive and finite"),
        ((1.0, 0.3, 1.0, math.nan), "L must be positive and finite"),
        ((1.0, math.inf, 1.0, 1.0), "p must be finite"),  # was a math domain error
        ((math.inf, 0.3, 1.0, 1.0), "u must be finite"),
        ((np.array([0.5, -math.inf]), 0.3, 1.0, 1.0), "u must be finite"),
    ])
    def test_refuses_bad_input(self, args, message):
        with pytest.raises(ValueError, match=message):
            edge_profile_x(*args)

    @limit_settings
    @given(
        us=st.lists(st.floats(-1.0, 50.0), min_size=1, max_size=10),
        ps=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=3),
        mu=st.floats(0.1, 4.0), L=st.floats(0.5, 2.0),
    )
    def test_section_equals_its_one_element_calls_bit_for_bit(self, us, ps, mu, L):
        u, p = np.array(us), np.array(ps)[:, None]
        prof = edge_profile_x(u, p, mu, L)
        assert prof.shape == (len(ps), len(us))
        for i, p_i in enumerate(ps):
            for j, u_j in enumerate(us):
                one = edge_profile_x(u_j, p_i, mu, L)
                assert type(one) is float
                assert np.float64(one).tobytes() == prof[i, j].tobytes()

    def test_sinc_factor_continuity_at_p_zero(self):
        below = edge_profile_x(2.0, 1e-6, 1.0, 1.0)
        above = edge_profile_x(2.0, -1e-6, 1.0, 1.0)
        assert below == pytest.approx(above, abs=1e-9)


class TestEdgeProfileP:
    def test_outside_box_is_zero(self):
        assert edge_profile_p(1.2, 0.5, 1.0, 1.0) == 0.0

    def test_at_wall_is_zero(self):
        assert edge_profile_p(1.0, 0.5, 1.0, 1.0) == 0.0
        assert edge_profile_p(-1.0, 0.5, 1.0, 1.0) == 0.0

    @pytest.mark.parametrize("v", [0.0, -1.0, -2.0, -5.0])
    def test_nonpositive_v_matches_finite_symbol(self, v):
        # the integral form is continuous in v; at x = 0 the N = 4000 symbol
        # already agrees to rounding, at x = L/2 the gap closes as O(1/N)
        mu, L = 1.0, 1.0

        def gap(x0, N):
            hbar = mu / N
            p = math.pi * mu / (2 * L) + hbar * math.pi * v / (2 * L)
            return abs(symbol_projection_box(N, hbar, L, x0, p) - edge_profile_p(x0, v, mu, L))

        assert gap(0.0, 4000) <= 1e-12
        coarse, fine = gap(0.5, 1000), gap(0.5, 4000)
        assert fine <= 1e-4
        assert fine == pytest.approx(coarse / 4, rel=0.05)

    @pytest.mark.parametrize("v", [math.nan, math.inf, -math.inf])
    def test_non_finite_v_raises(self, v):
        with pytest.raises(ValueError):
            edge_profile_p(0.0, v, 1.0, 1.0)

    @pytest.mark.parametrize("args, message", [
        ((0.0, 0.5, 1.0, 0.0), "L must be positive and finite"),  # was 0.0
        ((0.0, 0.5, 1.0, -1.0), "L must be positive and finite"),  # was 0.0
        ((0.0, 0.5, 1.0, math.nan), "L must be positive and finite"),  # was nan
        ((0.0, 0.5, 1.0, math.inf), "L must be positive and finite"),
        ((0.0, 0.5, -1.0, 1.0), "mu must be positive and finite"),
        ((0.0, 0.5, math.nan, 1.0), "mu must be positive and finite"),
        ((math.nan, 0.5, 1.0, 1.0), "x must be finite"),  # was nan
        ((math.inf, 0.5, 1.0, 1.0), "x must be finite"),
    ])
    def test_refuses_bad_input(self, args, message):
        with pytest.raises(ValueError, match=message):
            edge_profile_p(*args)

    def test_half_integer_on_edge(self):
        # exactly half the plateau at v = 1/2, x = 0 (alternating series);
        # also the finite-N oracle agreement
        mu, L = 1.0, 1.0
        val = edge_profile_p(0.0, 0.5, mu, L)
        assert 0.0 < val < 1.0
        assert val == pytest.approx(0.5, abs=1e-5)
        N = 1000
        hbar = mu / N
        p = math.pi * mu / (2 * L) + hbar * math.pi * 0.5 / (2 * L)
        fin = symbol_projection_box(N, hbar, L, 0.0, p)
        assert abs(fin - val) <= 0.05

    def test_deep_outside_is_small(self):
        assert abs(edge_profile_p(0.0, 20.0, 1.0, 1.0)) <= 0.1

    def test_near_wall_and_far_v_are_finite(self):
        assert edge_profile_p(0.999, 0.5, 1.0, 1.0) == 0.5
        for x, v in [(0.999999999, 0.7), (0.0, 1e9), (0.3, -1e9), (0.999999999, 1e12)]:
            assert math.isfinite(edge_profile_p(x, v, 1.0, 1.0))

    @limit_settings
    @given(
        x=st.floats(-0.9, 0.9), v=st.floats(-0.99, 40.0).filter(lambda v: v != 0.0),
        L=st.floats(0.5, 2.0),
    )
    def test_agrees_with_series_oracle(self, x, v, L):
        assert abs(edge_profile_p(x * L, v, 1.0, L) - edge_p_series_oracle(x * L, v, L)) <= 1e-12

    @limit_settings
    @given(x=st.floats(-1.0, 1.0), v=st.floats(-1e4, 1e4), L=st.floats(0.5, 2.0))
    def test_reflection(self, x, v, L):
        assume(abs(x * L) < L)
        assert abs(edge_profile_p(x * L, v, 1.0, L) + edge_profile_p(x * L, 1.0 - v, 1.0, L) - 1.0) <= 1e-14

    @limit_settings
    @given(x=st.floats(-1.0, 1.0), L=st.floats(0.5, 2.0))
    def test_exactly_half_at_v_half(self, x, L):
        assume(abs(x * L) < L)
        assert edge_profile_p(x * L, 0.5, 1.0, L) == 0.5

    @limit_settings
    @given(x=st.floats(-2.0, 2.0), v=st.floats(-1e4, 1e4))
    def test_even_in_x(self, x, v):
        assert edge_profile_p(x, v, 1.0, 1.0) == edge_profile_p(-x, v, 1.0, 1.0)

    @limit_settings
    @given(c=st.floats(1e-9, math.pi))
    def test_branches_agree_at_switch(self, c):
        w = _EDGE_P_SWITCH / c
        assert abs(0.5 + _edge_p_legendre(c, w) - _edge_p_laguerre(c, w + 0.5)) <= 1e-14
