import cmath
import math
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from weylsym.limits import (
    _EDGE_P_SWITCH,
    _SI_SWITCH,
    _edge_p_laguerre,
    _edge_p_legendre,
    _laguerre48,
    _legendre32,
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


# --- slow oracles: 30-digit mpmath for Si, Ci and the hard-wall profile, the
# direct series for the momentum-edge profile, numpy.polynomial for its two
# Gauss rules ------------------------------------------------------------------


def numpy_gauss_rules() -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """32-node Gauss-Legendre and 48-node Gauss-Laguerre from numpy.polynomial:
    companion-matrix eigenvalues, one Newton step on the Clenshaw sums of the
    series, weights from the series and its derivative."""
    return np.polynomial.legendre.leggauss(32), np.polynomial.laguerre.laggauss(48)


def si_ci_mpmath(x: float) -> tuple[float, float]:
    """Si(x) and Ci(x) at 30 digits, rounded to doubles."""
    with mpmath.workdps(30):
        return float(mpmath.si(x)), float(mpmath.ci(x))


def edge_x_mpmath(u: float, p: float, mu: float, L: float) -> float:
    """The hard-wall profile's closed form with 30-digit Si, sin and quotient,
    at the double-rounded arguments 2u(p -+ P), pu and pi mu u / L."""
    if u < 0:
        return 0.0
    half = math.pi * mu / (2.0 * L)
    pu, phase = p * u, math.pi * mu * u / L
    with mpmath.workdps(30):
        sinc = mpmath.sin(2 * mpmath.mpf(pu)) / pu if pu else 2
        diff = mpmath.si(2.0 * u * (p + half)) - mpmath.si(2.0 * u * (p - half))
        return float((diff - sinc * mpmath.sin(phase)) / mpmath.pi)


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


class TestLimitSymbol:
    """The oscillator limit symbol (a x + b p)^2n on the disk, by polar
    quadrature, against its Catalan closed form."""

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
    def test_phase_overflow_takes_the_limit(self):
        # pi mu y / L = inf at a finite y gave nan with "invalid value
        # encountered in sin"; the sine kernel's limit there is 0
        assert bulk_profile_box(1.0, 1.0, 1e308) == 0.0
        got = bulk_profile_box(1.0, 1.0, np.array([-1e308, 0.0, 1e308]))
        assert got.tolist() == [0.0, bulk_profile_box(1.0, 1.0, 0.0), 0.0]

    @pytest.mark.parametrize("y", [0.0, 0.5])
    def test_refuses_a_scale_pi_mu_over_L_that_overflows(self, y):
        # mu and L each finite: y = 0 raised "invalid value encountered in
        # multiply" under -W error (inf * 0), y = 0.5 returned nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"mu = 1e\+308, L = 0.001"):
                bulk_profile_box(1e308, 1e-3, y)

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

    # the next two tests keep the names of the trapezoid rules they once
    # compared with; their points now go to the 30-digit oracle
    def test_against_brute_force_trapezoid(self):
        assert abs(si(math.pi) - si_ci_mpmath(math.pi)[0]) <= 4e-15

    @pytest.mark.parametrize("x", [0.5, 3.0, 5.9, 6.1, 9.5, 25.0])
    def test_series_and_panels_agree_with_trapezoid(self, x):
        assert abs(si(x) - si_ci_mpmath(x)[0]) <= 4e-15

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
    def test_matches_mpmath(self, x):
        assert abs(si(x) - si_ci_mpmath(x)[0]) <= 4e-15

    def test_infinity(self):
        assert si(math.inf) == math.pi / 2
        assert si(-math.inf) == -math.pi / 2

    def test_refuses_nan(self):
        # the continued fraction ran out of steps and raised RuntimeError
        with pytest.raises(ValueError, match="Si needs a number"):
            si(math.nan)

    def test_large_argument_in_one_step(self):
        # at 716678418685.5199 a continued fraction stopped by
        # |c d - 1| <= 1e-16 never stopped (c d stays at 1 - 2^-53) and
        # raised RuntimeError
        for x in (1e6, 1e9, 716678418685.5199, 1e15):
            assert abs(si(x) - si_ci_mpmath(x)[0]) <= 1e-15

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
    """`_si_ci` against 30-digit mpmath Si and Ci."""

    def test_against_mpmath(self):
        s, c = _si_ci(_SI_CI_POINTS)
        for x, s_x, c_x in zip(_SI_CI_POINTS, s, c):
            s_want, c_want = si_ci_mpmath(x)
            assert abs(s_x - s_want) <= 4e-15, x
            assert abs(c_x - c_want) <= 4e-15, x

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
    @limit_settings
    @given(
        u=st.one_of(st.floats(-1.0, 50.0), st.floats(50.0, 1e12)), p=st.floats(-3.0, 3.0),
        mu=st.floats(0.1, 4.0), L=st.floats(0.5, 2.0),
    )
    def test_matches_mpmath(self, u, p, mu, L):
        assert abs(edge_profile_x(u, p, mu, L) - edge_x_mpmath(u, p, mu, L)) <= 1e-14

    @pytest.mark.parametrize("u, p, want", [
        (1e200, 1e200, 0.0), (1e200, -1e200, 0.0), (1e300, 1e10, 0.0), (1e200, 1e108, 0.0),
        (1e308, 1e10, 0.0), (-1e308, 0.0, 0.0), (1e200, 1e-100, None),
    ])
    def test_overflowing_products_take_their_limits(self, u, p, want):
        # 2u(p -+ P) and 2pu overflow: Si is +-pi/2 and sin(2pu)/(pu) is 0
        # (its bound 1/|pu|); the profile was NaN with a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = edge_profile_x(u, p, 1.0, 1.0)
        assert got == (edge_x_mpmath(u, p, 1.0, 1.0) if want is None else want)

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
        ((1e308, 0.0, 1.0, 1.0), "u is too large"),  # pi mu u / L = inf, pu finite
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


class TestGaussRules:
    @pytest.mark.parametrize("index", [0, 1], ids=["legendre32", "laguerre48"])
    def test_match_numpy_polynomial(self, index):
        nodes, weights = (_legendre32, _laguerre48)[index]()
        want_nodes, want_weights = numpy_gauss_rules()[index]
        # to 1e-15 of the node's size, or absolute below 1; numpy's own
        # weights are off the 40-digit ones by up to 5e-13 relative
        assert np.all(np.abs(nodes - want_nodes) <= 1e-15 * np.maximum(1.0, np.abs(want_nodes)))
        assert np.all(np.abs(weights / want_weights - 1.0) <= 1e-12)


class TestEdgeProfileP:
    def test_outside_box_is_zero(self):
        assert edge_profile_p(1.2, 0.5, 1.0, 1.0) == 0.0
        # c = pi (L - |x|) / L is taken at |x| capped to L: it overflowed here
        assert edge_profile_p(np.array([1.2, -1e308]), 0.5, 1.0, 1.0).tolist() == [0.0, 0.0]

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

    @pytest.mark.parametrize("v, want", [(1e308, 0.0), (sys.float_info.max, 0.0), (-1e308, 1.0)])
    def test_v_whose_phase_overflows_takes_the_limit(self, v, want):
        # c v = inf: |F| / pi < 1 / (c v) is below every normal double; the
        # phase cos(c v) raised a bare "math domain error"
        assert edge_profile_p(0.3, v, 1.0, 1.0) == want
        assert abs(edge_profile_p(0.3, 5e307, 1.0, 1.0)) < 1e-300  # c v finite

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("v, want", [(np.finfo(float).max, 0.0), (-np.finfo(float).max, 1.0)])
    def test_numpy_float_v_whose_phase_overflows_warns_nothing(self, v, want):
        # as numpy floats, c abs(w) and c v overflowed with two RuntimeWarnings
        assert isinstance(v, np.float64)
        assert edge_profile_p(np.float64(0.3), v, 1.0, 1.0) == want

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
        legendre = _edge_p_legendre(np.array([c]), np.array([w]))[0]
        assert abs(0.5 + legendre - _edge_p_laguerre(np.array([c]), np.array([w + 0.5]))[0]) <= 1e-14

    @limit_settings
    @given(
        xs=st.lists(st.floats(-1.2, 1.2), min_size=1, max_size=4),
        vs=st.lists(st.one_of(st.floats(-3.0, 4.0), st.floats(-1e4, 1e4)), min_size=1, max_size=10),
        L=st.floats(0.5, 2.0),
    )
    def test_section_equals_its_one_element_calls_bit_for_bit(self, xs, vs, L):
        # both branches: c |v - 1/2| <= 64 on Legendre panels, beyond it Laguerre
        x, v = np.array(xs)[:, None] * L, np.array(vs)
        prof = edge_profile_p(x, v, 1.0, L)
        assert prof.shape == (len(xs), len(vs))
        for i, x_i in enumerate(x[:, 0]):
            for j, v_j in enumerate(vs):
                one = edge_profile_p(float(x_i), v_j, 1.0, L)
                assert type(one) is float
                assert np.float64(one).tobytes() == prof[i, j].tobytes()

    def test_section_takes_both_branches_and_the_overflow_limit(self):
        v = np.array([0.5, 2.0, 200.0, -200.0, 1e308, -1e308])
        prof = edge_profile_p(0.3, v, 1.0, 1.0)
        assert [edge_profile_p(0.3, float(v_j), 1.0, 1.0) for v_j in v] == prof.tolist()
        assert prof[0] == 0.5 and prof[4] == 0.0 and prof[5] == 1.0
