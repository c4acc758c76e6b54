"""The eigenfunction oracle's Hermite recurrence and sine modes, and the
model descriptor."""

import math

import numpy as np
import pytest
from eigen_oracle import (
    box_wavefunctions,
    oscillator_eigenvalue,
    gauss_legendre,
    hermite_wavefunctions,
    oscillator_support_halfwidth,
)

from weylsym.basis import EigenBasis, Model


def eval_hermite_wavefunction(k, hbar, x):
    return float(hermite_wavefunctions(k, hbar, np.array([x]))[k - 1, 0])


def eval_box_wavefunction(k, L, x):
    return float(box_wavefunctions(k, L, np.array([x]))[k - 1, 0])


def osc(hbar):
    return EigenBasis(model=Model.OSCILLATOR, hbar=hbar)


def hermite_highprec(k, hbar, x):
    """Direct-formula oracle in extended precision: raw Hermite polynomial by
    integer-coefficient recurrence, then normalization, all in longdouble."""
    xi = np.longdouble(x) / np.sqrt(np.longdouble(hbar))
    h0, h1 = np.longdouble(1.0), 2 * xi
    if k - 1 == 0:
        h = h0
    elif k - 1 == 1:
        h = h1
    else:
        for j in range(2, k):
            h0, h1 = h1, 2 * xi * h1 - 2 * (j - 1) * h0
        h = h1
    norm = np.longdouble(1.0) / np.sqrt(np.longdouble(2.0) ** (k - 1) * math.factorial(k - 1))
    gauss = np.exp(-(xi * xi) / 2) * (np.longdouble(math.pi) * np.longdouble(hbar)) ** (-0.25)
    return float(norm * gauss * h)


class TestHermiteWavefunction:
    def test_ground_state_at_origin(self):
        assert eval_hermite_wavefunction(1, 1.0, 0.0) == pytest.approx(
            (1.0 / math.pi) ** 0.25, rel=1e-15
        )
        assert eval_hermite_wavefunction(1, 1.0, 0.0) == pytest.approx(0.7511255444649425)

    @pytest.mark.parametrize("k", range(1, 9))
    @pytest.mark.parametrize("x", [0.3, 1.7])
    def test_defined_parity(self, k, x):
        left = eval_hermite_wavefunction(k, 1.0, -x)
        right = (-1.0) ** (k - 1) * eval_hermite_wavefunction(k, 1.0, x)
        assert left == pytest.approx(right, rel=1e-13, abs=1e-15)

    def test_against_extended_precision_formula(self):
        got = eval_hermite_wavefunction(5, 0.5, 0.9)
        want = hermite_highprec(5, 0.5, 0.9)
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("k,hbar,x", [(3, 0.25, -1.3), (8, 1.0, 2.2), (12, 2.0, 0.1)])
    def test_more_points_vs_oracle(self, k, hbar, x):
        assert eval_hermite_wavefunction(k, hbar, x) == pytest.approx(
            hermite_highprec(k, hbar, x), rel=1e-12
        )

    def test_deep_tail_underflows_to_zero(self):
        assert eval_hermite_wavefunction(1, 1.0, 60.0) == 0.0

    def test_underflow_region_normalized(self):
        # k = 600 at hbar = 1/600: the bare Gaussian start underflows well
        # inside the classically allowed region, so the carried exponent is
        # load-bearing for the norm.  The equispaced midpoint rule (see the
        # next test) is 3e-14 off here.
        hbar = 1.0 / 600
        k = 600
        X = oscillator_support_halfwidth(hbar, k)
        assert X > 38.6 * math.sqrt(hbar)  # start value underflows before X
        n = 8000
        dx = 2 * X / n
        xs = -X + (np.arange(n) + 0.5) * dx
        u = hermite_wavefunctions(k, hbar, xs)[k - 1]
        assert np.sum(u * u) * dx == pytest.approx(1.0, abs=1e-10)

    def test_mid_order_normalized_midpoint(self):
        # k = 1024, equispaced midpoint rule: spectrally accurate because
        # u^2 and all derivatives vanish at the window ends.
        hbar = 1.0 / 1024
        k = 1024
        X = oscillator_support_halfwidth(hbar, k)
        n = 20_000
        dx = 2 * X / n
        xs = -X + (np.arange(n) + 0.5) * dx
        u = hermite_wavefunctions(k, hbar, xs)[k - 1]
        assert np.sum(u * u) * dx == pytest.approx(1.0, abs=1e-8)

    def test_high_order_stays_finite(self):
        # k = 4096: no overflow anywhere, O(1) oscillation inside the support.
        hbar = 1.0 / 4096
        k = 4096
        xs = np.linspace(-1.5, 1.5, 401)
        u = hermite_wavefunctions(k, hbar, xs)
        assert np.all(np.isfinite(u))
        assert np.max(np.abs(u[k - 1])) > 1.0

    def test_row_offset_matches_scalar(self):
        xs = np.array([-0.7, 0.0, 1.1])
        rows = hermite_wavefunctions(6, 0.5, xs)
        for k in (1, 4, 6):
            for i, x in enumerate(xs):
                assert rows[k - 1, i] == eval_hermite_wavefunction(k, 0.5, float(x))

    def test_k_validation(self):
        with pytest.raises(ValueError):
            hermite_wavefunctions(0, 1.0, 0.0)


class TestBoxWavefunction:
    def test_ground_state_center(self):
        assert eval_box_wavefunction(1, 1.0, 0.0) == pytest.approx(1.0, rel=1e-15)

    @pytest.mark.parametrize("k", [1, 2, 5, 9])
    def test_dirichlet_boundary_exact_zero(self, k):
        for x in (-1.0, 1.0, -1.2, 3.0):
            assert eval_box_wavefunction(k, 1.0, x) == 0.0

    def test_chebyshev_identity(self):
        # u_k = (chi / sqrt(L)) sin(theta) U_{k-1}(cos(theta))
        L = 1.3
        xs = np.linspace(-L + 1e-9, L - 1e-9, 50)
        theta = math.pi * (xs + L) / (2 * L)
        for k in range(1, 11):
            cheb = np.polynomial.chebyshev.Chebyshev.basis(k - 1).convert(
                kind=np.polynomial.polynomial.Polynomial
            )
            # U_{k-1} via its defining recurrence on cos(theta)
            u0 = np.ones_like(theta)
            u1 = 2 * np.cos(theta)
            if k - 1 == 0:
                U = u0
            elif k - 1 == 1:
                U = u1
            else:
                for _ in range(2, k):
                    u0, u1 = u1, 2 * np.cos(theta) * u1 - u0
                U = u1
            expect = np.sin(theta) * U / math.sqrt(L)
            got = box_wavefunctions(k, L, xs)[k - 1]
            np.testing.assert_allclose(got, expect, rtol=1e-12, atol=1e-12)

    def test_node_count(self):
        L = 0.8
        xs = np.linspace(-L, L, 10_000)[1:-1]
        for k in (1, 2, 3, 7, 12):
            vals = box_wavefunctions(k, L, xs)[k - 1]
            signs = np.sign(vals)
            changes = int(np.sum(signs[1:] * signs[:-1] < 0))
            assert changes == k - 1


class TestEigenvalue:
    def test_oscillator_ground(self):
        assert oscillator_eigenvalue(0.1, 1) == pytest.approx(0.05, rel=1e-15)

    def test_oscillator_spacing(self):
        for k in (1, 2, 9):
            assert oscillator_eigenvalue(0.3, k + 1) - oscillator_eigenvalue(0.3, k) == pytest.approx(0.3, rel=1e-13)


class TestOrthonormality:
    def test_box(self):
        L = 1.1
        xs, ws = gauss_legendre(400, -L, L)
        U = box_wavefunctions(20, L, xs)
        G = np.einsum("q,jq,kq->jk", ws, U, U)
        np.testing.assert_allclose(G, np.eye(20), atol=1e-9)

    def test_oscillator(self):
        hbar = 0.5
        X = oscillator_support_halfwidth(hbar, 20)
        xs, ws = gauss_legendre(400, -X, X)
        U = hermite_wavefunctions(20, hbar, xs)
        G = np.einsum("q,jq,kq->jk", ws, U, U)
        np.testing.assert_allclose(G, np.eye(20), atol=1e-9)


class TestEigenEquation:
    def test_oscillator_residual(self):
        # (-hbar^2/2) u'' + (x^2/2) u = E_k u, second derivative by 5-point
        # central differences with step sqrt(hbar) * 1e-3
        hbar = 0.5
        h = math.sqrt(hbar) * 1e-3
        rng = np.random.default_rng(2)
        for k in (1, 2, 5, 9):
            E = oscillator_eigenvalue(hbar, k)
            xs = rng.uniform(-2.0, 2.0, size=20)
            for x in xs:
                stencil = np.array([x - 2 * h, x - h, x, x + h, x + 2 * h])
                u = hermite_wavefunctions(k, hbar, stencil)[k - 1]
                d2 = (-u[0] + 16 * u[1] - 30 * u[2] + 16 * u[3] - u[4]) / (12 * h * h)
                resid = -0.5 * hbar**2 * d2 + 0.5 * x * x * u[2] - E * u[2]
                assert abs(resid) <= 1e-6 * abs(E)


class TestEigenBasis:
    def test_box_requires_width(self):
        with pytest.raises(ValueError):
            EigenBasis(model=Model.BOX, hbar=1.0)

    @pytest.mark.parametrize("bad", [math.inf, math.nan, 0.0, -1.0])
    @pytest.mark.parametrize("model", list(Model))
    def test_refuses_bad_hbar(self, model, bad):
        with pytest.raises(ValueError, match="hbar must be positive and finite"):
            EigenBasis(model=model, hbar=bad, box_half_width=1.0 if model is Model.BOX else None)

    @pytest.mark.parametrize("bad", [math.inf, math.nan, 0.0, -1.0])
    def test_refuses_bad_box_width(self, bad):
        with pytest.raises(ValueError, match="L must be positive and finite"):
            EigenBasis(model=Model.BOX, hbar=0.25, box_half_width=bad)

    @pytest.mark.parametrize("width", [1.0, math.nan])
    def test_oscillator_refuses_a_width(self, width):
        # a NaN width was accepted, and two oscillator operators at one hbar
        # were then refused as "operators live in different bases"
        with pytest.raises(ValueError, match="box_half_width"):
            EigenBasis(model=Model.OSCILLATOR, hbar=0.5, box_half_width=width)

    def test_oscillator_has_no_width(self):
        with pytest.raises(ValueError):
            _ = osc(1.0).L
