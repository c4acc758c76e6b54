import math

import numpy as np
import pytest
from eigen_oracle import (
    box_wavefunctions,
    gauss_legendre,
    hermite_wavefunctions,
    oscillator_support_halfwidth,
)
from matrix_oracle import (
    box_momentum_entry,
    box_momentum_matrix,
    box_multiplication_matrix,
    dense_power,
    ladder_matrices,
    ladder_power,
)

import weylsym.truncate
from weylsym.truncate import MAX_DIMENSION, MAX_MATRIX_POWER, _ladder_powers, matrix_linear_power


class TestLadderMatrices:
    def test_position_element_pins_convention(self):
        # quadrature oracle: <u_2| x |u_1> = sqrt(hbar / 2), fixing the
        # 1-based ladder coefficients
        hbar = 1.0
        X = oscillator_support_halfwidth(hbar, 8)
        xs, ws = gauss_legendre(400, -X, X)
        U = hermite_wavefunctions(8, hbar, xs)
        got = float(np.sum(ws * xs * U[0] * U[1]))
        assert got == pytest.approx(math.sqrt(hbar / 2.0), abs=1e-10)
        Xm, _ = ladder_matrices(hbar, 8)
        assert Xm[1, 0].real == pytest.approx(got, abs=1e-10)

    def test_quadrature_matches_all_ladder_elements(self):
        hbar = 0.5
        kmax = 10
        X = oscillator_support_halfwidth(hbar, kmax)
        xs, ws = gauss_legendre(400, -X, X)
        U = hermite_wavefunctions(kmax, hbar, xs)
        Xm, _ = ladder_matrices(hbar, kmax)
        for k in range(1, kmax):
            got = float(np.sum(ws * xs * U[k - 1] * U[k]))
            assert got == pytest.approx(math.sqrt(hbar * k / 2.0), abs=1e-10)
            assert Xm[k, k - 1].real == pytest.approx(got, abs=1e-10)

    def test_momentum_elements_match_derivative_quadrature(self):
        # P[k, k-1] = <u_{k+1}| p |u_k> = -i hbar int u_{k+1} u_k' dx, with
        # u_k' by central differences of the eigenfunctions
        hbar, kmax, h = 0.5, 10, 1e-5
        X = oscillator_support_halfwidth(hbar, kmax)
        xs, ws = gauss_legendre(400, -X, X)
        U = hermite_wavefunctions(kmax, hbar, xs)
        dU = (hermite_wavefunctions(kmax, hbar, xs + h) - hermite_wavefunctions(kmax, hbar, xs - h)) / (2 * h)
        _, P = ladder_matrices(hbar, kmax)
        for k in range(1, kmax):
            want = -1j * hbar * float(np.sum(ws * U[k] * dU[k - 1]))
            assert P[k, k - 1] == pytest.approx(want, abs=1e-8)

    def test_structure(self):
        hbar = 1.0 / 6
        X, P = ladder_matrices(hbar, 6, pad=2)
        assert X.shape == P.shape == (8, 8)
        assert np.allclose(X.imag, 0.0)
        assert np.allclose(P.real, 0.0)
        np.testing.assert_allclose(X, X.conj().T)
        np.testing.assert_allclose(P, P.conj().T)

    def test_canonical_commutator(self):
        N = 12
        hbar = 0.3
        X, P = ladder_matrices(hbar, N, pad=2)
        comm = X @ P - P @ X
        for k in range(N):
            assert comm[k, k] == pytest.approx(1j * hbar, abs=1e-12)


def assert_band_meets_ladder_power(a, b, n, hbar, N):
    """The banded power against the explicit one, whose n tridiagonal
    products sum the weights of every n-step sign sequence: the same zero
    pattern, and entries within 1e-14 of the largest."""
    got = dense_power(matrix_linear_power(a, b, n, hbar, N))
    want = ladder_power(a, b, n, hbar, N)[:N, :N]
    np.testing.assert_array_equal(got == 0, want == 0)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), (a, b, n, hbar, N)


def assert_momentum_entries_match_quadrature(L, hbar):
    """C_jk = -i hbar int u_j u_k' dx within 1e-10, every pair of 12 levels."""
    xs, ws = gauss_legendre(400, -L, L)
    U = box_wavefunctions(12, L, xs)
    M = box_momentum_matrix(12, L, hbar)
    for k in range(1, 13):
        du_k = (k * math.pi / (2 * L)) * np.cos(k * math.pi * (xs + L) / (2 * L)) / math.sqrt(L)
        for j in range(1, 13):
            want = -1j * hbar * float(np.sum(ws * U[j - 1] * du_k))
            assert abs(M[j - 1, k - 1] - want) <= 1e-10, (L, hbar, j, k)


class TestMatrixLinearPower:
    def test_zero_power_is_identity(self):
        hbar = 1.0 / 5
        M = dense_power(matrix_linear_power(2.0, -1.0, 0, hbar, 5))
        np.testing.assert_allclose(M, np.eye(5), atol=1e-15)

    def test_momentum_is_tridiagonal_imaginary(self):
        hbar = 1.0 / 6
        M = dense_power(matrix_linear_power(0.0, 1.0, 1, hbar, 6))
        _, P = ladder_matrices(hbar, 6)
        np.testing.assert_allclose(M, P, atol=1e-14)
        assert np.allclose(M.real, 0.0)

    def test_against_ladder_power_oracle(self):
        # n = 3, (a, b) = (1, 2): the band vs the explicit power on the padded
        # dimension, truncated
        assert_band_meets_ladder_power(1.0, 2.0, 3, 0.25, 12)

    @pytest.mark.parametrize("ab", [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (2.0, -1.0)])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_oracle_equivalence_grid(self, ab, n):
        assert_band_meets_ladder_power(*ab, n, 1.0 / 16, 16)

    @pytest.mark.parametrize("n", range(9))
    def test_matches_sign_sequence_path_sums(self, n):
        # the ground-state corner and N smaller than the band
        for N in (1, 2, 5, 40):
            assert_band_meets_ladder_power(0.6, -0.8, n, 1.3 / N, N)

    def test_finite_band_exact(self):
        hbar = 1.0 / 10
        for n in (1, 2, 3):
            M = dense_power(matrix_linear_power(1.0, 1.0, n, hbar, 10))
            for k in range(10):
                for l in range(10):
                    if abs(k - l) > n:
                        assert M[l, k] == 0.0

    def test_hbar_scaling(self):
        N = 8
        for n in (1, 2, 3):
            m1, m2 = (
                dense_power(matrix_linear_power(1.0, 2.0, n, h, N))
                for h in (0.2, 0.8)
            )
            np.testing.assert_allclose(m2, m1 * 2.0**n, rtol=1e-12)

    def test_is_a_slice_of_the_shared_recurrence(self):
        # the sweeps build J^n once at their largest N and read its first N
        # columns: every band must be those doubles, for every n and N
        bands = list(_ladder_powers(MAX_MATRIX_POWER, 64))
        assert [band.shape for band in bands] == [(2 * n + 1, 64) for n in range(MAX_MATRIX_POWER + 1)]
        for n, band in enumerate(bands):
            for N in range(1, 65):
                got = matrix_linear_power(0.3, -1.1, n, 0.7, N).diagonals
                assert got.tobytes() == band[:, :N].tobytes(), (n, N)

    def test_power_guard(self):
        hbar = 1.0 / 4
        with pytest.raises(ValueError):
            matrix_linear_power(1.0, 0.0, 13, hbar, 4)

    @pytest.mark.parametrize(
        "n, N, message",
        [
            (MAX_MATRIX_POWER + 1, 4, f"matrix build refused for n > {MAX_MATRIX_POWER}"),
            (1, 0, "N must be >= 1"),
            (1, MAX_DIMENSION + 1, f"dimension {MAX_DIMENSION + 1} exceeds the {MAX_DIMENSION} cap"),
        ],
    )
    def test_refuses_before_allocating(self, monkeypatch, n, N, message):
        # with numpy gone from truncate, any array built before the refusal fails
        monkeypatch.setattr(weylsym.truncate, "np", None)
        with pytest.raises(ValueError, match=message):
            matrix_linear_power(1.0, 0.0, n, 0.25, N)

    @pytest.mark.parametrize("hbar", [0.0, -0.25, math.nan, math.inf])
    def test_refuses_bad_hbar_before_allocating(self, monkeypatch, hbar):
        monkeypatch.setattr(weylsym.truncate, "np", None)
        with pytest.raises(ValueError, match="hbar must be positive and finite"):
            matrix_linear_power(1.0, 0.0, 2, hbar, 4)

    def test_integer_valued_float_rank(self):
        # N = 3.0 is the rank 3, and a fractional N is refused
        want = matrix_linear_power(1.0, 0.5, 2, 0.1, 3).diagonals
        for N in (3.0, np.float64(3.0)):
            assert matrix_linear_power(1.0, 0.5, 2, 0.1, N).diagonals.tobytes() == want.tobytes()
        with pytest.raises(ValueError, match="N must be >= 1 and an integer"):
            matrix_linear_power(1.0, 0.0, 1, 0.1, 2.5)

    def test_integer_valued_float_power(self):
        # n = 2.0 is the power 2, and a fractional or non-finite n is refused
        want = matrix_linear_power(1.0, 0.5, 2, 0.1, 3)
        for n in (2.0, np.float64(2.0)):
            got = matrix_linear_power(1.0, 0.5, n, 0.1, 3)
            assert got.diagonals.tobytes() == want.diagonals.tobytes()
            assert got.weights.tobytes() == want.weights.tobytes()
        for n in (2.5, math.nan, math.inf):
            with pytest.raises(ValueError, match="n must be >= 0 and an integer"):
                matrix_linear_power(1.0, 0.0, n, 0.1, 3)

    def test_live_weights_share_one_modulus(self):
        # the band norms rest on |weight|^2 = (hbar/2)^n (a^2 + b^2)^n on every
        # diagonal that carries entries; the others are zero
        hbar = 0.3
        for n in range(7):
            band = matrix_linear_power(0.6, -1.7, n, hbar, 9)
            live = (band.offsets + n) % 2 == 0
            np.testing.assert_allclose(np.abs(band.weights[live]) ** 2, band.weight_sq, rtol=1e-14)
            assert np.all(band.weights[~live] == 0) and np.all(band.diagonals[~live] == 0)
            assert band.weight_sq == pytest.approx((0.15 * (0.36 + 2.89)) ** n, rel=1e-14)


class TestBoxMultiplicationMatrix:
    def test_literal_three_by_three(self):
        M = box_multiplication_matrix(3, 1.0)
        want = np.array([[0, -0.5, 0], [-0.5, 0, -0.5], [0, -0.5, 0]])
        np.testing.assert_allclose(M, want, atol=1e-15)

    def test_diagonal_zero(self):
        M = box_multiplication_matrix(7, 2.2)
        assert np.all(np.diag(M) == 0)

    def test_entry_matches_quadrature(self):
        L = 1.0
        xs, ws = gauss_legendre(200, -L, L)
        U = box_wavefunctions(2, L, xs)
        f = np.sin(math.pi * xs / (2 * L)) / math.sqrt(L)
        got = float(np.sum(ws * U[0] * f * U[1]))
        M = box_multiplication_matrix(2, L)
        assert M[0, 1].real == pytest.approx(got, abs=1e-12)


class TestBoxMomentumMatrix:
    def test_first_entry(self):
        M = box_momentum_matrix(2, 1.0, 1.0)
        assert M[0, 1] == pytest.approx(4.0j / 3.0, abs=1e-15)

    def test_same_parity_vanishes(self):
        M = box_momentum_matrix(8, 1.0, 1.0)
        for j in range(8):
            for k in range(8):
                if (j + k) % 2 == 0:
                    assert M[j, k] == 0.0

    def test_against_derivative_quadrature(self):
        assert_momentum_entries_match_quadrature(2.0, 0.3)

    def test_antisymmetric_imaginary_hermitian(self):
        M = box_momentum_matrix(9, 1.4, 0.7)
        np.testing.assert_allclose(M.real, 0.0, atol=1e-15)
        np.testing.assert_allclose(M.imag, -M.imag.T, atol=1e-15)
        np.testing.assert_allclose(M, M.conj().T, atol=1e-15)

    def test_linear_in_hbar(self):
        m1 = box_momentum_matrix(6, 1.0, 0.2)
        m2 = box_momentum_matrix(6, 1.0, 0.6)
        np.testing.assert_allclose(m2, 3.0 * m1, rtol=1e-14)

    def test_entry_helper_broadcasts(self):
        js = np.arange(1, 5)
        vals = box_momentum_entry(js[:, None], js[None, :], 1.0, 1.0)
        assert vals.shape == (4, 4)
        assert vals[0, 1] == pytest.approx(4.0j / 3.0)
