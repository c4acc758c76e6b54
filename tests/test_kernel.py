import math
import warnings

import numpy as np
import pytest
from eigen_oracle import box_wavefunctions, gauss_legendre, projection_kernel_sum, truncated_operator_kernel
from hypothesis import given, settings
from hypothesis import strategies as st
from matrix_oracle import box_momentum_matrix, box_multiplication_matrix
from sum_oracle import dirichlet_cosine_sum

from weylsym.basis import EigenBasis, Model
from weylsym.diag import (
    box_momentum_tail_norm_sq,
    box_projection_distance_sq,
    edge_section,
    oscillator_disk_distance_sq,
)
from weylsym.kernel import box_projection_kernel, dirichlet_kernel, sine_kernel
from weylsym.moyal import operator_symbol_complex
from weylsym.scale import PhaseGrid
from weylsym.weyl import (
    momentum_symbol_field,
    projection_symbol_field,
    rescaled_kernel_f2,
    symbol_oscillator_projection,
    symbol_projection_box,
    symbol_truncated_momentum_box,
)


def box_basis(L, hbar=1.0):
    return EigenBasis(model=Model.BOX, hbar=hbar, box_half_width=L)


class TestDirichletKernel:
    def test_peak_value(self):
        assert dirichlet_kernel(5, 0.0) == pytest.approx(11.0, rel=1e-15)

    def test_periodicity(self):
        assert dirichlet_kernel(3, 2 * math.pi) == pytest.approx(7.0, rel=1e-9)

    def test_matches_cosine_sum(self):
        assert dirichlet_kernel(4, 0.73) == pytest.approx(dirichlet_cosine_sum(4, 0.73), abs=1e-13)

    def test_even_and_bounded(self):
        xs = np.linspace(-8.0, 8.0, 1000)
        for N in (1, 4, 9):
            vals = dirichlet_kernel(N, xs)
            np.testing.assert_allclose(vals, dirichlet_kernel(N, -xs), atol=1e-10)
            assert np.max(np.abs(vals)) <= 2 * N + 1 + 1e-9

    def test_degenerate_rank(self):
        assert dirichlet_kernel(0, 0.3) == pytest.approx(1.0, rel=1e-15)

    @pytest.mark.parametrize("N", [40, 400])
    @pytest.mark.parametrize("m", [-1, 1, 2])
    def test_near_multiples_of_two_pi(self, N, m):
        # the quotient at x itself lost the digits of sin(x/2) here, with
        # errors up to 1e-8 (2N + 1) just outside its cosine-sum fallback
        deltas = np.concatenate([-np.logspace(-15, math.log10(3e-5), 25), [0.0],
                                 np.logspace(-15, -4, 25)])
        for delta in deltas:
            x = 2 * math.pi * m + delta
            assert abs(dirichlet_kernel(N, x) - dirichlet_cosine_sum(N, x)) <= 1e-13 * (2 * N + 1)


class TestSineKernel:
    def test_removable_singularity(self):
        assert sine_kernel(0.0) == 1.0

    def test_at_pi(self):
        assert sine_kernel(math.pi) == pytest.approx(2.0 / math.pi, rel=1e-15)

    def test_matches_integral_definition(self):
        # S(x) = int_{-1/2}^{1/2} cos(k x) dk
        x = 0.37
        ks, ws = gauss_legendre(50, -0.5, 0.5)
        want = float(np.sum(ws * np.cos(ks * x)))
        assert sine_kernel(x) == pytest.approx(want, abs=1e-12)

    def test_taylor_branch_is_smooth(self):
        eps = 1e-4
        below = sine_kernel(eps * (1 - 1e-9))
        above = sine_kernel(eps * (1 + 1e-9))
        assert below == pytest.approx(above, abs=1e-14)

    def test_envelope_bounds(self):
        xs = np.linspace(-60.0, 60.0, 3000)
        vals = np.asarray(sine_kernel(xs))
        assert np.max(np.abs(vals)) <= 1.0 + 1e-12
        far = np.abs(xs) >= 2.0
        assert np.all(np.abs(vals[far]) <= 2.0 / np.abs(xs[far]) + 1e-12)


class TestProjectionKernel:
    def test_support(self):
        assert box_projection_kernel(5, 1.0, 1.2, 0.3) == 0.0
        assert box_projection_kernel(5, 1.0, 0.3, -1.0) == 0.0

    @settings(deadline=None, derandomize=True, max_examples=80)
    @given(
        N=st.integers(1, 64), L=st.floats(0.3, 3.0),
        u=st.floats(-1.0, 1.0), v=st.floats(-1.0, 1.0),
        pin=st.sampled_from(("free", "diagonal", "wall")),
    )
    def test_closed_form_equals_sum(self, N, L, u, v, pin):
        # x = y puts the first Dirichlet kernel at its removable point, |x| = L
        # the second
        x, y = u * L, v * L
        if pin == "diagonal":
            y = x
        elif pin == "wall":
            x = math.copysign(L, u)
        closed = box_projection_kernel(N, L, x, y)
        summed = projection_kernel_sum(box_basis(L), N, x, y)
        assert abs(closed - summed) <= 1e-12 * N / L

    @pytest.mark.parametrize("eps", [1e-8, 1e-7, 1e-6])
    def test_diagonal_just_inside_the_wall(self, eps):
        # both Dirichlet kernels sit near multiples of 2 pi, and the kernel
        # (5.3e-9 at eps = 1e-8) is their small difference: it came out as
        # -3.2e-6 there, and 3.3e-7 off at eps = 1e-7
        N, L = 400, 1.0
        x = L - eps
        summed = projection_kernel_sum(box_basis(L), N, x, x)
        assert abs(box_projection_kernel(N, L, x, x) - summed) <= 1e-12

    def test_diag_trace(self):
        # midpoint rule over 4000 cells of K(x, x) equals the rank
        N, L = 7, 1.0
        n = 4000
        dx = 2 * L / n
        xs = -L + (np.arange(n) + 0.5) * dx
        tr = float(np.sum(box_projection_kernel(N, L, xs, xs)) * dx)
        assert tr == pytest.approx(N, abs=1e-6)

    def test_oscillator_sum_mode(self):
        # the oracle's oscillator kernel is symmetric
        basis = EigenBasis(model=Model.OSCILLATOR, hbar=0.5)
        assert projection_kernel_sum(basis, 4, 0.3, -0.2) == pytest.approx(
            projection_kernel_sum(basis, 4, -0.2, 0.3), rel=1e-13
        )

    def test_reproducing_property(self):
        # int K(x, z) K(z, y) dz = K(x, y)
        L = 1.0
        zs, ws = gauss_legendre(200, -L, L)
        rng = np.random.default_rng(4)
        for N in (2, 5, 10):
            for _ in range(5):
                x, y = rng.uniform(-0.95 * L, 0.95 * L, size=2)
                lhs = float(np.sum(ws * box_projection_kernel(N, L, x, zs) * box_projection_kernel(N, L, zs, y)))
                assert lhs == pytest.approx(box_projection_kernel(N, L, x, y), abs=1e-8)

    @pytest.mark.parametrize("N,L", [(0, 1.0), (3, 0.0), (3, -1.0), (3, math.nan)])
    def test_rejects_invalid(self, N, L):
        with pytest.raises(ValueError):
            box_projection_kernel(N, L, 0.1, 0.2)


# the box kernels at (x, y) and the box symbols whose tables read x alone
_BOX_POINT_CALLS = {
    "box_projection_kernel": (lambda x, y: box_projection_kernel(8, 1.0, x, y), "xy"),
    "rescaled_kernel_f2": (lambda x, y: rescaled_kernel_f2(8, 1.0 / 8, 1.0, x, y), "xy"),
    "symbol_truncated_momentum_box": (lambda x, p: symbol_truncated_momentum_box(8, 1.0 / 8, 1.0, x, p), "x"),
    "box_operator_symbol": (
        lambda x, p: operator_symbol_complex(box_basis(1.0, 1.0 / 8), np.eye(8) + 0.5j * np.eye(8, k=1), 1.0 / 8, x, p),
        "x",
    ),
}


@pytest.mark.parametrize("call, name", [
    (call, name) for call, (_, names) in sorted(_BOX_POINT_CALLS.items()) for name in names
])
@pytest.mark.parametrize("far", [math.inf, -math.inf, 1e308])
def test_coordinates_far_outside_give_zero_with_no_warning(call, name, far):
    # 0.0 as before, where the kernels' Dirichlet factors and the symbols'
    # sines of an infinite or overflowing phase emitted RuntimeWarnings
    f = _BOX_POINT_CALLS[call][0]
    point = [far, 0.2] if name == "x" else [0.3, far]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert f(*point) == 0.0
        assert f(*(np.array([c, 0.1]) for c in point))[0] == 0.0


@pytest.mark.parametrize("call", ["box_projection_kernel", "rescaled_kernel_f2"])
@pytest.mark.parametrize("name", ["x", "y"])
def test_nan_coordinate_is_refused(call, name):
    # both kernels gave 0.0 at a NaN x or y, their in-box masks being false
    point = {"x": np.array([0.1, 0.2]), "y": 0.3}
    point[name] = np.array([0.1, math.nan]) if name == "x" else math.nan
    with pytest.raises(ValueError, match=f"{name} must be a number, not NaN"):
        _BOX_POINT_CALLS[call][0](point["x"], point["y"])


class TestTruncatedOperatorKernel:
    def test_identity_matrix_reduces_to_projection(self):
        N, L = 6, 1.0
        basis = box_basis(L)
        eye = np.eye(N, dtype=complex)
        for (x, y) in [(0.1, 0.7), (-0.3, -0.3), (0.99, -0.2)]:
            got = truncated_operator_kernel(eye, basis, x, y)
            assert got.imag == 0.0
            assert got.real == pytest.approx(box_projection_kernel(N, L, x, y), abs=1e-13)

    def test_tridiagonal_kernel_identity(self):
        # kernel of the truncated multiplication operator equals
        # -(1/(2 sqrt(L))) sum_k [u_k(x) u_{k+1}(y) + u_{k+1}(x) u_k(y)]
        N, L = 5, 1.0
        basis = box_basis(L)
        mat = box_multiplication_matrix(N, L)
        x, y = 0.1, 0.3
        got = truncated_operator_kernel(mat, basis, x, y)
        ux = box_wavefunctions(N, L, np.array([x]))[:, 0]
        uy = box_wavefunctions(N, L, np.array([y]))[:, 0]
        want = -sum(ux[k] * uy[k + 1] + ux[k + 1] * uy[k] for k in range(N - 1)) / (2 * math.sqrt(L))
        assert got.real == pytest.approx(want, abs=1e-13)
        assert got.imag == pytest.approx(0.0, abs=1e-15)

    def test_hermitian_matrix_gives_hermitian_kernel(self):
        N, L, hbar = 6, 1.3, 0.25
        basis = box_basis(L, hbar)
        mat = box_momentum_matrix(N, L, hbar)
        rng = np.random.default_rng(9)
        for _ in range(20):
            x, y = rng.uniform(-L, L, size=2)
            kxy = truncated_operator_kernel(mat, basis, x, y)
            kyx = truncated_operator_kernel(mat, basis, y, x)
            assert kxy == pytest.approx(np.conj(kyx), abs=1e-13)

    def test_rejects_nonsquare(self):
        basis = box_basis(1.0)
        with pytest.raises(ValueError):
            truncated_operator_kernel(np.zeros((2, 3)), basis, 0.0, 0.0)


_X, _P = np.array([[-0.4], [0.2], [0.9]]), np.array([[0.1, -1.3, 2.2]])

# entry points that check N, each called with the N under test
_N_CALLS = {
    "symbol_projection_box": lambda N: symbol_projection_box(N, 0.25, 1.0, _X, _P),
    "symbol_truncated_momentum_box": lambda N: symbol_truncated_momentum_box(N, 0.25, 1.0, _X, _P),
    "projection_symbol_field": lambda N: projection_symbol_field(
        N, 0.25, 1.0, PhaseGrid(-1.2, 1.2, -2.0, 2.0, 5, 6)
    ).values,
    "momentum_symbol_field": lambda N: momentum_symbol_field(
        N, 0.25, 1.0, PhaseGrid(-1.2, 1.2, -2.0, 2.0, 5, 6)
    ).values,
    "box_momentum_tail_norm_sq": lambda N: box_momentum_tail_norm_sq(N, 1.0, 0.25),
    "symbol_oscillator_projection": lambda N: symbol_oscillator_projection(N, 0.25, _X, _P),
    "box_projection_distance_sq": lambda N: box_projection_distance_sq(N, 0.25, 1.0),
    "oscillator_disk_distance_sq": lambda N: oscillator_disk_distance_sq(N, 0.25),
    "edge_section": lambda N: np.array(edge_section("x", N, 1.0, 1.0, np.array([0.0, 0.5, 2.0]), 0.3)),
    "box_projection_kernel": lambda N: box_projection_kernel(N, 1.0, _X, _P),
    "dirichlet_kernel": lambda N: dirichlet_kernel(N, _P),
}


@pytest.mark.parametrize("N", [4.0, np.float64(4.0)], ids=["float", "float64"])
@pytest.mark.parametrize("name", sorted(_N_CALLS))
def test_integer_valued_float_N_is_bit_equal_to_its_integer(name, N):
    # N sizes ranges and tables, where a float N raised TypeError
    call = _N_CALLS[name]
    assert np.asarray(call(N)).tobytes() == np.asarray(call(4)).tobytes()


@pytest.mark.parametrize("N", [2.5, math.nan, math.inf, -1, -1.0])
def test_dirichlet_kernel_refuses_bad_N(N):
    # 2.5 gave 0.294 at x = 1 and nan gave nan
    with pytest.raises(ValueError, match="N must be >= 0 and an integer"):
        dirichlet_kernel(N, 1.0)
