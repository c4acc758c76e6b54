import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from quadrature_oracle import operator_symbol_quadrature
from matrix_oracle import box_momentum_matrix, box_multiplication_matrix

from test_scale import BlockCase, assert_blocks_give_the_bits_of_one_block

from weylsym.basis import EigenBasis, Model
from weylsym.moyal import (
    FiniteRankOperator,
    _rows_at,
    direct_grid,
    moyal_direct,
    moyal_via_composition,
    moyal_via_composition_complex,
    operator_symbol_complex,
)
from weylsym.scale import PhaseGrid, SymbolField
from weylsym.weyl import (
    projection_symbol_field,
    symbol_oscillator_projection,
    symbol_projection_box,
    symbol_truncated_momentum_box,
)


def moyal_direct_pointwise(sigma1, sigma2, hbar, x, p):
    """The direct star product at one point in its unfactorized form: per
    point, the two symbols S1, S2 read by `rows_by_lagrange` and the two
    phase matrices E1, E2, then sum(E2 * (S1 E1 S2)).  The oracle of the
    row form."""
    g = sigma1.grid
    M = g.np
    q = g.p_centers()
    dy = 2.0 * math.pi / (M * g.dp)
    y = (np.arange(M) + 0.5 - M / 2.0) * dy
    shifted_x = x - hbar * y / 2.0
    S1 = rows_by_lagrange(sigma1, shifted_x)
    S2 = rows_by_lagrange(sigma2, shifted_x)
    E1 = np.exp(-1j * (p - q)[:, None] * y[None, :])
    E2 = np.exp(1j * (p - q)[None, :] * y[:, None])
    G = (S1 @ E1) @ S2
    return float(((dy * g.dp / (2.0 * math.pi)) ** 2 * np.sum(E2 * G)).real)


def box_basis(hbar, L=1.0):
    return EigenBasis(model=Model.BOX, hbar=hbar, box_half_width=L)


def rank_one(basis, N, k):
    m = np.zeros((N, N), dtype=complex)
    m[k - 1, k - 1] = 1.0
    return FiniteRankOperator(basis=basis, coeff=m)


class TestComposition:
    def test_projection_is_idempotent(self):
        N, mu, L = 6, 1.0, 1.0
        hbar = mu / N
        basis = box_basis(hbar, L)
        proj = FiniteRankOperator(basis=basis, coeff=np.eye(N, dtype=complex))
        for (x, p) in [(0.2, 0.5), (-0.7, -1.8), (0.0, 0.0)]:
            got = moyal_via_composition(proj, proj, hbar, x, p)
            assert got == pytest.approx(symbol_projection_box(N, hbar, L, x, p), abs=1e-12)

    def test_orthogonal_rank_ones_annihilate(self):
        basis = box_basis(0.25)
        A = rank_one(basis, 4, 1)
        B = rank_one(basis, 4, 2)
        for (x, p) in [(0.3, 1.0), (-0.5, 0.0)]:
            assert moyal_via_composition(A, B, 0.25, x, p) == 0.0

    def test_projection_times_momentum(self):
        # Pi_N (Pi_N p Pi_N) = Pi_N p Pi_N
        N, mu, L = 5, 1.0, 1.0
        hbar = mu / N
        basis = box_basis(hbar, L)
        proj = FiniteRankOperator(basis=basis, coeff=np.eye(N, dtype=complex))
        mom = FiniteRankOperator(basis=basis, coeff=box_momentum_matrix(N, L, hbar))
        for (x, p) in [(0.25, 0.8), (-0.4, -2.0), (0.6, 0.1)]:
            got = moyal_via_composition(proj, mom, hbar, x, p)
            want = symbol_truncated_momentum_box(N, hbar, L, x, p)
            assert got == pytest.approx(want, abs=1e-9)

    def test_oscillator_rank_one_idempotent(self):
        hbar = 0.5
        basis = EigenBasis(model=Model.OSCILLATOR, hbar=hbar)
        A = rank_one(basis, 2, 1)
        got = moyal_via_composition(A, A, hbar, 0.0, 0.0)
        want = operator_symbol_complex(basis, A.coeff, hbar, 0.0, 0.0).real
        assert got == pytest.approx(want, rel=1e-10)
        assert got == pytest.approx(2.0, rel=1e-8)  # ground projector peak value

    def test_mismatch_rejected(self):
        basis = box_basis(0.5)
        A = rank_one(basis, 4, 1)
        B = rank_one(basis, 5, 1)
        with pytest.raises(ValueError):
            moyal_via_composition(A, B, 0.5, 0.0, 0.0)
        C = rank_one(EigenBasis(model=Model.OSCILLATOR, hbar=0.5), 4, 1)
        with pytest.raises(ValueError):
            moyal_via_composition(A, C, 0.5, 0.0, 0.0)

    def test_trace_pairing(self):
        # (1/2 pi hbar) int sigma_{A A*} = sum |M_jk|^2, windowed to 1%
        N, mu, L = 4, 1.0, 1.0
        hbar = mu / N
        basis = box_basis(hbar, L)
        rng = np.random.default_rng(5)
        m = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
        prod = m @ m.conj().T
        # symbol of A A* on a window, midpoint integral
        grid = PhaseGrid(-L, L, -14.0, 14.0, 120, 240)
        x, p = grid.meshgrid()
        vals = operator_symbol_complex(basis, prod, hbar, x, p).real
        integral = float(np.sum(vals)) * grid.dx * grid.dp
        want = float(np.sum(np.abs(m) ** 2))
        assert integral / (2 * math.pi * hbar) == pytest.approx(want, rel=0.01)

    def test_noncommutativity_visible(self):
        # [multiplication, momentum] != 0: symbols of AB and BA differ
        N, mu, L = 8, 1.0, 1.0
        hbar = mu / N
        basis = box_basis(hbar, L)
        A = box_multiplication_matrix(N, L)
        B = box_momentum_matrix(N, L, hbar)
        xs = np.linspace(-0.8, 0.8, 9)[:, None]
        ps = np.linspace(-2.0, 2.0, 9)[None, :]
        ab = operator_symbol_complex(basis, A @ B, hbar, xs, ps)
        ba = operator_symbol_complex(basis, B @ A, hbar, xs, ps)
        # AB and BA are mutual adjoints: symbols are conjugates
        np.testing.assert_allclose(ab, np.conj(ba), atol=1e-10)
        assert float(np.max(np.abs(ab - ba))) > 1e-3
        # spot check through the public composition route
        opA = FiniteRankOperator(basis=basis, coeff=A)
        opB = FiniteRankOperator(basis=basis, coeff=B)
        assert moyal_via_composition_complex(opA, opB, hbar, 0.4, 1.0) == pytest.approx(
            complex(ab[6, 6]), abs=1e-12
        )


def rows_by_lagrange(field, X):
    """The oracle of _rows_at: at each position, the 4-point Lagrange
    polynomial through the two column nodes on either side, each grid column
    padded with two zero cells beyond each end and read as zero past them."""
    g = field.grid
    padded = np.pad(field.values, ((2, 2), (0, 0)))
    nodes = g.x_min + (np.arange(-2, g.nx + 2) + 0.5) * g.dx
    out = np.zeros((len(X), g.np))
    for r, x in enumerate(X):
        # the last padded node at or left of x, and its stencil
        k = int(np.searchsorted(nodes, x, side="right")) - 1
        stencil = range(k - 1, k + 3)
        node = [g.x_min + (n - 1.5) * g.dx for n in stencil]
        for a, n in enumerate(stencil):
            if 0 <= n < len(nodes):
                ell = math.prod((x - node[b]) / (node[a] - node[b]) for b in range(4) if b != a)
                out[r] += ell * padded[n]
    return out


def interior_positions(grid, s):
    """Positions at the fractions s of the span where all four rows of the
    cubic stencil lie on the grid: centres 1 to nx - 2."""
    return grid.x_min + (1.5 + np.array(s) * (grid.nx - 3)) * grid.dx


class TestRowsAt:
    def test_matches_lagrange_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            nx, n_p = (int(n) for n in rng.integers(2, 40, size=2))
            x_min = float(rng.uniform(-3.0, 1.0))
            grid = PhaseGrid(x_min, x_min + float(rng.uniform(0.1, 4.0)), -1.0, 1.0, nx, n_p)
            fld = SymbolField(grid=grid, values=rng.normal(size=(nx, n_p)))
            span = grid.x_max - grid.x_min
            X = np.concatenate([
                rng.uniform(grid.x_min - 0.5 * span, grid.x_max + 0.5 * span, size=60),
                grid.x_centers(),
                [grid.x_min, grid.x_max],
            ])
            got = _rows_at(fld, X)
            assert got.shape == (X.size, n_p)
            np.testing.assert_allclose(got, rows_by_lagrange(fld, X), rtol=0, atol=1e-13)

    @settings(deadline=None, derandomize=True, max_examples=100)
    @given(
        nx=st.integers(4, 60),
        n_p=st.integers(2, 5),
        x_min=st.floats(-3.0, 1.0),
        width=st.floats(0.1, 4.0),
        coeffs=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
        s=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20),
    )
    def test_reproduces_a_cubic_in_x(self, nx, n_p, x_min, width, coeffs, s):
        # each column its own multiple of one cubic about the window's centre
        grid = PhaseGrid(x_min, x_min + width, -1.0, 1.0, nx, n_p)
        mid = 0.5 * (grid.x_min + grid.x_max)
        fld = SymbolField.sample(lambda x, p: np.polyval(coeffs, x - mid) * (1.0 + p), grid)
        X = interior_positions(grid, s)
        want = np.polyval(coeffs, X - mid)[:, None] * (1.0 + grid.p_centers())[None, :]
        np.testing.assert_allclose(_rows_at(fld, X), want, rtol=0, atol=1e-12)

    @settings(deadline=None, derandomize=True, max_examples=100)
    @given(
        nx=st.integers(4, 60),
        omega_dx=st.floats(0.01, 1.5),
        phase=st.floats(0.0, 2.0 * math.pi),
        s=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20),
    )
    def test_error_within_the_stated_bound(self, nx, omega_dx, phase, s):
        # the fourth x-derivative of cos(omega x + phi + p) is at most
        # omega^4, so the cubic rows are off by at most (3/128) (omega dx)^4
        grid = PhaseGrid(-1.0, 1.0, -1.0, 1.0, nx, 3)
        omega = omega_dx / grid.dx
        fld = SymbolField.sample(lambda x, p: np.cos(omega * x + phase + p), grid)
        X = interior_positions(grid, s)
        want = np.cos(omega * X[:, None] + phase + grid.p_centers()[None, :])
        err = float(np.max(np.abs(_rows_at(fld, X) - want)))
        assert err <= 3.0 / 128.0 * omega_dx**4 + 1e-14


class TestDirect:
    def test_identity_symbol_acts_as_unit(self):
        # sigma_2 = 1 on a window 4x the support of a narrow gaussian bump
        hbar = 0.1
        grid = PhaseGrid(-4.0, 4.0, -4.0, 4.0, 256, 256)

        def bump(x, p):
            return np.exp(-((x - 0.2) ** 2 + (p + 0.1) ** 2) / (2 * 0.25))

        sig1 = SymbolField.sample(bump, grid)
        sig2 = SymbolField.sample(lambda x, p: np.ones_like(x * p), grid)
        for (x0, p0) in [(0.2, -0.1), (0.5, 0.3), (0.0, 0.0)]:
            got = moyal_direct(sig1, sig2, hbar, x0, p0)
            want = bump(x0, p0)
            assert got == pytest.approx(want, rel=0.02)

    def test_box_projection_idempotency(self):
        N, mu, L = 10, 1.0, 1.0
        hbar = mu / N
        grid = PhaseGrid(-1.5, 1.5, -6.0, 6.0, 256, 256)
        fld = projection_symbol_field(N, hbar, L, grid)
        rng = np.random.default_rng(42)
        for _ in range(8):
            x0 = float(rng.uniform(-0.5, 0.5))
            p0 = float(rng.uniform(-0.7, 0.7))
            got = moyal_direct(fld, fld, hbar, x0, p0)
            want = symbol_projection_box(N, hbar, L, x0, p0)
            assert got == pytest.approx(want, abs=0.1)

    def test_oscillator_ground_projector_idempotency(self):
        hbar = 0.5
        grid = PhaseGrid(-4.0, 4.0, -4.0, 4.0, 256, 256)
        sig = SymbolField.sample(
            lambda x, p: 2.0 * np.exp(-(x**2 + p**2) / hbar), grid
        )
        got = moyal_direct(sig, sig, hbar, 0.0, 0.0)
        assert got == pytest.approx(2.0, rel=0.02)

    @pytest.mark.parametrize("pair", ["proj-proj", "bump-bump", "proj-bump"])
    def test_row_matches_pointwise_oracle(self, pair):
        # the bump is not even in p, so (S F) is complex and the shortcut
        # S conj(F) = conj(S F) of a symbol times itself is exercised
        N, mu, L = 8, 1.0, 1.0
        hbar = mu / N
        grid = PhaseGrid(-1.5, 1.5, -6.0, 6.0, 96, 112)
        fields = {
            "proj": projection_symbol_field(N, hbar, L, grid),
            "bump": SymbolField.sample(lambda x, p: np.exp(-(x**2 + (p - 0.3) ** 2)), grid),
        }
        first, second = (fields[k] for k in pair.split("-"))
        ps = np.linspace(-1.2, 1.2, 7)
        for x0 in (-0.45, 0.0, 0.3):
            row = moyal_direct(first, second, hbar, x0, ps)
            assert row.shape == ps.shape
            want = [moyal_direct_pointwise(first, second, hbar, x0, float(p0)) for p0 in ps]
            np.testing.assert_allclose(row, want, rtol=0, atol=1e-13)

    @settings(deadline=None, derandomize=True, max_examples=60)
    @given(
        nx=st.integers(6, 70),
        n_p=st.integers(6, 70),
        p_min=st.floats(-7.0, -0.5),
        p_max=st.floats(0.5, 7.0),
        N=st.integers(1, 8),
        mu=st.floats(0.5, 2.0),
        t=st.floats(0.01, 0.99),
        s=st.lists(st.floats(0.0, 0.999), min_size=1, max_size=4),
        same=st.booleans(),
    )
    def test_fft_rows_match_pointwise_oracle(self, nx, n_p, p_min, p_max, N, mu, t, s, same):
        # odd and even M, p windows off-centre, so the twist and the outer
        # phase e^{i (p - q_0) y} are exercised apart from each other
        grid = PhaseGrid(-1.5, 1.5, p_min, p_max, nx, n_p)
        hbar = mu / N
        first = projection_symbol_field(N, hbar, 1.0, grid)
        second = first if same else SymbolField.sample(
            lambda x, p: np.exp(-((x - 0.2) ** 2 + (p - 0.3) ** 2)) * (1.0 + 0.5 * p), grid
        )
        x0 = grid.x_min + t * (grid.x_max - grid.x_min)
        ps = grid.p_min + np.array(s) * (grid.p_max - grid.p_min)
        row = moyal_direct(first, second, hbar, x0, ps)
        want = [moyal_direct_pointwise(first, second, hbar, x0, float(p0)) for p0 in ps]
        np.testing.assert_allclose(row, want, rtol=0, atol=1e-13)

    def test_scalar_p_is_the_row_element(self):
        N, hbar = 6, 1.0 / 6
        grid = PhaseGrid(-1.5, 1.5, -6.0, 6.0, 64, 64)
        fld = projection_symbol_field(N, hbar, 1.0, grid)
        ps = np.array([[-0.5, 0.25], [0.0, 0.9]])
        rows = moyal_direct(fld, fld, hbar, 0.2, ps)
        assert rows.shape == (2, 2)
        for idx in np.ndindex(ps.shape):
            got = moyal_direct(fld, fld, hbar, 0.2, float(ps[idx]))
            assert isinstance(got, float)
            assert got == pytest.approx(rows[idx], abs=1e-14)

    def test_row_point_outside_window_rejected(self):
        grid = PhaseGrid(-1.0, 1.0, -1.0, 1.0, 16, 16)
        f = SymbolField.sample(lambda x, p: np.ones_like(x * p), grid)
        with pytest.raises(ValueError, match="point outside window"):
            moyal_direct(f, f, 0.5, 0.0, np.array([0.0, 1.5]))

    def test_point_outside_window_rejected(self):
        grid = PhaseGrid(-1.0, 1.0, -1.0, 1.0, 16, 16)
        f = SymbolField.sample(lambda x, p: np.ones_like(x * p), grid)
        with pytest.raises(ValueError, match="point outside window"):
            moyal_direct(f, f, 0.5, 2.0, 0.0)

    def test_grid_mismatch_rejected(self):
        a = SymbolField.sample(lambda x, p: x * p, PhaseGrid(-1, 1, -1, 1, 16, 16))
        b = SymbolField.sample(lambda x, p: x * p, PhaseGrid(-1, 1, -1, 1, 16, 17))
        with pytest.raises(ValueError, match="incompatible grids"):
            moyal_direct(a, b, 0.5, 0.0, 0.0)

    @pytest.mark.parametrize("hbar", [-1.0 / 8, 0.0, math.nan, math.inf])
    def test_refuses_hbar_not_finite_and_positive(self, hbar):
        # on the N = 8 grid at (0.1, 0.2), hbar = -1/8 gave 1.0901383597292273
        # and 0 gave 1.189; NaN and inf gave NaN with a RuntimeWarning
        f = projection_symbol_field(8, 1.0 / 8, 1.0, direct_grid(8, 1.0, 1.0))
        with pytest.raises(ValueError, match="hbar must be positive and finite"):
            moyal_direct(f, f, hbar, 0.1, 0.2)


class TestDirectGrid:
    @pytest.mark.parametrize("N, mu, L", [
        (8, 1.0, 1.0), (16, 1.02, 0.98), (5, 0.3, 2.0), (12, 6.0 / math.pi, 1.0), (3, 1.9, 1.0),
    ])
    def test_fixed_window_while_pi_mu_at_most_6L(self, N, mu, L):
        # the sampling rule's ceil(8 L N h / pi mu) p cells with h = 6
        cells = math.ceil(8 * N * (6.0 / (math.pi * mu / L)))
        assert direct_grid(N, mu, L) == PhaseGrid(-1.5 * L, 1.5 * L, -6.0, 6.0, 16 * N, cells)

    @settings(max_examples=200, deadline=None)
    @given(N=st.integers(1, 400), mu=st.floats(0.01, 50.0), L=st.floats(0.01, 50.0))
    def test_p_cells_meet_the_sampling_theorem(self, N, mu, L):
        # sigma_N(x, .) has p-bandwidth 2L / hbar: dp <= pi hbar / 2L makes
        # the midpoint p-sum exact, and the grid keeps half that
        g = direct_grid(N, mu, L)
        half = max(6.0, math.pi * mu / L)
        assert g.dp <= math.pi * (mu / N) / (4.0 * L) * (1.0 + 1e-12)
        cells = math.ceil(8 * N * (half / (math.pi * mu / L)))
        assert g == PhaseGrid(-1.5 * L, 1.5 * L, -half, half, 16 * N, cells)

    @pytest.mark.parametrize("N, mu, L", [(16, 4.0, 1.0), (16, 5.0, 1.0), (7, 1.0, 0.4), (1, 2.5, 1.3)])
    def test_wider_window_covers_twice_the_momentum_reach(self, N, mu, L):
        g = direct_grid(N, mu, L)
        P = math.pi * mu / (2.0 * L)
        assert g.p_max == -g.p_min == pytest.approx(2.0 * P, rel=1e-15)
        assert g.p_max > 6.0
        assert (g.x_min, g.x_max, g.nx) == (-1.5 * L, 1.5 * L, 16 * N)
        # cells within the sampling bound, and no more than it needs
        dp_max = math.pi * (mu / N) / (4.0 * L)
        assert g.dp <= dp_max * (1.0 + 1e-12)
        assert (g.np - 1) * dp_max < 2.0 * g.p_max

    def test_origin_on_the_default_grid(self):
        # the direct product's error was all linear interpolation along x:
        # 0.0205 here on the 24N grid, 0.0020 with cubic rows on 16N
        N, mu, L = 16, 1.0, 1.0
        hbar = mu / N
        proj = FiniteRankOperator(basis=box_basis(hbar, L), coeff=np.eye(N, dtype=complex))
        fld = projection_symbol_field(N, hbar, L, direct_grid(N, mu, L))
        got = moyal_direct(fld, fld, hbar, 0.0, 0.0)
        assert abs(got - moyal_via_composition(proj, proj, hbar, 0.0, 0.0)) <= 0.0025


def osc_basis(hbar):
    return EigenBasis(model=Model.OSCILLATOR, hbar=hbar)


osc_settings = settings(deadline=None, derandomize=True, max_examples=40)
entry = st.floats(-1.0, 1.0)


@st.composite
def complex_matrices(draw, max_dim=12):
    n = draw(st.integers(1, max_dim))
    re = draw(st.lists(entry, min_size=n * n, max_size=n * n))
    im = draw(st.lists(entry, min_size=n * n, max_size=n * n))
    return (np.array(re) + 1j * np.array(im)).reshape(n, n)


osc_point = dict(hbar=st.floats(0.05, 1.0), x=st.floats(-2.5, 2.5), p=st.floats(-2.5, 2.5))


class TestOscillatorOperatorSymbol:
    @osc_settings
    @given(m=complex_matrices(), **osc_point)
    def test_matches_quadrature_oracle(self, m, hbar, x, p):
        got = operator_symbol_complex(osc_basis(hbar), m, hbar, x, p)
        assert isinstance(got, complex)
        want = operator_symbol_quadrature(osc_basis(hbar), m, hbar, x, p)
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want))

    @osc_settings
    @given(m=complex_matrices(), **osc_point)
    def test_hermitian_coeff_gives_real_symbol(self, m, hbar, x, p):
        got = operator_symbol_complex(osc_basis(hbar), m + m.conj().T, hbar, x, p)
        assert abs(got.imag) <= 1e-13 * max(1.0, abs(got.real))

    @osc_settings
    @given(m=complex_matrices(), **osc_point)
    def test_adjoint_gives_conjugate(self, m, hbar, x, p):
        got = operator_symbol_complex(osc_basis(hbar), m.conj().T, hbar, x, p)
        want = operator_symbol_complex(osc_basis(hbar), m, hbar, x, p).conjugate()
        assert abs(got - want) <= 1e-14 * max(1.0, abs(want))

    @osc_settings
    @given(N=st.integers(1, 300), **osc_point)
    def test_identity_is_the_projection(self, N, hbar, x, p):
        got = operator_symbol_complex(osc_basis(hbar), np.eye(N), hbar, x, p)
        assert got.imag == 0.0
        assert abs(got.real - symbol_oscillator_projection(N, hbar, x, p)) <= 1e-14

    @osc_settings
    @given(m=complex_matrices(), hbar=st.floats(0.05, 1.0))
    def test_origin_is_alternating_trace(self, m, hbar):
        # z = 0: l_n^(0) = L_n(0) = 1 and l_n^(d) = 0 for d > 0
        got = operator_symbol_complex(osc_basis(hbar), m, hbar, 0.0, 0.0)
        want = 2.0 * sum((-1) ** n * m[n, n] for n in range(m.shape[0]))
        assert abs(got - want) <= 1e-14 * max(1.0, abs(want))

    @osc_settings
    @given(
        m=complex_matrices(), hbar=st.floats(0.05, 1.0),
        xs=st.lists(st.floats(-2.5, 2.5), min_size=1, max_size=6),
        ps=st.lists(st.floats(-2.5, 2.5), min_size=1, max_size=4),
    )
    def test_broadcast_is_bit_identical_to_scalar_calls(self, m, hbar, xs, ps):
        case = BlockCase(m.shape[0], hbar, 1.0, m, [(np.array(xs)[:, None], np.array(ps)[None, :])], ())
        assert_blocks_give_the_bits_of_one_block("osc_operator", case)

    def test_large_rank_corners_finite_with_exact_zeros_far_out(self):
        # |u_M><u_1| and |u_1><u_M| at M = 4096: a single d = M - 1 Laguerre
        # function, l_0 = z^{d/2} e^{-z/2} / sqrt(d!), peaked at z = d.  An
        # int8 matrix keeps the 4096^2 coefficients at 16 MB.
        M = 4096
        hbar = 1.0 / M
        basis = osc_basis(hbar)
        for corner in ((M - 1, 0), (0, M - 1)):
            m = np.zeros((M, M), dtype=np.int8)
            m[corner] = 1
            peak = math.sqrt(0.5 * hbar * (M - 1))  # z = d
            rs = np.array([0.0, 0.5 * peak, peak, 2.0 * peak, 10.0, 1e200])
            vals = operator_symbol_complex(basis, m, hbar, rs, 0.0)
            assert np.all(np.isfinite(vals))
            assert np.all(np.abs(vals) <= 2.0)
            assert vals[0] == 0.0  # l^(d)(0) = 0 for d > 0
            assert 0.1 < abs(vals[2]) < 0.2  # 2 (2 pi d)^{-1/4} at the peak
            np.testing.assert_array_equal(vals[3:], 0.0)
        # the phase follows the corner: e^{-i d theta} for M_{d,0}
        theta = 0.7
        x, p = peak * math.cos(theta), peak * math.sin(theta)
        m = np.zeros((M, M), dtype=np.int8)
        m[M - 1, 0] = 1
        low = operator_symbol_complex(basis, m, hbar, x, p)
        m[M - 1, 0], m[0, M - 1] = 0, 1
        high = operator_symbol_complex(basis, m, hbar, x, p)
        assert high == pytest.approx(low.conjugate(), abs=1e-15)

    def test_projection_star_projection_at_rank_256(self):
        # one Laguerre recurrence per point; by quadrature this point took
        # ~2 s and ~200 MB
        N = 256
        hbar = 1.0 / N
        proj = FiniteRankOperator(basis=osc_basis(hbar), coeff=np.eye(N, dtype=complex))
        got = moyal_via_composition(proj, proj, hbar, 0.2, 1.2)
        assert abs(got - symbol_oscillator_projection(N, hbar, 0.2, 1.2)) <= 1e-13


box_settings = settings(deadline=None, derandomize=True, max_examples=40)


@st.composite
def box_points(draw):
    """(N, hbar, L, x, p) with |x| < L; half the momenta resonant,
    p = pi hbar n / 4L, where g s +- p or g t +- p is exactly 0."""
    N, mu, L = draw(st.integers(1, 64)), draw(st.floats(0.5, 2.0)), draw(st.floats(0.5, 2.0))
    hbar = mu / N
    x = draw(st.floats(-0.95, 0.95)) * L
    if draw(st.booleans()):
        p = math.pi * hbar * draw(st.integers(-2 * N - 2, 2 * N + 2)) / (4.0 * L)
    else:
        p = draw(st.floats(-3.0, 3.0)) * math.pi * mu / (2.0 * L)
    return N, hbar, L, x, p


@st.composite
def sparse_matrices(draw, N):
    m = np.zeros((N, N), dtype=complex)
    for _ in range(draw(st.integers(1, 6))):
        j, k = draw(st.integers(0, N - 1)), draw(st.integers(0, N - 1))
        m[j, k] = complex(draw(entry), draw(entry))
    return m


class TestBoxOperatorSymbol:
    @box_settings
    @given(point=box_points(), data=st.data())
    def test_matches_quadrature_oracle(self, point, data):
        N, hbar, L, x, p = point
        m = data.draw(sparse_matrices(N))
        got = operator_symbol_complex(box_basis(hbar, L), m, hbar, x, p)
        assert isinstance(got, complex)
        assert abs(got - operator_symbol_quadrature(box_basis(hbar, L), m, hbar, x, p)) <= 1e-8

    @box_settings
    @given(point=box_points())
    @example(point=(5, 0.2, 1.0, 0.1, 1e308))  # both 0 where their phases could overflow (was NaN)
    def test_identity_is_the_projection(self, point):
        N, hbar, L, x, p = point
        got = operator_symbol_complex(box_basis(hbar, L), np.eye(N), hbar, x, p)
        assert abs(got - symbol_projection_box(N, hbar, L, x, p)) <= 1e-12

    @box_settings
    @given(point=box_points())
    def test_momentum_matrix_is_the_momentum_symbol(self, point):
        N, hbar, L, x, p = point
        got = operator_symbol_complex(box_basis(hbar, L), box_momentum_matrix(N, L, hbar), hbar, x, p)
        want = symbol_truncated_momentum_box(N, hbar, L, x, p)
        assert abs(got - want) <= 1e-12 * (1.0 + abs(want))

    @box_settings
    @given(
        point=box_points(), data=st.data(), u=st.floats(1.0, 3.0),
        sign=st.sampled_from((1.0, -1.0)),
    )
    def test_zero_for_x_outside_box(self, point, data, u, sign):
        N, hbar, L, _, p = point
        m = data.draw(complex_matrices(max_dim=N))
        basis = box_basis(hbar, L)
        for x in (sign * L, sign * u * L):
            assert operator_symbol_complex(basis, m, hbar, x, p) == 0.0
        vals = operator_symbol_complex(basis, m, hbar, np.array([L, -L, sign * u * L]), p)
        np.testing.assert_array_equal(vals, 0.0)

    @box_settings
    @given(point=box_points(), data=st.data())
    def test_hermitian_coeff_gives_real_symbol(self, point, data):
        N, hbar, L, x, p = point
        m = data.draw(complex_matrices(max_dim=N))
        got = operator_symbol_complex(box_basis(hbar, L), m + m.conj().T, hbar, x, p)
        assert abs(got.imag) <= 1e-14 * np.sum(np.abs(m))

    @box_settings
    @given(
        m=complex_matrices(max_dim=24), mu=st.floats(0.5, 2.0), L=st.floats(0.5, 2.0),
        xs=st.lists(st.floats(-2.5, 2.5), min_size=1, max_size=6),
        ps=st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=4),
    )
    def test_broadcast_matches_scalar_calls(self, m, mu, L, xs, ps):
        # the points share one BLAS product, whose rounding may differ from a
        # one-point product in the last bits; reruns repeat every bit
        case = BlockCase(m.shape[0], mu / m.shape[0], L, m, [(np.array(xs)[:, None], np.array(ps)[None, :])], ())
        assert_blocks_give_the_bits_of_one_block("box_operator", case)


class TestOperatorSymbolValidation:
    @pytest.mark.parametrize("basis", [box_basis(0.25), osc_basis(0.25)])
    def test_empty_coeff_gives_zero(self, basis):
        empty = np.zeros((0, 0))
        assert operator_symbol_complex(basis, empty, 0.25, 0.1, 0.2) == 0.0
        np.testing.assert_array_equal(operator_symbol_complex(basis, empty, 0.25, np.zeros(3), 0.2), 0.0)

    @pytest.mark.parametrize("coeff", [np.ones((2, 3)), np.ones(4), np.ones((2, 2, 2))])
    def test_box_rejects_non_square_coeff(self, coeff):
        with pytest.raises(ValueError, match="square"):
            operator_symbol_complex(box_basis(0.25), coeff, 0.25, 0.1, 0.2)

    @pytest.mark.parametrize("coeff", [np.ones((2, 3)), np.ones(4), np.ones((2, 2, 2))])
    def test_oscillator_rejects_non_square_coeff(self, coeff):
        with pytest.raises(ValueError, match="square"):
            operator_symbol_complex(osc_basis(0.25), coeff, 0.25, np.zeros(3), np.ones(3))

    @pytest.mark.parametrize("basis", [box_basis(0.1), osc_basis(0.1)])
    def test_rejects_hbar_other_than_the_basis(self, basis):
        # P star P at hbar = 0.5 on a basis built at hbar = 0.1 would read
        # 1.83 where the projection symbol is 0.88
        proj = FiniteRankOperator(basis=basis, coeff=np.eye(10, dtype=complex))
        with pytest.raises(ValueError, match="basis's hbar"):
            moyal_via_composition(proj, proj, 0.5, 0.1, 0.2)
        with pytest.raises(ValueError, match="basis's hbar"):
            operator_symbol_complex(basis, proj.coeff, 0.5, 0.1, 0.2)
        assert moyal_via_composition(proj, proj, 0.1, 0.1, 0.2) == operator_symbol_complex(
            basis, proj.coeff, 0.1, 0.1, 0.2
        ).real
