"""Special-function layer: values against independent oracles and identities."""

import cmath
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrcscatter import specfun as sf
from mrcscatter.geometry import quadrature_for_degree

# power-series oracle summed at 60 decimal digits (see oracle_j_series below)
J10_AT_1 = 7.116552640047313024e-11
# -(1/z + i/z^2)exp(iz) at z = 1, times the outgoing normalization i^2 * k
HANKEL_OUT_1_1_1 = -0.30116867893975674 + 1.3817732906760363j
# symbolic differentiation of the ell = 2 outgoing radial function (sympy, 30 digits)
HANKEL_OUT_DR_2_1_3 = 0.3299974988668152 - 0.04704000268662241j


def oracle_j_series(ell: int, x: float, terms: int = 60) -> float:
    """Power series for j_ell in exact rational/mpf arithmetic."""
    import mpmath as mp

    with mp.workdps(60):
        total = mp.mpf(0)
        xm = mp.mpf(x)
        for s in range(terms):
            num = (-1) ** s * xm ** (ell + 2 * s)
            den = mp.mpf(2) ** s * mp.factorial(s) * mp.fac2(2 * ell + 2 * s + 1)
            total += num / den
        return float(total)


class TestSphericalBesselJ:
    def test_closed_form_j0(self):
        assert sf.spherical_bessel_j(0, 1.0) == pytest.approx(math.sin(1.0), rel=1e-15)

    def test_closed_form_j1(self):
        expect = math.sin(1.0) - math.cos(1.0)  # at x = 1: sin x/x^2 - cos x/x
        assert sf.spherical_bessel_j(1, 1.0) == pytest.approx(expect, rel=1e-14)

    def test_j10_against_series_oracle(self):
        assert oracle_j_series(10, 1.0) == pytest.approx(J10_AT_1, rel=1e-15)
        assert sf.spherical_bessel_j(10, 1.0) == pytest.approx(J10_AT_1, rel=1e-12)

    @pytest.mark.parametrize("x", [1e-3, 1e-2, 0.5, 1.0, math.pi, 10.0, 200.0, 1e3])
    def test_full_range_against_scipy(self, x):
        from scipy.special import spherical_jn

        L = 50
        mine = sf.spherical_bessel_j_table(L, x)
        ref = spherical_jn(np.arange(L + 1), x)
        nz = np.abs(ref) > 1e-280
        assert np.max(np.abs(mine[nz] - ref[nz]) / np.abs(ref[nz])) < 1e-12

    def test_domain_errors(self):
        with pytest.raises(sf.DomainError):
            sf.spherical_bessel_j(0, 0.0)
        with pytest.raises(sf.DomainError):
            sf.spherical_bessel_j(0, -1.0)
        with pytest.raises(sf.DomainError):
            sf.spherical_bessel_j(-1, 1.0)


class TestHankelOut:
    @pytest.mark.parametrize("k,r", [(2.0, 0.5), (1.0, 1.0), (0.7, 7.0)])
    def test_monopole_exact(self, k, r):
        assert sf.hankel_out(0, k, r) == pytest.approx(cmath.exp(1j * k * r) / r, rel=1e-14)

    def test_ell1_closed_form(self):
        assert sf.hankel_out(1, 1.0, 1.0) == pytest.approx(HANKEL_OUT_1_1_1, rel=1e-14)

    def test_asymptotic_normalization(self):
        # leading correction is ell(ell+1)/(2kr), so test far enough out
        r = 1e5
        for ell in range(11):
            v = sf.hankel_out(ell, 1.0, r) * r * cmath.exp(-1j * r)
            assert abs(v - 1.0) < 1e-3

    def test_asymptotic_improves_with_r(self):
        devs = [
            abs(sf.hankel_out(5, 1.0, r) * r * cmath.exp(-1j * r) - 1.0)
            for r in (1e3, 1e4, 1e5)
        ]
        assert devs[2] < devs[1] < devs[0]

    @settings(max_examples=50, deadline=None)
    @given(x=st.floats(0.05, 60.0), L=st.integers(1, 60))
    def test_modulus_nondecreasing_in_degree(self, x, L):
        # so dividing a near-field projection by its radial factor never
        # amplifies a mode more than the monopole
        assert np.all(np.diff(np.abs(sf.hankel_out_table(L, 1.0, x))) >= 0.0)

    def test_domain_errors(self):
        with pytest.raises(sf.DomainError):
            sf.hankel_out(0, -1.0, 1.0)
        with pytest.raises(sf.DomainError):
            sf.hankel_out(0, 1.0, 0.0)


class TestHankelRecurrence:
    """h1 = j + iy by its own upward recurrence."""

    @pytest.mark.parametrize("z", [0.05, 0.1, 0.3, 0.7, 1.0, 2.5, 5.0, 10.0, 20.0, 33.3, 45.0, 60.0])
    def test_modulus_against_mpmath(self, z):
        import mpmath as mp

        h = sf._h1_table(40, z)
        for ell in range(41):
            # |h1_ell(z)| = sqrt(pi / (2z)) * |J + iY| at half-integer order ell + 1/2
            nu = ell + 0.5
            ref = mp.sqrt(mp.pi / (2 * mp.mpf(z)) * (mp.besselj(nu, z) ** 2 + mp.bessely(nu, z) ** 2))
            assert abs(abs(h[ell]) - float(ref)) <= 1e-14 * float(ref)

    @pytest.mark.parametrize("L", [0, 1, 2, 9, 40])
    def test_imaginary_part_is_y_table_bitwise(self, L):
        x = np.linspace(0.05, 60.0, 997)
        # at k = 1, multiplying by conj(i**(ell+1)) undoes the outgoing phase exactly
        h = sf.hankel_out_table(L, 1.0, x) * np.conj(sf._outgoing_phase(L))[:, None]
        assert h.imag.tobytes() == sf._yn_table(L, x).tobytes()

    @pytest.mark.parametrize("L", [0, 1, 3, 8, 30])
    def test_degree_prefix_is_bitwise(self, L):
        r = np.linspace(0.3, 2.5, 64)
        for k in (0.7, 1.0, 1.5):
            assert sf.hankel_out_table(L + 1, k, r)[: L + 1].tobytes() == sf.hankel_out_table(L, k, r).tobytes()


class TestHankelOutDr:
    @pytest.mark.parametrize("k,r", [(1.0, 1.0), (2.0, 3.0)])
    def test_monopole_closed_form(self, k, r):
        expect = (1j * k * r - 1.0) * cmath.exp(1j * k * r) / r**2
        assert sf.hankel_out_dr(0, k, r) == pytest.approx(expect, rel=1e-13)

    def test_frozen_symbolic_value(self):
        assert sf.hankel_out_dr(2, 1.0, 3.0) == pytest.approx(HANKEL_OUT_DR_2_1_3, rel=1e-13)

    @pytest.mark.parametrize("ell", [0, 1, 2, 7, 15])
    def test_against_finite_differences(self, ell):
        k, r = 1.7, 2.345
        h = 1e-6 * r
        fd = (sf.hankel_out(ell, k, r + h) - sf.hankel_out(ell, k, r - h)) / (2 * h)
        d = sf.hankel_out_dr(ell, k, r)
        assert abs(fd - d) / abs(d) < 1e-5


class TestCrossProductIdentity:
    @pytest.mark.parametrize("x", [0.5, 1.0, 5.0, 20.0, 50.0])
    def test_j_y_wronskian(self, x):
        # j_l y'_l - j'_l y_l = 1/x^2 for every degree
        L = 20
        j = sf.spherical_bessel_j_table(L + 1, x)
        y = sf._yn_table(L + 1, np.atleast_1d(x))[:, 0]
        for ell in range(L + 1):
            jp = j[ell - 1] - (ell + 1) / x * j[ell] if ell > 0 else -j[1]
            yp = y[ell - 1] - (ell + 1) / x * y[ell] if ell > 0 else -y[1]
            w = j[ell] * yp - jp * y[ell]
            assert abs(w - 1.0 / x**2) * x**2 < 1e-10


class TestSphHarm:
    def test_constant_mode(self):
        for theta, phi in [(0.3, 1.0), (2.0, 4.0)]:
            assert sf.sph_harm(0, 0, theta, phi) == pytest.approx(
                0.28209479177387814, rel=1e-14
            )

    def test_dipole_at_pole(self):
        assert sf.sph_harm(1, 0, 0.0, 0.0) == pytest.approx(0.4886025119029199, rel=1e-14)

    def test_against_scipy(self):
        from scipy.special import sph_harm_y

        rng = np.random.default_rng(11)
        th = rng.uniform(0.01, math.pi - 0.01, 25)
        ph = rng.uniform(0, 2 * math.pi, 25)
        L = 30
        mine = sf.sph_harm_table(L, th, ph)
        for ell in range(L + 1):
            for m in range(-ell, ell + 1):
                ref = sph_harm_y(ell, m, th, ph)
                np.testing.assert_allclose(
                    mine[:, sf.mode_index(ell, m)], ref, rtol=0, atol=1e-12
                )

    def test_gram_matrix_identity(self):
        quad = quadrature_for_degree(16)
        Y = sf.sph_harm_table(8, quad.theta, quad.phi)
        G = (Y.conj().T * quad.weights) @ Y
        assert np.max(np.abs(G - np.eye(81))) < 1e-10

    @settings(max_examples=40, deadline=None)
    @given(
        ell=st.integers(0, 15),
        m=st.integers(-15, 15),
        theta=st.floats(0.0, math.pi),
        phi=st.floats(0.0, 2 * math.pi - 1e-9),
    )
    def test_conjugation_symmetry(self, ell, m, theta, phi):
        if abs(m) > ell:
            with pytest.raises(sf.DomainError):
                sf.sph_harm(ell, m, theta, phi)
            return
        lhs = sf.sph_harm(ell, m, theta, phi).conjugate()
        rhs = (-1) ** m * sf.sph_harm(ell, -m, theta, phi)
        assert abs(lhs - rhs) < 1e-13

    def test_dtheta_against_finite_differences(self):
        th0, ph0 = 0.9, 2.2
        h = 1e-6
        d = sf.sph_harm_dtheta_table(12, th0, ph0)[0]
        fd = (
            sf.sph_harm_table(12, th0 + h, ph0)[0] - sf.sph_harm_table(12, th0 - h, ph0)[0]
        ) / (2 * h)
        np.testing.assert_allclose(d, fd, rtol=0, atol=1e-8)

    def test_dtheta_table_matches_ladder_identity_per_mode(self):
        # reference: the ladder identity evaluated one (ell, m) at a time
        L = 7
        theta = np.array([0.0, 0.4, 1.9, math.pi])
        P = sf._norm_legendre_table(L, np.cos(theta), np.sin(theta))
        ref = np.zeros_like(P)
        for ell in range(L + 1):
            for m in range(ell + 1):
                up = math.sqrt((ell - m) * (ell + m + 1)) * P[ell, m + 1] if m < ell else 0.0
                if m == 0:
                    down = -math.sqrt(ell * (ell + 1)) * P[ell, 1] if ell >= 1 else 0.0
                else:
                    down = math.sqrt((ell + m) * (ell - m + 1)) * P[ell, m - 1]
                ref[ell, m] = 0.5 * (up - down)
        np.testing.assert_array_equal(sf._norm_legendre_dtheta_table(L, P), ref)

    def test_dtheta_finite_at_pole(self):
        assert np.all(np.isfinite(sf.sph_harm_dtheta_table(6, 0.0, 0.0)))

    def test_dphi_over_sin_rejects_pole(self):
        with pytest.raises(sf.DomainError):
            sf.sph_harm_dphi_over_sin_table(3, 0.0, 0.0)

    def test_dphi_over_sin_value(self):
        th0, ph0 = 1.1, 0.4
        out = sf.sph_harm_dphi_over_sin_table(4, th0, ph0)[0]
        for ell in range(5):
            for m in range(-ell, ell + 1):
                expect = 1j * m * sf.sph_harm(ell, m, th0, ph0) / math.sin(th0)
                assert abs(out[sf.mode_index(ell, m)] - expect) < 1e-13


    def test_a_lower_degree_table_is_the_leading_columns_of_a_higher_one(self):
        rng = np.random.default_rng(3)
        theta = np.concatenate([[0.0, math.pi], rng.uniform(0, math.pi, 39)])
        phi = rng.uniform(-7.0, 7.0, 41)
        low, high = sf.sph_harm_table(3, theta, phi), sf.sph_harm_table(10, theta, phi)
        assert np.array_equal(low, high[:, :16])

class TestGoldenMin:
    def test_batch_is_bitwise_per_element(self):
        f = lambda x: np.cos(3.0 * x) + 0.1 * x * x
        # the fourth bracket is already below the tolerance: no iteration
        a = np.array([0.2, 0.5, 1.0, 1.9, 10.0])
        b = a + np.array([0.9, 1.5, 0.3, 1e-11, 2.0])
        x, fx = sf.golden_min(f, a, b)
        for i in range(a.size):
            xi, fi = sf.golden_min(f, a[i : i + 1], b[i : i + 1])
            assert x[i] == xi[0] and fx[i] == fi[0]

    def test_finds_interior_minimum(self):
        x, fx = sf.golden_min(lambda t: (t - 0.3) ** 2, np.array([0.0, 0.25]), np.array([1.0, 0.31]))
        np.testing.assert_allclose(x, 0.3, rtol=1e-9)
        assert np.all(fx < 1e-18)


class TestBracketedRoot:
    """f returns (g, dg/dx); the bracket holds g(a) < 0 <= g(b)."""

    @staticmethod
    def _solve(f, a, b):
        a, b = np.atleast_1d(np.asarray(a, dtype=float)), np.atleast_1d(np.asarray(b, dtype=float))
        return sf.bracketed_root(f, a, b, f(a)[0], f(b)[0])

    def test_batch_is_bitwise_per_element(self):
        f = lambda x: (0.2 * x - np.cos(3.0 * x), 0.2 + 3.0 * np.sin(3.0 * x))
        # g < 0 at the left end and > 0 at the right end of each bracket
        a = np.array([0.3, 2.0, 4.3])
        b = np.array([0.9, 2.5, 4.6])
        x, calls, _ = self._solve(f, a, b)
        for i in range(a.size):
            xi, _, _ = self._solve(f, a[i : i + 1], b[i : i + 1])
            assert x[i] == xi[0]
        np.testing.assert_allclose(f(x)[0], 0.0, atol=1e-14)
        assert calls <= 12

    def test_superlinear_on_a_simple_root(self):
        f = lambda x: (x**3 - 2.0, 3.0 * x**2)
        x, calls, _ = self._solve(f, 0.5, 3.0)
        assert abs(x[0] - 2.0 ** (1 / 3)) <= 4e-16
        assert calls <= 12

    def test_exact_root_at_the_right_end_and_nan_stop(self):
        a, b = np.array([0.0]), np.array([1.0])
        line = lambda t: (t - 1.0, np.ones_like(t))
        x, calls, _ = sf.bracketed_root(line, a, b, np.array([-1.0]), np.array([0.0]))
        assert x[0] == 1.0 and calls == 0
        nan = lambda t: (np.full_like(t, np.nan), np.full_like(t, np.nan))
        x, calls, _ = sf.bracketed_root(nan, a, b, np.array([-1.0]), np.array([1.0]))
        assert np.isnan(x[0]) and calls == 1

    @pytest.mark.parametrize("root", [1e-12, 1.0 - 1e-12])
    def test_root_within_1e12_of_an_end_takes_few_calls(self, root):
        # a nonlinear g whose root sits next to an end, so the far end never
        # moves and the bracket stays wide: the Newton estimate stops it
        f = lambda x: (np.expm1(2.0 * (x - root)) + (x - root) ** 3,
                       2.0 * np.exp(2.0 * (x - root)) + 3.0 * (x - root) ** 2)
        x, calls, _ = self._solve(f, 0.0, 1.0)
        assert abs(x[0] - root) <= 1e-15 and calls <= 4

    def test_non_monotone_g_converges_by_bisection(self):
        # g' vanishes inside the bracket; from the secant point 0.8, where
        # g' = -0.08, the Newton step leaves the bracket, so it bisects
        f = lambda x: (x**3 - 2.0 * x + 2.0, 3.0 * x**2 - 2.0)
        x, calls, bisections = self._solve(f, -3.0, 2.0)
        assert abs(f(x)[0][0]) <= 1e-14 and calls <= 12
        assert bisections > 0


    def test_a_nan_g_ends_its_bracket_and_leaves_the_others_alone(self):
        g = lambda x: (0.2 * x - np.cos(3.0 * x), 0.2 + 3.0 * np.sin(3.0 * x))
        nan_inside = lambda x: (np.where((x > 2.0) & (x < 2.5), np.nan, g(x)[0]), g(x)[1])
        a, b = np.array([0.3, 2.0, 4.3]), np.array([0.9, 2.5, 4.6])
        x, _, _ = sf.bracketed_root(nan_inside, a, b, g(a)[0], g(b)[0])
        assert np.isnan(x[1])
        for i in (0, 2):
            assert x[i] == self._solve(g, a[i], b[i])[0][0]
        # a NaN g moves neither end and is no bisection: its bracket stops after one call
        x, calls, bisections = self._solve(nan_inside, a[1], b[1])
        assert np.isnan(x[0]) and calls == 1 and bisections == 0

class TestBesselEquation:
    """The second radial derivative the ray search reads off H and dH/dr."""

    @pytest.mark.parametrize("k", [0.5, 1.0, 2.5])
    @pytest.mark.parametrize("r", [0.3, 1.0, 2.4])
    def test_second_derivative_matches_a_central_difference(self, k, r):
        L, h = 8, 1e-5 * r
        H, dH = sf._hankel_out_pair(L, k, r)
        ell = np.arange(L + 1)
        d2H = -(2.0 / r) * dH - (k**2 - ell * (ell + 1) / r**2) * H
        fd = (sf._hankel_out_pair(L, k, r + h)[1] - sf._hankel_out_pair(L, k, r - h)[1]) / (2.0 * h)
        np.testing.assert_allclose(d2H, fd, rtol=1e-7)


class TestModeIndexing:
    @settings(max_examples=100, deadline=None)
    @given(ell=st.integers(0, 50), m=st.integers(-50, 50))
    def test_bijection_round_trip(self, ell, m):
        if abs(m) > ell:
            with pytest.raises(sf.DomainError):
                sf.mode_index(ell, m)
            return
        assert sf.mode_from_index(sf.mode_index(ell, m)) == (ell, m)

    def test_flat_enumeration_is_dense(self):
        L = 12
        seen = sorted(sf.mode_index(ell, m) for ell, m in sf.mode_list(L))
        assert seen == list(range(sf.n_modes(L)))
        assert sf.mode_degrees(L).tolist() == [ell for ell, _ in sf.mode_list(L)]
        assert sf.mode_orders(L).tolist() == [m for _, m in sf.mode_list(L)]


class TestHankelOutPair:
    """H and dH/dr from one Hankel table: H is bitwise hankel_out_table and
    dH bitwise hankel_out_dr_table, whose values agree with the derivative of
    the standard h1 table."""

    @pytest.mark.parametrize("L", [0, 1, 4, 19])
    def test_matches_the_public_tables(self, L):
        k, r = 1.3, np.linspace(0.3, 2.5, 25)
        H, dH = sf._hankel_out_pair(L, k, r)
        assert H.tobytes() == sf.hankel_out_table(L, k, r).tobytes()
        assert dH.tobytes() == sf.hankel_out_dr_table(L, k, r).tobytes()
        # d/dr of i**(ell+1) * k * h1_ell(k*r)
        z = k * r
        ref = sf._bessel_dz(sf._h1_table(L + 1, z), z) * (sf._outgoing_phase(L) * k * k)[:, None]
        np.testing.assert_allclose(dH, ref, rtol=1e-13, atol=0)

    def test_scalar_radius(self):
        H, dH = sf._hankel_out_pair(3, 1.0, 2.0)
        assert H.shape == dH.shape == (4,)
        assert dH[2] == sf.hankel_out_dr(2, 1.0, 2.0)

    @pytest.mark.parametrize("L,r", [(-1, 1.0), (2, 0.0)])
    def test_domain(self, L, r):
        with pytest.raises(sf.DomainError):
            sf._hankel_out_pair(L, 1.0, r)

    @pytest.mark.parametrize("L", [0, 1, 3, 10])
    @pytest.mark.parametrize("k, r", [
        (1.0, 2.0),
        (np.array([1.0, 1.5])[:, None, None], np.linspace(0.3, 3.0, 64)),
        (np.array([1.0, 1.5, 2.0]), np.array([0.4, 1.0, 2.2])),
    ])
    def test_bitwise_one_table_of_one_degree_more(self, L, k, r):
        # dH_0/dr = i*k*H_1, dH_ell/dr = k*(i*H_{ell-1} - (ell+1)/(k*r)*H_ell)
        H, dH = sf._hankel_out_pair(L, k, r)
        T, kr = sf.hankel_out_table(L + 1, k, r), k * np.asarray(r, dtype=float)
        step = np.arange(2, L + 2).reshape((L,) + (1,) * kr.ndim) / kr * T[1 : L + 1]
        assert np.array_equal(H, sf.hankel_out_table(L, k, r))
        assert np.array_equal(dH, k * np.concatenate([1j * T[1:2], 1j * T[:L] - step]))

    @pytest.mark.parametrize("L, k, r", [
        (3, 1.0, 0.0), (3, 1.0, np.array([1.0, -0.5])), (3, 1.0, math.nan),
        (3, 1.0, np.array([1.0, math.nan])), (3, 0.0, 1.0), (3, np.array([1.0, -1.0]), 1.0),
        (3, math.nan, 1.0), (-1, 1.0, 1.0),
    ])
    def test_refuses_what_the_table_refuses(self, L, k, r):
        with pytest.raises(sf.DomainError) as table:
            sf.hankel_out_table(L, k, r)
        with pytest.raises(sf.DomainError, match=re.escape(str(table.value))):
            sf._hankel_out_pair(L, k, r)
