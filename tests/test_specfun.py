"""Special-function layer: values against independent oracles and identities."""

import cmath
import math

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

    def test_domain_errors(self):
        with pytest.raises(sf.DomainError):
            sf.hankel_out(0, -1.0, 1.0)
        with pytest.raises(sf.DomainError):
            sf.hankel_out(0, 1.0, 0.0)


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
