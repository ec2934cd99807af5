"""Field evaluation, far-field amplitude, projections."""

import cmath
import math

import numpy as np
import pytest

from mrcscatter import fields, specfun as sf
from mrcscatter.direct_solver import CoefficientSet, WaveContext
from mrcscatter.geometry import Direction, make_quadrature, quadrature_for_degree
from mrcscatter.sphere_oracle import sphere_scattering_coeffs

CTX = WaveContext(1.0, Direction(0.4, 2.1))


def monopole(c0=1.0):
    return CoefficientSet(0, np.array([c0], dtype=complex))


class TestScatteredField:
    def test_monopole_closed_form(self):
        x = np.array([0.3, -1.2, 0.5])
        r = np.linalg.norm(x)
        expect = (1 / math.sqrt(4 * math.pi)) * cmath.exp(1j * CTX.k * r) / r
        assert fields.scattered_field(monopole(), CTX, x) == pytest.approx(expect, rel=1e-14)

    def test_oracle_coefficients_annihilate_boundary(self):
        c = sphere_scattering_coeffs(1.0, CTX, 25, "dirichlet")
        rng = np.random.default_rng(23)
        pts = rng.standard_normal((30, 3))
        pts /= np.linalg.norm(pts, axis=1)[:, None]
        assert np.max(np.abs(fields.total_field(c, CTX, pts))) < 1e-7

    def test_linearity(self):
        rng = np.random.default_rng(4)
        c1 = CoefficientSet(2, rng.standard_normal(9) + 1j * rng.standard_normal(9))
        c2 = CoefficientSet(2, rng.standard_normal(9) + 1j * rng.standard_normal(9))
        csum = CoefficientSet(2, c1.coeffs + c2.coeffs)
        x = np.array([1.5, 0.2, -0.7])
        v = fields.scattered_field(csum, CTX, x)
        v12 = fields.scattered_field(c1, CTX, x) + fields.scattered_field(c2, CTX, x)
        assert abs(v - v12) <= 1e-13 * max(1.0, abs(v))

    def test_total_is_incident_plus_scattered(self):
        c = sphere_scattering_coeffs(1.0, CTX, 8, "dirichlet")
        x = np.array([0.0, 1.1, 2.0])
        u0 = cmath.exp(1j * CTX.k * float(x @ CTX.alpha.vector))
        assert fields.total_field(c, CTX, x) == pytest.approx(
            u0 + fields.scattered_field(c, CTX, x), rel=1e-14
        )

    def test_origin_rejected(self):
        with pytest.raises(sf.DomainError):
            fields.scattered_field(monopole(), CTX, np.zeros(3))


class TestFarField:
    def test_single_mode_amplitude(self):
        c = CoefficientSet(2, np.zeros(9, dtype=complex))
        c.coeffs[sf.mode_index(2, 1)] = 0.7 - 0.2j
        d = Direction(1.0, 0.3)
        expect = (0.7 - 0.2j) * sf.sph_harm(2, 1, d.theta, d.phi)
        assert fields.far_field_amplitude(c, d.theta, d.phi) == pytest.approx(expect, rel=1e-14)

    def test_projection_round_trip(self):
        c = sphere_scattering_coeffs(1.0, CTX, 15, "dirichlet")
        quad = quadrature_for_degree(32)
        A = fields.far_field_amplitude(c, quad.theta, quad.phi)
        back = fields.project_far_field(A, quad, 15)
        assert np.max(np.abs(back.coeffs - c.coeffs)) < 1e-12

    def test_large_radius_limit(self):
        c = sphere_scattering_coeffs(1.0, CTX, 12, "dirichlet")
        d = Direction(1.2, 0.5)
        r = 1e6
        v = fields.scattered_field(c, CTX, r * d.vector)
        A = fields.far_field_amplitude(c, d.theta, d.phi)
        assert abs(r * cmath.exp(-1j * CTX.k * r) * v - A) / abs(A) < 1e-4

    def test_parseval(self):
        c = sphere_scattering_coeffs(1.0, CTX, 15, "dirichlet")
        quad = quadrature_for_degree(32)
        A = fields.far_field_amplitude(c, quad.theta, quad.phi)
        flux = float(np.sum(quad.weights * np.abs(A) ** 2))
        assert flux == pytest.approx(float(np.sum(np.abs(c.coeffs) ** 2)), rel=1e-12)

    def test_projection_rejects_underresolved_quadrature(self):
        quad = quadrature_for_degree(8)
        with pytest.raises(ValueError):
            fields.project_far_field(np.zeros(len(quad), dtype=complex), quad, 10)


class TestFieldOnSphere:
    def test_matches_pointwise_evaluation(self):
        c = sphere_scattering_coeffs(1.0, CTX, 10, "dirichlet")
        quad = make_quadrature(6, 12)
        R = 2.5
        batch = fields.field_on_sphere(c, CTX, R, quad)
        pts = R * quad.vectors
        np.testing.assert_allclose(batch, fields.scattered_field(c, CTX, pts), atol=1e-13)

    def test_zero_coefficients_give_zero_field(self):
        c = CoefficientSet(3, np.zeros(16, dtype=complex))
        quad = make_quadrature(4, 8)
        assert np.all(fields.field_on_sphere(c, CTX, 2.0, quad) == 0.0)

    def test_invalid_radius(self):
        c = monopole()
        with pytest.raises(ValueError):
            fields.field_on_sphere(c, CTX, 0.0, make_quadrature(4, 8))


class TestRadiationBehavior:
    def test_outgoing_proxy_decays(self):
        # |d_r v - i k v| * r falls off like 1/r: two decades shrink it by
        # 100x (up to the next-order correction), three decades by 1000x
        c = sphere_scattering_coeffs(1.0, CTX, 10, "dirichlet")
        d = Direction(1.2, 0.5)

        def proxy(r):
            x = r * d.vector
            return abs(
                fields.scattered_field_dr(c, CTX, x) - 1j * CTX.k * fields.scattered_field(c, CTX, x)
            ) * r

        p10, p1e3, p1e4 = proxy(10.0), proxy(1e3), proxy(1e4)
        assert p1e3 < 1.05e-2 * p10
        assert p1e4 < 1.05e-3 * p10


def test_project_far_field_refuses_a_negative_degree():
    quad = make_quadrature(6, 12)
    with pytest.raises(ValueError, match="truncation degree must be >= 0, got L=-1"):
        fields.project_far_field(np.zeros(len(quad), dtype=complex), quad, -1)
