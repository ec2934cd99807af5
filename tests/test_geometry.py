"""Surfaces, quadrature, surface element, normals."""

import math
import re

import numpy as np
import pytest

from mrcscatter import geometry
from mrcscatter import specfun as sf
from mrcscatter.geometry import (
    Direction,
    Ellipsoid,
    PerturbedSphere,
    Sphere,
    SurfaceError,
    _normal_from_map,
    fibonacci_directions,
    make_quadrature,
    outward_normal,
    quadrature_for_degree,
    surface_element,
    surface_from_descriptor,
)

# w = f*sqrt(f^2 + f_theta^2) for f = 1 + 0.2*P2(cos theta), evaluated
# symbolically (sympy): w(pi/3) = 117*sqrt(181)/1600, w(pi/2) = 81/100
W_PERTURBED_PI3 = 0.983796258442265
W_PERTURBED_PI2 = 0.81


class TestQuadrature:
    def test_weights_sum_to_sphere_area(self):
        q = make_quadrature(12, 24)
        assert abs(np.sum(q.weights) - 4 * math.pi) < 1e-13 * 4 * math.pi

    def test_integrate_constant(self):
        q = make_quadrature(8, 16)
        assert q.integrate(np.ones(len(q))) == pytest.approx(4 * math.pi, abs=1e-13)

    def test_unit_norm_of_harmonic(self):
        q = make_quadrature(8, 16)
        y = sf.sph_harm_table(3, q.theta, q.phi)[:, sf.mode_index(3, 2)]
        assert q.integrate(np.abs(y) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonality(self):
        q = make_quadrature(8, 16)
        a = sf.sph_harm_table(3, q.theta, q.phi)
        val = q.inner(a[:, sf.mode_index(2, 1)], a[:, sf.mode_index(3, 1)])
        assert abs(val) < 1e-12

    def test_gram_identity_up_to_half_degree(self):
        q = quadrature_for_degree(20)
        L = q.degree // 2
        Y = sf.sph_harm_table(L, q.theta, q.phi)
        G = (Y.conj().T * q.weights) @ Y
        assert np.max(np.abs(G - np.eye(sf.n_modes(L)))) < 1e-10

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            make_quadrature(1, 16)
        with pytest.raises(ValueError):
            make_quadrature(8, 3)


class TestSurfaceElement:
    def test_sphere_is_radius_squared(self):
        s = Sphere(2.0)
        q = make_quadrature(6, 12)
        np.testing.assert_allclose(surface_element(s, q.theta, q.phi), 4.0, rtol=0, atol=0)

    def test_sphere_area(self):
        s = Sphere(1.0)
        q = make_quadrature(10, 20)
        area = np.sum(q.weights * surface_element(s, q.theta, q.phi))
        assert area == pytest.approx(4 * math.pi, rel=1e-12)

    def test_perturbed_sphere_symbolic_values(self):
        s = PerturbedSphere(1.0, [(2, 0, 0.2)])
        w = surface_element(s, np.array([math.pi / 3, math.pi / 2]), np.zeros(2))
        assert w[0] == pytest.approx(W_PERTURBED_PI3, rel=1e-12)
        assert w[1] == pytest.approx(W_PERTURBED_PI2, rel=1e-12)

    def test_axisymmetric_phi_invariance(self):
        s = PerturbedSphere(1.0, [(3, 0, 0.1)])
        th = np.full(8, 1.2)
        ph = np.linspace(0, 2 * math.pi, 8, endpoint=False)
        w = surface_element(s, th, ph)
        assert np.max(np.abs(w - w[0])) < 1e-13

    def test_pole_is_fine_for_smooth_axisymmetric_surface(self):
        s = PerturbedSphere(1.0, [(2, 0, 0.2)])
        w = surface_element(s, np.array([0.0]), np.array([0.0]))
        f = 1.2  # pole value of the radial map
        assert w[0] == pytest.approx(f * f, rel=1e-12)


class TestOutwardNormal:
    def test_sphere_normal_is_radial(self):
        s = Sphere(1.5)
        th = np.array([0.4, 1.1, 2.8])
        ph = np.array([0.0, 2.0, 5.5])
        n = outward_normal(s, th, ph)
        expect = np.stack(
            [np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)], axis=-1
        )
        np.testing.assert_allclose(n, expect, rtol=0, atol=1e-15)

    def test_star_shaped_normal_points_outward(self):
        s = PerturbedSphere(1.0, [(2, 0, 0.2)])
        q = make_quadrature(10, 20)
        n = outward_normal(s, q.theta, q.phi)
        radial = np.stack(
            [np.sin(q.theta) * np.cos(q.phi), np.sin(q.theta) * np.sin(q.phi), np.cos(q.theta)],
            axis=-1,
        )
        assert np.min(np.sum(n * radial, axis=-1)) > 0.0

    def test_against_level_set_gradient(self):
        # independent oracle: finite-difference gradient of F(x) = |x| - f(x/|x|)
        s = PerturbedSphere(1.0, [(2, 0, 0.2), (3, 2, 0.1)])
        th0, ph0 = 1.0, 0.7

        def F(x):
            r = np.linalg.norm(x)
            d = Direction.from_vector(x)
            return r - float(s.radius(np.array([d.theta]), np.array([d.phi]))[0])

        p0 = s.boundary_points(np.array([th0]), np.array([ph0]))[0]
        g = np.zeros(3)
        for i in range(3):
            e = np.zeros(3)
            e[i] = 1e-6
            g[i] = (F(p0 + e) - F(p0 - e)) / 2e-6
        g /= np.linalg.norm(g)
        n = outward_normal(s, np.array([th0]), np.array([ph0]))[0]
        assert math.acos(min(1.0, float(np.dot(g, n)))) < 1e-6


class TestSurfaces:
    def test_perturbed_amplitude_is_peak_deviation(self):
        s = PerturbedSphere(1.0, [(3, 2, 0.15)])
        th = np.linspace(0, math.pi, 2001)
        vals = s.radius(th, np.zeros_like(th))
        assert np.max(np.abs(vals - 1.0)) == pytest.approx(0.15, rel=1e-5)

    def test_positivity_guard(self):
        with pytest.raises(SurfaceError):
            PerturbedSphere(1.0, [(2, 0, 0.6), (4, 1, 0.5)])

    def test_invalid_bump_mode(self):
        with pytest.raises(SurfaceError):
            PerturbedSphere(1.0, [(2, 3, 0.1)])

    def test_partials_match_finite_differences(self):
        h = 1e-6
        for s in [
            PerturbedSphere(1.0, [(2, 0, 0.2), (3, -2, 0.1)]),
            Ellipsoid(1.0, 1.5, 2.0),
        ]:
            th, ph = np.array([1.1]), np.array([0.8])
            fd_t = (s.radius(th + h, ph) - s.radius(th - h, ph)) / (2 * h)
            fd_p = (s.radius(th, ph + h) - s.radius(th, ph - h)) / (2 * h)
            assert abs(s.radius_dtheta(th, ph) - fd_t) < 1e-9
            assert abs(s.radius_dphi(th, ph) - fd_p) < 1e-9

    def test_ellipsoid_semi_axes(self):
        e = Ellipsoid(1.0, 1.5, 2.0)
        assert e.radius(np.array([0.0]), np.array([0.0]))[0] == pytest.approx(2.0)
        assert e.radius(np.array([math.pi / 2]), np.array([0.0]))[0] == pytest.approx(1.0)
        assert e.radius(np.array([math.pi / 2]), np.array([math.pi / 2]))[0] == pytest.approx(1.5)

    @pytest.mark.parametrize("axes, message", [
        # radial_map divides by each square: 1e200 squares to inf, 1e-170 to 0
        ((1e200, 1.0, 1.0), "semi-axis 1e+200 squares to inf, not a positive finite float"),
        ((1.0, 1e-170, 1.0), "semi-axis 1e-170 squares to 0.0, not a positive finite float"),
        ((1, 1, 10**200), f"semi-axis {10**200} squares to inf, not a positive finite float"),
        ((1.0, 1.0, -1e200), "all semi-axes must be > 0"),  # the sign guard comes first
    ])
    def test_ellipsoid_refuses_a_semi_axis_whose_square_leaves_float_range(self, axes, message):
        with pytest.raises(SurfaceError, match=re.escape(message)):
            Ellipsoid(*axes)

    def test_ellipsoid_at_the_edge_of_float_range_reads_finite(self):
        e = Ellipsoid(1e150, 1e-150, 1.0)
        f = e.radial_map(np.array([0.3, 1.2]), np.array([0.5, 2.0]))[0]
        assert np.isfinite(f).all() and (f > 0).all()

    def test_degenerate_ellipsoid_is_sphere(self):
        e = Ellipsoid(1.3, 1.3, 1.3)
        q = make_quadrature(6, 12)
        np.testing.assert_allclose(
            surface_element(e, q.theta, q.phi), 1.3 * 1.3, rtol=1e-14
        )

    def test_descriptor_round_trip(self):
        for s in [
            Sphere(2.0),
            PerturbedSphere(1.0, [(2, 0, 0.2), (3, -1, 0.05)]),
            Ellipsoid(1.0, 1.5, 2.0),
        ]:
            s2 = surface_from_descriptor(s.descriptor())
            q = make_quadrature(5, 10)
            np.testing.assert_allclose(
                s2.radius(q.theta, q.phi), s.radius(q.theta, q.phi), rtol=0, atol=0
            )

    def test_unknown_descriptor_rejected(self):
        with pytest.raises(SurfaceError):
            surface_from_descriptor({"type": "torus"})

    def test_rotated_z_matches_shifted_azimuth(self):
        s = PerturbedSphere(1.0, [(3, 2, 0.15), (2, -1, 0.05)])
        gamma = 0.7
        rot = s.rotated_z(gamma)
        th = np.array([0.3, 1.0, 2.0])
        ph = np.array([0.1, 1.3, 5.0])
        np.testing.assert_allclose(
            rot.radius(th, ph), s.radius(th, ph - gamma), rtol=0, atol=1e-15
        )


class TestDirections:
    def test_from_vector_round_trip(self):
        rng = np.random.default_rng(5)
        for v in rng.standard_normal((10, 3)):
            d = Direction.from_vector(v)
            np.testing.assert_allclose(d.vector, v / np.linalg.norm(v), atol=1e-14)

    def test_vector_is_unit(self):
        d = Direction(1.234, 4.56)
        assert abs(np.linalg.norm(d.vector) - 1.0) < 1e-14

    def test_invalid_theta(self):
        with pytest.raises(ValueError):
            Direction(-0.1, 0.0)

    def test_fibonacci_count_and_unit_norm(self):
        dirs = fibonacci_directions(50)
        assert len(dirs) == 50
        for d in dirs:
            assert abs(np.linalg.norm(d.vector) - 1.0) < 1e-14


def test_quadrature_for_degree_is_built_once_with_read_only_nodes():
    quad = quadrature_for_degree(23)
    assert quadrature_for_degree(23) is quad
    assert quadrature_for_degree(24) is not quad
    for nodes in (quad.theta, quad.phi, quad.weights, quad.theta_axis, quad.phi_axis):
        assert not nodes.flags.writeable
        with pytest.raises(ValueError):
            nodes[0] = 0.0
    fresh = make_quadrature(quad.n_theta, quad.n_phi)
    np.testing.assert_array_equal(quad.weights, fresh.weights)
    assert fresh.weights.flags.writeable


def test_gauss_legendre_nodes_are_computed_once_per_count():
    geometry._leggauss.cache_clear()
    first, again = make_quadrature(7, 12), make_quadrature(7, 16)
    assert geometry._leggauss.cache_info()[:2] == (1, 1)  # one hit, one miss
    x, w = np.polynomial.legendre.leggauss(7)
    for quad, n_phi in ((first, 12), (again, 16)):
        # each rule owns fresh, writable arrays, bitwise those of an uncached build
        np.testing.assert_array_equal(quad.theta_axis, np.arccos(x))
        np.testing.assert_array_equal(quad.weights, np.repeat(w * (2.0 * math.pi / n_phi), n_phi))
        assert quad.theta.flags.writeable and quad.weights.flags.writeable
    for cached in geometry._leggauss(7):
        with pytest.raises(ValueError, match="read-only"):
            cached[0] = 0.0
    first.theta[0] = 0.0  # a rule's nodes are its own
    np.testing.assert_array_equal(make_quadrature(7, 12).theta_axis, np.arccos(x))


def test_check_aliasing_needs_twice_the_transform_degree():
    quad = make_quadrature(5, 10)  # exact to degree 9
    quad.check_aliasing(4)
    with pytest.raises(ValueError, match="aliasing"):
        quad.check_aliasing(5)


def test_check_aliasing_refuses_a_negative_degree():
    with pytest.raises(ValueError, match="truncation degree must be >= 0, got L=-1"):
        make_quadrature(5, 10).check_aliasing(-1)


@pytest.mark.parametrize("bump", [(2.7, 0, 0.1), (2, 1.9, 0.1), (math.nan, 0, 0.1), (2, math.inf, 0.1)])
def test_perturbed_sphere_refuses_a_non_integral_degree_or_order(bump):
    with pytest.raises(SurfaceError, match=rf"bump \({bump[0]}, {bump[1]}, 0.1\): degree and order"):
        PerturbedSphere(1.0, [(3, 1, 0.1), bump])


def test_perturbed_sphere_reads_integral_floats_as_integers():
    s = PerturbedSphere(1.0, [(2.0, -1.0, 0.1), (np.float64(3), np.int64(2), 0.05)])
    assert s.bumps == ((2, -1, 0.1), (3, 2, 0.05))
    assert s == PerturbedSphere(1.0, [(2, -1, 0.1), (3, 2, 0.05)])


def test_normal_refuses_a_nonzero_azimuthal_partial_at_a_pole():
    theta = np.array([0.0, 1.0])
    f, ft = np.ones(2), np.zeros(2)
    _normal_from_map(theta, f, ft, np.array([1e-13, 0.5]))  # within rounding of zero
    with pytest.raises(SurfaceError, match="nonzero f_phi at a pole"):
        _normal_from_map(theta, f, ft, np.array([1e-3, 0.5]))


def test_zero_vector_has_no_direction():
    with pytest.raises(ValueError, match="zero vector has no direction"):
        Direction.from_vector([0.0, 0.0, 0.0])
