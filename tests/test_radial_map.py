"""Surfaces' one evaluation against the per-partial code it replaced.

``StarSurface.radial_map`` returns (f, df/dtheta, df/dphi) in one call.  The
classes below are the library's earlier implementations, which evaluated the
radius and each partial in a separate method, kept verbatim as references:
``radial_map`` must reproduce them bitwise, so that every normal, surface
element and downstream solve is unchanged.
"""

import math

import numpy as np
import pytest

from mrcscatter import specfun
from mrcscatter.direct_solver import WaveContext, mrc_solve
from mrcscatter.geometry import (
    Direction,
    Ellipsoid,
    PerturbedSphere,
    Sphere,
    outward_normal,
    quadrature_for_degree,
    surface_element,
)


class SphereReference:
    def __init__(self, surface):
        self.radius_value = surface.radius_value

    def radius(self, theta, phi):
        return np.full(np.broadcast(theta, phi).shape, self.radius_value)

    def radius_dtheta(self, theta, phi):
        return np.zeros(np.broadcast(theta, phi).shape)

    def radius_dphi(self, theta, phi):
        return np.zeros(np.broadcast(theta, phi).shape)


class PerturbedSphereReference:
    def __init__(self, surface):
        self.base_radius = surface.base_radius
        self.bumps = surface.bumps
        self._scales = surface._scales

    def _terms(self, theta, phi, d_dtheta=False, d_dphi=False):
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        phi = np.atleast_1d(np.asarray(phi, dtype=float))
        ct, st = np.cos(theta), np.sin(theta)
        out = np.zeros(np.broadcast(theta, phi).shape)
        for (ell, m, amp), peak in zip(self.bumps, self._scales):
            P = specfun._norm_legendre_table(ell, ct, st)
            if d_dtheta:
                rad = specfun._norm_legendre_dtheta_table(ell, P)[ell, abs(m)]
            else:
                rad = P[ell, abs(m)]
            if m == 0:
                az = np.zeros_like(phi) if d_dphi else np.ones_like(phi)
            elif m > 0:
                az = -m * np.sin(m * phi) if d_dphi else np.cos(m * phi)
            else:
                az = -m * np.cos(-m * phi) if d_dphi else np.sin(-m * phi)
            out = out + (amp / peak) * rad * az
        return out

    def radius(self, theta, phi):
        return self.base_radius + self._terms(theta, phi)

    def radius_dtheta(self, theta, phi):
        return self._terms(theta, phi, d_dtheta=True)

    def radius_dphi(self, theta, phi):
        return self._terms(theta, phi, d_dphi=True)


class EllipsoidReference:
    def __init__(self, surface):
        self.a, self.b, self.c = surface.a, surface.b, surface.c

    def _q(self, theta, phi):
        st, ct = np.sin(theta), np.cos(theta)
        u, v, w = st * np.cos(phi), st * np.sin(phi), ct
        return u, v, w, u * u / self.a**2 + v * v / self.b**2 + w * w / self.c**2

    def radius(self, theta, phi):
        theta = np.asarray(theta, dtype=float)
        phi = np.asarray(phi, dtype=float)
        _, _, _, q = self._q(theta, phi)
        return q**-0.5

    def radius_dtheta(self, theta, phi):
        theta = np.asarray(theta, dtype=float)
        phi = np.asarray(phi, dtype=float)
        st, ct = np.sin(theta), np.cos(theta)
        u, v, w, q = self._q(theta, phi)
        qt = 2.0 * (
            u * ct * np.cos(phi) / self.a**2
            + v * ct * np.sin(phi) / self.b**2
            - w * st / self.c**2
        )
        return -0.5 * q**-1.5 * qt

    def radius_dphi(self, theta, phi):
        theta = np.asarray(theta, dtype=float)
        phi = np.asarray(phi, dtype=float)
        st = np.sin(theta)
        u, v, _, q = self._q(theta, phi)
        qp = 2.0 * (-u * st * np.sin(phi) / self.a**2 + v * st * np.cos(phi) / self.b**2)
        return -0.5 * q**-1.5 * qp


REFERENCES = {Sphere: SphereReference, PerturbedSphere: PerturbedSphereReference,
              Ellipsoid: EllipsoidReference}

SURFACES = {
    "sphere": Sphere(1.3),
    "bump_m_positive": PerturbedSphere(1.0, [(3, 2, 0.2)]),
    "bump_m_negative": PerturbedSphere(1.0, [(2, -1, 0.15)]),
    "bump_m_zero": PerturbedSphere(1.0, [(2, 0, 0.2)]),
    "bumps_mixed": PerturbedSphere(1.0, [(3, 2, 0.1), (2, -1, 0.15), (4, 0, 0.05), (5, 5, 0.02)]),
    "ellipsoid_prolate": Ellipsoid(1.0, 1.5, 2.0),
    "ellipsoid_near_sphere": Ellipsoid(1.0, 0.95, 0.9),
}


def assert_bitwise(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", SURFACES)
def test_radial_map_matches_previous_methods_bitwise(name):
    surface = SURFACES[name]
    ref = REFERENCES[type(surface)](surface)
    quad = quadrature_for_degree(20)
    f, ft, fp = surface.radial_map(quad.theta, quad.phi)
    assert_bitwise(f, ref.radius(quad.theta, quad.phi))
    assert_bitwise(ft, ref.radius_dtheta(quad.theta, quad.phi))
    assert_bitwise(fp, ref.radius_dphi(quad.theta, quad.phi))


@pytest.mark.parametrize("name", SURFACES)
def test_accessors_read_the_radial_map(name):
    surface = SURFACES[name]
    theta, phi = np.array([0.0, 0.4, 1.1, math.pi]), np.array([0.3, 2.0, 0.8, 5.0])
    f, ft, fp = surface.radial_map(theta, phi)
    assert_bitwise(surface.radius(theta, phi), f)
    assert_bitwise(surface.radius_dtheta(theta, phi), ft)
    assert_bitwise(surface.radius_dphi(theta, phi), fp)


@pytest.mark.parametrize("name", SURFACES)
def test_radial_map_broadcasts_a_grid_of_angles(name):
    surface = SURFACES[name]
    theta, phi = np.linspace(0.0, math.pi, 7)[:, None], np.linspace(0.0, 6.0, 5)[None, :]
    grid_theta, grid_phi = np.broadcast_arrays(theta, phi)
    flat = surface.radial_map(grid_theta.ravel(), grid_phi.ravel())
    for part, ref in zip(surface.radial_map(theta, phi), flat):
        assert part.shape == (7, 5)
        np.testing.assert_array_equal(part.ravel(), ref)


def test_partials_of_a_positive_order_bump_match_central_differences():
    s = PerturbedSphere(1.0, [(3, 2, 0.2), (2, 1, 0.1)])
    h = 1e-6
    th, ph = np.array([0.3, 1.1, 2.5]), np.array([0.8, 2.9, 4.4])
    fd_t = (s.radius(th + h, ph) - s.radius(th - h, ph)) / (2 * h)
    fd_p = (s.radius(th, ph + h) - s.radius(th, ph - h)) / (2 * h)
    _, ft, fp = s.radial_map(th, ph)
    assert np.all(np.abs(fp) > 0.01)
    assert np.max(np.abs(ft - fd_t)) < 1e-9
    assert np.max(np.abs(fp - fd_p)) < 1e-9


class CountingSurface(PerturbedSphere):
    def __init__(self, *args):
        super().__init__(*args)
        self.evaluations = 0

    def radial_map(self, theta, phi):
        self.evaluations += 1
        return super().radial_map(theta, phi)


def test_normal_reads_the_radial_map_once():
    s = CountingSurface(1.0, [(2, 0, 0.2)])
    quad = quadrature_for_degree(10)
    outward_normal(s, quad.theta, quad.phi)
    assert s.evaluations == 1


def test_surface_element_reads_the_radial_map_once():
    s = CountingSurface(1.0, [(2, 0, 0.2)])
    quad = quadrature_for_degree(10)
    surface_element(s, quad.theta, quad.phi)
    assert s.evaluations == 1


@pytest.mark.parametrize("bc, most", [("dirichlet", 4), ("neumann", 6)])
def test_surface_evaluations_per_escalation_step(bc, most):
    s = CountingSurface(1.0, [(2, 0, 0.2)])
    mrc_solve(s, WaveContext(1.0, Direction(0.0, 0.0)), bc=bc, eps_target=1e-3, L_start=5, L_max=5)
    assert s.evaluations <= most


# Bump lists the single kernel call must sum exactly as the per-bump loop did.
BUMP_LISTS = {
    "no_bumps": [],
    "degree_zero": [(0, 0, 0.1)],
    "repeated_mode": [(3, 1, 0.1), (3, 1, -0.05), (2, 0, 0.1)],
    "negative_amplitudes": [(2, -2, -0.1), (4, 3, -0.07)],
    "six_mixed": [(6, -6, 0.05), (1, 1, -0.1), (0, 0, 0.02), (5, -3, 0.08), (6, 4, -0.03),
                  (4, -4, 0.1)],
}


@pytest.mark.parametrize("bumps", BUMP_LISTS.values(), ids=BUMP_LISTS)
def test_radial_map_of_any_bump_list_matches_the_per_bump_loop_bitwise(bumps):
    surface = PerturbedSphere(1.2, bumps)
    ref = PerturbedSphereReference(surface)
    quad = quadrature_for_degree(20)
    rng = np.random.default_rng(11)
    scattered = rng.uniform(0.0, math.pi, 41), rng.uniform(0.0, 2 * math.pi, 41)
    axis = quad.theta_axis, np.zeros(quad.n_theta)
    for theta, phi in ((quad.theta, quad.phi), scattered, axis):
        f, ft, fp = surface.radial_map(theta, phi)
        assert_bitwise(f, ref.radius(theta, phi))
        assert_bitwise(ft, ref.radius_dtheta(theta, phi))
        assert_bitwise(fp, ref.radius_dphi(theta, phi))
    # broadcast angles: the reference takes 1-D angles, so it reads the raveled grid
    theta, phi = np.linspace(0.0, math.pi, 7)[:, None], np.linspace(0.0, 6.0, 5)
    grid = [a.ravel() for a in np.broadcast_arrays(theta, phi)]
    for part, ref_part in zip(surface.radial_map(theta, phi),
                              (ref.radius(*grid), ref.radius_dtheta(*grid), ref.radius_dphi(*grid))):
        assert_bitwise(part.ravel(), ref_part)


def test_radial_map_builds_one_legendre_table_whatever_the_bump_count(monkeypatch):
    surface = SURFACES["bumps_mixed"]
    calls, table = [], specfun._norm_legendre_table

    def counting(L, ct, st):
        calls.append(L)
        return table(L, ct, st)

    monkeypatch.setattr(specfun, "_norm_legendre_table", counting)
    quad = quadrature_for_degree(20)
    surface.radial_map(quad.theta, quad.phi)
    assert len(surface.bumps) == 4 and calls == [5]


def test_partials_of_a_negative_order_bump_match_central_differences():
    s = PerturbedSphere(1.0, [(3, -2, 0.2), (2, -1, 0.1), (4, -4, 0.05)])
    h = 1e-6
    th, ph = np.array([0.3, 1.1, 2.5]), np.array([0.8, 2.9, 4.4])
    fd_t = (s.radius(th + h, ph) - s.radius(th - h, ph)) / (2 * h)
    fd_p = (s.radius(th, ph + h) - s.radius(th, ph - h)) / (2 * h)
    _, ft, fp = s.radial_map(th, ph)
    assert np.all(np.abs(fp) > 0.01)
    assert np.max(np.abs(ft - fd_t)) < 1e-9
    assert np.max(np.abs(fp - fd_p)) < 1e-9
