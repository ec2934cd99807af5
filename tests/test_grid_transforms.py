"""Harmonic transforms on the tensor-product quadrature grid.

On the grid, Y[ell, m] at node (i, j) is the product of a Legendre factor on
the polar axis and an azimuth factor on the azimuthal axis.  The grid mode
matrix (basis assembly) must be bitwise the pointwise tables on the same
nodes; projection and synthesis, which never build it, must agree with the
dense (nodes x modes) formulas to rounding.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mrcscatter import fields
from mrcscatter import specfun as sf
from mrcscatter.direct_solver import CoefficientSet, WaveContext
from mrcscatter.geometry import Direction, SphereQuadrature, make_quadrature

GRIDS = [(1, 1), (2, 4), (3, 7), (8, 16), (11, 21), (24, 48)]


def grid_quad(n_theta, n_phi):
    """A quadrature's node layout for any grid size (1 x 1 included); the
    weights are the Gauss-Legendre x uniform ones where those exist."""
    if n_theta >= 2 and n_phi >= 4:
        return make_quadrature(n_theta, n_phi)
    theta = np.arccos(np.linspace(0.8, -0.6, n_theta))
    phi = 2 * math.pi * np.arange(n_phi) / n_phi + 0.3
    return SphereQuadrature(
        theta=np.repeat(theta, n_phi),
        phi=np.tile(phi, n_theta),
        weights=np.full(n_theta * n_phi, 4 * math.pi / (n_theta * n_phi)),
        degree=0,
        n_theta=n_theta,
        n_phi=n_phi,
    )


def grid_tables(L, quad):
    P, E = sf._harmonic_factors(L, quad.theta_axis, quad.phi_axis)
    Y = sf._grid_modes(L, P, E)
    dY = sf._grid_modes(L, sf._norm_legendre_dtheta_table(L, P), E)
    return Y, dY, sf._dphi_over_sin(L, quad.theta, Y)


@pytest.mark.parametrize("n_theta, n_phi", GRIDS)
def test_grid_tables_are_bitwise_the_pointwise_tables(n_theta, n_phi):
    quad = grid_quad(n_theta, n_phi)
    for L in range(21):
        Y, dY, pY = grid_tables(L, quad)
        assert Y.flags.c_contiguous
        np.testing.assert_array_equal(Y, sf.sph_harm_table(L, quad.theta, quad.phi))
        np.testing.assert_array_equal(dY, sf.sph_harm_dtheta_table(L, quad.theta, quad.phi))
        np.testing.assert_array_equal(pY, sf.sph_harm_dphi_over_sin_table(L, quad.theta, quad.phi))


def test_grid_harmonics_follow_the_condon_shortley_convention():
    # an independent reference: scipy's Y for every order, negative ones included
    from scipy.special import sph_harm_y

    L, quad = 6, make_quadrature(7, 13)
    Y = grid_tables(L, quad)[0]
    for ell in range(L + 1):
        for m in range(-ell, ell + 1):
            ref = sph_harm_y(ell, m, quad.theta, quad.phi)
            np.testing.assert_allclose(Y[:, sf.mode_index(ell, m)], ref, rtol=0, atol=1e-13)


def test_projection_of_x_has_opposite_signs_on_orders_plus_and_minus_one():
    # sin(theta) cos(phi) = sqrt(2 pi / 3) * (Y[1, -1] - Y[1, 1])
    quad = make_quadrature(4, 8)
    x = np.sin(quad.theta) * np.cos(quad.phi)
    c = fields.project_far_field(x, quad, 2)
    expect = np.zeros(9, dtype=complex)
    expect[sf.mode_index(1, -1)] = math.sqrt(2 * math.pi / 3)
    expect[sf.mode_index(1, 1)] = -math.sqrt(2 * math.pi / 3)
    np.testing.assert_allclose(c.coeffs, expect, rtol=0, atol=1e-14)


def relative_gap(got, ref):
    return np.max(np.abs(got - ref)) / max(np.max(np.abs(ref)), 1e-300)


@settings(max_examples=40, deadline=None)
@given(
    L=st.integers(0, 12),
    extra=st.tuples(st.integers(0, 5), st.integers(0, 9)),
    seed=st.integers(0, 2**32 - 1),
)
def test_projection_matches_the_dense_formula(L, extra, seed):
    # the smallest grids exact to degree 2L, and larger ones
    quad = make_quadrature(max(2, L + 1 + extra[0]), max(4, 2 * L + 1 + extra[1]))
    rng = np.random.default_rng(seed)
    samples = rng.standard_normal(len(quad)) + 1j * rng.standard_normal(len(quad))
    Y = sf.sph_harm_table(L, quad.theta, quad.phi)
    dense = (Y.conj() * quad.weights[:, None]).T @ samples
    assert relative_gap(fields.project_far_field(samples, quad, L).coeffs, dense) <= 1e-13


@settings(max_examples=40, deadline=None)
@given(
    L=st.integers(0, 14),
    grid=st.tuples(st.integers(2, 20), st.integers(4, 40)),
    R=st.floats(1.0, 6.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_synthesis_matches_the_dense_formula(L, grid, R, seed):
    quad = make_quadrature(*grid)
    rng = np.random.default_rng(seed)
    n = sf.n_modes(L)
    coeffs = CoefficientSet(L, rng.standard_normal(n) + 1j * rng.standard_normal(n))
    ctx = WaveContext(1.3, Direction(0.4, 1.0))
    Y = sf.sph_harm_table(L, quad.theta, quad.phi)
    H = sf.hankel_out_table(L, ctx.k, R)
    dense = (Y * H[sf.mode_degrees(L)]) @ coeffs.coeffs
    assert relative_gap(fields.field_on_sphere(coeffs, ctx, R, quad), dense) <= 1e-13


def test_quadrature_exposes_its_axes():
    quad = make_quadrature(5, 9)
    x, _ = np.polynomial.legendre.leggauss(5)
    np.testing.assert_array_equal(quad.theta_axis, np.arccos(x))
    np.testing.assert_array_equal(quad.phi_axis, 2 * math.pi * np.arange(9) / 9)


@pytest.mark.parametrize("broken", ["shuffled", "phi_major", "wrong_count", "short_weights"])
def test_non_grid_quadrature_is_rejected(broken):
    q = make_quadrature(4, 8)
    theta, phi, weights, n_theta = q.theta, q.phi, q.weights, q.n_theta
    if broken == "shuffled":
        order = np.random.default_rng(0).permutation(len(q))
        theta, phi, weights = theta[order], phi[order], weights[order]
    elif broken == "phi_major":
        theta = np.tile(q.theta_axis, q.n_phi)
        phi = np.repeat(q.phi_axis, q.n_theta)
    elif broken == "wrong_count":
        n_theta = 3
    else:
        weights = weights[:-1]
    with pytest.raises(ValueError, match="grid"):
        SphereQuadrature(theta, phi, weights, q.degree, n_theta, q.n_phi)
