"""Checks on non-spherical obstacles that need no closed form.

The optical theorem, 4 pi / k Im A(alpha, alpha) = sum |c|^2, and
reciprocity, A(theta_hat, alpha) = A(-alpha, -theta_hat), hold for the exact
far field of a soft or hard obstacle.  A truncated solve misses them by the
order of its boundary residual, so each is checked to a relative error no
larger than the solve's own residual.  A sign or normalization slip in the
Neumann basis or in the least-squares solve would break them at order one.

Rotating the obstacle by gamma about z and the incidence azimuth with it
rotates the scattered field, which multiplies coefficient (ell, m) by
exp(-i*m*gamma).  On a surface of revolution the rotated solve reads the same
boundary, so the phase holds to rounding; that pins which order, m or -m,
each coefficient of the per-order solve is filed under.  On a general surface the rotated
shape meets the quadrature grid differently and the phase holds to the
discretization error only.
"""

import math

import numpy as np
import pytest

from mrcscatter import specfun as sf
from mrcscatter.direct_solver import WaveContext, mrc_solve
from mrcscatter.fields import far_field_amplitude
from mrcscatter.geometry import Direction, Ellipsoid, PerturbedSphere

K = 1.0
ALPHA = Direction(1.1, 0.3)
THETA_HAT = Direction(2.0, 4.0)


def antipode(d: Direction) -> Direction:
    return Direction.from_vector(-d.vector)


def amplitude(sol, d: Direction) -> complex:
    return far_field_amplitude(sol.coefficients, d.theta, d.phi)


@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
@pytest.mark.parametrize(
    "surface",
    [Ellipsoid(1.0, 0.95, 0.9), PerturbedSphere(1.0, [(2, 1, 0.15)])],
    ids=["ellipsoid", "perturbed_sphere"],
)
def test_optical_theorem_and_reciprocity(surface, bc):
    # only the Dirichlet ellipsoid converges; the others end at L_max with
    # residuals up to 1.5e-3, and the invariants still hold to them
    sol = mrc_solve(surface, WaveContext(K, ALPHA), bc, eps_target=1e-5, L_max=12)
    back = mrc_solve(surface, WaveContext(K, antipode(THETA_HAT)), bc, eps_target=1e-5, L_max=12)
    # a solve that is wrong at order one has a residual to match
    assert max(sol.residual, back.residual) < 1e-2

    scattered = float(np.sum(np.abs(sol.coefficients.coeffs) ** 2))
    optical = 4 * math.pi / K * amplitude(sol, ALPHA).imag
    assert abs(optical - scattered) <= sol.residual * scattered

    forward = amplitude(sol, THETA_HAT)
    reverse = amplitude(back, antipode(ALPHA))
    assert abs(forward - reverse) <= max(sol.residual, back.residual) * abs(forward)


@pytest.mark.parametrize("bc, eps", [("dirichlet", 1e-3), ("neumann", 1e-2)])
@pytest.mark.parametrize(
    "surface, tol",
    [
        (PerturbedSphere(1.0, [(2, 0, 0.2)]), 1e-12),
        (PerturbedSphere(1.0, [(2, 1, 0.15), (3, -2, 0.1)]), 1e-6),
    ],
    ids=["revolution", "general"],
)
def test_rotation_about_z_is_a_phase_per_order(surface, tol, bc, eps):
    gamma = 0.7
    sol = mrc_solve(surface, WaveContext(K, ALPHA), bc, eps_target=eps, L_max=16)
    turned = Direction(ALPHA.theta, ALPHA.phi + gamma)
    rot = mrc_solve(surface.rotated_z(gamma), WaveContext(K, turned), bc, eps_target=eps, L_max=16)
    assert sol.converged and rot.converged
    assert rot.coefficients.L == sol.coefficients.L
    c = sol.coefficients.coeffs
    expect = c * np.exp(-1j * sf.mode_orders(sol.coefficients.L) * gamma)
    assert np.max(np.abs(rot.coefficients.coeffs - expect)) <= tol * np.max(np.abs(c))
