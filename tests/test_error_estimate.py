"""The boundary residual bounds the far-field error.

MRC gives an error estimate for the direct problem: the relative boundary
residual of a solution bounds its error.  The far field's harmonics are
orthonormal, so its relative L2 error is the relative coefficient error
||c_L - c_ref|| / ||c_ref||, with c_L zero beyond degree L.  These tests check
that error <= C * relative residual with C = 1 at every fixed degree L, for the
sphere against the exact solution and for other shapes against a deeper solve
of the same shape.  The largest ratio on these cases is 0.96 for the sphere
(a = 0.7, k = 5, L = 1) and 0.32 for the other shapes (at L = 1; below 0.06
from L = 4).
"""

import numpy as np
import pytest

from mrcscatter.direct_solver import WaveContext, mrc_solve
from mrcscatter.geometry import Direction, Ellipsoid, PerturbedSphere, Sphere
from mrcscatter.sphere_oracle import sphere_scattering_coeffs

C = 1.0


def solve_at(surface, ctx, bc, L):
    """The solution at degree L alone (no target is met, so none is sought)."""
    return mrc_solve(surface, ctx, bc, eps_target=1e-300, L_start=L, L_max=L)


def relative_error(coeffs, ref):
    err = ref.copy()
    err[: coeffs.size] -= coeffs
    return np.linalg.norm(err) / np.linalg.norm(ref)


@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
@pytest.mark.parametrize("a, k", [(1.0, 1.0), (1.0, 3.0), (0.7, 5.0)])
def test_sphere_error_is_bounded_by_the_residual(a, k, bc):
    ctx = WaveContext(k, Direction(0.9, 0.3))
    ref = sphere_scattering_coeffs(a, ctx, 30, bc).coeffs
    for L in range(1, 13):
        sol = solve_at(Sphere(a), ctx, bc, L)
        assert relative_error(sol.coefficients.coeffs, ref) <= C * sol.residual, L


@pytest.mark.parametrize("surface, bc, L_ref", [
    (PerturbedSphere(1.0, [(2, 0, 0.2)]), "dirichlet", 24),
    (PerturbedSphere(1.0, [(2, 0, 0.2)]), "neumann", 24),
    (Ellipsoid(1.0, 0.95, 0.9), "dirichlet", 18),  # mirror-symmetric: the parity split
    (PerturbedSphere(1.0, [(2, 1, 0.15)]), "dirichlet", 20),  # the unsplit dense system
], ids=["bump20-D", "bump20-N", "ellipsoid95-D", "bump21-D"])
def test_shape_error_is_bounded_by_the_residual(surface, bc, L_ref):
    ctx = WaveContext(1.0, Direction(0.6, 0.4))
    deep = solve_at(surface, ctx, bc, L_ref)
    ref = deep.coefficients.coeffs
    for L in range(1, 11):
        sol = solve_at(surface, ctx, bc, L)
        # by the same bound the reference's own error is below 1% of the residual
        assert deep.residual < 1e-2 * sol.residual
        assert relative_error(sol.coefficients.coeffs, ref) <= C * sol.residual, L
