"""One escalation step of ``mrc_solve``: the boundary system it builds from
one surface read per block of four steps, and the solve at the kept step.

The reference system below is built the way the solver built it before it
read the surface once per step: the weight from ``surface_element``, the
columns from ``radius``, the normal and the three pointwise harmonic tables,
the incident data from ``boundary_points`` and ``outward_normal``.  The
solver's A and b must equal it bitwise.
"""

import numpy as np
import pytest

from mrcscatter import direct_solver
from mrcscatter import specfun as sf
from mrcscatter.direct_solver import WaveContext, mrc_solve, solve_least_squares
from mrcscatter.geometry import (
    Direction,
    Ellipsoid,
    PerturbedSphere,
    _normal_from_map,
    outward_normal,
    surface_element,
)


class CountingSurface(PerturbedSphere):
    def __init__(self, *args):
        super().__init__(*args)
        self.evaluations = 0

    def radial_map(self, theta, phi):
        self.evaluations += 1
        return super().radial_map(theta, phi)


def reference_system(surface, quad, ctx, L, bc):
    th, ph = quad.theta, quad.phi
    ells = sf.mode_degrees(L)
    f = surface.radius(th, ph)
    H = sf.hankel_out_table(L, ctx.k, f)
    scale = np.sqrt(quad.weights * surface_element(surface, th, ph))
    u0 = np.exp(1j * ctx.k * surface.boundary_points(th, ph) @ ctx.alpha.vector)
    if bc == "dirichlet":
        return scale[:, None] * (sf.sph_harm_table(L, th, ph) * H[ells].T), u0 * scale
    Hd = sf.hankel_out_dr_table(L, ctx.k, f)
    Y = sf.sph_harm_table(L, th, ph)
    dY = sf.sph_harm_dtheta_table(L, th, ph)
    pY = sf.sph_harm_dphi_over_sin_table(L, th, ph)
    nr, nt, nph = _normal_from_map(th, *surface.radial_map(th, ph))
    A = (nr * Hd)[ells].T * Y + (H / f)[ells].T * (nt[:, None] * dY + nph[:, None] * pY)
    b = 1j * ctx.k * (outward_normal(surface, th, ph) @ ctx.alpha.vector) * u0
    return scale[:, None] * A, b * scale


@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
def test_one_surface_read_per_step_and_the_same_system(bc, monkeypatch):
    surface = CountingSurface(1.0, [(2, 1, 0.15), (3, -2, 0.1)])
    ctx = WaveContext(1.3, Direction(0.7, 0.2))
    systems, factor = [], direct_solver._factor

    def recording(matrix, rhs, pairs):
        systems.append((matrix, rhs))
        return factor(matrix, rhs, pairs)

    monkeypatch.setattr(direct_solver, "_factor", recording)
    # an unreachable target runs every step from L_start to L_max
    sol = mrc_solve(surface, ctx, bc, eps_target=1e-300, L_start=2, L_max=7)
    assert [L for L, _ in sol.history] == list(range(2, 8)) and sol.coefficients.L == 7
    assert surface.evaluations == 2  # one read per block: L = 2..5 and 6..7
    monkeypatch.undo()
    # one system per rule: L = 2..6 share the degree-16 floor, built at its top L = 6
    assert len(systems) == 2
    for L, (A, b) in zip([6, 7], systems):
        quad = direct_solver.quadrature_for_degree(max(int(np.ceil(2.5 * L)), 2 * L, 16))
        A_ref, b_ref = reference_system(surface, quad, ctx, L, bc)
        assert A.flags.c_contiguous
        np.testing.assert_array_equal(A, A_ref[None])
        np.testing.assert_array_equal(b, b_ref.reshape(1, -1, 1))


@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
def test_public_step_helpers_build_the_same_system(bc):
    surface = Ellipsoid(1.0, 0.9, 0.7)
    ctx = WaveContext(0.8, Direction(1.1, 2.0))
    quad = direct_solver.quadrature_for_degree(14)
    scale = direct_solver._read_rules(surface, [quad], False)[2]
    A = direct_solver.assemble_basis_matrix(surface, quad, ctx, 6, bc)
    b = direct_solver.incident_trace(surface, quad, ctx, bc) * scale
    A_ref, b_ref = reference_system(surface, quad, ctx, 6, bc)
    np.testing.assert_array_equal(A, A_ref)
    np.testing.assert_array_equal(b, b_ref)


def test_rank_deficient_system_takes_the_minimum_norm_solution():
    # a repeated column makes the system exactly rank-deficient: the kept
    # step must drop the zero singular value and split the coefficient evenly
    rng = np.random.default_rng(11)
    a, c, rhs = (rng.standard_normal(8) + 1j * rng.standard_normal(8) for _ in range(3))
    matrix = np.column_stack([a, c, a])
    info = solve_least_squares(matrix, rhs)
    assert info.rank == 2
    expect = -np.linalg.pinv(matrix) @ rhs
    np.testing.assert_allclose(info.coeffs, expect, rtol=1e-12, atol=0)
    assert info.coeffs[0] == pytest.approx(info.coeffs[2], rel=1e-12)
    assert info.residual == pytest.approx(np.linalg.norm(matrix @ expect + rhs), rel=1e-12)


def test_full_rank_solve_matches_the_truncated_svd():
    rng = np.random.default_rng(12)
    matrix = rng.standard_normal((40, 12)) + 1j * rng.standard_normal((40, 12))
    matrix[:, 3] *= 1e3  # unequal column norms: the scaling must be undone
    rhs = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    info = solve_least_squares(matrix, rhs)
    # the singular-vector solve on the same R factor
    R, norms = direct_solver._factor(matrix, rhs[:, None])
    U, s, Vh = np.linalg.svd(R[:, :12], full_matrices=False)
    expect = -(Vh.conj().T @ ((U.conj().T @ R[:, 12]) / s)) / norms
    assert info.rank == 12
    assert np.max(np.abs(info.coeffs - expect)) <= 1e-13 * np.max(np.abs(expect))
    s = np.linalg.svd(matrix / np.linalg.norm(matrix, axis=0), compute_uv=False)
    assert info.condition == pytest.approx(s[0] / s[-1], rel=1e-12)
