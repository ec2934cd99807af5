"""Boundary collocation, truncated-SVD least squares, degree escalation."""

import cmath
import logging
import math
import time
import warnings

import numpy as np
import pytest

from mrcscatter import specfun as sf
from mrcscatter.direct_solver import (
    CoefficientSet,
    _basis_columns,
    _boundary_weight,
    WaveContext,
    assemble_basis_matrix,
    incident_trace,
    mrc_solve,
    solve_least_squares,
)
from mrcscatter.geometry import (
    Direction,
    PerturbedSphere,
    Sphere,
    SphereQuadrature,
    _normal_spherical_components,
    make_quadrature,
    quadrature_for_degree,
    surface_element,
)
from mrcscatter.sphere_oracle import sphere_scattering_coeffs

Z_HAT = Direction(0.0, 0.0)


def single_node_quad(theta, phi, degree=0):
    # degree is declarative; pass a large one to bypass the aliasing guard
    # for single-entry sanity checks
    return SphereQuadrature(
        theta=np.array([theta]),
        phi=np.array([phi]),
        weights=np.array([4 * math.pi]),
        degree=degree,
        n_theta=1,
        n_phi=1,
    )


class TestIncidentTrace:
    def test_small_k_limit_is_one(self):
        quad = make_quadrature(6, 12)
        tr = incident_trace(Sphere(1.0), quad, WaveContext(1e-10, Z_HAT), "dirichlet")
        assert np.max(np.abs(tr - 1.0)) < 1e-9

    def test_value_at_north_pole(self):
        quad = single_node_quad(0.0, 0.0)
        tr = incident_trace(Sphere(1.0), quad, WaveContext(1.0, Z_HAT), "dirichlet")
        assert tr[0] == pytest.approx(cmath.exp(1j), rel=1e-14)

    def test_neumann_vanishes_where_incidence_is_tangent(self):
        quad = single_node_quad(math.pi / 2, 0.3)
        tr = incident_trace(Sphere(1.0), quad, WaveContext(1.0, Z_HAT), "neumann")
        assert abs(tr[0]) < 1e-15


class TestAssembleBasisMatrix:
    def test_sphere_columns_orthogonal(self):
        a, k, L = 1.0, 1.0, 4
        quad = quadrature_for_degree(2 * L + 4)
        A = assemble_basis_matrix(Sphere(a), quad, WaveContext(k, Z_HAT), L, "dirichlet")
        G = A.conj().T @ A
        col_sq = np.abs(np.diag(G))
        off = np.abs(G - np.diag(np.diag(G)))
        assert np.max(off) < 1e-10 * np.max(col_sq)

    def test_entry_matches_product(self):
        quad = single_node_quad(0.9, 1.4, degree=99)
        a, k = 1.3, 0.8
        A = assemble_basis_matrix(Sphere(a), quad, WaveContext(k, Z_HAT), 3, "dirichlet")
        i = sf.mode_index(2, -1)
        expect = (
            math.sqrt(4 * math.pi * a * a)
            * sf.sph_harm(2, -1, 0.9, 1.4)
            * sf.hankel_out(2, k, a)
        )
        assert A[0, i] == pytest.approx(expect, rel=1e-14)

    def test_neumann_sphere_column_norm(self):
        # on a sphere the normal is radial, so each column's norm is
        # a * |d/dr hankel_out| by orthonormality of the harmonics
        a, k, L = 1.2, 1.4, 3
        quad = quadrature_for_degree(2 * L + 6)
        A = assemble_basis_matrix(Sphere(a), quad, WaveContext(k, Z_HAT), L, "neumann")
        for ell in range(L + 1):
            for m in (-ell, 0, ell):
                norm = np.linalg.norm(A[:, sf.mode_index(ell, m)])
                assert norm == pytest.approx(a * abs(sf.hankel_out_dr(ell, k, a)), rel=1e-10)

    def test_neumann_columns_match_separate_harmonic_tables(self):
        # one Legendre and one azimuth table give bitwise the matrix built
        # from the three public harmonic tables
        surface = PerturbedSphere(1.0, [(2, 1, 0.15), (3, -2, 0.1)])
        quad = quadrature_for_degree(14)
        ctx, L = WaveContext(1.3, Direction(0.7, 0.2)), 6
        ells = sf.mode_degrees(L)
        f = surface.radius(quad.theta, quad.phi)
        H = sf.hankel_out_table(L, ctx.k, f)
        Hd = sf.hankel_out_dr_table(L, ctx.k, f)
        Y = sf.sph_harm_table(L, quad.theta, quad.phi)
        dY = sf.sph_harm_dtheta_table(L, quad.theta, quad.phi)
        pY = sf.sph_harm_dphi_over_sin_table(L, quad.theta, quad.phi)
        nr, nt, nph = _normal_spherical_components(surface, quad.theta, quad.phi)
        ref = (nr * Hd)[ells].T * Y + (H / f)[ells].T * (nt[:, None] * dY + nph[:, None] * pY)
        np.testing.assert_array_equal(_basis_columns(surface, quad, ctx, L, "neumann"), ref)

    def test_rejects_underresolved_quadrature(self):
        quad = quadrature_for_degree(8)
        with pytest.raises(ValueError, match="aliasing"):
            assemble_basis_matrix(Sphere(1.0), quad, WaveContext(1.0, Z_HAT), 5, "dirichlet")


class TestSolveLeastSquares:
    def test_identity_system(self):
        b = np.array([1.0 + 2j, -0.5j, 3.0])
        info = solve_least_squares(np.eye(3, dtype=complex), b)
        np.testing.assert_allclose(info.coeffs, -b, atol=1e-14)
        assert info.residual < 1e-14
        assert info.rank == 3

    def test_against_normal_equations(self):
        rng = np.random.default_rng(17)
        A = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        b = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        # independent oracle: solve A^H A x = -A^H b directly
        x = np.linalg.solve(A.conj().T @ A, -A.conj().T @ b)
        info = solve_least_squares(A, b)
        np.testing.assert_allclose(info.coeffs, x, atol=1e-12)
        assert info.residual == pytest.approx(np.linalg.norm(A @ x + b), rel=1e-12)

    def test_duplicate_columns_get_minimum_norm_split(self):
        col = np.array([1.0, 2.0, -1.0], dtype=complex)
        A = np.stack([col, col], axis=1)
        b = np.array([0.5, 1.0, 2.0], dtype=complex)
        info = solve_least_squares(A, b)
        assert info.coeffs[0] == pytest.approx(info.coeffs[1], rel=1e-12)
        assert info.rank == 1

    def test_zero_matrix_gives_zero_solution(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            info = solve_least_squares(np.zeros((4, 2)), np.ones(4))
        np.testing.assert_array_equal(info.coeffs, 0.0)
        assert info.rank == 0
        assert info.residual == 2.0
        assert info.condition == math.inf

    def test_wide_system_gives_minimum_norm_solution(self):
        rng = np.random.default_rng(23)
        A = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        A /= np.linalg.norm(A, axis=0)  # unit columns: the column scaling is a no-op
        b = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        x = np.linalg.lstsq(A, -b, rcond=None)[0]
        info = solve_least_squares(A, b)
        np.testing.assert_allclose(info.coeffs, x, atol=1e-12)
        assert info.residual < 1e-13
        assert info.rank == 3

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError):
            solve_least_squares(np.zeros((0, 0)), np.zeros(0))

    def test_cutoff_validation(self):
        with pytest.raises(ValueError):
            solve_least_squares(np.eye(2), np.ones(2), svd_cutoff=0.0)


class TestMrcSolve:
    def test_sphere_matches_oracle(self):
        ctx = WaveContext(1.0, Z_HAT)
        sol = mrc_solve(Sphere(1.0), ctx, "dirichlet", eps_target=1e-8, L_max=12)
        assert sol.converged
        assert sol.coefficients.L <= 8
        oracle = sphere_scattering_coeffs(1.0, ctx, sol.coefficients.L, "dirichlet")
        nz = np.abs(oracle.coeffs) > 1e-20
        rel = np.abs(sol.coefficients.coeffs[nz] - oracle.coeffs[nz]) / np.abs(oracle.coeffs[nz])
        assert np.max(rel[: np.count_nonzero(nz[: sf.n_modes(5)])]) < 1e-6

    def test_smallest_L_rule(self):
        ctx = WaveContext(1.0, Z_HAT)
        sol = mrc_solve(Sphere(1.0), ctx, "dirichlet", eps_target=0.9, L_max=8)
        assert sol.converged and sol.coefficients.L == 0
        sol = mrc_solve(Sphere(1.0), ctx, "dirichlet", eps_target=0.9, L_start=2, L_max=8)
        assert sol.converged and sol.coefficients.L == 2

    def test_escalation_history_decreases(self):
        # regenerated quadratures make the discrete norm wiggle by a few
        # percent near the approximability floor, hence the slack factor
        sol = mrc_solve(
            PerturbedSphere(1.0, [(2, 0, 0.2)]),
            WaveContext(1.0, Z_HAT),
            eps_target=1e-6,
            L_max=20,
        )
        assert sol.converged
        res = [r for _, r in sol.history]
        assert all(res[i + 1] <= 1.15 * res[i] for i in range(len(res) - 1))
        assert [L for L, _ in sol.history] == sorted({L for L, _ in sol.history})

    def test_residual_monotone_on_shared_quadrature(self):
        # rigorous subspace-nesting statement: same discretization, growing L
        surface = PerturbedSphere(1.0, [(2, 0, 0.2)])
        ctx = WaveContext(1.0, Z_HAT)
        quad = quadrature_for_degree(40)
        b = incident_trace(surface, quad, ctx, "dirichlet") * np.sqrt(
            quad.weights * surface_element(surface, quad.theta, quad.phi)
        )
        prev = None
        for L in range(0, 13, 2):
            A = assemble_basis_matrix(surface, quad, ctx, L, "dirichlet")
            res = solve_least_squares(A, b).residual
            if prev is not None:
                assert res <= prev * (1 + 1e-12)
            prev = res

    def test_unconverged_flag_on_exhausted_escalation(self):
        sol = mrc_solve(
            PerturbedSphere(1.0, [(2, 0, 0.2)]),
            WaveContext(1.0, Z_HAT),
            eps_target=1e-12,
            L_max=4,
        )
        assert not sol.converged
        assert sol.residual > 1e-12
        assert len(sol.history) == 5

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_non_finite_step_stops_escalation(self, monkeypatch, caplog):
        # an overflowing Hankel table would otherwise reach the factorization:
        # an SVD of a matrix holding inf can raise or fail to return, and a QR
        # can return a zero residual
        hankel_out_table = sf.hankel_out_table

        def overflow_from(ell):
            def table(L, k, r):
                H = hankel_out_table(L, k, r).copy()
                H[ell:] = np.inf
                return H

            monkeypatch.setattr(sf, "hankel_out_table", table)

        surface, ctx = PerturbedSphere(1.0, [(2, 0, 0.2)]), WaveContext(1.0, Z_HAT)
        overflow_from(6)
        start = time.perf_counter()
        with caplog.at_level(logging.WARNING, logger="mrcscatter.direct_solver"):
            sol = mrc_solve(surface, ctx, eps_target=1e-12, L_max=10)
        assert time.perf_counter() - start < 10.0
        assert not sol.converged
        assert sol.coefficients.L == 5
        assert [L for L, _ in sol.history] == list(range(6))
        messages = [rec.getMessage() for rec in caplog.records]
        assert any("L=6" in msg and "not finite" in msg for msg in messages)
        overflow_from(0)
        with pytest.raises(ValueError, match="no finite escalation step"):
            mrc_solve(surface, ctx, eps_target=1e-12, L_max=10)

    def test_rotation_equivariance(self):
        # rotate surface and incidence together about z: residual unchanged
        surface = PerturbedSphere(1.0, [(2, 1, 0.15)])
        alpha = Direction(1.1, 0.3)
        gamma = 0.7
        sol1 = mrc_solve(surface, WaveContext(1.0, alpha), eps_target=1e-5, L_max=20)
        sol2 = mrc_solve(
            surface.rotated_z(gamma),
            WaveContext(1.0, Direction(alpha.theta, alpha.phi + gamma)),
            eps_target=1e-5,
            L_max=20,
        )
        assert sol1.converged and sol2.converged
        assert sol1.coefficients.L == sol2.coefficients.L
        assert sol2.residual == pytest.approx(sol1.residual, rel=1e-9, abs=1e-18)

    def test_parameter_validation(self):
        ctx = WaveContext(1.0, Z_HAT)
        with pytest.raises(ValueError):
            mrc_solve(Sphere(1.0), ctx, eps_target=0.0)
        with pytest.raises(ValueError):
            mrc_solve(Sphere(1.0), ctx, L_start=5, L_max=3)
        with pytest.raises(ValueError):
            mrc_solve(Sphere(1.0), ctx, bc="robin")
        with pytest.raises(ValueError):
            mrc_solve(Sphere(1.0), ctx, quad_degree_factor=1.5)
        for svd_cutoff in (0.0, 1.0):
            with pytest.raises(ValueError, match="svd_cutoff must be in"):
                mrc_solve(Sphere(1.0), ctx, svd_cutoff=svd_cutoff)

    @pytest.mark.parametrize("bumps", [[(2, 0, 0.2)], [(2, 1, 0.15)]], ids=["per_order", "dense"])
    @pytest.mark.parametrize(
        "kwargs", [{"L_start": -1}, {"eps_target": float("nan")}], ids=["L_start", "eps_target"]
    )
    def test_bad_arguments_rejected_before_the_surface_is_read(self, bumps, kwargs):
        reads = []

        class Counting(PerturbedSphere):
            def radial_map(self, theta, phi):
                reads.append(theta.size)
                return super().radial_map(theta, phi)

        surface = Counting(1.0, bumps)
        assert surface.axisymmetric is (bumps[0][1] == 0)
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            mrc_solve(surface, WaveContext(1.0, Z_HAT), **kwargs)
        assert reads == []


class TestCoefficientSet:
    def test_length_invariant(self):
        with pytest.raises(ValueError):
            CoefficientSet(2, np.zeros(8, dtype=complex))

    def test_truncation(self):
        c = CoefficientSet(3, np.arange(16, dtype=complex))
        t = c.truncated(1)
        assert t.L == 1
        np.testing.assert_array_equal(t.coeffs, np.arange(4, dtype=complex))
        with pytest.raises(ValueError):
            c.truncated(5)


def test_assemble_basis_matrix_reads_the_surface_once():
    surface = PerturbedSphere(1.0, [(2, 1, 0.15), (3, -2, 0.1)])
    quad, ctx = quadrature_for_degree(14), WaveContext(1.3, Direction(0.7, 0.2))
    ref = {bc: _boundary_weight(surface, quad)[:, None] * _basis_columns(surface, quad, ctx, 6, bc)
           for bc in ("dirichlet", "neumann")}
    calls = []
    radial_map = surface.radial_map
    surface.radial_map = lambda theta, phi: calls.append(theta.size) or radial_map(theta, phi)
    for bc, A in ref.items():
        calls.clear()
        np.testing.assert_array_equal(assemble_basis_matrix(surface, quad, ctx, 6, bc), A)
        assert calls == [len(quad)]
