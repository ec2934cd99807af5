"""The QR escalation scan against the per-step SVD loop it replaced.

``solve_least_squares_svd`` and ``mrc_solve_svd`` below are the library's
earlier least-squares solve (a truncated SVD of the full collocation matrix)
and escalation loop (one such solve per degree), kept verbatim as references
apart from parameter validation.  ``mrc_solve`` now takes one QR of [A | b]
per degree and a truncated SVD of the small R factor at the kept degree only;
it must select the same degree and rank and agree with the reference to
rounding.
"""

import logging
import math

import numpy as np
import pytest

from mrcscatter.direct_solver import (
    CoefficientSet,
    DirectSolution,
    LeastSquaresInfo,
    WaveContext,
    _basis_columns,
    _boundary_weight,
    incident_trace,
    mrc_solve,
)
from mrcscatter.geometry import Direction, Ellipsoid, PerturbedSphere, quadrature_for_degree

logger = logging.getLogger(__name__)

ALPHA = Direction(0.6, 0.4)


def solve_least_squares_svd(matrix, rhs, svd_cutoff=1e-12):
    col_norms = np.linalg.norm(matrix, axis=0)
    col_norms[col_norms == 0.0] = 1.0
    A = matrix / col_norms
    U, s, Vh = np.linalg.svd(A, full_matrices=False)
    # an all-zero matrix (s[0] == 0) keeps nothing
    keep = (s > 0.0) & (s >= svd_cutoff * s[0])
    rank = int(np.count_nonzero(keep))
    if rank == 0:
        coeffs = np.zeros(matrix.shape[1], dtype=complex)
        condition = math.inf
    else:
        Uk, sk, Vhk = U[:, keep], s[keep], Vh[keep]
        coeffs = -(Vhk.conj().T @ ((Uk.conj().T @ rhs) / sk)) / col_norms
        condition = float(s[0] / sk[-1])
    residual = float(np.linalg.norm(matrix @ coeffs + rhs))
    return LeastSquaresInfo(coeffs=coeffs, residual=residual, rank=rank, condition=condition)


def mrc_solve_svd(
    surface, ctx, bc="dirichlet", eps_target=1e-6, L_start=0, L_max=30,
    quad_degree_factor=2.5, svd_cutoff=1e-12,
):
    history: list[tuple[int, float]] = []
    best: tuple[float, int, LeastSquaresInfo] | None = None
    for L in range(L_start, L_max + 1):
        # floor keeps small-L residual estimates trustworthy
        degree = max(math.ceil(quad_degree_factor * L), 2 * L, 16)
        quad = quadrature_for_degree(degree)
        scale = _boundary_weight(surface, quad)
        A = scale[:, None] * _basis_columns(surface, quad, ctx, L, bc)
        b = incident_trace(surface, quad, ctx, bc) * scale
        info = solve_least_squares_svd(A, b, svd_cutoff)
        rel = info.residual / np.linalg.norm(b)
        history.append((L, rel))
        logger.debug("L=%d relative residual %.3e (rank %d)", L, rel, info.rank)
        # every earlier step missed the target, so a converged step is the best
        if best is None or rel < best[0]:
            best = (rel, L, info)
        if rel <= eps_target:
            break
    rel, L, info = best
    converged = bool(rel <= eps_target)
    if not converged:
        logger.warning(
            "escalation exhausted at L_max=%d with relative residual %.3e > %.3e",
            L_max, rel, eps_target,
        )
    return DirectSolution(
        coefficients=CoefficientSet(L, info.coeffs),
        residual=rel,
        boundary_condition=bc,
        converged=converged,
        condition=info.condition,
        rank=info.rank,
        history=history,
    )


def assert_same_solution(got, ref):
    assert got.coefficients.L == ref.coefficients.L
    assert got.rank == ref.rank
    assert got.converged == ref.converged
    assert [L for L, _ in got.history] == [L for L, _ in ref.history]
    c_ref = ref.coefficients.coeffs
    assert np.max(np.abs(got.coefficients.coeffs - c_ref)) <= 1e-12 * np.max(np.abs(c_ref))
    assert got.residual == pytest.approx(ref.residual, rel=1e-9)
    assert got.condition == pytest.approx(ref.condition, rel=1e-9)
    np.testing.assert_allclose(
        [r for _, r in got.history], [r for _, r in ref.history], rtol=1e-9, atol=0.0
    )


def assert_minimum_residual_step_kept(sol):
    residuals = [r for _, r in sol.history]
    assert sol.coefficients.L == sol.history[int(np.argmin(residuals))][0]


# at eps 1e-4 and L_max 12 five of these converge (at L 9 to 12) and three
# exhaust the escalation
@pytest.mark.parametrize("k", [1.0, 2.0])
@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
@pytest.mark.parametrize(
    "surface",
    [PerturbedSphere(1.0, [(2, 0, 0.2)]), Ellipsoid(1.0, 0.95, 0.9)],
    ids=["perturbed_sphere", "ellipsoid"],
)
def test_qr_scan_matches_per_step_svd(surface, bc, k):
    ctx = WaveContext(k, ALPHA)
    got = mrc_solve(surface, ctx, bc, eps_target=1e-4, L_max=12)
    ref = mrc_solve_svd(surface, ctx, bc, eps_target=1e-4, L_max=12)
    assert_same_solution(got, ref)
    if not got.converged:
        assert_minimum_residual_step_kept(got)


def test_exhausted_escalation_keeps_minimum_residual_step():
    # the residual of this ellipsoid rises from L=7 to L=8 (by 2.5%), so the
    # best step is not the last one
    surface, ctx = Ellipsoid(1.0, 0.8, 0.6), WaveContext(0.5, ALPHA)
    got = mrc_solve(surface, ctx, "neumann", eps_target=1e-6, L_max=8)
    ref = mrc_solve_svd(surface, ctx, "neumann", eps_target=1e-6, L_max=8)
    assert_same_solution(got, ref)
    assert not got.converged
    assert got.coefficients.L == 7
    assert_minimum_residual_step_kept(got)
