"""Surfaces of revolution: ``mrc_solve`` splits each escalation step into one
small least-squares problem per azimuthal order.

On a surface whose radial map depends on theta alone, column (ell, m) of the
boundary system is a function of theta times exp(i*m*phi), so the unitary DFT
along phi takes the system to one block per order m, and the blocks of m and
-m share one matrix up to (-1)**m: each step factors L+1 stacked systems,
one per |m|, with two right-hand sides each (2L+1 on a shape symmetric about
z = 0, each order split by parity; see test_order_parity.py).  The per-order
solve must select the same degree, rank and convergence as the dense system
built from ``assemble_basis_matrix``, ``_read_rules``' weight and ``incident_trace``, and
agree with it to rounding (the tolerances of ``assert_same_solution``).
"""

import logging
import math

import numpy as np
import pytest

from mrcscatter import direct_solver
from mrcscatter import specfun as sf
from mrcscatter.direct_solver import (
    WaveContext,
    _read_rules,
    assemble_basis_matrix,
    incident_trace,
    mrc_solve,
    solve_least_squares,
)
from mrcscatter.geometry import (
    Ellipsoid,
    PerturbedSphere,
    Sphere,
    quadrature_for_degree,
    surface_from_descriptor,
)
from test_qr_vs_svd import (
    ALPHA,
    assert_minimum_residual_step_kept,
    assert_same_solution,
    mrc_solve_svd,
)

BUMPY = PerturbedSphere(1.0, [(2, 0, 0.2), (4, 0, 0.05)])
OBLATE = Ellipsoid(1.0, 1.0, 0.8)
UNMIRRORED = PerturbedSphere(1.0, [(3, 0, 0.1)])  # of revolution, not symmetric about z = 0
SURFACES = [Sphere(1.0), OBLATE, BUMPY]
SURFACE_IDS = ["sphere", "oblate", "bumpy"]
# targets the escalation meets between L=4 and L=14 on these shapes at k = 1
EPS = {"dirichlet": 1e-3, "neumann": 1e-2}


@pytest.mark.parametrize(
    "surface, expected",
    [
        (Sphere(2.0), True),
        (BUMPY, True),
        (PerturbedSphere(1.0, []), True),
        (PerturbedSphere(1.0, [(2, 0, 0.2), (3, 1, 0.05)]), False),
        (PerturbedSphere(1.0, [(3, -2, 0.1)]), False),
        (OBLATE, True),
        (Ellipsoid(1.0, 0.95, 0.9), False),
        (Ellipsoid(0.8, 1.0, 1.0), False),
        (BUMPY.rotated_z(0.7), True),
        (PerturbedSphere(1.0, [(2, 1, 0.15)]).rotated_z(0.7), False),
    ],
)
def test_axisymmetric_flag_is_structural(surface, expected):
    assert surface.axisymmetric is expected
    assert surface_from_descriptor(surface.descriptor()).axisymmetric is expected


@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
@pytest.mark.parametrize("surface", SURFACES, ids=SURFACE_IDS)
def test_per_order_solve_matches_the_dense_system(surface, bc):
    ctx = WaveContext(1.0, ALPHA)
    got = mrc_solve(surface, ctx, bc, eps_target=EPS[bc], L_max=16)
    ref = mrc_solve_svd(surface, ctx, bc, eps_target=EPS[bc], L_max=16)
    assert got.converged
    assert_same_solution(got, ref)


@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
@pytest.mark.parametrize("surface", [OBLATE, BUMPY, UNMIRRORED], ids=["oblate", "bumpy", "unmirrored"])
def test_square_order_zero_block_at_the_smallest_quadrature(surface, bc, monkeypatch):
    # at quad_degree_factor 2 and L >= 8 the rule has n_theta = L + 1 polar
    # angles, as many as the order-0 block has columns: its residual is 0; folded
    # about z = 0 its even and odd blocks are square too, on ceil(n_theta / 2) rows
    # (the odd block's equator row, for odd n_theta, is zero)
    shapes, blocks, factor = [], [], direct_solver._factor

    def recording(matrix, rhs, pairs):
        shapes.append(matrix.shape)
        # (rows, columns) not all zero of the first two systems
        blocks.append([(np.any(M != 0, axis=1).sum(), np.any(M != 0, axis=0).sum()) for M in matrix[:2]])
        return factor(matrix, rhs, pairs)

    monkeypatch.setattr(direct_solver, "_factor", recording)
    ctx = WaveContext(1.0, ALPHA)
    got = mrc_solve(surface, ctx, bc, eps_target=EPS[bc], L_max=16, quad_degree_factor=2.0)
    monkeypatch.undo()
    ref = mrc_solve_svd(surface, ctx, bc, eps_target=EPS[bc], L_max=16, quad_degree_factor=2.0)
    assert_same_solution(got, ref)
    assert got.converged and got.coefficients.L >= 8
    # one factorization per rule: L = 0..8 share the degree-16 floor, factored once
    # at L = 8, each higher L has its own; 2L+1 systems (|m|, parity) on a mirror
    # symmetric shape, L+1 (one per |m|) otherwise
    built, mirror = [8] + [L for L, _ in got.history if L > 8], surface.mirror_symmetric
    assert [shape[0] for shape in shapes] == [2 * L + 1 if mirror else L + 1 for L in built]
    L = got.coefficients.L
    kept, rows = dict(zip(built, zip(shapes, blocks)))[L]
    if mirror:
        assert kept == (2 * L + 1, (L + 2) // 2, (L + 2) // 2)
        assert rows[0] == ((L + 2) // 2,) * 2 and rows[1] == ((L + 1) // 2,) * 2
    else:
        assert kept == (L + 1,) * 3 and rows[0] == (L + 1, L + 1)


def test_exhausted_escalation_keeps_the_dense_choice(caplog):
    ctx = WaveContext(1.0, ALPHA)
    with caplog.at_level(logging.WARNING, logger="mrcscatter.direct_solver"):
        got = mrc_solve(OBLATE, ctx, "neumann", eps_target=1e-9, L_max=7)
    ref = mrc_solve_svd(OBLATE, ctx, "neumann", eps_target=1e-9, L_max=7)
    assert not got.converged
    assert_same_solution(got, ref)
    assert_minimum_residual_step_kept(got)
    assert any("escalation ended at L=7" in rec.getMessage() for rec in caplog.records)


@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
def test_truncating_cutoff_matches_the_dense_truncated_solve(bc):
    # at L=8 the singular values nearest half the largest are 0.56 and 0.48 of
    # it (Dirichlet), 0.52 and 0.45 (Neumann): a cutoff of 0.5 drops 16 of 81
    # with a clear gap to those kept
    L, cutoff, ctx = 8, 0.5, WaveContext(1.0, ALPHA)
    quad = quadrature_for_degree(max(math.ceil(2.5 * L), 2 * L, 16))
    scale = _read_rules(BUMPY, [quad], False)[2]
    A = assemble_basis_matrix(BUMPY, quad, ctx, L, bc)
    b = incident_trace(BUMPY, quad, ctx, bc) * scale
    ref = solve_least_squares(A, b, cutoff)
    got = mrc_solve(BUMPY, ctx, bc, eps_target=1e-12, L_start=L, L_max=L, svd_cutoff=cutoff)
    assert got.coefficients.L == L and not got.converged
    assert got.rank == ref.rank < sf.n_modes(L)
    c_ref = ref.coeffs
    assert np.max(np.abs(got.coefficients.coeffs - c_ref)) <= 1e-12 * np.max(np.abs(c_ref))
    assert got.residual == pytest.approx(ref.residual / np.linalg.norm(b), rel=1e-9)
    assert got.condition == pytest.approx(ref.condition, rel=1e-9)


def test_only_the_general_path_builds_grid_modes(monkeypatch):
    calls, grid_modes = [], sf._grid_modes

    def counting(*args):
        calls.append(args[0])
        return grid_modes(*args)

    monkeypatch.setattr(sf, "_grid_modes", counting)
    ctx = WaveContext(1.0, ALPHA)
    for surface in SURFACES:
        for bc in ("dirichlet", "neumann"):
            mrc_solve(surface, ctx, bc, eps_target=EPS[bc], L_max=16)
    assert calls == []
    sol = mrc_solve(Ellipsoid(1.0, 0.95, 0.9), ctx, "dirichlet", eps_target=1e-3, L_max=12)
    # L = 0..6 share the degree-16 floor, built once at L = 6, its top and the kept L here
    assert [L for L, _ in sol.history] == list(range(7)) and sol.coefficients.L == 6
    assert calls == [6]


def _order_system_by_scatter(quad, hankel, L, bc, f, normal, scale, bh):
    """``_order_system``'s stack and right-hand sides filled by an index
    scatter into zeroed arrays: the reference for its cached gather."""
    P, (nr, nt, _) = quad.legendre(L), normal
    if bc == "dirichlet":
        G = hankel[0][: L + 1, None] * P
    else:
        H, Hd = (T[: L + 1, None] for T in hankel)
        G = nr * Hd * P + nt * (H / f) * quad.legendre_dtheta(L)
    G *= math.sqrt(quad.n_phi) * scale
    ells, ms = sf.mode_degrees(L), sf.mode_orders(L)
    A = np.zeros((L + 1, quad.n_theta, L + 1), dtype=complex)
    A[np.abs(ms), :, ells - np.abs(ms)] = G[ells, np.abs(ms)]
    rhs = np.zeros((L + 1, quad.n_theta, 2), dtype=complex)
    rhs[np.abs(ms), :, (ms < 0).astype(int)] = bh[:, ms].T * np.where(ms < 0, (-1.0) ** ms, 1.0)[:, None]
    return A, rhs


@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
def test_order_system_gather_matches_the_scatter_bitwise(bc):
    steps = direct_solver._escalation_steps(BUMPY, [WaveContext(1.0, ALPHA)], bc, range(0, 20), 2.5)
    for L, quad, (f, normal, scale), [(b, _)], hankel in steps:
        signed = b.copy()
        signed.real[b.real < 0] = -0.0  # a product with 1.0 turns some -0.0 to +0.0
        for bh in (b, signed):
            A, rhs, *_ = direct_solver._order_system(quad, hankel, L, bc, f, normal, scale, bh)
            A_ref, rhs_ref = _order_system_by_scatter(quad, hankel, L, bc, f, normal, scale, bh)
            assert A.tobytes() == A_ref.tobytes() and rhs.tobytes() == rhs_ref.tobytes()
