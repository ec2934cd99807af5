"""The fold of a shape symmetric about the xz-plane along phi -> -phi.

A shape symmetric about z = 0 (``mirror_symmetric``) and about the xz-plane
(``xz_symmetric``: every ellipsoid, bumps of order m >= 0 only) is solved as
four blocks: the parity of ell + m times the cos/sin slot of the real
harmonics sqrt(2) Pbar cos(m phi) and i sqrt(2) Pbar sin(m phi), built on the
nodes of theta <= pi/2 and phi <= pi.  A shape symmetric about the xz-plane
only is solved as two blocks, the cos and the sin slots, on the nodes of
phi <= pi and every theta.  The row fold is unitary and the cos and
sin columns of one (ell, m) share the norm of the complex column they come
from, so the split solve must select the same degree and rank as the unsplit
dense system and agree with it to rounding, condition number included.
"""

import logging
import math

import numpy as np
import pytest

from mrcscatter import direct_solver
from mrcscatter import specfun as sf
from mrcscatter.direct_solver import (
    WaveContext,
    _boundary_weight,
    _complex_coeffs,
    _parity_system,
    assemble_basis_matrix,
    incident_trace,
    mrc_solve,
    solve_least_squares,
)
from mrcscatter.geometry import (
    Direction,
    Ellipsoid,
    PerturbedSphere,
    Sphere,
    quadrature_for_degree,
    surface_from_descriptor,
)
from test_mirror_split import built_degrees

CTX = WaveContext(1.0, Direction(0.6, 0.4))


def step_quadrature(L):
    return quadrature_for_degree(max(math.ceil(2.5 * L), 16))


@pytest.mark.parametrize("bumps, expected", [
    ([], True),
    ([(2, 0, 0.1)], True),
    ([(2, 2, 0.1)], True),
    ([(2, 1, 0.1), (3, 3, 0.05)], True),
    ([(2, -2, 0.1)], False),
    ([(2, 2, 0.1), (3, -1, 0.05)], False),
    ([(2, 0, 0.1), (4, -4, 0.01)], False),
])
def test_xz_flag_of_a_perturbed_sphere(bumps, expected):
    surface = PerturbedSphere(1.0, bumps)
    assert surface.xz_symmetric is expected
    assert surface_from_descriptor(surface.descriptor()).xz_symmetric is expected


def test_xz_flag_under_a_rotation_about_z():
    # a rotation turns cos(m phi) into a mix of cos and sin: only m = 0 keeps the flag
    assert PerturbedSphere(1.0, [(2, 0, 0.1), (4, 0, 0.05)]).rotated_z(0.7).xz_symmetric is True
    assert PerturbedSphere(1.0, [(2, 2, 0.1)]).rotated_z(0.7).xz_symmetric is False
    assert PerturbedSphere(1.0, [(2, 2, 0.1)]).rotated_z(0.0).xz_symmetric is True


@pytest.mark.parametrize("surface", [Sphere(1.3), Ellipsoid(1.0, 0.8, 0.6), Ellipsoid(1.0, 1.0, 0.7)])
def test_sphere_and_every_ellipsoid_are_xz_symmetric(surface):
    assert surface.xz_symmetric is True
    assert surface_from_descriptor(surface.descriptor()).xz_symmetric is True


@pytest.mark.parametrize("L", [0, 1, 4, 7])
def test_real_azimuth_rows_are_the_unitary_mix_of_complex_harmonics(L):
    quad = step_quadrature(L)
    J = quad.n_phi // 2 + 1
    theta, phi = np.repeat(quad.theta_axis, J), np.tile(quad.phi_axis[:J], quad.n_theta)
    Y = sf.sph_harm_table(L, theta, phi)
    real = sf._grid_modes(L, quad.legendre(L), direct_solver._parity_plan(L, quad.n_theta, quad.n_phi, True)[4])
    ms = sf.mode_orders(L)
    i = np.arange(ms.size)
    sign = (-1.0) ** ms
    # slot (ell, m > 0): (Y_m + (-1)**m Y_-m)/sqrt2; slot (ell, -m): (Y_m - (-1)**m Y_-m)/sqrt2
    want = np.where(ms == 0, Y, (Y[:, i + np.abs(ms) - ms] + np.sign(ms) * sign * Y[:, i - np.abs(ms) - ms])
                    / math.sqrt(2))
    np.testing.assert_allclose(real, want, rtol=0, atol=1e-14)
    # and _complex_coeffs inverts the mix: sum_j c_j Y_j == sum_j y_j real_j
    y = np.random.default_rng(L).normal(size=ms.size) + 1j * np.random.default_rng(L + 50).normal(size=ms.size)
    np.testing.assert_allclose(Y @ _complex_coeffs(y), real @ y, rtol=0, atol=1e-13)


def escalate_unsplit(surface, bc, eps, L_start, L_max):
    """The escalation on the unsplit dense system: the first L whose solved
    residual meets eps, or else the smallest one."""
    history, best = [], None
    for L in range(L_start, L_max + 1):
        quad = step_quadrature(L)
        A = assemble_basis_matrix(surface, quad, CTX, L, bc)
        b = incident_trace(surface, quad, CTX, bc) * _boundary_weight(surface, quad)
        info = solve_least_squares(A, b)
        rel = info.residual / np.linalg.norm(b)
        history.append((L, rel))
        if best is None or rel < best[0]:
            best = (rel, L, info)
        if rel <= eps:
            break
    return best[1], best[2], history


# eps sits between two steps' residuals; the escalations from L=0 run steps at
# L = 0 and 1, where some of the four blocks have no column, and reach L >= 9,
# so they cross rules of odd (17, 19, 21) and even (24, 26) n_phi
CASES = [
    (Ellipsoid(1.0, 0.95, 0.9), "dirichlet", 5e-5, 0, 11),
    (Ellipsoid(1.0, 0.95, 0.9), "neumann", 8e-4, 0, 11),
    (Ellipsoid(1.0, 0.8, 0.6), "dirichlet", 1e-2, 0, 11),
    (Ellipsoid(1.0, 0.8, 0.6), "neumann", 1e-12, 0, 10),
    (PerturbedSphere(1.0, [(2, 2, 0.15)]), "dirichlet", 1e-3, 0, 11),
    (PerturbedSphere(1.0, [(2, 2, 0.15)]), "neumann", 5e-3, 0, 11),
    (PerturbedSphere(1.0, [(2, 2, 0.1), (4, 2, 0.05), (3, 1, 0.05)]), "neumann", 1e-12, 0, 10),
    (Ellipsoid(1.0, 0.8, 0.6), "neumann", 1e-12, 0, 0),
    (Ellipsoid(1.0, 0.8, 0.6), "dirichlet", 1e-12, 1, 1),
    (PerturbedSphere(1.0, [(2, 2, 0.15)]), "neumann", 1e-12, 1, 1),
    (Ellipsoid(1.0, 0.8, 0.6), "neumann", 1e-12, 9, 9),
    (PerturbedSphere(1.0, [(3, 1, 0.1)]), "dirichlet", 1e-12, 10, 10),
]
IDS = ["ellipsoid95-D", "ellipsoid95-N", "ellipsoid86-D", "ellipsoid86-N-exhausted", "bump22-D",
       "bump22-N", "bumps3-N-exhausted", "ellipsoid86-N-L0", "ellipsoid86-D-L1", "bump22-N-L1",
       "ellipsoid86-N-L9", "bump31-D-L10"]


@pytest.mark.parametrize("surface, bc, eps, L_start, L_max", CASES, ids=IDS)
def test_four_block_escalation_matches_the_unsplit_system(surface, bc, eps, L_start, L_max, monkeypatch):
    blocks = []

    def spy(*args):
        system = _parity_system(*args)
        blocks.append((args[2], args[8], len(system[0]), system[3].pairs is not None))
        return system

    monkeypatch.setattr(direct_solver, "_parity_system", spy)
    got = mrc_solve(surface, CTX, bc, eps_target=eps, L_start=L_start, L_max=L_max)
    L, info, history = escalate_unsplit(surface, bc, eps, L_start, L_max)
    # 4 systems, but the odd ones have no column at L=0 and the odd sin one none at L=1
    assert blocks == [(L, True, {0: 1, 1: 3}.get(L, 4), True) for L in built_degrees(got)]
    assert got.converged is (eps > 1e-12)
    assert got.coefficients.L == L
    assert got.rank == info.rank
    assert [L for L, _ in got.history] == [L for L, _ in history]
    np.testing.assert_allclose(
        [r for _, r in got.history], [r for _, r in history], rtol=1e-9, atol=0.0
    )
    assert got.condition == pytest.approx(info.condition, rel=1e-9)
    c = info.coeffs
    assert np.max(np.abs(got.coefficients.coeffs - c)) <= 1e-12 * np.max(np.abs(c))


# symmetric about the xz-plane only: two blocks, cos and sin, on phi <= pi over
# every polar row; eps sits between two steps' residuals (margins of 1.15 or
# more), the escalations from L=0 reach L >= 9 and the last one exhausts L_max
COS_SIN_CASES = {
    "bump21-D": (PerturbedSphere(1.0, [(2, 1, 0.15)]), "dirichlet", 5e-4, 11),
    "bump21-N": (PerturbedSphere(1.0, [(2, 1, 0.15)]), "neumann", 5e-3, 11),
    "bumps2-D": (PerturbedSphere(1.0, [(2, 1, 0.1), (3, 2, 0.05)]), "dirichlet", 1e-3, 11),
    "bumps2-N-exhausted": (PerturbedSphere(1.0, [(2, 1, 0.1), (3, 2, 0.05)]), "neumann", 1e-12, 10),
}


@pytest.mark.parametrize("name", COS_SIN_CASES)
def test_cos_sin_escalation_matches_the_unsplit_system(name, monkeypatch):
    surface, bc, eps, L_max = COS_SIN_CASES[name]
    assert (surface.mirror_symmetric, surface.xz_symmetric) == (False, True)
    blocks = []

    def spy(*args):
        system = _parity_system(*args)
        blocks.append((args[2], args[8:], len(system[0]), system[3].pairs is not None))
        return system

    monkeypatch.setattr(direct_solver, "_parity_system", spy)
    got = mrc_solve(surface, CTX, bc, eps_target=eps, L_max=L_max)
    L, info, history = escalate_unsplit(surface, bc, eps, 0, L_max)
    # (xz, z) = (True, False); the sin system has no column at L=0
    assert blocks == [(L, (True, False), 1 if L == 0 else 2, True) for L in built_degrees(got)]
    assert got.converged is (eps > 1e-12)
    assert (got.coefficients.L, got.rank) == (L, info.rank)
    assert [L for L, _ in got.history] == [L for L, _ in history]
    np.testing.assert_allclose([r for _, r in got.history], [r for _, r in history], rtol=1e-9, atol=0.0)
    assert got.condition == pytest.approx(info.condition, rel=1e-9)
    c = info.coeffs
    assert np.max(np.abs(got.coefficients.coeffs - c)) <= 1e-12 * np.max(np.abs(c))


def test_escalations_cover_odd_and_even_n_phi():
    assert {step_quadrature(L).n_phi % 2 for L in range(12)} == {0, 1}


@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
def test_folded_reruns_are_bitwise(bc):
    surface = Ellipsoid(1.0, 0.8, 0.6)
    first, second = (mrc_solve(surface, CTX, bc, eps_target=1e-4, L_max=14) for _ in range(2))
    assert first.coefficients.coeffs.tobytes() == second.coefficients.coeffs.tobytes()
    assert (first.history, first.rank, first.condition) == (second.history, second.rank, second.condition)


def test_debug_log_names_the_split_once_per_escalation(caplog):
    shapes = [Ellipsoid(1.0, 0.95, 0.9), PerturbedSphere(1.0, [(2, 0, 0.1), (3, -1, 0.05)]),
              PerturbedSphere(1.0, [(2, 0, 0.1)]), PerturbedSphere(1.0, [(2, -1, 0.15)]),
              PerturbedSphere(1.0, [(2, 1, 0.15)])]
    with caplog.at_level(logging.DEBUG, logger="mrcscatter.direct_solver"):
        for surface in shapes:
            mrc_solve(surface, CTX, "dirichlet", eps_target=1e-300, L_start=4, L_max=5)
    lines = [r.getMessage() for r in caplog.records if "split" in r.getMessage()]
    # L=5: rule of degree 16, n_theta 9 (5 of them at theta <= pi/2), n_phi 17
    # (9 at phi <= pi); the settings: parity x cos/sin, parity, per order, no fold, cos/sin
    assert lines == [
        "L=5 kept, split into 4 systems x 45 rows x 12 columns",
        "L=5 kept, split into 2 systems x 85 rows x 21 columns",
        "L=5 kept, split into 6 systems x 9 rows x 6 columns",
        "L=5 kept, split into 1 systems x 153 rows x 36 columns",
        "L=5 kept, split into 2 systems x 81 rows x 21 columns",
    ]
