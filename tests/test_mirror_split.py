"""The equatorial parity split of a mirror-symmetric shape's dense system.

A shape with f(pi - theta, phi) = f(theta, phi) (``mirror_symmetric``) is
solved as two decoupled blocks, the columns with ell + m even and those with
ell + m odd, built on the upper polar rows and the equator.  The row transform
is unitary, so the split solve must select the same degree and rank as the
unsplit dense system (``solve_least_squares`` on ``assemble_basis_matrix``)
and agree with it to rounding.
"""

import logging
import math

import numpy as np
import pytest

from mrcscatter import direct_solver
from mrcscatter.direct_solver import (
    WaveContext,
    _boundary_weight,
    _factor,
    _parity_plan,
    _parity_system,
    _qr_residual,
    _read_boundary,
    _incident,
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

CTX = WaveContext(1.0, Direction(0.6, 0.4))


def step_quadrature(L):
    return quadrature_for_degree(max(math.ceil(2.5 * L), 16))


def built_degrees(sol):
    """The degrees an escalation builds a system at: one per rule, so the steps
    L = 0..6 on the degree-16 floor once, at its top L = 6, then the kept step's
    own if the floor holds it below its top."""
    tops = sorted({max(L, 6) for L, _ in sol.history})
    return tops + [sol.coefficients.L] * (sol.coefficients.L not in tops)


@pytest.mark.parametrize("bumps, expected", [
    ([(2, 0, 0.1)], True),
    ([(2, 2, 0.1)], True),
    ([(3, 1, 0.1)], True),
    ([(2, 1, 0.1)], False),
    ([(3, 0, 0.1)], False),
    ([(3, -2, 0.1)], False),
    ([(2, 0, 0.1), (3, -1, 0.05), (4, 2, 0.05)], True),
    ([(2, 2, 0.1), (2, -1, 0.05)], False),
    ([], True),
])
def test_mirror_flag_of_a_perturbed_sphere(bumps, expected):
    surface = PerturbedSphere(1.0, bumps)
    assert surface.mirror_symmetric is expected
    assert surface_from_descriptor(surface.descriptor()).mirror_symmetric is expected
    # a rotation about z keeps ell + |m| of every bump
    assert surface.rotated_z(0.7).mirror_symmetric is expected


@pytest.mark.parametrize(
    "surface", [Sphere(1.3), Ellipsoid(1.0, 0.8, 0.6), Ellipsoid(1.0, 1.0, 0.7)]
)
def test_sphere_and_every_ellipsoid_are_mirror_symmetric(surface):
    assert surface.mirror_symmetric is True


def escalate_unsplit(surface, bc, eps, L_max):
    """The escalation on the unsplit dense system: the first L whose solved
    residual meets eps, or else the smallest one."""
    history, best = [], None
    for L in range(L_max + 1):
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


# eps sits between two steps' residuals with a margin of at least 1.07; the
# escalations reach L 8 to 10, so they cross steps with odd (9, 11, 13) and
# even (10, 12) n_theta; the last one exhausts L_max
CASES = [
    (Ellipsoid(1.0, 0.95, 0.9), "dirichlet", 5e-5, 11),
    (Ellipsoid(1.0, 0.95, 0.9), "neumann", 8e-4, 11),
    (Ellipsoid(1.0, 0.8, 0.6), "dirichlet", 1.7e-2, 11),
    (PerturbedSphere(1.0, [(2, 2, 0.15)]), "dirichlet", 1e-3, 11),
    (PerturbedSphere(1.0, [(2, 2, 0.15)]), "neumann", 5e-3, 11),
    (PerturbedSphere(1.0, [(3, 1, 0.1)]), "dirichlet", 1e-3, 11),
    (PerturbedSphere(1.0, [(3, 1, 0.1)]), "neumann", 2e-2, 11),
    (Ellipsoid(1.0, 0.8, 0.6), "neumann", 1e-12, 10),
]
IDS = ["ellipsoid95-D", "ellipsoid95-N", "ellipsoid86-D", "bump22-D", "bump22-N",
       "bump31-D", "bump31-N", "ellipsoid86-N-exhausted"]


@pytest.mark.parametrize("surface, bc, eps, L_max", CASES, ids=IDS)
def test_split_escalation_matches_the_unsplit_system(surface, bc, eps, L_max, monkeypatch):
    calls = []
    monkeypatch.setattr(direct_solver, "_parity_system",
                        lambda *a: calls.append(a[2]) or _parity_system(*a))
    got = mrc_solve(surface, CTX, bc, eps_target=eps, L_start=0, L_max=L_max)
    L, info, history = escalate_unsplit(surface, bc, eps, L_max)
    assert calls == built_degrees(got)
    assert {step_quadrature(L).n_theta % 2 for L, _ in history} == {0, 1}
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


@pytest.mark.parametrize("surface, kept", [
    # symmetric about the xz-plane only: its cos/sin blocks, no parity split
    (PerturbedSphere(1.0, [(2, 1, 0.15)]), "L=6 kept, split into 2 systems x 81 rows x 28 columns"),
    # neither mirror: the one system on every node
    (PerturbedSphere(1.0, [(2, -1, 0.15)]), "L=6 kept, split into 1 systems x 153 rows x 49 columns"),
    (Sphere(1.0), None),
], ids=["bump21", "bump2-1", "sphere"])
def test_other_shapes_do_not_split(surface, kept, monkeypatch, caplog):
    if kept is None:  # a surface of revolution splits by order and never folds
        monkeypatch.setattr(direct_solver, "_parity_system", None)  # a call would raise
    with caplog.at_level(logging.DEBUG, logger="mrcscatter.direct_solver"):
        assert mrc_solve(surface, CTX, "dirichlet", eps_target=1e-2, L_max=8).converged
    if kept is not None:
        assert [r.getMessage() for r in caplog.records if "kept" in r.getMessage()] == [kept]


@pytest.mark.parametrize("L", [0, 1, 8, 9])  # n_theta 9, 9, 11, 12
@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
@pytest.mark.parametrize("surface", [Ellipsoid(1.0, 0.8, 0.6), PerturbedSphere(1.0, [(3, 1, 0.1)])],
                         ids=["ellipsoid86", "bump31"])
def test_split_qr_residual_at_a_fixed_degree(surface, bc, L):
    quad = step_quadrature(L)
    f, normal, scale = _read_boundary(surface, quad)
    b = _incident(quad, CTX, bc, f, normal) * scale
    split = _parity_system(quad, direct_solver._hankel(L, CTX.k, f, bc), L, bc, f, normal, scale, b)
    # L=0 has no odd column: one system, and the odd rows' data is all residual
    assert len(split[0]) == (2 if L else 1) and (len(split[2]) > 0) is (L == 0)
    unsplit = (assemble_basis_matrix(surface, quad, CTX, L, bc)[None], b.reshape(1, -1, 1), (),
               _parity_plan(L, quad.n_theta, quad.n_phi, False, False)[3])
    got = _qr_residual(split, _factor(*split[:2]))
    assert got == pytest.approx(_qr_residual(unsplit, _factor(*unsplit[:2])), rel=1e-12)
