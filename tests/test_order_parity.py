"""Surfaces of revolution symmetric about z = 0: each order splits by parity.

On a surface of revolution the DFT along phi leaves one system per order |m|.
If the shape is also symmetric about z = 0 (``mirror_symmetric``), column (ell,
m) takes the sign (-1)**(ell+m) at the mirror polar node, so the fold of the
polar rows (top +- bottom)/sqrt(2) splits each order into its even and odd
degrees on half the rows: 2L+1 systems per step (the odd system of |m| = L has
no column; its data is part of the residual).  The fold is unitary, so the
escalation must keep the degree, rank, convergence and history degrees of the
unfolded one (the same instance with ``mirror_symmetric = False``) and agree
with it to rounding; a shape of revolution without the mirror keeps the L+1
per-order systems, bitwise.
"""

import copy
import math

import numpy as np
import pytest

from mrcscatter import direct_solver
from mrcscatter.direct_solver import (
    WaveContext,
    _escalation_steps,
    _factor,
    _order_system,
    _qr_residual,
    _system,
    solve_entries,
)
from mrcscatter.geometry import Direction, Ellipsoid, PerturbedSphere, Sphere, quadrature_for_degree
from test_axisymmetric import _order_system_by_scatter

# the lone entry is off the z-axis, so every order has data
CONTEXTS = [WaveContext(1.0, Direction(*alpha)) for alpha in ((math.pi / 4, 1.3), (0.0, 0.0), (math.pi / 2, 0.3))]
SHAPES = {
    "sphere": Sphere(1.0),
    "bump20": PerturbedSphere(1.0, [(2, 0, 0.2)]),
    "oblate": Ellipsoid(1.0, 1.0, 0.8),
}
# (quad_degree_factor, L_max, eps_target per shape for dirichlet and neumann): steps on
# the rules of degree 16, 18, 20, ... (n_theta 9, 10, 11, ...: odd and even), and at
# factor 2 the square blocks of L >= 8 (n_theta = L + 1), whose residual can be 0 to rounding
SETTINGS = {
    "q2.5": (2.5, 14, {"sphere": (1e-9, 1e-8), "bump20": (3e-4, 5e-3), "oblate": (5e-4, 5e-3)}),
    "q2": (2.0, 16, {"sphere": (1e-9, 1e-8), "bump20": (1e-3, 1e-2), "oblate": (1e-3, 1e-2)}),
}


def unfolded(surface):
    """The same shape, not folded about z = 0: the L+1 per-order systems."""
    twin = copy.copy(surface)
    object.__setattr__(twin, "mirror_symmetric", False)  # the shapes may be frozen dataclasses
    return twin


def escalate(surface, shape, ctxs, bc, setting, monkeypatch):
    """solve_entries of the setting, and the number of systems of each factored stack."""
    q, L_max, eps = SETTINGS[setting]
    sizes, factor = [], direct_solver._factor
    monkeypatch.setattr(direct_solver, "_factor", lambda A, *a: sizes.append(len(A)) or factor(A, *a))
    solutions = solve_entries(surface, ctxs, bc, eps[shape][bc == "neumann"], L_max=L_max, quad_degree_factor=q)
    monkeypatch.undo()
    return solutions, sizes


@pytest.mark.parametrize("setting", SETTINGS)
@pytest.mark.parametrize("entries", [1, 3], ids=["lone", "group"])
@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
@pytest.mark.parametrize("shape", SHAPES)
def test_folded_escalation_matches_the_unfolded_one(shape, bc, entries, setting, monkeypatch):
    surface = SHAPES[shape]
    assert surface.axisymmetric and surface.mirror_symmetric
    got, folded = escalate(surface, shape, CONTEXTS[:entries], bc, setting, monkeypatch)
    ref, whole = escalate(unfolded(surface), shape, CONTEXTS[:entries], bc, setting, monkeypatch)
    # the same factorizations, of 2L+1 systems where the unfolded ones have L+1
    assert len(folded) == len(whole) and [2 * n - 1 for n in whole] == folded
    q = SETTINGS[setting][0]
    assert all(sol.converged for sol in got)
    if q > 2:  # rules of odd and even n_theta
        assert {quadrature_for_degree(direct_solver._rule(L, q)[0]).n_theta % 2 for L, _ in got[0].history} == {0, 1}
    else:  # the kept degree's blocks are square
        assert min(sol.coefficients.L for sol in got) >= 8
    for g, r in zip(got, ref):
        assert (g.coefficients.L, g.rank, g.converged) == (r.coefficients.L, r.rank, r.converged)
        assert [L for L, _ in g.history] == [L for L, _ in r.history]
        c_ref = r.coefficients.coeffs
        assert np.max(np.abs(g.coefficients.coeffs - c_ref)) <= 1e-12 * np.max(np.abs(c_ref))
        assert g.condition == pytest.approx(r.condition, rel=1e-9)
        # relative residuals, in units of |b|: a square block leaves one of order 1e-17
        assert [x for _, x in g.history] == pytest.approx([x for _, x in r.history], rel=1e-9, abs=1e-15)
        assert g.residual == pytest.approx(r.residual, rel=1e-9, abs=1e-15)


def steps(surface, ctxs, bc, Ls):
    """(L, quad, read, b, hankel) of the steps L in Ls, b stacked over the contexts if several."""
    for L, quad, read, data, hankel in _escalation_steps(surface, ctxs, bc, range(max(Ls) + 1), 2.5):
        if L in Ls:
            yield L, quad, read, np.stack([b for b, _ in data]) if len(data) > 1 else data[0][0], hankel


@pytest.mark.parametrize("entries", [1, 3], ids=["lone", "group"])
@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
def test_the_odd_system_of_order_L_lands_in_rest(bc, entries):
    surface, ctxs = SHAPES["bump20"], CONTEXTS[:entries]
    for L, quad, (f, normal, scale), b, hankel in steps(surface, ctxs, bc, (0, 1, 9)):
        A, B, rest, modes = system = _system(surface, quad, hankel, L, bc, f, normal, scale, b)
        assert len(A) == 2 * L + 1 and len(modes.counts[0]) == 2 * L + 1 and modes.counts[0][-1] > 0
        # rest: the bins no column reaches, then the odd rows of bins L and -L, (b_L, (-1)**L b_-L)
        # per kept polar row and entry, (x_t - x_t') / sqrt(2) with t' the mirror of t (0 on the equator)
        n, K = quad.n_theta, len(A[0])
        t = np.arange(n // 2, n)
        odd = (b[..., t, :] - b[..., n - 1 - t, :])[..., [L, -L]] * [1.0, (-1.0) ** L * (L > 0)] / math.sqrt(2)
        head = b[..., L + 1 : quad.n_phi - L].reshape(*b.shape[:-2], -1)
        assert rest.shape == (*b.shape[:-2], head.shape[-1] + 2 * K)
        assert rest[..., : head.shape[-1]].tobytes() == head.tobytes()
        tail = rest[..., head.shape[-1] :].reshape(odd.shape)
        np.testing.assert_allclose(tail, odd, rtol=0, atol=1e-15 * np.abs(b).max())
        # each entry's residual is that of the unfolded system (rest holds what no column reaches)
        whole = _order_system(quad, hankel, L, bc, f, normal, scale, b)
        assert _qr_residual(system, _factor(A, B)) == pytest.approx(
            _qr_residual(whole, _factor(*whole[:2])), rel=1e-12)


@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
@pytest.mark.parametrize("shape", SHAPES)
def test_floor_prefix_residuals_are_those_of_their_own_folded_systems(shape, bc):
    # the degree-16 floor holds L = 0..6: each degree's residual off the QR of the
    # folded system at L = 6, whose columns go by degree in every (|m|, parity) system
    surface, ctxs = SHAPES[shape], CONTEXTS
    built = {L: (quad, read, b, hankel) for L, quad, read, b, hankel in steps(surface, ctxs, bc, range(7))}
    quad, (f, normal, scale), b, hankel = built[6]
    top = _system(surface, quad, hankel, 6, bc, f, normal, scale, b)
    R = _factor(*top[:2])
    for L, (quad, (f, normal, scale), b, hankel) in built.items():
        own = _system(surface, quad, hankel, L, bc, f, normal, scale, b)
        assert len(own[0]) == 2 * L + 1
        want = _qr_residual(own, _factor(*own[:2]))
        assert _qr_residual((*top, L), R) == pytest.approx(want, rel=1e-13, abs=0)


@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
def test_a_surface_of_revolution_without_the_mirror_keeps_one_system_per_order(bc):
    surface = PerturbedSphere(1.0, [(3, 0, 0.1)])
    assert surface.axisymmetric and not surface.mirror_symmetric
    for L, quad, (f, normal, scale), b, hankel in steps(surface, CONTEXTS[:1], bc, (0, 1, 6, 9, 12)):
        A, B, rest, modes = _system(surface, quad, hankel, L, bc, f, normal, scale, b)
        assert len(A) == L + 1 and A.shape[1] == quad.n_theta
        A_ref, B_ref = _order_system_by_scatter(quad, hankel, L, bc, f, normal, scale, b)
        assert A.tobytes() == A_ref.tobytes() and B.tobytes() == B_ref.reshape(L + 1, quad.n_theta, -1).tobytes()
        assert rest.tobytes() == b[..., L + 1 : quad.n_phi - L].tobytes()
