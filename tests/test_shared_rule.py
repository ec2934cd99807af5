"""The degrees of one quadrature rule read their residuals off one QR.

Every escalation step L runs on the rule of degree max(ceil(2.5 L), 16), so
L = 0..6 share the degree-16 floor.  Every builder orders a system's columns by
degree, so the system of a lower degree on the same rule is a column prefix of
the system at the rule's top degree (L = 6), with the same rows: Householder QR
leaves each prefix's least-squares residual in the rows of R below it (the
nested least-squares property; Bjorck, *Numerical Methods for Least Squares
Problems*, 1996).  ``solve_entries`` factors the floor once, at L = 6, and each
floor degree's history residual must be, to rounding, the one of its own system.
A top system that overflows falls back to one system per degree, so the
escalation stops where it did before.
"""

import logging
import math

import numpy as np
import pytest

from mrcscatter import direct_solver
from mrcscatter import specfun as sf
from mrcscatter.direct_solver import (
    WaveContext,
    _escalation_steps,
    _factor,
    _qr_residual,
    _system,
    mrc_solve,
    solve_entries,
)
from mrcscatter.geometry import Direction, Ellipsoid, PerturbedSphere

# a lone entry off the z-axis: on it, the per-order stack's m != 0 systems would have no data
CONTEXTS = [WaveContext(1.0, Direction(*alpha)) for alpha in ((math.pi / 2, 0.3), (0.0, 0.0), (math.pi / 4, 1.3))]
# the per-order stack, per parity too and not (a shape not symmetric about z = 0), and the four fold settings
SHAPES = {
    "per-order": PerturbedSphere(1.0, [(2, 0, 0.1)]),
    "per-order-unmirrored": PerturbedSphere(1.0, [(3, 0, 0.1)]),
    "four-block": Ellipsoid(1.0, 0.95, 0.9),
    "parity": PerturbedSphere(1.0, [(2, 0, 0.1), (3, -1, 0.05)]),
    "cos-sin": PerturbedSphere(1.0, [(2, 1, 0.15)]),
    "no-fold": PerturbedSphere(1.0, [(2, -1, 0.15)]),
}
FLOOR = range(7)  # L = 0..6: ceil(2.5 L) <= 16


def own_residuals(surface, ctxs, bc):
    """Per floor degree, each entry's relative residual off its own system's QR."""
    got = {}
    for L, quad, (f, normal, scale), data, hankel in _escalation_steps(surface, ctxs, bc, FLOOR, 2.5):
        b = np.stack([b for b, _ in data]) if len(data) > 1 else data[0][0]
        system = _system(surface, quad, hankel, L, bc, f, normal, scale, b)
        residuals = _qr_residual(system, _factor(*system[:2], system[3].pairs))
        got[L] = [r / norm for r, (_, norm) in zip(residuals, data)]
    return got


@pytest.mark.parametrize("entries", [1, 3], ids=["lone", "group"])
@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
@pytest.mark.parametrize("shape", SHAPES)
def test_floor_residuals_are_those_of_their_own_systems(shape, bc, entries, monkeypatch):
    surface, ctxs = SHAPES[shape], CONTEXTS[:entries]
    factors = []
    monkeypatch.setattr(direct_solver, "_factor", lambda *a, f=direct_solver._factor: factors.append(a) or f(*a))
    # an unreachable target runs every step: L = 0..6 on the floor, 7 and 8 above it
    solutions = solve_entries(surface, ctxs, bc, eps_target=1e-300, L_max=8)
    monkeypatch.undo()
    # one QR for the floor, one each for L = 7, 8, where every entry keeps its best
    assert len(factors) == 3 and all(s.coefficients.L == 8 for s in solutions)
    want = own_residuals(surface, ctxs, bc)
    for e, sol in enumerate(solutions):
        assert [L for L, _ in sol.history] == list(range(9))
        for L, rel in sol.history[:7]:
            assert rel == pytest.approx(want[L][e], rel=1e-13, abs=0)


def test_debug_log_names_each_shared_factorization(caplog):
    with caplog.at_level(logging.DEBUG, logger="mrcscatter.direct_solver"):
        for L_start, L_max in ((0, 8), (2, 4), (6, 8)):
            mrc_solve(SHAPES["four-block"], CONTEXTS[0], "dirichlet", eps_target=1e-300, L_start=L_start, L_max=L_max)
    lines = [r.getMessage() for r in caplog.records if "one QR" in r.getMessage()]
    # a rule of one degree, or a start at the floor's top, shares nothing
    assert lines == ["L=0..6: one QR of rule 16 at L=6", "L=2..4: one QR of rule 16 at L=6"]


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
def test_an_overflow_inside_the_floor_stops_at_its_degree(bc, monkeypatch, caplog):
    surface, ctx = SHAPES["per-order"], CONTEXTS[0]
    alone = mrc_solve(surface, ctx, bc, eps_target=1e-300, L_max=2)
    hankel_out_table = sf.hankel_out_table

    def table(L, k, r):
        H = hankel_out_table(L, k, r).copy()
        H[3:] = np.inf
        return H

    monkeypatch.setattr(sf, "hankel_out_table", table)
    with caplog.at_level(logging.WARNING, logger="mrcscatter.direct_solver"):
        sol = mrc_solve(surface, ctx, bc, eps_target=1e-300, L_max=10)
    # the floor's system at L = 6 overflows: L = 0, 1, 2 are read one system each
    assert [L for L, _ in sol.history] == [0, 1, 2]
    assert not sol.converged and sol.coefficients.L == alone.coefficients.L
    assert sol.coefficients.coeffs.tobytes() == alone.coefficients.coeffs.tobytes()
    stops = [r.getMessage() for r in caplog.records if "not finite" in r.getMessage()]
    assert stops == ["escalation stops at L=3: boundary system not finite (overflow)"]
