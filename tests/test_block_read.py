"""``mrc_solve`` reads the boundary once per block of four escalation steps.

A block's distinct rules are read by one ``radial_map``; on a surface of
revolution one Hankel table of the block's top degree serves every step of
it, and the incident data is computed once per rule.  Every kernel of the
read acts node by node and the Hankel degree prefix is bitwise, so a step's
result must not depend on the block it was read in: each history entry is
bitwise the one of a solve of that degree alone.
"""

import logging
import math

import numpy as np
import pytest

from mrcscatter import direct_solver
from mrcscatter import specfun as sf
from mrcscatter.direct_solver import WaveContext, _read_rules, mrc_solve
from mrcscatter.geometry import (
    Direction,
    Ellipsoid,
    PerturbedSphere,
    Sphere,
    _normal_from_map,
    quadrature_for_degree,
)

CTX = WaveContext(1.2, Direction(0.8, 0.4))
SURFACES = {
    "revolution": PerturbedSphere(1.0, [(2, 0, 0.2)]),
    "ellipsoid95": Ellipsoid(1.0, 0.95, 0.9),  # mirror-symmetric: the parity split
    "bump21": PerturbedSphere(1.0, [(2, 1, 0.15)]),  # one dense system
}
CASES = [(s, bc) for s in SURFACES for bc in ("dirichlet", "neumann")]
L_MAX = 11  # blocks L = 0..3, 4..7, 8..11; rules of degree 16 for L <= 6


def solve(name, bc, **kw):
    return mrc_solve(SURFACES[name], CTX, bc, **kw)


@pytest.mark.parametrize("name, bc", CASES)
def test_each_step_is_bitwise_a_solve_of_its_degree_alone(name, bc):
    # an unreachable target runs every step; L = 0, 4, 8 open a block, 3, 7,
    # 11 close one, 0..6 share one rule
    history = solve(name, bc, eps_target=1e-300, L_max=L_MAX).history
    assert [L for L, _ in history] == list(range(L_MAX + 1))
    for L, rel in history:
        assert solve(name, bc, eps_target=1e-300, L_start=L, L_max=L).history == [(L, rel)]


@pytest.mark.parametrize("L", [5, 10])  # inside a block: after a shared rule, after a new one
@pytest.mark.parametrize("name, bc", CASES)
def test_mid_block_convergence_keeps_the_single_step_solution(name, bc, L):
    history = dict(solve(name, bc, eps_target=1e-300, L_max=L_MAX).history)
    eps = math.sqrt(history[L] * history[L - 1])  # residuals fall at every step here
    got = solve(name, bc, eps_target=eps, L_max=L_MAX)
    alone = solve(name, bc, eps_target=eps, L_start=L, L_max=L)
    assert got.converged and alone.converged and got.coefficients.L == L
    assert got.coefficients.coeffs.tobytes() == alone.coefficients.coeffs.tobytes()
    assert (got.rank, got.condition, got.residual) == (alone.rank, alone.condition, alone.residual)


@pytest.mark.parametrize("L", range(13))
def test_hankel_pair_rows_are_bitwise_its_table_at_a_lower_degree(L):
    r = np.random.default_rng(L).uniform(0.3, 3.0, 40)
    H, dH = sf._hankel_out_pair(L, 1.7, r)
    for j in range(1, 5):
        top = sf._hankel_out_pair(L + j, 1.7, r)
        assert top[0][: L + 1].tobytes() == H.tobytes()
        assert top[1][: L + 1].tobytes() == dH.tobytes()


MAPS = {
    "sphere": Sphere(1.3),
    "bumps": PerturbedSphere(1.0, [(3, 2, 0.1), (2, -1, 0.15), (4, 0, 0.05)]),
    "revolution": PerturbedSphere(1.0, [(2, 0, 0.2)]),
    "ellipsoid": Ellipsoid(1.0, 0.8, 0.6),
}


def per_rule(read):
    f, normal, scale, ends = read
    return [np.split(x, ends[:-1]) for x in (f, *normal, scale)]


@pytest.mark.parametrize("axis", [False, True], ids=["grid", "axis"])
@pytest.mark.parametrize("surface", MAPS.values(), ids=MAPS.keys())
def test_a_read_of_concatenated_nodes_is_bitwise_per_segment(surface, axis):
    quads = [quadrature_for_degree(d) for d in (16, 18, 20, 23)]
    nodes = [slice(None, None, q.n_phi if axis else 1) for q in quads]
    theta = np.concatenate([q.theta[s] for q, s in zip(quads, nodes)])
    phi = np.concatenate([q.phi[s] for q, s in zip(quads, nodes)])
    f, ft, fp = surface.radial_map(theta, phi)
    normal = _normal_from_map(theta, f, ft, fp)
    parts = per_rule(_read_rules(surface, quads, axis))
    start = 0
    for i, (q, s) in enumerate(zip(quads, nodes)):
        seg = slice(start, start := start + len(q.theta[s]))
        alone = surface.radial_map(q.theta[s], q.phi[s])
        for got, want in zip((f, ft, fp), alone):
            assert got[seg].tobytes() == np.asarray(want, dtype=float).tobytes()
        for got, want in zip(normal, _normal_from_map(q.theta[s], *alone)):
            assert got[seg].tobytes() == want.tobytes()
        assert len(parts[0][i]) == len(q.theta[s])
        for got, want in zip(parts, per_rule(_read_rules(surface, [q], axis))):
            assert got[i].tobytes() == want[0].tobytes()
    f, normal, scale, _ = _read_rules(surface, [quads[1]], False)
    for got, want in zip(per_rule(_read_rules(surface, quads, False)), (f, *normal, scale)):
        assert got[1].tobytes() == want.tobytes()


def counting(monkeypatch, owner, name):
    calls, original = [], getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("name, bc", CASES)
def test_one_radial_map_per_block_reached(name, bc, monkeypatch):
    surface = SURFACES[name]
    history = dict(solve(name, bc, eps_target=1e-300, L_max=L_MAX).history)
    reads = counting(monkeypatch, type(surface), "radial_map")
    tables = counting(monkeypatch, sf, "hankel_out_table")
    # converging at L = 9 reaches the blocks 0..3, 4..7 and 8..11
    sol = solve(name, bc, eps_target=math.sqrt(history[9] * history[8]), L_max=L_MAX)
    assert sol.converged and sol.coefficients.L == 9
    assert len(reads) == 3
    if surface.axisymmetric:  # one Hankel table per block, of its top degree, serves its steps;
        # the first reaches L = 6, the top of the degree-16 floor its steps share
        assert [args[0] for args in tables] == [6, 7, 11]
    reads.clear()
    # L = 3..9 unconverged: the blocks 3..6 and 7..9
    assert len(solve(name, bc, eps_target=1e-300, L_start=3, L_max=9).history) == 7
    assert len(reads) == 2


@pytest.mark.parametrize("name, bc", CASES)
def test_convergence_at_a_block_start_factors_no_step_after_it(name, bc, monkeypatch):
    history = dict(solve(name, bc, eps_target=1e-300, L_max=L_MAX).history)
    factors = counting(monkeypatch, direct_solver, "_factor")
    sol = solve(name, bc, eps_target=math.sqrt(history[8] * history[7]), L_max=L_MAX)
    assert sol.converged and sol.coefficients.L == 8 and len(sol.history) == 9
    # one QR per rule: L = 0..6 share the degree-16 floor, factored once at L = 6; L = 7, 8
    assert len(factors) == 3


def test_debug_log_has_one_line_per_block(caplog):
    with caplog.at_level(logging.DEBUG, logger="mrcscatter.direct_solver"):
        solve("revolution", "dirichlet", eps_target=1e-300, L_start=2, L_max=8)
    lines = [r.getMessage() for r in caplog.records if "one read" in r.getMessage()]
    assert lines == [
        "L=2..5: one read of rules [16], 9 nodes",
        "L=6..8: one read of rules [16, 18, 20], 30 nodes",
    ]
