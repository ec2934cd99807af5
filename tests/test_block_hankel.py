"""One Hankel table per block of escalation steps, for every shape.

``mrc_solve`` reads the boundary once per block of four degrees, and with it
builds one Hankel table (with dH/dr for Neumann) of the block's top degree at
the block's nodes.  Every builder -- the per-order stack and the fold in four,
two (parity or cos/sin) or no blocks -- reads rows 0..L of it at its own
nodes, so no step builds a table of its own.  Rows 0..L of a higher-degree
table are bitwise the degree-L table and the table is elementwise in r, so
each step's system must be bitwise the one built from a fresh degree-L table.
"""

import numpy as np
import pytest

from mrcscatter import direct_solver
from mrcscatter import specfun as sf
from mrcscatter.direct_solver import WaveContext, _escalation_steps, _system, mrc_solve
from mrcscatter.geometry import Direction, Ellipsoid, PerturbedSphere

CTX = WaveContext(1.1, Direction(0.7, 0.3))
SURFACES = {
    "ellipsoid86": Ellipsoid(1.0, 0.8, 0.6),  # four blocks: parity x cos/sin
    "mirror": PerturbedSphere(1.0, [(2, 0, 0.1), (3, -1, 0.05)]),  # two parity blocks
    "bump21": PerturbedSphere(1.0, [(2, 1, 0.15)]),  # two cos/sin blocks
    "bump2-1": PerturbedSphere(1.0, [(2, -1, 0.15)]),  # no fold: one dense system
}
BCS = ("dirichlet", "neumann")


def counting(monkeypatch, owner, name):
    calls, original = [], getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("bc", BCS)
@pytest.mark.parametrize("name", SURFACES)
def test_one_hankel_table_per_block_reached(name, bc, monkeypatch):
    tables = counting(monkeypatch, sf, "hankel_out_table")
    pairs = counting(monkeypatch, sf, "_hankel_out_pair")
    # an unreachable target runs L = 0..9: the blocks 0..3, 4..7 and 8..9
    sol = mrc_solve(SURFACES[name], CTX, bc, eps_target=1e-300, L_max=9)
    assert [L for L, _ in sol.history] == list(range(10))
    # for Neumann each pair takes its H from one hankel_out_table call
    assert [args[0] for args in tables] == [3, 7, 9]
    assert [args[0] for args in pairs] == ([3, 7, 9] if bc == "neumann" else [])
    tables.clear()
    pairs.clear()
    # L = 2..6: the blocks 2..5 and 6
    assert len(mrc_solve(SURFACES[name], CTX, bc, eps_target=1e-300, L_start=2, L_max=6).history) == 5
    assert [args[0] for args in tables] == [5, 6]
    assert [args[0] for args in pairs] == ([5, 6] if bc == "neumann" else [])


@pytest.mark.parametrize("bc", BCS)
@pytest.mark.parametrize("name", SURFACES)
def test_each_step_reads_its_degree_of_the_block_table_bitwise(name, bc):
    surface, n_phi = SURFACES[name], set()
    # L = 0..6 share the degree-16 rule (n_phi 17), L = 7, 8 have n_phi 19, 21
    # and L = 9, 10 n_phi 24, 26; L = 0 and 1 leave the fold systems without a column
    steps = _escalation_steps(surface, [CTX], bc, range(0, 11), 2.5)
    for L, quad, (f, normal, scale), [(b, _)], hankel in steps:
        n_phi.add(quad.n_phi % 2)
        top = min(L - L % direct_solver._BLOCK + direct_solver._BLOCK - 1, 10)  # its block's
        assert [len(T) for T in hankel] == [top + 1] * (2 if bc == "neumann" else 1)
        got = _system(surface, quad, hankel, L, bc, f, normal, scale, b)
        fresh = _system(surface, quad, direct_solver._hankel(L, CTX.k, f, bc), L, bc, f, normal, scale, b)
        assert len(got) == len(fresh)
        for x, y in zip(got, fresh):
            x, y = np.asarray(x), np.asarray(y)
            assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
    assert n_phi == {0, 1}
