"""One escalation per wavenumber: ``solve_entries`` against one ``mrc_solve`` per entry.

The matrix A of a step depends on k and the surface alone, so the entries of
one k share each step's read, build and QR of [A | b_1 | b_2 | ...]; each reads
its own residual off R and keeps its own degree.  Against separate solves the
degree, convergence, rank and history length must be equal.  On the stacked
paths (per order, the parity folds) the coefficients are bitwise: the triangle
of A and each entry's columns above it come out of the QR as they do alone.
That holds while each QR stays below 9216 elements (rows x columns), where
OpenBLAS runs its reflector updates on one thread; above it a multithreaded
BLAS splits them by size, and the two-block fold at L >= 10 moved by 2.4e-17 of
max|c| on two threads, so the cases here stay below it.  On the dense path a
QR of more than 128 columns is blocked and its trailing update sees the extra
columns, so the coefficients agree to 1e-14 of max|c|.  An entry's QR residual
also passes the reflectors of the entries before it, rounding of order
eps * |b|: the history agrees to 1e-14 relative plus 1e-16 (in units of |b|).
"""

import json
import logging
import math

import numpy as np
import pytest

from mrcscatter import cli, direct_solver
from mrcscatter import specfun as sf
from mrcscatter.direct_solver import WaveContext, mrc_solve, solve_entries
from mrcscatter.geometry import Direction, Ellipsoid, PerturbedSphere

HALF_PI = math.pi / 2
# the first on the z-axis (the per-order path's m = 0 system only)
ALPHAS = [(0.0, 0.0), (HALF_PI, 0.3), (HALF_PI / 2, 1.3), (2.0, 2.5)]
MIRROR = PerturbedSphere(1.0, [(2, 0, 0.1), (3, -1, 0.05)])  # symmetric about z = 0 only: two blocks
ELLIPSOID = Ellipsoid(1.0, 0.8, 0.6)  # four blocks
BUMP21 = PerturbedSphere(1.0, [(2, 1, 0.15)])  # symmetric about the xz-plane only: two cos/sin blocks
NO_FOLD = PerturbedSphere(1.0, [(2, -1, 0.15)])  # neither mirror: the one dense system

# (surface, bc, eps_target, L_start, L_max, entries, stacked)
CASES = {
    # L = 8, 9, 9, 9: the first entry leaves the QR a step before the others
    "revolution-D": (PerturbedSphere(1.0, [(2, 0, 0.1)]), "dirichlet", 1e-4, 0, 24, 4, True),
    # the first entry converges at L = 16, the other two end unconverged there
    "revolution-N": (PerturbedSphere(1.0, [(2, 0, 0.2)]), "neumann", 1e-4, 3, 16, 3, True),
    "mirror-D": (MIRROR, "dirichlet", 1e-3, 0, 9, 4, True),  # L = 8, 8, 9, 8
    "mirror-N": (MIRROR, "neumann", 1e-3, 2, 9, 2, True),  # unconverged at L = 9
    "ellipsoid-D": (ELLIPSOID, "dirichlet", 1e-3, 0, 12, 3, True),
    "ellipsoid-N": (ELLIPSOID, "neumann", 1e-2, 3, 12, 2, True),
    "dense-D": (BUMP21, "dirichlet", 1e-3, 0, 16, 4, False),  # L = 9
    "dense-N": (BUMP21, "neumann", 1e-3, 3, 16, 3, False),  # L = 13
    "no-fold-D": (NO_FOLD, "dirichlet", 1e-3, 0, 16, 4, False),  # L = 9, 8, 9, 8
    "no-fold-N": (NO_FOLD, "neumann", 1e-3, 3, 16, 3, False),  # L = 13, 11, 13
}


def contexts(count, k=1.0):
    return [WaveContext(k, Direction(*alpha)) for alpha in ALPHAS[:count]]


def assert_as_separate(shared, separate, stacked):
    assert (shared.coefficients.L, shared.converged, shared.rank, len(shared.history)) == (
        separate.coefficients.L, separate.converged, separate.rank, len(separate.history))
    c, ref = shared.coefficients.coeffs, separate.coefficients.coeffs
    if stacked:
        assert c.tobytes() == ref.tobytes()
    else:
        assert np.max(np.abs(c - ref)) <= 1e-14 * np.max(np.abs(ref))
    got, want = (np.array([r for _, r in s.history]) for s in (shared, separate))
    assert [L for L, _ in shared.history] == [L for L, _ in separate.history]
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-16)
    assert shared.condition == pytest.approx(separate.condition, rel=1e-14)
    assert shared.residual == pytest.approx(separate.residual, rel=1e-14, abs=1e-16)


@pytest.mark.parametrize("name", CASES)
def test_shared_escalation_matches_separate_solves(name, monkeypatch):
    surface, bc, eps, L_start, L_max, count, stacked = CASES[name]
    ctxs = contexts(count)
    factors, factor = [], direct_solver._factor
    monkeypatch.setattr(direct_solver, "_factor", lambda *a: factors.append(a) or factor(*a))
    shared = solve_entries(surface, ctxs, bc, eps, L_start, L_max)
    monkeypatch.undo()
    separate = [mrc_solve(surface, ctx, bc, eps_target=eps, L_start=L_start, L_max=L_max) for ctx in ctxs]
    assert len(shared) == len(ctxs)
    for got, want in zip(shared, separate):
        assert_as_separate(got, want, stacked)
    # one QR per step for the whole group: as many as the longest history
    assert len(factors) == max(len(s.history) for s in separate)


def test_the_cases_cover_what_they_claim():
    # different degrees in one group, converged beside unconverged
    degrees = [s.coefficients.L for s in solve_entries(*shared_args("revolution-D"))]
    assert degrees == [8, 9, 9, 9]
    assert [s.converged for s in solve_entries(*shared_args("revolution-N"))] == [True, False, False]


def shared_args(name):
    surface, bc, eps, L_start, L_max, count, _ = CASES[name]
    return surface, contexts(count), bc, eps, L_start, L_max


def test_one_entry_is_mrc_solve_bitwise():
    surface, ctx = MIRROR, contexts(2)[1]
    (got,) = solve_entries(surface, [ctx], "dirichlet", 1e-3, 0, 9)
    want = mrc_solve(surface, ctx, "dirichlet", eps_target=1e-3, L_max=9)
    assert got.coefficients.coeffs.tobytes() == want.coefficients.coeffs.tobytes()
    assert (got.history, got.rank, got.condition, got.residual, got.converged) == (
        want.history, want.rank, want.condition, want.residual, want.converged)


def test_mixed_wavenumbers_are_refused_by_value():
    ctxs = [WaveContext(1.0, Direction(0.0, 0.0)), WaveContext(1.5, Direction(HALF_PI, 0.3))]
    with pytest.raises(ValueError, match=r"one wavenumber.*1\.0.*1\.5"):
        solve_entries(MIRROR, ctxs)
    with pytest.raises(ValueError, match="one wavenumber"):
        solve_entries(MIRROR, [])


def test_an_empty_group_is_refused_as_empty():
    with pytest.raises(ValueError, match="got no contexts$"):
        solve_entries(MIRROR, [])


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_overflow_stops_every_entry_as_alone(monkeypatch, caplog):
    hankel_out_table = sf.hankel_out_table

    def table(L, k, r):
        H = hankel_out_table(L, k, r).copy()
        H[6:] = np.inf
        return H

    monkeypatch.setattr(sf, "hankel_out_table", table)
    surface, ctxs = PerturbedSphere(1.0, [(2, 0, 0.2)]), contexts(3)
    with caplog.at_level(logging.WARNING, logger="mrcscatter.direct_solver"):
        shared = solve_entries(surface, ctxs, eps_target=1e-12, L_max=10)
    stops = [rec.getMessage() for rec in caplog.records if "not finite" in rec.getMessage()]
    assert len(stops) == 1 and "L=6" in stops[0]
    for got, ctx in zip(shared, ctxs):
        assert [L for L, _ in got.history] == list(range(6))
        assert_as_separate(got, mrc_solve(surface, ctx, eps_target=1e-12, L_max=10), True)


def test_synthesize_groups_entries_by_k_in_config_order(tmp_path, monkeypatch):
    entries = [(1.0, (0.0, 0.0)), (1.5, (HALF_PI, 0.7)), (1.0, (HALF_PI, 0.3))]
    surface = {"type": "perturbed_sphere", "radius": 1.0, "bumps": [[2, 1, 0.15]]}
    cfg = {"schema_version": 1, "surface": surface, "R": 3.0, "quadrature": {"n_theta": 8, "n_phi": 16},
           "entries": [{"k": k, "alpha": list(a)} for k, a in entries],
           "forward": {"eps_target": 1e-3, "L_max": 16}}
    (tmp_path / "synthesize.json").write_text(json.dumps(cfg), encoding="utf-8")
    groups, solve = [], cli.solve_entries
    monkeypatch.setattr(cli, "solve_entries", lambda s, c, *a, **kw: groups.append(
        [(x.k, x.alpha.theta) for x in c]) or solve(s, c, *a, **kw))
    assert cli.main(["synthesize", "--config", str(tmp_path / "synthesize.json"), "--out", str(tmp_path)]) == 0
    assert groups == [[(1.0, 0.0), (1.0, HALF_PI)], [(1.5, HALF_PI)]]
    doc = json.loads((tmp_path / "near_field.json").read_text(encoding="utf-8"))
    assert [(e["k"], e["alpha"]) for e in doc["entries"]] == [(k, list(a)) for k, a in entries]
    shape = PerturbedSphere(1.0, [(2, 1, 0.15)])
    alone = [mrc_solve(shape, WaveContext(k, Direction(*a)), eps_target=1e-3, L_max=16) for k, a in entries]
    assert doc["provenance"]["forward_L"] == [s.coefficients.L for s in alone]
    np.testing.assert_allclose(doc["provenance"]["forward_residual"], [s.residual for s in alone], rtol=1e-10)
