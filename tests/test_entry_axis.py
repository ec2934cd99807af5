"""The step kernels' one calling form: a group's entries ride a leading axis.

Incidences of one k share the boundary system's matrix, so ``solve_entries``
hands the builders its active entries' incident data stacked on a leading axis,
and a lone entry's with no such axis.  Stacked, every entry's right-hand-side
columns of B and its row of ``rest`` must be bitwise what the bare call of that
entry gives, and ``_qr_residual`` must give one residual per entry, each that of
the entry's own system to rounding.  The per-order stack (folded per parity on
a shape symmetric about z = 0, and not) and every setting of the fold are
covered: two parity blocks, four blocks, two cos/sin blocks and no fold, the one
dense system.
"""

import functools
import math

import numpy as np
import pytest

from mrcscatter.direct_solver import (
    WaveContext,
    _Modes,
    _escalation_steps,
    _factor,
    _qr_residual,
    _solve_step,
    _columns,
    _system,
)
from mrcscatter.geometry import Direction, Ellipsoid, PerturbedSphere

ALPHAS = ((0.0, 0.0), (math.pi / 2, 0.3), (math.pi / 4, 1.3))
CONTEXTS = tuple(WaveContext(1.0, Direction(*alpha)) for alpha in ALPHAS)
LS = (0, 1, 9)
# (axisymmetric, mirror_symmetric, xz_symmetric): the first picks the builder, the other two the folds
SHAPES = {
    "per-order": (PerturbedSphere(1.0, [(2, 0, 0.1)]), (True, True, True)),  # and per parity
    "per-order-unmirrored": (PerturbedSphere(1.0, [(3, 0, 0.1)]), (True, False, True)),
    "two-block": (PerturbedSphere(1.0, [(2, 0, 0.1), (3, -1, 0.05)]), (False, True, False)),
    "four-block": (Ellipsoid(1.0, 0.95, 0.9), (False, True, True)),
    "dense": (PerturbedSphere(1.0, [(2, 1, 0.15)]), (False, False, True)),  # two cos/sin blocks
    "no-fold": (PerturbedSphere(1.0, [(2, -1, 0.15)]), (False, False, False)),
}


@pytest.fixture(params=SHAPES)
def shape(request):
    surface, flags = SHAPES[request.param]
    assert (surface.axisymmetric, surface.mirror_symmetric, surface.xz_symmetric) == flags
    return request.param


@pytest.fixture(params=["dirichlet", "neumann"])
def bc(request):
    return request.param


@functools.cache
def steps(shape, bc, ctx):
    """(L, quad, boundary read, data, hankel) of the steps L in LS for one
    context, or for a tuple of them (passed as a list)."""
    ctx = list(ctx) if isinstance(ctx, tuple) else [ctx]
    return [s for s in _escalation_steps(SHAPES[shape][0], ctx, bc, range(max(LS) + 1), 2.5) if s[0] in LS]


def build(shape, bc, step, b):
    L, quad, (f, normal, scale), _, hankel = step
    return _system(SHAPES[shape][0], quad, hankel, L, bc, f, normal, scale, b)


def factor(system):
    return _factor(*system[:2], system[3].pairs)


def contiguous_bytes(x):
    return np.ascontiguousarray(x).tobytes()


def test_stacked_entries_are_bitwise_their_bare_calls(shape, bc):
    group = steps(shape, bc, CONTEXTS)
    assert [s[0] for s in group] == list(LS)
    for lone, step in zip(steps(shape, bc, CONTEXTS[1]), group):
        data = step[3]
        # a lone context's data is its entry's in the group
        assert contiguous_bytes(lone[3][0][0]) == contiguous_bytes(data[1][0]) and lone[3][0][1] == data[1][1]
        for n in (1, len(CONTEXTS)):
            A, B, rest = build(shape, bc, step, np.stack([b for b, _ in data[:n]]))[:3]
            assert len(rest) == n
            B = B.reshape(*A.shape[:-1], n, -1)
            for e, (b, _) in enumerate(data[:n]):
                bare = build(shape, bc, step, b)
                assert np.ndim(bare[2]) == 1
                assert contiguous_bytes(bare[0]) == contiguous_bytes(A)
                assert contiguous_bytes(B[..., e, :]) == contiguous_bytes(bare[1].reshape(*A.shape[:-1], -1))
                assert contiguous_bytes(rest[e]) == contiguous_bytes(bare[2])


def test_one_residual_and_solve_per_entry(shape, bc):
    for step in steps(shape, bc, CONTEXTS):
        bare = [build(shape, bc, step, b) for b, _ in step[3]]
        alone = [_qr_residual(system, factor(system)) for system in bare]
        assert all(len(r) == 1 for r in alone)
        for n in (1, len(CONTEXTS)):
            system = build(shape, bc, step, np.stack([b for b, _ in step[3][:n]]))
            R, shared = factor(system), []
            got = _qr_residual(system, R)
            assert len(got) == n
            for e in range(n):
                assert got[e] == pytest.approx(alone[e][0], rel=1e-14, abs=0)
                # each entry solves on its own columns of R as its bare system does
                info = _solve_step((system, R, e, shared), 1e-12)
                ref = _solve_step((bare[e], factor(bare[e]), 0, []), 1e-12)
                assert info.rank == ref.rank
                assert np.max(np.abs(info.coeffs - ref.coeffs)) <= 1e-12 * np.max(np.abs(ref.coeffs))


def test_no_fold_is_the_dense_system_bitwise(bc):
    # the reference: the dense system of a shape with neither mirror, built directly
    for lone, group in zip(steps("no-fold", bc, CONTEXTS[1]), steps("no-fold", bc, CONTEXTS)):
        for step, b in ((lone, lone[3][0][0]), (group, np.stack([b for b, _ in group[3]]))):
            L, quad, (f, normal, scale), _, hankel = step
            system = build("no-fold", bc, step, b)
            reference = ((scale[:, None] * _columns(quad, hankel, L, bc, f, normal))[None],
                         b.T.reshape(1, len(scale), -1), b[..., :0])
            assert len(system) == 4 and system[0].flags.c_contiguous
            for x, y in zip(system, reference):
                assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


@pytest.mark.parametrize("group", [False, True], ids=["lone", "grouped"])
def test_every_system_is_a_stack_with_its_plan(shape, bc, group):
    surface = SHAPES[shape][0]
    c = 2 if surface.axisymmetric else 1  # right-hand sides per entry and system: (b_m, b_-m) per order
    for step in steps(shape, bc, CONTEXTS if group else CONTEXTS[1]):
        data = step[3]
        b = np.stack([b for b, _ in data]) if group else data[0][0]
        system = build(shape, bc, step, b)
        assert len(system) == 4
        A, B, rest, plan = system
        assert isinstance(plan, _Modes) and A.ndim == B.ndim == 3
        assert B.shape == (*A.shape[:2], len(data) * c)
        assert A.shape[0] == len(plan.counts[0]) and A.shape[2] == max(plan.counts[0])
        if surface.axisymmetric:  # per |m| and, on a shape symmetric about z = 0, per parity
            assert len(A) == (2 * step[0] + 1 if surface.mirror_symmetric else step[0] + 1)
        assert np.ndim(rest) == (2 if group else 1)
        # the plan's pairs mark the cos/sin columns exactly where the shape is folded about the xz-plane
        assert (plan.pairs is not None) is (surface.xz_symmetric and not surface.axisymmetric)
