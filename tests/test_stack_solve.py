"""The kept step's solve of a whole stack of systems in one operation.

``_solve_factored`` takes the singular values of every system of the stack
in one batched call, then solves the stack by one batched LU (a unit pivot in
each padded column) or, where the cutoff drops a value, by one batched
truncated SVD.  The reference below is the per-system loop it replaced, kept
as it was: on full-rank stacks of real escalation steps the two must agree
bitwise; where a value is dropped, in rank and to rounding.
"""

import functools
import math

import numpy as np
import pytest

from mrcscatter import direct_solver
from mrcscatter.direct_solver import (
    LeastSquaresInfo,
    WaveContext,
    _Modes,
    _factor,
    _solve_factored,
    mrc_solve,
)
from mrcscatter.geometry import Direction, Ellipsoid, PerturbedSphere, quadrature_for_degree

CTX = WaveContext(1.0, Direction(0.6, 0.4))


def loop_solve_factored(system, factor, svd_cutoff) -> LeastSquaresInfo:
    """The per-system solve: one SVD and one branch per system of the stack."""
    (A, B, _, modes), (R, norms) = system[:4], factor
    n, orders = modes.counts
    w = A.shape[2]
    svals = [np.linalg.svd(Rs[:ns, :ns], compute_uv=False) for Rs, ns in zip(R, n)]
    s_max = max(s[0] for s in svals)
    C = np.zeros((len(A), w, B.shape[2]), dtype=complex)
    rank, s_min = 0, math.inf
    for Rs, cn, ns, s, Cs, q in zip(R, norms[:, :, None], n, svals, C, orders):
        # an all-zero matrix (s_max == 0) keeps nothing; s descends, so the
        # kept values are the first r ones, shared by the q orders of a system
        r = int(np.count_nonzero((s > 0.0) & (s >= svd_cutoff * s_max)))
        if r == ns:
            Cs[:ns] = np.linalg.solve(Rs[:ns, :ns], -Rs[:ns, w:]) / cn[:ns]
        elif r > 0:
            U, sv, Vh = np.linalg.svd(Rs[:, :ns], full_matrices=False)
            y = (U[:, :r].conj().T @ Rs[:, w:]) / sv[:r, None]
            Cs[:ns] = -(Vh[:r].conj().T @ y) / cn[:ns]
        rank, s_min = rank + r * q, min(s_min, s[r - 1]) if r else s_min
    condition = float(s_max / s_min) if rank else math.inf
    residual = float(np.linalg.norm(np.concatenate(((A @ C + B).ravel(), system[2]))))
    return LeastSquaresInfo(C[system[3]], residual, int(rank), condition)


# (surface, boundary condition, eps_target, L_max): per-order stacks under both
# conditions (folded per parity: the shape is symmetric about z = 0) and on a
# shape that is not, parity stacks over odd and even n_theta, the cos/sin stack of a
# shape symmetric about the xz-plane only ("dense") and one dense system
ESCALATIONS = {
    "per-order dirichlet": (PerturbedSphere(1.0, [(2, 0, 0.2)]), "dirichlet", 1e-6, 12),
    "per-order neumann": (PerturbedSphere(1.0, [(2, 0, 0.2)]), "neumann", 1e-4, 12),
    "per-order unmirrored": (PerturbedSphere(1.0, [(3, 0, 0.1)]), "dirichlet", 1e-6, 12),
    "parity dirichlet": (Ellipsoid(1.0, 0.95, 0.9), "dirichlet", 1e-4, 12),
    "parity neumann": (Ellipsoid(1.0, 0.95, 0.9), "neumann", 1e-4, 12),
    "dense": (PerturbedSphere(1.0, [(2, 1, 0.15)]), "dirichlet", 1e-3, 10),
    "no-fold": (PerturbedSphere(1.0, [(2, -1, 0.15)]), "dirichlet", 1e-3, 10),
}


@functools.cache
def escalation_steps(name):
    """The (system, factor) stack of every step of one mrc_solve run of
    ESCALATIONS[name], L = 0, 1, ..."""
    surface, bc, eps, L_max = ESCALATIONS[name]
    steps, qr_residual = [], direct_solver._qr_residual

    def recording(system, factor):
        steps.append((system, factor))
        return qr_residual(system, factor)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(direct_solver, "_qr_residual", recording)
        mrc_solve(surface, CTX, bc, eps_target=eps, L_max=L_max)
    return steps


@pytest.fixture(params=ESCALATIONS)
def steps(request):
    return escalation_steps(request.param)


def assert_bitwise(info, ref):
    assert info.coeffs.tobytes() == ref.coeffs.tobytes()
    assert (info.rank, info.condition, info.residual) == (ref.rank, ref.condition, ref.residual)


def test_full_rank_steps_are_solved_bitwise_as_by_the_loop(steps):
    assert len(steps) >= 10
    for system, factor in steps:
        ref = loop_solve_factored(system, factor, 1e-12)
        n, orders = system[3].counts
        assert ref.rank == n @ orders  # every system keeps all its columns
        assert_bitwise(_solve_factored(system, factor, 1e-12), ref)


def test_parity_steps_cover_odd_and_even_n_theta():
    # step L runs on the rule of degree max(ceil(2.5 L), 16); every escalation
    # above reaches L = 9
    n_theta = [quadrature_for_degree(max(math.ceil(2.5 * L), 16)).n_theta for L in range(10)]
    assert {n % 2 for n in n_theta} == {0, 1}


def assert_close(info, ref):
    assert info.rank == ref.rank
    scale = np.max(np.abs(ref.coeffs))
    assert np.max(np.abs(info.coeffs - ref.coeffs)) <= 1e-12 * scale
    assert info.residual == pytest.approx(ref.residual, rel=1e-12)
    assert info.condition == pytest.approx(ref.condition, rel=1e-12)


@pytest.mark.parametrize("name", ["per-order dirichlet", "per-order unmirrored", "parity neumann", "dense", "no-fold"])
def test_stack_truncated_by_the_cutoff(name):
    system, factor = escalation_steps(name)[-1]
    ref = loop_solve_factored(system, factor, 0.5)
    n, orders = system[3].counts
    assert 0 < ref.rank < n @ orders
    assert_close(_solve_factored(system, factor, 0.5), ref)


def two_system_stack(second):
    """Two systems of 8 rows and 3 columns, one right-hand side each."""
    rng = np.random.default_rng(21)
    A = rng.standard_normal((2, 8, 3)) + 1j * rng.standard_normal((2, 8, 3))
    A[1] = second(A[1])
    B = rng.standard_normal((2, 8, 1)) + 1j * rng.standard_normal((2, 8, 1))
    modes = _Modes((np.repeat([0, 1], 3), np.tile([0, 1, 2], 2), np.zeros(6, dtype=int)),
                   (np.array([3, 3]), np.array([1, 1])))
    return (A, B, (), modes)


@pytest.mark.parametrize("second, rank", [
    (lambda M: M[:, [0, 1, 0]], 5),  # one system drops a value, the other keeps all three
    (lambda M: 0 * M, 3),  # an all-zero system keeps nothing
])
def test_stack_with_one_deficient_system(second, rank):
    system = two_system_stack(second)
    factor = _factor(*system[:2])
    ref = loop_solve_factored(system, factor, 1e-12)
    assert ref.rank == rank
    assert_close(_solve_factored(system, factor, 1e-12), ref)


def test_wide_system():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    b = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    modes = _Modes((np.zeros(5, dtype=int), np.arange(5), np.zeros(5, dtype=int)),
                   (np.array([5]), np.array([1])))
    system = (A[None], b.reshape(1, -1, 1), (), modes)
    ref = loop_solve_factored(system, _factor(*system[:2]), 1e-12)
    assert ref.rank == 3
    assert_close(_solve_factored(system, _factor(*system[:2]), 1e-12), ref)
