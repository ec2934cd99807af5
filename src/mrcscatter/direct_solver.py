"""Direct scattering by boundary-residual minimization.

The scattered field is sought as a finite combination of outgoing waves
psi[ell, m](x) = Y[ell, m](x/|x|) * hankel_out(ell, k, |x|).  For a soft
(Dirichlet) obstacle the coefficients minimize the L2 boundary norm of
(incident + combination); for a hard (Neumann) obstacle the same with normal
derivatives.  The truncation degree L escalates until the relative residual
meets the target; the smallest such L is kept.

Each step reads the surface once and takes one Householder QR of [A | b]
(columns of A at unit norm), reading the residual off the R factor as Q is
orthonormal.  At the kept step its singular values give rank and condition;
a system keeping all of its values is solved directly, the truncated SVD
runs only where the cutoff drops one.  On a surface of revolution
(``StarSurface.axisymmetric``) column (ell, m) is g(theta) * exp(i*m*phi)
and n_phi >= 2L+1, so the unitary DFT along phi splits the system into one
block B_m of n_theta x (L+1-|m|) per order, built on the polar axis: the
azimuthal decoupling of T-matrix codes for bodies of revolution (Waterman
1971; Mishchenko, Travis & Mackowski, JQSRT 55 (1996) 535).  As B_-m =
(-1)**m B_m, the QR is of a stack of L+1 systems [B_|m| | 0 | b_m | (-1)**m
b_-m], zero-padded to L+1 columns (Householder no-ops); a general surface
is a stack of one system.  Its rule owns a step's harmonic tables: an escalation
to L_max=30 leaves 3.0 (Dirichlet, axisymmetric) to 6.1 MB (Neumann, general).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from . import specfun
from .geometry import (
    Direction,
    SphereQuadrature,
    StarSurface,
    quadrature_for_degree,
    _normal_from_map,
    _normal_vectors,
)

logger = logging.getLogger(__name__)

DIRICHLET = "dirichlet"
NEUMANN = "neumann"


def _check_bc(bc: str) -> str:
    if bc not in (DIRICHLET, NEUMANN):
        raise ValueError(f"boundary condition must be 'dirichlet' or 'neumann', got {bc!r}")
    return bc


def _check_svd_cutoff(svd_cutoff: float) -> None:
    if not 0.0 < svd_cutoff < 1.0:
        raise ValueError(f"svd_cutoff must be in (0, 1), got {svd_cutoff}")


@dataclass(frozen=True)
class WaveContext:
    """Wavenumber and incidence direction of the plane wave."""

    k: float
    alpha: Direction

    def __post_init__(self) -> None:
        if not self.k > 0:  # NaN too
            raise ValueError(f"wavenumber must be > 0, got {self.k}")


@dataclass
class CoefficientSet:
    """Complex mode coefficients for all (ell, m) with ell <= L, flat-indexed."""

    L: int
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        if self.coeffs.shape != (specfun.n_modes(self.L),):
            raise ValueError(
                f"expected {specfun.n_modes(self.L)} coefficients for L={self.L}, "
                f"got shape {self.coeffs.shape}"
            )

    def get(self, ell: int, m: int) -> complex:
        return complex(self.coeffs[specfun.mode_index(ell, m)])

    def truncated(self, L: int) -> "CoefficientSet":
        if L > self.L:
            raise ValueError(f"cannot truncate L={self.L} up to {L}")
        return CoefficientSet(L, self.coeffs[: specfun.n_modes(L)].copy())


@dataclass
class LeastSquaresInfo:
    coeffs: np.ndarray
    residual: float
    rank: int
    condition: float


@dataclass
class DirectSolution:
    """Result of an escalation run.

    ``residual`` is relative to the boundary norm of the incident data;
    ``history`` records (L, relative residual) per escalation step.
    """

    coefficients: CoefficientSet
    residual: float
    boundary_condition: str
    converged: bool
    condition: float
    rank: int
    history: list[tuple[int, float]] = field(default_factory=list)


def _read_boundary(surface: StarSurface, quad: SphereQuadrature, nodes=slice(None)):
    """From one radial_map at the quadrature nodes ``nodes`` picks: f, the outward
    normal's (r, theta, phi) components and the weight sqrt(w_p * omega_p)
    with omega = f**2 / n_r, which turns the Euclidean norm over the nodes
    into the discretized L2 boundary norm."""
    f, ft, fp = surface.radial_map(quad.theta[nodes], quad.phi[nodes])
    normal = _normal_from_map(quad.theta[nodes], f, ft, fp)
    return f, normal, np.sqrt(quad.weights[nodes] * (f * f / normal[0]))


def incident_trace(
    surface: StarSurface, quad: SphereQuadrature, ctx: WaveContext, bc: str
) -> np.ndarray:
    """Incident plane-wave data on the boundary at the quadrature directions:
    the trace for Dirichlet, the outward normal derivative for Neumann."""
    return _incident(quad, ctx, _check_bc(bc), *_read_boundary(surface, quad)[:2])


def _incident(quad, ctx, bc, f, normal) -> np.ndarray:
    points = f[:, None] * quad.vectors
    u0 = np.exp(1j * ctx.k * points @ ctx.alpha.vector)
    if bc == DIRICHLET:
        return u0
    N = _normal_vectors(quad.theta, quad.phi, *normal)
    return 1j * ctx.k * (N @ ctx.alpha.vector) * u0


def _boundary_weight(surface: StarSurface, quad: SphereQuadrature) -> np.ndarray:
    """sqrt(w_p * omega_p): turns the Euclidean norm over the nodes into the
    discretized L2 boundary norm."""
    return _read_boundary(surface, quad)[2]


def _basis_columns(
    surface: StarSurface, quad: SphereQuadrature, ctx: WaveContext, L: int, bc: str
) -> np.ndarray:
    """Unweighted collocation matrix: psi[ell, m] (or its outward normal
    derivative) at the boundary points, rows by node, columns by flat mode."""
    return _columns(quad, ctx, L, _check_bc(bc), *_read_boundary(surface, quad)[:2])


def _columns(quad, ctx, L, bc, f, normal) -> np.ndarray:
    if L < 0:
        raise ValueError(f"truncation degree must be >= 0, got {L}")
    quad.check_aliasing(L)
    ells = specfun.mode_degrees(L)
    Y = specfun._grid_modes(L, quad.legendre(L), quad.azimuths(L))
    if bc == DIRICHLET:
        return Y * specfun.hankel_out_table(L, ctx.k, f)[ells].T
    H, Hd = specfun._hankel_out_pair(L, ctx.k, f)
    dY = specfun._grid_modes(L, quad.legendre_dtheta(L), quad.azimuths(L))
    nr, nt, nph = normal
    ang = nt[:, None] * dY + nph[:, None] * specfun._dphi_over_sin(L, quad.theta, Y)
    return (nr * Hd)[ells].T * Y + (H / f)[ells].T * ang


def _order_system(quad, ctx, L, bc, f, normal, scale, b):
    """An axisymmetric surface's system (f, normal, scale on the polar axis)
    after the unitary DFT along phi: the stack of L+1 systems B_|m| with
    right-hand sides (b_m, (-1)**m b_-m), the bins no column reaches, and where
    each flat mode (ell, m) sits in the solution stack: system |m|, column
    ell - |m|, right-hand side 0 for m >= 0 and 1 for m < 0."""
    P, (nr, nt, _) = quad.legendre(L), normal
    if bc == DIRICHLET:
        G = specfun.hankel_out_table(L, ctx.k, f)[:, None] * P
    else:  # the normal has no phi component on a surface of revolution
        H, Hd = (T[:, None] for T in specfun._hankel_out_pair(L, ctx.k, f))
        G = nr * Hd * P + nt * (H / f) * quad.legendre_dtheta(L)
    G *= math.sqrt(quad.n_phi) * scale
    bh = np.fft.fft(b.reshape(quad.n_theta, quad.n_phi), axis=1, norm="ortho")
    ells, ms = specfun.mode_degrees(L), specfun.mode_orders(L)
    modes = (np.abs(ms), ells - np.abs(ms), (ms < 0).astype(int))
    A = np.zeros((L + 1, quad.n_theta, L + 1), dtype=complex)
    A[modes[0], :, modes[1]] = G[ells, modes[0]]
    # Y[ell, -m] = Pbar[ell, m] * (-1)**m * exp(-i*m*phi), so B_-m = (-1)**m B_m
    rhs = np.zeros((L + 1, quad.n_theta, 2), dtype=complex)
    rhs[modes[0], :, modes[2]] = bh[:, ms].T * np.where(ms < 0, (-1.0) ** ms, 1.0)[:, None]
    return A, rhs, bh[:, L + 1 : quad.n_phi - L].ravel(), modes


def assemble_basis_matrix(
    surface: StarSurface,
    quad: SphereQuadrature,
    ctx: WaveContext,
    L: int,
    bc: str,
) -> np.ndarray:
    """Weighted collocation matrix of the outgoing basis on the boundary.

    Row p, column (ell, m) holds sqrt(w_p * omega_p) times psi[ell, m] (or its
    outward normal derivative), so the Euclidean residual of the linear system
    is the discretized L2 boundary norm.  Requires quadrature degree >= 2L.
    """
    _check_bc(bc)
    f, normal, scale = _read_boundary(surface, quad)
    return scale[:, None] * _columns(quad, ctx, L, bc, f, normal)


# where the flat modes sit in the solution of one system with one right-hand side
_DENSE = (0, slice(None), 0)


def _factor(matrix: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """R factor of [matrix / column norms | rhs], and the norms (0 read as 1),
    for one system (rhs a vector) or a stack of them (rhs a column each)."""
    col_norms = np.linalg.norm(matrix, axis=-2)
    col_norms[col_norms == 0.0] = 1.0
    rhs = rhs.reshape(*matrix.shape[:-1], -1)
    augmented = np.concatenate((matrix / col_norms[..., None, :], rhs), axis=-1)
    return np.linalg.qr(augmented, mode="r"), col_norms


def _stacked(system, factor):
    """A (matrix, rhs, rest, modes) system and its _factor as stacks, with the
    real column and right-hand-side counts of each: those ``modes`` reads."""
    A, B, _, modes = system
    A = A.reshape(-1, *A.shape[-2:])
    B = B.reshape(*A.shape[:2], -1)
    R, norms = factor[0].reshape(len(A), *factor[0].shape[-2:]), factor[1].reshape(len(A), -1)
    real = np.zeros((len(A), A.shape[2], B.shape[2]), dtype=bool)
    real[modes] = True
    return A, B, R, norms, real.any(axis=2).sum(axis=1), real.any(axis=1).sum(axis=1)


def _qr_residual(system, factor) -> float:
    """Least-squares residual off the R factors: each system's right-hand
    sides below its real columns, and the part of b no column reaches."""
    A, _, R, _, n, _ = _stacked(system, factor)
    below = np.arange(R.shape[1]) >= n[:, None]
    return float(np.linalg.norm(np.concatenate((R[..., A.shape[2] :][below].ravel(), system[2]))))


def _solve_factored(system, factor, svd_cutoff) -> LeastSquaresInfo:
    """Solve of min ||A @ C + B|| over a (matrix, rhs, rest, modes) stack of
    systems on its _factor R (see the module docstring); ``rest`` is the part
    of b no column reaches, ``modes`` picks the flat modes out of C."""
    A, B, R, norms, n, orders = _stacked(system, factor)
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


def solve_least_squares(
    matrix: np.ndarray, rhs: np.ndarray, svd_cutoff: float = 1e-12
) -> LeastSquaresInfo:
    """Minimize ||matrix @ c + rhs|| by a QR of [matrix | rhs], then a solve
    on the small R factor (a truncated SVD where it is rank-deficient).

    Columns are pre-scaled to unit norm (undone on return); singular values
    below svd_cutoff * sigma_max are discarded, which selects the minimum-norm
    solution on the retained subspace.  Returns the exact achieved residual.
    """
    if matrix.size == 0:
        raise ValueError("empty system")
    _check_svd_cutoff(svd_cutoff)
    system = (matrix, rhs, (), _DENSE)
    return _solve_factored(system, _factor(matrix, rhs), svd_cutoff)


def mrc_solve(
    surface: StarSurface,
    ctx: WaveContext,
    bc: str = DIRICHLET,
    eps_target: float = 1e-6,
    L_start: int = 0,
    L_max: int = 30,
    quad_degree_factor: float = 2.5,
    svd_cutoff: float = 1e-12,
) -> DirectSolution:
    """Escalate the truncation degree until the boundary residual (relative to
    the incident-data norm) drops to eps_target; keep the smallest such L.

    Exhausting L_max is not an error: the best coefficients found are
    returned with ``converged = False``.  A step whose system is not finite
    (overflow) ends the escalation the same way; ValueError if none was.
    """
    _check_bc(bc)
    _check_svd_cutoff(svd_cutoff)
    if not eps_target > 0:  # NaN too
        raise ValueError(f"eps_target must be > 0, got {eps_target}")
    if L_start < 0:
        raise ValueError(f"truncation degree must be >= 0, got L_start={L_start}")
    if L_start > L_max:
        raise ValueError(f"L_start={L_start} exceeds L_max={L_max}")
    if not 2.0 <= quad_degree_factor < math.inf:
        raise ValueError(
            f"quad_degree_factor must be finite and >= 2 (anti-aliasing), got {quad_degree_factor}"
        )
    history: list[tuple[int, float]] = []
    best, converged = None, False
    for L in range(L_start, L_max + 1):
        # >= 2L as quad_degree_factor >= 2; the floor keeps small-L residuals trustworthy
        degree = max(math.ceil(quad_degree_factor * L), 16)
        quad = quadrature_for_degree(degree)
        # a surface of revolution is read on the polar axis, repeated along phi for b
        step = quad.n_phi if surface.axisymmetric else 1
        f, normal, scale = _read_boundary(surface, quad, slice(None, None, step))
        grid = [np.repeat(x, step, axis=-1) for x in (f, normal, scale)]
        b = _incident(quad, ctx, bc, *grid[:2]) * grid[2]
        if surface.axisymmetric:
            system = _order_system(quad, ctx, L, bc, f, normal, scale, b)
        else:
            system = (scale[:, None] * _columns(quad, ctx, L, bc, f, normal), b, (), _DENSE)
        if not (np.isfinite(system[0]).all() and np.isfinite(system[1]).all()):
            logger.warning("escalation stops at L=%d: boundary system not finite (overflow)", L)
            break
        factor = _factor(*system[:2])
        b_norm = np.linalg.norm(b)
        rel = _qr_residual(system, factor) / b_norm
        history.append((L, rel))
        logger.debug("L=%d relative residual %.3e", L, rel)
        # truncation or rounding can leave the solved residual above the QR one
        step = (system, factor, svd_cutoff)
        if rel <= eps_target and (info := _solve_factored(*step)).residual <= eps_target * b_norm:
            converged = True
            break
        if best is None or rel < best[0]:
            best = (rel, L, b_norm, step)
    if not converged:
        if best is None:
            raise ValueError(f"no finite escalation step from L={L_start}")
        _, L, b_norm, step = best
        info = _solve_factored(*step)
        logger.warning(
            "escalation ended at L=%d; keeping L=%d with relative residual %.3e > %.3e",
            history[-1][0], L, info.residual / b_norm, eps_target,
        )
    rel = info.residual / b_norm
    return DirectSolution(
        coefficients=CoefficientSet(L, info.coeffs),
        residual=rel,
        boundary_condition=bc,
        converged=converged,
        condition=info.condition,
        rank=info.rank,
        history=history,
    )
