"""Direct scattering by boundary-residual minimization.

The scattered field is sought as a finite combination of outgoing waves
psi[ell, m](x) = Y[ell, m](x/|x|) * hankel_out(ell, k, |x|).  For a soft
(Dirichlet) obstacle the coefficients minimize the L2 boundary norm of
(incident + combination); for a hard (Neumann) obstacle the same with normal
derivatives.  The truncation degree L escalates until the relative residual
meets the target; the smallest such L is kept.

Each step takes one Householder QR of [A | b] (columns of A at unit norm)
and reads its residual off |R[n, n]|, since Q is orthonormal and so
||A c + b|| = ||R[:, :n] c + R[:, n]||.  The truncated SVD runs once, on the
small R at the kept step: A and R[:, :n] share singular values.
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
    outward_normal,
    quadrature_for_degree,
    surface_element,
    _normal_spherical_components,
)

logger = logging.getLogger(__name__)

DIRICHLET = "dirichlet"
NEUMANN = "neumann"


def _check_bc(bc: str) -> str:
    if bc not in (DIRICHLET, NEUMANN):
        raise ValueError(f"boundary condition must be 'dirichlet' or 'neumann', got {bc!r}")
    return bc


@dataclass(frozen=True)
class WaveContext:
    """Wavenumber and incidence direction of the plane wave."""

    k: float
    alpha: Direction

    def __post_init__(self) -> None:
        if self.k <= 0:
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


def incident_trace(
    surface: StarSurface, quad: SphereQuadrature, ctx: WaveContext, bc: str
) -> np.ndarray:
    """Incident plane-wave data on the boundary at the quadrature directions:
    the trace for Dirichlet, the outward normal derivative for Neumann."""
    _check_bc(bc)
    points = surface.boundary_points(quad.theta, quad.phi)
    u0 = np.exp(1j * ctx.k * points @ ctx.alpha.vector)
    if bc == DIRICHLET:
        return u0
    N = outward_normal(surface, quad.theta, quad.phi)
    return 1j * ctx.k * (N @ ctx.alpha.vector) * u0


def _boundary_weight(surface: StarSurface, quad: SphereQuadrature) -> np.ndarray:
    """sqrt(w_p * omega_p): turns the Euclidean norm over the nodes into the
    discretized L2 boundary norm."""
    return np.sqrt(quad.weights * surface_element(surface, quad.theta, quad.phi))


def _basis_columns(
    surface: StarSurface, quad: SphereQuadrature, ctx: WaveContext, L: int, bc: str
) -> np.ndarray:
    """Unweighted collocation matrix: psi[ell, m] (or its outward normal
    derivative) at the boundary points, rows by node, columns by flat mode."""
    _check_bc(bc)
    if L < 0:
        raise ValueError(f"truncation degree must be >= 0, got {L}")
    if quad.degree < 2 * L:
        raise ValueError(
            f"quadrature degree {quad.degree} insufficient for L={L} "
            f"(needs >= {2 * L}: aliasing risk)"
        )
    ells = specfun.mode_degrees(L)
    f = surface.radius(quad.theta, quad.phi)
    H = specfun.hankel_out_table(L, ctx.k, f)
    if bc == DIRICHLET:
        return specfun.sph_harm_table(L, quad.theta, quad.phi) * H[ells].T
    Hd = specfun.hankel_out_dr_table(L, ctx.k, f)
    Y, dY, pY = specfun.sph_harm_gradient_tables(L, quad.theta, quad.phi)
    nr, nt, nph = _normal_spherical_components(surface, quad.theta, quad.phi)
    ang = nt[:, None] * dY + nph[:, None] * pY
    return (nr * Hd)[ells].T * Y + (H / f)[ells].T * ang


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
    A = _basis_columns(surface, quad, ctx, L, bc)
    return _boundary_weight(surface, quad)[:, None] * A


def _factor(matrix: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """R factor of [matrix / column norms | rhs], and the norms (0 read as 1)."""
    col_norms = np.linalg.norm(matrix, axis=0)
    col_norms[col_norms == 0.0] = 1.0
    return np.linalg.qr(np.column_stack((matrix / col_norms, rhs)), mode="r"), col_norms


def _solve_factored(matrix, rhs, R, col_norms, svd_cutoff) -> LeastSquaresInfo:
    """Truncated-SVD solve of min ||matrix @ c + rhs|| on _factor's R."""
    n = matrix.shape[1]
    U, s, Vh = np.linalg.svd(R[:, :n], full_matrices=False)
    # an all-zero matrix (s[0] == 0) keeps nothing
    keep = (s > 0.0) & (s >= svd_cutoff * s[0])
    rank = int(np.count_nonzero(keep))
    if rank == 0:
        coeffs = np.zeros(n, dtype=complex)
        condition = math.inf
    else:
        Uk, sk, Vhk = U[:, keep], s[keep], Vh[keep]
        coeffs = -(Vhk.conj().T @ ((Uk.conj().T @ R[:, n]) / sk)) / col_norms
        condition = float(s[0] / sk[-1])
    residual = float(np.linalg.norm(matrix @ coeffs + rhs))
    return LeastSquaresInfo(coeffs=coeffs, residual=residual, rank=rank, condition=condition)


def solve_least_squares(
    matrix: np.ndarray, rhs: np.ndarray, svd_cutoff: float = 1e-12
) -> LeastSquaresInfo:
    """Minimize ||matrix @ c + rhs|| by a QR of [matrix | rhs], then a
    truncated SVD of the small R factor.

    Columns are pre-scaled to unit norm (undone on return); singular values
    below svd_cutoff * sigma_max are discarded, which selects the minimum-norm
    solution on the retained subspace.  Returns the exact achieved residual.
    """
    if matrix.size == 0:
        raise ValueError("empty system")
    if not 0.0 < svd_cutoff < 1.0:
        raise ValueError(f"svd_cutoff must be in (0, 1), got {svd_cutoff}")
    return _solve_factored(matrix, rhs, *_factor(matrix, rhs), svd_cutoff)


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
    if eps_target <= 0:
        raise ValueError(f"eps_target must be > 0, got {eps_target}")
    if L_start > L_max:
        raise ValueError(f"L_start={L_start} exceeds L_max={L_max}")
    if quad_degree_factor < 2.0:
        raise ValueError(
            f"quad_degree_factor must be >= 2 (anti-aliasing), got {quad_degree_factor}"
        )
    history: list[tuple[int, float]] = []
    best, converged = None, False
    for L in range(L_start, L_max + 1):
        # floor keeps small-L residual estimates trustworthy
        degree = max(math.ceil(quad_degree_factor * L), 2 * L, 16)
        quad = quadrature_for_degree(degree)
        scale = _boundary_weight(surface, quad)
        A = scale[:, None] * _basis_columns(surface, quad, ctx, L, bc)
        b = incident_trace(surface, quad, ctx, bc) * scale
        if not (np.isfinite(A).all() and np.isfinite(b).all()):
            logger.warning("escalation stops at L=%d: boundary system not finite (overflow)", L)
            break
        R, col_norms = _factor(A, b)
        b_norm = np.linalg.norm(b)
        rel = np.linalg.norm(R[A.shape[1] :, -1]) / b_norm
        history.append((L, rel))
        logger.debug("L=%d relative residual %.3e", L, rel)
        system = (A, b, R, col_norms, svd_cutoff)
        # truncation or rounding can leave the solved residual above the QR one
        if rel <= eps_target and (info := _solve_factored(*system)).residual <= eps_target * b_norm:
            converged = True
            break
        if best is None or rel < best[0]:
            best = (rel, L, b_norm, system)
    if not converged:
        if best is None:
            raise ValueError(f"no finite escalation step from L={L_start}")
        _, L, b_norm, system = best
        info = _solve_factored(*system)
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
