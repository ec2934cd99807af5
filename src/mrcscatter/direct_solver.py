"""Direct scattering by boundary-residual minimization.

The scattered field is sought as a finite combination of outgoing waves
psi[ell, m](x) = Y[ell, m](x/|x|) * hankel_out(ell, k, |x|).  For a soft
(Dirichlet) obstacle the coefficients minimize the L2 boundary norm of
(incident + combination); for a hard (Neumann) obstacle the same with normal
derivatives.  The truncation degree L escalates until the relative residual
meets the target; the smallest such L is kept.
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
    Y = specfun.sph_harm_table(L, quad.theta, quad.phi)
    H = specfun.hankel_out_table(L, ctx.k, f)
    if bc == DIRICHLET:
        return Y * H[ells].T
    Hd = specfun.hankel_out_dr_table(L, ctx.k, f)
    dY = specfun.sph_harm_dtheta_table(L, quad.theta, quad.phi)
    pY = specfun.sph_harm_dphi_over_sin_table(L, quad.theta, quad.phi)
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


def solve_least_squares(
    matrix: np.ndarray, rhs: np.ndarray, svd_cutoff: float = 1e-12
) -> LeastSquaresInfo:
    """Minimize ||matrix @ c + rhs|| by truncated SVD.

    Columns are pre-scaled to unit norm (undone on return); singular values
    below svd_cutoff * sigma_max are discarded, which selects the minimum-norm
    solution on the retained subspace.  Returns the exact achieved residual.
    """
    if matrix.size == 0:
        raise ValueError("empty system")
    if not 0.0 < svd_cutoff < 1.0:
        raise ValueError(f"svd_cutoff must be in (0, 1), got {svd_cutoff}")
    col_norms = np.linalg.norm(matrix, axis=0)
    col_norms[col_norms == 0.0] = 1.0
    A = matrix / col_norms
    U, s, Vh = np.linalg.svd(A, full_matrices=False)
    # an all-zero matrix (s[0] == 0) keeps nothing
    keep = (s > 0.0) & (s >= svd_cutoff * s[0])
    rank = int(np.count_nonzero(keep))
    if rank == 0:
        coeffs = np.zeros(matrix.shape[1], dtype=complex)
        condition = math.inf
    else:
        Uk, sk, Vhk = U[:, keep], s[keep], Vh[keep]
        coeffs = -(Vhk.conj().T @ ((Uk.conj().T @ rhs) / sk)) / col_norms
        condition = float(s[0] / sk[-1])
    residual = float(np.linalg.norm(matrix @ coeffs + rhs))
    return LeastSquaresInfo(coeffs=coeffs, residual=residual, rank=rank, condition=condition)


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
    returned with ``converged = False``.
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
    best: tuple[float, int, LeastSquaresInfo] | None = None
    for L in range(L_start, L_max + 1):
        # floor keeps small-L residual estimates trustworthy
        degree = max(math.ceil(quad_degree_factor * L), 2 * L, 16)
        quad = quadrature_for_degree(degree)
        scale = _boundary_weight(surface, quad)
        A = scale[:, None] * _basis_columns(surface, quad, ctx, L, bc)
        b = incident_trace(surface, quad, ctx, bc) * scale
        info = solve_least_squares(A, b, svd_cutoff)
        rel = info.residual / np.linalg.norm(b)
        history.append((L, rel))
        logger.debug("L=%d relative residual %.3e (rank %d)", L, rel, info.rank)
        # every earlier step missed the target, so a converged step is the best
        if best is None or rel < best[0]:
            best = (rel, L, info)
        if rel <= eps_target:
            break
    rel, L, info = best
    converged = bool(rel <= eps_target)
    if not converged:
        logger.warning(
            "escalation exhausted at L_max=%d with relative residual %.3e > %.3e",
            L_max, rel, eps_target,
        )
    return DirectSolution(
        coefficients=CoefficientSet(L, info.coeffs),
        residual=rel,
        boundary_condition=bc,
        converged=converged,
        condition=info.condition,
        rank=info.rank,
        history=history,
    )
