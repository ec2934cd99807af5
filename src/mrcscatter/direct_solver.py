"""Direct scattering by boundary-residual minimization.

The scattered field is sought as a finite combination of outgoing waves
psi[ell, m](x) = Y[ell, m](x/|x|) * hankel_out(ell, k, |x|).  For a soft
(Dirichlet) obstacle the coefficients minimize the L2 boundary norm of
(incident + combination); for a hard (Neumann) obstacle the same with normal
derivatives.  The truncation degree L escalates until the relative residual
meets the target; the smallest such L is kept.

The surface is read once per block of four degrees, over the block's distinct
rules, node by node (one Hankel table per block on a surface of revolution),
so no step depends on its block.  Each step takes one Householder QR of [A | b]
(columns of A at unit norm), reading the residual off the R factor as Q is
orthonormal.  The QR is of a stack of systems, each zero-padded to one width
(Householder no-ops).  The kept step solves the whole stack at once: one
batched SVD of R gives rank and condition over all systems, then one solve on
R with a unit pivot per padded column, or a truncated SVD if a value drops.
On a surface of revolution (``StarSurface.axisymmetric``) column
(ell, m) is g(theta) * exp(i*m*phi) and n_phi >= 2L+1, so the unitary DFT along
phi leaves L+1 systems [B_|m| | 0 | b_m | (-1)**m b_-m] of n_theta rows (B_-m =
(-1)**m B_m), built on the polar axis: the azimuthal decoupling of bodies of
revolution (Waterman 1971; Mishchenko, Travis & Mackowski, JQSRT 55 (1996) 535).
On another shape symmetric about z = 0 (``mirror_symmetric``: every ellipsoid,
bumps with ell + |m| even) column (ell, m) takes the sign (-1)**(ell+m) at the
mirror node, so the rows (top +- bottom)/sqrt(2) leave two systems, the even
columns and the odd ones, built on the upper rows and the equator (Waterman
1971; the equatorial symmetry of Mishchenko & Travis, JQSRT 60 (1998) 309).
At L=0 no column is odd and the odd rows' data is all residual.  A general
surface is one system.  The rule owns a step's harmonic tables: an escalation
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
        if self.L < 0:
            raise ValueError(f"truncation degree must be >= 0, got L={self.L}")
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

    ``residual`` is relative to the boundary norm of the incident data and bounds
    the relative far-field error (measured: at most 0.96 x on the sphere, 0.32 x
    elsewhere); ``history`` records (L, relative residual) per escalation step.
    """

    coefficients: CoefficientSet
    residual: float
    boundary_condition: str
    converged: bool
    condition: float
    rank: int
    history: list[tuple[int, float]] = field(default_factory=list)


def _read_boundary(surface: StarSurface, quad: SphereQuadrature):
    """f, normal and scale of _read_rules on one rule's whole grid."""
    return _read_rules(surface, [quad], False)[:3]


def _read_rules(surface: StarSurface, quads, axis: bool):
    """From one radial_map at the nodes of all the rules (each one's polar axis
    if ``axis``): f, the outward normal's (r, theta, phi) components, the weight
    sqrt(w_p * omega_p), omega = f**2 / n_r, which turns the Euclidean norm over
    the nodes into the discretized L2 boundary norm, and where each rule ends."""
    theta, phi, w = (np.concatenate([getattr(q, name)[:: q.n_phi if axis else 1] for q in quads])
                     for name in ("theta", "phi", "weights"))
    f, ft, fp = surface.radial_map(theta, phi)
    normal = _normal_from_map(theta, f, ft, fp)
    ends = np.cumsum([q.n_theta if axis else len(q) for q in quads]).tolist()
    return f, normal, np.sqrt(w * (f * f / normal[0])), ends


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
    """The weight sqrt(w_p * omega_p) of _read_rules."""
    return _read_boundary(surface, quad)[2]


def _basis_columns(
    surface: StarSurface, quad: SphereQuadrature, ctx: WaveContext, L: int, bc: str
) -> np.ndarray:
    """Unweighted collocation matrix: psi[ell, m] (or its outward normal
    derivative) at the boundary points, rows by node, columns by flat mode."""
    return _columns(quad, ctx, L, _check_bc(bc), *_read_boundary(surface, quad)[:2])


def _columns(quad, ctx, L, bc, f, normal, rows=slice(None)) -> np.ndarray:
    quad.check_aliasing(L)
    ells = specfun.mode_degrees(L)
    Y = specfun._grid_modes(L, quad.legendre(L)[..., rows], quad.azimuths(L))
    if bc == DIRICHLET:
        return Y * specfun.hankel_out_table(L, ctx.k, f)[ells].T
    H, Hd = specfun._hankel_out_pair(L, ctx.k, f)
    dY = specfun._grid_modes(L, quad.legendre_dtheta(L)[..., rows], quad.azimuths(L))
    nr, nt, nph = normal
    theta = quad.theta.reshape(quad.n_theta, quad.n_phi)[rows].ravel()
    ang = nt[:, None] * dY + nph[:, None] * specfun._dphi_over_sin(L, theta, Y)
    return (nr * Hd)[ells].T * Y + (H / f)[ells].T * ang


def _parity_system(quad, ctx, L, bc, f, normal, scale, b):
    """A mirror-symmetric surface's system after the unitary row transform g *
    (top +- bottom) over mirror pairs of polar rows (g = 1/sqrt(2), 1/2 at the
    equator, its own pair), built by _columns on the upper rows and the equator:
    system 0 holds the columns with ell + m even, system 1 the odd ones,
    zero-padded; each flat mode sits at (parity, column, 0)."""
    h, eq = divmod(quad.n_theta, 2)
    up = slice(h * quad.n_phi, None)
    g = np.repeat(np.where(np.arange(h + eq) < eq, 0.5, math.sqrt(0.5)), quad.n_phi)
    A = (2 * g * scale[up])[:, None] * _columns(
        quad, ctx, L, bc, f[up], [x[up] for x in normal], slice(h, None))
    b = b.reshape(quad.n_theta, quad.n_phi)
    rhs = np.stack((b[h:] + b[::-1][h:], b[h:] - b[::-1][h:])).reshape(2, -1) * g
    ells = specfun.mode_degrees(L)
    odd = (ells + specfun.mode_orders(L)) % 2
    M = np.zeros((2, len(g), odd.size - odd.sum()), dtype=complex)
    M[0], M[1, eq * quad.n_phi :, : odd.sum()] = A[:, odd == 0], A[eq * quad.n_phi :, odd == 1]
    i = np.arange(odd.size)  # lower degrees hold ell(ell+1)/2 even and ell(ell-1)/2 odd modes
    modes = (odd, np.where(odd, i - ells - 1, i + ells) // 2, 0 * odd)
    n = 2 if L else 1  # at L=0 no column is odd: the odd rows are all residual
    return M[:n], rhs[:n], rhs[n:].ravel(), modes


def _order_system(quad, hankel, L, bc, f, normal, scale, bh):
    """An axisymmetric surface's system (f, normal, scale on the polar axis;
    Hankel table at f, and dH/dr for Neumann, of degree >= L) after the unitary
    DFT along phi (``bh`` of b): the stack of L+1 systems B_|m| with right-hand
    sides (b_m, (-1)**m b_-m), the bins no column reaches, and where each flat
    mode (ell, m) sits in the solution stack: system |m|, column ell - |m|,
    right-hand side 0 for m >= 0 and 1 for m < 0."""
    P, (nr, nt, _) = quad.legendre(L), normal
    if bc == DIRICHLET:  # rows 0..L of a higher-degree table are bitwise the degree-L table
        G = hankel[0][: L + 1, None] * P
    else:  # the normal has no phi component on a surface of revolution
        H, Hd = (T[: L + 1, None] for T in hankel)
        G = nr * Hd * P + nt * (H / f) * quad.legendre_dtheta(L)
    G *= math.sqrt(quad.n_phi) * scale
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
    systems on its _factor R as one operation (see the module docstring): a unit
    pivot in each padded column leaves each real triangle's back-substitution as
    it is.  ``rest`` is the part of b no column reaches; ``modes`` picks C's modes."""
    A, B, R, norms, n, orders = _stacked(system, factor)
    w = A.shape[2]
    # a padded column of R is exactly zero and adds an exact-zero value; an
    # all-zero stack keeps nothing, and a system's kept values serve its orders
    s = np.linalg.svd(R[:, :w, :w], compute_uv=False)
    keep = (s > 0.0) & (s >= svd_cutoff * s.max())
    rank = int(keep.sum(axis=1) @ orders)
    if (keep.sum(axis=1) == n).all():
        pivot = np.eye(w, dtype=bool) & (np.arange(w) >= n[:, None, None])
        C = np.linalg.solve(np.where(pivot, 1.0, R[:, :w, :w]), -R[:, :w, w:])
    else:  # truncated SVD: a dropped value's term is divided by inf
        U, sv, Vh = np.linalg.svd(R[..., :w], full_matrices=False)
        y = (U.conj().swapaxes(1, 2) @ R[..., w:]) / np.where(keep, sv, np.inf)[..., None]
        C = -(Vh.conj().swapaxes(1, 2) @ y)
    C /= norms[..., None]
    condition = float(s.max() / s[keep].min()) if rank else math.inf
    residual = float(np.linalg.norm(np.concatenate(((A @ C + B).ravel(), system[2]))))
    return LeastSquaresInfo(C[system[3]], residual, rank, condition)


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


_BLOCK = 4  # escalation steps read ahead together: one radial_map per block


def _escalation_steps(surface, ctx, bc, Ls, quad_degree_factor):
    """Per degree L of ``Ls``: its rule, the boundary read (f, normal, scale; on
    the polar axis of a surface of revolution, repeated along phi for b), the
    incident data b (there its DFT along phi) with the norm of b, and there the
    Hankel table at f (and dH/dr for Neumann) of the top degree of L's block."""
    axis, last = surface.axisymmetric, (None,)
    hankel = specfun._hankel_out_pair if bc == NEUMANN else lambda *a: (specfun.hankel_out_table(*a),)
    for first in range(0, len(Ls), _BLOCK):
        block = Ls[first : first + _BLOCK]
        # >= 2L as quad_degree_factor >= 2; the floor keeps small-L residuals trustworthy
        rules = [max(math.ceil(quad_degree_factor * L), 16) for L in block]
        quads = {d: quadrature_for_degree(d) for d in rules}
        f, normal, scale, ends = _read_rules(surface, list(quads.values()), axis)
        logger.debug("L=%d..%d: one read of rules %s, %d nodes", block[0], block[-1], list(quads), len(f))
        read = (f, *normal, scale, *(hankel(block[-1], ctx.k, f) if axis else ()))
        nodes = dict(zip(quads, map(slice, [0, *ends], ends)))
        for L, d in zip(block, rules):
            quad, (f, nr, nt, nph, scale, *T) = quads[d], [x[..., nodes[d]] for x in read]
            if d != last[0]:  # rules repeat only from one degree to the next
                grid = [np.repeat(x, quad.n_phi if axis else 1, axis=-1) for x in (f, (nr, nt, nph), scale)]
                b = _incident(quad, ctx, bc, *grid[:2]) * grid[2]
                bh = np.fft.fft(b.reshape(quad.n_theta, quad.n_phi), axis=1, norm="ortho") if axis else b
                last = d, bh, np.linalg.norm(b)
            yield L, quad, (f, (nr, nt, nph), scale), last[1:], T


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
    (overflow) ends the escalation the same way; ValueError if none was.  The
    boundary is read per block of four degrees, each step bitwise as if alone.
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
    steps = _escalation_steps(surface, ctx, bc, range(L_start, L_max + 1), quad_degree_factor)
    for L, quad, (f, normal, scale), (b, b_norm), hankel in steps:
        if surface.axisymmetric:
            system = _order_system(quad, hankel, L, bc, f, normal, scale, b)
        elif surface.mirror_symmetric:
            system = _parity_system(quad, ctx, L, bc, f, normal, scale, b)
        else:
            system = (scale[:, None] * _columns(quad, ctx, L, bc, f, normal), b, (), _DENSE)
        if not (np.isfinite(system[0]).all() and np.isfinite(system[1]).all()):
            logger.warning("escalation stops at L=%d: boundary system not finite (overflow)", L)
            break
        factor = _factor(*system[:2])
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
