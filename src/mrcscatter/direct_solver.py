"""Direct scattering by boundary-residual minimization.

The scattered field is sought as a finite combination of outgoing waves
psi[ell, m](x) = Y[ell, m](x/|x|) * hankel_out(ell, k, |x|).  For a soft
(Dirichlet) obstacle the coefficients minimize the L2 boundary norm of
(incident + combination); for a hard (Neumann) obstacle the same with normal
derivatives.  The truncation degree L escalates until the relative residual
meets the target; the smallest such L is kept.

The surface is read once per block of four degrees, over the block's distinct
rules, node by node, with one Hankel table per block for every shape, so no
step depends on its block.  A depends on k and the surface alone, so incidences
of one k escalate together (``solve_entries``; the T-matrix observation of
Waterman, Phys. Rev. D 3 (1971) 825): one read, build and QR per rule for all,
their incident data on a leading axis (a lone entry's has none), each reading its
own residual off R.  The steps of one rule (several only on the degree-16 floor, L = 0..6
at quad_degree_factor 2.5) share one Householder QR of [A | b] (columns of A at unit norm)
at its top degree: columns go by degree, so a lower degree's system is a column prefix on
the same rows, its residual R's right-hand sides below it as Q is orthonormal (nested
least squares; Bjorck 1996).  Every builder gives a
stack of systems (one with no fold), zero-padded to one width (Householder no-ops), and a
_Modes plan of where each flat mode sits.  The kept step solves the stack at once: one
batched SVD of R gives rank and condition over all systems, then one solve on R with a
unit pivot per padded column, or a truncated SVD if a value drops.
On a surface of revolution (``StarSurface.axisymmetric``) column
(ell, m) is g(theta) * exp(i*m*phi) and n_phi >= 2L+1, so the unitary DFT along
phi leaves L+1 systems [B_|m| | 0 | b_m | (-1)**m b_-m] of n_theta rows (B_-m =
(-1)**m B_m), built on the polar axis: the azimuthal decoupling of bodies of
revolution (Waterman 1971; Mishchenko, Travis & Mackowski, JQSRT 55 (1996) 535).
Any other shape is folded by its mirror flags, each fold halving the nodes and
doubling the systems, all unitarily equivalent to the unsplit one, condition
included (Kahnert, Stamnes & Stamnes, Appl. Opt. 40 (2001) 3110).  About z = 0
(``mirror_symmetric``: every ellipsoid, bumps with ell + |m| even) column
(ell, m) takes the sign (-1)**(ell+m) at the mirror node, so the rows (top +-
bottom)/sqrt(2) on the upper rows and the equator split even columns from odd
(Waterman 1971; Mishchenko & Travis, JQSRT 60 (1998) 309).  About the xz-plane
(``xz_symmetric``: every ellipsoid, bumps of order m >= 0) the rows (phi +-
-phi)/sqrt(2) on phi in [0, pi] split cos from sin: the real harmonics (Y[ell,
m] +- (-1)**m Y[ell, -m]) / sqrt(2) in slots (ell, +-m), m > 0, which share the
complex column's norm.  No flag leaves a one-system stack.  A system with no
column (the odd ones at L=0) leaves its data to the residual.  The rule owns a
step's harmonic tables: an escalation to L_max=30 leaves 3.0 (Dirichlet,
axisymmetric) to 6.1 MB (Neumann, general).
"""

from __future__ import annotations

import functools
import itertools
import logging
import math
import sys
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


def _check_degree(name: str, value) -> int:
    """An integral degree below sys.maxsize (range()'s bound) as an int, else ValueError naming it."""
    if not value % 1 == 0:  # NaN and inf too; range() would refuse 2.5 bare, int() truncate it
        raise ValueError(f"{name} must be an integer, got {value}")
    if not value < sys.maxsize:
        raise ValueError(f"{name} must be below sys.maxsize = {sys.maxsize}, got {value}")
    return int(value)


def _check_svd_cutoff(svd_cutoff: float) -> None:
    if not 0.0 < svd_cutoff < 1.0:
        raise ValueError(f"svd_cutoff must be in (0, 1), got {svd_cutoff}")


@dataclass(frozen=True)
class WaveContext:
    """Wavenumber and incidence direction of the plane wave."""

    k: float
    alpha: Direction

    def __post_init__(self) -> None:
        if not 0 < self.k <= math.nextafter(math.inf, 0):  # NaN, inf and ints beyond float range too
            raise ValueError(f"wavenumber must be > 0 and finite, got {self.k}")


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
    f, normal = _read_boundary(surface, quad)[:2]
    return _columns(quad, _hankel(L, ctx.k, f, _check_bc(bc)), L, bc, f, normal)


def _hankel(L, k, f, bc):
    """What the builders read at f: the Hankel table of degree L, and dH/dr for Neumann."""
    return specfun._hankel_out_pair(L, k, f) if bc == NEUMANN else (specfun.hankel_out_table(L, k, f),)


def _columns(quad, hankel, L, bc, f, normal, rows=slice(None), real=None) -> np.ndarray:
    """The columns at f, reading rows 0..L of the given _hankel table (of degree >= L)."""
    quad.check_aliasing(L)
    ells = specfun.mode_degrees(L)
    E = quad.azimuths(L) if real is None else real  # a real-harmonic table of _parity_plan
    Y = specfun._grid_modes(L, quad.legendre(L)[..., rows], E)
    if bc == DIRICHLET:
        return Y * hankel[0][ells].T
    H, Hd = (T[: L + 1] for T in hankel)
    dY = specfun._grid_modes(L, quad.legendre_dtheta(L)[..., rows], E)
    nr, nt, nph = normal
    theta = np.repeat(quad.theta_axis[rows], E.shape[1])
    ang = nt[:, None] * dY + nph[:, None] * specfun._dphi_over_sin(L, theta, Y, real is not None)
    return (nr * Hd)[ells].T * Y + (H / f)[ells].T * ang


def _parity_system(quad, hankel, L, bc, f, normal, scale, b, xz=False, z=True):
    """A surface's system (not of revolution; see the module docstring) after the
    unitary fold (x +- x') * w/2**F of each node x with its mirror x' about z = 0
    if ``z`` and about the xz-plane if ``xz`` (F folds; w = sqrt(2)**F, but 1 for
    + and 0 for - on its own mirror), built by _columns times w on the nodes they
    keep; the entries of b (a leading axis) give right-hand sides side by side,
    rows of rest.  With no fold: a one-system stack."""
    w, used, columns, modes, E, images, signs = _parity_plan(L, quad.n_theta, quad.n_phi, xz, z)
    f, nr, nt, nph, scale, *hankel = (x[..., images[0]] for x in (f, *normal, scale, *hankel))  # kept nodes
    A = _columns(quad, hankel, L, bc, f, (nr, nt, nph), slice(quad.n_theta // 2 * z, None), E)
    M = np.zeros((len(columns), len(A), len(columns[0])), dtype=complex)
    for system, modes_in in zip(M, columns):
        system[:, : len(modes_in)] = A.take(modes_in, axis=1)  # faster than A[:, modes_in]
    M *= (w[used] * scale)[..., None]
    rhs = (signs @ b[..., images]) * (w / 2 ** (z + xz))  # b at each kept node and its mirrors
    B = rhs[..., used, :].T.swapaxes(0, 1).reshape(*M.shape[:2], -1)  # a view, the entries last
    return M, B, rhs[..., ~used, :].reshape(*b.shape[:-1], -1), modes


@functools.lru_cache(maxsize=None)
def _parity_plan(L: int, n_theta: int, n_phi: int, xz: bool, z: bool = True):
    """For _parity_system, shared by its calls (read-only): w per system and
    kept node, the systems with a column, the flat modes of each, each mode's
    place (its ``pairs``, if ``xz``: the flat norm indices of the cos and sin column
    of each (ell, m > 0)), the real azimuth table (sqrt(2) cos(m*phi), 1 and i*sqrt(2)
    sin(|m|*phi) in rows m + L > L, L and < L) if ``xz``, the flat indices of each kept
    node and its mirrors (by the folds ``z``, ``xz``), and the signs that fold them into rows."""
    t, j = np.arange(n_theta // 2 * z, n_theta), np.arange(n_phi // 2 + 1 if xz else n_phi)
    rows, cols = np.array((t, n_theta - 1 - t))[: 1 + z], np.array((j, -j % n_phi))[: 1 + xz]  # node, mirror
    images = (rows[:, None, :, None] * n_phi + cols[:, None, :]).reshape(len(rows) * len(cols), -1)
    fold = lambda x: np.where(x[0] == x[-1], [[1.0], [0.0]], 2.0)[: len(x)]  # w**2 of the + and - rows
    w2 = fold(rows)[:, None, :, None] * fold(cols)[:, None]
    signs = np.kron(*(np.array([[1.0, 1.0], [1.0, -1.0]])[: len(x), : len(x)] for x in (rows, cols)))
    ells, ms = specfun.mode_degrees(L), specfun.mode_orders(L)
    system = (ells + ms) % 2 * z * (1 + xz) + (ms < 0) * xz
    columns = [np.flatnonzero(system == s) for s in range(2 ** (z + xz))]
    used, columns, col = np.array([c.size > 0 for c in columns]), [c for c in columns if c.size], 0 * ms
    for s, c in enumerate(columns):
        system[c], col[c] = s, np.arange(len(c))
    pos, cos = system * len(columns[0]) + col, np.flatnonzero(ms > 0)  # system 0 is the widest
    m, phi = np.arange(-L, L + 1)[:, None], 2.0 * math.pi * j / n_phi
    E = np.where(m < 0, 1j * np.sin(-m * phi), np.cos(m * phi)) * np.sqrt(1.0 + (m != 0)) if xz else None
    modes = _Modes((system, col, 0 * col), (np.array([len(c) for c in columns]), np.ones(len(columns), int)),
                   np.array((pos[cos], pos[cos - 2 * ms[cos]])) if xz else None)
    plan = np.sqrt(w2.reshape(len(used), -1)), used, columns, modes, E, images, signs
    for x in (plan[0], used, *columns, *[modes.pairs, E] * xz, images, signs):
        x.flags.writeable = False
    return plan


def _order_system(quad, hankel, L, bc, f, normal, scale, bh):
    """An axisymmetric surface's system (f, normal, scale on the polar axis;
    Hankel table at f, and dH/dr for Neumann, of degree >= L) after the unitary
    DFT along phi (``bh`` of b): the stack of L+1 systems B_|m| with right-hand
    sides (b_m, (-1)**m b_-m), the bins no column reaches, and where each flat
    mode (ell, m) sits in the solution stack: system |m|, column ell - |m|,
    right-hand side 0 for m >= 0 and 1 for m < 0.  The entries of ``bh`` (a
    leading axis, if any) give right-hand sides side by side, each entry's
    pair in turn, and one row of bins each."""
    P, (nr, nt, _) = quad.legendre(L), normal
    if bc == DIRICHLET:  # rows 0..L of a higher-degree table are bitwise the degree-L table
        G = hankel[0][: L + 1, None] * P
    else:  # the normal has no phi component on a surface of revolution
        H, Hd = (T[: L + 1, None] for T in hankel)
        G = nr * Hd * P + nt * (H / f) * quad.legendre_dtheta(L)
    G *= math.sqrt(quad.n_phi) * scale
    index, modes = _order_plan(L, quad.n_theta)
    A = np.concatenate((G.ravel(), np.zeros(quad.n_theta)))[index]
    # Y[ell, -m] = Pbar[ell, m] * (-1)**m * exp(-i*m*phi), so B_-m = (-1)**m B_m
    rhs = np.zeros((L + 1, quad.n_theta, *bh.shape[:-2], 2), dtype=complex)  # .T puts bh's entries last
    rhs[..., 0] = bh[..., : L + 1].T * 1.0  # the complex product m < 0 takes: signed zeros round alike
    rhs[1:, ..., 1] = (bh[..., -1 : -L - 1 : -1] * (-1.0) ** np.arange(1, L + 1)).T
    return A, rhs.reshape(*A.shape[:2], -1), bh[..., L + 1 : quad.n_phi - L].reshape(*bh.shape[:-2], -1), modes


@functools.lru_cache(maxsize=None)
def _order_plan(L: int, n_theta: int):
    """For _order_system (read-only): the flat indices taking G (L+1, L+1,
    n_theta), flattened with one zero row appended, to the stack A[m, :, j] =
    G[m + j, m, :], zero where m + j > L, and where each flat mode sits."""
    m, j = np.arange(L + 1)[:, None], np.arange(L + 1)
    row = np.where(m + j <= L, (m + j) * (L + 1) + m, (L + 1) ** 2)
    ells, ms = specfun.mode_degrees(L), specfun.mode_orders(L)
    counts = np.arange(L + 1, 0, -1), np.minimum(np.arange(L + 1), 1) + 1  # columns, (b_m, b_-m)
    plan = row[:, None, :] * n_theta + np.arange(n_theta)[:, None]
    plan.flags.writeable = False
    return plan, _Modes((np.abs(ms), ells - np.abs(ms), (ms < 0).astype(int)), counts)


class _Modes(tuple):
    """A plan's (system, column, right-hand side) of each flat mode, read-only, with
    each system's real column and right-hand-side ``counts``, and the cos/sin fold's
    ``pairs`` of flat norm indices (None without that fold; see _parity_plan)."""

    def __new__(cls, modes, counts, pairs=None):
        self = super().__new__(cls, modes)
        self.counts, self.pairs = counts, pairs
        for x in (*modes, *counts):
            x.flags.writeable = False
        return self


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
    f, normal, scale = _read_boundary(surface, quad)
    return scale[:, None] * _columns(quad, _hankel(L, ctx.k, f, _check_bc(bc)), L, bc, f, normal)


def _factor(matrix: np.ndarray, rhs: np.ndarray, pairs=None) -> tuple[np.ndarray, np.ndarray]:
    """R factor of [matrix / column norms | rhs], and the norms (0 read as 1), of a stack
    (systems, rows, columns | right-hand sides); each of the plan's ``pairs`` shares one norm."""
    col_norms = np.linalg.norm(matrix, axis=-2)
    if pairs is not None:  # each (cos, sin) pair shares the rms of its norms: its complex column's norm
        flat = col_norms.reshape(-1)
        flat[pairs] = np.sqrt((flat[pairs[0]] ** 2 + flat[pairs[1]] ** 2) / 2)
    col_norms[col_norms == 0.0] = 1.0
    augmented = np.concatenate((matrix / col_norms[..., None, :], rhs), axis=-1)
    return np.linalg.qr(augmented, mode="r"), col_norms


def _qr_residual(system, factor) -> list[float]:
    """Least-squares residual off the R factors, one per entry: each system's
    right-hand sides below its real columns, and the part of b no column
    reaches.  ``rest`` has a row per entry (one row, with no leading axis, for a
    lone entry), and the entries' right-hand sides sit side by side.  Given a degree L as
    a fifth element of ``system``, that of its columns of degree <= L alone: every builder
    orders a system's columns by degree, so these lead it and share its Q."""
    (A, _, rest, plan, *L), R = system, factor[0]
    w, rests, counts = A.shape[2], np.atleast_2d(rest), plan.counts[0]
    if L:  # the +-m modes of an order share a column
        counts, n = np.zeros_like(counts), specfun.n_modes(L[0])
        np.maximum.at(counts, plan[0][:n], plan[1][:n] + 1)
    below = np.arange(R.shape[1]) >= counts[:, None]
    c = (R.shape[2] - w) // len(rests)
    return [float(np.linalg.norm(np.concatenate((R[..., w + c * j : w + c * (j + 1)][below].ravel(), rest))))
            for j, rest in enumerate(rests)]


def _solve_factored(system, factor, svd_cutoff, s=None) -> LeastSquaresInfo:
    """Solve of min ||A @ C + B|| over a (matrix, rhs, rest, plan[, degree]) stack
    of systems on its _factor R as one operation (see the module docstring): a unit
    pivot in each padded column leaves each real triangle's back-substitution as
    it is.  ``rest`` is the part of b no column reaches; the _Modes ``plan`` picks
    C's modes; ``s`` holds the singular values of R's triangles, if known."""
    (A, B, rest, plan), (R, norms), w = system[:4], factor, system[0].shape[2]
    n, orders = plan.counts
    # a padded column of R is exactly zero and adds an exact-zero value; an
    # all-zero stack keeps nothing, and a system's kept values serve its orders
    s = np.linalg.svd(R[:, :w, :w], compute_uv=False) if s is None else s
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
    residual = float(np.linalg.norm(np.concatenate(((A @ C + B).ravel(), rest))))
    return LeastSquaresInfo(C[plan], residual, rank, condition)


def _complex_coeffs(y: np.ndarray) -> np.ndarray:
    """c[ell, +-m] = (+-1)**m (y[ell, m] +- y[ell, -m]) / sqrt(2), m > 0, from real-slot coefficients y."""
    ms, i = specfun.mode_orders(math.isqrt(y.size) - 1), np.arange(y.size)
    pm = (y[i + np.abs(ms) - ms] + np.sign(ms) * y[i - np.abs(ms) - ms]) * (-1.0) ** np.minimum(ms, 0)
    return np.where(ms == 0, y, pm / math.sqrt(2))


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
    n, stack = matrix.shape[1], (matrix[None], rhs.reshape(1, -1, 1))  # one system, one right-hand side
    plan = _Modes((np.zeros(n, int), np.arange(n), np.zeros(n, int)), (np.array([n]), np.array([1])))
    return _solve_factored((*stack, (), plan), _factor(*stack), svd_cutoff)


_BLOCK = 4  # escalation steps read ahead together: one radial_map per block


@functools.lru_cache(maxsize=None)
def _rule(L, q):
    """Step L's rule degree max(ceil(q L), 16), >= 2L as q >= 2 (the floor keeps small-L residuals
    trustworthy), and the top degree on it, whatever the range: L = 0..16/q share the floor."""
    degree = lambda L: max(math.ceil(q * L), 16)
    return degree(L), next(top for top in itertools.count(L) if degree(top + 1) > degree(L))


def _escalation_steps(surface, ctxs, bc, Ls, quad_degree_factor):
    """Per degree L of ``Ls``: its rule, the boundary read (f, normal, scale; on the polar
    axis of a surface of revolution, repeated along phi for b), the incident data b (there
    its DFT along phi) with its norm, one such pair per context of the list ``ctxs`` (of one
    k; solve_entries stacks them), and the _hankel table at f of the top degree of L's block
    or of its rules (_rule): a rule's one system is built at its top from its first block."""
    axis, last = surface.axisymmetric, (None,)
    for first in range(0, len(Ls), _BLOCK):
        block = Ls[first : first + _BLOCK]
        rules = [_rule(L, quad_degree_factor)[0] for L in block]
        quads = {d: quadrature_for_degree(d) for d in rules}
        f, normal, scale, ends = _read_rules(surface, list(quads.values()), axis)
        logger.debug("L=%d..%d: one read of rules %s, %d nodes", block[0], block[-1], list(quads), len(f))
        read = (f, *normal, scale, *_hankel(_rule(block[-1], quad_degree_factor)[1], ctxs[0].k, f, bc))
        nodes = dict(zip(quads, map(slice, [0, *ends], ends)))
        for L, d in zip(block, rules):
            quad, (f, nr, nt, nph, scale, *T) = quads[d], [x[..., nodes[d]] for x in read]
            if d != last[0]:  # rules repeat only from one degree to the next
                grid = [np.repeat(x, quad.n_phi if axis else 1, axis=-1) for x in (f, (nr, nt, nph), scale)]
                # each context alone: points @ alpha picks its BLAS kernel by shape
                data = [(np.fft.fft(b.reshape(quad.n_theta, quad.n_phi), axis=1, norm="ortho") if axis else b,
                         np.linalg.norm(b)) for b in (_incident(quad, c, bc, *grid[:2]) * grid[2] for c in ctxs)]
                last = d, data
            yield L, quad, (f, (nr, nt, nph), scale), last[1], T


def _system(surface, quad, hankel, L, bc, f, normal, scale, b):
    """A step's system for b (entries on a leading axis): per order, or folded by the mirror flags."""
    if surface.axisymmetric:
        return _order_system(quad, hankel, L, bc, f, normal, scale, b)
    return _parity_system(quad, hankel, L, bc, f, normal, scale, b, surface.xz_symmetric, surface.mirror_symmetric)


def _factored(surface, quad, hankel, bc, f, normal, scale, b, L):
    """_system at degree L with its _factor, or None if the system is not finite (overflow)."""
    system = _system(surface, quad, hankel, L, bc, f, normal, scale, b)
    if np.isfinite(system[0]).all() and np.isfinite(system[1]).all():
        return system, _factor(*system[:2], system[3].pairs)


def _solve_step(step, svd_cutoff) -> LeastSquaresInfo:
    """_solve_factored of entry j of a step's (system, factor, j, shared) on its
    own columns of R, and the singular values of A, which the step's entries
    share (kept in ``shared``).  A lone entry (no leading axis) is entry 0."""
    (A, B, rest, plan), (R, norms), j, shared = step
    w, rests = A.shape[2], np.atleast_2d(rest)
    c = (R.shape[2] - w) // len(rests)
    # entry 0's columns follow A's: a view, not a copy
    R = R[..., : w + c] if j == 0 else R[..., np.r_[:w, w + j * c : w + (j + 1) * c]]
    B, rest = B.reshape(*A.shape[:2], len(rests), c)[..., j, :], rests[j]
    if not shared:
        shared.append(np.linalg.svd(R[:, :w, :w], compute_uv=False))
    return _solve_factored((A, B, rest, plan), (R, norms), svd_cutoff, shared[0])


def solve_entries(
    surface: StarSurface,
    contexts: list[WaveContext],
    bc: str = DIRICHLET,
    eps_target: float = 1e-6,
    L_start: int = 0,
    L_max: int = 30,
    quad_degree_factor: float = 2.5,
    svd_cutoff: float = 1e-12,
) -> list[DirectSolution]:
    """mrc_solve of every context, all of one wavenumber (ValueError naming the
    values otherwise), by one escalation: A depends on k and the surface alone.

    Each rule builds A once, at its top degree, and takes one _factor of [A | b_1 | ...]
    over the entries not yet done; each entry reads its residual at each degree off R's
    column prefix, keeps its own smallest L and history, and solves on its own columns of
    the R of its kept degree's own system, with the singular values shared at one step."""
    _check_bc(bc)
    _check_svd_cutoff(svd_cutoff)
    if not eps_target > 0:  # NaN too
        raise ValueError(f"eps_target must be > 0, got {eps_target}")
    L_start, L_max = _check_degree("L_start", L_start), _check_degree("L_max", L_max)
    if L_start < 0:
        raise ValueError(f"truncation degree must be >= 0, got L_start={L_start}")
    if L_start > L_max:
        raise ValueError(f"L_start={L_start} exceeds L_max={L_max}")
    if not 2.0 <= quad_degree_factor < math.inf:
        raise ValueError(
            f"quad_degree_factor must be finite and >= 2 (anti-aliasing), got {quad_degree_factor}"
        )
    if len({ctx.k for ctx in contexts}) != 1:
        raise ValueError("contexts must share one wavenumber, got "
                         + (f"k = {[ctx.k for ctx in contexts]}" if contexts else "no contexts"))
    tag = [f" (entry {e})" if len(contexts) > 1 else "" for e in range(len(contexts))]
    histories: list[list[tuple[int, float]]] = [[] for _ in contexts]
    best, kept, active = [None] * len(contexts), [None] * len(contexts), list(range(len(contexts)))
    steps = _escalation_steps(surface, contexts, bc, range(L_start, L_max + 1), quad_degree_factor)
    rule = (None,)  # degree, entries, system and factor at its top degree
    for L, quad, (f, normal, scale), data, hankel in steps:
        b = np.stack([data[e][0] for e in active]) if len(active) > 1 else data[active[0]][0]
        build = functools.partial(_factored, surface, quad, hankel, bc, f, normal, scale, b)
        d, top = _rule(L, quad_degree_factor)
        if d != rule[0]:  # one QR of the rule at its top degree serves each degree on it
            rule = d, list(active), build(top)
            if rule[2] and top > L:
                logger.debug("L=%d..%d: one QR of rule %d at L=%d", L, min(top, L_max), d, top)
        entries, factored = rule[1:] if rule[2] else (active, build(L))  # one per degree if it overflows
        if factored is None:
            logger.warning("escalation stops at L=%d: boundary system not finite (overflow)", L)
            break
        alone = top == L or not rule[2]  # the system is of degree L
        residuals = dict(zip(entries, _qr_residual(factored[0] if alone else (*factored[0], L), factored[1])))
        # the step's own system, bitwise as if alone, is built only if an entry keeps it
        mine = alone and entries == active
        own, shared = (lambda x=factored: x) if mine else functools.cache(functools.partial(build, L)), []
        for j, e in enumerate(list(active)):
            b_norm, step = data[e][1], (own, j, shared)
            rel = residuals[e] / b_norm
            histories[e].append((L, rel))
            logger.debug("L=%d relative residual %.3e%s", L, rel, tag[e])
            # truncation or rounding can leave the solved residual above the QR one
            if rel <= eps_target and (info := _solve_step((*own(), j, shared), svd_cutoff)).residual \
                    <= eps_target * b_norm:
                kept[e] = (L, b_norm, step, info)
                active.remove(e)
            elif best[e] is None or rel < best[e][0]:
                best[e] = (rel, L, b_norm, step)
        if not active:
            break
    solutions = []
    for e, history in enumerate(histories):
        if kept[e] is None:
            if best[e] is None:
                raise ValueError(f"no finite escalation step from L={L_start}")
            _, L, b_norm, (own, j, shared) = best[e]
            info = _solve_step((*own(), j, shared), svd_cutoff)
            logger.warning("escalation ended at L=%d; keeping L=%d with relative residual %.3e > %.3e%s",
                           history[-1][0], L, info.residual / b_norm, eps_target, tag[e])
        else:
            L, b_norm, (own, _, _), info = kept[e]
        logger.debug("L=%d kept, split into %d systems x %d rows x %d columns%s", L, *own()[0][0].shape, tag[e])
        coeffs = CoefficientSet(L, info.coeffs if own()[0][3].pairs is None else _complex_coeffs(info.coeffs))
        solutions.append(DirectSolution(coeffs, info.residual / b_norm, bc, kept[e] is not None,
                                        info.condition, info.rank, history))
    return solutions


def mrc_solve(surface: StarSurface, ctx: WaveContext, bc: str = DIRICHLET, eps_target: float = 1e-6,
              L_start: int = 0, L_max: int = 30, quad_degree_factor: float = 2.5,
              svd_cutoff: float = 1e-12) -> DirectSolution:
    """Escalate the truncation degree until the boundary residual (relative to
    the incident-data norm) drops to eps_target; keep the smallest such L.

    Exhausting L_max is not an error: the best coefficients found are
    returned with ``converged = False``.  A step whose system is not finite
    (overflow) ends the escalation the same way; ValueError if none was.  The
    boundary is read per block of four degrees, each kept step bitwise as if alone;
    the degrees of one rule read their residuals off one QR.  This is the one-entry
    call of ``solve_entries``.
    """
    return solve_entries(surface, [ctx], bc, eps_target, L_start, L_max, quad_degree_factor, svd_cutoff)[0]
