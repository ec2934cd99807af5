"""Shape reconstruction from near-field data on a measurement sphere.

Pipeline: project the sampled scattered field onto spherical harmonics and
divide by the outgoing radial factor to obtain mode coefficients; along each
observation ray form p(r) = incident + truncated expansion and locate the
positive root (in practice a deep minimum of |p| on the real ray); keep the
root that is stable across (wavenumber, incidence) entries; escalate the
truncation degree through a schedule and stop at the smallest degree that
resolves a quorum of directions.

The ray search runs as one array program per (degree, entry) over all
directions: per-degree weights for every direction and one Hankel table with
its r-derivative at the shared grid radii give p and g = Re(conj(p) * p') on
the (direction x grid) array; every interior grid minimum of |p| is polished
together as the root of g by one batched bracketed secant, or by golden
section where g shows no sign change.  ``find_ray_root`` is the same search
on a single direction.
"""

from __future__ import annotations

import logging
import math
import statistics
from dataclasses import dataclass, replace

import numpy as np

from . import fields, specfun
from .direct_solver import CoefficientSet, WaveContext
from .geometry import Direction, SphereQuadrature

logger = logging.getLogger(__name__)

DEFAULT_L_SCHEDULE = (3, 4, 5, 6, 8, 10)


@dataclass(frozen=True)
class NearFieldEntry:
    """Scattered-field samples on the measurement sphere for one (k, alpha)."""

    ctx: WaveContext
    samples: np.ndarray
    delta: float = 0.0

    def __post_init__(self) -> None:
        if self.delta < 0:
            raise ValueError(f"noise level must be >= 0, got {self.delta}")
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=complex))


@dataclass(frozen=True)
class NearFieldData:
    """Samples of the scattered field on the sphere of radius R, one block of
    samples per (k, alpha) entry, all on a shared quadrature."""

    R: float
    quadrature: SphereQuadrature
    entries: tuple[NearFieldEntry, ...]

    def __post_init__(self) -> None:
        if self.R <= 0:
            raise ValueError(f"measurement radius must be > 0, got {self.R}")
        object.__setattr__(self, "entries", tuple(self.entries))
        for e in self.entries:
            if e.samples.shape != self.quadrature.theta.shape:
                raise ValueError("sample count does not match the quadrature")


@dataclass
class RayRoot:
    """Candidate boundary radius along one observation direction."""

    dir_out: Direction
    r: float
    residual: float
    imag_score: float


@dataclass
class ReconstructedSurface:
    """Per-direction radii with quality measures and a smoothed harmonic fit."""

    directions: list[Direction]
    radii: np.ndarray
    residuals: np.ndarray
    spreads: np.ndarray
    resolved: np.ndarray
    L_selected: int
    converged: bool
    harmonic_degree: int
    harmonic_coeffs: np.ndarray
    resolution_fraction: float


def add_noise(data: NearFieldData, delta: float, seed: int) -> NearFieldData:
    """Perturb every entry with complex Gaussian noise scaled so that the
    discrete L2 norm of the perturbation is exactly delta times the norm of
    that entry's samples (relative-delta convention); deterministic per seed."""
    if delta < 0:
        raise ValueError(f"noise level must be >= 0, got {delta}")
    rng = np.random.default_rng(seed)
    entries = []
    for e in data.entries:
        samples = e.samples.copy()
        if delta != 0.0:
            g = rng.standard_normal(e.samples.shape) + 1j * rng.standard_normal(e.samples.shape)
            norm_v, norm_g = data.quadrature.norm(e.samples), data.quadrature.norm(g)
            if norm_v != 0.0 and norm_g != 0.0:
                samples = e.samples + g * (delta * norm_v / norm_g)
        entries.append(replace(e, samples=samples, delta=delta or 0.0))
    return NearFieldData(R=data.R, quadrature=data.quadrature, entries=tuple(entries))


def extract_coeffs(entry: NearFieldEntry, quad: SphereQuadrature, R: float, L: int) -> CoefficientSet:
    """Mode coefficients from one entry's samples: the projection of the
    samples onto each harmonic, divided by the outgoing radial factor at R.
    |hankel_out| never decreases with the degree at a fixed radius, so no
    mode is amplified more than the monopole."""
    proj = fields.project_far_field(entry.samples, quad, L).coeffs
    H = specfun.hankel_out_table(L, entry.ctx.k, R)
    return CoefficientSet(L, proj / H[specfun.mode_degrees(L)])


def _angles(dirs: list[Direction]) -> tuple[np.ndarray, np.ndarray]:
    return np.array([d.theta for d in dirs]), np.array([d.phi for d in dirs])


def _ray_weights(coeffs: CoefficientSet, ctx: WaveContext, dirs: list[Direction]):
    """Per-degree weights sum_m c[ell, m] Y[ell, m](dir), shape (n_dir, L+1),
    and cos(angle between each direction and the incidence)."""
    Y = specfun.sph_harm_table(coeffs.L, *_angles(dirs))
    # degree ell starts at flat index ell**2
    W = np.add.reduceat(Y * coeffs.coeffs, np.arange(coeffs.L + 1) ** 2, axis=1)
    cosang = np.array([d.vector for d in dirs]) @ ctx.alpha.vector
    return W, cosang


def ray_function(coeffs: CoefficientSet, ctx: WaveContext, dir_out: Direction, r) -> np.ndarray:
    """p(r) = incident plane wave + truncated outgoing expansion along the ray
    r * dir_out; its positive root estimates the boundary radius."""
    W, cosang = _ray_weights(coeffs, ctx, [dir_out])
    return _ray_values(W[0], cosang[0], ctx.k, np.asarray(r, dtype=float))[0]


def _ray_values(W: np.ndarray, cosang, k: float, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """p and g = Re(conj(p) * dp/dr) on rays with per-degree weights W[..., :],
    incidence cosines cosang and radii r broadcast against cosang."""
    H, dH = specfun._hankel_out_pair(W.shape[-1] - 1, k, r)
    inc = np.exp(1j * k * cosang * r)
    p = inc + _degree_sum(W, H)
    return p, np.real(np.conj(p) * (1j * k * cosang * inc + _degree_sum(W, dH)))


def _degree_sum(W: np.ndarray, T: np.ndarray) -> np.ndarray:
    """sum over ell of W[..., ell] * T[ell, ...], broadcast: one matrix product
    where every row of W meets every radius of T (the search grid), else a dot
    product per (row, radius) pair."""
    rows, radii = W.shape[:-1], T.shape[1:]
    lead = max(len(rows) - len(radii), 0)  # W's dims ahead of T's radii
    if all(n == 1 for n in rows[lead:]):
        flat = W.reshape(-1, W.shape[-1]) @ T.reshape(T.shape[0], -1)
        return flat.reshape(rows[:lead] + radii)
    return np.add.reduce(W.transpose(-1, *range(W.ndim - 1)) * T)


def _ray_roots(
    coeffs: CoefficientSet,
    ctx: WaveContext,
    dirs: list[Direction],
    bracket: tuple[float, float],
    grid_n: int,
    residual_threshold: float,
) -> list[list[RayRoot]]:
    """find_ray_root for every direction at once: one harmonic table, one
    Hankel table on the shared grid, then one batched bracketed secant on the
    roots of g over all candidates (golden section on |p| for the rest)."""
    r_lo, r_hi = bracket
    if not 0.0 < r_lo < r_hi:
        raise ValueError(f"invalid bracket {bracket}")
    if grid_n < 16:
        raise ValueError(f"grid_n must be >= 16, got {grid_n}")
    k, L = ctx.k, coeffs.L
    W, cosang = _ray_weights(coeffs, ctx, dirs)
    grid = np.linspace(r_lo, r_hi, grid_n)
    p, g = _ray_values(W[:, None], cosang[:, None], k, grid)
    pg = np.abs(p)
    # strict interior minima; row-major order keeps each direction's grid order
    inner = pg[:, 1:-1]
    rows, cells = np.nonzero((inner < pg[:, :-2]) & (inner < pg[:, 2:]))
    # a half-cell, [c, c+1] or [c+1, c+2], where g turns from negative to
    # non-negative holds the minimum of |p| as a simple root of g
    g0, g1, g2 = (g[rows, cells + n] for n in range(3))
    right = (g1 < 0) & (g2 >= 0)
    polish = right | ((g0 < 0) & (g1 >= 0))
    i, j = np.flatnonzero(polish), np.flatnonzero(~polish)
    a, r0, f0 = (cells + right)[i], np.empty(rows.size), np.empty(rows.size)
    ray = lambda n, r: _ray_values(W[rows[n]], cosang[rows[n]], k, r)
    r0[i], steps = specfun.bracketed_root(
        lambda r: ray(i, r)[1], grid[a], grid[a + 1], g[rows[i], a], g[rows[i], a + 1]
    )
    f0[i] = np.abs(ray(i, r0[i])[0])
    if j.size:
        b = cells[j]
        r0[j], f0[j] = specfun.golden_min(lambda r: np.abs(ray(j, r)[0]), grid[b], grid[b + 2])
    logger.debug("ray search L=%d k=%g: %d candidates, %d secant steps, %d golden fallbacks",
                 L, k, rows.size, steps, j.size)
    # an all-zero row has no strict minimum, so max |p| > 0 on every candidate row
    score = f0 / np.max(pg, axis=1)[rows]
    found: list[list[RayRoot]] = [[] for _ in dirs]
    for n in np.flatnonzero(score <= residual_threshold):
        d = rows[n]
        found[d].append(RayRoot(
            dir_out=dirs[d], r=float(r0[n]), residual=float(f0[n]), imag_score=float(score[n])
        ))
    for roots in found:
        roots.sort(key=lambda rr: rr.residual)
    return found


def find_ray_root(
    coeffs: CoefficientSet,
    ctx: WaveContext,
    dir_out: Direction,
    bracket: tuple[float, float],
    grid_n: int = 64,
    residual_threshold: float = 0.5,
) -> list[RayRoot]:
    """Locate candidate boundary radii along one ray.

    |p| is sampled on a uniform grid over the bracket; every interior local
    minimum below residual_threshold (relative to the grid maximum of |p|) is
    polished as the root of d|p|^2/dr, or by golden section on |p| where that
    shows no sign change on the grid.  Candidates come back sorted by residual.
    An exact zero may not exist on the real ray, so the depth of the minimum
    (``imag_score``) measures how close the root is to the positive semiaxis.

    This is the one-direction call of the batched search that
    ``stable_reconstruct`` runs over all directions at once.
    """
    return _ray_roots(coeffs, ctx, [dir_out], bracket, grid_n, residual_threshold)[0]


def _consistent_roots(candidates: list[list[RayRoot]]) -> tuple[list[RayRoot], float] | None:
    """Pick one candidate per entry minimizing the relative spread in r, then
    the largest residual.  Every candidate of every entry anchors once, and
    each entry contributes its candidate nearest the anchor, so the order of
    the entries does not matter.  Returns the chosen roots and their relative
    spread, or None if some entry has no candidates.
    """
    if any(len(c) == 0 for c in candidates):
        return None
    best = None
    for anchor in (rr for c in candidates for rr in c):
        chosen = [min(c, key=lambda rr: abs(rr.r - anchor.r)) for c in candidates]
        rs = [rr.r for rr in chosen]
        med = statistics.median(rs)
        key = ((max(rs) - min(rs)) / med if med > 0 else math.inf, max(rr.residual for rr in chosen))
        if best is None or key < best[0]:
            best = (key, chosen)
    return best[1], best[0][0]


def _fit_harmonic_model(
    dirs: list[Direction], radii: np.ndarray, mask: np.ndarray, degree: int
) -> np.ndarray:
    """Least-squares real spherical-harmonic fit of r(direction) on the
    resolved directions; coefficients in flat mode order (sin branch for
    m < 0, cos branch for m > 0)."""
    B = _real_harmonic_basis(degree, *_angles(dirs))
    sol, *_ = np.linalg.lstsq(B[mask], radii[mask], rcond=None)
    return sol


def _real_harmonic_basis(degree: int, theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Orthonormal real harmonics: sqrt(2) Re Y[ell, |m|] for m > 0,
    sqrt(2) Im Y[ell, |m|] for m < 0 and Y[ell, 0] for m = 0."""
    ms = specfun.mode_orders(degree)
    # column (ell, |m|) sits |m| - m places after column (ell, m)
    Yp = specfun.sph_harm_table(degree, theta, phi)[:, np.arange(ms.size) + np.abs(ms) - ms]
    return np.where(ms < 0, Yp.imag, Yp.real) * np.where(ms == 0, 1.0, math.sqrt(2.0))


def evaluate_harmonic_model(coeffs: np.ndarray, degree: int, dirs: list[Direction]) -> np.ndarray:
    """Evaluate a fitted radial model at the given directions."""
    return _real_harmonic_basis(degree, *_angles(dirs)) @ coeffs


def stable_reconstruct(
    data: NearFieldData,
    dirs: list[Direction],
    bracket: tuple[float, float] | None = None,
    L_schedule: tuple[int, ...] = DEFAULT_L_SCHEDULE,
    stability_tol: float = 0.05,
    residual_threshold: float = 0.5,
    quorum: float = 0.95,
    grid_n: int = 64,
    harmonic_degree: int = 4,
) -> ReconstructedSurface:
    """Reconstruct r(direction) from near-field data.

    For each degree in the ascending schedule, roots are found per direction
    and per (k, alpha) entry; a direction is resolved when every entry has a
    root and their relative spread is at most stability_tol (with a single
    entry the spread is undefined and resolution falls back to the residual
    criterion alone).  The search stops at the smallest degree resolving at
    least the quorum fraction of directions; the radius per direction is the
    median across entries.  Unresolved directions are filled from the
    smoothed harmonic fit of the resolved ones and stay flagged.
    """
    if not data.entries:
        raise ValueError("no entries in near-field data")
    if not dirs:
        raise ValueError("no directions to reconstruct")
    if bracket is None:
        bracket = (0.2 * data.R, 0.9 * data.R)
    schedule = sorted(set(int(L) for L in L_schedule))
    if not schedule:
        raise ValueError("empty L_schedule: no degree to reconstruct at")
    L_top = schedule[-1]
    # extract once at the top degree and truncate per scheduled L: the
    # projections are independent mode by mode, so this equals extracting at
    # each L up to rounding (radii move by about 5e-10 between schedules
    # (3,) and (3, 4, 5, 6), as the projection rounds differently per degree)
    full = [extract_coeffs(e, data.quadrature, data.R, L_top) for e in data.entries]
    single_entry = len(data.entries) == 1

    n = len(dirs)
    best = None  # (resolution, L, radii, residuals, spreads, resolved)
    for L in schedule:
        per_entry = [
            _ray_roots(c.truncated(L), e.ctx, dirs, bracket, grid_n, residual_threshold)
            for c, e in zip(full, data.entries)
        ]
        radii = np.full(n, np.nan)
        residuals = np.full(n, np.nan)
        spreads = np.full(n, np.nan)
        resolved = np.zeros(n, dtype=bool)
        for i, cands in enumerate(zip(*per_entry)):
            combo = _consistent_roots(list(cands))
            if combo is None:
                continue
            roots, spread = combo
            radii[i] = statistics.median(rr.r for rr in roots)
            residuals[i] = float(max(rr.residual for rr in roots))
            spreads[i] = spread if not single_entry else np.nan
            resolved[i] = True if single_entry else spread <= stability_tol
        frac = float(np.count_nonzero(resolved)) / n
        logger.debug("L=%d resolves %.0f%% of directions", L, 100 * frac)
        if best is None or frac > best[0]:
            best = (frac, L, radii, residuals, spreads, resolved)
        if frac >= quorum:
            break
    frac, L_sel, radii, residuals, spreads, resolved = best
    # the first degree to reach the quorum is also the best so far
    converged = bool(frac >= quorum)
    if not converged:
        logger.warning(
            "no degree in %s resolved %.0f%% of directions (best %.0f%% at L=%d)",
            schedule, 100 * quorum, 100 * frac, L_sel,
        )

    n_resolved, model_modes = int(np.count_nonzero(resolved)), specfun.n_modes(harmonic_degree)
    if n_resolved > model_modes:
        model = _fit_harmonic_model(dirs, radii, resolved, harmonic_degree)
    else:
        logger.warning("%d resolved directions do not outnumber the %d modes of the harmonic "
                       "model: it is a sphere of their mean radius", n_resolved, model_modes)
        mean = np.mean(radii[resolved]) if np.any(resolved) else 0.5 * (bracket[0] + bracket[1])
        model = np.zeros(model_modes)
        model[0] = float(mean) * math.sqrt(4.0 * math.pi)
    fill = ~resolved
    if np.any(fill):
        filled = evaluate_harmonic_model(model, harmonic_degree, [dirs[i] for i in np.nonzero(fill)[0]])
        radii[fill] = filled
    lo, hi = bracket
    radii = np.clip(radii, lo, hi)

    return ReconstructedSurface(
        directions=list(dirs),
        radii=radii,
        residuals=residuals,
        spreads=spreads,
        resolved=resolved,
        L_selected=L_sel,
        converged=converged,
        harmonic_degree=harmonic_degree,
        harmonic_coeffs=model,
        resolution_fraction=frac,
    )
