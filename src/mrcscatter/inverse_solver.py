"""Shape reconstruction from near-field data on a measurement sphere.

Pipeline: project the sampled scattered field onto spherical harmonics and
divide by the outgoing radial factor to obtain mode coefficients; along each
observation ray form p(r) = incident + truncated expansion and locate the
positive root (in practice a deep minimum of |p| on the real ray); keep the
root that is stable across (wavenumber, incidence) entries; escalate the
truncation degree through a schedule and stop at the smallest degree that
resolves a quorum of directions.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from . import fields, specfun
from .direct_solver import CoefficientSet, WaveContext
from .geometry import Direction, SphereQuadrature

logger = logging.getLogger(__name__)

DEFAULT_L_SCHEDULE = (3, 4, 5, 6, 8, 10)

# modes whose radial factor at the measurement radius is this small relative
# to the monopole are dropped instead of amplified
HANKEL_FLOOR = 1e-13


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
    spread: float | None = None


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
    w = data.quadrature.weights
    entries = []
    for e in data.entries:
        if delta == 0.0:
            entries.append(replace(e, samples=e.samples.copy(), delta=0.0))
            continue
        g = rng.standard_normal(e.samples.shape) + 1j * rng.standard_normal(e.samples.shape)
        norm_v = math.sqrt(float(np.sum(w * np.abs(e.samples) ** 2)))
        norm_g = math.sqrt(float(np.sum(w * np.abs(g) ** 2)))
        if norm_v == 0.0 or norm_g == 0.0:
            entries.append(replace(e, samples=e.samples.copy(), delta=delta))
            continue
        entries.append(replace(e, samples=e.samples + g * (delta * norm_v / norm_g), delta=delta))
    return NearFieldData(R=data.R, quadrature=data.quadrature, entries=tuple(entries))


def extract_coeffs(entry: NearFieldEntry, quad: SphereQuadrature, R: float, L: int) -> CoefficientSet:
    """Mode coefficients from one entry's samples: the projection of the
    samples onto each harmonic, divided by the outgoing radial factor at R."""
    proj = fields.project_far_field(entry.samples, quad, L).coeffs
    H = specfun.hankel_out_table(L, entry.ctx.k, R)
    dropped = np.abs(H) < HANKEL_FLOOR * abs(H[0])
    if np.any(dropped):
        logger.warning(
            "dropping degrees %s: radial factor below %.1e of the monopole at R=%.3g",
            np.flatnonzero(dropped).tolist(), HANKEL_FLOOR, R,
        )
    ells = specfun.mode_degrees(L)
    keep = ~dropped[ells]
    coeffs = np.zeros_like(proj)
    coeffs[keep] = proj[keep] / H[ells][keep]
    return CoefficientSet(L, coeffs)


def _ray_evaluator(coeffs: CoefficientSet, ctx: WaveContext, dir_out: Direction):
    """Closure evaluating p(r) with the angular sums folded out of the loop."""
    Y = specfun.sph_harm_table(coeffs.L, dir_out.theta, dir_out.phi)[0]
    # c * Y summed over the orders of each degree; degree ell starts at index ell**2
    per_ell = np.add.reduceat(Y * coeffs.coeffs, np.arange(coeffs.L + 1) ** 2)
    cosang = float(np.dot(ctx.alpha.vector, dir_out.vector))
    k, L = ctx.k, coeffs.L

    def p(r):
        ra = np.asarray(r, dtype=float)
        if np.any(ra <= 0):
            raise specfun.DomainError("ray function undefined at r <= 0")
        H = specfun.hankel_out_table(L, k, ra)
        return np.exp(1j * k * cosang * ra) + np.tensordot(per_ell, H, axes=(0, 0))

    return p


def ray_function(coeffs: CoefficientSet, ctx: WaveContext, dir_out: Direction, r) -> np.ndarray:
    """p(r) = incident plane wave + truncated outgoing expansion along the ray
    r * dir_out; its positive root estimates the boundary radius."""
    return _ray_evaluator(coeffs, ctx, dir_out)(r)


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
    polished by golden section.  Candidates come back sorted by residual.
    An exact zero may not exist on the real ray, so the depth of the minimum
    (``imag_score``) measures how close the root is to the positive semiaxis.
    """
    r_lo, r_hi = bracket
    if not 0.0 < r_lo < r_hi:
        raise ValueError(f"invalid bracket {bracket}")
    if grid_n < 16:
        raise ValueError(f"grid_n must be >= 16, got {grid_n}")
    grid = np.linspace(r_lo, r_hi, grid_n)
    evaluator = _ray_evaluator(coeffs, ctx, dir_out)
    pg = np.abs(evaluator(grid))
    pmax = float(np.max(pg))
    if pmax == 0.0:
        return []
    roots: list[RayRoot] = []
    for i in range(1, grid_n - 1):
        if pg[i] < pg[i - 1] and pg[i] < pg[i + 1]:
            fn = lambda r: float(np.abs(evaluator(r)))
            r0, f0 = specfun.golden_min(fn, grid[i - 1], grid[i + 1])
            score = f0 / pmax
            if score <= residual_threshold:
                roots.append(
                    RayRoot(dir_out=dir_out, r=r0, residual=f0, imag_score=score)
                )
    roots.sort(key=lambda rr: rr.residual)
    return roots


def _consistent_roots(candidates: list[list[RayRoot]]) -> tuple[list[RayRoot], float] | None:
    """Pick one candidate per entry minimizing the relative spread in r.

    Anchored on each candidate of the first entry; every other entry
    contributes its nearest candidate in r.  Returns the chosen roots and
    their relative spread, or None if some entry has no candidates.
    """
    if any(len(c) == 0 for c in candidates):
        return None
    best: tuple[list[RayRoot], float] | None = None
    for anchor in candidates[0]:
        chosen = [anchor]
        for other in candidates[1:]:
            chosen.append(min(other, key=lambda rr: abs(rr.r - anchor.r)))
        rs = np.array([rr.r for rr in chosen])
        med = float(np.median(rs))
        spread = float((rs.max() - rs.min()) / med) if med > 0 else math.inf
        if best is None or spread < best[1]:
            best = (chosen, spread)
    return best


def _fit_harmonic_model(
    dirs: list[Direction], radii: np.ndarray, mask: np.ndarray, degree: int
) -> np.ndarray:
    """Least-squares real spherical-harmonic fit of r(direction) on the
    resolved directions; coefficients in flat mode order (sin branch for
    m < 0, cos branch for m > 0)."""
    theta = np.array([d.theta for d in dirs])
    phi = np.array([d.phi for d in dirs])
    B = _real_harmonic_basis(degree, theta, phi)
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
    theta = np.array([d.theta for d in dirs])
    phi = np.array([d.phi for d in dirs])
    return _real_harmonic_basis(degree, theta, phi) @ coeffs


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
    if bracket is None:
        bracket = (0.2 * data.R, 0.9 * data.R)
    schedule = sorted(set(int(L) for L in L_schedule))
    L_top = schedule[-1]
    if data.quadrature.degree < 2 * L_top:
        raise ValueError(
            f"data quadrature degree {data.quadrature.degree} cannot support "
            f"extraction at L={L_top}"
        )
    # extract once at the top degree; truncation per scheduled L is exact
    # because the projections are independent mode by mode
    full = [extract_coeffs(e, data.quadrature, data.R, L_top) for e in data.entries]
    single_entry = len(data.entries) == 1

    best: tuple[float, int, list] | None = None  # (resolution, L, per_dir)
    chosen: tuple[int, list] | None = None
    for L in schedule:
        per_dir = []
        n_resolved = 0
        for d in dirs:
            cands = [
                find_ray_root(
                    c.truncated(L), e.ctx, d, bracket, grid_n, residual_threshold
                )
                for c, e in zip(full, data.entries)
            ]
            combo = _consistent_roots(cands)
            if combo is None:
                per_dir.append(None)
                continue
            roots, spread = combo
            ok = True if single_entry else spread <= stability_tol
            per_dir.append((roots, spread, ok))
            if ok:
                n_resolved += 1
        frac = n_resolved / len(dirs)
        logger.debug("L=%d resolves %.0f%% of directions", L, 100 * frac)
        if best is None or frac > best[0]:
            best = (frac, L, per_dir)
        if frac >= quorum:
            chosen = (L, per_dir)
            break
    converged = chosen is not None
    if chosen is None:
        frac, L_sel, per_dir = best
        logger.warning(
            "no degree in %s resolved %.0f%% of directions (best %.0f%% at L=%d)",
            schedule, 100 * quorum, 100 * frac, L_sel,
        )
    else:
        L_sel, per_dir = chosen

    n = len(dirs)
    radii = np.full(n, np.nan)
    residuals = np.full(n, np.nan)
    spreads = np.full(n, np.nan)
    resolved = np.zeros(n, dtype=bool)
    for i, item in enumerate(per_dir):
        if item is None:
            continue
        roots, spread, ok = item
        radii[i] = float(np.median([rr.r for rr in roots]))
        residuals[i] = float(max(rr.residual for rr in roots))
        spreads[i] = spread if not single_entry else np.nan
        resolved[i] = ok
    frac = float(np.count_nonzero(resolved)) / n

    if np.count_nonzero(resolved) > specfun.n_modes(harmonic_degree):
        model = _fit_harmonic_model(dirs, radii, resolved, harmonic_degree)
    else:
        # too few resolved directions to fit: a sphere of their mean radius
        mean = np.mean(radii[resolved]) if np.any(resolved) else 0.5 * (bracket[0] + bracket[1])
        model = np.zeros(specfun.n_modes(harmonic_degree))
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
