"""Shape reconstruction from near-field data on a measurement sphere.

Pipeline: project the sampled scattered field onto spherical harmonics and
divide by the outgoing radial factor to obtain mode coefficients; along each
observation ray form p(r) = incident + truncated expansion and locate the
positive root (in practice a deep minimum of |p| on the real ray); keep the
root that is stable across (wavenumber, incidence) entries; escalate the
truncation degree through a schedule and stop at the smallest degree that
resolves a quorum of directions.

The ray search runs as one array program per degree over all entries and
directions: per-degree weights for every (entry, direction) row and one Hankel
table with its r-derivative at the shared grid radii and every entry's k give
p and g = Re(conj(p) * p') on the (entry x direction x grid) array; every
interior grid minimum of |p| is polished together, at its entry's k, as the
root of g by one batched safeguarded Newton iteration on g and g', or by golden
section where g shows no sign change.  One loop over anchor slots then picks
the stable root of every direction.  ``find_ray_root`` searches one direction.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from . import fields, specfun
from .direct_solver import CoefficientSet, WaveContext, _check_degree
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
        if not self.delta >= 0:  # NaN too
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
        if not self.R > 0:  # NaN too
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
    if not delta >= 0:  # NaN too
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


def _degree_weights(Y: np.ndarray, coeffs: list[CoefficientSet]) -> np.ndarray:
    """Per-degree weights sum_m c[ell, m] Y[ell, m](dir) of each entry, shape
    (entries, n_dir, L+1).  Y may be the table of a higher degree: its leading
    columns are bitwise the table of this one, as both recurrences ascend."""
    L = coeffs[0].L
    C = np.array([c.coeffs for c in coeffs])
    # degree ell starts at flat index ell**2
    return np.add.reduceat(Y[:, : C.shape[1]] * C[:, None], np.arange(L + 1) ** 2, axis=-1)


def _incidence(dirs: list[Direction], ctxs: list[WaveContext]) -> tuple[np.ndarray, np.ndarray]:
    """cos(angle between each direction and each entry's incidence), shape
    (entries, n_dir), and the entries' wavenumbers."""
    vectors = np.array([d.vector for d in dirs])
    return np.array([vectors @ c.alpha.vector for c in ctxs]), np.array([c.k for c in ctxs], dtype=float)


def _ray_weights(coeffs: CoefficientSet, ctx: WaveContext, dirs: list[Direction]):
    """Per-degree weights sum_m c[ell, m] Y[ell, m](dir), shape (n_dir, L+1),
    and cos(angle between each direction and the incidence)."""
    Y = specfun.sph_harm_table(coeffs.L, *_angles(dirs))
    return _degree_weights(Y, [coeffs])[0], _incidence(dirs, [ctx])[0][0]


def ray_function(coeffs: CoefficientSet, ctx: WaveContext, dir_out: Direction, r) -> np.ndarray:
    """p(r) = incident plane wave + truncated outgoing expansion along the ray
    r * dir_out; its positive root estimates the boundary radius."""
    W, cosang = _ray_weights(coeffs, ctx, [dir_out])
    r = np.asarray(r, dtype=float)
    return _ray_values(W[:, None], cosang[:, None], ctx.k, r.ravel(), False)[0][0].reshape(r.shape)


def _ray_values(W: np.ndarray, cosang, k, r: np.ndarray, dg: bool = True) -> tuple:
    """p, g = Re(conj(p) * p') and g' = |p'|**2 + Re(conj(p) * p'') (None unless
    ``dg``) on rays with per-degree weights W[..., :], incidence cosines cosang
    and wavenumbers k, with radii r broadcast against cosang and k.  H'' comes
    from H and H' by the spherical Bessel equation (Abramowitz & Stegun 10.1.1):
    H'' = -(2/r) H' - (k**2 - ell(ell+1)/r**2) H."""
    H, dH = specfun._hankel_out_pair(W.shape[-1] - 1, k, r)
    ikc = 1j * k * cosang
    inc = np.exp(ikc * r)
    p, dp = inc + _degree_sum(W, H), ikc * inc + _degree_sum(W, dH)
    cp = np.conj(p)
    if not dg:
        return p, np.real(cp * dp), None
    ell = np.arange(len(H)).reshape((-1,) + (1,) * (H.ndim - 1))
    d2H = -(2 / r) * dH - (k**2 - ell * (ell + 1) / r**2) * H  # on the table, before the degree sum
    return p, np.real(cp * dp), np.abs(dp) ** 2 + np.real(cp * (ikc**2 * inc + _degree_sum(W, d2H)))


def _degree_sum(W: np.ndarray, T: np.ndarray) -> np.ndarray:
    """sum over ell of W[..., ell] * T[ell, ...], broadcast.  On the search grid,
    W of shape (..., n, 1, L+1) against T with the grid last (and a unit axis
    before it when stacked), it is one matrix product per leading index: every
    row meets every radius.  Else it is a sum per (row, radius) pair, accumulated
    degree by degree, so a pair's sum is the same in any batch (a reduction over
    one contiguous column would sum pairwise)."""
    if W.ndim > 2 and W.shape[-2] == 1:
        T = T.reshape(T.shape[:1] + T.shape[1:-2] + T.shape[-1:])
        return np.matmul(W[..., 0, :], np.moveaxis(T, 0, -2))
    return np.add.accumulate(W.transpose(-1, *range(W.ndim - 1)) * T)[-1]


def _search(W: np.ndarray, cosang: np.ndarray, k: np.ndarray, bracket: tuple[float, float],
            grid_n: int, residual_threshold: float):
    """The ray search on every (entry, direction) row at once: per-degree
    weights W (entries, n_dir, L+1), incidence cosines (entries, n_dir) and the
    entries' wavenumbers k.  One Hankel table on the grid at every k, then
    one batched safeguarded Newton iteration on the roots of g over all
    candidates, g' from the same table as g (golden section on |p| for the
    rest); each candidate carries its entry's k.
    Returns entry, direction, r, residual and imag_score of the kept
    candidates, ordered by entry, direction and residual (a stable sort of the
    grid order), and per (entry, direction) whether the grid's least |p| is at
    an end of the bracket."""
    r_lo, r_hi = bracket
    if not 0.0 < r_lo < r_hi < math.inf:
        raise ValueError(f"invalid bracket {bracket}")
    if grid_n < 16:
        raise ValueError(f"grid_n must be >= 16, got {grid_n}")
    grid = np.linspace(r_lo, r_hi, grid_n)
    p, g, _ = _ray_values(W[:, :, None], cosang[:, :, None], k[:, None, None], grid, False)
    pg = np.abs(p)
    # strict interior minima; row-major order keeps each row's grid order
    inner = pg[..., 1:-1]
    ents, rows, cells = np.nonzero((inner < pg[..., :-2]) & (inner < pg[..., 2:]))
    # a half-cell, [c, c+1] or [c+1, c+2], where g turns from negative to
    # non-negative holds the minimum of |p| as a simple root of g
    g0, g1, g2 = (g[ents, rows, cells + n] for n in range(3))
    right = (g1 < 0) & (g2 >= 0)
    polish = right | ((g0 < 0) & (g1 >= 0))
    i, j = np.flatnonzero(polish), np.flatnonzero(~polish)
    a, r0, f0 = (cells + right)[i], np.empty(rows.size), np.empty(rows.size)
    ray = lambda n, r, dg: _ray_values(W[ents[n], rows[n]], cosang[ents[n], rows[n]], k[ents[n]], r, dg)
    r0[i], steps = specfun.bracketed_root(  # the one caller that reads g'
        lambda r: ray(i, r, True)[1:], grid[a], grid[a + 1],
        g[ents[i], rows[i], a], g[ents[i], rows[i], a + 1])
    f0[i] = np.abs(ray(i, r0[i], False)[0])
    if j.size:
        b = cells[j]
        r0[j], f0[j] = specfun.golden_min(lambda r: np.abs(ray(j, r, False)[0]), grid[b], grid[b + 2])
    if logger.isEnabledFor(logging.DEBUG):
        count = lambda e: np.bincount(e, minlength=len(k)).tolist()
        logger.debug("ray search L=%d k=%s: %s candidates, %d Newton steps, %s golden fallbacks",
                     W.shape[-1] - 1, k.tolist(), count(ents), steps, count(ents[j]))
    # an all-zero row has no strict minimum, so max |p| > 0 on every candidate row
    score = f0 / np.max(pg, axis=-1)[ents, rows]
    keep = np.flatnonzero(score <= residual_threshold)
    keep = keep[np.lexsort((f0[keep], rows[keep], ents[keep]))]
    return ents[keep], rows[keep], r0[keep], f0[keep], score[keep], np.argmin(pg, axis=-1) % (grid_n - 1) == 0


def _ray_roots(coeffs: list[CoefficientSet], ctxs: list[WaveContext], dirs: list[Direction],
               bracket: tuple[float, float], grid_n: int, residual_threshold: float) -> list:
    """find_ray_root for every direction and every entry (its coefficient set
    and context) at one degree, a list per entry of lists per direction: one
    harmonic table and one ``_search``, so a candidate is bitwise the same
    whichever entries share it."""
    Y = specfun.sph_harm_table(coeffs[0].L, *_angles(dirs))
    found = _search(_degree_weights(Y, coeffs), *_incidence(dirs, ctxs), bracket, grid_n, residual_threshold)
    roots: list[list[list[RayRoot]]] = [[[] for _ in dirs] for _ in ctxs]
    for e, d, r, f, s in zip(*(v.tolist() for v in found[:5])):
        roots[e][d].append(RayRoot(dir_out=dirs[d], r=r, residual=f, imag_score=s))
    return roots


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
    polished as the root of d|p|^2/dr by safeguarded Newton steps (the second
    derivative from the spherical Bessel equation), or by golden section on |p|
    where that shows no sign change on the grid.  Candidates come back sorted
    by residual.
    An exact zero may not exist on the real ray, so the depth of the minimum
    (``imag_score``) measures how close the root is to the positive semiaxis.

    This is the one-direction call of the batched search that
    ``stable_reconstruct`` runs over all directions and entries at once.
    """
    return _ray_roots([coeffs], [ctx], [dir_out], bracket, grid_n, residual_threshold)[0][0]


def _stable_roots(ents, rows, r, residual, shape: tuple[int, int]):
    """Per direction, one candidate per entry minimizing the relative spread in
    r, then the largest residual, from candidates ordered as ``_search`` returns
    them.  Every candidate anchors once, in that order; each entry contributes
    its candidate nearest the anchor (the first of equals), so the order of the
    entries does not matter, and the first least (spread, residual) wins.
    Returns the chosen roots' median (statistics.median's formula), largest
    residual and spread, NaN where an entry has no candidate, and where all do."""
    n_ent, n_dir = shape
    group = ents * n_dir + rows
    counts = np.bincount(group, minlength=n_ent * n_dir)
    slots = np.arange(group.size) - (np.cumsum(counts) - counts)[group]
    counts = counts.reshape(shape)
    R = np.full(shape + (int(counts.max(initial=0)),), np.inf)  # inf: no candidate in this slot
    F = np.zeros(R.shape)
    R[ents, rows, slots], F[ents, rows, slots] = r, residual
    found = np.all(counts > 0, axis=0)
    R, F, counts = R[:, found], F[:, found], counts[:, found]
    # best: median, largest residual and spread; cols: the directions left in R
    best, cols = np.full((3, R.shape[1]), np.nan), np.arange(R.shape[1])
    for e, s in np.ndindex(n_ent, R.shape[2]):
        if not cols.size:
            break
        anchor = s < counts[e]
        near = np.argmin(np.abs(R - np.where(anchor, R[e, :, s], 0.0)[:, None]), axis=-1)[..., None]
        rs = np.sort(np.take_along_axis(R, near, -1)[..., 0], axis=0)
        med = rs[n_ent // 2] if n_ent % 2 else (rs[n_ent // 2 - 1] + rs[n_ent // 2]) / 2
        # every root lies in the bracket, so med > 0
        key = np.array([med, np.take_along_axis(F, near, -1)[..., 0].max(axis=0), (rs[-1] - rs[0]) / med])
        if e == s == 0:  # the first anchor wins everywhere; where every entry has one
            # candidate, every later anchor picks the same roots, so those directions leave R
            best, multi = key, np.any(counts > 1, axis=0)
            R, F, counts, cols = R[:, multi], F[:, multi], counts[:, multi], cols[multi]
        else:
            old = best[:, cols]
            wins = anchor & ((key[2] < old[2]) | ((key[2] == old[2]) & (key[1] < old[1])))
            best[:, cols[wins]] = key[:, wins]
    out = np.full((3, n_dir), np.nan)
    out[:, found] = best
    return out[0], out[1], out[2], found


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
    ells, ms = specfun.mode_degrees(degree), specfun.mode_orders(degree)
    return specfun._real_harmonics(ells, ms, np.where(ms == 0, 1.0, math.sqrt(2.0)), theta, phi)[0].T


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

    For each degree in the ascending schedule, one search (``_search``) finds
    the roots of every direction and (k, alpha) entry; a direction is resolved
    when every entry has a root and their relative spread is at most
    stability_tol (with a single entry the spread is undefined and resolution
    falls back to the residual criterion alone).  The search stops at the
    smallest degree resolving at least the quorum fraction of directions; the
    radius per direction is the median across entries.  Unresolved directions
    are filled from the smoothed harmonic fit of the resolved ones and stay
    flagged.  Radii are clipped to the bracket, with a warning; resolved roots
    lie inside it by construction, so only radii filled from the model can be
    clipped.  Unresolved directions whose least |p| on the grid is at an end of
    the bracket are counted in a warning: the boundary may lie beyond it.
    """
    if not data.entries:
        raise ValueError("no entries in near-field data")
    if not dirs:
        raise ValueError("no directions to reconstruct")
    if not 0.0 < quorum <= 1.0:  # NaN too, as below
        raise ValueError(f"quorum must be in (0, 1], got {quorum}")
    for name, value in (("stability_tol", stability_tol), ("residual_threshold", residual_threshold)):
        if not value > 0:
            raise ValueError(f"{name} must be > 0, got {value}")
    if not harmonic_degree >= 0:
        raise ValueError(f"harmonic_degree must be >= 0, got {harmonic_degree}")
    _check_degree("harmonic_degree", harmonic_degree)  # before any search: int() would truncate 3.7 to 3
    schedule = sorted({_check_degree("L_schedule degree", L) for L in L_schedule})
    if bracket is None:
        bracket = (0.2 * data.R, 0.9 * data.R)
    if not schedule:
        raise ValueError("empty L_schedule: no degree to reconstruct at")
    if schedule[0] < 0:
        raise ValueError(f"L_schedule degrees must be >= 0, got {schedule[0]}")
    L_top = schedule[-1]
    # extract once at the top degree and truncate per scheduled L: the
    # projections are independent mode by mode, so this equals extracting at
    # each L up to rounding (radii move by about 5e-10 between schedules
    # (3,) and (3, 4, 5, 6), as the projection rounds differently per degree)
    full = [extract_coeffs(e, data.quadrature, data.R, L_top) for e in data.entries]
    # one harmonic table, sliced per degree, and one set of incidence cosines
    Y = specfun.sph_harm_table(L_top, *_angles(dirs))
    cosang, ks = _incidence(dirs, [e.ctx for e in data.entries])

    n = len(dirs)
    best = None  # (resolution, L, radii, residuals, spreads, resolved, least |p| at a bracket end)
    for L in schedule:
        W = _degree_weights(Y, [c.truncated(L) for c in full])
        ents, rows, r, f, _, at_end = _search(W, cosang, ks, bracket, grid_n, residual_threshold)
        radii, residuals, spreads, resolved = _stable_roots(ents, rows, r, f, (len(ks), n))
        if len(ks) == 1:  # the spread of one root is undefined
            spreads[:] = np.nan
        else:
            resolved &= spreads <= stability_tol
        frac = float(np.count_nonzero(resolved)) / n
        logger.debug("L=%d resolves %.0f%% of directions", L, 100 * frac)
        if best is None or frac > best[0]:
            best = (frac, L, radii, residuals, spreads, resolved, at_end.any(axis=0))
        if frac >= quorum:
            break
    frac, L_sel, radii, residuals, spreads, resolved, at_end = best
    # the first degree to reach the quorum is also the best so far
    converged = bool(frac >= quorum)
    if not converged:
        logger.warning(
            "no degree in %s resolved %.0f%% of directions (best %.0f%% at L=%d)",
            schedule, 100 * quorum, 100 * frac, L_sel,
        )

    n_resolved, model_modes = int(np.count_nonzero(resolved)), specfun.n_modes(harmonic_degree)
    if edge := np.count_nonzero(at_end & ~resolved):
        logger.warning("%d of %d unresolved directions at L=%d have their least |p| at an end of the "
                       "bracket %s: the boundary may lie outside it", edge, n - n_resolved, L_sel, bracket)
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
    clipped = np.count_nonzero((radii < lo) | (radii > hi))
    if clipped:
        logger.warning("%d of %d radii filled from the harmonic model lie outside the bracket %s: "
                       "clipped to it", clipped, n, bracket)
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
