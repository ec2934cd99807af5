"""Spherical special functions: Bessel, outgoing Hankel, spherical harmonics.

Radial convention: ``hankel_out(ell, k, r)`` is the outgoing radial factor
normalized so that it behaves as exp(i*k*r)/r for r -> infinity, for every
degree ``ell``.  In terms of the standard first-kind spherical Hankel
function h1 this equals i**(ell+1) * k * h1_ell(k*r); the conversion factor
is confined to this module, and so is its r-derivative: ``_hankel_out_pair``
is the one source of dH/dr, for the solvers and ``hankel_out_dr_table`` alike.

Angular convention: orthonormal spherical harmonics on the unit sphere with
the Condon-Shortley phase, so conj(Y[ell, m]) == (-1)**m * Y[ell, -m].

Mode layout: every mode array is flat, mode (ell, m) at index
ell**2 + ell + m, degrees ascending and orders -ell..ell within a degree.
``mode_degrees(L)`` and ``mode_orders(L)`` give ell and m of each flat index;
a per-degree or per-order factor is applied by indexing with them, e.g.
``Y * H[mode_degrees(L)].T`` scales each mode column by its radial factor.

Harmonics come from a Legendre table on polar angles and an azimuth table,
paired node by node on scattered directions (``_harmonic_factors``) or kept by
a quadrature rule for its two axes, where Y is their product per mode
(``_grid_modes``) with bitwise the same values.  Real harmonics and their
partials, for any list of weighted (ell, m), come from ``_real_harmonics``.

All functions are pure, but ``bracketed_root`` logs its bisections at DEBUG;
vectorized ``*_table`` variants return values for every degree 0..L at once
and are what the solvers use internally.
"""

from __future__ import annotations

import functools
import logging
import math
from typing import Callable, NamedTuple

import numpy as np

logger = logging.getLogger(__name__)


class DomainError(ValueError):
    """Argument outside the mathematical domain of a special function."""


class ModeIndex(NamedTuple):
    """Degree/order pair (ell, m) with |m| <= ell."""

    ell: int
    m: int


def n_modes(L: int) -> int:
    """Number of modes with degree <= L."""
    return (L + 1) * (L + 1)


def mode_index(ell: int, m: int) -> int:
    """Flat index of mode (ell, m): ell**2 + ell + m."""
    if ell < 0 or abs(m) > ell:
        raise DomainError(f"invalid mode (ell={ell}, m={m})")
    return ell * ell + ell + m


def mode_from_index(index: int) -> ModeIndex:
    """Inverse of mode_index."""
    if index < 0:
        raise DomainError(f"invalid flat mode index {index}")
    ell = math.isqrt(index)
    return ModeIndex(ell, index - ell * ell - ell)


def mode_list(L: int) -> list[ModeIndex]:
    """All modes with degree <= L in flat-index order."""
    return [ModeIndex(ell, m) for ell in range(L + 1) for m in range(-ell, ell + 1)]


@functools.lru_cache(maxsize=None)
def mode_degrees(L: int) -> np.ndarray:
    """Degree ell of each flat mode index for degrees <= L (read-only, cached)."""
    ells = np.repeat(np.arange(L + 1), 2 * np.arange(L + 1) + 1)
    ells.flags.writeable = False
    return ells


@functools.lru_cache(maxsize=None)
def mode_orders(L: int) -> np.ndarray:
    """Order m of each flat mode index for degrees <= L (read-only, cached)."""
    ells = mode_degrees(L)
    ms = np.arange(n_modes(L)) - ells * ells - ells
    ms.flags.writeable = False
    return ms


# --------------------------------------------------------------------------
# Spherical Bessel j and y
# --------------------------------------------------------------------------

# Extra downward-recurrence margin on top of the 1.5*x rule of thumb.
_MILLER_EXTRA = 20


def _check_radial_args(ell: int, x) -> None:
    if ell < 0:
        raise DomainError(f"degree must be >= 0, got {ell}")
    if not np.all(np.asarray(x) > 0):  # NaN too
        raise DomainError(f"argument must be > 0, got {x}")


def _upward(L: int, x: np.ndarray, f0: np.ndarray, f1: np.ndarray) -> np.ndarray:
    """f_0..f_L by the upward recurrence of spherical Bessel functions, from
    the seeds f_0 and f_1; stable for y and h1 at every x and for j at x > L."""
    out = np.empty((L + 1,) + np.shape(x), dtype=np.result_type(f0, f1))
    out[0] = f0
    if L >= 1:
        out[1] = f1
    for ell in range(2, L + 1):
        out[ell] = (2 * ell - 1) / x * out[ell - 1] - out[ell - 2]
    return out


def _jn_downward(L: int, x: np.ndarray) -> np.ndarray:
    """j_0..j_L by downward continued-fraction ratios (Miller's algorithm).

    Ratios rho_ell = j_ell/j_{ell-1} stay bounded, so the table never
    overflows; very small values underflow gracefully to zero.  Normalized
    against whichever of j_0, j_1 is larger in magnitude, to stay accurate
    near zeros of sin(x).
    """
    M = L + max(_MILLER_EXTRA, math.ceil(1.5 * float(np.max(x))))
    rho = np.empty((L + 2,) + x.shape)
    r = x / (2 * M + 3)  # seed two orders above the last one we keep exactly
    for ell in range(M + 1, 0, -1):
        r = x / ((2 * ell + 1) - x * r)
        if ell <= L + 1:
            rho[ell] = r
    j0 = np.sin(x) / x
    out = np.empty((L + 1,) + x.shape)
    out[0] = j0
    if L >= 1:
        # Normalize the ratio chain per node against whichever of j_0, j_1 is
        # larger in magnitude (their zeros interlace, so one is always fine).
        # Near zeros of sin(x) the ratio rho_1 = j_1/j_0 suffers cancellation,
        # so the j_1-anchored chain must not contain rho_1 at all.
        j1 = np.sin(x) / x**2 - np.cos(x) / x
        use_j1 = np.abs(j1) > np.abs(j0)
        out[1:] = np.cumprod([np.where(use_j1, j1, j0 * rho[1]), *rho[2 : L + 1]], axis=0)
    return out


def spherical_bessel_j_table(L: int, x) -> np.ndarray:
    """j_ell(x) for ell = 0..L; shape (L+1,) + shape(x)."""
    _check_radial_args(L, x)
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty((L + 1,) + xa.shape)
    up = xa > L
    if np.any(up):
        xu = xa[up]
        out[:, up] = _upward(L, xu, np.sin(xu) / xu, np.sin(xu) / xu**2 - np.cos(xu) / xu)
    if np.any(~up):
        out[:, ~up] = _jn_downward(L, xa[~up])
    if np.ndim(x) == 0:
        return out[:, 0]
    return out


def spherical_bessel_j(ell: int, x: float) -> float:
    """Spherical Bessel function of the first kind, j_ell(x)."""
    return float(spherical_bessel_j_table(ell, x)[ell])


def _yn_table(L: int, x: np.ndarray) -> np.ndarray:
    """y_0..y_L by upward recurrence (stable: |y_ell| grows with ell)."""
    return _upward(L, x, -np.cos(x) / x, -np.cos(x) / x**2 - np.sin(x) / x)


# --------------------------------------------------------------------------
# Outgoing Hankel functions, normalized to exp(ikr)/r at infinity
# --------------------------------------------------------------------------

# i**n, indexed by n mod 4
_I_POW = np.array([1, 1j, -1, -1j])


@functools.lru_cache(maxsize=None)
def _outgoing_phase(L: int) -> np.ndarray:
    """i**(ell+1) for ell = 0..L: the factor taking h1_ell to exp(ikr)/r form."""
    phase = _I_POW[np.arange(1, L + 2) % 4]
    phase.flags.writeable = False
    return phase


def _h1_table(L: int, z) -> np.ndarray:
    """Standard h1_ell(z) = j_ell(z) + i*y_ell(z) for ell = 0..L, by the upward
    recurrence (h1 is its dominant solution) from the closed forms of h1_0 and
    h1_1.  |h1| and Im h1 (bitwise ``_yn_table``) are accurate; Re h1 = j loses
    relative accuracy for ell > z, and nothing reads it on its own."""
    s, c = np.sin(z), np.cos(z)
    return _upward(L, z, s / z - 1j * (c / z), (s / z**2 - c / z) - 1j * (c / z**2 + s / z))


def _bessel_dz(f: np.ndarray, z) -> np.ndarray:
    """d/dz of a spherical Bessel-type table f_0..f_{L+1} at z, for ell = 0..L:
    f_0' = -f_1 and f_ell' = f_{ell-1} - (ell+1)/z * f_ell (valid for j, y, h1)."""
    L = f.shape[0] - 2
    ells = np.arange(1, L + 1).reshape((L,) + (1,) * np.ndim(z))
    return np.concatenate([-f[1:2], f[:L] - (ells + 1) / z * f[1 : L + 1]])


def hankel_out_table(L: int, k, r) -> np.ndarray:
    """hankel_out(ell, k, r) for ell = 0..L; shape (L+1,) + the broadcast shape
    of k and r, each value bitwise that of its scalar k.  Rows 0..L of a
    degree-(L+1) table are bitwise this table (see ``_h1_table``)."""
    _check_radial_args(L, r)
    if not (np.all(k > 0) if isinstance(k, np.ndarray) else k > 0):  # NaN too
        raise DomainError(f"wavenumber must be > 0, got {k}")
    kr = k * np.asarray(r, dtype=float)
    return _h1_table(L, kr) * (_outgoing_phase(L).reshape((L + 1,) + (1,) * kr.ndim) * k)


def hankel_out(ell: int, k: float, r: float) -> complex:
    """Outgoing radial wave, ~ exp(ikr)/r as r -> infinity for every ell."""
    return complex(hankel_out_table(ell, k, r)[ell])


def _hankel_out_pair(L: int, k, r) -> tuple[np.ndarray, np.ndarray]:
    """hankel_out_table(L, k, r) and its r-derivative, from one table of degree
    max(L, 1): dH_0/dr = i*k*H_1, dH_ell/dr = k*(i*H_{ell-1} - (ell+1)/(k*r)*H_ell)."""
    H = hankel_out_table(L or 1, k, r)  # a negative L still raises
    kr = k * np.asarray(r, dtype=float)
    dH = np.arange(2, L + 2).reshape((L,) + (1,) * kr.ndim) / kr * H[1 : L + 1]
    return H[: L + 1], k * np.concatenate([1j * H[1:2], 1j * H[:L] - dH])


def hankel_out_dr_table(L: int, k: float, r) -> np.ndarray:
    """d/dr of hankel_out(ell, k, r) for ell = 0..L."""
    return _hankel_out_pair(L, k, r)[1]


def hankel_out_dr(ell: int, k: float, r: float) -> complex:
    """Radial derivative of hankel_out."""
    return complex(hankel_out_dr_table(ell, k, r)[ell])


# --------------------------------------------------------------------------
# Orthonormal spherical harmonics (Condon-Shortley phase)
# --------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _legendre_factors(L: int) -> tuple:
    """(c_up, c_down, diagonal, off-diagonal, a, b) for degrees <= L, read-only."""
    ell, m = np.arange(L + 1)[:, None, None], np.arange(L + 1)[:, None]
    # a and b are read for m <= ell - 2 only, where abs and maximum change nothing
    factors = (np.sqrt(np.maximum((ell - m) * (ell + m + 1), 0)),
               np.sqrt(np.maximum((ell + m) * (ell - m + 1), 0)),
               -np.sqrt((2 * m[1:] + 1) / (2.0 * m[1:])), np.sqrt(2 * m[1:] + 1),
               np.sqrt(np.abs(4.0 * ell * ell - 1.0) / np.maximum(ell * ell - m * m, 1)),
               np.sqrt(np.maximum((ell - 1.0) ** 2 - m * m, 0) / (4.0 * (ell - 1.0) ** 2 - 1.0)))
    for f in factors:
        f.flags.writeable = False
    return factors


def _norm_legendre_table(L: int, ct: np.ndarray, st: np.ndarray) -> np.ndarray:
    """Fully normalized associated Legendre values Pbar[ell, m] for m >= 0.

    Normalized so Y(ell, m) = Pbar[ell, m] * exp(i*m*phi) is orthonormal on
    the unit sphere; the Condon-Shortley (-1)**m is folded in.  Shape
    (L+1, L+1, n); entries with m > ell are zero.
    """
    n = ct.shape[0]
    _, _, diag_step, off_step, a, b = _legendre_factors(L)
    P = np.zeros((L + 1, L + 1, n))
    # Pbar[m, m] is row m*(L+2) of the flat view and Pbar[m, m-1] the row before it
    diag, off = (P.reshape(-1, n)[first :: L + 2] for first in (0, L + 1))
    diag[0] = 1.0 / math.sqrt(4.0 * math.pi)
    np.cumprod(np.concatenate([diag[:1], diag_step * st]), axis=0, out=diag)
    np.multiply(off_step * ct, diag[:-1], out=off)
    # ascending-degree recurrence for all orders m <= ell - 2, normalized on the fly
    for ell in range(2, L + 1):
        k = slice(ell - 1)
        P[ell, k] = a[ell, k] * (ct * P[ell - 1, k] - b[ell, k] * P[ell - 2, k])
    return P


def _norm_legendre_dtheta_table(L: int, P: np.ndarray) -> np.ndarray:
    """d/dtheta of _norm_legendre_table output, via the ladder identity
    dP[ell, m] = (c_up * P[ell, m+1] - c_down * P[ell, m-1]) / 2.

    Pole-safe: no division by sin(theta).
    """
    c_up, c_down = _legendre_factors(L)[:2]
    Pz = np.concatenate([P, np.zeros_like(P[:, :1])], axis=1)
    # Pbar[ell, -1] is -Pbar[ell, 1] under this normalization
    below = np.concatenate([-Pz[:, 1:2], Pz[:, :L]], axis=1)
    return 0.5 * (c_up * Pz[:, 1:] - c_down * below)


def _real_harmonics(ells, ms, w, theta: np.ndarray, phi: np.ndarray):
    """Rows w * Pbar[ell, |m|](theta) * (cos(m*phi) if m >= 0 else sin(|m|*phi)) and their theta
    and phi partials, (len(ells), len(theta)) each, all off one Legendre table; 1-D arguments."""
    P = _norm_legendre_table(int(ells.max(initial=0)), np.cos(theta), np.sin(theta))
    am, neg, w = np.abs(ms)[:, None], (ms < 0)[:, None], w[:, None]
    wP, wdP = (w * T[ells, am[:, 0]] for T in (P, _norm_legendre_dtheta_table(len(P) - 1, P)))
    cos, sin = np.cos(am * phi), np.sin(am * phi)
    az = np.where(neg, sin, cos)
    return wP * az, wdP * az, wP * (am * np.where(neg, cos, -sin))


def _azimuth_factors(L: int, phi: np.ndarray) -> np.ndarray:
    """exp(i*m*phi) for m = -L..L in row m + L, shape (2L+1, n), times (-1)**m
    for m < 0 (Y(ell,-m) = (-1)**m conj(Y(ell,m))): Y[ell, m] = Pbar[ell, |m|] * E[m + L]."""
    E = np.empty((L + 1, phi.shape[0]), dtype=complex)
    E[0] = 1.0
    if L >= 1:
        e1 = np.exp(1j * phi)
        for m in range(1, L + 1):
            E[m] = E[m - 1] * e1
    # P is real, so the conjugate of a negative order acts on E alone
    sign = 1 - 2 * (np.arange(L, 0, -1) % 2)
    return np.concatenate([np.conj(E[:0:-1]) * sign[:, None], E])


def _harmonic_factors(L: int, theta, phi) -> tuple[np.ndarray, np.ndarray]:
    """Pbar on the polar angles and the azimuth factors of orders -L..L on the
    azimuths, paired node by node on scattered directions (``_assemble_modes``)."""
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    ph = np.atleast_1d(np.asarray(phi, dtype=float))
    return _norm_legendre_table(L, np.cos(th), np.sin(th)), _azimuth_factors(L, ph)


def _assemble_modes(L: int, P: np.ndarray, E: np.ndarray) -> np.ndarray:
    """The (n, (L+1)**2) mode matrix Pbar[ell, |m|] * E[m + L] on n scattered nodes."""
    ms = mode_orders(L)
    return np.ascontiguousarray((P[mode_degrees(L), np.abs(ms)] * E[ms + L]).T)


def _grid_modes(L: int, P: np.ndarray, E: np.ndarray) -> np.ndarray:
    """The mode matrix on the grid of P's polar by E's azimuthal axis, theta-major
    and C-contiguous: bitwise ``_assemble_modes`` on the grid's nodes."""
    ms = mode_orders(L)
    Pm, Em = P[mode_degrees(L), np.abs(ms)].T, E[ms + L].T
    return np.multiply(Pm[:, None], Em, order="C").reshape(-1, ms.size)


def sph_harm_table(L: int, theta, phi) -> np.ndarray:
    """Y[ell, m] at given angles for all modes ell <= L; shape (n, (L+1)**2)."""
    return _assemble_modes(L, *_harmonic_factors(L, theta, phi))


def sph_harm_dtheta_table(L: int, theta, phi) -> np.ndarray:
    """d/dtheta of sph_harm_table; same shape, pole-safe."""
    P, E = _harmonic_factors(L, theta, phi)
    return _assemble_modes(L, _norm_legendre_dtheta_table(L, P), E)


def _dphi_over_sin(L: int, th: np.ndarray, Y: np.ndarray) -> np.ndarray:
    st = np.sin(th)
    if np.any(np.abs(st) < 1e-12):
        raise DomainError("azimuthal angular gradient undefined at the poles")
    return 1j * mode_orders(L) * Y / st[:, None]


def sph_harm_dphi_over_sin_table(L: int, theta, phi) -> np.ndarray:
    """(1/sin(theta)) * d/dphi of sph_harm_table, i.e. i*m*Y/sin(theta).

    Columns with m = 0 are exactly zero.  Requires sin(theta) bounded away
    from zero for m != 0 (quadrature nodes never sit on the poles).
    """
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    return _dphi_over_sin(L, th, sph_harm_table(L, th, phi))


def sph_harm(ell: int, m: int, theta: float, phi: float) -> complex:
    """Orthonormal spherical harmonic Y_{ell m}(theta, phi)."""
    idx = mode_index(ell, m)
    return complex(sph_harm_table(ell, theta, phi)[0, idx])


# --------------------------------------------------------------------------
# One-dimensional minimization and root finding
# --------------------------------------------------------------------------

_GOLDEN_REL_TOL = 1e-10
_ROOT_REL_TOL = 1e-10


def golden_min(f: Callable[[np.ndarray], np.ndarray], a, b) -> tuple[np.ndarray, np.ndarray]:
    """Golden-section minima (x, f(x)) of f on the brackets [a[i], b[i]].

    f maps an array of abscissae to the array of values at them and must act
    elementwise, so a batch returns bitwise what one call per bracket would.
    Each bracket shrinks until its width is at most _GOLDEN_REL_TOL * max(|a|, |b|);
    finished brackets stop updating while the others go on, and every step
    costs one call of f on the whole array.
    """
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    active = (b - a) > _GOLDEN_REL_TOL * np.maximum(np.abs(a), np.abs(b))
    while np.any(active):
        # left: the minimum lies in [a, d], which becomes the bracket and
        # keeps c as its upper probe; right: the same on [c, b]
        lt = fc < fd
        left = active & lt
        right = active & ~lt
        a = np.where(right, c, a)
        b = np.where(left, d, b)
        c, d = np.where(right, d, c), np.where(left, c, d)
        fc, fd = np.where(right, fd, fc), np.where(left, fc, fd)
        c = np.where(left, b - inv_phi * (b - a), c)
        d = np.where(right, a + inv_phi * (b - a), d)
        fx = f(np.where(left, c, d))
        fc = np.where(left, fx, fc)
        fd = np.where(right, fx, fd)
        active &= (b - a) > _GOLDEN_REL_TOL * np.maximum(np.abs(a), np.abs(b))
    lt = fc < fd
    return np.where(lt, c, d), np.where(lt, fc, fd)


def bracketed_root(f: Callable[[np.ndarray], tuple], a, b, fa, fb) -> tuple[np.ndarray, int]:
    """Roots of g on the brackets [a[i], b[i]] with fa = g(a) < 0 <= fb = g(b),
    and the number of calls of f, which returns (g, dg/dx) elementwise, by a
    safeguarded Newton iteration (``rtsafe``, Numerical Recipes 9.4) batched as
    in ``golden_min``.  Each bracket starts at its secant point (on an end, the
    root, with no call); the evaluated point replaces the end of its sign, and
    a step that leaves the bracket, is not finite or is not under half the step
    before bisects instead.  A bracket stops when |g/g'| there is at most
    _ROOT_REL_TOL * max(|a|, |b|), returning the Newton update (NaN for a NaN
    g), or when it is that narrow.  The bisection count goes to the DEBUG log."""
    a, b, fa, fb = (np.array(v, dtype=float) for v in (a, b, fa, fb))
    x = b - fb * (b - a) / (fb - fa)
    active, calls, step, bisections = (a < x) & (x < b), 0, b - a, 0
    while np.any(active):
        (g, dg), calls = f(x), calls + 1
        a, b = np.where(active & (g < 0), x, a), np.where(active & (g >= 0), x, b)
        with np.errstate(divide="ignore", invalid="ignore"):
            t = x - np.where(g == 0, 0.0, g / dg)
        tol = _ROOT_REL_TOL * np.maximum(np.abs(a), np.abs(b))
        done = ~(np.abs(t - x) > tol)  # a NaN g too
        newton = done | ((a < t) & (t < b) & (np.abs(t - x) < 0.5 * step))
        t = np.where(active, np.where(newton, t, 0.5 * (a + b)), x)
        x, step, bisections = t, np.abs(t - x), bisections + np.count_nonzero(active & ~newton)
        active &= ~done & ((b - a) > tol)
    logger.debug("polished %d roots: %d Newton steps, %d bisection fallbacks", x.size, calls, bisections)
    return x, calls
