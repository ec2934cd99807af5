"""Spherical special functions: Bessel, outgoing Hankel, spherical harmonics.

Radial convention: ``hankel_out(ell, k, r)`` is the outgoing radial factor
normalized so that it behaves as exp(i*k*r)/r for r -> infinity, for every
degree ``ell``.  In terms of the standard first-kind spherical Hankel
function h1 this equals i**(ell+1) * k * h1_ell(k*r); the conversion factor
is confined to this module.

Angular convention: orthonormal spherical harmonics on the unit sphere with
the Condon-Shortley phase, so conj(Y[ell, m]) == (-1)**m * Y[ell, -m].

Mode layout: every mode array is flat, mode (ell, m) at index
ell**2 + ell + m, degrees ascending and orders -ell..ell within a degree.
``mode_degrees(L)`` and ``mode_orders(L)`` give ell and m of each flat index;
a per-degree or per-order factor is applied by indexing with them, e.g.
``Y * H[mode_degrees(L)].T`` scales each mode column by its radial factor.

All functions are pure; vectorized ``*_table`` variants return values for
every degree 0..L at once and are what the solvers use internally.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, NamedTuple

import numpy as np


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
    if np.any(np.asarray(x) <= 0):
        raise DomainError(f"argument must be > 0, got {x}")


def _jn_upward(L: int, x: np.ndarray) -> np.ndarray:
    """j_0..j_L by upward recurrence; stable for x > L."""
    out = np.empty((L + 1,) + x.shape)
    out[0] = np.sin(x) / x
    if L >= 1:
        out[1] = np.sin(x) / x**2 - np.cos(x) / x
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
        prev = np.where(use_j1, j1, j0 * rho[1])
        out[1] = prev
        for ell in range(2, L + 1):
            prev = prev * rho[ell]
            out[ell] = prev
    return out


def spherical_bessel_j_table(L: int, x) -> np.ndarray:
    """j_ell(x) for ell = 0..L; shape (L+1,) + shape(x)."""
    _check_radial_args(0, x)
    if L < 0:
        raise DomainError(f"degree must be >= 0, got {L}")
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty((L + 1,) + xa.shape)
    up = xa > L
    if np.any(up):
        out[:, up] = _jn_upward(L, xa[up])
    if np.any(~up):
        out[:, ~up] = _jn_downward(L, xa[~up])
    if np.ndim(x) == 0:
        return out[:, 0]
    return out


def spherical_bessel_j(ell: int, x: float) -> float:
    """Spherical Bessel function of the first kind, j_ell(x)."""
    _check_radial_args(ell, x)
    return float(spherical_bessel_j_table(ell, x)[ell])


def _yn_table(L: int, x: np.ndarray) -> np.ndarray:
    """y_0..y_L by upward recurrence (stable: |y_ell| grows with ell)."""
    out = np.empty((L + 1,) + x.shape)
    out[0] = -np.cos(x) / x
    if L >= 1:
        out[1] = -np.cos(x) / x**2 - np.sin(x) / x
    for ell in range(2, L + 1):
        out[ell] = (2 * ell - 1) / x * out[ell - 1] - out[ell - 2]
    return out


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


def _h1_table(L: int, z: np.ndarray) -> np.ndarray:
    """Standard h1_ell(z) = j_ell(z) + i*y_ell(z) for ell = 0..L."""
    j = spherical_bessel_j_table(L, z)
    y = _yn_table(L, np.atleast_1d(z))
    if np.ndim(z) == 0:
        y = y[:, 0]
    return j + 1j * y


def _bessel_dz(f: np.ndarray, z) -> np.ndarray:
    """d/dz of a spherical Bessel-type table f_0..f_{L+1} at z, for ell = 0..L:
    f_0' = -f_1 and f_ell' = f_{ell-1} - (ell+1)/z * f_ell (valid for j, y, h1)."""
    L = f.shape[0] - 2
    ells = np.arange(1, L + 1).reshape((L,) + (1,) * np.ndim(z))
    return np.concatenate([-f[1:2], f[:L] - (ells + 1) / z * f[1 : L + 1]])


def hankel_out_table(L: int, k: float, r) -> np.ndarray:
    """hankel_out(ell, k, r) for ell = 0..L; shape (L+1,) + shape(r)."""
    _check_radial_args(L, r)
    if k <= 0:
        raise DomainError(f"wavenumber must be > 0, got {k}")
    ra = np.asarray(r, dtype=float)
    h = _h1_table(L, k * ra)
    phase = _outgoing_phase(L) * k
    return h * phase.reshape((L + 1,) + (1,) * ra.ndim)


def hankel_out(ell: int, k: float, r: float) -> complex:
    """Outgoing radial wave, ~ exp(ikr)/r as r -> infinity for every ell."""
    return complex(hankel_out_table(ell, k, r)[ell])


def hankel_out_dr_table(L: int, k: float, r) -> np.ndarray:
    """d/dr of hankel_out(ell, k, r) for ell = 0..L."""
    _check_radial_args(L, r)
    if k <= 0:
        raise DomainError(f"wavenumber must be > 0, got {k}")
    ra = np.asarray(r, dtype=float)
    z = k * ra
    dh = _bessel_dz(_h1_table(L + 1, z), z)
    phase = _outgoing_phase(L) * k * k
    return dh * phase.reshape((L + 1,) + (1,) * ra.ndim)


def hankel_out_dr(ell: int, k: float, r: float) -> complex:
    """Radial derivative of hankel_out."""
    return complex(hankel_out_dr_table(ell, k, r)[ell])


# --------------------------------------------------------------------------
# Orthonormal spherical harmonics (Condon-Shortley phase)
# --------------------------------------------------------------------------

def _norm_legendre_table(L: int, ct: np.ndarray, st: np.ndarray) -> np.ndarray:
    """Fully normalized associated Legendre values Pbar[ell, m] for m >= 0.

    Normalized so Y(ell, m) = Pbar[ell, m] * exp(i*m*phi) is orthonormal on
    the unit sphere; the Condon-Shortley (-1)**m is folded in.  Shape
    (L+1, L+1, n); entries with m > ell are zero.
    """
    n = ct.shape[0]
    P = np.zeros((L + 1, L + 1, n))
    P[0, 0] = 1.0 / math.sqrt(4.0 * math.pi)
    # diagonal Pbar[m, m] and first off-diagonal Pbar[m, m-1]
    for m in range(1, L + 1):
        P[m, m] = -math.sqrt((2 * m + 1) / (2.0 * m)) * st * P[m - 1, m - 1]
        P[m, m - 1] = math.sqrt(2 * m + 1) * ct * P[m - 1, m - 1]
    # ascending-degree recurrence for all orders m <= ell - 2, normalized on the fly
    for ell in range(2, L + 1):
        m = np.arange(ell - 1)
        a = np.sqrt((4.0 * ell * ell - 1.0) / (ell * ell - m * m))[:, None]
        b = np.sqrt(((ell - 1.0) ** 2 - m * m) / (4.0 * (ell - 1.0) ** 2 - 1.0))[:, None]
        P[ell, : ell - 1] = a * (ct * P[ell - 1, : ell - 1] - b * P[ell - 2, : ell - 1])
    return P


def _norm_legendre_dtheta_table(L: int, P: np.ndarray) -> np.ndarray:
    """d/dtheta of _norm_legendre_table output, via the ladder identity
    dP[ell, m] = (c_up * P[ell, m+1] - c_down * P[ell, m-1]) / 2.

    Pole-safe: no division by sin(theta).
    """
    ell = np.arange(L + 1)[:, None]
    m = np.arange(L + 1)[None, :]
    c_up = np.sqrt(np.maximum((ell - m) * (ell + m + 1), 0))[..., None]
    c_down = np.sqrt(np.maximum((ell + m) * (ell - m + 1), 0))[..., None]
    Pz = np.concatenate([P, np.zeros_like(P[:, :1])], axis=1)
    # Pbar[ell, -1] is -Pbar[ell, 1] under this normalization
    below = np.concatenate([-Pz[:, 1:2], Pz[:, :L]], axis=1)
    return 0.5 * (c_up * Pz[:, 1:] - c_down * below)


def _azimuth_factors(L: int, phi: np.ndarray) -> np.ndarray:
    """exp(i*m*phi) for m = 0..L; shape (L+1, n)."""
    E = np.empty((L + 1, phi.shape[0]), dtype=complex)
    E[0] = 1.0
    if L >= 1:
        e1 = np.exp(1j * phi)
        for m in range(1, L + 1):
            E[m] = E[m - 1] * e1
    return E


def _assemble_modes(L: int, P: np.ndarray, E: np.ndarray) -> np.ndarray:
    """Combine a Legendre-style table (m >= 0) with azimuth factors into the
    full (n, (L+1)**2) mode matrix, using Y(ell,-m) = (-1)**m conj(Y(ell,m))."""
    ms = mode_orders(L)
    # azimuth factors of orders -L..L; P is real, so the conjugate acts on E
    sign = 1 - 2 * (np.arange(L, 0, -1) % 2)
    E_all = np.concatenate([np.conj(E[:0:-1]) * sign[:, None], E])
    return np.ascontiguousarray((P[mode_degrees(L), np.abs(ms)] * E_all[ms + L]).T)


def _legendre_and_azimuth(L: int, theta, phi) -> tuple[np.ndarray, np.ndarray]:
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    ph = np.atleast_1d(np.asarray(phi, dtype=float))
    return _norm_legendre_table(L, np.cos(th), np.sin(th)), _azimuth_factors(L, ph)


def sph_harm_table(L: int, theta, phi) -> np.ndarray:
    """Y[ell, m] at given angles for all modes ell <= L; shape (n, (L+1)**2)."""
    P, E = _legendre_and_azimuth(L, theta, phi)
    return _assemble_modes(L, P, E)


def sph_harm_dtheta_table(L: int, theta, phi) -> np.ndarray:
    """d/dtheta of sph_harm_table; same shape, pole-safe."""
    P, E = _legendre_and_azimuth(L, theta, phi)
    return _assemble_modes(L, _norm_legendre_dtheta_table(L, P), E)


def sph_harm_dphi_over_sin_table(L: int, theta, phi) -> np.ndarray:
    """(1/sin(theta)) * d/dphi of sph_harm_table, i.e. i*m*Y/sin(theta).

    Columns with m = 0 are exactly zero.  Requires sin(theta) bounded away
    from zero for m != 0 (quadrature nodes never sit on the poles).
    """
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    st = np.sin(th)
    Y = sph_harm_table(L, th, phi)
    if np.any(np.abs(st) < 1e-12):
        raise DomainError("azimuthal angular gradient undefined at the poles")
    return 1j * mode_orders(L) * Y / st[:, None]


def sph_harm(ell: int, m: int, theta: float, phi: float) -> complex:
    """Orthonormal spherical harmonic Y_{ell m}(theta, phi)."""
    idx = mode_index(ell, m)
    return complex(sph_harm_table(ell, theta, phi)[0, idx])


# --------------------------------------------------------------------------
# One-dimensional minimization
# --------------------------------------------------------------------------

def golden_min(
    f: Callable[[float], float], a: float, b: float, rel_tol: float = 1e-10
) -> tuple[float, float]:
    """Golden-section minimum (x, f(x)) of f on [a, b] to relative width rel_tol."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > rel_tol * max(abs(a), abs(b)):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    return (c, fc) if fc < fd else (d, fd)
