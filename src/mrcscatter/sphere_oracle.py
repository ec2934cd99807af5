"""Exact separated-variables scattering by a sphere.

Ground truth for everything else in the package: the coefficients returned
here are verified by substitution into the boundary condition, never trusted
from transcription.
"""

from __future__ import annotations

import logging
import math

import numpy as np

from . import fields, specfun
from .direct_solver import CoefficientSet, WaveContext

logger = logging.getLogger(__name__)


def plane_wave_coeffs(ctx: WaveContext, L: int) -> CoefficientSet:
    """Expansion of exp(i k alpha.x) in regular spherical waves.

    The incident field equals sum over modes of
    b[ell, m] * j_ell(k|x|) * Y[ell, m](x/|x|) with
    b[ell, m] = 4*pi * i**ell * conj(Y[ell, m](alpha)).
    """
    alpha = ctx.alpha
    Y = specfun.sph_harm_table(L, alpha.theta, alpha.phi)[0]
    phases = 4.0 * math.pi * specfun._I_POW[specfun.mode_degrees(L) % 4]
    return CoefficientSet(L, np.conj(Y) * phases)


def incident_partial_sum(ctx: WaveContext, L: int, points: np.ndarray) -> np.ndarray:
    """Evaluate the truncated plane-wave expansion at Cartesian points."""
    r, theta, phi = fields._angles_of(points)
    Y = specfun.sph_harm_table(L, theta, phi)
    j = specfun.spherical_bessel_j_table(L, ctx.k * r)
    return fields._radial_sum(plane_wave_coeffs(ctx, L), j, Y)


def sphere_scattering_coeffs(a: float, ctx: WaveContext, L: int, bc: str) -> CoefficientSet:
    """Exact outgoing-wave coefficients for a soft or hard sphere of radius a.

    Soft (Dirichlet): c[ell,m] = -b[ell,m] * j_ell(k a) / hankel_out(ell, k, a),
    so the total field vanishes on r = a mode by mode.  Hard (Neumann): same
    with radial derivatives.
    """
    if a <= 0:
        raise ValueError(f"sphere radius must be > 0, got {a}")
    b = plane_wave_coeffs(ctx, L)
    k = ctx.k
    if bc == "dirichlet":
        num = specfun.spherical_bessel_j_table(L, k * a)
        den = specfun.hankel_out_table(L, k, a)
    elif bc == "neumann":
        num = k * specfun._bessel_dz(specfun.spherical_bessel_j_table(L + 1, k * a), k * a)
        den = specfun.hankel_out_dr_table(L, k, a)
    else:
        raise ValueError(f"unknown boundary condition {bc!r}")
    tiny = 1e-280
    if np.any(np.abs(den) < tiny):
        logger.warning("near-zero radial denominator in sphere coefficients")
    ratio = num / den
    return CoefficientSet(L, b.coeffs * -ratio[specfun.mode_degrees(L)])
