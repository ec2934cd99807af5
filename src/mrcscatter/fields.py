"""Field evaluation from outgoing-wave coefficients.

The expansion is guaranteed to represent the scattered field outside any
ball containing the obstacle; evaluating it closer to (or on) the boundary
is permitted and is exactly what the residual-minimization construction
justifies to O(residual), but there is no guarantee inside the obstacle's
circumscribed sphere for coefficient sets obtained otherwise.

On the quadrature grid, projection and synthesis are tensor-product
transforms: Y[ell, m] at node (i, j) is Pbar[ell, |m|](theta_i) * E[m](phi_j),
so a node sum splits into azimuthal sums per order and polar sums per mode, in
O(nodes * L + n_theta * L**2); no dense (nodes x modes) table is built.
"""

from __future__ import annotations

import numpy as np

from . import specfun
from .direct_solver import CoefficientSet, WaveContext
from .geometry import SphereQuadrature


def _angles_of(points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    r = np.linalg.norm(pts, axis=-1)
    if np.any(r == 0.0):
        raise specfun.DomainError("field evaluation at the origin")
    theta = np.arccos(np.clip(pts[:, 2] / r, -1.0, 1.0))
    phi = np.arctan2(pts[:, 1], pts[:, 0])
    return r, theta, phi


def _radial_sum(coeffs: CoefficientSet, radial: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """sum over modes of c[ell,m] * radial[ell] * Y[:, (ell,m)]; radial has
    shape (L+1,) for one shared radius or (L+1, n) for one radius per row."""
    return (Y * radial[specfun.mode_degrees(coeffs.L)].T) @ coeffs.coeffs


def _expansion_at(coeffs: CoefficientSet, ctx: WaveContext, points, radial_table) -> np.ndarray:
    single = np.ndim(points) == 1
    r, theta, phi = _angles_of(points)
    Y = specfun.sph_harm_table(coeffs.L, theta, phi)
    out = _radial_sum(coeffs, radial_table(coeffs.L, ctx.k, r), Y)
    return out[0] if single else out


def scattered_field(coeffs: CoefficientSet, ctx: WaveContext, points) -> np.ndarray:
    """Outgoing expansion sum(c[ell,m] Y[ell,m](x/|x|) hankel_out(ell,k,|x|))
    at Cartesian points; shape (n,) (scalars accepted)."""
    return _expansion_at(coeffs, ctx, points, specfun.hankel_out_table)


def scattered_field_dr(coeffs: CoefficientSet, ctx: WaveContext, points) -> np.ndarray:
    """Radial derivative of the outgoing expansion at Cartesian points."""
    return _expansion_at(coeffs, ctx, points, specfun.hankel_out_dr_table)


def total_field(coeffs: CoefficientSet, ctx: WaveContext, points) -> np.ndarray:
    """Incident plane wave plus the scattered expansion."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    u0 = np.exp(1j * ctx.k * pts @ ctx.alpha.vector)
    out = u0 + scattered_field(coeffs, ctx, pts)
    return out[0] if np.ndim(points) == 1 else out


def far_field_amplitude(coeffs: CoefficientSet, theta, phi) -> np.ndarray:
    """Far-field scattering amplitude: because the radial functions tend to
    exp(ikr)/r exactly, it is sum(c[ell,m] Y[ell,m]) pointwise."""
    single = np.ndim(theta) == 0
    Y = specfun.sph_harm_table(coeffs.L, theta, phi)
    out = Y @ coeffs.coeffs
    return complex(out[0]) if single else out


def project_far_field(samples: np.ndarray, quad: SphereQuadrature, L: int) -> CoefficientSet:
    """Recover mode coefficients from far-field samples on quadrature nodes
    by orthonormal projection (the inverse of far_field_amplitude)."""
    quad.check_aliasing(L)
    P, E = specfun._harmonic_factors(L, quad.theta_axis, quad.phi_axis)
    # azimuthal sums per order m on each polar ring, then polar sums per (ell, m)
    F = (quad.weights * samples).reshape(quad.n_theta, quad.n_phi) @ E.conj().T
    C = np.sum(P[:, abs(np.arange(-L, L + 1))] * F.T, axis=-1)
    return CoefficientSet(L, C[specfun.mode_degrees(L), specfun.mode_orders(L) + L])


def field_on_sphere(
    coeffs: CoefficientSet, ctx: WaveContext, R: float, quad: SphereQuadrature
) -> np.ndarray:
    """Scattered field sampled at R times the quadrature directions."""
    if not R > 0:  # NaN too
        raise ValueError(f"sphere radius must be > 0, got {R}")
    L, ells = coeffs.L, specfun.mode_degrees(coeffs.L)
    P, E = specfun._harmonic_factors(L, quad.theta_axis, quad.phi_axis)
    # the transpose of the projection: polar sums per order, then azimuthal ones
    C = np.zeros((L + 1, 2 * L + 1), dtype=complex)
    H = specfun.hankel_out_table(L, ctx.k, R)
    C[ells, specfun.mode_orders(L) + L] = coeffs.coeffs * H[ells]
    return (np.sum(P[:, abs(np.arange(-L, L + 1))] * C[..., None], axis=0).T @ E).ravel()
