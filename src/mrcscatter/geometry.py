"""Star-shaped surfaces r = f(direction), sphere quadrature, normals.

Surfaces supply analytic angular partials of the radial map; nothing in the
library finite-differences a surface.  The quadrature is a tensor product of
Gauss-Legendre nodes in cos(theta) with a uniform azimuthal grid, exact for
spherical-harmonic integrands up to the declared degree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import specfun


class SurfaceError(ValueError):
    """Invalid surface parameters (e.g. radial map not positive)."""


# --------------------------------------------------------------------------
# Directions
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Direction:
    """Unit direction given by polar angle theta in [0, pi] and azimuth phi."""

    theta: float
    phi: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError(f"theta must be in [0, pi], got {self.theta}")

    @classmethod
    def from_vector(cls, v: Sequence[float]) -> "Direction":
        x, y, z = (float(c) for c in v)
        n = math.sqrt(x * x + y * y + z * z)
        if n == 0.0:
            raise ValueError("zero vector has no direction")
        theta = math.acos(min(1.0, max(-1.0, z / n)))
        phi = math.atan2(y, x) % (2.0 * math.pi)
        return cls(theta, phi)

    @property
    def vector(self) -> np.ndarray:
        st = math.sin(self.theta)
        return np.array(
            [st * math.cos(self.phi), st * math.sin(self.phi), math.cos(self.theta)]
        )


def angles_to_vectors(theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Unit vectors, shape (n, 3), from polar/azimuth angle arrays."""
    st, ct = np.sin(theta), np.cos(theta)
    return np.stack([st * np.cos(phi), st * np.sin(phi), ct], axis=-1)


def fibonacci_directions(n: int) -> list[Direction]:
    """n roughly equidistributed directions (Fibonacci lattice on the sphere)."""
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    out = []
    for i in range(n):
        z = 1.0 - (2.0 * i + 1.0) / n
        theta = math.acos(min(1.0, max(-1.0, z)))
        phi = (2.0 * math.pi * i / golden) % (2.0 * math.pi)
        out.append(Direction(theta, phi))
    return out


# --------------------------------------------------------------------------
# Quadrature on the unit sphere
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SphereQuadrature:
    """Tensor-product quadrature: Gauss-Legendre in cos(theta) x uniform phi.

    Exactly integrates spherical-harmonic products up to ``degree``;
    weights sum to 4*pi.
    """

    theta: np.ndarray
    phi: np.ndarray
    weights: np.ndarray
    degree: int
    n_theta: int
    n_phi: int

    def __len__(self) -> int:
        return self.theta.size

    @property
    def vectors(self) -> np.ndarray:
        return angles_to_vectors(self.theta, self.phi)

    def integrate(self, values: np.ndarray) -> complex:
        """Integral over the unit sphere of sampled values."""
        return np.sum(self.weights * values, axis=-1)

    def inner(self, f: np.ndarray, g: np.ndarray) -> complex:
        """L2 inner product (f, g) = integral of f * conj(g)."""
        return np.sum(self.weights * f * np.conj(g), axis=-1)

    def norm(self, f: np.ndarray) -> float:
        return float(np.sqrt(np.sum(self.weights * np.abs(f) ** 2, axis=-1).real))


def make_quadrature(n_theta: int, n_phi: int) -> SphereQuadrature:
    """Build the tensor-product rule; exact up to harmonic degree
    min(2*n_theta - 1, n_phi - 1)."""
    if n_theta < 2:
        raise ValueError(f"n_theta must be >= 2, got {n_theta}")
    if n_phi < 4:
        raise ValueError(f"n_phi must be >= 4, got {n_phi}")
    x, wx = np.polynomial.legendre.leggauss(n_theta)
    theta_1d = np.arccos(x)
    phi_1d = 2.0 * math.pi * np.arange(n_phi) / n_phi
    wphi = 2.0 * math.pi / n_phi
    theta = np.repeat(theta_1d, n_phi)
    phi = np.tile(phi_1d, n_theta)
    weights = np.repeat(wx * wphi, n_phi)
    return SphereQuadrature(
        theta=theta,
        phi=phi,
        weights=weights,
        degree=min(2 * n_theta - 1, n_phi - 1),
        n_theta=n_theta,
        n_phi=n_phi,
    )


def quadrature_for_degree(degree: int) -> SphereQuadrature:
    """Smallest tensor-product rule exact up to the given harmonic degree."""
    n_theta = max(2, (degree + 2) // 2)
    n_phi = max(4, degree + 1)
    return make_quadrature(n_theta, n_phi)


# --------------------------------------------------------------------------
# Star-shaped surfaces
# --------------------------------------------------------------------------

class StarSurface:
    """Base class: a positive radial map f over the unit sphere, with
    analytic partial derivatives with respect to theta and phi."""

    def radius(self, theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def radius_dtheta(self, theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def radius_dphi(self, theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def max_radius(self) -> float:
        raise NotImplementedError

    def descriptor(self) -> dict:
        """JSON-able description, round-trips through surface_from_descriptor."""
        raise NotImplementedError

    def boundary_points(self, theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
        """Cartesian boundary points f(direction) * direction, shape (n, 3)."""
        f = self.radius(theta, phi)
        return f[..., None] * angles_to_vectors(theta, phi)


@dataclass(frozen=True)
class Sphere(StarSurface):
    radius_value: float

    def __post_init__(self) -> None:
        if self.radius_value <= 0:
            raise SurfaceError(f"sphere radius must be > 0, got {self.radius_value}")

    def radius(self, theta, phi):
        return np.full(np.broadcast(theta, phi).shape, self.radius_value)

    def radius_dtheta(self, theta, phi):
        return np.zeros(np.broadcast(theta, phi).shape)

    def radius_dphi(self, theta, phi):
        return np.zeros(np.broadcast(theta, phi).shape)

    def max_radius(self) -> float:
        return self.radius_value

    def descriptor(self) -> dict:
        return {"type": "sphere", "radius": self.radius_value}


class PerturbedSphere(StarSurface):
    """Sphere of radius a plus harmonic bumps.

    Each bump is (ell, m, amplitude): a real surface harmonic of degree ell,
    azimuthal order cos(m*phi) for m >= 0 and sin(|m|*phi) for m < 0, scaled
    to unit sup-norm.  An amplitude is therefore the peak radial deviation it
    contributes, and sum(|amplitude|) < a guarantees a positive radial map.
    """

    def __init__(self, base_radius: float, bumps: Sequence[tuple[int, int, float]]):
        if base_radius <= 0:
            raise SurfaceError(f"base radius must be > 0, got {base_radius}")
        bumps = tuple((int(e), int(m), float(a)) for e, m, a in bumps)
        for ell, m, _ in bumps:
            if ell < 0 or abs(m) > ell:
                raise SurfaceError(f"invalid bump mode (ell={ell}, m={m})")
        total = sum(abs(a) for _, _, a in bumps)
        if total >= base_radius:
            raise SurfaceError(
                f"sum of bump amplitudes {total} must stay below the base radius "
                f"{base_radius} to keep the radial map positive"
            )
        self.base_radius = float(base_radius)
        self.bumps = bumps
        self._scales = tuple(
            _legendre_peak(ell, abs(m)) for ell, m, _ in bumps
        )

    def _terms(self, theta, phi, d_dtheta=False, d_dphi=False):
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        phi = np.atleast_1d(np.asarray(phi, dtype=float))
        ct, st = np.cos(theta), np.sin(theta)
        out = np.zeros(np.broadcast(theta, phi).shape)
        for (ell, m, amp), peak in zip(self.bumps, self._scales):
            P = specfun._norm_legendre_table(ell, ct, st)
            if d_dtheta:
                rad = specfun._norm_legendre_dtheta_table(ell, P)[ell, abs(m)]
            else:
                rad = P[ell, abs(m)]
            if m == 0:
                az = np.zeros_like(phi) if d_dphi else np.ones_like(phi)
            elif m > 0:
                az = -m * np.sin(m * phi) if d_dphi else np.cos(m * phi)
            else:
                az = -m * np.cos(-m * phi) if d_dphi else np.sin(-m * phi)
            out = out + (amp / peak) * rad * az
        return out

    def radius(self, theta, phi):
        return self.base_radius + self._terms(theta, phi)

    def radius_dtheta(self, theta, phi):
        return self._terms(theta, phi, d_dtheta=True)

    def radius_dphi(self, theta, phi):
        return self._terms(theta, phi, d_dphi=True)

    def max_radius(self) -> float:
        return self.base_radius + sum(abs(a) for _, _, a in self.bumps)

    def descriptor(self) -> dict:
        return {
            "type": "perturbed_sphere",
            "radius": self.base_radius,
            "bumps": [[e, m, a] for e, m, a in self.bumps],
        }

    def rotated_z(self, gamma: float) -> "PerturbedSphere":
        """The same surface rotated by gamma about the z axis
        (f'(direction) = f(rotate(-gamma) direction)); exact in this family."""
        merged: dict[tuple[int, int], float] = {}
        for ell, m, amp in self.bumps:
            if m == 0:
                merged[(ell, 0)] = merged.get((ell, 0), 0.0) + amp
                continue
            mm = abs(m)
            c, s = math.cos(mm * gamma), math.sin(mm * gamma)
            if m > 0:
                # cos(m(phi - gamma)) = cos cos + sin sin
                merged[(ell, mm)] = merged.get((ell, mm), 0.0) + amp * c
                merged[(ell, -mm)] = merged.get((ell, -mm), 0.0) + amp * s
            else:
                # sin(m(phi - gamma)) = sin cos - cos sin
                merged[(ell, -mm)] = merged.get((ell, -mm), 0.0) + amp * c
                merged[(ell, mm)] = merged.get((ell, mm), 0.0) - amp * s
        bumps = [(e, m, a) for (e, m), a in sorted(merged.items()) if a != 0.0]
        return PerturbedSphere(self.base_radius, bumps)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PerturbedSphere)
            and self.base_radius == other.base_radius
            and self.bumps == other.bumps
        )


def _legendre_peak(ell: int, m: int) -> float:
    """max over theta of |normalized associated Legendre| for (ell, m >= 0).

    For m = 0 this is the pole value sqrt((2*ell+1)/(4*pi)); otherwise the
    largest sample of a dense grid is polished by golden section.
    """
    if m == 0:
        return math.sqrt((2 * ell + 1) / (4.0 * math.pi))
    n = max(1024, 64 * (ell + 1))
    theta = np.linspace(0.0, math.pi, n)
    vals = np.abs(
        specfun._norm_legendre_table(ell, np.cos(theta), np.sin(theta))[ell, m]
    )
    i = int(np.argmax(vals))

    def neg_val(t: float) -> float:
        t = np.array([t])
        return -float(
            np.abs(specfun._norm_legendre_table(ell, np.cos(t), np.sin(t))[ell, m])[0]
        )

    _, f = specfun.golden_min(neg_val, theta[max(0, i - 1)], theta[min(n - 1, i + 1)])
    return -f


@dataclass(frozen=True)
class Ellipsoid(StarSurface):
    """Ellipsoid with semi-axes (a, b, c), written as the radial map
    f(direction) = (x^2/a^2 + y^2/b^2 + z^2/c^2)^(-1/2) on unit directions."""

    a: float
    b: float
    c: float

    def __post_init__(self) -> None:
        if min(self.a, self.b, self.c) <= 0:
            raise SurfaceError("all semi-axes must be > 0")

    def _q(self, theta, phi):
        st, ct = np.sin(theta), np.cos(theta)
        u, v, w = st * np.cos(phi), st * np.sin(phi), ct
        return u, v, w, u * u / self.a**2 + v * v / self.b**2 + w * w / self.c**2

    def radius(self, theta, phi):
        theta = np.asarray(theta, dtype=float)
        phi = np.asarray(phi, dtype=float)
        _, _, _, q = self._q(theta, phi)
        return q**-0.5

    def radius_dtheta(self, theta, phi):
        theta = np.asarray(theta, dtype=float)
        phi = np.asarray(phi, dtype=float)
        st, ct = np.sin(theta), np.cos(theta)
        u, v, w, q = self._q(theta, phi)
        qt = 2.0 * (
            u * ct * np.cos(phi) / self.a**2
            + v * ct * np.sin(phi) / self.b**2
            - w * st / self.c**2
        )
        return -0.5 * q**-1.5 * qt

    def radius_dphi(self, theta, phi):
        theta = np.asarray(theta, dtype=float)
        phi = np.asarray(phi, dtype=float)
        st = np.sin(theta)
        u, v, _, q = self._q(theta, phi)
        qp = 2.0 * (-u * st * np.sin(phi) / self.a**2 + v * st * np.cos(phi) / self.b**2)
        return -0.5 * q**-1.5 * qp

    def max_radius(self) -> float:
        return max(self.a, self.b, self.c)

    def descriptor(self) -> dict:
        return {"type": "ellipsoid", "semi_axes": [self.a, self.b, self.c]}


def surface_from_descriptor(d: dict) -> StarSurface:
    """Build a surface from its JSON descriptor."""
    kind = d.get("type")
    if kind == "sphere":
        return Sphere(float(d["radius"]))
    if kind == "perturbed_sphere":
        return PerturbedSphere(float(d["radius"]), [tuple(b) for b in d["bumps"]])
    if kind == "ellipsoid":
        a, b, c = d["semi_axes"]
        return Ellipsoid(float(a), float(b), float(c))
    raise SurfaceError(f"unknown surface type {kind!r}")


# --------------------------------------------------------------------------
# Surface element and normals
# --------------------------------------------------------------------------

def surface_element(surface: StarSurface, theta, phi) -> np.ndarray:
    """w = dS/d(solid angle) = f^2 / n_r, with n_r the radial component of the
    unit outward normal; equals f * sqrt(f^2 + f_theta^2 + (f_phi/sin)^2)."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    f = surface.radius(theta, phi)
    nr, _, _ = _normal_spherical_components(surface, theta, phi)
    return f * f / nr


def outward_normal(surface: StarSurface, theta, phi) -> np.ndarray:
    """Unit outward normal at boundary points f(direction)*direction, (n, 3).

    Gradient direction of F(x) = |x| - f(x/|x|); for star-shaped surfaces it
    always has a positive radial component.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    nr, nt, np_ = _normal_spherical_components(surface, theta, phi)
    st, ct = np.sin(theta), np.cos(theta)
    cp, sp = np.cos(phi), np.sin(phi)
    rhat = np.stack([st * cp, st * sp, ct], axis=-1)
    that = np.stack([ct * cp, ct * sp, -st], axis=-1)
    phat = np.stack([-sp, cp, np.zeros_like(sp)], axis=-1)
    return nr[..., None] * rhat + nt[..., None] * that + np_[..., None] * phat


def _normal_spherical_components(surface, theta, phi):
    """Outward normal in the local (r, theta, phi) orthonormal basis."""
    f = surface.radius(theta, phi)
    ft = surface.radius_dtheta(theta, phi)
    fp = surface.radius_dphi(theta, phi)
    st = np.sin(theta)
    pole = st < 1e-14
    gp = np.zeros_like(f)
    np.divide(fp, f * st, out=gp, where=~pole)
    if np.any(pole) and np.any(np.abs(np.broadcast_to(fp, pole.shape)[pole]) > 1e-12):
        raise SurfaceError("nonzero f_phi at a pole: parametrization not smooth")
    gt = ft / f
    nu = np.sqrt(1.0 + gt * gt + gp * gp)
    return 1.0 / nu, -gt / nu, -gp / nu
