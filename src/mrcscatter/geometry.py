"""Star-shaped surfaces r = f(direction), sphere quadrature, normals.

A surface implements ``radial_map``, the radial map with its analytic
angular partials, and everything else derives from it; nothing in the
library finite-differences a surface.  The quadrature is a tensor product of
Gauss-Legendre nodes in cos(theta) with a uniform azimuthal grid, exact for
spherical-harmonic integrands up to the declared degree.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
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
    weights sum to 4*pi.  The nodes are the grid of the n_theta polar angles
    ``theta_axis`` by the n_phi azimuths ``phi_axis``, theta-major, so node
    values reshape to (n_theta, n_phi); other node arrays are rejected.

    It owns the read-only tables of its nodes (``legendre``, ``legendre_dtheta``,
    ``azimuths``, ``vectors``), built at the first L asked for, rebuilt for a
    larger L and sliced, bitwise, for a smaller one; an escalation to
    L_max=30 leaves 3.0 to 6.1 MB of them in ``quadrature_for_degree``'s rules.
    """

    theta: np.ndarray
    phi: np.ndarray
    weights: np.ndarray
    degree: int
    n_theta: int
    n_phi: int
    _tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = self.n_theta * self.n_phi
        if not (
            self.theta.shape == self.phi.shape == self.weights.shape == (n,)
            and np.array_equal(self.theta, np.repeat(self.theta_axis, self.n_phi))
            and np.array_equal(self.phi, np.tile(self.phi_axis, self.n_theta))
        ):
            raise ValueError(f"quadrature nodes are not an {self.n_theta} x {self.n_phi} grid")

    def __len__(self) -> int:
        return self.theta.size

    @property
    def theta_axis(self) -> np.ndarray:
        return self.theta[:: self.n_phi]

    @property
    def phi_axis(self) -> np.ndarray:
        return self.phi[: self.n_phi]

    @property
    def vectors(self) -> np.ndarray:
        return self._table("vectors", 0, lambda: angles_to_vectors(self.theta, self.phi))

    def legendre(self, L: int) -> np.ndarray:
        """Pbar[ell, m] for ell, m <= L on ``theta_axis``, shape (L+1, L+1, n_theta)."""
        th = self.theta_axis
        P = self._table("P", L, lambda: specfun._norm_legendre_table(L, np.cos(th), np.sin(th)))
        return P[: L + 1, : L + 1]

    def legendre_dtheta(self, L: int) -> np.ndarray:
        dP = self._table("dP", L, lambda: specfun._norm_legendre_dtheta_table(L, self.legendre(L)))
        return dP[: L + 1, : L + 1]

    def azimuths(self, L: int) -> np.ndarray:
        """Azimuth factors of orders -L..L on ``phi_axis``, shape (2L+1, n_phi)."""
        E = self._table("E", L, lambda: specfun._azimuth_factors(L, self.phi_axis))
        return E[len(E) // 2 - L : len(E) // 2 + L + 1]

    def _table(self, name: str, L: int, build) -> np.ndarray:
        if self._tables.get(name, (-1,))[0] < L:
            self._tables[name] = (L, build())
            self._tables[name][1].flags.writeable = False
        return self._tables[name][1]

    def check_aliasing(self, L: int) -> None:
        """ValueError unless the rule is exact for products of two degree-L
        harmonics, i.e. degree >= 2L, as a degree-L transform needs."""
        if self.degree < 2 * L:
            raise ValueError(
                f"quadrature degree {self.degree} insufficient for L={L} "
                f"(needs >= {2 * L}: aliasing risk)"
            )

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


@functools.lru_cache(maxsize=128)  # L=30 escalation: 25 rules, degrees 16-75, 3.0-6.1 MB of tables
def quadrature_for_degree(degree: int) -> SphereQuadrature:
    """Smallest tensor-product rule exact up to the given harmonic degree,
    built once per degree and process (its arrays and tables are read-only)."""
    n_theta = max(2, (degree + 2) // 2)
    n_phi = max(4, degree + 1)
    quad = make_quadrature(n_theta, n_phi)
    for nodes in (quad.theta, quad.phi, quad.weights):
        nodes.flags.writeable = False
    return quad


# --------------------------------------------------------------------------
# Star-shaped surfaces
# --------------------------------------------------------------------------

class StarSurface:
    """Base class: a positive radial map f over the unit sphere.  A shape
    implements ``radial_map``; ``radius``, ``radius_dtheta`` and
    ``radius_dphi`` read its three parts.  ``axisymmetric`` is structural:
    true when the parameters make f depend on theta alone (a surface of
    revolution about z, whose boundary system splits by azimuthal order), as
    sampling f along phi cannot tell: rounding varies a spheroid's f there."""

    axisymmetric = False

    def radial_map(self, theta, phi) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(f, df/dtheta, df/dphi) at the given angles, from one evaluation."""
        raise NotImplementedError

    def radius(self, theta, phi) -> np.ndarray:
        return self.radial_map(theta, phi)[0]

    def radius_dtheta(self, theta, phi) -> np.ndarray:
        return self.radial_map(theta, phi)[1]

    def radius_dphi(self, theta, phi) -> np.ndarray:
        return self.radial_map(theta, phi)[2]

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
    axisymmetric = True

    def __post_init__(self) -> None:
        if not self.radius_value > 0:  # NaN too
            raise SurfaceError(f"sphere radius must be > 0, got {self.radius_value}")

    def radial_map(self, theta, phi):
        shape = np.broadcast(theta, phi).shape
        return np.full(shape, self.radius_value), np.zeros(shape), np.zeros(shape)

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
        if not base_radius > 0:  # NaN too
            raise SurfaceError(f"base radius must be > 0, got {base_radius}")
        bumps = tuple((int(e), int(m), float(a)) for e, m, a in bumps)
        for ell, m, _ in bumps:
            if ell < 0 or abs(m) > ell:
                raise SurfaceError(f"invalid bump mode (ell={ell}, m={m})")
        total = sum(abs(a) for _, _, a in bumps)
        if not total < base_radius:  # a NaN amplitude too
            raise SurfaceError(
                f"sum of bump amplitudes {total} must stay below the base radius "
                f"{base_radius} to keep the radial map positive"
            )
        self.base_radius = float(base_radius)
        self.bumps = bumps
        self._scales = tuple(
            _legendre_peak(ell, abs(m)) for ell, m, _ in bumps
        )
        self.axisymmetric = all(m == 0 for _, m, _ in bumps)

    def radial_map(self, theta, phi):
        # the Legendre tables take 1-D angles: evaluate on the raveled broadcast
        theta, phi = np.broadcast_arrays(
            np.atleast_1d(np.asarray(theta, dtype=float)), np.asarray(phi, dtype=float)
        )
        shape, theta, phi = theta.shape, theta.ravel(), phi.ravel()
        ct, st = np.cos(theta), np.sin(theta)
        f, ft, fp = np.zeros((3, theta.size))
        for (ell, m, amp), peak in zip(self.bumps, self._scales):
            P = specfun._norm_legendre_table(ell, ct, st)
            mm = abs(m)
            rad = P[ell, mm]
            rad_t = specfun._norm_legendre_dtheta_table(ell, P)[ell, mm]
            cos, sin = np.cos(mm * phi), np.sin(mm * phi)
            az, az_p = (sin, mm * cos) if m < 0 else (cos, -mm * sin)
            f = f + (amp / peak) * rad * az
            ft = ft + (amp / peak) * rad_t * az
            fp = fp + (amp / peak) * rad * az_p
        # the base radius is added after the bumps: test_radial_map pins this rounding
        return (self.base_radius + f).reshape(shape), ft.reshape(shape), fp.reshape(shape)

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

    def neg_val(t: np.ndarray) -> np.ndarray:
        return -np.abs(specfun._norm_legendre_table(ell, np.cos(t), np.sin(t))[ell, m])

    _, f = specfun.golden_min(neg_val, theta[[max(0, i - 1)]], theta[[min(n - 1, i + 1)]])
    return -float(f[0])


@dataclass(frozen=True)
class Ellipsoid(StarSurface):
    """Ellipsoid with semi-axes (a, b, c), written as the radial map
    f(direction) = (x^2/a^2 + y^2/b^2 + z^2/c^2)^(-1/2) on unit directions."""

    a: float
    b: float
    c: float
    axisymmetric = property(lambda self: self.a == self.b)

    def __post_init__(self) -> None:
        if not all(s > 0 for s in (self.a, self.b, self.c)):  # NaN too
            raise SurfaceError("all semi-axes must be > 0")

    def radial_map(self, theta, phi):
        st, ct = np.sin(theta), np.cos(theta)
        sp, cp = np.sin(phi), np.cos(phi)
        u, v, w = st * cp, st * sp, ct
        q = u * u / self.a**2 + v * v / self.b**2 + w * w / self.c**2
        qt = 2.0 * (u * ct * cp / self.a**2 + v * ct * sp / self.b**2 - w * st / self.c**2)
        qp = 2.0 * (-u * st * sp / self.a**2 + v * st * cp / self.b**2)
        dq = -0.5 * q**-1.5
        return q**-0.5, dq * qt, dq * qp

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
    return _normal_vectors(theta, phi, *_normal_spherical_components(surface, theta, phi))


def _normal_vectors(theta, phi, nr, nt, np_) -> np.ndarray:
    """Cartesian vectors, (n, 3), from (r, theta, phi) components at the angles."""
    st, ct = np.sin(theta), np.cos(theta)
    cp, sp = np.cos(phi), np.sin(phi)
    rhat = np.stack([st * cp, st * sp, ct], axis=-1)
    that = np.stack([ct * cp, ct * sp, -st], axis=-1)
    phat = np.stack([-sp, cp, np.zeros_like(sp)], axis=-1)
    return nr[..., None] * rhat + nt[..., None] * that + np_[..., None] * phat


def _normal_spherical_components(surface, theta, phi):
    """Outward normal in the local (r, theta, phi) orthonormal basis."""
    return _normal_from_map(theta, *surface.radial_map(theta, phi))


def _normal_from_map(theta, f, ft, fp):
    """_normal_spherical_components from the radial map's values at theta."""
    st = np.sin(theta)
    pole = st < 1e-14
    gp = np.zeros_like(f)
    np.divide(fp, f * st, out=gp, where=~pole)
    if np.any(pole) and np.any(np.abs(np.broadcast_to(fp, pole.shape)[pole]) > 1e-12):
        raise SurfaceError("nonzero f_phi at a pole: parametrization not smooth")
    gt = ft / f
    nu = np.sqrt(1.0 + gt * gt + gp * gp)
    return 1.0 / nu, -gt / nu, -gp / nu
