"""Every positivity guard refuses NaN: written as ``not x > 0``, since
``x <= 0`` is false for NaN and would let it through to a later, unrelated
failure (or none at all)."""

import math

import numpy as np
import pytest

from mrcscatter import fields, specfun
from mrcscatter.direct_solver import CoefficientSet, WaveContext, mrc_solve
from mrcscatter.geometry import Direction, Ellipsoid, PerturbedSphere, Sphere, make_quadrature
from mrcscatter.inverse_solver import NearFieldData, NearFieldEntry, add_noise
from mrcscatter.sphere_oracle import sphere_scattering_coeffs

NAN = math.nan
CTX = WaveContext(1.0, Direction(0.0, 0.0))
QUAD = make_quadrature(4, 8)


CASES = {
    "WaveContext.k": (lambda: WaveContext(NAN, CTX.alpha), "wavenumber must be > 0"),
    "Direction.phi=nan": (lambda: Direction(0.5, NAN), "phi must be finite, got nan"),
    "Direction.phi=inf": (lambda: Direction(0.5, math.inf), "phi must be finite, got inf"),
    "Sphere": (lambda: Sphere(NAN), "sphere radius must be > 0"),
    "PerturbedSphere.base_radius": (lambda: PerturbedSphere(NAN, []), "base radius must be > 0"),
    "PerturbedSphere.amplitude": (
        lambda: PerturbedSphere(1.0, [(2, 0, NAN)]), "sum of bump amplitudes nan must stay below"
    ),
    # an infinite k or radius is refused here, not later as an overflow of the boundary system
    "WaveContext.k=inf": (lambda: WaveContext(math.inf, CTX.alpha), "wavenumber must be > 0"),
    "Sphere=inf": (lambda: Sphere(math.inf), "sphere radius must be > 0"),
    "PerturbedSphere.base_radius=inf": (lambda: PerturbedSphere(math.inf, []), "base radius must be > 0"),
    # a Python int beyond float range is refused by value, not as a bare OverflowError later
    "WaveContext.k=10**400": (
        lambda: WaveContext(10**400, CTX.alpha), "wavenumber must be > 0 and finite, got 1000"
    ),
    "Sphere=10**400": (lambda: Sphere(10**400), "sphere radius must be > 0 and finite, got 1000"),
    "PerturbedSphere.base_radius=10**400": (lambda: PerturbedSphere(10**400, []), "base radius must be > 0"),
    "Ellipsoid.a=10**400": (
        lambda: Ellipsoid(10**400, 1, 1), "all semi-axes must be > 0 and finite, got 1000"
    ),
    "PerturbedSphere.degree=10**400": (
        lambda: PerturbedSphere(1.0, [(10**400, 0, 0.1)]), r"bump \(1000.*beyond float range"
    ),
    "PerturbedSphere.order=10**400": (
        lambda: PerturbedSphere(1.0, [(2, 10**400, 0.1)]), r"bump \(2, 1000.*beyond float range"
    ),
    "PerturbedSphere.amplitude=10**400": (
        lambda: PerturbedSphere(1.0, [(2, 0, 10**400)]), r"bump \(2, 0, 1000.*beyond float range"
    ),
    "Direction.phi=10**400": (lambda: Direction(0.5, 10**400), "phi must be finite, got 1000"),
    # a radius whose square underflows: the boundary weight would be 0 and the residual NaN
    "Sphere=1e-170": (lambda: Sphere(1e-170), "sphere radius 1e-170 squares to 0.0"),
    "PerturbedSphere.base_radius=1e-170": (
        lambda: PerturbedSphere(1e-170, [(2, 0, 1e-171)]), "base radius 1e-170 squares to 0.0"
    ),
    "Ellipsoid.a": (lambda: Ellipsoid(NAN, 1.0, 1.0), "all semi-axes must be > 0"),
    "Ellipsoid.b": (lambda: Ellipsoid(1.0, NAN, 1.0), "all semi-axes must be > 0"),
    "Ellipsoid.c": (lambda: Ellipsoid(1.0, 1.0, NAN), "all semi-axes must be > 0"),
    "NearFieldData.R": (
        lambda: NearFieldData(R=NAN, quadrature=QUAD, entries=()), "measurement radius must be > 0"
    ),
    "NearFieldEntry.delta": (
        lambda: NearFieldEntry(ctx=CTX, samples=np.ones(len(QUAD)), delta=NAN),
        "noise level must be >= 0",
    ),
    "add_noise": (
        lambda: add_noise(NearFieldData(R=3.0, quadrature=QUAD, entries=()), NAN, seed=0),
        "noise level must be >= 0",
    ),
    "field_on_sphere.R": (
        lambda: fields.field_on_sphere(CoefficientSet(1, np.ones(4)), CTX, NAN, QUAD),
        "sphere radius must be > 0",
    ),
    "sphere_scattering_coeffs.a": (
        lambda: sphere_scattering_coeffs(NAN, CTX, 3, "dirichlet"), "sphere radius must be > 0"
    ),
    "spherical_bessel_j_table.x": (
        lambda: specfun.spherical_bessel_j_table(3, np.array([1.0, NAN])), "argument must be > 0"
    ),
    "hankel_out_table.r": (lambda: specfun.hankel_out_table(3, 1.0, NAN), "argument must be > 0"),
    "hankel_out_table.k": (lambda: specfun.hankel_out_table(3, NAN, 1.0), "wavenumber must be > 0"),
    "mrc_solve.quad_degree_factor=nan": (
        lambda: mrc_solve(Sphere(1.0), CTX, quad_degree_factor=NAN),
        "quad_degree_factor must be finite and >= 2",
    ),
    "mrc_solve.quad_degree_factor=inf": (
        lambda: mrc_solve(Sphere(1.0), CTX, L_start=1, quad_degree_factor=math.inf),
        "quad_degree_factor must be finite and >= 2",
    ),
}


@pytest.mark.parametrize("call, message", CASES.values(), ids=CASES.keys())
def test_nan_fails_the_guard(call, message):
    with pytest.raises(ValueError, match=message):
        call()
