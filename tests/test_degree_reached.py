"""A reconstruction pays only for what it reads.

The direction table of ``stable_reconstruct`` is built at the first scheduled
degree and rebuilt once at the top degree only if the schedule escalates, and
the harmonic model reads the value rows alone.  Harmonic tables on zero nodes
are empty, and a model of the wrong length is named.
"""

import numpy as np
import pytest

from mrcscatter import fields, geometry, inverse_solver, specfun as sf
from mrcscatter.direct_solver import CoefficientSet, WaveContext
from mrcscatter.geometry import Direction, fibonacci_directions
from test_inverse_solver import sphere_data

EMPTY = np.zeros(0)
COEFFS = CoefficientSet(3, np.linspace(1.0, 2.0, 16) + 0.5j)
CTX = WaveContext(1.0, Direction(0.3, 0.2))
BUMPY = geometry.PerturbedSphere(1.0, [(2, 1, 0.1), (3, -2, 0.05)])

ZERO_NODES = {
    "sph_harm_table": (lambda: sf.sph_harm_table(3, EMPTY, EMPTY), (0, 16)),
    "sph_harm_dtheta_table": (lambda: sf.sph_harm_dtheta_table(3, EMPTY, EMPTY), (0, 16)),
    "sph_harm_dphi_over_sin_table": (
        lambda: sf.sph_harm_dphi_over_sin_table(3, EMPTY, EMPTY), (0, 16)),
    "far_field_amplitude": (lambda: fields.far_field_amplitude(COEFFS, EMPTY, EMPTY), (0,)),
    "scattered_field": (lambda: fields.scattered_field(COEFFS, CTX, np.zeros((0, 3))), (0,)),
    "total_field": (lambda: fields.total_field(COEFFS, CTX, np.zeros((0, 3))), (0,)),
    "PerturbedSphere.radius": (lambda: BUMPY.radius(EMPTY, EMPTY), (0,)),
    "surface_element": (lambda: geometry.surface_element(BUMPY, EMPTY, EMPTY), (0,)),
    "outward_normal": (lambda: geometry.outward_normal(BUMPY, EMPTY, EMPTY), (0, 3)),
    "evaluate_harmonic_model": (
        lambda: inverse_solver.evaluate_harmonic_model(np.ones(16), 3, []), (0,)),
}


@pytest.mark.parametrize("name", ZERO_NODES)
def test_zero_nodes_give_an_empty_result(name):
    call, shape = ZERO_NODES[name]
    assert np.shape(call()) == shape


def test_a_model_of_the_wrong_length_is_named():
    dirs = fibonacci_directions(5)
    with pytest.raises(ValueError, match="degree-3 model has 16 coefficients, got 15"):
        inverse_solver.evaluate_harmonic_model(np.ones(15), 3, dirs)


def _record_degrees(monkeypatch):
    degrees, table = [], sf.sph_harm_table

    def recorded(L, theta, phi):
        degrees.append(L)
        return table(L, theta, phi)

    monkeypatch.setattr(sf, "sph_harm_table", recorded)
    return degrees


def test_a_one_step_reconstruction_builds_its_table_at_the_first_degree(monkeypatch):
    data, dirs = sphere_data(), fibonacci_directions(20)
    degrees = _record_degrees(monkeypatch)
    rec = inverse_solver.stable_reconstruct(data, dirs, L_schedule=(3, 4, 5, 6, 8, 10))
    assert rec.L_selected == 3 and degrees == [3]


def test_an_escalation_rebuilds_the_table_once_at_the_top_degree(monkeypatch):
    data, dirs = sphere_data(), fibonacci_directions(10)
    degrees = _record_degrees(monkeypatch)
    rec = inverse_solver.stable_reconstruct(
        data, dirs, L_schedule=(3, 4, 5, 6, 8, 10), stability_tol=1e-4)
    assert rec.L_selected > 3 and degrees == [3, 10]


def test_the_harmonic_model_reads_values_only(monkeypatch):
    def refused(*args):
        raise AssertionError("the model read a theta-derivative table")

    monkeypatch.setattr(sf, "_norm_legendre_dtheta_table", refused)
    dirs = fibonacci_directions(40)
    coeffs = np.linspace(0.1, 1.0, 25)
    radii = inverse_solver.evaluate_harmonic_model(coeffs, 4, dirs)
    fit = inverse_solver._fit_harmonic_model(dirs, radii, np.ones(40, dtype=bool), 4)
    np.testing.assert_allclose(fit, coeffs, rtol=0, atol=1e-12)
