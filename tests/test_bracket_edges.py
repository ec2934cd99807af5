"""Unresolved directions whose least |p| sits at an end of the bracket.

A bracket that misses the boundary leaves |p| falling towards one of its ends,
so the grid has no interior minimum there and the direction goes unresolved.
``stable_reconstruct`` counts those directions at the selected degree in one
warning that names the bracket, instead of filling them without a word.
"""

import logging
import math

import pytest

from mrcscatter import fields
from mrcscatter.direct_solver import WaveContext
from mrcscatter.geometry import Direction, fibonacci_directions, make_quadrature
from mrcscatter.inverse_solver import NearFieldData, NearFieldEntry, stable_reconstruct
from mrcscatter.sphere_oracle import sphere_scattering_coeffs

PAIRS = ((1.0, Direction(0.0, 0.0)), (1.5, Direction(math.pi / 2, 0.0)))


def unit_sphere_data(R=3.0):
    quad = make_quadrature(24, 48)
    entries = []
    for k, alpha in PAIRS:
        ctx = WaveContext(k, alpha)
        c = sphere_scattering_coeffs(1.0, ctx, 20, "dirichlet")
        entries.append(NearFieldEntry(ctx=ctx, samples=fields.field_on_sphere(c, ctx, R, quad)))
    return NearFieldData(R=R, quadrature=quad, entries=tuple(entries))


def edge_warnings(caplog):
    return [rec.getMessage() for rec in caplog.records
            if rec.levelno == logging.WARNING and "end of the bracket" in rec.getMessage()]


def test_a_bracket_beyond_the_boundary_is_named(caplog):
    with caplog.at_level(logging.WARNING, logger="mrcscatter.inverse_solver"):
        rec = stable_reconstruct(unit_sphere_data(), fibonacci_directions(30), bracket=(1.2, 2.5))
    assert rec.resolution_fraction == 0.0
    (message,) = edge_warnings(caplog)
    assert message.startswith("30 of 30 unresolved directions at L=3 ")
    assert "(1.2, 2.5)" in message


@pytest.mark.parametrize("bracket", [None, (0.3, 2.5)])
def test_a_bracket_around_the_boundary_logs_no_such_line(bracket, caplog):
    with caplog.at_level(logging.WARNING, logger="mrcscatter.inverse_solver"):
        rec = stable_reconstruct(unit_sphere_data(), fibonacci_directions(30), bracket=bracket)
    assert rec.resolution_fraction == 1.0
    assert edge_warnings(caplog) == []
