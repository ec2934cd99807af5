"""Deterministic JSON emission, converters, schema validation."""

import json
import math

import numpy as np
import pytest

from mrcscatter import fields, serialize
from mrcscatter.direct_solver import CoefficientSet, DirectSolution, WaveContext
from mrcscatter.geometry import Direction, Sphere, make_quadrature
from mrcscatter.inverse_solver import NearFieldData, NearFieldEntry
from mrcscatter.sphere_oracle import sphere_scattering_coeffs


class TestDumps:
    def test_keys_sorted_and_floats_17g(self):
        text = serialize.dumps({"b": 0.1, "a": 1})
        assert text == '{"a":1,"b":0.10000000000000001}'

    def test_float_round_trip_is_exact(self):
        values = [0.1 + 0.2, 1e-300, math.pi, 6.5089418141556839e-09, -0.0]
        parsed = json.loads(serialize.dumps(values))
        for orig, back in zip(values, parsed):
            assert back == orig

    def test_nan_and_inf_become_null(self):
        assert serialize.dumps([float("nan"), float("inf")]) == "[null,null]"

    def test_equal_inputs_equal_bytes(self):
        doc = {"x": [1.5, 2, "s"], "y": {"k": True, "a": None}}
        assert serialize.dumps(doc) == serialize.dumps(json.loads(json.dumps(doc)))

    def test_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            serialize.dumps({"x": object()})


class TestConverters:
    def test_coefficient_rows_round_trip(self):
        rng = np.random.default_rng(2)
        c = CoefficientSet(3, rng.standard_normal(16) + 1j * rng.standard_normal(16))
        back = serialize.coeffs_from_rows(serialize.coeffs_to_rows(c))
        assert back.L == 3
        np.testing.assert_array_equal(back.coeffs, c.coeffs)

    def test_solution_document_validates_and_round_trips(self):
        ctx = WaveContext(1.0, Direction(0.3, 0.4))
        c = sphere_scattering_coeffs(1.0, ctx, 4, "dirichlet")
        sol = DirectSolution(
            coefficients=c,
            residual=1e-9,
            boundary_condition="dirichlet",
            converged=True,
            condition=12.5,
            rank=25,
            history=[(3, 1e-7), (4, 1e-9)],
        )
        doc = serialize.solution_to_jsonable(sol, ctx, Sphere(1.0).descriptor(), 1e-8)
        serialize.validate(doc, "direct_solution")
        c2, ctx2 = serialize.solution_from_jsonable(json.loads(serialize.dumps(doc)))
        np.testing.assert_array_equal(c2.coeffs, c.coeffs)
        assert ctx2.k == ctx.k and ctx2.alpha == ctx.alpha

    def test_near_field_document_round_trips(self):
        quad = make_quadrature(8, 16)
        ctx = WaveContext(1.0, Direction(0.0, 0.0))
        c = sphere_scattering_coeffs(1.0, ctx, 6, "dirichlet")
        data = NearFieldData(
            R=3.0,
            quadrature=quad,
            entries=(
                NearFieldEntry(ctx=ctx, samples=fields.field_on_sphere(c, ctx, 3.0, quad)),
            ),
        )
        doc = serialize.near_field_to_jsonable(data, provenance={"seed": 0})
        serialize.validate(doc, "near_field_data")
        back = serialize.near_field_from_jsonable(json.loads(serialize.dumps(doc)))
        assert back.R == data.R
        np.testing.assert_array_equal(back.entries[0].samples, data.entries[0].samples)
        np.testing.assert_allclose(back.quadrature.weights, quad.weights, rtol=0, atol=0)

    def test_schema_registry_is_built_once(self):
        assert serialize._schema_registry() is serialize._schema_registry()

    def test_validation_failure_raises(self):
        with pytest.raises(serialize.SchemaError):
            serialize.validate({"schema_version": 1}, "direct_solution")


def test_validate_reads_each_schema_file_once(monkeypatch):
    reads, load = [], serialize.load_schema

    def counted(name):
        reads.append(name)
        return load(name)

    monkeypatch.setattr(serialize, "load_schema", counted)
    serialize._validator.cache_clear()
    try:
        errors = []
        for _ in range(2):
            with pytest.raises(serialize.SchemaError) as exc:
                serialize.validate({"schema_version": 1}, "direct_solution")
            errors.append(str(exc.value))
    finally:
        serialize._validator.cache_clear()
    assert reads == ["direct_solution"]
    assert errors[0] == errors[1]
    # load_schema still hands out a fresh dict
    assert load("direct_solution") is not load("direct_solution")
