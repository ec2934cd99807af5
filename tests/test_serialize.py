"""Deterministic JSON emission, converters, schema validation."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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


def reference_dumps(obj) -> str:
    """One recursion per value: sorted keys, format(x, ".17g") floats, null for non-finite."""
    if isinstance(obj, dict):
        return "{" + ",".join(f"{json.dumps(str(k))}:{reference_dumps(v)}" for k, v in sorted(obj.items())) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(map(reference_dumps, obj)) + "]"
    if obj is None or isinstance(obj, bool):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    return format(float(obj), ".17g") if math.isfinite(obj) else "null"


FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1e308, -1e308])
OTHER = st.sampled_from([None, math.nan, math.inf, -math.inf, True, False]) | st.integers() | FINITE.map(np.float64)
SCALAR = FINITE | OTHER


def rows_of(item):
    return st.integers(1, 4).flatmap(lambda n: st.lists(st.lists(item, min_size=n, max_size=n), max_size=6))


LEAF = (SCALAR | st.text(max_size=3) | st.lists(FINITE, max_size=6) | st.lists(SCALAR, max_size=6)
        | rows_of(FINITE) | rows_of(SCALAR) | st.lists(st.lists(FINITE, max_size=3), max_size=6)
        | st.lists(st.lists(SCALAR, max_size=4), max_size=6))
DOCUMENTS = st.recursive(
    LEAF, lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(doc=DOCUMENTS)
def test_dumps_matches_the_reference_byte_for_byte(doc):
    assert serialize.dumps(doc) == reference_dumps(doc)


def bits(values) -> list[int]:
    return np.asarray(values, dtype=complex).view(np.uint64).tolist()


# a 2 x 4 quadrature: 8 samples per entry
N_SAMPLES = len(make_quadrature(2, 4))
# what json.loads gives for a sample row: ints where the text had no point
SAMPLE = FINITE | st.integers(-(2**53), 2**53)


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.tuples(SAMPLE, SAMPLE).map(list), min_size=N_SAMPLES, max_size=N_SAMPLES))
def test_samples_read_bitwise_as_one_complex_per_row(rows):
    doc = {"R": 3.0, "quadrature": {"n_theta": 2, "n_phi": 4},
           "entries": [{"k": 1.0, "alpha": [0.0, 0.0], "delta": 0.0, "samples": rows}]}
    samples = serialize.near_field_from_jsonable(doc).entries[0].samples
    assert bits(samples) == bits([re + 1j * im for re, im in rows])


@settings(max_examples=200, deadline=None)
@given(parts=st.lists(st.tuples(FINITE, FINITE), min_size=N_SAMPLES, max_size=N_SAMPLES))
def test_samples_written_bitwise_as_one_float_pair_per_sample(parts):
    samples = np.array([complex(re, im) for re, im in parts], dtype=complex)
    data = NearFieldData(R=3.0, quadrature=make_quadrature(2, 4),
                         entries=(NearFieldEntry(ctx=WaveContext(1.0, Direction(0.0, 0.0)), samples=samples),))
    rows = serialize.near_field_to_jsonable(data, {})["entries"][0]["samples"]
    reference = [[float(v.real), float(v.imag)] for v in samples]
    assert {type(x) for row in rows for x in row} <= {float}
    assert bits([complex(*r) for r in rows]) == bits([complex(*r) for r in reference])


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
