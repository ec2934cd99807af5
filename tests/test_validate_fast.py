"""serialize.validate checks a document's header with jsonschema and its bulk
rows in one typed pass derived from the schema.  It must give the same verdict
and message as full jsonschema validation on every document."""

import copy
import json
from fractions import Fraction
from importlib import resources

import jsonschema
import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from mrcscatter import serialize
from mrcscatter.direct_solver import DirectSolution, WaveContext
from mrcscatter.geometry import Direction, Sphere, fibonacci_directions, make_quadrature
from mrcscatter.inverse_solver import NearFieldData, NearFieldEntry, ReconstructedSurface
from mrcscatter.sphere_oracle import sphere_scattering_coeffs

SCHEMA_NAMES = sorted(
    entry.name.removesuffix(".schema.json")
    for entry in (resources.files("mrcscatter") / "schemas").iterdir()
    if entry.name.endswith(".schema.json")
)

BULK_PATHS = {
    "near_field_data": {("entries", "*", "samples")},
    "direct_solution": {("coefficients",), ("history",)},
    "oracle_reference": {("coefficients",)},
    "reconstruction": {("directions",), ("resolved",), ("harmonic_model", "coeffs")},
}


def _near_field_doc() -> dict:
    rng = np.random.default_rng(5)
    quad = make_quadrature(2, 4)
    entries = tuple(
        NearFieldEntry(
            ctx=WaveContext(k, Direction(0.4, 0.2)),
            samples=rng.standard_normal(len(quad)) + 1j * rng.standard_normal(len(quad)),
            delta=0.01,
        )
        for k in (1.0, 1.5)
    )
    data = NearFieldData(R=3.0, quadrature=quad, entries=entries)
    return serialize.near_field_to_jsonable(data, {"seed": 3, "bc": "dirichlet"})


def _solution_doc() -> dict:
    ctx = WaveContext(1.0, Direction(0.3, 0.4))
    sol = DirectSolution(
        coefficients=sphere_scattering_coeffs(1.0, ctx, 2, "dirichlet"),
        residual=1e-9,
        boundary_condition="dirichlet",
        converged=True,
        condition=12.5,
        rank=9,
        history=[(1, 1e-5), (2, 1e-9)],
    )
    return serialize.solution_to_jsonable(sol, ctx, Sphere(1.0).descriptor(), 1e-8)


def _reconstruction_doc() -> dict:
    n = 4
    rec = ReconstructedSurface(
        directions=fibonacci_directions(n),
        radii=np.array([1.0, 1.1, 0.9, 1.05]),
        residuals=np.array([1e-3, np.nan, 2e-3, 5e-4]),
        spreads=np.array([0.01, np.nan, 0.02, 0.0]),
        resolved=np.array([True, False, True, True]),
        L_selected=3,
        converged=True,
        harmonic_degree=1,
        harmonic_coeffs=np.array([3.5, 0.1, -0.2, 0.05]),
        resolution_fraction=0.75,
    )
    return serialize.reconstruction_to_jsonable(rec)


DOCUMENTS = {
    "near_field_data": _near_field_doc(),
    "direct_solution": _solution_doc(),
    "reconstruction": _reconstruction_doc(),
}

# replacement values: numbers at and below the bounds the schemas set; wrong
# JSON types, nested and empty lists; Python numbers that are not JSON floats
AT_BOUNDS = [0, 0.0, -0.0, -1, -1.0, Fraction(-1, 2)]
OTHER_VALUES = [
    True, False, "x", None, [1.0], [[1.0, 2.0]], [], {}, (1.0, 2.0),
    2.5, 3.0, 7, 1e300, float("nan"), np.float64(0.5), np.int64(2),
]
VALUES = st.one_of(st.sampled_from(AT_BOUNDS), st.sampled_from(OTHER_VALUES))


def _locations(node, out):
    """Every (container, key) pair below node."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in list(items):
        out.append((node, key))
        if isinstance(value, (dict, list)):
            _locations(value, out)
    return out


def _mutate(doc, data):
    """Apply one to three mutations: replace a value (a scalar half of the
    time, so that most mutations land in the bulk rows), delete a key or row
    element, or add a key or row element."""
    for _ in range(data.draw(st.sampled_from([1, 1, 1, 2, 3]))):
        locs = _locations(doc, [])
        if data.draw(st.booleans()):
            locs = [(p, k) for p, k in locs if not isinstance(p[k], (dict, list))]
        parent, key = data.draw(st.sampled_from(locs))
        op = data.draw(st.sampled_from(["replace", "replace", "replace", "delete", "add"]))
        if op == "replace":
            parent[key] = copy.deepcopy(data.draw(VALUES))
        elif op == "delete":
            del parent[key]
        elif isinstance(parent[key], dict):
            parent[key]["extra"] = 1.0
        elif isinstance(parent[key], list):
            parent[key].append(copy.deepcopy(parent[key][0]) if parent[key] else 1.0)
        else:
            parent[key] = [parent[key]]


def _full_error(doc, name):
    validator = jsonschema.Draft7Validator(
        serialize.load_schema(name), registry=serialize._schema_registry()
    )
    try:
        validator.validate(doc)
    except jsonschema.ValidationError as exc:
        return f"{name}: {exc.message}"
    return None


def _fast_error(doc, name):
    try:
        serialize.validate(doc, name)
    except serialize.SchemaError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_same_verdict_and_message_as_full_validation(name, data):
    doc = copy.deepcopy(DOCUMENTS[name])
    _mutate(doc, data)
    before = repr(doc)
    expected = _full_error(doc, name)
    event("rejected" if expected else "accepted")
    assert _fast_error(doc, name) == expected
    assert repr(doc) == before  # validate leaves the document untouched


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_converter_output_is_valid_on_both_paths(name):
    doc = json.loads(serialize.dumps(DOCUMENTS[name]))
    assert _fast_error(doc, name) is None
    assert _full_error(doc, name) is None


@pytest.mark.parametrize("name", SCHEMA_NAMES)
def test_bundled_schema_is_a_valid_draft7_schema(name):
    jsonschema.Draft7Validator.check_schema(serialize.load_schema(name))


@pytest.mark.parametrize("name", SCHEMA_NAMES)
def test_bulk_arrays_derived_from_each_schema(name):
    """A schema edit that silently turns the row pass off fails here."""
    paths = {path for path, _, _ in serialize._bulk_arrays(name)}
    assert paths == BULK_PATHS.get(name, set())
