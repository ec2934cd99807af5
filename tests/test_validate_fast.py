"""serialize.validate makes one jsonschema pass whose ``items`` keyword checks
bulk arrays in one typed pass derived from the schema.  It must give the same
verdict and message as plain draft-7 validation on every document."""

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

# arrays that the typed pass must accept in each schema's example document
BULK_PATHS = {
    "near_field_data": {("entries", "*", "samples")},
    "direct_solution": {("coefficients",), ("history",)},
    "oracle_reference": {("coefficients",)},
    "reconstruction": {("directions",), ("resolved",), ("harmonic_model", "coeffs")},
    "config_fieldmap": {("ray", "direction")},
    "config_invert": {("directions", "items"), ("L_schedule",), ("bracket",)},
    "config_oracle": {("alpha",)},
    "config_solve": {("alpha",), ("surface", "semi_axes")},
    "config_synthesize": {("surface", "bumps"), ("entries", "*", "alpha")},
    "surface": {("bumps",)},
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


def _oracle_doc() -> dict:
    ctx = WaveContext(1.0, Direction(0.3, 0.4))
    return serialize.oracle_to_jsonable(
        sphere_scattering_coeffs(1.0, ctx, 2, "neumann"), ctx, 1.0, "neumann"
    )


PERTURBED_SPHERE = {
    "type": "perturbed_sphere", "radius": 1.0, "bumps": [[2, 0, 0.1], [3, -1, 0.05]],
}

# rows reached through oneOf
INVERT_CONFIG = {
    "schema_version": 1,
    "directions": {"type": "list", "items": [[0.1, 0.2], [1.0, 2.0], [2.5, 4.0]]},
    "L_schedule": [3, 4],
    "bracket": [0.5, 2.0],
    "quorum": 0.8,
}

# bump rows reached through $ref and oneOf
SYNTHESIZE_CONFIG = {
    "schema_version": 1,
    "surface": PERTURBED_SPHERE,
    "R": 3.0,
    "quadrature": {"n_theta": 8, "n_phi": 16},
    "entries": [{"k": 1.0, "alpha": [0.0, 0.0]}, {"k": 1.5, "alpha": [0.4, 0.2]}],
    "delta": 0.01,
}

DOCUMENTS = {
    "near_field_data": _near_field_doc(),
    "direct_solution": _solution_doc(),
    "reconstruction": _reconstruction_doc(),
    "config_invert": INVERT_CONFIG,
    "config_synthesize": SYNTHESIZE_CONFIG,
}

# one valid document for every bundled schema
EXAMPLES = DOCUMENTS | {
    "oracle_reference": _oracle_doc(),
    "config_fieldmap": {
        "schema_version": 1,
        "solution": "solution.json",
        "ray": {"direction": [0.3, 0.2], "r_start": 1.5, "r_stop": 3.0, "n": 4},
    },
    "config_oracle": {
        "schema_version": 1, "radius": 1.0, "k": 1.0, "alpha": [0.0, 0.0], "bc": "neumann", "L": 8,
    },
    "config_solve": {
        "schema_version": 1,
        "surface": {"type": "ellipsoid", "semi_axes": [1.0, 0.8, 1.2]},
        "k": 1.0,
        "alpha": [0.3, 0.1],
        "bc": "dirichlet",
        "eps_target": 1e-4,
    },
    "surface": PERTURBED_SPHERE,
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


def _values_at(node, path):
    """The values at path below node; "*" stands for every item of a list."""
    if not path:
        return [node]
    key, rest = path[0], path[1:]
    children = node if key == "*" else [node[key]]
    return [value for child in children for value in _values_at(child, rest)]


@pytest.mark.parametrize("name", SCHEMA_NAMES)
def test_bulk_arrays_derived_from_each_schema(name, monkeypatch):
    """Every array at a BULK_PATHS path is accepted by the typed pass, not by
    jsonschema's descent per item.  A schema edit that silently turns the
    typed pass off fails here."""
    accepted = []
    rows_ok = serialize._rows_ok

    def spy(rows, width, rules):
        ok = rows_ok(rows, width, rules)
        if ok:
            accepted.append(rows)
        return ok

    monkeypatch.setattr(serialize, "_rows_ok", spy)
    doc = EXAMPLES[name]
    serialize.validate(doc, name)
    arrays = [a for path in BULK_PATHS[name] for a in _values_at(doc, path)]
    assert arrays and all(isinstance(a, list) and a for a in arrays)
    for a in arrays:
        assert any(a is b for b in accepted)
