"""Deterministic JSON serialization and schema validation.

Floats are written with 17 significant digits (exact round-trip for doubles)
and object keys are emitted sorted, so equal inputs always produce
byte-identical files.  Non-finite numbers serialize as null.  A list of finite
plain floats, or of equal-length rows of them, is written by one ``"[%.17g,...]"``
row template; any other list (ints, bools, None, non-finite values, numpy
scalars, ragged rows) by one recursion per item, which writes the same text.

``validate`` makes one jsonschema pass with draft-7's ``items`` replaced by
``_items``: a bulk array, whose item rule is a scalar rule or a fixed-length
row of them (samples, coefficient rows), is checked in one typed pass against
that rule as read from the schema file.  An array that pass does not accept
goes to jsonschema's own ``items``, so every error and its order are
jsonschema's.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
from importlib import resources

import jsonschema
import numpy as np

from .direct_solver import CoefficientSet, DirectSolution, WaveContext
from .geometry import Direction, make_quadrature
from .inverse_solver import NearFieldData, NearFieldEntry, ReconstructedSurface
from . import specfun


class SchemaError(ValueError):
    """A document failed schema validation."""


def _format_scalar(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".17g") if math.isfinite(x) else "null"
    if x is None:
        return "null"
    if isinstance(x, str):
        return json.dumps(x)
    raise TypeError(f"cannot serialize {type(x).__name__}")


def _float_rows(obj) -> str | None:
    """obj by row template if a list of finite plain floats or of equal rows of them, else None."""
    rows = obj if obj and set(map(type, obj)) == {list} else [obj]
    flat = tuple(itertools.chain.from_iterable(rows))
    if set(map(len, rows)) != {len(rows[0])} or set(map(type, flat)) != {float}:
        return None
    if not all(map(math.isfinite, flat)):
        return None
    text = ",".join(["[" + ",".join(["%.17g"] * len(rows[0])) + "]"] * len(rows)) % flat
    return "[" + text + "]" if rows is obj else text


def dumps(obj) -> str:
    """Deterministic JSON text: sorted keys, 17-significant-digit floats."""
    if isinstance(obj, dict):
        items = sorted(obj.items())
        body = ",".join(f"{json.dumps(str(k))}:{dumps(v)}" for k, v in items)
        return "{" + body + "}"
    if isinstance(obj, (list, tuple)):
        return _float_rows(obj) or "[" + ",".join(dumps(v) for v in obj) + "]"
    return _format_scalar(obj)


def dump_file(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(obj))
        fh.write("\n")


def load_schema(name: str) -> dict:
    ref = resources.files("mrcscatter") / "schemas" / f"{name}.schema.json"
    return json.loads(ref.read_text(encoding="utf-8"))


@functools.lru_cache(maxsize=None)
def _schema_registry():
    """Every bundled schema by its $id, as draft 7; built once per process
    (immutable).  Without its $schema key a $ref target is checked by the
    referring validator's class, not by the class that key names."""
    from referencing import Registry
    from referencing.jsonschema import DRAFT7

    pairs = []
    for entry in (resources.files("mrcscatter") / "schemas").iterdir():
        if entry.name.endswith(".schema.json"):
            doc = json.loads(entry.read_text(encoding="utf-8"))
            del doc["$schema"]
            pairs.append((doc["$id"], DRAFT7.create_resource(doc)))
    return Registry().with_resources(pairs)


# A value whose exact type is listed passes the rule's type; any other value is
# judged by jsonschema's own type checker
_FAST_TYPES = {"number": {float, int}, "integer": {int}, "boolean": {bool}, "null": {type(None)}}
# bound keyword -> op with op(bound, x) true when x violates it, as jsonschema compares
_BOUNDS = {"minimum": operator.gt, "exclusiveMinimum": operator.ge,
           "maximum": operator.lt, "exclusiveMaximum": operator.le}
_is_type = jsonschema.Draft7Validator.TYPE_CHECKER.is_type


def _scalar_rule(s):
    """(fast types, type names, bounds) of a scalar rule, or None."""
    if not isinstance(s, dict) or "type" not in s or not s.keys() <= {"type", *_BOUNDS}:
        return None
    names = (s["type"],) if isinstance(s["type"], str) else tuple(s["type"])
    if not all(t in _FAST_TYPES for t in names):
        return None
    bounds = tuple((op, s[key]) for key, op in _BOUNDS.items() if key in s)
    return frozenset().union(*(_FAST_TYPES[t] for t in names)), names, bounds


def _row_rules(items):
    """(width, rules) for the item rule of a bulk array: width None and one
    rule for scalar items, or n rules for rows of exactly n scalars; None for
    any other construct."""
    scalar = _scalar_rule(items)
    if scalar:
        return None, (scalar,)
    if not isinstance(items, dict) or items.keys() != {"type", "minItems", "maxItems", "items"}:
        return None
    n, each = items["minItems"], items["items"]
    if items["type"] != "array" or type(n) is not int or items["maxItems"] != n:
        return None
    rules = tuple(map(_scalar_rule, each)) if isinstance(each, list) else (_scalar_rule(each),) * n
    return (n, rules) if len(rules) == n and None not in rules else None


def _column_ok(values, rule) -> bool:
    fast, names, bounds = rule
    kinds = set(map(type, values))
    if not kinds <= fast and not all(any(_is_type(x, t) for t in names) for x in values):
        return False
    if bounds and not kinds <= {float, int}:
        values = [x for x in values if _is_type(x, "number")]  # bounds skip non-numbers
    return not any(any(map(functools.partial(op, b), values)) for op, b in bounds)


def _rows_ok(rows: list, width, rules) -> bool:
    if width is None:
        return _column_ok(rows, rules[0])
    if set(map(type, rows)) - {list} or set(map(len, rows)) - {width}:
        return False
    return all(_column_ok(col, rule) for col, rule in zip(zip(*rows), rules))


def _items(validator, items, instance, schema):
    """draft-7 ``items``, with one typed pass over a bulk array in place of a
    descent per item; jsonschema's own keyword judges any array it rejects."""
    rows = _row_rules(items)
    if not (rows and validator.is_type(instance, "array") and _rows_ok(instance, *rows)):
        yield from _DRAFT7_ITEMS(validator, items, instance, schema)


_DRAFT7_ITEMS = jsonschema.Draft7Validator.VALIDATORS["items"]
_Validator = jsonschema.validators.extend(jsonschema.Draft7Validator, {"items": _items})


@functools.lru_cache(maxsize=None)
def _validator(schema_name: str):
    """The validator of a bundled schema, built on its first use in a process."""
    return _Validator(load_schema(schema_name), registry=_schema_registry())


def validate(obj: dict, schema_name: str) -> None:
    """Raise SchemaError("<schema_name>: <message>") unless obj is valid: one
    draft-7 pass whose ``items`` checks bulk arrays in one typed pass, with the
    verdict and first error of plain draft-7 validation."""
    try:
        _validator(schema_name).validate(obj)
    except jsonschema.ValidationError as exc:
        raise SchemaError(f"{schema_name}: {exc.message}") from exc


# --------------------------------------------------------------------------
# Converters
# --------------------------------------------------------------------------

def coeffs_to_rows(coeffs: CoefficientSet) -> list[list]:
    modes = specfun.mode_list(coeffs.L)
    return [[ell, m, float(c.real), float(c.imag)] for (ell, m), c in zip(modes, coeffs.coeffs)]


def coeffs_from_rows(rows) -> CoefficientSet:
    """Coefficients from [ell, m, re, im] rows, which must list every mode of
    degree <= L exactly once; L is read off the row count."""
    if not rows:
        raise ValueError("the document has no coefficient rows")
    L = specfun.mode_from_index(len(rows) - 1).ell
    index = [specfun.mode_index(int(ell), int(m)) for ell, m, _, _ in rows]
    if sorted(index) != list(range(specfun.n_modes(L))):
        raise ValueError(f"{len(rows)} coefficient rows do not list each mode up to L={L} once")
    out = np.zeros(specfun.n_modes(L), dtype=complex)
    for i, (_, _, re, im) in zip(index, rows):
        out[i] = re + 1j * im
    return CoefficientSet(L, out)


def direction_to_pair(d: Direction) -> list[float]:
    return [d.theta, d.phi]


def _document(kind: str, bc: str | None = None, ctx: WaveContext | None = None, **body) -> dict:
    """A version-1 document of the given kind; one about a single incident wave
    (bc and ctx given) also names its boundary condition, k and alpha."""
    head = {"schema_version": 1, "kind": kind}
    if ctx is not None:
        head.update(boundary_condition=bc, k=ctx.k, alpha=direction_to_pair(ctx.alpha))
    return head | body


def solution_to_jsonable(
    sol: DirectSolution, ctx: WaveContext, surface_descriptor: dict, eps_target: float
) -> dict:
    return _document(
        "direct_solution", sol.boundary_condition, ctx,
        surface=surface_descriptor,
        eps_target=eps_target,
        converged=sol.converged,
        residual=sol.residual,
        condition=sol.condition,
        rank=sol.rank,
        history=[[L, r] for L, r in sol.history],
        L=sol.coefficients.L,
        coefficients=coeffs_to_rows(sol.coefficients),
    )


def solution_from_jsonable(doc: dict) -> tuple[CoefficientSet, WaveContext]:
    coeffs = coeffs_from_rows(doc["coefficients"])
    if coeffs.L != doc["L"]:
        raise ValueError(f"solution declares L={doc['L']} but its rows give L={coeffs.L}")
    theta, phi = doc["alpha"]
    return coeffs, WaveContext(float(doc["k"]), Direction(float(theta), float(phi)))


def near_field_to_jsonable(data: NearFieldData, provenance: dict) -> dict:
    return _document(
        "near_field_data",
        R=data.R,
        quadrature={
            "n_theta": data.quadrature.n_theta,
            "n_phi": data.quadrature.n_phi,
        },
        provenance=provenance,
        entries=[
            {
                "k": e.ctx.k,
                "alpha": direction_to_pair(e.ctx.alpha),
                "delta": e.delta,
                "samples": np.column_stack((e.samples.real, e.samples.imag)).tolist(),
            }
            for e in data.entries
        ],
    )


def near_field_from_jsonable(doc: dict) -> NearFieldData:
    quad = make_quadrature(int(doc["quadrature"]["n_theta"]), int(doc["quadrature"]["n_phi"]))
    entries = []
    for e in doc["entries"]:
        rows = e["samples"]
        re, im = np.fromiter(itertools.chain.from_iterable(rows), float, 2 * len(rows)).reshape(-1, 2).T
        entries.append(
            NearFieldEntry(
                ctx=WaveContext(float(e["k"]), Direction(*map(float, e["alpha"]))),
                samples=re + 1j * im,
                delta=float(e["delta"]),
            )
        )
    return NearFieldData(R=float(doc["R"]), quadrature=quad, entries=tuple(entries))


def reconstruction_to_jsonable(rec: ReconstructedSurface) -> dict:
    dirs = []
    for i, d in enumerate(rec.directions):
        spread = float(rec.spreads[i])
        residual = float(rec.residuals[i])
        dirs.append(
            [
                d.theta,
                d.phi,
                float(rec.radii[i]),
                residual if math.isfinite(residual) else None,
                spread if math.isfinite(spread) else None,
            ]
        )
    modes = specfun.mode_list(rec.harmonic_degree)
    model_rows = [[ell, m, float(c)] for (ell, m), c in zip(modes, rec.harmonic_coeffs)]
    return _document(
        "reconstruction",
        L_selected=rec.L_selected,
        converged=rec.converged,
        resolution_fraction=rec.resolution_fraction,
        directions=dirs,
        resolved=[bool(b) for b in rec.resolved],
        harmonic_model={"L": rec.harmonic_degree, "coeffs": model_rows},
    )


def oracle_to_jsonable(
    coeffs: CoefficientSet, ctx: WaveContext, radius: float, bc: str
) -> dict:
    return _document(
        "sphere_oracle", bc, ctx, radius=radius, L=coeffs.L, coefficients=coeffs_to_rows(coeffs)
    )
