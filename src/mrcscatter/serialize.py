"""Deterministic JSON serialization and schema validation.

Floats are written with 17 significant digits (exact round-trip for doubles)
and object keys are emitted sorted, so equal inputs always produce
byte-identical files.  Non-finite numbers serialize as null.
"""

from __future__ import annotations

import functools
import json
import math
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
        x = float(x)
        if not math.isfinite(x):
            return "null"
        return format(x, ".17g")
    if x is None:
        return "null"
    if isinstance(x, str):
        return json.dumps(x)
    raise TypeError(f"cannot serialize {type(x).__name__}")


def dumps(obj) -> str:
    """Deterministic JSON text: sorted keys, 17-significant-digit floats."""
    if isinstance(obj, dict):
        items = sorted(obj.items())
        body = ",".join(f"{json.dumps(str(k))}:{dumps(v)}" for k, v in items)
        return "{" + body + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(dumps(v) for v in obj) + "]"
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
    """Every bundled schema by its $id; built once per process (immutable)."""
    from referencing import Registry, Resource

    pairs = []
    for entry in (resources.files("mrcscatter") / "schemas").iterdir():
        if entry.name.endswith(".schema.json"):
            doc = json.loads(entry.read_text(encoding="utf-8"))
            pairs.append((doc["$id"], Resource.from_contents(doc)))
    return Registry().with_resources(pairs)


def validate(obj: dict, schema_name: str) -> None:
    validator = jsonschema.Draft7Validator(load_schema(schema_name), registry=_schema_registry())
    try:
        validator.validate(obj)
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


def solution_to_jsonable(
    sol: DirectSolution, ctx: WaveContext, surface_descriptor: dict, eps_target: float
) -> dict:
    return {
        "schema_version": 1,
        "kind": "direct_solution",
        "boundary_condition": sol.boundary_condition,
        "k": ctx.k,
        "alpha": direction_to_pair(ctx.alpha),
        "surface": surface_descriptor,
        "eps_target": eps_target,
        "converged": sol.converged,
        "residual": sol.residual,
        "condition": sol.condition,
        "rank": sol.rank,
        "history": [[L, r] for L, r in sol.history],
        "L": sol.coefficients.L,
        "coefficients": coeffs_to_rows(sol.coefficients),
    }


def solution_from_jsonable(doc: dict) -> tuple[CoefficientSet, WaveContext]:
    coeffs = coeffs_from_rows(doc["coefficients"])
    if coeffs.L != doc["L"]:
        raise ValueError(f"solution declares L={doc['L']} but its rows give L={coeffs.L}")
    theta, phi = doc["alpha"]
    return coeffs, WaveContext(float(doc["k"]), Direction(float(theta), float(phi)))


def near_field_to_jsonable(data: NearFieldData, provenance: dict) -> dict:
    return {
        "schema_version": 1,
        "kind": "near_field_data",
        "R": data.R,
        "quadrature": {
            "n_theta": data.quadrature.n_theta,
            "n_phi": data.quadrature.n_phi,
        },
        "provenance": provenance,
        "entries": [
            {
                "k": e.ctx.k,
                "alpha": direction_to_pair(e.ctx.alpha),
                "delta": e.delta,
                "samples": [[float(v.real), float(v.imag)] for v in e.samples],
            }
            for e in data.entries
        ],
    }


def near_field_from_jsonable(doc: dict) -> NearFieldData:
    quad = make_quadrature(int(doc["quadrature"]["n_theta"]), int(doc["quadrature"]["n_phi"]))
    entries = []
    for e in doc["entries"]:
        theta, phi = e["alpha"]
        samples = np.array([re + 1j * im for re, im in e["samples"]])
        entries.append(
            NearFieldEntry(
                ctx=WaveContext(float(e["k"]), Direction(float(theta), float(phi))),
                samples=samples,
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
    return {
        "schema_version": 1,
        "kind": "reconstruction",
        "L_selected": rec.L_selected,
        "converged": rec.converged,
        "resolution_fraction": rec.resolution_fraction,
        "directions": dirs,
        "resolved": [bool(b) for b in rec.resolved],
        "harmonic_model": {"L": rec.harmonic_degree, "coeffs": model_rows},
    }


def oracle_to_jsonable(
    coeffs: CoefficientSet, ctx: WaveContext, radius: float, bc: str
) -> dict:
    return {
        "schema_version": 1,
        "kind": "sphere_oracle",
        "boundary_condition": bc,
        "k": ctx.k,
        "alpha": direction_to_pair(ctx.alpha),
        "radius": radius,
        "L": coeffs.L,
        "coefficients": coeffs_to_rows(coeffs),
    }
