"""Command-line front end.

Subcommands: solve (direct problem), synthesize (near-field data generation),
invert (shape reconstruction), oracle (exact sphere reference), fieldmap
(field samples along a ray to CSV).  All outputs are deterministic given the
configuration and seed; set MRC_LOG=DEBUG|INFO|WARNING for verbosity.
synthesize solves the entries of one wavenumber by one escalation
(``direct_solver.solve_entries``) and writes them in configuration order.

The loader refuses ``NaN``, ``Infinity``, float literals that overflow (``1e999``)
and integers beyond float range, with exit 1 and an error naming file and literal.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import itertools
import json
import logging
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import fields, inverse_solver, serialize, sphere_oracle
from .direct_solver import WaveContext, solve_entries
from .geometry import (
    Direction,
    SurfaceError,
    fibonacci_directions,
    make_quadrature,
    surface_from_descriptor,
)

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNCONVERGED = 2


class CliError(Exception):
    """Fatal configuration or input error (exit code 1)."""


def _setup_logging() -> None:
    level = os.environ.get("MRC_LOG", "WARNING").upper()
    logging.basicConfig(
        level=getattr(logging, level, logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
    )


def _finite(literal: str) -> float:
    if not np.isfinite(value := float(literal)):
        raise ValueError(f"{literal} is not a finite number")
    return value


def _numbers_finite(node) -> bool:
    """False if node holds a non-finite float or an int beyond float range."""
    if isinstance(node, dict):
        return all(map(_numbers_finite, node.values()))
    if isinstance(node, list):
        with contextlib.suppress(TypeError, ValueError, OverflowError):  # numbers or rows of them
            items = itertools.chain.from_iterable(node) if set(map(type, node)) == {list} else node
            if np.isfinite(np.fromiter(items, float)).all():  # null reads as NaN: not taken here
                return True
        return all(map(_numbers_finite, node))  # non-finite, null, strings, objects, big ints
    try:
        return not isinstance(node, (int, float)) or math.isfinite(node)
    except OverflowError:  # an int beyond float range
        return False


def _load_document(path, schema: str) -> dict:
    """Read a JSON file and validate it against the named schema."""
    p = Path(path)
    if not p.is_file():
        raise CliError(f"file not found: {path}")
    text = p.read_text(encoding="utf-8")
    what = " is not valid JSON"
    try:
        doc = json.loads(text, parse_constant=_finite)  # NaN and Infinity are no JSON
        if not _numbers_finite(doc):  # 1e999 and huge ints are, and draft-7 passes them
            what = ": number out of range"  # parse again, only to name the literal
            json.loads(text, parse_float=_finite, parse_int=_finite)
    except ValueError as exc:
        raise CliError(f"{path}{what}: {exc}") from exc
    try:
        serialize.validate(doc, schema)
    except serialize.SchemaError as exc:
        raise CliError(str(exc)) from exc
    return doc


def _surface(cfg: dict):
    try:
        return surface_from_descriptor(cfg["surface"])
    except SurfaceError as exc:
        raise CliError(f"invalid surface: {exc}") from exc


def _context(k: float, alpha_pair) -> WaveContext:
    theta, phi = alpha_pair
    return WaveContext(float(k), Direction(float(theta), float(phi)))


def _out_dir(path: str) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_csv(path: Path, header: list[str], rows) -> None:
    """CSV of numbers at 17 significant digits (exact round trip)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([format(float(x), ".17g") for x in row] for row in rows)


# escalation settings a configuration may set; solve_entries holds their defaults
_ESCALATION_KEYS = ("L_start", "L_max", "quad_degree_factor", "svd_cutoff")


def _solve(surface, contexts: list[WaveContext], bc: str, eps_target: float, opts: dict):
    """One solution per context, in order, by one escalation per wavenumber."""
    settings = {key: opts[key] for key in _ESCALATION_KEYS if key in opts}
    sols = [None] * len(contexts)
    for k in dict.fromkeys(ctx.k for ctx in contexts):
        group = [i for i, ctx in enumerate(contexts) if ctx.k == k]
        for i, sol in zip(group, solve_entries(surface, [contexts[i] for i in group], bc, eps_target, **settings)):
            sols[i] = sol
    return sols


def cmd_solve(args) -> int:
    cfg = _load_document(args.config, "config_solve")
    surface = _surface(cfg)
    ctx = _context(cfg["k"], cfg["alpha"])
    (sol,) = _solve(surface, [ctx], cfg["bc"], cfg["eps_target"], cfg)
    out = _out_dir(args.out)
    doc = serialize.solution_to_jsonable(sol, ctx, surface.descriptor(), cfg["eps_target"])
    serialize.validate(doc, "direct_solution")
    serialize.dump_file(out / "solution.json", doc)
    logger.info(
        "solve: L=%d residual=%.3e converged=%s", sol.coefficients.L, sol.residual, sol.converged
    )
    return EXIT_OK if sol.converged else EXIT_UNCONVERGED


def cmd_synthesize(args) -> int:
    cfg = _load_document(args.config, "config_synthesize")
    surface = _surface(cfg)
    R = float(cfg["R"])
    if not R > surface.max_radius():  # NaN too
        raise CliError(
            f"measurement radius {R} must enclose the obstacle "
            f"(max radius {surface.max_radius()})"
        )
    qcfg = cfg.get("quadrature", {"n_theta": 24, "n_phi": 48})
    quad = make_quadrature(qcfg["n_theta"], qcfg["n_phi"])
    fw = cfg.get("forward", {})
    bc = cfg.get("bc", "dirichlet")
    fw_eps = fw.get("eps_target", 1e-8)
    contexts = [_context(e["k"], e["alpha"]) for e in cfg["entries"]]
    sols = list(zip(contexts, _solve(surface, contexts, bc, fw_eps, fw)))
    entries = []
    all_converged = True
    for ctx, sol in sols:
        all_converged &= sol.converged
        samples = fields.field_on_sphere(sol.coefficients, ctx, R, quad)
        entries.append(inverse_solver.NearFieldEntry(ctx=ctx, samples=samples, delta=0.0))
    data = inverse_solver.NearFieldData(R=R, quadrature=quad, entries=tuple(entries))
    delta = float(cfg.get("delta", 0.0))
    data = inverse_solver.add_noise(data, delta, seed=args.seed)
    provenance = {
        "surface": surface.descriptor(),
        "bc": bc,
        "forward_eps": fw_eps,
        "forward_L": [sol.coefficients.L for _, sol in sols],
        "forward_residual": [sol.residual for _, sol in sols],
        "delta": delta,
        "seed": args.seed,
    }
    out = _out_dir(args.out)
    doc = serialize.near_field_to_jsonable(data, provenance)
    serialize.validate(doc, "near_field_data")
    serialize.dump_file(out / "near_field.json", doc)
    logger.info("synthesize: %d entries on %d nodes", len(entries), len(quad))
    return EXIT_OK if all_converged else EXIT_UNCONVERGED


# reconstruction settings a configuration may set; stable_reconstruct holds their defaults
_RECONSTRUCTION_KEYS = ("bracket", "L_schedule", "stability_tol", "residual_threshold", "quorum",
                        "grid_n", "harmonic_degree")


def cmd_invert(args) -> int:
    cfg = _load_document(args.config, "config_invert")
    doc = _load_document(args.data, "near_field_data")
    data = serialize.near_field_from_jsonable(doc)
    if doc.get("provenance", {}).get("bc") == "neumann":
        logger.warning("%s: provenance bc is 'neumann', but the ray criterion assumes a "
                       "sound-soft (Dirichlet) obstacle", args.data)
    dcfg = cfg["directions"]
    if dcfg["type"] == "fibonacci":
        dirs = fibonacci_directions(dcfg["count"])
    else:
        dirs = [Direction(float(t), float(p)) for t, p in dcfg["items"]]
    settings = {key: cfg[key] for key in _RECONSTRUCTION_KEYS if key in cfg}
    rec = inverse_solver.stable_reconstruct(data, dirs, **settings)
    out = _out_dir(args.out)
    rdoc = serialize.reconstruction_to_jsonable(rec)
    serialize.validate(rdoc, "reconstruction")
    serialize.dump_file(out / "reconstruction.json", rdoc)
    rows = [(d.theta, d.phi, r) for d, r in zip(rec.directions, rec.radii)]
    _write_csv(out / "reconstruction.csv", ["theta", "phi", "r"], rows)
    logger.info(
        "invert: L=%d resolved %.0f%% converged=%s",
        rec.L_selected, 100 * rec.resolution_fraction, rec.converged,
    )
    return EXIT_OK if rec.converged else EXIT_UNCONVERGED


def cmd_oracle(args) -> int:
    cfg = _load_document(args.config, "config_oracle")
    ctx = _context(cfg["k"], cfg["alpha"])
    coeffs = sphere_oracle.sphere_scattering_coeffs(
        float(cfg["radius"]), ctx, int(cfg["L"]), cfg["bc"]
    )
    out = _out_dir(args.out)
    doc = serialize.oracle_to_jsonable(coeffs, ctx, float(cfg["radius"]), cfg["bc"])
    serialize.validate(doc, "oracle_reference")
    serialize.dump_file(out / "oracle.json", doc)
    return EXIT_OK


def cmd_fieldmap(args) -> int:
    cfg = _load_document(args.config, "config_fieldmap")
    sol_path = Path(cfg["solution"])
    if not sol_path.is_absolute():
        sol_path = Path(args.config).parent / sol_path
    sdoc = _load_document(sol_path, "direct_solution")
    coeffs, ctx = serialize.solution_from_jsonable(sdoc)
    ray = cfg["ray"]
    d = Direction(float(ray["direction"][0]), float(ray["direction"][1]))
    radii = np.linspace(float(ray["r_start"]), float(ray["r_stop"]), int(ray["n"]))
    points = radii[:, None] * d.vector[None, :]
    v = fields.scattered_field(coeffs, ctx, points)
    u = fields.total_field(coeffs, ctx, points)
    header = ["x", "y", "z", "re_scattered", "im_scattered", "re_total", "im_total"]
    rows = [(*p, vs.real, vs.imag, us.real, us.imag) for p, vs, us in zip(points, v, u)]
    _write_csv(_out_dir(args.out) / "fieldmap.csv", header, rows)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mrcscatter",
        description="Obstacle scattering: direct solves, data synthesis, shape reconstruction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="JSON configuration file")
        p.add_argument("--out", default=".", help="output directory")

    for name, fn in [
        ("solve", cmd_solve),
        ("synthesize", cmd_synthesize),
        ("oracle", cmd_oracle),
        ("fieldmap", cmd_fieldmap),
    ]:
        p = sub.add_parser(name)
        common(p)
        p.set_defaults(func=fn)
        if name == "synthesize":
            p.add_argument("--seed", type=int, default=0, help="noise RNG seed")

    p = sub.add_parser("invert")
    p.add_argument("data", help="near-field data JSON file")
    common(p)
    p.set_defaults(func=cmd_invert)
    return parser


_parser = functools.cache(build_parser)  # one per process: parse_args leaves it unchanged


def main(argv=None) -> int:
    _setup_logging()
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
