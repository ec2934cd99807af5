"""The three benchmark workloads and the correctness check of every job.

A job is one call of the workload's top-level entry point: ``mrc_solve``
(direct_deep), ``stable_reconstruct`` (inverse_sweep) or one
``cli.main(["synthesize", ...])`` + ``cli.main(["invert", ...])`` pair
(cli_pipeline).  Jobs run in rounds; a round runs each job type once.

Job types within a workload are sized to cost about the same (0.5-1.2 s on a
2-core x86 box, one BLAS thread), so that the median and the tail percentile
of a run do not jump between job types as the number of rounds changes.
Every job has margin: its residual or resolution is far enough from the
threshold that decides its degree that rounding cannot change the outcome.

Functions of the package are looked up through their modules at call time,
so that the tracer's wrappers are seen.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from mrcscatter import cli, direct_solver, fields, geometry, inverse_solver

# noisy inversions of the unit sphere: median direction error (criterion 6's
# 2%) and a gross-failure bound on the worst direction (measured: at most 2.6%
# over 30 draws at delta = 0.02)
NOISY_MEDIAN_TOL = 0.02
NOISY_MAX_TOL = 0.05
# median relative radius error for non-spherical shapes (criterion 7)
SHAPE_MEDIAN_TOL = 0.01

BUMPY = [(2, 0, 0.2)]
BRACKET = (0.3, 2.5)


@dataclass
class Outcome:
    ok: bool
    why: str = ""
    degrees: list = field(default_factory=list)
    err: float = math.nan
    resolved: float = math.nan


@dataclass
class Job:
    label: str
    run: Callable[[], object]
    check: Callable[[object], Outcome]


def _fail(why: str) -> Outcome:
    return Outcome(ok=False, why=why)


# --------------------------------------------------------------------------
# direct_deep
# --------------------------------------------------------------------------

# (label, k, polar angle of incidence, boundary condition, eps_target, tiny eps)
# Selected degree, residual / eps and (smallest earlier residual) / eps:
#   dirichlet_k1 L=19 0.82 1.54; dirichlet_k2 L=19 0.75 1.38; neumann_k1 L=17 0.61 1.27
DIRECT_JOBS = [
    ("dirichlet_k1", 1.0, math.pi / 4, "dirichlet", 1e-6, 1e-3),
    ("dirichlet_k2", 2.0, math.pi / 3, "dirichlet", 1e-5, 1e-3),
    ("neumann_k1", 1.0, math.pi / 4, "neumann", 1e-4, 1e-2),
]


def _check_solve(sol, ctx, eps) -> Outcome:
    L = sol.coefficients.L
    if not sol.converged or not sol.residual <= eps:
        return _fail(f"not converged: residual {sol.residual:.3e} > {eps:g} at L={L}")
    # optical theorem: 4 pi / k Im A(alpha, alpha) = sum |c|^2
    c = sol.coefficients.coeffs
    scattered = float(np.sum(np.abs(c) ** 2))
    forward = fields.far_field_amplitude(sol.coefficients, ctx.alpha.theta, ctx.alpha.phi)
    optical = abs(4 * math.pi / ctx.k * forward.imag - scattered) / scattered
    # the error of a truncated solution is of the order of its residual; the
    # jobs below meet it to 1e-11 or better
    if not optical <= eps:
        return _fail(f"optical theorem off by {optical:.2e} (> {eps:g})")
    return Outcome(ok=True, degrees=[L], err=sol.residual, resolved=1.0)


class DirectDeep:
    """Deep degree escalations on an axisymmetric perturbed sphere, both
    boundary conditions.  The seed draws the incidence azimuth of every job;
    the shape is symmetric about z, so the azimuth changes the inputs but not
    the amount of work."""

    def __init__(self, seed: int, tiny: bool):
        self.rng = np.random.default_rng(seed)
        self.tiny = tiny
        self.surface = geometry.PerturbedSphere(1.0, BUMPY)

    def round(self, r: int) -> list[Job]:
        jobs = []
        for label, k, polar, bc, eps, tiny_eps in DIRECT_JOBS:
            eps = tiny_eps if self.tiny else eps
            ctx = direct_solver.WaveContext(
                k, geometry.Direction(polar, float(self.rng.uniform(0.0, 2 * math.pi)))
            )

            def run(ctx=ctx, bc=bc, eps=eps):
                return direct_solver.mrc_solve(self.surface, ctx, bc, eps_target=eps, L_max=30)

            jobs.append(Job(label, run, lambda sol, ctx=ctx, eps=eps: _check_solve(sol, ctx, eps)))
        return jobs

    def close(self) -> None:
        pass


# --------------------------------------------------------------------------
# inverse_sweep
# --------------------------------------------------------------------------

NOISE_LEVELS = (0.005, 0.01, 0.02)


def _radius_errors(rec, surface) -> np.ndarray:
    theta = np.array([d.theta for d in rec.directions])
    phi = np.array([d.phi for d in rec.directions])
    truth = surface.radius(theta, phi)
    return np.abs(np.asarray(rec.radii) - truth) / truth


class InverseSweep:
    """stable_reconstruct over near-field data built once in set-up (2 entries,
    R = 3, 24 x 48 quadrature).  Per round: noisy unit-sphere data at three
    noise levels on 50 directions, each stopping at L = 3 after one step, and
    two escalations: clean sphere data at stability_tol 1e-4 (L 3 -> 6, 10
    directions) and perturbed-sphere data (L 3 -> 8, 8 directions; at L = 6 one
    direction's spread is 0.067, at L = 8 the largest is 0.015 against 0.02).
    The seed draws the noise."""

    def __init__(self, seed: int, tiny: bool):
        self.rng = np.random.default_rng(seed)
        quad = geometry.make_quadrature(24, 48)
        z_hat = geometry.Direction(0.0, 0.0)
        x_hat = geometry.Direction(math.pi / 2, 0.0)
        self.sphere = geometry.Sphere(1.0)
        self.bumpy = geometry.PerturbedSphere(1.0, BUMPY)
        self.sphere_data = self._near_field(self.sphere, 1e-9, 16, quad, z_hat, x_hat)
        self.bumpy_data = self._near_field(self.bumpy, 1e-3 if tiny else 1e-5, 30, quad, z_hat, x_hat)
        n_noisy, n_clean, n_bumpy = (20, 4, 4) if tiny else (50, 10, 8)
        self.noisy_dirs = geometry.fibonacci_directions(n_noisy)
        self.clean_dirs = geometry.fibonacci_directions(n_clean)
        self.bumpy_dirs = geometry.fibonacci_directions(n_bumpy)

    @staticmethod
    def _near_field(surface, eps, L_max, quad, *alphas):
        entries = []
        for k, alpha in zip((1.0, 1.5), alphas):
            ctx = direct_solver.WaveContext(k, alpha)
            sol = direct_solver.mrc_solve(surface, ctx, "dirichlet", eps_target=eps, L_max=L_max)
            if not sol.converged:
                raise RuntimeError(f"set-up forward solve did not converge for {surface.descriptor()}")
            samples = fields.field_on_sphere(sol.coefficients, ctx, 3.0, quad)
            entries.append(inverse_solver.NearFieldEntry(ctx=ctx, samples=samples))
        return inverse_solver.NearFieldData(R=3.0, quadrature=quad, entries=tuple(entries))

    def round(self, r: int) -> list[Job]:
        jobs = []
        for delta in NOISE_LEVELS:
            data = inverse_solver.add_noise(self.sphere_data, delta, seed=int(self.rng.integers(2**31)))
            jobs.append(Job(
                f"noisy_{delta:g}",
                lambda data=data: inverse_solver.stable_reconstruct(data, self.noisy_dirs, bracket=BRACKET),
                self._check_noisy,
            ))
        jobs.append(Job(
            "clean_escalation",
            lambda: inverse_solver.stable_reconstruct(
                self.sphere_data, self.clean_dirs, bracket=BRACKET, stability_tol=1e-4
            ),
            self._check_clean,
        ))
        jobs.append(Job(
            "bumpy_escalation",
            lambda: inverse_solver.stable_reconstruct(
                self.bumpy_data, self.bumpy_dirs, bracket=BRACKET,
                L_schedule=(3, 4, 5, 6, 8, 10), stability_tol=0.02,
            ),
            self._check_bumpy,
        ))
        return jobs

    def _outcome(self, rec, surface, why) -> Outcome:
        err = _radius_errors(rec, surface)
        return Outcome(
            ok=not why, why=why, degrees=[rec.L_selected],
            err=float(np.median(err)), resolved=float(rec.resolution_fraction),
        )

    def _check_noisy(self, rec) -> Outcome:
        err = _radius_errors(rec, self.sphere)
        why = ""
        if not rec.converged:
            why = "not converged"
        elif not (np.median(err) <= NOISY_MEDIAN_TOL and np.max(err) <= NOISY_MAX_TOL):
            why = f"radius error median {np.median(err):.3e} max {np.max(err):.3e}"
        return self._outcome(rec, self.sphere, why)

    def _check_clean(self, rec) -> Outcome:
        # criterion 5: max |r - 1| <= 1e-3 by L = 6
        err = float(np.max(np.abs(rec.radii - 1.0)))
        ok = rec.converged and err <= 1e-3 and rec.L_selected <= 6
        why = "" if ok else f"max |r-1| {err:.2e} at L={rec.L_selected}, converged={rec.converged}"
        return self._outcome(rec, self.sphere, why)

    def _check_bumpy(self, rec) -> Outcome:
        # criterion 7: >= 95% resolved, median relative error on resolved <= 1%
        err = _radius_errors(rec, self.bumpy)
        med = float(np.median(err[rec.resolved])) if np.any(rec.resolved) else math.inf
        ok = rec.converged and rec.resolution_fraction >= 0.95 and med <= SHAPE_MEDIAN_TOL
        why = "" if ok else f"resolved {rec.resolution_fraction:.2f}, median error {med:.2e}"
        return self._outcome(rec, self.bumpy, why)

    def close(self) -> None:
        pass


# --------------------------------------------------------------------------
# cli_pipeline
# --------------------------------------------------------------------------

OUTPUT_FILES = ("near_field.json", "reconstruction.json", "reconstruction.csv")
HALF_PI = math.pi / 2


def _pipeline_configs(tiny: bool) -> dict[str, tuple[dict, dict]]:
    """(synthesize config, invert config) per pipeline: a 16 x 32 quadrature,
    R = 3, L_schedule 3-6 as in acceptance criterion 8."""

    def synth(surface, entries, delta, eps):
        return {
            "schema_version": 1,
            "surface": surface,
            "R": 3.0,
            "quadrature": {"n_theta": 16, "n_phi": 32},
            "entries": [{"k": k, "alpha": list(alpha)} for k, alpha in entries],
            "delta": delta,
            "forward": {"eps_target": eps, "L_max": 24},
        }

    def invert(count):
        return {
            "schema_version": 1,
            "directions": {"type": "fibonacci", "count": 6 if tiny else count},
            "bracket": list(BRACKET),
            "L_schedule": [3, 4, 5, 6],
            "stability_tol": 0.05,
        }

    sphere = {"type": "sphere", "radius": 1.0}
    bumpy = {"type": "perturbed_sphere", "radius": 1.0, "bumps": [[2, 0, 0.1]]}
    ellipsoid = {"type": "ellipsoid", "semi_axes": [1.0, 0.95, 0.9]}
    two = [(1.0, (0.0, 0.0)), (1.5, (HALF_PI, 0.0))]
    # three entries share k = 1: one matrix per k would serve all three
    four = [(1.0, (0.0, 0.0)), (1.0, (HALF_PI, 0.3)), (1.0, (HALF_PI / 2, 1.3)), (1.5, (HALF_PI, 0.7))]
    return {
        "noisy_sphere": (synth(sphere, two, 0.01, 1e-8), invert(20)),
        # 8 directions keep this job's cost near the other two; it stops at
        # L = 3, where the largest spread is 0.031 against 0.05
        "bumpy_4_entries": (synth(bumpy, four, 0.0, 1e-4), invert(8)),
        "noisy_ellipsoid": (synth(ellipsoid, two, 0.005, 1e-4), invert(20)),
    }


class CliPipeline:
    """In-process synthesize then invert through ``cli.main``, writing and
    reading files in a work directory.  The synthesize noise seed is drawn
    from the workload seed and changes every second round, so each config
    and noise seed run twice and must give byte-identical output files."""

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        self.rng = np.random.default_rng(seed)
        self.noise_seed = None
        self.workdir = workdir
        self.digests: dict[tuple[str, int], str] = {}
        self.configs = _pipeline_configs(tiny)
        for name, (synth_cfg, invert_cfg) in self.configs.items():
            d = workdir / name
            d.mkdir(parents=True)
            (d / "synthesize.json").write_text(json.dumps(synth_cfg), encoding="utf-8")
            (d / "invert.json").write_text(json.dumps(invert_cfg), encoding="utf-8")

    def round(self, r: int) -> list[Job]:
        if r % 2 == 0 or self.noise_seed is None:
            self.noise_seed = int(self.rng.integers(2**31))
        return [
            Job(
                name,
                lambda d=self.workdir / name, seed=self.noise_seed: self._pipeline(d, seed),
                lambda res, n=name, seed=self.noise_seed: self._check(n, seed, res),
            )
            for name in self.configs
        ]

    def _pipeline(self, d: Path, seed: int) -> tuple[int, int, Path]:
        for f in OUTPUT_FILES:
            (d / f).unlink(missing_ok=True)
        synth = cli.main([
            "synthesize", "--config", str(d / "synthesize.json"), "--out", str(d), "--seed", str(seed),
        ])
        invert = cli.main([
            "invert", str(d / "near_field.json"), "--config", str(d / "invert.json"), "--out", str(d),
        ])
        return synth, invert, d

    def _check(self, name: str, seed: int, result) -> Outcome:
        synth, invert, d = result
        if synth != 0 or invert != 0:
            return _fail(f"exit codes synthesize={synth} invert={invert}")
        digest = hashlib.sha256()
        for f in OUTPUT_FILES:
            digest.update((d / f).read_bytes())
        first = self.digests.setdefault((name, seed), digest.hexdigest())
        if digest.hexdigest() != first:
            return _fail("outputs differ from the first run of the same config and seed")
        near = json.loads((d / "near_field.json").read_text(encoding="utf-8"))
        rec = json.loads((d / "reconstruction.json").read_text(encoding="utf-8"))
        surface = geometry.surface_from_descriptor(self.configs[name][0]["surface"])
        rows = np.array([row[:3] for row in rec["directions"]], dtype=float)
        truth = surface.radius(rows[:, 0], rows[:, 1])
        err = float(np.median(np.abs(rows[:, 2] - truth) / truth))
        return Outcome(
            ok=err <= SHAPE_MEDIAN_TOL,
            why="" if err <= SHAPE_MEDIAN_TOL else f"median radius error {err:.3e}",
            degrees=list(near["provenance"]["forward_L"]) + [rec["L_selected"]],
            err=err,
            resolved=float(rec["resolution_fraction"]),
        )

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = ("direct_deep", "inverse_sweep", "cli_pipeline")


def build(name: str, seed: int, tiny: bool, workdir: Path):
    if name == "direct_deep":
        return DirectDeep(seed, tiny)
    if name == "inverse_sweep":
        return InverseSweep(seed, tiny)
    if name == "cli_pipeline":
        return CliPipeline(seed, tiny, workdir)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
