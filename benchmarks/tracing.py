"""In-memory span tracing of mrcscatter's public functions, from outside.

``Tracer.patch()`` replaces each listed function with a wrapper in every
``mrcscatter`` module namespace that binds it (modules import some names
directly, e.g. ``direct_solver`` binds ``surface_element``), and restores the
originals on exit.  A span records its name, start, end, parent, the job it
belongs to and a few attributes read from the call.  Spans stay in memory
until ``write()``; ``layer_metrics()`` turns them into per-job figures.
Calls made outside a job, such as those of the correctness checks, are not
recorded.

A listed function that no longer exists is reported as absent; its metrics
read 0.
"""

from __future__ import annotations

import gzip
import json
import os
import sys
import time
from contextlib import contextmanager

import numpy as np


def _size_of_r(args, kwargs):
    r = args[2] if len(args) > 2 else kwargs.get("r")
    return {"points": int(np.size(r))}


def _matrix_bytes(args, kwargs, result):
    return {"bytes": int(getattr(result, "nbytes", 0))}


def _file_bytes(args, kwargs, result):
    path = args[0] if args else kwargs.get("path")
    try:
        return {"bytes": os.path.getsize(path)}
    except (OSError, TypeError):
        return {"bytes": 0}


def _search_attrs(args, kwargs, result):
    coeffs = args[0] if args else kwargs.get("coeffs")
    return {"L": getattr(coeffs, "L", None), "candidates": len(result)}


def _escalation_steps(args, kwargs, result):
    return {"steps": len(getattr(result, "history", ()))}


def _selected_degree(args, kwargs, result):
    return {"L": getattr(result, "L_selected", None)}


# module -> {function: (attributes from the arguments, attributes from the result)}
TRACED = {
    "specfun": {
        "sph_harm_table": (None, None),
        "sph_harm_dtheta_table": (None, None),
        "sph_harm_dphi_over_sin_table": (None, None),
        "hankel_out_table": (_size_of_r, None),
        "hankel_out_dr_table": (None, None),
    },
    "geometry": {
        "surface_element": (None, None),
        "quadrature_for_degree": (None, None),
    },
    "direct_solver": {
        "mrc_solve": (None, _escalation_steps),
        "assemble_basis_matrix": (None, _matrix_bytes),
        "solve_least_squares": (None, None),
        "incident_trace": (None, None),
    },
    "fields": {"field_on_sphere": (None, None)},
    "inverse_solver": {
        "extract_coeffs": (None, None),
        "find_ray_root": (None, _search_attrs),
        "stable_reconstruct": (None, _selected_degree),
    },
    "serialize": {
        "validate": (None, None),
        "dump_file": (None, _file_bytes),
    },
    "cli": {"main": (None, None)},
}

# per-job call counts and self times reported for these spans
CALLS = [
    "direct_solver.solve_least_squares",
    "direct_solver.assemble_basis_matrix",
    "specfun.sph_harm_table",
    "geometry.surface_element",
    "inverse_solver.find_ray_root",
    "specfun.hankel_out_table",
    "serialize.validate",
]
SELF = [
    "direct_solver.solve_least_squares",
    "direct_solver.assemble_basis_matrix",
    "direct_solver.mrc_solve",
    "direct_solver.incident_trace",
    "specfun.sph_harm_table",
    "specfun.sph_harm_dtheta_table",
    "specfun.sph_harm_dphi_over_sin_table",
    "specfun.hankel_out_dr_table",
    "geometry.quadrature_for_degree",
    "inverse_solver.find_ray_root",
    "specfun.hankel_out_table",
    "inverse_solver.extract_coeffs",
    "inverse_solver.stable_reconstruct",
    "fields.field_on_sphere",
    "serialize.validate",
    "serialize.dump_file",
    "cli.main",
]
SUMS = {
    "direct_solver.assemble_basis_matrix.bytes": ("direct_solver.assemble_basis_matrix", "bytes", "B"),
    "specfun.hankel_out_table.points": ("specfun.hankel_out_table", "points", "count"),
    "serialize.dump_file.bytes": ("serialize.dump_file", "bytes", "B"),
}
RATIOS = {
    "direct_solver.factorizations_per_solve": "count",
    "direct_solver.escalation_steps": "count",
    "inverse_solver.hankel_calls_per_search": "count",
    "inverse_solver.searches_useful_ratio": "ratio",
    "inverse_solver.candidates_per_search": "count",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {f"{n}.calls": "count" for n in CALLS}
    units.update({f"{n}.self_s": "s" for n in SELF})
    units.update({name: unit for name, (_, _, unit) in SUMS.items()})
    units.update(RATIOS)
    units["job_s"] = "s"
    units["trace_overhead_frac"] = "ratio"
    return units


class Tracer:
    def __init__(self) -> None:
        # (id, parent, name, start, end, job, attrs)
        self.spans: list[tuple] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._next = 0
        self._job = None

    def _open(self) -> tuple[int, int | None]:
        sid = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, t0, attrs) -> None:
        t1 = time.perf_counter()
        self._stack.pop()
        self.spans.append((sid, parent, name, t0, t1, self._job, attrs))

    def _wrap(self, name, fn, before, after):
        def traced(*args, **kwargs):
            if self._job is None:
                return fn(*args, **kwargs)
            attrs = before(args, kwargs) if before else None
            sid, parent = self._open()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(sid, parent, name, t0, attrs)
                raise
            if after:
                attrs = {**(attrs or {}), **after(args, kwargs, result)}
            self._close(sid, parent, name, t0, attrs)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def job(self, label: str, index: int):
        """Root span of one timed job; spans inside share its index."""
        self._job = index
        sid, parent = self._open()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(sid, parent, "job", t0, {"label": label})
            self._job = None

    @contextmanager
    def patch(self):
        modules = [m for n, m in sys.modules.items() if n == "mrcscatter" or n.startswith("mrcscatter.")]
        replaced = []
        self.absent = []
        for mod_name, funcs in TRACED.items():
            home = sys.modules.get(f"mrcscatter.{mod_name}")
            for fn_name, (before, after) in funcs.items():
                original = getattr(home, fn_name, None) if home else None
                if not callable(original):
                    self.absent.append(f"{mod_name}.{fn_name}")
                    continue
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original, before, after)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            replaced.append((mod, attr, original))
        try:
            yield
        finally:
            for mod, attr, original in replaced:
                setattr(mod, attr, original)

    def layer_metrics(self) -> dict[str, float]:
        """Per-job means of calls, self time and counts over the job spans."""
        by_id = {s[0]: s for s in self.spans}
        child_time: dict[int, float] = {}
        for sid, parent, _, t0, t1, _, _ in self.spans:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + (t1 - t0)

        def ancestor(span, name):
            parent = span[1]
            while parent is not None:
                up = by_id[parent]
                if up[2] == name:
                    return up
                parent = up[1]
            return None

        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        sums: dict[tuple[str, str], float] = {}
        jobs = []
        for span in self.spans:
            sid, _, name, t0, t1, _, attrs = span
            if name == "job":
                jobs.append(t1 - t0)
                continue
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (t1 - t0) - child_time.get(sid, 0.0)
            for key, value in (attrs or {}).items():
                if isinstance(value, (int, float)):
                    sums[(name, key)] = sums.get((name, key), 0.0) + value

        n_jobs = max(len(jobs), 1)
        out = {f"{n}.calls": calls.get(n, 0) / n_jobs for n in CALLS}
        out.update({f"{n}.self_s": self_s.get(n, 0.0) / n_jobs for n in SELF})
        out.update({m: sums.get((n, key), 0.0) / n_jobs for m, (n, key, _) in SUMS.items()})

        def ratio(num, den):
            return num / den if den else 0.0

        solves = calls.get("direct_solver.mrc_solve", 0)
        searches = calls.get("inverse_solver.find_ray_root", 0)
        search_hankel = sum(
            1 for s in self.spans
            if s[2] == "specfun.hankel_out_table" and ancestor(s, "inverse_solver.find_ray_root")
        )
        useful = 0
        for s in self.spans:
            if s[2] == "inverse_solver.find_ray_root":
                rec = ancestor(s, "inverse_solver.stable_reconstruct")
                if rec and rec[6] and s[6] and rec[6].get("L") == s[6].get("L"):
                    useful += 1
        out["direct_solver.factorizations_per_solve"] = ratio(
            calls.get("direct_solver.solve_least_squares", 0), solves
        )
        out["direct_solver.escalation_steps"] = ratio(
            sums.get(("direct_solver.mrc_solve", "steps"), 0.0), solves
        )
        out["inverse_solver.hankel_calls_per_search"] = ratio(search_hankel, searches)
        out["inverse_solver.searches_useful_ratio"] = ratio(useful, searches)
        out["inverse_solver.candidates_per_search"] = ratio(
            sums.get(("inverse_solver.find_ray_root", "candidates"), 0.0), searches
        )
        out["job_s"] = float(np.mean(jobs)) if jobs else 0.0
        return out

    def write(self, path) -> None:
        """All spans as gzipped JSON lines: id, parent, name, start, end, job, attrs."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({"absent": self.absent}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
