"""One ray search per degree over every entry, and the stable-root pick as arrays.

``_ray_roots`` given lists of coefficient sets and contexts searches every
(entry, direction) pair at once; each candidate carries its entry's k, and
must be bitwise what a call of its entry alone finds.  ``_stable_roots`` picks
the root kept per direction for all directions at once; the per-direction
pick it replaced, ``_consistent_roots``, is kept below verbatim as the
reference it must match bitwise.
"""

import functools
import logging
import math
import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrcscatter import fields, specfun as sf
from mrcscatter.direct_solver import WaveContext, mrc_solve
from mrcscatter.geometry import Direction, PerturbedSphere, fibonacci_directions, make_quadrature
from mrcscatter.inverse_solver import (
    NearFieldData,
    NearFieldEntry,
    RayRoot,
    _ray_roots,
    _stable_roots,
    extract_coeffs,
    stable_reconstruct,
)
from mrcscatter.sphere_oracle import sphere_scattering_coeffs

BRACKET = (0.3, 2.5)
# two entries share k = 1
CONTEXTS = (
    WaveContext(1.0, Direction(0.0, 0.0)),
    WaveContext(1.0, Direction(math.pi / 2, 0.0)),
    WaveContext(1.5, Direction(math.pi / 4, 1.3)),
    WaveContext(0.7, Direction(2.0, 4.0)),
)


def _consistent_roots(candidates: list[list[RayRoot]]) -> tuple[list[RayRoot], float] | None:
    """Pick one candidate per entry minimizing the relative spread in r, then
    the largest residual.  Every candidate of every entry anchors once, and
    each entry contributes its candidate nearest the anchor, so the order of
    the entries does not matter.  Returns the chosen roots and their relative
    spread, or None if some entry has no candidates.
    """
    if any(len(c) == 0 for c in candidates):
        return None
    best = None
    for anchor in (rr for c in candidates for rr in c):
        chosen = [min(c, key=lambda rr: abs(rr.r - anchor.r)) for c in candidates]
        rs = [rr.r for rr in chosen]
        med = statistics.median(rs)
        key = ((max(rs) - min(rs)) / med if med > 0 else math.inf, max(rr.residual for rr in chosen))
        if best is None or key < best[0]:
            best = (key, chosen)
    return best[1], best[0][0]


@functools.lru_cache(maxsize=None)
def entry_coefficients(shape):
    """Degree-10 coefficients of every context in CONTEXTS: the unit sphere's
    oracle, or extracted from the forward-solved near field of a bump."""
    if shape == "sphere":
        return tuple(sphere_scattering_coeffs(1.0, ctx, 10, "dirichlet") for ctx in CONTEXTS)
    surface, quad, out = PerturbedSphere(1.0, [(2, 0, 0.2)]), make_quadrature(24, 48), []
    for ctx in CONTEXTS:
        sol = mrc_solve(surface, ctx, "dirichlet", eps_target=1e-6)
        assert sol.converged
        entry = NearFieldEntry(ctx=ctx, samples=fields.field_on_sphere(sol.coefficients, ctx, 3.0, quad))
        out.append(extract_coeffs(entry, quad, 3.0, 10))
    return tuple(out)


class TestAllEntriesSearch:
    @settings(max_examples=25, deadline=None)
    @given(
        order=st.permutations(range(len(CONTEXTS))),
        n_entries=st.integers(1, len(CONTEXTS)),
        angles=st.lists(
            st.tuples(st.floats(0.0, math.pi), st.floats(0.0, 2 * math.pi)), min_size=1, max_size=6
        ),
        L=st.integers(3, 10),
        shape=st.sampled_from(["sphere", "perturbed"]),
    )
    def test_matches_one_call_per_entry_bitwise(self, order, n_entries, angles, L, shape):
        picked = order[:n_entries]
        coeffs = [entry_coefficients(shape)[e].truncated(L) for e in picked]
        ctxs = [CONTEXTS[e] for e in picked]
        dirs = [Direction(theta, phi) for theta, phi in angles]
        together = _ray_roots(coeffs, ctxs, dirs, BRACKET, 64, 0.5)
        # RayRoot compares r, residual and imag_score exactly, in candidate order
        assert together == [_ray_roots([c], [ctx], dirs, BRACKET, 64, 0.5)[0] for c, ctx in zip(coeffs, ctxs)]

    def test_one_secant_search_per_scheduled_degree(self, monkeypatch):
        coeffs = entry_coefficients("sphere")
        quad = make_quadrature(16, 32)
        entries = tuple(
            NearFieldEntry(ctx=ctx, samples=fields.field_on_sphere(c, ctx, 3.0, quad))
            for c, ctx in zip(coeffs[1:3], CONTEXTS[1:3])
        )
        data = NearFieldData(R=3.0, quadrature=quad, entries=entries)
        calls = []
        root = sf.bracketed_root

        def counted(*args):
            calls.append(args)
            return root(*args)

        monkeypatch.setattr(sf, "bracketed_root", counted)
        # no degree reaches a spread of 1e-12, so all four are searched
        rec = stable_reconstruct(data, fibonacci_directions(10), L_schedule=(3, 4, 5, 6), stability_tol=1e-12)
        assert not rec.converged
        assert len(calls) == 4

    def test_debug_log_has_one_search_line_per_degree(self, caplog):
        coeffs = entry_coefficients("sphere")
        quad = make_quadrature(16, 32)
        entries = tuple(
            NearFieldEntry(ctx=ctx, samples=fields.field_on_sphere(c, ctx, 3.0, quad))
            for c, ctx in zip(coeffs[:3], CONTEXTS[:3])
        )
        data = NearFieldData(R=3.0, quadrature=quad, entries=entries)
        with caplog.at_level(logging.DEBUG, logger="mrcscatter.inverse_solver"):
            stable_reconstruct(data, fibonacci_directions(6), L_schedule=(3, 4), stability_tol=1e-12)
        lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("ray search")]
        assert [line.split(":")[0] for line in lines] == ["ray search L=3 k=[1.0, 1.0, 1.5]",
                                                          "ray search L=4 k=[1.0, 1.0, 1.5]"]
        # candidates and golden fallbacks per entry, one shared Newton-step count
        assert all("candidates" in line and "Newton steps" in line and "golden" in line for line in lines)


def _pick_both(per_entry_dir):
    """Run the array pick and the reference on candidates[e][d] = [(r, residual)]."""
    n_ent, n_dir = len(per_entry_dir), len(per_entry_dir[0])
    here = Direction(0.5, 0.5)
    lists = [[sorted((RayRoot(here, r, f, 0.0) for r, f in cands), key=lambda rr: rr.residual)
              for cands in per_dir] for per_dir in per_entry_dir]
    flat = [(e, d, rr.r, rr.residual) for e in range(n_ent) for d in range(n_dir) for rr in lists[e][d]]
    ents, rows = (np.array([c[n] for c in flat], dtype=int) for n in (0, 1))
    r, f = (np.array([c[n] for c in flat], dtype=float) for n in (2, 3))
    got = _stable_roots(ents, rows, r, f, (n_ent, n_dir))
    refs = [_consistent_roots([lists[e][d] for e in range(n_ent)]) for d in range(n_dir)]
    return got, refs


def _assert_same_pick(got, refs):
    radii, residuals, spreads, found = got
    for d, ref in enumerate(refs):
        if ref is None:
            assert not found[d]
            assert np.isnan(radii[d]) and np.isnan(residuals[d]) and np.isnan(spreads[d])
            continue
        roots, spread = ref
        assert found[d]
        assert radii[d] == statistics.median(rr.r for rr in roots)
        assert residuals[d] == max(rr.residual for rr in roots)
        assert spreads[d] == spread


# dyadic radii: equal distances to an anchor are exactly equal
RADII = st.sampled_from([0.75, 0.875, 1.0, 1.125, 1.25, 1.3])
RESIDUALS = st.sampled_from([0.125, 0.25, 0.5, 0.3])


class TestStableRootPick:
    @pytest.mark.parametrize("case", [
        # an entry with no candidate
        [[(1.0, 0.25)], []],
        # 0.875 and 1.125 are equidistant from the anchor 1.0: the first in
        # residual order is chosen
        [[(1.0, 0.25)], [(1.125, 0.25), (0.875, 0.125)]],
        [[(1.0, 0.25)], [(1.125, 0.125), (0.875, 0.25)]],
        # two anchors give spread 0; the smaller largest residual wins
        [[(1.0, 0.125), (1.125, 0.25)], [(1.125, 0.125), (1.0, 0.5)]],
        # one entry: its least residual
        [[(1.25, 0.5), (1.0, 0.125), (0.75, 0.125)]],
        # three entries (odd median) and four (even median)
        [[(1.0, 0.25), (1.25, 0.125)], [(1.125, 0.5)], [(0.875, 0.25), (1.25, 0.3)]],
        [[(1.0, 0.25)], [(1.125, 0.5), (0.75, 0.125)], [(0.875, 0.25)], [(1.3, 0.3), (1.0, 0.5)]],
    ])
    def test_cases_match_reference(self, case):
        _assert_same_pick(*_pick_both([[cands] for cands in case]))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda n_ent: st.integers(1, 5).flatmap(
        lambda n_dir: st.lists(st.lists(st.lists(st.tuples(RADII, RESIDUALS), max_size=3),
                                        min_size=n_dir, max_size=n_dir),
                               min_size=n_ent, max_size=n_ent))))
    def test_matches_reference_bitwise(self, per_entry_dir):
        _assert_same_pick(*_pick_both(per_entry_dir))


class TestArrayWavenumber:
    def test_hankel_tables_match_scalar_k_bitwise(self):
        k = np.array([1.0, 1.0, 1.5, 0.7, 3.25])
        r = np.linspace(0.3, 2.5, 17)
        for L in (0, 1, 4, 10):
            H = sf.hankel_out_table(L, k[:, None], r)
            pair = sf._hankel_out_pair(L, k[:, None], r)
            assert H.shape == (L + 1, k.size, r.size)
            for i, ki in enumerate(k.tolist()):
                assert np.array_equal(H[:, i], sf.hankel_out_table(L, ki, r))
                for got, ref in zip(pair, sf._hankel_out_pair(L, ki, r)):
                    assert np.array_equal(got[:, i], ref)
            # k and r of one shape pair elementwise
            H = sf.hankel_out_table(L, k, r[: k.size])
            for i, ki in enumerate(k.tolist()):
                assert np.array_equal(H[:, i], sf.hankel_out_table(L, ki, r[i]))

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
    def test_non_positive_or_nan_k_in_an_array_is_refused(self, bad):
        with pytest.raises(sf.DomainError):
            sf.hankel_out_table(3, np.array([1.0, bad]), 1.0)
        with pytest.raises(sf.DomainError):
            sf._hankel_out_pair(3, np.array([[bad], [1.5]]), np.array([0.5, 1.0]))


def test_clipped_radii_are_reported(caplog):
    # the bump reaches r = 1.18 near the poles, past the bracket's 1.1: those
    # directions do not resolve and the harmonic model fills them beyond it
    surface, quad, entries = PerturbedSphere(1.0, [(2, 0, 0.2)]), make_quadrature(24, 48), []
    for ctx in CONTEXTS[1:3]:
        sol = mrc_solve(surface, ctx, "dirichlet", eps_target=1e-5, L_max=30)
        entries.append(NearFieldEntry(ctx=ctx, samples=fields.field_on_sphere(sol.coefficients, ctx, 3.0, quad)))
    data = NearFieldData(R=3.0, quadrature=quad, entries=tuple(entries))
    with caplog.at_level(logging.WARNING, logger="mrcscatter.inverse_solver"):
        rec = stable_reconstruct(data, fibonacci_directions(30), bracket=(0.5, 1.1), L_schedule=(6,),
                                 harmonic_degree=2)
    clipped = np.count_nonzero(rec.radii == 1.1)
    assert clipped > 0 and not np.any(rec.resolved[rec.radii == 1.1])
    assert any(r.getMessage().startswith(f"{clipped} of 30 radii") and "(0.5, 1.1)" in r.getMessage()
               for r in caplog.records)
