"""Batched kernels against the scalar code they replaced.

The scalar golden section and the per-direction ray search below are the
library's earlier implementations, kept verbatim as references: the batched
``specfun.golden_min`` must reproduce the scalar minimizer bitwise on an
elementwise function, and the batched ray search must find the same
candidates as the per-direction search, to within the golden-section
tolerance.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrcscatter import fields, specfun as sf
from mrcscatter.direct_solver import WaveContext, mrc_solve
from mrcscatter.geometry import (
    Direction,
    PerturbedSphere,
    _legendre_peak,
    make_quadrature,
)
from mrcscatter.inverse_solver import (
    NearFieldEntry,
    RayRoot,
    extract_coeffs,
    find_ray_root,
)
from mrcscatter.sphere_oracle import sphere_scattering_coeffs
from test_ray_values import search_roots

Z_HAT = Direction(0.0, 0.0)
X_HAT = Direction(math.pi / 2, 0.0)
BRACKET = (0.3, 2.5)


def golden_min_scalar(f, a, b, rel_tol=1e-10):
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > rel_tol * max(abs(a), abs(b)):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    return (c, fc) if fc < fd else (d, fd)


def ray_evaluator_scalar(coeffs, ctx, dir_out):
    Y = sf.sph_harm_table(coeffs.L, dir_out.theta, dir_out.phi)[0]
    per_ell = np.add.reduceat(Y * coeffs.coeffs, np.arange(coeffs.L + 1) ** 2)
    cosang = float(np.dot(ctx.alpha.vector, dir_out.vector))
    k, L = ctx.k, coeffs.L

    def p(r):
        ra = np.asarray(r, dtype=float)
        H = sf.hankel_out_table(L, k, ra)
        return np.exp(1j * k * cosang * ra) + np.tensordot(per_ell, H, axes=(0, 0))

    return p


def find_ray_root_scalar(coeffs, ctx, dir_out, bracket, grid_n=64, residual_threshold=0.5):
    r_lo, r_hi = bracket
    grid = np.linspace(r_lo, r_hi, grid_n)
    evaluator = ray_evaluator_scalar(coeffs, ctx, dir_out)
    pg = np.abs(evaluator(grid))
    pmax = float(np.max(pg))
    if pmax == 0.0:
        return []
    roots = []
    for i in range(1, grid_n - 1):
        if pg[i] < pg[i - 1] and pg[i] < pg[i + 1]:
            fn = lambda r: float(np.abs(evaluator(r)))
            r0, f0 = golden_min_scalar(fn, grid[i - 1], grid[i + 1])
            score = f0 / pmax
            if score <= residual_threshold:
                roots.append(RayRoot(dir_out=dir_out, r=r0, residual=f0, imag_score=score))
    roots.sort(key=lambda rr: rr.residual)
    return roots


@functools.lru_cache(maxsize=None)
def coefficients(shape):
    """(coefficients at degree 10, wave context) of the unit sphere's oracle,
    or of the perturbed sphere extracted from its forward-solved near field."""
    if shape == "sphere":
        ctx = WaveContext(1.5, X_HAT)
        return sphere_scattering_coeffs(1.0, ctx, 10, "dirichlet"), ctx
    ctx = WaveContext(1.0, Z_HAT)
    sol = mrc_solve(PerturbedSphere(1.0, [(2, 0, 0.2)]), ctx, "dirichlet", eps_target=1e-6)
    assert sol.converged
    quad = make_quadrature(24, 48)
    entry = NearFieldEntry(ctx=ctx, samples=fields.field_on_sphere(sol.coefficients, ctx, 3.0, quad))
    return extract_coeffs(entry, quad, 3.0, 10), ctx


def assert_same_candidates(got, ref, p):
    """Same candidates as the reference, roots within 1e-8 relative.

    Golden section stops moving once rounding of |p| no longer separates its
    probes, so on a shallow minimum two summation orders of p may stop up to
    about 1.5e-8 apart (measured over 2660 candidates: every larger root
    difference had imag_score above 1e-3).  Such a pair must still lie within
    1e-7 and be equally deep: |p| at both radii agrees to 1e-13 relative.
    """
    assert len(got) == len(ref)
    assert [rr.residual for rr in got] == sorted(rr.residual for rr in got)
    # compare in r: candidates of near-equal residual may swap places
    for g, r in zip(sorted(got, key=lambda rr: rr.r), sorted(ref, key=lambda rr: rr.r)):
        assert g.dir_out == r.dir_out
        dr = abs(g.r - r.r) / r.r
        flat = abs(abs(p(g.r)) - abs(p(r.r))) <= 1e-13 * abs(p(r.r))
        assert dr <= 1e-8 or (dr <= 1e-7 and flat)
        assert abs(g.imag_score - r.imag_score) <= 1e-8


class TestGoldenMin:
    def test_batch_matches_scalar_reference_bitwise(self):
        f = lambda x: np.cos(3.0 * x) + 0.1 * x * x
        a = np.array([0.2, 0.5, 1.0, 1.9, 10.0])
        b = a + np.array([0.9, 1.5, 0.3, 1e-9, 2.0])
        x, fx = sf.golden_min(f, a, b)
        for i in range(a.size):
            xs, fs = golden_min_scalar(lambda t: float(f(np.array([t]))[0]), a[i], b[i])
            assert x[i] == xs and fx[i] == fs

    @pytest.mark.parametrize("ell,m", [(1, 1), (2, 1), (2, 2), (3, 2), (5, 3), (8, 1), (12, 7)])
    def test_legendre_peak_unchanged(self, ell, m):
        n = max(1024, 64 * (ell + 1))
        theta = np.linspace(0.0, math.pi, n)
        i = int(np.argmax(np.abs(sf._norm_legendre_table(ell, np.cos(theta), np.sin(theta))[ell, m])))

        def neg_val(t):
            t = np.array([t])
            return -float(np.abs(sf._norm_legendre_table(ell, np.cos(t), np.sin(t))[ell, m])[0])

        _, f = golden_min_scalar(neg_val, theta[max(0, i - 1)], theta[min(n - 1, i + 1)])
        assert _legendre_peak(ell, m) == -f


class TestRaySearch:
    @settings(max_examples=25, deadline=None)
    @given(
        angles=st.lists(
            st.tuples(st.floats(0.0, math.pi), st.floats(0.0, 2 * math.pi)), min_size=1, max_size=4
        ),
        L=st.integers(3, 10),
        shape=st.sampled_from(["sphere", "perturbed"]),
    )
    def test_batched_search_matches_scalar_reference(self, angles, L, shape):
        full, ctx = coefficients(shape)
        c = full.truncated(L)
        dirs = [Direction(theta, phi) for theta, phi in angles]
        batched = search_roots([c], [ctx], dirs, BRACKET, 64, 0.5)[0]
        assert len(batched) == len(dirs)
        for d, got in zip(dirs, batched):
            ref = find_ray_root_scalar(c, ctx, d, BRACKET)
            assert_same_candidates(got, ref, ray_evaluator_scalar(c, ctx, d))
        d = dirs[0]
        assert_same_candidates(
            find_ray_root(c, ctx, d, BRACKET),
            find_ray_root_scalar(c, ctx, d, BRACKET),
            ray_evaluator_scalar(c, ctx, d),
        )
