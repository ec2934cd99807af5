"""Coefficient extraction, ray root search, stable reconstruction."""

import functools
import itertools
import logging
import math

import numpy as np
import pytest

from mrcscatter import fields, serialize, specfun as sf
from mrcscatter.direct_solver import CoefficientSet, WaveContext, mrc_solve
from mrcscatter.geometry import Direction, PerturbedSphere, fibonacci_directions, make_quadrature
from mrcscatter.inverse_solver import (
    NearFieldData,
    NearFieldEntry,
    _fit_harmonic_model,
    _ray_roots,
    _ray_values,
    _ray_weights,
    _real_harmonic_basis,
    add_noise,
    evaluate_harmonic_model,
    extract_coeffs,
    find_ray_root,
    ray_function,
    stable_reconstruct,
)
from mrcscatter.sphere_oracle import sphere_scattering_coeffs

Z_HAT = Direction(0.0, 0.0)
X_HAT = Direction(math.pi / 2, 0.0)


def sphere_data(quad=None, R=3.0, pairs=((1.0, Z_HAT), (1.5, X_HAT)), L=20):
    quad = quad or make_quadrature(24, 48)
    entries = []
    for k, alpha in pairs:
        ctx = WaveContext(k, alpha)
        c = sphere_scattering_coeffs(1.0, ctx, L, "dirichlet")
        entries.append(NearFieldEntry(ctx=ctx, samples=fields.field_on_sphere(c, ctx, R, quad)))
    return NearFieldData(R=R, quadrature=quad, entries=tuple(entries))


class TestExtractCoeffs:
    def test_round_trip_clean(self):
        quad = make_quadrature(24, 48)
        ctx = WaveContext(1.0, Z_HAT)
        c = sphere_scattering_coeffs(1.0, ctx, 20, "dirichlet")
        v = fields.field_on_sphere(c, ctx, 3.0, quad)
        ext = extract_coeffs(NearFieldEntry(ctx=ctx, samples=v), quad, 3.0, 10)
        assert np.max(np.abs(ext.coeffs - c.coeffs[: sf.n_modes(10)])) < 1e-10

    def test_zero_samples_give_zero_coeffs(self):
        quad = make_quadrature(12, 24)
        ctx = WaveContext(1.0, Z_HAT)
        ext = extract_coeffs(
            NearFieldEntry(ctx=ctx, samples=np.zeros(len(quad), dtype=complex)), quad, 3.0, 5
        )
        assert np.all(ext.coeffs == 0.0)

    def test_rejects_underresolved_quadrature(self):
        quad = make_quadrature(4, 8)
        ctx = WaveContext(1.0, Z_HAT)
        with pytest.raises(ValueError):
            extract_coeffs(
                NearFieldEntry(ctx=ctx, samples=np.zeros(len(quad), dtype=complex)),
                quad, 3.0, 10,
            )

    def test_noisy_error_profile(self):
        # 20 Monte-Carlo draws at 1% relative noise: the low degrees come back
        # to about the noise level, and the relative error grows with degree
        # because the true coefficients decay much faster than the projected
        # noise does (thresholds calibrated on the frozen seed set)
        quad = make_quadrature(24, 48)
        ctx = WaveContext(1.0, Z_HAT)
        c_true = sphere_scattering_coeffs(1.0, ctx, 20, "dirichlet")
        data = sphere_data(quad=quad, pairs=((1.0, Z_HAT),))
        errs = {ell: [] for ell in (0, 1, 2, 4, 8)}
        for seed in range(20):
            noisy = add_noise(data, 1e-2, seed=seed)
            ext = extract_coeffs(noisy.entries[0], quad, 3.0, 8)
            for ell in errs:
                i = sf.mode_index(ell, 0)
                errs[ell].append(abs(ext.coeffs[i] - c_true.coeffs[i]) / abs(c_true.coeffs[i]))
        med = {ell: float(np.median(v)) for ell, v in errs.items()}
        assert med[0] < 2e-2 and med[1] < 2e-2 and med[2] < 2e-2
        assert med[4] > med[2] > med[0]
        assert med[8] > med[4]


class TestRayFunction:
    def test_vanishes_on_sphere_boundary(self):
        ctx = WaveContext(1.0, Direction(0.6, 1.0))
        c = sphere_scattering_coeffs(1.0, ctx, 12, "dirichlet")
        for d in fibonacci_directions(20):
            assert abs(ray_function(c, ctx, d, 1.0)) < 1e-8

    def test_modulus_tends_to_one_far_out(self):
        ctx = WaveContext(1.0, Z_HAT)
        c = sphere_scattering_coeffs(1.0, ctx, 8, "dirichlet")
        val = ray_function(c, ctx, Direction(1.0, 2.0), 1e6)
        assert abs(abs(val) - 1.0) < 1e-5

    def test_rejects_nonpositive_radius(self):
        c = sphere_scattering_coeffs(1.0, WaveContext(1.0, Z_HAT), 4, "dirichlet")
        with pytest.raises(sf.DomainError):
            ray_function(c, WaveContext(1.0, Z_HAT), Z_HAT, 0.0)


class TestFindRayRoot:
    def test_constructed_monopole_root(self):
        # choose the single coefficient so that p vanishes exactly at r0
        ctx = WaveContext(1.0, Z_HAT)
        d = Direction(0.8, 0.6)
        r0 = 1.37
        u0 = np.exp(1j * ctx.k * r0 * float(np.dot(ctx.alpha.vector, d.vector)))
        c00 = -u0 / (sf.sph_harm(0, 0, d.theta, d.phi) * sf.hankel_out(0, ctx.k, r0))
        c = CoefficientSet(0, np.array([c00]))
        roots = find_ray_root(c, ctx, d, (0.5, 2.5))
        assert roots and abs(roots[0].r - r0) < 1e-8

    def test_sphere_single_dominant_root(self):
        ctx = WaveContext(1.0, Z_HAT)
        c = sphere_scattering_coeffs(1.0, ctx, 12, "dirichlet")
        roots = find_ray_root(c, ctx, Direction(1.1, 0.4), (0.3, 2.5))
        assert roots
        assert abs(roots[0].r - 1.0) < 1e-6
        assert roots[0].imag_score < 1e-6

    def test_zero_coefficients_find_nothing(self):
        ctx = WaveContext(1.0, Z_HAT)
        c = CoefficientSet(2, np.zeros(9, dtype=complex))
        assert find_ray_root(c, ctx, Direction(1.0, 1.0), (0.3, 2.5)) == []

    def test_bracket_validation(self):
        c = CoefficientSet(0, np.array([1.0 + 0j]))
        with pytest.raises(ValueError):
            find_ray_root(c, WaveContext(1.0, Z_HAT), Z_HAT, (2.0, 1.0))
        with pytest.raises(ValueError):
            find_ray_root(c, WaveContext(1.0, Z_HAT), Z_HAT, (0.5, 2.0), grid_n=8)


@functools.cache
def _polished_search():
    """(k, coefficients, context, roots, Hankel table count) of one ray search
    per wavenumber on the perturbed-sphere data of the inverse_sweep
    benchmark, at L = 8."""
    surface = PerturbedSphere(1.0, [(2, 0, 0.2)])
    quad = make_quadrature(24, 48)
    dirs = fibonacci_directions(8)
    calls = []
    table = sf.hankel_out_table

    def counted(*args):
        calls.append(args[0])
        return table(*args)

    out = []
    for k, alpha in ((1.0, Z_HAT), (1.5, X_HAT)):
        ctx = WaveContext(k, alpha)
        sol = mrc_solve(surface, ctx, "dirichlet", eps_target=1e-5, L_max=30)
        entry = NearFieldEntry(ctx=ctx, samples=fields.field_on_sphere(sol.coefficients, ctx, 3.0, quad))
        c = extract_coeffs(entry, quad, 3.0, 8)
        calls.clear()
        with pytest.MonkeyPatch.context() as m:
            m.setattr(sf, "hankel_out_table", counted)
            found = _ray_roots(c, ctx, dirs, (0.3, 2.5), 64, 0.5)
        out.append((k, c, ctx, found, len(calls)))
    return tuple(out)


class TestRootPolish:
    """Each grid minimum of |p| is polished as the root of g = Re(conj(p) p')
    on the half-cell where g turns from negative to non-negative, or by
    golden section on |p| over both cells when no half-cell does."""

    def test_candidate_without_a_sign_change_falls_back_to_golden_section(self):
        # a monopole at k = 25 seen against the incidence oscillates faster
        # than the 16-point grid resolves: g keeps its sign over both
        # half-cells of the one grid minimum
        ctx = WaveContext(25.0, Z_HAT)
        d = Direction(math.pi, 0.0)
        c = CoefficientSet(0, np.array([1.2 * np.exp(1.25j * math.pi) / sf.sph_harm(0, 0, 0.0, 0.0)]))
        bracket, grid_n = (0.5, 2.5), 16
        roots = find_ray_root(c, ctx, d, bracket, grid_n, residual_threshold=1.0)
        grid = np.linspace(*bracket, grid_n)
        W, cosang = _ray_weights(c, ctx, [d])
        p, g, _ = (v[0] for v in _ray_values(W[:, None], cosang[:, None], ctx.k, grid))
        pg = np.abs(p)
        cells = [i for i in range(grid_n - 2) if pg[i + 1] < pg[i] and pg[i + 1] < pg[i + 2]]
        assert len(cells) == len(roots) == 1
        i = cells[0]
        assert not (g[i] < 0 <= g[i + 1] or g[i + 1] < 0 <= g[i + 2])
        r, f = sf.golden_min(
            lambda r: np.abs(_ray_values(W, cosang, ctx.k, r)[0]), grid[[i]], grid[[i + 2]]
        )
        assert roots[0].r == r[0] and roots[0].residual == f[0]

    def test_polished_search_makes_at_most_20_hankel_calls(self):
        for k, c, ctx, found, calls in _polished_search():
            assert all(found)
            assert calls <= 20
            for roots in found:
                p, g, _ = _ray_values(
                    *_ray_weights(c, ctx, [roots[0].dir_out]), k, np.array([roots[0].r])
                )
                # the polished radius is a stationary point of |p|
                assert abs(g[0]) <= 1e-9 * abs(p[0]) * k

    def test_polished_search_makes_at_most_10_hankel_calls(self):
        # 8 at each k: the grid table, 6 Newton steps and the residual
        for _, _, _, found, calls in _polished_search():
            assert all(found)
            assert calls <= 10

    def test_ray_derivative_matches_a_central_difference(self):
        # g' = |p'|**2 + Re(conj(p) p''), with p'' from the spherical Bessel equation
        c = extract_coeffs(sphere_data().entries[1], make_quadrature(24, 48), 3.0, 8)
        ctx = WaveContext(1.5, X_HAT)
        W, cosang = _ray_weights(c, ctx, [Direction(1.1, 0.4), Direction(2.5, 4.0)])
        r, h = np.array([0.4, 0.9, 1.0, 1.7, 2.4]), 1e-6
        for w, cos in zip(W, cosang):
            g = lambda x: _ray_values(w[None], cos, ctx.k, x)[1]
            dg = _ray_values(w[None], cos, ctx.k, r)[2]
            np.testing.assert_allclose(dg, (g(r + h) - g(r - h)) / (2 * h), rtol=1e-6, atol=1e-8)


def _illinois_root(f, a, b, fa, fb):
    """Illinois regula falsi on g alone, the reference for the Newton polish:
    the secant point replaces the end of its sign, and when one end moves
    twice running the value at the other is halved."""
    a, b, fa, fb = (np.array(v, dtype=float) for v in (a, b, fa, fb))
    moved, calls = np.zeros(a.shape), 0  # +1 where a moved last, -1 where b did
    while True:
        x = b - fb * (b - a) / (fb - fa)
        active = (a < x) & (x < b) & ((b - a) > 1e-10 * np.maximum(np.abs(a), np.abs(b)))
        if not np.any(active):
            return x, calls
        fx, calls = f(x)[0], calls + 1
        up, down = active & (fx < 0), active & ~(fx < 0)
        fa, fb = np.where(down & (moved < 0), 0.5 * fa, fa), np.where(up & (moved > 0), 0.5 * fb, fb)
        a, fa = np.where(up, x, a), np.where(up, fx, fa)
        b, fb = np.where(down, x, b), np.where(down, fx, fb)
        moved = np.where(up, 1.0, np.where(down, -1.0, moved))


class TestNewtonAgainstIllinois:
    """The Newton polish finds the roots the regula falsi found, to rounding."""

    @pytest.mark.parametrize("case", ["noisy_sphere", "bumpy"])
    def test_same_roots_resolution_and_degree(self, case, monkeypatch):
        quad = make_quadrature(24, 48)
        if case == "noisy_sphere":
            data, dirs, kw = add_noise(sphere_data(quad), 0.01, seed=3), fibonacci_directions(50), {}
        else:
            surface = PerturbedSphere(1.0, [(2, 0, 0.2)])
            entries = []
            for k, alpha in ((1.0, Z_HAT), (1.5, X_HAT)):
                ctx = WaveContext(k, alpha)
                sol = mrc_solve(surface, ctx, "dirichlet", eps_target=1e-5, L_max=30)
                samples = fields.field_on_sphere(sol.coefficients, ctx, 3.0, quad)
                entries.append(NearFieldEntry(ctx=ctx, samples=samples))
            data = NearFieldData(R=3.0, quadrature=quad, entries=tuple(entries))
            dirs = fibonacci_directions(8)
            kw = {"stability_tol": 0.02}
        newton = stable_reconstruct(data, dirs, bracket=(0.3, 2.5), **kw)
        monkeypatch.setattr(sf, "bracketed_root", _illinois_root)
        illinois = stable_reconstruct(data, dirs, bracket=(0.3, 2.5), **kw)
        assert newton.L_selected == illinois.L_selected
        np.testing.assert_array_equal(newton.resolved, illinois.resolved)
        np.testing.assert_allclose(newton.radii, illinois.radii, rtol=1e-14)
        np.testing.assert_allclose(newton.spreads, illinois.spreads, rtol=1e-14, atol=1e-15)


class TestPerturbedSphereRoots:
    def test_root_accuracy_improves_with_degree(self):
        # forward-solved data for the bumpy obstacle; root error along each
        # ray is truncation-dominated and shrinks as the degree grows
        # (thresholds calibrated: medians 1.1e-3 / 6.4e-4 / 2.1e-4 at 6/8/10)
        from mrcscatter.direct_solver import mrc_solve
        from mrcscatter.geometry import PerturbedSphere

        surface = PerturbedSphere(1.0, [(2, 0, 0.2)])
        ctx = WaveContext(1.0, Z_HAT)
        sol = mrc_solve(surface, ctx, "dirichlet", eps_target=1e-8, L_max=30)
        assert sol.converged
        quad = make_quadrature(24, 48)
        entry = NearFieldEntry(
            ctx=ctx, samples=fields.field_on_sphere(sol.coefficients, ctx, 3.0, quad)
        )
        ext = extract_coeffs(entry, quad, 3.0, 10)
        dirs = fibonacci_directions(20)
        truth = np.array(
            [float(surface.radius(np.array([d.theta]), np.array([d.phi]))[0]) for d in dirs]
        )
        medians = {}
        for L in (6, 8, 10):
            errs = []
            for d, f in zip(dirs, truth):
                roots = find_ray_root(ext.truncated(L), ctx, d, (0.3, 2.5))
                assert roots
                errs.append(abs(roots[0].r - f) / f)
            medians[L] = float(np.median(errs))
        assert medians[6] < 2e-3
        assert medians[8] < 1e-3
        assert medians[10] < medians[8] < medians[6]


class TestForwardSolveRoundTrip:
    def test_extraction_reproduces_forward_coefficients(self):
        # solve -> sample on the measurement sphere -> extract: the escalated
        # solver's own coefficients come back to within the solve accuracy
        from mrcscatter.direct_solver import mrc_solve
        from mrcscatter.geometry import Sphere

        ctx = WaveContext(1.0, Z_HAT)
        sol = mrc_solve(Sphere(1.0), ctx, "dirichlet", eps_target=1e-9, L_max=16)
        assert sol.converged
        quad = make_quadrature(24, 48)
        v = fields.field_on_sphere(sol.coefficients, ctx, 3.0, quad)
        L = min(6, sol.coefficients.L)
        ext = extract_coeffs(NearFieldEntry(ctx=ctx, samples=v), quad, 3.0, L)
        assert np.max(np.abs(ext.coeffs - sol.coefficients.coeffs[: sf.n_modes(L)])) < 1e-8


class TestNearFieldDataValidation:
    def test_radius_must_be_positive(self):
        quad = make_quadrature(8, 16)
        with pytest.raises(ValueError):
            NearFieldData(R=0.0, quadrature=quad, entries=())

    def test_samples_must_match_quadrature(self):
        quad = make_quadrature(8, 16)
        ctx = WaveContext(1.0, Z_HAT)
        with pytest.raises(ValueError):
            NearFieldData(
                R=3.0,
                quadrature=quad,
                entries=(NearFieldEntry(ctx=ctx, samples=np.zeros(3, dtype=complex)),),
            )

    def test_noise_level_must_be_nonnegative(self):
        ctx = WaveContext(1.0, Z_HAT)
        with pytest.raises(ValueError):
            NearFieldEntry(ctx=ctx, samples=np.zeros(4, dtype=complex), delta=-0.1)


class TestAddNoise:
    def test_zero_delta_is_identity(self):
        data = sphere_data()
        noisy = add_noise(data, 0.0, seed=1)
        for a, b in zip(data.entries, noisy.entries):
            np.testing.assert_array_equal(a.samples, b.samples)

    def test_exact_relative_norm(self):
        data = sphere_data()
        noisy = add_noise(data, 0.03, seed=5)
        w = data.quadrature.weights
        for a, b in zip(data.entries, noisy.entries):
            dn = math.sqrt(float(np.sum(w * np.abs(b.samples - a.samples) ** 2)))
            vn = math.sqrt(float(np.sum(w * np.abs(a.samples) ** 2)))
            assert dn / vn == pytest.approx(0.03, rel=1e-12)

    def test_seeds_differ_and_draws_are_deterministic(self):
        data = sphere_data()
        n1 = add_noise(data, 0.02, seed=1)
        n2 = add_noise(data, 0.02, seed=2)
        assert not np.allclose(n1.entries[0].samples, n2.entries[0].samples)
        n1b = add_noise(data, 0.02, seed=1)
        np.testing.assert_array_equal(n1.entries[0].samples, n1b.entries[0].samples)

    def test_negative_delta_rejected(self):
        with pytest.raises(ValueError):
            add_noise(sphere_data(), -0.1, seed=0)


class TestStableReconstruct:
    def test_clean_sphere_two_entries(self):
        data = sphere_data()
        dirs = fibonacci_directions(50)
        rec = stable_reconstruct(data, dirs, bracket=(0.3, 2.5), stability_tol=1e-4)
        assert rec.converged
        assert np.all(rec.resolved)
        assert np.max(np.abs(rec.radii - 1.0)) < 1e-4
        # reconstruction is constant across directions within the tolerance
        assert (np.max(rec.radii) - np.min(rec.radii)) / np.median(rec.radii) < 1e-4

    def test_selected_root_is_stable_across_entries(self):
        # with clean data and a high degree the per-entry roots coincide to
        # well below any plausible stability tolerance
        data = sphere_data()
        dirs = fibonacci_directions(10)
        rec = stable_reconstruct(
            data, dirs, bracket=(0.3, 2.5), L_schedule=(10,), stability_tol=0.05
        )
        assert rec.converged
        assert np.nanmax(rec.spreads) < 1e-6
        assert np.max(np.abs(rec.radii - 1.0)) < 1e-6

    def test_single_entry_falls_back_to_residual_acceptance(self):
        data = sphere_data(pairs=((1.0, Z_HAT),))
        dirs = fibonacci_directions(12)
        rec = stable_reconstruct(data, dirs, bracket=(0.3, 2.5), L_schedule=(6,))
        assert rec.converged
        assert np.all(np.isnan(rec.spreads))
        assert np.max(np.abs(rec.radii - 1.0)) < 1e-3

    def test_unresolved_directions_filled_and_flagged(self):
        # an impossible stability demand leaves directions unresolved; the
        # result is still produced, flagged, and radii stay inside the bracket
        data = sphere_data()
        dirs = fibonacci_directions(12)
        rec = stable_reconstruct(
            data, dirs, bracket=(0.3, 2.5), L_schedule=(3,), stability_tol=1e-12
        )
        assert not rec.converged
        assert not np.all(rec.resolved)
        assert np.all((rec.radii >= 0.3) & (rec.radii <= 2.5))

    @pytest.mark.parametrize("count, warns", [(20, True), (50, False)])
    def test_sphere_fallback_of_the_harmonic_model_is_logged(self, count, warns, caplog):
        # the degree-4 model has 25 modes: 20 directions cannot fit it
        with caplog.at_level(logging.WARNING, logger="mrcscatter.inverse_solver"):
            rec = stable_reconstruct(sphere_data(), fibonacci_directions(count), bracket=(0.3, 2.5))
        assert np.count_nonzero(rec.resolved) == count
        messages = [r.getMessage() for r in caplog.records if r.name == "mrcscatter.inverse_solver"]
        if warns:
            assert any("20 resolved directions" in m and "25 modes" in m for m in messages)
        else:
            assert not any("modes" in m for m in messages)

    def test_requires_entries(self):
        quad = make_quadrature(12, 24)
        with pytest.raises(ValueError):
            stable_reconstruct(
                NearFieldData(R=3.0, quadrature=quad, entries=()),
                fibonacci_directions(4),
            )

    def test_requires_directions(self):
        with pytest.raises(ValueError, match="no directions"):
            stable_reconstruct(sphere_data(quad=make_quadrature(12, 24)), [], L_schedule=(3,))

    def test_schedule_must_fit_quadrature(self):
        data = sphere_data(quad=make_quadrature(8, 16))
        with pytest.raises(ValueError):
            stable_reconstruct(data, fibonacci_directions(4), L_schedule=(20,))


class TestEntryOrder:
    def test_permuted_entries_give_bitwise_equal_results(self):
        # at k 3-5 some directions have two candidates in one entry, and the
        # nearest one to an anchor of another entry is not the consistent one
        alphas = (Z_HAT, X_HAT, Direction(math.pi / 2, math.pi / 2))
        data = sphere_data(pairs=tuple(zip((3.0, 4.0, 5.0), alphas)), L=16)
        dirs = fibonacci_directions(20)
        out = set()
        for perm in itertools.permutations(range(3)):
            permuted = NearFieldData(R=data.R, quadrature=data.quadrature, entries=tuple(data.entries[i] for i in perm))
            rec = stable_reconstruct(
                permuted, dirs, bracket=(0.3, 2.5), L_schedule=(3,), residual_threshold=0.9, quorum=0.5
            )
            out.add(b"".join(a.tobytes() for a in (rec.radii, rec.residuals, rec.spreads, rec.resolved)))
        assert len(out) == 1


class TestScheduleExhaustion:
    """No degree reaches the quorum: the degree resolving the most directions
    is kept, the earliest one on a tie, and the result is flagged."""

    SCHEDULE = (3, 4, 5, 6)

    @pytest.fixture(scope="class")
    def noisy(self):
        return add_noise(sphere_data(quad=make_quadrature(16, 32), L=12), 0.01, seed=1)

    def reconstruct(self, data, **kw):
        return stable_reconstruct(data, fibonacci_directions(12), bracket=(0.3, 2.5), **kw)

    def test_keeps_the_best_degree(self, noisy):
        # the degrees resolve 7, 3, 1 and 1 of the 12 directions
        rec = self.reconstruct(noisy, L_schedule=self.SCHEDULE, stability_tol=0.01, quorum=1.0)
        assert rec.converged is False
        assert rec.L_selected == 3
        assert rec.resolution_fraction == 7 / 12
        alone = self.reconstruct(noisy, L_schedule=(3,), stability_tol=0.01, quorum=1.0)
        np.testing.assert_array_equal(rec.resolved, alone.resolved)
        # the extraction degree differs (6 against 3), which moves each
        # polished root by rounding only
        np.testing.assert_allclose(rec.radii, alone.radii, rtol=0, atol=1e-8)
        serialize.validate(serialize.reconstruction_to_jsonable(rec), "reconstruction")

    def test_keeps_the_earliest_degree_on_a_tie(self, noisy):
        rec = self.reconstruct(noisy, L_schedule=self.SCHEDULE, stability_tol=1e-12, quorum=1.0)
        assert rec.converged is False
        assert rec.L_selected == 3
        assert rec.resolution_fraction == 0.0
        assert not np.any(rec.resolved)

    def test_first_degree_reaching_the_quorum_is_kept(self, noisy):
        rec = self.reconstruct(noisy, L_schedule=self.SCHEDULE, stability_tol=0.01, quorum=0.5)
        assert rec.converged is True
        assert rec.L_selected == 3
        assert rec.resolution_fraction == 7 / 12


class TestHarmonicModel:
    def test_real_basis_is_orthonormal(self):
        quad = make_quadrature(6, 12)
        B = _real_harmonic_basis(4, quad.theta, quad.phi)
        gram = B.T @ (quad.weights[:, None] * B)
        np.testing.assert_allclose(gram, np.eye(sf.n_modes(4)), rtol=0, atol=1e-13)

    def test_fit_recovers_known_coefficients(self):
        dirs = fibonacci_directions(60)
        coeffs = np.random.default_rng(5).standard_normal(sf.n_modes(4))
        radii = evaluate_harmonic_model(coeffs, 4, dirs)
        # directions outside the mask must not influence the fit
        mask = np.ones(len(dirs), dtype=bool)
        mask[::7] = False
        radii[~mask] = 100.0
        fit = _fit_harmonic_model(dirs, radii, mask, 4)
        np.testing.assert_allclose(fit, coeffs, rtol=0, atol=1e-12)


def test_empty_schedule_is_named():
    data = sphere_data(quad=make_quadrature(8, 16), L=8)
    with pytest.raises(ValueError, match="empty L_schedule"):
        stable_reconstruct(data, fibonacci_directions(4), L_schedule=())


class TestSettingsRefused:
    """stable_reconstruct refuses the settings that the invert configuration
    schema refuses, each by name; NaN fails every check."""

    CASES = {
        "quorum=0": ({"quorum": 0.0}, r"quorum must be in \(0, 1\], got 0.0"),
        "quorum=1.5": ({"quorum": 1.5}, r"quorum must be in \(0, 1\], got 1.5"),
        "quorum=nan": ({"quorum": math.nan}, r"quorum must be in \(0, 1\], got nan"),
        "stability_tol=-0.05": ({"stability_tol": -0.05}, "stability_tol must be > 0, got -0.05"),
        "stability_tol=nan": ({"stability_tol": math.nan}, "stability_tol must be > 0, got nan"),
        "residual_threshold=0": ({"residual_threshold": 0.0}, "residual_threshold must be > 0, got 0.0"),
        "residual_threshold=nan": (
            {"residual_threshold": math.nan}, "residual_threshold must be > 0, got nan"
        ),
        "harmonic_degree=-1": ({"harmonic_degree": -1}, "harmonic_degree must be >= 0, got -1"),
        "L_schedule=(-1, 3)": ({"L_schedule": (-1, 3)}, "L_schedule degrees must be >= 0, got -1"),
        "bracket=(0.5, inf)": ({"bracket": (0.5, math.inf)}, r"invalid bracket \(0.5, inf\)"),
    }

    @pytest.fixture(scope="class")
    def data(self):
        return sphere_data(quad=make_quadrature(8, 16), L=8)

    @pytest.mark.parametrize("settings, message", CASES.values(), ids=CASES.keys())
    def test_refused_by_name(self, data, settings, message):
        kw = {"bracket": (0.3, 2.5), "L_schedule": (3,), **settings}
        with pytest.raises(ValueError, match=message):
            stable_reconstruct(data, fibonacci_directions(4), **kw)


def test_extract_coeffs_refuses_a_negative_degree():
    quad = make_quadrature(6, 12)
    entry = NearFieldEntry(ctx=WaveContext(1.0, Z_HAT), samples=np.zeros(len(quad), dtype=complex))
    with pytest.raises(ValueError, match="truncation degree must be >= 0, got L=-1"):
        extract_coeffs(entry, quad, 3.0, -1)


def _complex_real_harmonic_basis(degree, theta, phi):
    """The real basis as it was built from the complex harmonics: sqrt(2) Re or
    Im of Y[ell, |m|] for m > 0 or m < 0, and Y[ell, 0] for m = 0."""
    ms = sf.mode_orders(degree)
    # column (ell, |m|) sits |m| - m places after column (ell, m)
    Yp = sf.sph_harm_table(degree, theta, phi)[:, np.arange(ms.size) + np.abs(ms) - ms]
    return np.where(ms < 0, Yp.imag, Yp.real) * np.where(ms == 0, 1.0, math.sqrt(2.0))


@pytest.mark.parametrize("degree", range(7))
def test_real_harmonic_basis_matches_the_complex_harmonics(degree):
    # on the fitted directions; cos(m*phi) and the complex power exp(i*phi)**m
    # round apart by up to about 2e-15 at degree 6 on arbitrary azimuths
    dirs = fibonacci_directions(60)
    theta, phi = np.array([d.theta for d in dirs]), np.array([d.phi for d in dirs])
    B = _real_harmonic_basis(degree, theta, phi)
    assert B.shape == (60, sf.n_modes(degree))
    np.testing.assert_allclose(B, _complex_real_harmonic_basis(degree, theta, phi), rtol=0, atol=1e-15)
