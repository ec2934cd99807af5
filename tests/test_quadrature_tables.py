"""The harmonic tables a quadrature owns, and the polar-axis read of a surface
of revolution.

A ``SphereQuadrature`` builds its Legendre table on ``theta_axis``, that
table's theta-derivative and the azimuth factors on ``phi_axis`` once, at the
degree first asked for, and rebuilds one only when a larger degree is asked
for; a smaller degree reads a slice.  The recurrences ascend in degree and
order, so every slice must be bitwise the table built fresh at its degree,
whatever the order the degrees are asked in.  On an axisymmetric surface
``mrc_solve`` reads the radial map once per block of four steps, on the n_theta
polar nodes of each distinct rule of the block, and the per-order system it
builds must be bitwise the one built from a full-grid read.
"""

import math

import numpy as np
import pytest

from mrcscatter import direct_solver
from mrcscatter import specfun as sf
from mrcscatter.direct_solver import (
    WaveContext,
    _incident,
    _read_boundary,
    assemble_basis_matrix,
    mrc_solve,
)
from mrcscatter.fields import project_far_field
from mrcscatter.geometry import (
    Direction,
    Ellipsoid,
    PerturbedSphere,
    Sphere,
    make_quadrature,
    quadrature_for_degree,
)
from test_mirror_split import built_degrees

BUMPY = PerturbedSphere(1.0, [(2, 0, 0.2), (4, 0, 0.05)])
CTX = WaveContext(1.0, Direction(math.pi / 4, 0.3))
EPS = {"dirichlet": 1e-6, "neumann": 1e-4}
RULES = {
    "degree16": lambda: quadrature_for_degree(16),
    "degree25": lambda: quadrature_for_degree(25),
    "degree48": lambda: quadrature_for_degree(48),
    "24x48": lambda: make_quadrature(24, 48),
}


def assert_tables_are_fresh(quad, L):
    th = quad.theta_axis
    P = sf._norm_legendre_table(L, np.cos(th), np.sin(th))
    np.testing.assert_array_equal(quad.legendre(L), P)
    np.testing.assert_array_equal(quad.legendre_dtheta(L), sf._norm_legendre_dtheta_table(L, P))
    np.testing.assert_array_equal(quad.azimuths(L), sf._azimuth_factors(L, quad.phi_axis))


@pytest.mark.parametrize("rule", RULES.values(), ids=RULES.keys())
def test_slices_of_the_top_degree_tables_are_fresh_tables(rule):
    quad = rule()
    top = quad.degree // 2
    quad.legendre(top), quad.legendre_dtheta(top), quad.azimuths(top)
    for L in range(top + 1):
        assert_tables_are_fresh(quad, L)


@pytest.mark.parametrize("rule", RULES.values(), ids=RULES.keys())
def test_tables_grown_degree_by_degree_are_fresh_tables(rule):
    shape = rule()
    quad = make_quadrature(shape.n_theta, shape.n_phi)
    for L in range(quad.degree // 2 + 1):
        assert_tables_are_fresh(quad, L)
    assert_tables_are_fresh(quad, 1)


def test_tables_are_read_only_and_built_once(monkeypatch):
    builds = []
    for name in ("_norm_legendre_table", "_norm_legendre_dtheta_table", "_azimuth_factors"):
        def counting(L, *args, name=name, build=getattr(sf, name)):
            builds.append((name, L))
            return build(L, *args)

        monkeypatch.setattr(sf, name, counting)
    quad = make_quadrature(10, 20)
    for L in (6, 3, 0, 6, 5):
        tables = quad.legendre(L), quad.legendre_dtheta(L), quad.azimuths(L), quad.vectors
        for table in tables:
            assert not table.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 0.0
    assert sorted(builds) == [
        ("_azimuth_factors", 6), ("_norm_legendre_dtheta_table", 6), ("_norm_legendre_table", 6)
    ]
    assert quad.vectors is quad.vectors
    np.testing.assert_array_equal(quad.vectors[: quad.n_phi, 2], np.cos(quad.theta_axis[0]))
    quad.legendre(9)
    assert builds[3:] == [("_norm_legendre_table", 9)]


def test_aliasing_is_still_rejected_above_half_the_degree():
    quad = make_quadrature(10, 20)  # degree 19
    quad.check_aliasing(9)
    quad.legendre(12)  # a synthesis may read the tables above it
    with pytest.raises(ValueError, match="aliasing"):
        quad.check_aliasing(10)
    with pytest.raises(ValueError, match="aliasing"):
        project_far_field(np.ones(len(quad)), quad, 10)
    with pytest.raises(ValueError, match="aliasing"):
        assemble_basis_matrix(Ellipsoid(1.0, 0.95, 0.9), quad, CTX, 10, "dirichlet")


@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
@pytest.mark.parametrize("surface", [Sphere(1.0), BUMPY], ids=["sphere", "bumpy"])
def test_surface_of_revolution_is_read_on_the_polar_axis(surface, bc, monkeypatch):
    reads, systems = [], []
    radial_map = type(surface).radial_map

    def counting(self, theta, phi):
        reads.append(np.shape(theta))
        return radial_map(self, theta, phi)

    monkeypatch.setattr(type(surface), "radial_map", counting)
    order_system = direct_solver._order_system

    def recording(quad, hankel, L, bc, f, normal, scale, bh):
        system = order_system(quad, hankel, L, bc, f, normal, scale, bh)
        systems.append((quad, L, bh, system))
        return system

    monkeypatch.setattr(direct_solver, "_order_system", recording)
    sol = mrc_solve(surface, CTX, bc, eps_target=EPS[bc], L_max=14)
    steps = [L for L, _ in sol.history]
    # one read per block L..L+3 reached, on the polar nodes of its distinct rules
    blocks = [{max(math.ceil(2.5 * L), 16) for L in range(first, min(first + 4, 15))}
              for first in range(0, steps[-1] + 1, 4)]
    assert reads == [(sum(quadrature_for_degree(d).n_theta for d in rules),) for rules in blocks]
    assert [L for _, L, _, _ in systems] == built_degrees(sol)

    # the same system from a full-grid read, sliced to the polar axis
    for quad, L, bh, (A, rhs, rest, modes) in systems:
        f, normal, scale = _read_boundary(surface, quad)
        assert reads.pop() == (len(quad),)
        b_ref = _incident(quad, CTX, bc, f, normal) * scale
        bh_ref = np.fft.fft(b_ref.reshape(quad.n_theta, quad.n_phi), axis=1, norm="ortho")
        axis = slice(None, None, quad.n_phi)
        f, normal, scale = f[axis], [x[axis] for x in normal], scale[axis]
        hankel = (sf.hankel_out_table(L, CTX.k, f),) if bc == "dirichlet" else sf._hankel_out_pair(L, CTX.k, f)
        ref = order_system(quad, hankel, L, bc, f, normal, scale, bh_ref)
        assert bh.tobytes() == bh_ref.tobytes()
        for got, want in zip((A, rhs, rest), ref[:3]):
            assert got.tobytes() == want.tobytes()
        assert all(np.array_equal(g, w) for g, w in zip(modes, ref[3]))


@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
@pytest.mark.parametrize("surface", [BUMPY, Ellipsoid(1.0, 0.95, 0.9)], ids=["bumpy", "ellipsoid"])
def test_cold_and_warm_solves_are_bitwise_equal(surface, bc):
    def solve():
        sol = mrc_solve(surface, CTX, bc, eps_target=EPS[bc], L_max=14)
        return sol.coefficients.coeffs.tobytes(), sol.history, sol.rank, sol.condition, sol.residual

    warm = solve()
    quadrature_for_degree.cache_clear()
    assert solve() == warm
    assert solve() == warm
