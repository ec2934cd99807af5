"""``_ray_values`` computes g' only when asked: the ray search asks for it in
the Newton polish alone, not on its grid nor for the residual at a root.
p and g are bitwise the same either way.

``ray_weights`` and ``search_roots`` below read the ray search's kernels the way
``stable_reconstruct`` calls them, for the tests of the search here and in
test_inverse_solver.py, test_batched_vs_scalar.py and test_entry_batch.py.
"""

import numpy as np

from mrcscatter import inverse_solver, specfun
from mrcscatter.direct_solver import CoefficientSet, WaveContext
from mrcscatter.geometry import Direction, fibonacci_directions
from mrcscatter.inverse_solver import (
    RayRoot,
    _angles,
    _degree_weights,
    _incidence,
    _ray_values,
    _search,
)

CTX = WaveContext(1.2, Direction(0.4, 0.3))


def ray_weights(coeffs, ctx, dirs):
    """One entry's per-degree weights, shape (n_dir, L+1), and incidence cosines (n_dir,)."""
    W = _degree_weights(specfun.sph_harm_table(coeffs.L, *_angles(dirs)), [coeffs])
    return W[0], _incidence(dirs, [ctx])[0][0]


def search_roots(coeffs, ctxs, dirs, bracket, grid_n, residual_threshold):
    """One ``_search`` over every direction and entry (its coefficient set and context) at one
    degree, its candidates as RayRoots in a list per entry of lists per direction."""
    W = _degree_weights(specfun.sph_harm_table(coeffs[0].L, *_angles(dirs)), coeffs)
    found = _search(W, *_incidence(dirs, ctxs), bracket, grid_n, residual_threshold)
    roots = [[[] for _ in dirs] for _ in ctxs]
    for e, d, r, f, s in zip(*(v.tolist() for v in found[:5])):
        roots[e][d].append(RayRoot(dir_out=dirs[d], r=r, residual=f, imag_score=s))
    return roots


def coefficients(L=5):
    rng = np.random.default_rng(11)
    c = (rng.normal(size=(L + 1) ** 2) + 1j * rng.normal(size=(L + 1) ** 2)) * 0.3
    return CoefficientSet(L, c)


def test_p_and_g_are_bitwise_without_the_derivative():
    W, cosang = ray_weights(coefficients(), CTX, fibonacci_directions(5))
    r = np.linspace(0.4, 2.5, 64)
    p, g, dg = _ray_values(W[:, None], cosang[:, None], CTX.k, r)
    p0, g0, none = _ray_values(W[:, None], cosang[:, None], CTX.k, r, False)
    assert none is None and dg.shape == g.shape
    assert p0.tobytes() == p.tobytes() and g0.tobytes() == g.tobytes()


def test_only_the_newton_polish_asks_for_the_derivative(monkeypatch):
    calls = []

    def spy(W, cosang, k, r, dg=True):
        calls.append(dg)
        return _ray_values(W, cosang, k, r, dg)

    monkeypatch.setattr(inverse_solver, "_ray_values", spy)
    roots = search_roots([coefficients()], [CTX], fibonacci_directions(12), (0.3, 2.5), 64, 1.0)[0]
    assert any(roots)
    # the grid first, then the Newton steps, then the residual at the polished
    # roots (and golden sections where g has no sign change)
    newton = calls.count(True)
    assert newton and calls == [False] + [True] * newton + [False] * (len(calls) - newton - 1)
