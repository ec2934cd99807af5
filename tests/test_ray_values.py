"""``_ray_values`` computes g' only when asked: the ray search asks for it in
the Newton polish alone, not on its grid nor for the residual at a root.
p and g are bitwise the same either way."""

import numpy as np

from mrcscatter import inverse_solver
from mrcscatter.direct_solver import CoefficientSet, WaveContext
from mrcscatter.geometry import Direction, fibonacci_directions
from mrcscatter.inverse_solver import _ray_roots, _ray_values, _ray_weights

CTX = WaveContext(1.2, Direction(0.4, 0.3))


def coefficients(L=5):
    rng = np.random.default_rng(11)
    c = (rng.normal(size=(L + 1) ** 2) + 1j * rng.normal(size=(L + 1) ** 2)) * 0.3
    return CoefficientSet(L, c)


def test_p_and_g_are_bitwise_without_the_derivative():
    W, cosang = _ray_weights(coefficients(), CTX, fibonacci_directions(5))
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
    roots = _ray_roots([coefficients()], [CTX], fibonacci_directions(12), (0.3, 2.5), 64, 1.0)[0]
    assert any(roots)
    # the grid first, then the Newton steps, then the residual at the polished
    # roots (and golden sections where g has no sign change)
    newton = calls.count(True)
    assert newton and calls == [False] + [True] * newton + [False] * (len(calls) - newton - 1)
