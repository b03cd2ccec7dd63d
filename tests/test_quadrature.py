import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import roots_jacobi

from fluxweight.quadrature import gauss_jacobi, segment_rule, triangle_rule


def monomial_integral(a, b):
    # integral of x^a y^b over the reference triangle
    return float(Fraction(math.factorial(a) * math.factorial(b),
                          math.factorial(a + b + 2)))


def test_triangle_constant():
    pts, w = triangle_rule(1)
    assert abs(w.sum() - 0.5) < 1e-15


def test_segment_two_point_cubic():
    pts, w = segment_rule(3)
    assert len(pts) == 2
    assert abs((w * pts**3).sum() - 0.25) < 1e-15


def test_triangle_degree6_monomial():
    pts, w = triangle_rule(6)
    val = (w * pts[:, 0] ** 2 * pts[:, 1] ** 4).sum()
    assert abs(val - monomial_integral(2, 4)) < 1e-16


@pytest.mark.parametrize("deg", range(0, 13))
def test_triangle_exactness_all_monomials(deg):
    pts, w = triangle_rule(deg)
    assert (w > 0).all()
    assert abs(w.sum() - 0.5) < 1e-14
    for a in range(deg + 1):
        for b in range(deg + 1 - a):
            val = (w * pts[:, 0] ** a * pts[:, 1] ** b).sum()
            exact = monomial_integral(a, b)
            assert abs(val - exact) <= 1e-14 * max(1.0, abs(exact))


@pytest.mark.parametrize("deg", range(0, 21))
def test_segment_exactness(deg):
    pts, w = segment_rule(deg)
    assert (w > 0).all()
    for a in range(deg + 1):
        assert abs((w * pts**a).sum() - 1.0 / (a + 1)) < 1e-14


@pytest.mark.parametrize("alpha, beta, exact", [
    (1.0, 0.0, True), (2.0, 1.0, True), (0.0, 0.0, False),
    (-0.5, 0.3, False)])
def test_gauss_jacobi_matches_scipy(alpha, beta, exact):
    # the triangle rules use alpha = 1, beta = 0 with n <= 7 points, and
    # get scipy's rules bit for bit; scipy takes another route for
    # alpha == beta, and its binomials round differently for
    # non-integer alpha
    for n in range(1, 9):
        x, w = gauss_jacobi(n, alpha, beta)
        xs, ws = roots_jacobi(n, alpha, beta)
        if exact:
            assert np.array_equal(x, xs) and np.array_equal(w, ws), n
        assert np.abs(x - xs).max() <= 1e-15
        assert np.abs(w - ws).max() <= 1e-14 * ws.max()


def test_unsupported_degrees_rejected():
    with pytest.raises(ValueError):
        triangle_rule(13)
    with pytest.raises(ValueError):
        segment_rule(21)
