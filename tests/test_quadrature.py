import math
from fractions import Fraction

import pytest

from fluxweight.quadrature import segment_rule, triangle_rule


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


def test_unsupported_degrees_rejected():
    with pytest.raises(ValueError):
        triangle_rule(13)
    with pytest.raises(ValueError):
        segment_rule(21)
