"""Quadrature rules on the reference segment and reference triangle.

The reference segment is [0, 1]; the reference triangle is
{(x, y) : x >= 0, y >= 0, x + y <= 1} with measure 1/2.

Segment rules are Gauss-Legendre.  Triangle rules use the conical-product
construction (Gauss-Jacobi in the collapsed coordinate times
Gauss-Legendre), which gives positive weights and the requested
polynomial exactness for any degree without tabulated point sets.
"""

from functools import lru_cache

import numpy as np
from scipy.special import roots_jacobi

MAX_TRIANGLE_DEGREE = 12
MAX_SEGMENT_DEGREE = 20


@lru_cache(maxsize=None)
def segment_rule(degree):
    """Gauss-Legendre rule on [0, 1] exact for polynomials of `degree`.

    Returns (points, weights) with points of shape (n,) and positive
    weights summing to 1.
    """
    if not 0 <= degree <= MAX_SEGMENT_DEGREE:
        raise ValueError(f"unsupported segment quadrature degree {degree}")
    n = max(1, (degree + 2) // 2)
    x, w = np.polynomial.legendre.leggauss(n)
    return (x + 1.0) / 2.0, w / 2.0


@lru_cache(maxsize=None)
def triangle_rule(degree):
    """Conical-product rule on the reference triangle, exact for `degree`.

    Returns (points, weights); points have shape (n, 2) and the positive
    weights sum to 1/2.
    """
    if not 0 <= degree <= MAX_TRIANGLE_DEGREE:
        raise ValueError(f"unsupported triangle quadrature degree {degree}")
    n = max(1, (degree + 2) // 2)
    # xi direction carries the Jacobian weight (1 - xi).
    xj, wj = roots_jacobi(n, 1.0, 0.0)
    xi = (xj + 1.0) / 2.0
    wxi = wj / 4.0
    eta, weta = segment_rule(degree)
    pts = np.empty((n * len(eta), 2))
    wts = np.empty(n * len(eta))
    idx = 0
    for i in range(n):
        for j in range(len(eta)):
            pts[idx, 0] = xi[i]
            pts[idx, 1] = eta[j] * (1.0 - xi[i])
            wts[idx] = wxi[i] * weta[j]
            idx += 1
    return pts, wts
