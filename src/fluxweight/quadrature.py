"""Quadrature rules on the reference segment and reference triangle.

The reference segment is [0, 1]; the reference triangle is
{(x, y) : x >= 0, y >= 0, x + y <= 1} with measure 1/2.

Segment rules are Gauss-Legendre.  Triangle rules use the conical-product
construction (Gauss-Jacobi in the collapsed coordinate times
Gauss-Legendre), which gives positive weights and the requested
polynomial exactness for any degree without tabulated point sets.  The
Gauss-Jacobi rules come from the eigenvalues of the Jacobi matrix
(Golub-Welsch, gauss_jacobi), so the module needs numpy alone.
"""

import math
from functools import lru_cache

import numpy as np

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


def _jacobi(n, alpha, beta, x):
    """Jacobi polynomial P_n^(alpha, beta) at x, by the three-term
    recurrence written for the differences d_k = p_k - p_(k-1) of the
    polynomials p_k = P_k / binom(k + alpha, k)."""
    if n == 0:
        return np.ones_like(x)
    if n == 1:
        return 0.5 * (2 * (alpha + 1) + (alpha + beta + 2) * (x - 1))
    d = (alpha + beta + 2) * (x - 1) / (2 * (alpha + 1))
    p = d + 1
    for k in range(1, n):
        t = 2 * k + alpha + beta
        d = ((t * (t + 1) * (t + 2)) * (x - 1) * p
             + 2 * k * (k + beta) * (t + 2) * d) / (
                 2 * (k + alpha + 1) * (k + alpha + beta + 1) * t)
        p = d + p
    binom = math.gamma(n + alpha + 1) / (math.gamma(n + 1)
                                         * math.gamma(alpha + 1))
    return binom * p


def gauss_jacobi(n, alpha, beta):
    """n-point Gauss rule on [-1, 1] for the weight
    (1 - x)^alpha (1 + x)^beta, with alpha, beta > -1 and
    alpha + beta > -1.  Returns (points, weights), the points ascending.

    Golub-Welsch: the points are the eigenvalues of the symmetric
    tridiagonal Jacobi matrix, polished by one Newton step on P_n; the
    weights are 1 / (P_(n-1)(x) P_n'(x)), with P_n' from the Newton
    step and both factors rescaled against overflow, normalized to the
    integral mu_0 of the weight.
    The steps follow scipy.special.roots_jacobi, whose points and
    weights they reproduce bit for bit for integer alpha and beta.
    """
    k = np.arange(1, n, dtype=float)
    s = 2 * k + alpha + beta
    diag = np.append((beta - alpha) / (alpha + beta + 2),
                     (beta * beta - alpha * alpha) / (s * (s + 2)))
    off = 2 / s * np.sqrt((k + alpha) * (k + beta) / (s + 1))
    off[1:] *= np.sqrt(k[1:] * (k[1:] + alpha + beta) / (s[1:] - 1))
    x = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1)
                           + np.diag(off, -1))
    dy = (0.5 * (n + alpha + beta + 1)
          * _jacobi(n - 1, alpha + 1, beta + 1, x))
    x = x - _jacobi(n, alpha, beta, x) / dy
    fm = _jacobi(n - 1, alpha, beta, x)
    for v in (fm, dy):
        logs = np.log(np.abs(v))
        v /= np.exp((logs.max() + logs.min()) / 2)
    w = 1 / (fm * dy)
    mu0 = 2.0 ** (alpha + beta + 1) * math.gamma(alpha + 1) * math.gamma(
        beta + 1) / math.gamma(alpha + beta + 2)
    return x, w * (mu0 / w.sum())


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
    xj, wj = gauss_jacobi(n, 1.0, 0.0)
    xi = (xj + 1.0) / 2.0
    wxi = wj / 4.0
    eta, weta = segment_rule(degree)
    # point (i, j) at row i * len(eta) + j
    pts = np.column_stack([np.repeat(xi, len(eta)),
                           np.outer(1.0 - xi, eta).ravel()])
    return pts, np.outer(wxi, weta).ravel()
