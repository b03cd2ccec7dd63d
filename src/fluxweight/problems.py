"""Registered benchmark problems with closed-form data.

Each entry carries the diffusion coefficient and its gradient and two
hand-differentiated callables: the exact solution u with grad(u)
(solution), whose trace is the Dirichlet data, and the manufactured
source f = -div(a grad u) with grad(u) (f_and_grad_u), which the
solve's load pass reads; ProblemSpec derives u, grad_u and f from
them.  Every callable broadcasts its coordinates: on a side of the
domain, E2's boundary data passes the coordinate that does not vary as
a scalar.  A finite-difference consistency test guards the algebra
(verify_problem in tests/conftest.py).
"""

import numpy as np

from .methods import ProblemSpec

PEAK_STRENGTH = 200.0
PEAK_CENTER = (0.2, 0.2)

# Franke's test surface: four exponential bumps/sinks on the unit square.
_FRANKE_TERMS = (
    # (amplitude, px coefficients (c, s): p = -(c*x + s)^2-style pieces)
    ("sq", 0.75, 9.0, -2.0, 4.0, 9.0, -2.0, 4.0),
    ("mix", 0.75, 9.0, 1.0, 49.0, 9.0, 1.0, 10.0),
    ("sq", 0.50, 9.0, -7.0, 4.0, 9.0, -3.0, 4.0),
    ("sq", -0.20, 9.0, -4.0, 1.0, 9.0, -7.0, 1.0),
)


def _franke_terms(x, y):
    """Per Franke term: A*exp(p) and the first and second derivatives
    (px, py, pxx, pyy) of its exponent p."""
    for kind, A, cx, sx, dx, cy, sy, dy in _FRANKE_TERMS:
        tx = cx * x + sx
        ty = cy * y + sy
        if kind == "sq":
            p = -(tx * tx) / dx - (ty * ty) / dy
        else:  # squared in x, linear in y
            p = -(tx * tx) / dx - ty / dy
        e = A * np.exp(p)
        px = -2.0 * cx * tx / dx
        pxx = -2.0 * cx * cx / dx
        if kind == "sq":
            py = -2.0 * cy * ty / dy
            pyy = -2.0 * cy * cy / dy
        else:
            py = -cy / dy
            pyy = 0.0
        yield e, (px, py, pxx, pyy)


def _gauss_peak(x, y):
    """Value, gradient and Laplacian of the sharp interior peak."""
    ap = PEAK_STRENGTH
    xp, yp = PEAK_CENTER
    dx = x - xp
    dy = y - yp
    e = np.exp(-ap * (dx * dx + dy * dy))
    gx = -2.0 * ap * dx * e
    gy = -2.0 * ap * dy * e
    lap = (-4.0 * ap + 4.0 * ap * ap * (dx * dx + dy * dy)) * e
    return e, gx, gy, lap


def _shape(x, y):
    """Shape of the points (x, y): a coordinate that is the same at
    every point may come as a scalar (norms._dyadic_boundary_data)."""
    return np.broadcast_shapes(np.shape(x), np.shape(y))


def _ones(x, y):
    return np.ones(_shape(x, y))


def _zeros2(x, y):
    return np.zeros(_shape(x, y) + (2,))


def _franke():
    def solution(x, y):
        val = np.zeros(_shape(x, y))
        gx = np.zeros_like(val)
        gy = np.zeros_like(val)
        for e, (px, py, _, _) in _franke_terms(x, y):
            val += e
            gx += e * px
            gy += e * py
        return val, np.stack([gx, gy], axis=-1)

    def f_and_grad_u(x, y):
        lap = np.zeros(_shape(x, y))
        gx = np.zeros_like(lap)
        gy = np.zeros_like(lap)
        for e, (px, py, pxx, pyy) in _franke_terms(x, y):
            lap += e * (pxx + pyy + px * px + py * py)
            gx += e * px
            gy += e * py
        return -lap, np.stack([gx, gy], axis=-1)

    return ProblemSpec("franke", "unit-square", _ones, _zeros2,
                       solution=solution, f_and_grad_u=f_and_grad_u)


def _varcoef_peak():
    def a(x, y):
        r = np.hypot(x, y)
        s = np.sin(np.pi * r)
        return 1.0 + s * s

    def grad_a(x, y):
        r = np.hypot(x, y)
        # pi*sin(2 pi r)/r -> 2 pi^2 as r -> 0
        with np.errstate(invalid="ignore", divide="ignore"):
            fac = np.where(r > 1e-12,
                           np.pi * np.sin(2.0 * np.pi * r) / np.maximum(r, 1e-300),
                           2.0 * np.pi * np.pi)
        return np.stack([fac * x, fac * y], axis=-1)

    def solution(x, y):
        e, gx, gy, _ = _gauss_peak(x, y)
        return e, np.stack([gx, gy], axis=-1)

    def f_and_grad_u(x, y):
        _, gx, gy, lap = _gauss_peak(x, y)
        ga = grad_a(x, y)
        return (-(a(x, y) * lap + ga[..., 0] * gx + ga[..., 1] * gy),
                np.stack([gx, gy], axis=-1))

    return ProblemSpec("varcoef-peak", "unit-square", a, grad_a,
                       solution=solution, f_and_grad_u=f_and_grad_u)


def _corner_angle(x, y):
    """Polar angle in [0, 3*pi/2] measured from the re-entrant edge y=0, x>0."""
    th = np.arctan2(y, x)
    return np.where(th < 0.0, th + 2.0 * np.pi, th)


def _corner_singular(x, y):
    """r^(2/3) sin(2 theta / 3): harmonic, vanishing on both re-entrant edges."""
    al = 2.0 / 3.0
    r = np.hypot(x, y)
    th = _corner_angle(x, y)
    with np.errstate(invalid="ignore", divide="ignore"):
        rm = np.where(r > 0.0, r ** (al - 1.0), 0.0)
    val = r ** al * np.sin(al * th)
    gx = al * rm * np.sin((al - 1.0) * th)
    gy = al * rm * np.cos((al - 1.0) * th)
    return val, gx, gy


def _lshape_singular():
    def solution(x, y):
        sv, sx, sy = _corner_singular(x, y)
        e, gx, gy, _ = _gauss_peak(x, y)
        return sv + e, np.stack([sx + gx, sy + gy], axis=-1)

    def f_and_grad_u(x, y):
        # the singular part is harmonic: only the peak contributes to f
        _, sx, sy = _corner_singular(x, y)
        _, gx, gy, lap = _gauss_peak(x, y)
        return -lap, np.stack([sx + gx, sy + gy], axis=-1)

    return ProblemSpec("lshape-singular", "l-shape", _ones, _zeros2,
                       solution=solution, f_and_grad_u=f_and_grad_u)


_REGISTRY = {
    "franke": _franke,
    "varcoef-peak": _varcoef_peak,
    "lshape-singular": _lshape_singular,
}


def problem_names():
    return sorted(_REGISTRY)


def problem_data(name):
    """Return the registered ProblemSpec for `name`."""
    try:
        return _REGISTRY[name]()
    except KeyError:
        raise ValueError(f"unknown problem {name!r}; "
                         f"registered: {', '.join(problem_names())}") from None
