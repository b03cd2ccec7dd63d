import numpy as np
import pytest

from fluxweight.problems import problem_data, problem_names

from conftest import make_poly_problem, verify_problem


def test_registry_names():
    assert problem_names() == ["franke", "lshape-singular", "varcoef-peak"]
    with pytest.raises(ValueError):
        problem_data("nope")


@pytest.mark.parametrize("problem", [
    *map(problem_data, problem_names()), make_poly_problem()],
    ids=lambda p: p.name)
def test_pde_consistency(problem):
    # finite differences confirm -div(a grad u) = f at interior points
    assert verify_problem(problem) <= 1e-4


def test_franke_landscape():
    p = problem_data("franke")
    # two peaks and a sink at the documented feature points
    assert p.u(2 / 9, 2 / 9) > 1.0
    assert p.u(7 / 9, 1 / 3) > 0.4
    base = p.u(4 / 9, 7 / 9)
    assert p.u(4 / 9 + 0.1, 7 / 9 + 0.1) > base  # local sink
    assert p.domain == "unit-square"


def test_varcoef_at_origin():
    p = problem_data("varcoef-peak")
    assert p.a(np.array(0.0), np.array(0.0)) == pytest.approx(1.0)
    assert np.abs(p.grad_a(np.array(0.0), np.array(0.0))).max() <= 1e-12
    lo = p.a(np.linspace(0, 1, 100), np.linspace(0, 1, 100)).min()
    assert lo >= 1.0


def test_lshape_singular_part_harmonic():
    from fluxweight.problems import _corner_singular
    rng = np.random.default_rng(6)
    pts = []
    while len(pts) < 100:
        cand = rng.uniform(-1, 1, (400, 2))
        keep = (~((cand[:, 0] >= 0) & (cand[:, 1] <= 0))
                & (np.hypot(cand[:, 0], cand[:, 1]) > 0.1)
                & (np.abs(cand).max(axis=1) < 0.95))
        pts.extend(cand[keep][:100 - len(pts)])
    pts = np.asarray(pts)
    x, y = pts[:, 0], pts[:, 1]
    h = 1e-4

    def us(xx, yy):
        return _corner_singular(xx, yy)[0]

    lap = (us(x + h, y) + us(x - h, y) + us(x, y + h) + us(x, y - h)
           - 4 * us(x, y)) / h ** 2
    assert np.abs(lap).max() <= 1e-3


def test_lshape_singular_vanishes_on_reentrant_edges():
    p = problem_data("lshape-singular")
    from fluxweight.problems import _corner_singular
    x = np.linspace(0.05, 0.95, 20)
    assert np.abs(_corner_singular(x, np.zeros_like(x))[0]).max() <= 1e-14
    y = -x
    assert np.abs(_corner_singular(np.zeros_like(y), y)[0]).max() <= 1e-13


def test_exact_flux_one_sided_at_corner():
    # the flux is evaluable on facets adjacent to the re-entrant corner
    from fluxweight.mesh import build_lshape
    p = problem_data("lshape-singular")
    m = build_lshape(2)
    f = np.arange(m.num_boundary_facets)
    t = np.full(len(f), 0.5)
    pts = m.boundary_points(f, t)
    nrm = m.bf_normal[f]
    lam = p.exact_flux(pts[:, 0], pts[:, 1], nrm[:, 0], nrm[:, 1])
    assert np.isfinite(lam).all()


def _franke_four_parts(x, y):
    """Value, gradient and Laplacian of Franke's surface, all four parts
    in one loop over its terms."""
    from fluxweight.problems import _FRANKE_TERMS
    val = np.zeros_like(np.asarray(x, dtype=float))
    gx = np.zeros_like(val)
    gy = np.zeros_like(val)
    lap = np.zeros_like(val)
    for kind, A, cx, sx, dx, cy, sy, dy in _FRANKE_TERMS:
        tx = cx * x + sx
        ty = cy * y + sy
        if kind == "sq":
            p = -(tx * tx) / dx - (ty * ty) / dy
            px = -2.0 * cx * tx / dx
            py = -2.0 * cy * ty / dy
            pxx = -2.0 * cx * cx / dx
            pyy = -2.0 * cy * cy / dy
        else:
            p = -(tx * tx) / dx - ty / dy
            px = -2.0 * cx * tx / dx
            py = -cy / dy
            pxx = -2.0 * cx * cx / dx
            pyy = 0.0
        e = A * np.exp(p)
        val += e
        gx += e * px
        gy += e * py
        lap += e * (pxx + pyy + px * px + py * py)
    return val, gx, gy, lap


def test_franke_callables_equal_four_part_evaluation():
    # u, grad_u and f agree bit for bit with a plain loop over the four
    # terms
    p = problem_data("franke")
    rng = np.random.default_rng(11)
    x, y = rng.uniform(-0.2, 1.2, (2, 1000))
    val, gx, gy, lap = _franke_four_parts(x, y)
    assert np.array_equal(p.u(x, y), val)
    assert np.array_equal(p.grad_u(x, y), np.stack([gx, gy], axis=-1))
    assert np.array_equal(p.f(x, y), -lap)


@pytest.mark.parametrize("name", problem_names())
def test_f_and_grad_u_in_one_evaluation(name):
    # the solve's load pass reads both from one evaluation, bit for bit
    # those of f and grad_u
    p = problem_data(name)
    rng = np.random.default_rng(12)
    lo, hi = (-1.0, 1.0) if p.domain == "l-shape" else (0.0, 1.0)
    x, y = rng.uniform(lo, hi, (2, 50, 7))
    f, gu = p.f_and_grad_u(x, y)
    assert np.array_equal(f, p.f(x, y))
    assert np.array_equal(gu, p.grad_u(x, y))


@pytest.mark.parametrize("name", problem_names())
def test_callables_broadcast_a_scalar_coordinate(name):
    # on a side of the domain, E2's boundary data passes the coordinate
    # that does not vary, and the normal, as scalars: every callable
    # returns the full-array result, bit for bit
    problem = problem_data(name)
    t = np.linspace(-0.9, 0.95, 12).reshape(3, 4)
    for x, y in ((0.5, t), (t, -0.75), (1.0, t), (t, 0.0)):
        X, Y = (np.array(v) for v in np.broadcast_arrays(x, y))
        for fn in (problem.solution, problem.a, problem.grad_a):
            got, want = fn(x, y), fn(X, Y)
            for g, w in zip(*(v if isinstance(v, tuple) else (v,)
                              for v in (got, want))):
                assert np.shape(g) == np.shape(w)
                assert np.array_equal(g, w)
        nx, ny = 0.6, -0.8
        got = problem.exact_flux(x, y, nx, ny)
        want = problem.exact_flux(X, Y, np.full(X.shape, nx),
                                  np.full(X.shape, ny))
        assert got.shape == want.shape == t.shape
        assert np.array_equal(got, want)
