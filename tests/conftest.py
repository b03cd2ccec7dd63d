import numpy as np
import pytest

from fluxweight.mesh import Mesh, build_unit_square, refine
from fluxweight.methods import ProblemSpec
from fluxweight.quadrature import segment_rule, triangle_rule


def make_linear_problem(cx=2.0, cy=3.0, c0=1.0):
    """u = cx*x + cy*y + c0 with unit coefficient: every method is exact."""
    return ProblemSpec(
        name="linear", domain="unit-square",
        a=lambda x, y: np.ones_like(np.asarray(x, dtype=float)),
        grad_a=lambda x, y: np.zeros(np.shape(np.asarray(x)) + (2,)),
        f=lambda x, y: np.zeros_like(np.asarray(x, dtype=float)),
        u=lambda x, y: cx * x + cy * y + c0,
        grad_u=lambda x, y: np.stack(
            [np.full_like(np.asarray(x, dtype=float), cx),
             np.full_like(np.asarray(y, dtype=float), cy)], axis=-1),
    )


def make_gentle_problem():
    """u = x^3 y + sin(pi x) with a = 1 + x/2 + y^2: smooth data at
    unit scale, so assembly quadrature truncation sits at roundoff."""
    def a(x, y):
        return 1.0 + 0.5 * x + y * y

    def grad_a(x, y):
        return np.stack([np.full_like(np.asarray(x, dtype=float), 0.5),
                         2.0 * np.asarray(y, dtype=float)], axis=-1)

    def u(x, y):
        return x ** 3 * y + np.sin(np.pi * x)

    def grad_u(x, y):
        return np.stack([3 * x * x * y + np.pi * np.cos(np.pi * x),
                         x ** 3 + np.zeros_like(np.asarray(y, dtype=float))],
                        axis=-1)

    def f(x, y):
        lap = 6 * x * y - np.pi ** 2 * np.sin(np.pi * x)
        gu = grad_u(x, y)
        return -(a(x, y) * lap + 0.5 * gu[..., 0] + 2 * y * gu[..., 1])

    return ProblemSpec(name="gentle", domain="unit-square", a=a,
                       grad_a=grad_a, f=f, u=u, grad_u=grad_u)


def distorted_square4():
    """square4 with some triangles bisected once or twice and its interior
    vertices moved, so that the element Jacobians differ in size,
    orientation and shape (those of right isosceles triangles are all
    multiples of orthogonal matrices)."""
    m = refine(build_unit_square(4), [0, 5, 17, 30])
    m = refine(m, [1, 8, 20, m.num_triangles - 1])
    x, y = m.vertices.T
    bump = 0.06 * np.sin(np.pi * x) * np.sin(np.pi * y)
    return Mesh(m.vertices + bump[:, None] * [1.0, -0.6], m.triangles,
                m.domain)


def interpolate(space, fn):
    """Nodal interpolation of fn(x, y) onto a FeSpace."""
    out = np.empty(space.ndof)
    pts = space.mesh.triangle_points(np.arange(space.mesh.num_triangles),
                                     space.element.nodes)
    vals = fn(pts[..., 0], pts[..., 1])
    out[space.tri_dofs.ravel()] = vals.ravel()
    return out


def eval_cells(space, coeffs, tri_ids, ref_pts):
    """Values of a discrete function at reference points of the given
    triangles, shape (len(tri_ids), len(ref_pts))."""
    vals = space.element.eval(ref_pts)  # (nq, nd)
    return np.einsum("tj,qj->tq", coeffs[space.tri_dofs[tri_ids]], vals)


def assemble_grad_load(space, vec_field, degree=None):
    """Vector r_i = integral of vec_field . grad(phi_i), with
    vec_field(x, y) -> (..., 2).  Built from the physical basis
    gradients at every quadrature point, independently of the
    reference-tensor kernels of fluxweight.fem."""
    mesh, el = space.mesh, space.element
    if degree is None:
        degree = 2 * space.order + 4
    qp, qw = triangle_rule(degree)
    gref = el.grad(qp)
    r = np.zeros(space.ndof)
    _, invJT, det = mesh.jacobians()
    g = np.einsum("tab,qjb->tqja", invJT, gref)
    pts = mesh.triangle_points(np.arange(mesh.num_triangles), qp)
    fv = vec_field(pts[..., 0], pts[..., 1])
    re = np.einsum("tqa,tqja,q,t->tj", fv, g, qw, det)
    np.add.at(r, space.tri_dofs, re)
    return r


def facet_point_basis(space, facet_ids, t, gradients=False):
    """Trace of the bulk basis at per-point facet parameters, one point
    at a time: facet_ids and t are arrays of equal length n; returns
    (values (n, nd), grads (n, nd, 2) or None, dofs (n, nd)).  The
    parameter runs counterclockwise along the boundary."""
    mesh = space.mesh
    tri = mesh.bf_tri[facet_ids]
    le = mesh.bf_local[facet_ids]
    ref_verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    A = ref_verts[(le + 1) % 3]
    B = ref_verts[(le + 2) % 3]
    pts = A + np.asarray(t, dtype=float)[:, None] * (B - A)
    vals = space.element.eval(pts)
    grads = None
    if gradients:
        _, invJT, _ = mesh.jacobians(tri)
        grads = np.einsum("nab,njb->nja", invJT, space.element.grad(pts))
    return vals, grads, space.tri_dofs[tri]


def multiplier_values(bspace, coeffs, facet_ids, t):
    """A multiplier function at per-point facet parameters, from the
    Lagrange basis of its BoundarySpace."""
    return np.einsum("nj,nj->n", coeffs[bspace.facet_dofs[facet_ids]],
                     bspace.eval(t))


def bulk_trace(solution, facet_ids, t):
    """u_h and dn(u_h) at facet parameters, from the bulk basis of the
    solution's space (one-sided, from the facet's element)."""
    vals, grads, dofs = facet_point_basis(solution.space, facet_ids, t,
                                          gradients=True)
    co = solution.coeffs[dofs]
    gu = np.einsum("nj,nja->na", co, grads)
    nrm = solution.mesh.bf_normal[facet_ids]
    return (np.einsum("nj,nj->n", co, vals),
            gu[:, 0] * nrm[:, 0] + gu[:, 1] * nrm[:, 1])


def exact_flux_integral_defect(solution, degree=16):
    """integral(lambda - lambda_h) computed with high-degree quadrature."""
    problem = solution.problem
    mesh = solution.mesh
    t, w = segment_rule(degree)
    facets = np.arange(mesh.num_boundary_facets)
    frep = np.repeat(facets, len(t))
    trep = np.tile(t, len(facets))
    pts = mesh.boundary_points(frep, trep)
    nrm = mesh.bf_normal[frep]
    lam = problem.exact_flux(pts[:, 0], pts[:, 1], nrm[:, 0], nrm[:, 1])
    lam_h = solution.flux_values(frep, trep)
    lenw = np.tile(w, len(facets)) * mesh.bf_len[frep]
    return float(((lam - lam_h) * lenw).sum())


@pytest.fixture(scope="session")
def linear_problem():
    return make_linear_problem()


@pytest.fixture(scope="session")
def gentle_problem():
    return make_gentle_problem()


@pytest.fixture(scope="session")
def square4():
    return build_unit_square(4)


@pytest.fixture(scope="session")
def square8():
    return build_unit_square(8)
