import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.csgraph import reverse_cuthill_mckee
from scipy.sparse.linalg import splu

from fluxweight import fem, norms
from fluxweight.mesh import (Mesh, build_unit_square, distance_to_boundary,
                             domain_polygon, refine)
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


def make_poly_problem():
    """u = 1 + x*y - x^2 with unit coefficient, so f = 2: quadratic data
    that P1 does not reproduce."""
    return ProblemSpec(
        name="poly", domain="unit-square",
        a=lambda x, y: np.ones_like(np.asarray(x, dtype=float)),
        grad_a=lambda x, y: np.zeros(np.shape(np.asarray(x)) + (2,)),
        f=lambda x, y: np.full_like(np.asarray(x, dtype=float), 2.0),
        u=lambda x, y: 1.0 + x * y - x * x,
        grad_u=lambda x, y: np.stack(np.broadcast_arrays(y - 2.0 * x, x),
                                     axis=-1))


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


def verify_problem(problem, n_points=100, step=1e-5, rtol=1e-4, seed=7):
    """Finite-difference check that -div(a grad u) = f at interior points.

    Returns the worst normalized defect; raises if it exceeds rtol.
    """
    rng = np.random.default_rng(seed)
    poly = domain_polygon(problem.domain)
    lo, hi = poly.min(axis=0), poly.max(axis=0)
    pts = []
    while len(pts) < n_points:
        cand = lo + (hi - lo) * rng.random((4 * n_points, 2))
        d = distance_to_boundary(problem.domain, cand)
        inside = _points_inside(problem.domain, cand) & (d > 5 * step)
        if problem.domain == "l-shape":
            r = np.hypot(cand[:, 0], cand[:, 1])
            inside &= r > 0.05  # FD useless next to the corner singularity
        pts.extend(cand[inside][: n_points - len(pts)])
    pts = np.array(pts)
    x, y = pts[:, 0], pts[:, 1]
    h = step

    def u(xx, yy):
        return problem.u(xx, yy)

    ux = (u(x + h, y) - u(x - h, y)) / (2 * h)
    uy = (u(x, y + h) - u(x, y - h)) / (2 * h)
    lap = (u(x + h, y) + u(x - h, y) + u(x, y + h) + u(x, y - h)
           - 4 * u(x, y)) / (h * h)
    ga = problem.grad_a(x, y)
    fd = -(problem.a(x, y) * lap + ga[..., 0] * ux + ga[..., 1] * uy)
    fv = problem.f(x, y)
    defect = np.abs(fd - fv) / (1.0 + np.abs(fv))
    worst = float(defect.max())
    if worst > rtol:
        raise ValueError(
            f"problem {problem.name!r} fails the PDE check: defect {worst:.2e}")
    return worst


def _points_inside(domain, pts):
    if domain == "unit-square":
        return ((pts[:, 0] > 0) & (pts[:, 0] < 1)
                & (pts[:, 1] > 0) & (pts[:, 1] < 1))
    if domain == "l-shape":
        inside_box = ((pts[:, 0] > -1) & (pts[:, 0] < 1)
                      & (pts[:, 1] > -1) & (pts[:, 1] < 1))
        notch = (pts[:, 0] >= 0) & (pts[:, 1] <= 0)
        return inside_box & ~notch
    raise ValueError(domain)


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


def plain_load(space, f, degree):
    """Load vector b_i = integral of f * phi_i by the degree rule, from
    the reference basis at every quadrature point of every triangle,
    independently of the block loop of fluxweight.fem."""
    mesh = space.mesh
    qp, qw = triangle_rule(degree)
    _, det = mesh.jacobians()
    pts = mesh.triangle_points(np.arange(mesh.num_triangles), qp)
    fv = f(pts[..., 0], pts[..., 1])
    be = np.einsum("tq,qj,q,t->tj", fv, space.element.eval(qp), qw, det)
    b = np.zeros(space.ndof)
    np.add.at(b, space.tri_dofs, be)
    return b


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
    invJT, det = mesh.jacobians()
    g = np.einsum("tab,qjb->tqja", invJT, gref)
    pts = mesh.triangle_points(np.arange(mesh.num_triangles), qp)
    fv = vec_field(pts[..., 0], pts[..., 1])
    re = np.einsum("tqa,tqja,q,t->tj", fv, g, qw, det)
    np.add.at(r, space.tri_dofs, re)
    return r


def coo_stiffness(space, a=None, degree=None, block=16384):
    """The stiffness matrix by the per-block COO path: int64 row and
    column lists per block of element matrices, concatenated and
    converted to CSR once at the end.  The reference tensor is its own,
    at the points of the degree rule (the space's rule by default)."""
    mesh, nd = space.mesh, space.element.ndof
    if degree is None:
        degree = space.degree
    qp, qw = triangle_rule(degree)
    g = space.element.grad(qp)
    S = np.einsum("qib,qjc->qbcij", g, g).reshape(len(qw), 4, nd * nd)
    Sw = np.einsum("q,qkm->km", qw, S)
    S = S.reshape(-1, nd * nd)
    rows, cols, vals = [], [], []
    for lo in range(0, mesh.num_triangles, block):
        blk = np.arange(lo, min(lo + block, mesh.num_triangles))
        invJT, det = mesh.jacobians(blk)
        metric = (det[:, None, None] * (invJT.transpose(0, 2, 1) @ invJT)
                  ).reshape(-1, 4)
        if a is None:
            Ke = metric @ Sw
        else:
            pts = mesh.triangle_points(blk, qp)
            av = np.broadcast_to(a(pts[..., 0], pts[..., 1]),
                                 (len(blk), len(qw)))
            Ke = ((av * qw)[:, :, None] * metric[:, None, :]).reshape(
                len(blk), -1) @ S
        d = space.tri_dofs[blk].astype(np.int64)
        rows.append(np.repeat(d, nd, axis=1).ravel())
        cols.append(np.tile(d, (1, nd)).ravel())
        vals.append(Ke.ravel())
    return sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(space.ndof, space.ndof)).tocsr()


def facet_point_pair(vals_i, vals_j, weight, dofs_i, dofs_j, shape):
    """Sparse matrix of sum_p weight[p] vals_i[p, a] vals_j[p, b] at
    (dofs_i[p, a], dofs_j[p, b]), one outer product per rule point p."""
    local = vals_i[:, :, None] * vals_j[:, None, :] * weight[:, None, None]
    rows = np.broadcast_to(dofs_i[:, :, None], local.shape)
    cols = np.broadcast_to(dofs_j[:, None, :], local.shape)
    return sparse.coo_matrix((local.ravel(), (rows.ravel(), cols.ravel())),
                             shape=shape).tocsr()


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
        invJT, _ = mesh.jacobians(tri)
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


def split_pieces(starts, total, breakpoints):
    """Split [0, total) at interval starts and breakpoints.

    Returns (left, right, owner) where owner indexes the interval of
    `starts` containing each piece.  Degenerate slivers are dropped.
    The reference that norms._cut_pieces is checked against.
    """
    edges = np.unique(np.concatenate(
        [starts, np.mod(breakpoints, total), [0.0, total]]))
    left, right = edges[:-1], edges[1:]
    keep = (right - left) > 1e-14 * total
    left, right = left[keep], right[keep]
    owner = np.searchsorted(starts, 0.5 * (left + right), side="right") - 1
    return left, right, owner


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


def minimum_degree_lu_nnz(A):
    """lu.nnz of a matrix under reverse Cuthill-McKee and SuperLU's
    minimum degree: on A^T + A with diagonal pivoting when the diagonal
    is full, else on A^T A with SuperLU's default pivoting.  The fill
    oracle for fem.dissection_order."""
    if A.diagonal().all():
        spec = "MMD_AT_PLUS_A"
        opts = dict(diag_pivot_thresh=0.1, options=dict(SymmetricMode=True))
    else:
        spec, opts = "MMD_ATA", {}
    perm = reverse_cuthill_mckee(A.tocsr(), symmetric_mode=True)
    return splu(A[perm][:, perm].tocsc(), permc_spec=spec, **opts).nnz


def original_numbering(A, order):
    """A matrix in the elimination order `order` (P A P^T, as
    fem.assemble_matrix builds it) back in the original numbering."""
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    return A[rank][:, rank]


def ordered_stiffness(space, order):
    """The stiffness matrix (coefficient 1) of space in the elimination
    order `order`, as fem.assemble_matrix builds the systems."""
    td = space.tri_dofs
    return fem.assemble_matrix((space.ndof, space.ndof),
                               [(td, td, fem.element_stiffness(space))],
                               order)


def pinned_stiffness(space):
    """The full stiffness matrix of space in its dissection order, with
    the last unknown of that order pinned as norms.neumann_dual_error
    pins it, and that order."""
    order = fem.dissection_order(space)
    A = ordered_stiffness(space, order)
    norms._pin(A, np.zeros(space.ndof), order)
    return A, order


def uncondensed_dual_error(delta, fine_mesh, order):
    """E1 with every unknown of the order-`order` space in the factor
    and the zero boundary-mean constraint as a border: [[A, c], [c^T, 0]]
    by sparse.bmat, factored by SuperLU with its default ordering and
    pivoting.  The oracle for norms.neumann_dual_error, which condenses
    the interior unknowns out, projects the load and pins one unknown.
    The stiffness and the constraint vector use the rules of degree
    2 * order, which integrate both exactly, the load the space's.
    Returns (E1, dual load, constraint vector, space)."""
    space = fem.FeSpace(fine_mesh, order)
    A = coo_stiffness(space, degree=2 * order)
    b = norms.boundary_dual_load(space, delta)
    t, w = segment_rule(2 * order)
    vals, _, dofs = fem.facet_basis(space, t)
    c = fem.facet_vector(space.ndof, dofs, vals,
                         w * fine_mesh.bf_len[:, None])
    border = sparse.csr_matrix(c[None, :])
    K = sparse.bmat([[A, border.T], [border, None]], format="csc")
    x = splu(K).solve(np.append(b, 0.0))[:-1]
    return float(np.sqrt(x @ (A @ x))), b, c, space


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
