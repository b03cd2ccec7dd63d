"""Scalar Lagrange spaces on triangles, boundary trace spaces, assembly,
and the sparse linear-solve contract.

Bulk spaces support orders 1..4 (the discretization methods use 1 and 2;
the higher orders back the reference solves of the dual-norm evaluator).
Assembly is vectorized over element blocks with a deterministic
reduction order.  The solver contract is a direct sparse factorization
with a verified residual.
"""

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import reverse_cuthill_mckee
from scipy.sparse.linalg import splu

from .elements import reference_element
from .quadrature import segment_rule, triangle_rule

_BLOCK = 16384

# SuperLU shows its pivots only through CSC copies of both factors, which
# double the memory of the factor; larger factors (the high-order
# dual-norm reference solves) skip the pivot check
PIVOT_CHECK_MAX_NNZ = 1 << 23


class SolverError(RuntimeError):
    """Raised when a factorization fails or the residual contract is broken."""


class FeSpace:
    """Continuous Lagrange space of given order on a mesh.

    DOFs are enumerated vertices first, then (order-1) DOFs per global
    edge ordered from the lower- to the higher-numbered vertex, then
    element-interior DOFs.  This makes assembly deterministic and
    mesh-order independent.
    """

    def __init__(self, mesh, order):
        self.mesh = mesh
        self.order = order
        self.element = reference_element(order)
        nv, ne, nt = mesh.num_vertices, len(mesh.edges), mesh.num_triangles
        p = order
        self.ndof = nv + ne * (p - 1) + nt * self.element.n_interior_dofs

        nloc = self.element.ndof
        td = np.empty((nt, nloc), dtype=np.int64)
        td[:, :3] = mesh.triangles
        col = 3
        from .elements import EDGE_VERTICES
        for le, (a, b) in enumerate(EDGE_VERTICES):
            lo, hi = (a, b) if a < b else (b, a)
            g_lo = mesh.triangles[:, lo]
            g_hi = mesh.triangles[:, hi]
            eid = mesh.tri_edges[:, le]
            flip = g_lo > g_hi
            for i in range(1, p):
                slot = np.where(flip, p - i - 1, i - 1)
                td[:, col] = nv + eid * (p - 1) + slot
                col += 1
        n_int = self.element.n_interior_dofs
        if n_int:
            base = nv + ne * (p - 1)
            for i in range(n_int):
                td[:, col] = base + np.arange(nt) * n_int + i
                col += 1
        self.tri_dofs = td

        onb = np.zeros(self.ndof, dtype=bool)
        onb[np.nonzero(mesh.vertex_on_boundary)[0]] = True
        for f in range(mesh.num_boundary_facets):
            e = mesh.bf_edge[f]
            onb[nv + e * (p - 1): nv + (e + 1) * (p - 1)] = True
        self.boundary_dofs = np.nonzero(onb)[0]

    # -- evaluation ------------------------------------------------------------

    def eval_cells(self, coeffs, tri_ids, ref_pts):
        """Values of the coefficient function at reference points.

        Returns shape (len(tri_ids), len(ref_pts)).
        """
        vals = self.element.eval(ref_pts)  # (nq, nd)
        return np.einsum("tj,qj->tq", coeffs[self.tri_dofs[tri_ids]], vals)

    def grad_cells(self, coeffs, tri_ids, ref_pts):
        """Physical gradients, shape (len(tri_ids), len(ref_pts), 2)."""
        g = self.element.grad(ref_pts)  # (nq, nd, 2)
        _, invJT, _ = self.mesh.jacobians(tri_ids)
        gphys = np.einsum("tab,qjb->tqja", invJT, g)
        return np.einsum("tj,tqja->tqa", coeffs[self.tri_dofs[tri_ids]], gphys)

    def interpolate(self, fn):
        """Nodal interpolation of fn(x, y) onto the space."""
        out = np.empty(self.ndof)
        nodes = self.element.nodes
        pts = self.mesh.triangle_points(np.arange(self.mesh.num_triangles),
                                        nodes)
        vals = fn(pts[..., 0], pts[..., 1])
        out[self.tri_dofs.ravel()] = vals.ravel()
        return out


def facet_point_basis(space, facet_ids, t, gradients=False):
    """Trace of the bulk basis at per-point facet parameters.

    facet_ids and t are arrays of equal length n; returns
    (values (n, nd), grads (n, nd, 2) or None, dofs (n, nd)).
    The parameter runs counterclockwise along the boundary.
    """
    mesh = space.mesh
    tri = mesh.bf_tri[facet_ids]
    le = mesh.bf_local[facet_ids]
    ref_verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    A = ref_verts[(le + 1) % 3]
    B = ref_verts[(le + 2) % 3]
    pts = A + np.asarray(t, dtype=float)[:, None] * (B - A)
    vals = space.element.eval(pts)
    dofs = space.tri_dofs[tri]
    grads = None
    if gradients:
        g = space.element.grad(pts)  # (n, nd, 2)
        _, invJT, _ = mesh.jacobians(tri)
        grads = np.einsum("nab,njb->nja", invJT, g)
    return vals, grads, dofs


def facet_quad_points(mesh, facet_ids, degree):
    """Gauss points on facets: (t, w, facet rep, s values, physical pts)."""
    t, w = segment_rule(degree)
    nf = len(facet_ids)
    frep = np.repeat(facet_ids, len(t))
    trep = np.tile(t, nf)
    pts = mesh.boundary_points(frep, trep)
    return trep, np.tile(w, nf), frep, pts


def monomial_coefficients(values, nodes):
    """Monomial coefficients in t (lowest degree first) of the
    polynomials that take the rows of `values` at `nodes`."""
    vander = np.vander(nodes, len(nodes), increasing=True)
    return values @ np.linalg.inv(vander).T


class BoundarySpace:
    """Piecewise polynomial multiplier space on the boundary mesh.

    Discontinuous variant: order+1 Lagrange DOFs per facet (order 0 is
    the facet indicator, so coefficients are facet averages).
    Continuous variant (order >= 1): DOFs at boundary vertices plus
    order-1 interior nodes per facet, glued across facet endpoints.
    """

    def __init__(self, mesh, order, continuous=False):
        if continuous and order < 1:
            raise ValueError("continuous multiplier requires order >= 1")
        self.mesh = mesh
        self.order = order
        self.continuous = continuous
        nbf = mesh.num_boundary_facets
        nloc = order + 1
        fd = np.empty((nbf, nloc), dtype=np.int64)
        if not continuous:
            fd[:] = np.arange(nbf * nloc).reshape(nbf, nloc)
            self.ndof = nbf * nloc
        else:
            # boundary vertices are in facet order: vertex j starts facet j
            fd[:, 0] = np.arange(nbf)
            fd[:, -1] = (np.arange(nbf) + 1) % nbf
            for i in range(1, order):
                fd[:, i] = nbf + np.arange(nbf) * (order - 1) + (i - 1)
            self.ndof = nbf + nbf * (order - 1)
        self.facet_dofs = fd
        if order == 0:
            self._nodes = np.array([0.5])
        else:
            self._nodes = np.linspace(0.0, 1.0, order + 1)

    def eval(self, t):
        """Local Lagrange basis values at parameters t, shape (n, order+1)."""
        t = np.asarray(t, dtype=float)
        if self.order == 0:
            return np.ones(t.shape + (1,))
        out = np.ones(t.shape + (self.order + 1,))
        for j, xj in enumerate(self._nodes):
            for m, xm in enumerate(self._nodes):
                if m != j:
                    out[..., j] *= (t - xm) / (xj - xm)
        return out

    def values(self, coeffs, facet_ids, t):
        """Evaluate a multiplier function at per-point facet parameters."""
        basis = self.eval(t)
        return np.einsum("nj,nj->n", coeffs[self.facet_dofs[facet_ids]], basis)

    def monomial_coefficients(self, coeffs):
        """Per-facet monomial coefficients in t of a multiplier function,
        shape (facets, order + 1)."""
        return monomial_coefficients(coeffs[self.facet_dofs], self._nodes)


class SparseSystem:
    """Sparse matrix plus right-hand side with a verified symmetry flag."""

    def __init__(self, matrix, rhs, symmetric=False):
        self.matrix = matrix.tocsr()
        self.rhs = np.asarray(rhs, dtype=float)
        if not np.isfinite(self.matrix.data).all():
            raise ValueError("non-finite matrix entries")
        if symmetric:
            scale = np.abs(self.matrix.data).max(initial=0.0)
            skew = abs(self.matrix - self.matrix.T)
            if skew.data.size and skew.data.max() > 1e-12 * scale:
                raise ValueError("matrix claimed symmetric but is not")
        self.symmetric = symmetric


def _blocks(n, size=_BLOCK):
    for lo in range(0, n, size):
        yield np.arange(lo, min(lo + size, n))


def assemble_stiffness(space, a=None, degree=None):
    """Stiffness matrix of the diffusion form with scalar coefficient a.

    With no boundary terms the result is symmetric positive semidefinite
    with the constants in its kernel.
    """
    mesh, el = space.mesh, space.element
    if degree is None:
        degree = 2 * space.order + 4
    qp, qw = triangle_rule(degree)
    gref = el.grad(qp)  # (nq, nd, 2)
    rows, cols, vals = [], [], []
    for blk in _blocks(mesh.num_triangles):
        _, invJT, det = mesh.jacobians(blk)
        g = np.einsum("tab,qjb->tqja", invJT, gref)
        if a is None:
            av = np.ones((len(blk), len(qw)))
        else:
            pts = mesh.triangle_points(blk, qp)
            av = a(pts[..., 0], pts[..., 1])
            av = np.broadcast_to(av, (len(blk), len(qw)))
        Ke = np.einsum("tqia,tqja,tq,q,t->tij", g, g, av, qw, det,
                       optimize=True)
        d = space.tri_dofs[blk]
        rows.append(np.repeat(d, el.ndof, axis=1).ravel())
        cols.append(np.tile(d, (1, el.ndof)).ravel())
        vals.append(Ke.ravel())
    A = sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(space.ndof, space.ndof)).tocsr()
    return A


def assemble_load(space, f, degree=None):
    """Load vector b_i = integral of f * phi_i."""
    mesh, el = space.mesh, space.element
    if degree is None:
        degree = 2 * space.order + 4
    qp, qw = triangle_rule(degree)
    vref = el.eval(qp)  # (nq, nd)
    b = np.zeros(space.ndof)
    for blk in _blocks(mesh.num_triangles):
        _, _, det = mesh.jacobians(blk)
        pts = mesh.triangle_points(blk, qp)
        fv = np.broadcast_to(f(pts[..., 0], pts[..., 1]),
                             (len(blk), len(qw)))
        be = np.einsum("tq,qi,q,t->ti", fv, vref, qw, det)
        np.add.at(b, space.tri_dofs[blk], be)
    return b


def boundary_integral_vector(space, degree=None):
    """Vector c_i = integral of phi_i over the boundary."""
    if degree is None:
        degree = 2 * space.order + 4
    mesh = space.mesh
    facets = np.arange(mesh.num_boundary_facets)
    t, w = segment_rule(degree)
    frep = np.repeat(facets, len(t))
    vals, _, dofs = facet_point_basis(space, frep, np.tile(t, len(facets)))
    wts = np.tile(w, len(facets)) * np.repeat(mesh.bf_len[facets], len(t))
    c = np.zeros(space.ndof)
    np.add.at(c, dofs, vals * wts[:, None])
    return c


def solve(system, constraint=None):
    """Direct solve honoring the residual contract.

    If `constraint` is a vector c, the solve enforces c.x = 0 through an
    appended row/column (Lagrange multiplier).  Raises SolverError when
    the factorization fails, when the factor is numerically singular
    (min|U_ii| < 1e-12 max|U_ii|, checked on factors of at most
    PIVOT_CHECK_MAX_NNZ nonzeros), or when the residual exceeds
    1e-10 * (|b| + |A|*|x|).

    The system is renumbered by reverse Cuthill-McKee and then factored
    by SuperLU under a minimum-degree ordering of A^T + A with diagonal
    pivoting preferred.  On the bordered high-order reference systems of
    the dual-norm evaluation this is more than ten times faster than
    SuperLU's default COLAMD ordering; without the renumbering, minimum
    degree is slow on the vertex numbering that bisection leaves behind.
    """
    A = system.matrix
    b = system.rhs
    n = A.shape[0]
    if constraint is not None:
        c = sparse.csr_matrix(np.asarray(constraint, dtype=float)[None, :])
        A_aug = sparse.bmat([[A, c.T], [c, None]], format="csr")
        b_aug = np.concatenate([b, [0.0]])
    else:
        A_aug, b_aug = A, b
    perm = reverse_cuthill_mckee(A_aug)
    try:
        lu = splu(A_aug[perm][:, perm].tocsc(), permc_spec="MMD_AT_PLUS_A",
                  diag_pivot_thresh=0.1, options=dict(SymmetricMode=True))
        x = np.empty_like(b_aug)
        x[perm] = lu.solve(b_aug[perm])
    except Exception as exc:  # factorization breakdown
        raise SolverError(f"sparse factorization failed: {exc}") from exc
    if not np.isfinite(x).all():
        raise SolverError("solver produced non-finite entries "
                          f"(n={n}, nnz={A.nnz})")
    res = np.linalg.norm(A_aug @ x - b_aug)
    normA = np.abs(A.data).max(initial=0.0)
    bound = 1e-10 * (np.linalg.norm(b_aug) + normA * np.linalg.norm(x))
    if res > max(bound, 1e-300):
        raise SolverError(
            f"residual contract violated: |Ax-b|={res:.3e} > {bound:.3e} "
            f"(n={n}, nnz={A.nnz})")
    # a singular factor passes the residual bound, which grows with the
    # blown-up x; the bordered copy is released first, since reading U
    # copies both factors
    del A_aug
    if lu.nnz <= PIVOT_CHECK_MAX_NNZ:
        pivots = np.abs(lu.U.diagonal())
        if pivots.min() < 1e-12 * pivots.max():
            raise SolverError(
                f"numerically singular factor: min|U_ii|/max|U_ii| = "
                f"{pivots.min() / pivots.max():.3e} (n={n}, nnz={A.nnz})")
    return x[:n] if constraint is not None else x


def patch_l2_projection_linear(mesh, g_facet, facet_ids, degree=6):
    """L2 projection of boundary data onto continuous piecewise linears
    on a chain of boundary facets.

    g_facet(facet_ids, t) evaluates the data at facet parameters.
    Returns the nodal coefficients (len(facet_ids) + 1 values at the
    chain nodes, in arc order) from a dense local mass-matrix solve.
    """
    facet_ids = np.asarray(facet_ids, dtype=np.int64)
    nfac = len(facet_ids)
    if nfac == 0:
        raise ValueError("empty facet chain")
    nn = nfac + 1
    t, w = segment_rule(degree)
    M = np.zeros((nn, nn))
    b = np.zeros(nn)
    for j, f in enumerate(facet_ids):
        L = mesh.bf_len[f]
        gv = g_facet(np.full(len(t), f), t)
        phi = np.stack([1.0 - t, t], axis=1)
        Mloc = (phi[:, :, None] * phi[:, None, :] * (w * L)[:, None, None]).sum(0)
        bloc = (phi * (gv * w * L)[:, None]).sum(0)
        sl = slice(j, j + 2)
        M[sl, sl] += Mloc
        b[sl.start:sl.start + 2] += bloc
    return np.linalg.solve(M, b)


def assemble_grad_load(space, vec_field, degree=None):
    """Vector r_i = integral of vec_field . grad(phi_i).

    vec_field(x, y) returns shape (..., 2); used for consistency checks
    against analytically known gradients.
    """
    mesh, el = space.mesh, space.element
    if degree is None:
        degree = 2 * space.order + 4
    qp, qw = triangle_rule(degree)
    gref = el.grad(qp)
    r = np.zeros(space.ndof)
    for blk in _blocks(mesh.num_triangles):
        _, invJT, det = mesh.jacobians(blk)
        g = np.einsum("tab,qjb->tqja", invJT, gref)
        pts = mesh.triangle_points(blk, qp)
        fv = vec_field(pts[..., 0], pts[..., 1])
        re = np.einsum("tqa,tqja,q,t->tj", fv, g, qw, det)
        np.add.at(r, space.tri_dofs[blk], re)
    return r


def h1_seminorm_error(space, coeffs, grad_exact, degree=None):
    """|grad(u - u_h)| over the mesh, with grad_exact(x, y) -> (..., 2)."""
    mesh = space.mesh
    if degree is None:
        degree = 2 * space.order + 4
    qp, qw = triangle_rule(degree)
    total = 0.0
    for blk in _blocks(mesh.num_triangles):
        _, _, det = mesh.jacobians(blk)
        pts = mesh.triangle_points(blk, qp)
        ge = grad_exact(pts[..., 0], pts[..., 1])
        gh = space.grad_cells(coeffs, blk, qp)
        diff = ge - gh
        total += np.einsum("tqa,tqa,q,t->", diff, diff, qw, det)
    return float(np.sqrt(total))


def dump_matrix(system, path):
    """MatrixMarket coordinate dump for debugging."""
    from scipy.io import mmwrite
    mmwrite(path, system.matrix.tocoo())
