"""Scalar Lagrange spaces on triangles, boundary trace spaces, assembly,
and the sparse linear-solve contract.

Bulk spaces support orders 1..4 (the discretization methods use 1 and 2;
the higher orders back the reference solves of the dual-norm evaluator).
Assembly is vectorized over element blocks with a deterministic
reduction order.  Every system matrix is one conversion to CSR, with
int32 indices, of its local matrices (assemble_matrix): per triangle,
and per boundary facet for the methods' boundary terms.  The P4
reference stiffness on 10 928 triangles takes 0.052 s (one core of a
2-core x86-64 machine) and a 66 MB traced peak, against 0.135 s and
134 MB for per-block int64 COO lists.  The load pass also sums |f| by
its rule (assemble_load_sums).  The solver contract is a direct sparse
factorization with a verified residual; see solve for the ordering
rule.

Bulk kernels do their per-point work on the reference element and map to
physical coordinates once per triangle.  The stiffness matrix uses the
reference tensor S[q, b, c, i, j] = d_b phi_i d_c phi_j at the quadrature
points (summed against the weights when the coefficient is constant), so
the element matrices of a block are one matrix product of the per-triangle
metric det J^-1 J^-T (times a(x_q) w_q) with S.  Gradients of a discrete
function contract its coefficients with the reference gradients first and
apply J^-T after.

Boundary integrals work on arrays of shape (facets, rule points), with
the reference basis tabulated once per local edge (facet_basis).
"""

import logging
import time
from functools import lru_cache

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import reverse_cuthill_mckee
from scipy.sparse.linalg import splu

from .elements import reference_element
from .quadrature import segment_rule, triangle_rule

log = logging.getLogger(__name__)

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

    def grad_cells(self, coeffs, tri_ids, ref_pts):
        """Physical gradients, shape (len(tri_ids), len(ref_pts), 2)."""
        co = coeffs[self.tri_dofs[tri_ids]]
        _, invJT, _ = self.mesh.jacobians(tri_ids)
        ref_grad = contract(co, self.element.grad(ref_pts))
        return ref_grad @ invJT.transpose(0, 2, 1)


def contract(co, table):
    """Coefficients (t, nd) against a reference table (nq, nd, c) of
    basis derivatives: shape (t, nq, c), by one matrix product."""
    nq, nd, c = table.shape
    flat = table.transpose(1, 0, 2).reshape(nd, nq * c)
    return (co @ flat).reshape(len(co), nq, c)


def reference_edge_points(t):
    """Points at the parameters t on the local edges of the reference
    triangle, shape (3, len(t), 2); edge i runs counterclockwise, from
    vertex i+1 to vertex i+2."""
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    A, B = verts[[1, 2, 0]], verts[[2, 0, 1]]
    t = np.asarray(t, dtype=float)
    return A[:, None] + t[:, None] * (B - A)[:, None]


def facet_basis(space, t, gradients=False):
    """Trace of the bulk basis on every boundary facet at the parameters
    t, which run counterclockwise along the boundary.

    Returns (values (facets, len(t), nd), physical gradients
    (facets, len(t), nd, 2) or None, dofs (facets, nd)).  The reference
    basis is tabulated once per local edge, and each facet selects the
    table of its local edge.
    """
    mesh = space.mesh
    ref = reference_edge_points(t)
    vals = space.element.eval(ref)[mesh.bf_local]
    grads = None
    if gradients:
        g = space.element.grad(ref)[mesh.bf_local]
        _, invJT, _ = mesh.jacobians(mesh.bf_tri)
        grads = np.einsum("fab,fqjb->fqja", invJT, g)
    return vals, grads, space.tri_dofs[mesh.bf_tri]


def facet_vector(n, dofs, vals, weight):
    """Vector of length n that gathers, per boundary facet f, the rule
    sums sum_q weight[f, q] vals[f, q, i] at dofs[f, i].  vals is
    (facets, nq, nd), or one (nq, nd) table shared by every facet."""
    vals = np.broadcast_to(vals, weight.shape + vals.shape[-1:])
    return np.bincount(dofs.ravel(), minlength=n, weights=np.einsum(
        "fqj,fq->fj", vals, weight).ravel())


def monomial_coefficients(values, nodes):
    """Monomial coefficients in t (lowest degree first) of the
    polynomials that take the rows of `values` at `nodes`."""
    vander = np.vander(nodes, len(nodes), increasing=True)
    return values @ np.linalg.inv(vander).T


def monomial_values(rows, t):
    """Rows of monomial coefficients in t (lowest degree first) at the
    points t, shape (rows, len(t))."""
    return rows @ np.vander(t, rows.shape[1], increasing=True).T


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
        yield slice(lo, min(lo + size, n))


@lru_cache(maxsize=None)
def _stiffness_tensor(order, degree):
    """Reference tensor S[q, b, c, i, j] = d_b phi_i d_c phi_j at the
    points of the degree rule, as a (nq * 4, nd * nd) matrix, and its
    weighted sum over q, as a (4, nd * nd) matrix."""
    qp, qw = triangle_rule(degree)
    g = reference_element(order).grad(qp)  # (nq, nd, 2)
    nq, nd, _ = g.shape
    S = np.einsum("qib,qjc->qbcij", g, g).reshape(nq, 4, nd * nd)
    Sw = np.einsum("q,qkm->km", qw, S)
    S = S.reshape(nq * 4, nd * nd)
    S.flags.writeable = Sw.flags.writeable = False
    return S, Sw


def element_stiffness(space, a=None, degree=None):
    """Element matrices of the diffusion form with scalar coefficient a,
    shape (triangles, nd, nd), written block by block into one array."""
    mesh, nd = space.mesh, space.element.ndof
    if degree is None:
        degree = 2 * space.order + 4
    qp, qw = triangle_rule(degree)
    S, Sw = _stiffness_tensor(space.order, degree)
    Ke = np.empty((mesh.num_triangles, nd * nd))
    for blk in _blocks(mesh.num_triangles):
        _, invJT, det = mesh.jacobians(blk)
        # det * J^-1 J^-T, flattened over (b, c)
        metric = (det[:, None, None] * (invJT.transpose(0, 2, 1) @ invJT)
                  ).reshape(-1, 4)
        if a is None:
            np.matmul(metric, Sw, out=Ke[blk])
        else:
            pts = mesh.triangle_points(blk, qp)
            av = np.broadcast_to(a(pts[..., 0], pts[..., 1]),
                                 (len(det), len(qw)))
            np.matmul(((av * qw)[:, :, None] * metric[:, None, :]).reshape(
                len(det), -1), S, out=Ke[blk])
    return Ke.reshape(-1, nd, nd)


def assemble_matrix(shape, terms):
    """CSR matrix of the given shape that sums local matrices.

    Each term is (row dofs (e, p), column dofs (e, q), local matrices
    (e, p, q)): entry [e, i, j] is added at (rows[e, i], cols[e, j]).
    All entries go through one conversion with int32 indices, which
    sums the duplicates.
    """
    total = sum(local.size for _, _, local in terms)
    rows = np.empty(total, dtype=np.int32)
    cols = np.empty(total, dtype=np.int32)
    lo = 0
    for dofs_i, dofs_j, local in terms:
        hi = lo + local.size
        rows[lo:hi].reshape(local.shape)[:] = dofs_i[:, :, None]
        cols[lo:hi].reshape(local.shape)[:] = dofs_j[:, None, :]
        lo = hi
    if len(terms) == 1:  # the entries of a lone term are not copied
        vals = terms[0][2].ravel()
    else:
        vals = np.concatenate([local.ravel() for _, _, local in terms])
    return sparse.csr_matrix((vals, (rows, cols)), shape=shape)


def assemble_stiffness(space, a=None, degree=None):
    """Stiffness matrix of the diffusion form with scalar coefficient a.

    With no boundary terms the result is symmetric positive semidefinite
    with the constants in its kernel.
    """
    td = space.tri_dofs
    return assemble_matrix((space.ndof, space.ndof),
                           [(td, td, element_stiffness(space, a, degree))])


def assemble_load_sums(space, f, degree=None):
    """Load vector b_i = integral of f * phi_i, and integral |f| by the
    same rule: sum |f(x_q)| w_q det J.  The sum of b is integral f."""
    mesh, el = space.mesh, space.element
    if degree is None:
        degree = 2 * space.order + 4
    qp, qw = triangle_rule(degree)
    vref = el.eval(qp)  # (nq, nd)
    be = np.empty((mesh.num_triangles, el.ndof))
    abs_f = 0.0
    for blk in _blocks(mesh.num_triangles):
        _, _, det = mesh.jacobians(blk)
        pts = mesh.triangle_points(blk, qp)
        fw = np.broadcast_to(f(pts[..., 0], pts[..., 1]),
                             (len(det), len(qw))) * qw * det[:, None]
        np.matmul(fw, vref, out=be[blk])
        abs_f += np.abs(fw).sum()
    b = np.bincount(space.tri_dofs.ravel(), weights=be.ravel(),
                    minlength=space.ndof)
    return b, float(abs_f)


def assemble_load(space, f, degree=None):
    """Load vector b_i = integral of f * phi_i."""
    return assemble_load_sums(space, f, degree)[0]


def boundary_integral_vector(space, degree=None):
    """Vector c_i = integral of phi_i over the boundary."""
    if degree is None:
        degree = 2 * space.order + 4
    t, w = segment_rule(degree)
    vals, _, dofs = facet_basis(space, t)
    return facet_vector(space.ndof, dofs, vals,
                        w * space.mesh.bf_len[:, None])


def _bordered(A, c):
    """[[A, c], [c^T, 0]] in CSR, built from A's arrays: the border is
    the last column, so each row's extra entry (where c is nonzero)
    goes at its end."""
    n = A.shape[0]
    nz = np.flatnonzero(c)
    counts = np.append(np.diff(A.indptr) + (c != 0), len(nz))
    indptr = np.append(0, np.cumsum(counts)).astype(A.indptr.dtype)
    border = np.append(indptr[nz + 1] - 1, np.arange(indptr[n], indptr[-1]))
    inner = np.ones(indptr[-1], dtype=bool)
    inner[border] = False
    indices = np.empty(indptr[-1], dtype=A.indices.dtype)
    data = np.empty(indptr[-1])
    indices[inner], data[inner] = A.indices, A.data
    indices[border] = np.append(np.full(len(nz), n), nz)
    data[border] = np.tile(c[nz], 2)
    return sparse.csr_matrix((data, indices, indptr), shape=(n + 1, n + 1))


def solve(system, constraint=None):
    """Direct solve honoring the residual contract.

    If `constraint` is a vector c, the solve enforces c.x = 0 through an
    appended row/column (Lagrange multiplier).  Raises SolverError when
    the factorization fails, when the factor is numerically singular
    (min|U_ii| < 1e-12 max|U_ii|, checked on factors of at most
    PIVOT_CHECK_MAX_NNZ nonzeros; SuperLU's exactly singular factor has
    a zero pivot and is reported as such), or when the residual exceeds
    1e-10 * (|b| + |A|*|x|).  Every solve that factors logs one INFO
    line; its arguments are a dict with the order n and the nonzeros
    nnz of the factored (bordered) system, the factor's lu_nnz, the
    factor time factor_s, the residual-to-bound ratio res_ratio, the
    column ordering and the pivot_ratio min|U_ii|/max|U_ii| (None when
    the pivot check is skipped).

    The system is renumbered by reverse Cuthill-McKee and factored once,
    as one permuted CSC copy, on which the residual is also computed.
    The column ordering follows the structure of the unbordered matrix:
    - a full diagonal (stiffness, Nitsche, the bordered dual-norm
      reference systems): minimum degree on A^T + A with diagonal
      pivoting preferred.  The P4 reference system of Franke, Nitsche
      k=2 on 64x64 (88k unknowns) factors in about 0.5 s with 7-8M
      nonzeros, against 1.45 s / 20.4M under COLAMD, 17.9 s / 60.0M
      under minimum degree on A^T A, and 2.46 s / 15.1M without the
      renumbering.
    - a zero on the diagonal (the multiplier block of a saddle system):
      minimum degree on A^T A with SuperLU's default pivoting, since
      the off-diagonal pivots undo a symmetric ordering.  P2 bulk
      against a P0 multiplier on 64x64 factors in 0.14 s with 2.5M
      nonzeros, against 0.77 s / 6.1M under the first rule.
    Times are from one core of a 2-core x86-64 machine.
    """
    A = system.matrix
    b = system.rhs
    n = A.shape[0]
    if A.diagonal().all():
        ordering = "MMD_AT_PLUS_A"
        opts = dict(diag_pivot_thresh=0.1, options=dict(SymmetricMode=True))
    else:
        ordering, opts = "MMD_ATA", {}
    if constraint is not None:
        A_aug = _bordered(A, np.asarray(constraint, dtype=float))
        b_aug = np.concatenate([b, [0.0]])
    else:
        A_aug, b_aug = A, b
    # every system assembled here has a symmetric pattern; on any other
    # the result is still a permutation, if a weaker pre-order
    perm = reverse_cuthill_mckee(A_aug, symmetric_mode=True)
    # P A P^T: gather the rows, renumber the columns; the conversion to
    # CSC sorts them
    inv = np.empty_like(perm)
    inv[perm] = np.arange(len(perm), dtype=perm.dtype)
    rows = A_aug[perm]
    P = sparse.csr_matrix((rows.data, inv[rows.indices], rows.indptr),
                          shape=rows.shape).tocsc()
    nnz = P.nnz
    del A_aug, rows
    t0 = time.perf_counter()
    try:
        lu = splu(P, permc_spec=ordering, **opts)
        factor_s = time.perf_counter() - t0
        y = lu.solve(b_aug[perm])
    except RuntimeError as exc:  # factorization breakdown
        if "exactly singular" in str(exc):
            raise SolverError(
                "numerically singular factor: SuperLU found it exactly "
                f"singular, a zero pivot (n={n}, nnz={A.nnz})") from exc
        raise SolverError(f"sparse factorization failed: {exc}") from exc
    if not np.isfinite(y).all():
        raise SolverError("solver produced non-finite entries "
                          f"(n={n}, nnz={A.nnz})")
    # the norms do not depend on the renumbering
    res = np.linalg.norm(P @ y - b_aug[perm])
    normA = np.abs(A.data).max(initial=0.0)
    bound = 1e-10 * (np.linalg.norm(b_aug) + normA * np.linalg.norm(y))
    # a singular factor passes the residual bound, which grows with the
    # blown-up x; the permuted copy is released first, since reading U
    # copies both factors
    del P
    pivot_ratio = None
    if lu.nnz <= PIVOT_CHECK_MAX_NNZ:
        pivots = np.abs(lu.U.diagonal())
        pivot_ratio = pivots.min() / pivots.max()
    log.info("solve: n=%(n)d nnz(A)=%(nnz)d lu.nnz=%(lu_nnz)d "
             "factor %(factor_s).3f s residual/bound %(res_ratio).2e "
             "ordering %(ordering)s pivot ratio %(pivot_ratio)s",
             dict(n=len(b_aug), nnz=nnz, lu_nnz=lu.nnz, factor_s=factor_s,
                  res_ratio=res / max(bound, 1e-300), ordering=ordering,
                  pivot_ratio=pivot_ratio))
    if res > max(bound, 1e-300):
        raise SolverError(
            f"residual contract violated: |Ax-b|={res:.3e} > {bound:.3e} "
            f"(n={n}, nnz={A.nnz})")
    if pivot_ratio is not None and pivots.min() < 1e-12 * pivots.max():
        raise SolverError(
            f"numerically singular factor: min|U_ii|/max|U_ii| = "
            f"{pivot_ratio:.3e} (n={n}, nnz={A.nnz})")
    x = np.empty_like(y)
    x[perm] = y
    return x[:n] if constraint is not None else x


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
        diff = (grad_exact(pts[..., 0], pts[..., 1])
                - space.grad_cells(coeffs, blk, qp))
        total += ((diff * diff).sum(axis=-1) @ qw) @ det
    return float(np.sqrt(total))
