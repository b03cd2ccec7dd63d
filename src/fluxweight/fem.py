"""Scalar Lagrange spaces on triangles, boundary trace spaces, assembly,
and the sparse linear-solve contract.

Bulk spaces support orders 1..4 (the discretization methods use 1 and 2;
the higher orders back the reference solves of the dual-norm evaluator,
which condenses out the element-interior dofs: they are numbered last,
after the skeleton_ndof vertex and edge dofs).
Assembly is vectorized over element blocks with a deterministic
reduction order.  The load pass sums f and |f| from their values at its
rule (rule_values, assemble_load_sums), which the estimator's volume
residual reads again.  The solver contract is a direct sparse
factorization with a verified residual and a factor that is not
numerically singular, by an estimate of its condition number from a few
solves with the factor itself.

Every system is factored in one elimination order, a nested dissection
of its own mesh (dissection_order): the tree of the Morton codes of the
triangle centroids, whose cuts are mesh lines, taken in post-order, with
each multiplier dof right after the bulk dofs of its facets'
triangles.  SuperLU keeps that order and gets large dense supernodes;
see solve for the fill and the factor times against reverse
Cuthill-McKee with minimum degree.  The order depends on the spaces
alone, so it is computed before assembly, and every system matrix is
assembled once, already in it, as the CSC matrix with int32 indices
that SuperLU factors (assemble_matrix): from its local matrices per
triangle, and per boundary facet for the methods' boundary terms, with
arrays of the size of its entries.  That matrix is the one copy of the
system: solve factors it as it is.  The full P4 stiffness on the 6240
triangles of the last franke-uniform-e1 E1 reference (1.18M entries,
13.7 MB) takes 0.062 s and a 45.4 MB traced peak, against 0.042 s and
37.7 MB for a CSR in the original numbering, which the factorization
would copy twice (permuted rows, then CSC); one core of a 2-core x86-64
machine.

Every rule on a space is the space's own (FeSpace.degree).  The
reference basis is tabulated once per (order, rule) (triangle_tables,
edge_tables), as read-only arrays that study threads share, and every
kernel reads the mesh's affine geometry, which it builds once
(Mesh.jacobians).
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
from scipy.sparse.linalg import splu

from .elements import EDGE_VERTICES, reference_element
from .quadrature import segment_rule, triangle_rule

log = logging.getLogger(__name__)

_BLOCK = 16384


class SolverError(RuntimeError):
    """Raised when a factorization fails or the residual contract is broken."""


class FeSpace:
    """Continuous Lagrange space of given order on a mesh.

    DOFs are enumerated vertices first, then (order-1) DOFs per global
    edge ordered from the lower- to the higher-numbered vertex, then
    element-interior DOFs.  This makes assembly deterministic and
    mesh-order independent.  The first skeleton_ndof DOFs are those of
    the vertices and edges, the unknowns that static condensation keeps.
    `degree`, 2 * order + 4, is the quadrature degree of every bulk and
    boundary rule on this space, E1's included.
    """

    def __init__(self, mesh, order):
        self.mesh = mesh
        self.order = order
        self.degree = 2 * order + 4
        self.element = reference_element(order)
        nv, ne, nt = mesh.num_vertices, len(mesh.edges), mesh.num_triangles
        p = order
        self.skeleton_ndof = nv + ne * (p - 1)
        self.ndof = self.skeleton_ndof + nt * self.element.n_interior_dofs

        nloc = self.element.ndof
        td = np.empty((nt, nloc), dtype=np.int64)
        td[:, :3] = mesh.triangles
        col = 3
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
        for i in range(n_int):
            td[:, col] = self.skeleton_ndof + np.arange(nt) * n_int + i
            col += 1
        self.tri_dofs = td

        onb = np.zeros(self.ndof, dtype=bool)
        onb[:nv] = mesh.vertex_on_boundary
        onb[nv + (mesh.bf_edge[:, None] * (p - 1) + np.arange(p - 1))] = True
        self.boundary_dofs = np.nonzero(onb)[0]


def _frozen(*tables):
    for t in tables:
        t.flags.writeable = False
    return tables


@lru_cache(maxsize=None)
def triangle_tables(order, degree):
    """The reference basis of `order` at the points of
    triangle_rule(degree): values (nq, nd), gradients (nq, nd, 2) and
    second derivatives (nq, nd, 3), ordered (xx, xy, yy).  Tabulated
    once per (order, rule), read-only: study threads share them."""
    qp, _ = triangle_rule(degree)
    el = reference_element(order)
    return _frozen(el.eval(qp), el.grad(qp), el.hess(qp))


@lru_cache(maxsize=None)
def edge_tables(order, t):
    """The reference basis of `order` at the parameters t (a tuple) on
    each local edge (reference_edge_points): values (3, len(t), nd) and
    gradients (3, len(t), nd, 2).  Tabulated once per (order, rule),
    read-only."""
    ref = reference_edge_points(np.array(t))
    el = reference_element(order)
    return _frozen(el.eval(ref), el.grad(ref))


def contract(co, table):
    """Coefficients (t, nd) against a reference table (nq, nd, c) of
    basis derivatives: shape (t, nq, c), by one matrix product."""
    nq, nd, c = table.shape
    flat = table.transpose(1, 0, 2).reshape(nd, nq * c)
    return (co @ flat).reshape(len(co), nq, c)


def physical_gradients(co, table, invJT):
    """Gradients (t, nq, 2) of the discrete functions with coefficients
    co (t, nd) on their triangles: contracted with the reference
    gradients (nq, nd, 2) first, then mapped by J^-T (t, 2, 2)."""
    return map_gradients(contract(co, table), invJT)


def map_gradients(ref, invJT):
    """Reference gradients (t, nq, 2) mapped by J^-T (t, 2, 2), entry by
    entry: the same sums as ref @ J^-T, without a matrix product per
    triangle."""
    return (ref[..., :1] * invJT[:, None, :, 0]
            + ref[..., 1:] * invJT[:, None, :, 1])


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
    basis is tabulated once per local edge (edge_tables), and each
    facet selects the table of its local edge.
    """
    mesh = space.mesh
    vref, gref = edge_tables(space.order, tuple(np.asarray(t, dtype=float)))
    vals = vref[mesh.bf_local]
    grads = None
    if gradients:
        g = gref[mesh.bf_local]
        invJT, _ = mesh.jacobians(mesh.bf_tri)
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
    """Polynomials in t with their monomial coefficients (lowest degree
    first) on the last axis of rows, evaluated by Horner's rule at t,
    which broadcasts against rows[..., 0]."""
    out = np.zeros(np.broadcast_shapes(rows.shape[:-1], np.shape(t)))
    for j in range(rows.shape[-1] - 1, -1, -1):
        out *= t
        out += rows[..., j]
    return out


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
    """Sparse matrix in CSC form plus right-hand side with a verified
    symmetry flag, and the order in which solve eliminates the unknowns:
    a permutation of range(n) (dissection_order), or None for the
    natural order.  The matrix is already in that order (P A P^T, see
    assemble_matrix); the right-hand side, like the solution, is in the
    original numbering.

    The symmetry flag is checked on the stored entries: every A_ij must
    be within 1e-12 max|A| of its mirror A_ji, which counts as 0 when it
    is not stored.
    """

    def __init__(self, matrix, rhs, symmetric=False, order=None):
        self.matrix = matrix.tocsc()
        self.matrix.sum_duplicates()
        self.rhs = np.asarray(rhs, dtype=float)
        if not np.isfinite(self.matrix.data).all():
            raise ValueError("non-finite matrix entries")
        if symmetric and _skew(self.matrix) > 1e-12 * np.abs(
                self.matrix.data).max(initial=0.0):
            raise ValueError("matrix claimed symmetric but is not")
        if order is not None:
            order = np.asarray(order)
            n = self.matrix.shape[0]
            if (len(order) != n
                    or not (np.bincount(order, minlength=n) == 1).all()):
                raise ValueError("order is not a permutation of the unknowns")
        self.symmetric = symmetric
        self.order = order


def _skew(A):
    """max |A_ij - A_ji| over the stored entries of the canonical CSC
    matrix A, a mirror that is not stored counting as 0.  A's arrays
    read as CSR are A^T, whose conversion to CSC sorts each column, so
    on a symmetric pattern the mirrors sit at the same positions as the
    entries; otherwise each mirror is looked up by its key."""
    n = A.shape[0]
    T = sparse.csr_matrix((A.data, A.indices, A.indptr),
                          shape=A.shape[::-1]).tocsc()
    if (np.array_equal(T.indptr, A.indptr)
            and np.array_equal(T.indices, A.indices)):
        mirror = T.data
    else:
        def keys(M):
            return (np.repeat(np.arange(n, dtype=np.int64), np.diff(M.indptr))
                    * n + M.indices)
        key, tkey = keys(A), keys(T)
        at = np.minimum(np.searchsorted(tkey, key), len(tkey) - 1)
        mirror = np.where(tkey[at] == key, T.data[at], 0.0)
    return np.abs(A.data - mirror).max(initial=0.0)


# bit spreading for Morton codes: each step moves half of the bits of
# every group one group-width up
_SPREAD = ((16, 0x0000FFFF0000FFFF), (8, 0x00FF00FF00FF00FF),
           (4, 0x0F0F0F0F0F0F0F0F), (2, 0x3333333333333333),
           (1, 0x5555555555555555))


def _morton(q):
    """Interleave the 26-bit integer coordinates (x, y) of points: x in
    the even bits, y in the odd ones."""
    out = []
    for v in q:
        for shift, mask in _SPREAD:
            v = (v | (v << shift)) & mask
        out.append(v)
    return out[0] | (out[1] << 1)


def dissection_order(space, multiplier_space=None):
    """Nested-dissection elimination order of the unknowns of a bulk
    space, followed, when given, by those of a multiplier space on its
    boundary (numbered after the bulk ones, as in the saddle systems).

    The dissection is the binary tree of the Morton codes of the
    triangle centroids, quantized to 26 bits per axis over the bounding
    square of the centroids: a quadtree whose cells are halved along y,
    then along x, one bit of the code per half.  A bulk dof belongs to
    the tree node of the longest common prefix of the least and the
    greatest code over its triangles, the smallest cell that holds all
    of them, so the dofs on a cut are the separator of that node.  The nodes are taken in post-order, by the code of
    the last leaf under them with deeper nodes first on a tie, and the
    dofs of one node in their own order.  A multiplier dof comes right
    after the last bulk dof of the triangles of the facets it couples
    to, so its pivot is met after the bulk block it borders.
    """
    mesh, td = space.mesh, space.tri_dofs
    t = mesh.triangles.T
    # three times the centroids, per axis: the quantization is scale-free
    c = [v[t[0]] + v[t[1]] + v[t[2]] for v in mesh.vertices.T]
    lo = [axis.min() for axis in c]
    side = max(axis.max() - low for axis, low in zip(c, lo))
    scale = ((1 << 26) - 1) / side if side > 0 else 0.0
    code = _morton([((axis - low) * scale).astype(np.int64)
                    for axis, low in zip(c, lo)])
    # the least and greatest code over the triangles of each dof
    dofs, codes = td.ravel(), np.repeat(code, td.shape[1])
    cmin = np.full(space.ndof, np.iinfo(np.int64).max)
    np.minimum.at(cmin, dofs, codes)
    cmax = np.zeros(space.ndof, dtype=np.int64)
    np.maximum.at(cmax, dofs, codes)
    # the codes have 52 bits, so the difference is exact in float64 and
    # frexp gives its bit length: the bits below the common prefix
    free = np.frexp((cmin ^ cmax).astype(float))[1].astype(np.int64)
    last_leaf = cmin | ((1 << free) - 1)
    # post-order: sort by last leaf, then depth; free < 64 fits below
    # the 52-bit leaf shifted by 6
    order = np.argsort((last_leaf << 6) | free, kind="stable")
    if multiplier_space is None:
        return order
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    facet_last = rank[td[mesh.bf_tri]].max(axis=1)
    fd = multiplier_space.facet_dofs
    after = np.full(multiplier_space.ndof, -1, dtype=np.int64)
    np.maximum.at(after, fd, np.broadcast_to(facet_last[:, None], fd.shape))
    return np.argsort(np.concatenate([2 * rank, 2 * after + 1]),
                      kind="stable")


def _blocks(n, size=_BLOCK):
    for lo in range(0, n, size):
        yield slice(lo, min(lo + size, n))


@lru_cache(maxsize=None)
def _stiffness_tensor(order):
    """Reference tensor S[q, b, c, i, j] = d_b phi_i d_c phi_j at the
    points of its space's rule, as a (nq * 4, nd * nd) matrix, and its
    weighted sum over q, as a (4, nd * nd) matrix."""
    degree = 2 * order + 4
    qw = triangle_rule(degree)[1]
    g = triangle_tables(order, degree)[1]  # (nq, nd, 2)
    nq, nd, _ = g.shape
    S = np.einsum("qib,qjc->qbcij", g, g).reshape(nq, 4, nd * nd)
    Sw = np.einsum("q,qkm->km", qw, S)
    S = S.reshape(nq * 4, nd * nd)
    S.flags.writeable = Sw.flags.writeable = False
    return S, Sw


def element_stiffness(space, a=None):
    """Element matrices of the diffusion form with scalar coefficient a,
    shape (triangles, nd, nd), written block by block into one array."""
    mesh, nd = space.mesh, space.element.ndof
    qp, qw = triangle_rule(space.degree)
    S, Sw = _stiffness_tensor(space.order)
    Ke = np.empty((mesh.num_triangles, nd * nd))
    invJT_all, det_all = mesh.jacobians()
    for blk in _blocks(mesh.num_triangles):
        invJT, det = invJT_all[blk], det_all[blk]
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


def assemble_matrix(shape, terms, order=None):
    """CSC matrix of the given shape that sums local matrices, its rows
    and columns renumbered into the elimination order `order` (a
    permutation of range(n), see dissection_order; None keeps the
    numbering): unknown order[i] becomes row and column i, so the result
    is P A P^T, the matrix that solve factors as it is.

    Each term is (row dofs (e, p), column dofs (e, q), local matrices
    (e, p, q)): entry [e, i, j] is added at (rows[e, i], cols[e, j]).
    All entries go through one conversion to CSR with int32 indices,
    with the rows already renumbered: a row holds the entries of its
    unknown in the input order whatever its number, so the duplicates
    are summed as in the original numbering, to the same bits.  The
    entries that sum to exactly zero are dropped, and the conversion to
    CSC, with the columns renumbered, copies the rest out of the CSR's
    buffers, which have a slot for every duplicate, into arrays of
    their own size.
    """
    # rank[d]: the new number of unknown d
    rank = np.arange(shape[0], dtype=np.int32)
    if order is not None:
        rank[order] = rank.copy()
    total = sum(local.size for _, _, local in terms)
    rows = np.empty(total, dtype=np.int32)
    cols = np.empty(total, dtype=np.int32)
    lo = 0
    for dofs_i, dofs_j, local in terms:
        hi = lo + local.size
        rows[lo:hi].reshape(local.shape)[:] = rank[dofs_i][:, :, None]
        cols[lo:hi].reshape(local.shape)[:] = dofs_j[:, None, :]
        lo = hi
    if len(terms) == 1:  # the entries of a lone term are not copied
        vals = terms[0][2].ravel()
    else:
        vals = np.concatenate([local.ravel() for _, _, local in terms])
    A = sparse.csr_matrix((vals, (rows, cols)), shape=shape)
    del rows, cols, vals
    A.eliminate_zeros()
    return sparse.csr_matrix((A.data, rank[A.indices], A.indptr),
                             shape=shape).tocsc()


def assemble_stiffness(space, a=None):
    """Stiffness matrix of the diffusion form with scalar coefficient a.

    With no boundary terms the result is symmetric positive semidefinite
    with the constants in its kernel.
    """
    td = space.tri_dofs
    return assemble_matrix((space.ndof, space.ndof),
                           [(td, td, element_stiffness(space, a))])


def rule_values(space, fn):
    """fn(x, y) at the points of the space's triangle rule, block by
    block: fn returns a tuple of arrays of leading shape (block, nq),
    and so does this, for every triangle, written block by block into
    arrays allocated once."""
    mesh = space.mesh
    qp, _ = triangle_rule(space.degree)
    out = None
    for blk in _blocks(mesh.num_triangles):
        vals = fn(*np.moveaxis(mesh.triangle_points(blk, qp), -1, 0))
        if out is None:
            out = tuple(np.empty((mesh.num_triangles,) + np.shape(v)[1:])
                        for v in vals)
        for o, v in zip(out, vals):
            o[blk] = v
    return out


def assemble_load_sums(space, fv):
    """Load vector b_i = integral of f * phi_i and integral |f| by the
    same rule (sum |f(x_q)| w_q det J; the sum of b is integral f), from
    the values fv of f at the rule's points (rule_values)."""
    mesh = space.mesh
    qw = triangle_rule(space.degree)[1]
    vref = triangle_tables(space.order, space.degree)[0]  # (nq, nd)
    _, det = mesh.jacobians()
    be = np.empty((mesh.num_triangles, vref.shape[1]))
    abs_f = 0.0
    for blk in _blocks(mesh.num_triangles):
        fw = fv[blk] * qw * det[blk, None]
        np.matmul(fw, vref, out=be[blk])
        abs_f += np.abs(fw).sum()
    b = np.bincount(space.tri_dofs.ravel(), weights=be.ravel(),
                    minlength=space.ndof)
    return b, float(abs_f)


def assemble_load(space, f):
    """Load vector b_i = integral of f * phi_i."""
    fv, = rule_values(space, lambda x, y: (f(x, y),))
    return assemble_load_sums(space, fv)[0]


def boundary_integral_vector(space):
    """Vector c_i = integral of phi_i over the boundary."""
    t, w = segment_rule(space.degree)
    vals, _, dofs = facet_basis(space, t)
    return facet_vector(space.ndof, dofs, vals,
                        w * space.mesh.bf_len[:, None])


def solve(system):
    """Direct solve honoring the residual contract: factors
    system.matrix, which is already in the elimination order
    system.order (P A P^T, see assemble_matrix), as it is, and returns x
    in the original numbering.  Only vectors are permuted: b into the
    elimination order, and the solution back out of it.

    Raises SolverError when the factorization fails, when the factor is
    numerically singular (rcond < 1e-12, at every size; SuperLU's exactly
    singular factor has a zero pivot and is reported as such), or when
    the residual, computed on the factored matrix, exceeds
    1e-10 * (|b| + |A|*|x|).  rcond = 1 / (|A|_1 est|A^-1|_1) is the
    reciprocal 1-norm condition number, with |A^-1|_1 estimated by
    Hager's algorithm on the factor itself (_inverse_norm1, 3-9
    solves); |A|_1 and max|A_ij| are read before the factorization, so
    no array of the size of A or of its factor is made while the
    factor is alive.  Every solve that factors logs one
    INFO line; its arguments are a dict with the order n and the
    nonzeros nnz of the system, the factor's lu_nnz, input_bytes (the
    bytes of the CSC arrays that SuperLU factors) and lu_bytes (those of
    lu_nnz values and row indices of the same types, the size of a CSC
    copy of both factors), the factor time factor_s, the
    residual-to-bound ratio res_ratio, the ordering ("dissection", or
    "natural" when system.order is None) and rcond.  The caller's matrix
    is the only copy of the system.

    SuperLU keeps the order (its NATURAL column order, which scipy runs
    in symmetric mode) and prefers diagonal pivots (threshold 0.1).  In
    the dissection order a multiplier dof follows the bulk dofs it
    couples to, so its zero diagonal has filled in by the time it is
    eliminated.  Against reverse Cuthill-McKee followed by SuperLU's
    minimum degree (on A^T + A, or on A^T A with default pivoting for a
    saddle system), LU nonzeros and factor time:
    - E1 of Franke, Nitsche k=2 on 64x64, P4 on the band with its
      interior unknowns condensed out and one unknown pinned (55 665
      unknowns): 8.60M -> 5.91M, 0.64 s -> 0.31 s (uncondensed, 88 449
      unknowns: 7.08M -> 6.83M, 0.57 s -> 0.39 s);
    - E1 at the last step of the Franke AMR benchmark (P3, condensed,
      31 572): 2.70M -> 1.95M, 0.18 s -> 0.11 s (uncondensed, 40 408:
      2.44M -> 2.13M, 0.20 s -> 0.11 s);
    - P2 bulk against a P0 multiplier on 64x64 (16 897): 2.54M ->
      1.87M, 0.20 s -> 0.09 s;
    - Nitsche P2 on 64x64 (16 641): 1.34M -> 1.07M, 0.08 s -> 0.04 s.
    Times are medians of three factorizations on one core of a 2-core
    x86-64 machine.  The ordering itself costs 0.1-0.7 ms for P1
    systems of up to 3000 unknowns and 4-8 ms at 88 449.
    """
    A = system.matrix
    b = system.rhs
    n = A.shape[0]
    if system.order is None:
        ordering, perm = "natural", np.arange(n)
    else:
        ordering, perm = "dissection", system.order
    pb = b[perm]
    # max|A_ij| for the residual bound and |A|_1 for rcond; the column
    # sums of |A| run over the nonempty columns only, which an empty
    # column, adding nothing, lies between
    absA = np.abs(A.data)
    normA = absA.max(initial=0.0)
    norm1 = np.add.reduceat(
        absA, A.indptr[:-1][np.diff(A.indptr) > 0]).max(initial=0.0)
    del absA
    t0 = time.perf_counter()
    try:
        lu = splu(A, permc_spec="NATURAL", diag_pivot_thresh=0.1)
        factor_s = time.perf_counter() - t0
        y = lu.solve(pb)
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
    res = np.linalg.norm(A @ y - pb)
    bound = 1e-10 * (np.linalg.norm(b) + normA * np.linalg.norm(y))
    # a singular factor passes the residual bound, which grows with the
    # blown-up x; it has a tiny rcond
    rcond = float(1.0 / (norm1 * _inverse_norm1(lu, n)))
    log.info("solve: n=%(n)d nnz(A)=%(nnz)d lu.nnz=%(lu_nnz)d "
             "factor input %(input_bytes)d B, LU %(lu_bytes)d B, "
             "factor %(factor_s).3f s residual/bound %(res_ratio).2e "
             "ordering %(ordering)s rcond %(rcond).2e",
             dict(n=n, nnz=A.nnz, lu_nnz=lu.nnz,
                  input_bytes=(A.data.nbytes + A.indices.nbytes
                               + A.indptr.nbytes),
                  lu_bytes=lu.nnz * (A.data.itemsize + A.indices.itemsize),
                  factor_s=factor_s,
                  res_ratio=res / max(bound, 1e-300), ordering=ordering,
                  rcond=rcond))
    if res > max(bound, 1e-300):
        raise SolverError(
            f"residual contract violated: |Ax-b|={res:.3e} > {bound:.3e} "
            f"(n={n}, nnz={A.nnz})")
    if not rcond >= 1e-12:  # NaN counts as singular
        raise SolverError(
            f"numerically singular factor: rcond = {rcond:.3e} "
            f"(n={n}, nnz={A.nnz})")
    x = np.empty_like(y)
    x[perm] = y
    return x


def _inverse_norm1(lu, n):
    """Hager's estimate of |A^-1|_1 from the factor lu of A (n x n), as
    LAPACK's dlacn2 computes it for dgecon: from x = (1/n, ..., 1/n),
    |A^-1 x|_1 is raised along the unit vector e_j of the largest
    |A^-T sign(A^-1 x)|_j, for at most four unit vectors, until the
    signs repeat or the estimate stops growing; then the alternating
    x_i = (-1)^i (1 + i/(n-1)) is tried, with |x|_1 = 3n/2.  Each value
    is |A^-1 x|_1 / |x|_1 for some x, so their maximum, the estimate, is
    a lower bound of |A^-1|_1; it is deterministic.  The first and the
    alternating x share one solve, and the last unit vector skips its
    transposed solve, which dlacn2 makes without using it: 3-9 solves.
    """
    if n == 1:
        return abs(lu.solve(np.ones(1))[0])
    alt = 1.0 + np.arange(n) / (n - 1)
    alt[1::2] *= -1.0
    v, w = lu.solve(np.column_stack([np.full(n, 1.0 / n), alt])).T
    est = np.abs(v).sum()
    best = max(est, 2.0 * np.abs(w).sum() / (3 * n))
    sign = np.where(v >= 0, 1.0, -1.0)
    j = np.argmax(np.abs(lu.solve(sign, trans="T")))
    for unit in range(4):
        e = np.zeros(n)
        e[j] = 1.0
        v = lu.solve(e)
        old, est = est, np.abs(v).sum()
        best = max(best, est)
        new_sign = np.where(v >= 0, 1.0, -1.0)
        if unit == 3 or est <= old or np.array_equal(new_sign, sign):
            break
        sign = new_sign
        z = lu.solve(sign, trans="T")
        jlast, j = j, np.argmax(np.abs(z))
        if z[jlast] == abs(z[j]):
            break
    return best


def h1_seminorm_error(space, coeffs, grad_exact):
    """|grad(u - u_h)| over the mesh, with grad_exact(x, y) -> (..., 2).
    A step gets it from the estimator's volume pass instead, which
    shares grad u_h with the volume residual."""
    mesh = space.mesh
    qp, qw = triangle_rule(space.degree)
    gref = triangle_tables(space.order, space.degree)[1]
    invJT, det = mesh.jacobians()
    total = 0.0
    for blk in _blocks(mesh.num_triangles):
        pts = mesh.triangle_points(blk, qp)
        diff = (grad_exact(pts[..., 0], pts[..., 1])
                - physical_gradients(coeffs[space.tri_dofs[blk]], gref,
                                     invJT[blk]))
        total += ((diff * diff).sum(axis=-1) @ qw) @ det[blk]
    return float(np.sqrt(total))
