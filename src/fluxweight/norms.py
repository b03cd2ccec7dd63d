"""Two independent evaluations of the dual trace norm of the flux error.

E1 lifts the boundary residual through an auxiliary pure-Neumann
problem solved with higher-order elements on a finer mesh and returns
the energy of the lifting.  Its load integrates the residual on each
facet of that mesh with one facet rule, so the facets must refine the
residual's pieces.  The load lives on the boundary, where the
element-interior basis functions vanish, so those unknowns are
condensed out before assembly and only the vertex and edge unknowns
reach the factorization.  Their elimination order is computed first and
the condensed matrix assembled in it, so the factorization reads the
one CSC copy of the system that E1 holds (fem.assemble_matrix).  The
load is projected to mean zero and one unknown is pinned, which fixes
the additive constant of the lifting without changing its energy.  E2
expands cell averages of the residual on a dyadic boundary grid in a
periodic (2,2)-biorthogonal wavelet basis and takes the weighted
coefficient norm; the two are equivalent norms on the dual trace space.

E2 of a flux error samples 2^M dyadic cells with the 3-point Gauss rule
(exact to degree 5).  The first E2 of a problem instance caches, under
(domain polygon, M, whether the flux reads a and g), the Gauss sums
over every cell of the exact flux and, for a Nitsche flux, of g, and a
as one number when it is the same everywhere (else at each Gauss
point): two arrays of 2^M doubles for Franke's problem, one for a
multiplier flux.  On the cells that lie inside one boundary facet,
each step then turns the facet's Gauss-averaged discrete flux into one
polynomial in the cell's index within the facet and expands it with
one Horner pass, so that a step costs a handful of passes over the 2^M
cells whatever the mesh.  Any other BoundaryFunction has every cell
integrated whole by the same rule.  Then, for both, the cells that a
breakpoint cuts are integrated again piece by piece (_cut_pieces).

The analysis pyramid (WaveletPyramid.analyze), whose weighted norm is
E2's, runs by lifting (_lift, after Sweldens 1996): each level is the
Haar sums of the finer one plus four shifted Haar differences, computed
in the level's own arrays.  On the 2^17 cells of the benchmark's E2 the
norm takes 1.7-2.1 ms against 2.1-3.7 ms with the ten taps (best of
7 x 20 calls, five runs on one core of a 2-core x86-64 machine).
dwt_step keeps the ten taps in tap order as the reference the tests
hold the lifting to: every coefficient within 4 eps max|v|, the norm
within 1e-15 relative.
"""

import logging
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import fem
from .fem import FeSpace, SparseSystem
from .mesh import boundary_at, polygon_sides
from .quadrature import segment_rule

# analysis low-pass filter of the (2,2)-biorthogonal wavelet; the taps
# are exact dyadic rationals scaled by sqrt(2)/2
LOW_PASS = (math.sqrt(2.0) / 2.0) * np.array(
    [3 / 128, -3 / 128, -11 / 64, 11 / 64, 1.0, 1.0,
     11 / 64, -11 / 64, -3 / 128, 3 / 128])

MAX_LEVEL = 40

log = logging.getLogger(__name__)


@dataclass
class BoundaryFunction:
    """Scalar function on the boundary, evaluable per facet parameter.

    `evaluate(facet_ids, t)` takes equal-length arrays; `breakpoints`
    are the arc lengths where the function may jump (facet endpoints for
    discrete fluxes).
    """

    mesh: object
    evaluate: Callable
    breakpoints: np.ndarray = None

    def __post_init__(self):
        if self.breakpoints is None:
            self.breakpoints = np.asarray(self.mesh.bf_s0)

    def eval_s(self, s):
        """Evaluate at global arc lengths (wrapped into [0, perimeter))."""
        mesh = self.mesh
        s = np.mod(np.asarray(s, dtype=float), mesh.perimeter)
        f = mesh.facet_of_s(s)
        t = (s - mesh.bf_s0[f]) / mesh.bf_len[f]
        return self.evaluate(f, np.clip(t, 0.0, 1.0))


@dataclass
class FluxError(BoundaryFunction):
    """delta = (exact flux) - (discrete flux) of a discrete solution.

    `evaluate` works like any BoundaryFunction's; `sample_to_dyadic`
    also uses the solution's BoundaryFlux and the problem's cached
    boundary data on the dyadic cells that no facet end cuts.
    """

    solution: object = None


def flux_error_function(solution):
    """delta = (exact flux) - (discrete flux) as a BoundaryFunction."""
    problem = solution.problem
    mesh = solution.mesh

    def ev(facet_ids, t):
        facet_ids = np.asarray(facet_ids, dtype=np.int64)
        t = np.asarray(t, dtype=float)
        pts = mesh.boundary_points(facet_ids, t)
        nrm = mesh.bf_normal[facet_ids]
        lam = problem.exact_flux(pts[:, 0], pts[:, 1], nrm[:, 0], nrm[:, 1])
        return lam - solution.flux_values(facet_ids, t)
    return FluxError(mesh, ev, solution=solution)


def _cut_pieces(total, n, breakpoints):
    """The cells of the n equal cells of [0, total) that a breakpoint
    cuts, and their pieces.

    Returns (cells, left, right, owner): the pieces of [0, total) split
    at the cell starts and the breakpoints (slivers below 1e-14 * total
    dropped) that lie in those cells.  Cell k starts at k * width;
    with total / n a power of two (perimeter 4 or 8, n = 2^M) every
    product and quotient below is exact.
    """
    width = total / n
    b = np.mod(breakpoints, total)
    cell = np.floor(b / width)
    inner = b > cell * width
    cells = np.unique(cell[inner])
    edges = np.unique(np.concatenate(
        [cells * width, (cells + 1) * width, b[inner]]))
    left, right = edges[:-1], edges[1:]
    owner = np.floor(0.5 * (left + right) / width)
    keep = np.isin(owner, cells) & ((right - left) > 1e-14 * total)
    return (cells.astype(np.int64), left[keep], right[keep],
            owner[keep].astype(np.int64))


def _integrate_pieces(v, left, right, owner, out, gp, gw):
    """Add the integral of v over each piece to out[owner]."""
    chunk = 1 << 18
    for lo in range(0, len(left), chunk):
        sl = slice(lo, min(lo + chunk, len(left)))
        ln, on = left[sl], owner[sl]
        length = right[sl] - ln
        acc = np.zeros(len(ln))
        for q in range(len(gp)):
            acc += gw[q] * v.eval_s(ln + gp[q] * length)
        np.add.at(out, on, acc * length)


_CHUNK = 1 << 12


def _dyadic_boundary_data(problem, polygon, M, gp, gw, with_data):
    """Gauss sums of the boundary data over every dyadic cell of level M
    on the polygon's boundary, for the rule (gp, gw) on each cell.

    "lam" holds sum_q w_q lam(x_q) of the exact flux, one entry per
    cell.  When with_data (the flux reads a and g: Nitsche's), "g" holds
    sum_q w_q g(x_q) of the Dirichlet data g, the trace of the exact
    solution u, and "a" the value of a if it is the same at every point,
    else an array of its values of shape (len(gp), 2^M).  Kept in
    problem.dyadic_cache under (polygon, M, with_data), computed once,
    in chunks of cells: the points, normals and data of every rule point
    of a chunk in one pass, with lam and g from one evaluation of u and
    grad u (ProblemSpec.boundary_values).  A cell that a corner
    cuts gets values from the side of each point; sample_to_dyadic never
    reads them, since corners are facet ends.
    """
    key = (polygon.tobytes(), M, with_data)
    if key in problem.dyadic_cache:
        return problem.dyadic_cache[key]
    n = 1 << M
    total = polygon_sides(polygon)[2][-1]
    lam = np.zeros(n)
    g = np.zeros(n) if with_data else None
    a0 = a_pts = None
    for lo in range(0, n, _CHUNK):
        starts = total * np.arange(lo, min(lo + _CHUNK, n)) / n
        cells = slice(lo, lo + len(starts))
        # every rule point of the chunk's cells, row q for the rule's
        # point q
        s = starts + (total / n) * gp[:, None]
        x, y, nx, ny = boundary_at(polygon, s.ravel())
        if with_data:
            lam_q, g_q = problem.boundary_values(x, y, nx, ny)
        else:
            lam_q = problem.exact_flux(x, y, nx, ny)
        for q, w in enumerate(gw):
            lam[cells] += w * lam_q.reshape(s.shape)[q]
            if with_data:
                g[cells] += w * g_q.reshape(s.shape)[q]
        if with_data:
            av = np.broadcast_to(problem.a(x, y), x.shape).reshape(s.shape)
            if a0 is None:
                a0 = float(av[0, 0])
            if a_pts is None and (av != a0).any():
                a_pts = np.full((len(gp), n), a0)
            if a_pts is not None:
                a_pts[:, cells] = av
    data = {"lam": lam}
    if with_data:
        data["g"] = g
        data["a"] = a0 if a_pts is None else a_pts
    problem.dyadic_cache[key] = data
    return data


def _local_index_poly(coef, t0, beta):
    """Rows of monomial coefficients in t (lowest degree first),
    rewritten in j where t = t0 + beta*j (t0, beta one per row)."""
    out = np.empty_like(coef)
    deg = coef.shape[1] - 1
    for i in range(deg + 1):
        # Taylor shift: sum over m >= i of C(m, i) c_m t0^(m - i)
        acc = math.comb(deg, i) * coef[:, deg]
        for m in range(deg - 1, i - 1, -1):
            acc = acc * t0 + math.comb(m, i) * coef[:, m]
        out[:, i] = acc * beta ** i
    return out


def _expand(coef, count, j):
    """Per-row polynomials in the local index, evaluated at every cell:
    row f serves the next count[f] cells, whose local indices are j."""
    out = np.repeat(coef[:, -1], count)
    for m in range(coef.shape[1] - 2, -1, -1):
        out *= j
        out += np.repeat(coef[:, m], count)
    return out


def _first_cells(mesh, n):
    """The first of the n dyadic cells whose midpoint lies at or past
    each facet start: the cells from there to the next facet's first
    one have their midpoints on the facet.  Exact, as in _cut_pieces."""
    return np.ceil(mesh.bf_s0 / (mesh.perimeter / n) - 0.5).astype(np.int64)


def _flux_error_cells(solution, M, gp, gw):
    """Integral of the flux error over every dyadic cell of level M,
    valid where the cell lies inside one facet.

    On facet f, the Gauss point q of the j-th cell from the facet's
    first one sits at t = t0_fq + beta_f j, so the Gauss-weighted sum
    of a per-facet polynomial is one polynomial in j per facet.  The
    cached sums of the exact flux and g complete the cell integral; a
    only enters per point where it varies.
    """
    mesh = solution.mesh
    flux = solution.flux
    data = _dyadic_boundary_data(solution.problem, mesh.polygon, M, gp, gw,
                                 with_data=flux.d is not None)
    n = 1 << M
    width = mesh.perimeter / n
    first = _first_cells(mesh, n)
    count = np.diff(np.append(first, n))
    j = np.arange(n, dtype=float)
    j -= np.repeat(first, count)
    beta = width / mesh.bf_len
    t0 = [((first + p) * width - mesh.bf_s0) / mesh.bf_len for p in gp]
    a = data.get("a")
    per_point = flux.d is not None and isinstance(a, np.ndarray)
    if flux.d is None or per_point:
        poly = flux.q
    else:
        poly = a * flux.d + flux.q
    coef = sum(w * _local_index_poly(poly, t, beta) for w, t in zip(gw, t0))
    acc = _expand(coef, count, j)
    np.subtract(data["lam"], acc, out=acc)
    if flux.d is not None:
        cg = np.repeat(flux.c, count)
        cg *= data["g"]
        acc -= cg
    if per_point:
        for q in range(len(gp)):
            d = _expand(_local_index_poly(flux.d, t0[q], beta), count, j)
            d *= a[q]
            d *= gw[q]
            acc -= d
    acc *= width
    return acc


def sample_to_dyadic(v, M):
    """Scaled cell averages of v on the uniform dyadic boundary grid.

    Entry k is 2^(M/2)/|boundary| times the integral of v over the k-th
    dyadic cell, counterclockwise from the anchor.  Integration cells
    that a breakpoint cuts are split there, so piecewise-polynomial
    traces are integrated exactly.  The other cells are integrated whole:
    for a FluxError from its solution's BoundaryFlux and the cached
    Gauss sums of the boundary data over each cell, for any other
    BoundaryFunction through `evaluate`.  The cut cells are then zeroed
    and integrated piece by piece through `evaluate`.
    """
    if M < 3:
        raise ValueError("dyadic level must be at least 3")
    if M > MAX_LEVEL:
        raise ValueError(f"dyadic level {M} exceeds {MAX_LEVEL}")
    total = v.mesh.perimeter
    n = 1 << M
    gp, gw = segment_rule(5)
    if isinstance(v, FluxError):
        out = _flux_error_cells(v.solution, M, gp, gw)
    else:
        out = np.zeros(n)
        edges = total * np.arange(n + 1) / n
        _integrate_pieces(v, edges[:-1], edges[1:], np.arange(n), out, gp, gw)
    cells, left, right, owner = _cut_pieces(total, n, v.breakpoints)
    out[cells] = 0.0
    _integrate_pieces(v, left, right, owner, out, gp, gw)
    out *= 2.0 ** (M / 2.0) / total
    return out


def dwt_step(v):
    """One analysis step: returns (coarse averages, detail coefficients).

    Periodic extension; input length must be a power of two >= 2.  The
    low-pass taps sum to sqrt(2), so the coarse coefficients stay
    consistent with the 2^(j/2)-scaled cell-average convention of
    sample_to_dyadic (constants gain a factor sqrt(2) per level); the
    details are orthonormal two-cell differences.  This is the ten-tap
    form, summed in tap order: the reference of the lifting (_lift)
    that the pyramid and the norm use.
    """
    v = np.asarray(v, dtype=float)
    n = len(v)
    if n < 2 or (n & (n - 1)) != 0:
        raise ValueError("input length must be a power of two >= 2")
    # de-interleaved cyclic padding: even[m + i] == v[(2i + 2m) % n] and
    # odd[m + i] == v[(2i + 2m + 1) % n], so tap l reads a contiguous slice
    h = n // 2
    pad = (0, len(LOW_PASS) // 2)
    even = np.pad(v[0::2], pad, mode="wrap")
    odd = np.pad(v[1::2], pad, mode="wrap")
    vj = np.zeros(h)
    for l, hl in enumerate(LOW_PASS):
        vj += hl * (odd if l % 2 else even)[l // 2:l // 2 + h]
    dj = (math.sqrt(2.0) / 2.0) * (even[:h] - odd[:h])
    return vj, dj


_C = math.sqrt(2.0) / 2.0


def _levels(v):
    """M of a vector of length 2^M; ValueError for any other length."""
    n = len(v)
    if n < 1 or (n & (n - 1)) != 0:
        raise ValueError("input length must be a power of two")
    return n.bit_length() - 1


def _lift(v, coarse, s, d):
    """dwt_step of v (length 2h) by lifting, in preallocated buffers:
    the coarse coefficients go to coarse[:h] and the details to s[:h];
    s and d need room for h + 4.

    With the Haar sums s[k] = v[2k] + v[2k+1] and differences
    d[k] = v[2k] - v[2k+1] (indices cyclic, so the first four follow the
    h), the ten taps pair into
    coarse[k] = c (s[k+2] + 3/128 (d[k] - d[k+4]) + 11/64 (d[k+3] - d[k+1]))
    and the details are c d[k], c = sqrt(2)/2: eleven passes over h
    entries in place of twenty-six.  Returns (coarse[:h], s[:h]).
    """
    h = len(v) // 2
    even, odd = v[0::2], v[1::2]
    np.add(even, odd, out=s[:h])
    np.subtract(even, odd, out=d[:h])
    if h >= 4:
        s[h:h + 4] = s[:4]
        d[h:h + 4] = d[:4]
    else:
        s[h:h + 4] = np.resize(s[:h], 4)
        d[h:h + 4] = np.resize(d[:h], 4)
    out = coarse[:h]
    np.subtract(d[:h], d[4:h + 4], out=out)
    out *= 3 / 128
    out += s[2:h + 2]
    tmp = s[:h]  # the sums are used up
    np.subtract(d[3:h + 3], d[1:h + 1], out=tmp)
    tmp *= 11 / 64
    out += tmp
    out *= _C
    np.multiply(d[:h], _C, out=tmp)
    return out, tmp


@dataclass
class WaveletPyramid:
    """Full analysis pyramid of a dyadic coefficient vector."""

    M: int
    v: list = field(default_factory=list)   # v[j] has length 2^j, j=0..M
    d: list = field(default_factory=list)   # d[j] has length 2^j, j=0..M-1

    @classmethod
    def analyze(cls, vM):
        """The pyramid of vM by lifting (_lift), one level at a time;
        the Haar differences of every level share one buffer."""
        vM = np.asarray(vM, dtype=float)
        M = _levels(vM)
        vs = [None] * (M + 1)
        ds = [None] * M
        vs[M] = vM
        d = np.empty(len(vM) // 2 + 4)
        for j in range(M - 1, -1, -1):
            h = 1 << j
            vs[j], ds[j] = _lift(vs[j + 1], np.empty(h), np.empty(h + 4), d)
        return cls(M, vs, ds)

    def norm(self):
        """sqrt(|v0|^2 + sum_j 2^-j |d_j|^2)."""
        total = float(self.v[0] @ self.v[0])
        for j in range(self.M):
            total += 2.0 ** (-j) * float(self.d[j] @ self.d[j])
        return math.sqrt(total)

    def dump(self, path):
        """CSV dump: level, index, v, d (d empty on the finest level)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("level,index,v,d\n")
            for j in range(self.M + 1):
                dj = self.d[j] if j < self.M else None
                for k in range(1 << j):
                    dval = f"{dj[k]:.17g}" if dj is not None else ""
                    fh.write(f"{j},{k},{self.v[j][k]:.17g},{dval}\n")


def wavelet_norm_of_vector(vM):
    return WaveletPyramid.analyze(vM).norm()


def wavelet_norm(v, M=20):
    """E2: dual-norm surrogate of the boundary function v at level M.

    Logs one INFO line: M, the depth log2(|boundary|/h_min) of the
    shortest boundary facet, and whether the mesh is finer than the
    dyadic grid there (depth above M), where the cells do not resolve
    the pieces of a flux error.
    """
    mesh = v.mesh
    depth = math.log2(mesh.perimeter / mesh.bf_len.min())
    log.info("E2: level M=%(M)d, shortest boundary facet at "
             "log2(|boundary|/h_min) = %(depth).2f: %(verdict)s",
             dict(M=M, depth=depth,
                  verdict=("mesh finer than the grid" if depth > M
                           else "grid at least as fine as the mesh")))
    return wavelet_norm_of_vector(sample_to_dyadic(v, M))


def _condensed_stiffness(space, order):
    """Stiffness matrix (coefficient 1) on the vertex and edge unknowns
    of space, the first space.skeleton_ndof, with the element-interior
    unknowns eliminated triangle by triangle (static condensation), in
    the elimination order `order` of those unknowns (see
    fem.assemble_matrix).

    Each element matrix [[K_ss, K_sb], [K_bs, K_bb]], s its vertex and
    edge dofs and b its interior ones, becomes its Schur complement
    K_ss - K_sb K_bb^-1 K_bs, by one batched solve.  The energy of the
    result at x is the least energy of the full matrix over the
    interior unknowns with the others fixed at x.
    """
    ns = space.element.ndof - space.element.n_interior_dofs
    Ke = fem.element_stiffness(space)
    Ksb = Ke[:, :ns, ns:]
    S = Ksb @ np.linalg.solve(Ke[:, ns:, ns:], Ksb.transpose(0, 2, 1))
    np.subtract(Ke[:, :ns, :ns], S, out=S)
    del Ke, Ksb  # the full element matrices go before the conversion
    td = space.tri_dofs[:, :ns]
    n = space.skeleton_ndof
    return fem.assemble_matrix((n, n), [(td, td, S)], order)


def _pin(A, b, order):
    """Pin the unknown eliminated last, order[-1]: make the last row and
    column of the CSC matrix A, which is in the elimination order, the
    identity's, and b[order[-1]] = 0 (b in the original numbering), in
    place.  For a singular A whose kernel is the constants and a load b
    of zero sum, the solution is the one with x[order[-1]] = 0."""
    p = A.shape[0] - 1
    A.data[A.indptr[p]:] = 0.0
    A.data[A.indices == p] = 0.0
    A[p, p] = 1.0
    b[order[-1]] = 0.0


def neumann_dual_error(delta, fine_mesh, order):
    """E1: energy of the harmonic-type lifting of the boundary residual.

    Solves grad(w).grad(v) = <delta, v> on the fine mesh with elements
    of the given order (coefficient 1) and returns |grad w|.  The load
    is first projected to mean zero, b - (sum b / sum c) c with c the
    boundary integrals of the basis, which removes what a multiplier
    of the zero boundary-mean constraint would; the last unknown of
    the dissection order is then pinned (_pin), so w is fixed up to the
    constants, which change neither the energy nor the pairing.  The
    element-interior unknowns are condensed out before assembly
    (_condensed_stiffness): their basis functions vanish on the
    boundary, so the load does not see them, and the energy of w is
    that of its vertex and edge part under the condensed matrix.  The
    order is computed first, so the condensed matrix is assembled in it,
    as the one CSC matrix that fem.solve factors; the energy is read on
    it too.  The stiffness, b and c use the space's rules, exact for A
    and c.  The duality pairing <delta, w> with the projected load is
    checked against the energy (they must agree within 1%).  Logs one
    INFO line: the order, the triangles, the unknowns kept and
    eliminated, and the relative energy/pairing gap.  The facets of
    fine_mesh must refine delta's pieces.
    """
    space = FeSpace(fine_mesh, order)
    n = space.skeleton_ndof
    perm = fem.dissection_order(space)
    perm = perm[perm < n]
    A = _condensed_stiffness(space, perm)
    b = boundary_dual_load(space, delta)[:n]
    c = fem.boundary_integral_vector(space)[:n]
    b -= b.sum() / c.sum() * c
    _pin(A, b, perm)
    x = fem.solve(SparseSystem(A, b, symmetric=True, order=perm))
    y = x[perm]
    energy = float(y @ (A @ y))
    e1 = math.sqrt(max(energy, 0.0))
    pairing = float(b @ x)
    gap = abs(pairing - energy) / energy if e1 > 0 else 0.0
    log.info("E1: order %(order)d on %(triangles)d triangles, %(kept)d "
             "unknowns kept and %(eliminated)d eliminated, energy/pairing "
             "gap %(gap).2e",
             dict(order=order, triangles=fine_mesh.num_triangles, kept=n,
                  eliminated=space.ndof - n, gap=gap))
    if gap > 0.01:
        raise fem.SolverError(
            f"dual-solve consistency failure: energy {energy:.6e} vs "
            f"pairing {pairing:.6e}")
    return e1


def boundary_dual_load(space, delta):
    """b_i = integral over the boundary of delta * phi_i on space's mesh.

    Each facet is integrated with the space's facet rule, so the facets
    must refine delta's pieces: raises ValueError when a breakpoint of
    delta is not a facet start (within 1e-12 of the perimeter).
    """
    mesh = space.mesh
    bp = np.mod(delta.breakpoints, mesh.perimeter)
    f = mesh.facet_of_s(bp)
    gap = np.minimum(bp - mesh.bf_s0[f], mesh.bf_s0[f] + mesh.bf_len[f] - bp)
    if gap.max(initial=0.0) > 1e-12 * mesh.perimeter:
        raise ValueError("the facets of the mesh do not refine the pieces "
                         "of the boundary function (a breakpoint lies "
                         f"{gap.max():.3e} from every facet start)")
    t, w = segment_rule(space.degree)
    vals, _, dofs = fem.facet_basis(space, t)
    s = mesh.bf_s0[:, None] + t * mesh.bf_len[:, None]
    dv = delta.eval_s(s.ravel()).reshape(s.shape)
    return fem.facet_vector(space.ndof, dofs, vals,
                            dv * w * mesh.bf_len[:, None])
