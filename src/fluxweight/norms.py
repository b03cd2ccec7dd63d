"""Two independent evaluations of the dual trace norm of the flux error.

E1 lifts the boundary residual through an auxiliary pure-Neumann
problem solved with higher-order elements on a finer mesh and returns
the energy of the lifting.  Its load integrates the residual on each
facet of that mesh with one facet rule, so the facets must refine the
residual's pieces.  E2 expands cell averages of the residual on
a dyadic boundary grid in a periodic (2,2)-biorthogonal wavelet basis
and takes the weighted coefficient norm; the two are equivalent norms
on the dual trace space.

E2 of a flux error samples 2^M dyadic cells with the 3-point Gauss rule
(exact to degree 5).  The first E2 of a problem instance caches, under
(domain polygon, M), the Gauss sums over every cell of the exact flux
and of g, and a as one number when it is the same everywhere (else at
each Gauss point): two arrays of 2^M doubles for Franke's problem, one
for a multiplier flux.  On the cells that lie inside one boundary
facet, each step then turns the facet's Gauss-averaged discrete flux
into one polynomial in the cell's index within the facet and expands
it with one Horner pass, so that a step costs a handful of passes over
the 2^M cells whatever the mesh.  The cells that a facet end cuts are
integrated piece by piece with the same rule, as every cell of any
other BoundaryFunction is.  M and the quadrature are those of the
piecewise evaluation.
"""

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import fem
from .fem import FeSpace, SparseSystem
from .quadrature import segment_rule

# analysis low-pass filter of the (2,2)-biorthogonal wavelet; the taps
# are exact dyadic rationals scaled by sqrt(2)/2
LOW_PASS = (math.sqrt(2.0) / 2.0) * np.array(
    [3 / 128, -3 / 128, -11 / 64, 11 / 64, 1.0, 1.0,
     11 / 64, -11 / 64, -3 / 128, 3 / 128])
BAND_PASS = np.array([1.0, -1.0])

MAX_LEVEL = 40


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


def _split_pieces(starts, total, breakpoints):
    """Split [0, total) at interval starts and breakpoints.

    Returns (left, right, owner) where owner indexes the interval of
    `starts` containing each piece.  Degenerate slivers are dropped.
    """
    edges = np.unique(np.concatenate(
        [starts, np.mod(breakpoints, total), [0.0, total]]))
    left, right = edges[:-1], edges[1:]
    keep = (right - left) > 1e-14 * total
    left, right = left[keep], right[keep]
    owner = np.searchsorted(starts, 0.5 * (left + right), side="right") - 1
    return left, right, owner


def _cut_pieces(total, n, breakpoints):
    """The cells of the n equal cells of [0, total) that a breakpoint
    cuts, and their pieces.

    Returns (cells, left, right, owner) with the pieces that
    _split_pieces gives for those cells.  Cell k starts at k * width;
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
    mesh = v.mesh
    chunk = 1 << 18
    for lo in range(0, len(left), chunk):
        sl = slice(lo, min(lo + chunk, len(left)))
        ln, rn, on = left[sl], right[sl], owner[sl]
        length = rn - ln
        facet = mesh.facet_of_s(0.5 * (ln + rn))
        acc = np.zeros(len(ln))
        for q in range(len(gp)):
            s = ln + gp[q] * length
            t = (s - mesh.bf_s0[facet]) / mesh.bf_len[facet]
            acc += gw[q] * v.evaluate(facet, np.clip(t, 0.0, 1.0))
        np.add.at(out, on, acc * length)


_CHUNK = 1 << 14


def _dyadic_boundary_data(problem, polygon, M, gp, gw, with_data):
    """Gauss sums of the boundary data over every dyadic cell of level M
    on the polygon's boundary, for the rule (gp, gw) on each cell.

    "lam" holds sum_q w_q lam(x_q) of the exact flux, one entry per
    cell.  When with_data, "g" holds sum_q w_q g(x_q), and "a" the value
    of a if it is the same at every point, else an array of its values
    of shape (len(gp), 2^M).  Kept in problem.dyadic_cache under
    (polygon, M), computed once, in chunks of cells.  A cell that a
    corner cuts gets values from the side of each point;
    sample_to_dyadic never reads them, since corners are facet ends.
    """
    key = (polygon.tobytes(), M)
    data = problem.dyadic_cache.setdefault(key, {})
    need_lam = "lam" not in data
    need_data = with_data and "a" not in data
    if not (need_lam or need_data):
        return data
    side_vec = np.roll(polygon, -1, axis=0) - polygon
    side_len = np.hypot(*side_vec.T)
    cum = np.concatenate([[0.0], np.cumsum(side_len)])
    n = 1 << M
    total = cum[-1]
    lam = np.zeros(n) if need_lam else None
    g = np.zeros(n) if need_data else None
    a0 = a_pts = None
    for lo in range(0, n, _CHUNK):
        starts = total * np.arange(lo, min(lo + _CHUNK, n)) / n
        cells = slice(lo, lo + len(starts))
        for q in range(len(gp)):
            s = starts + (total / n) * gp[q]
            side = np.minimum(np.searchsorted(cum, s, side="right") - 1,
                              len(polygon) - 1)
            t = (s - cum[side]) / side_len[side]
            x = polygon[side, 0] + t * side_vec[side, 0]
            y = polygon[side, 1] + t * side_vec[side, 1]
            if need_lam:
                nx = side_vec[side, 1] / side_len[side]
                ny = -side_vec[side, 0] / side_len[side]
                lam[cells] += gw[q] * problem.exact_flux(x, y, nx, ny)
            if need_data:
                g[cells] += gw[q] * problem.g(x, y)
                av = np.broadcast_to(problem.a(x, y), x.shape)
                if a0 is None:
                    a0 = float(av[0])
                if a_pts is None and (av != a0).any():
                    a_pts = np.full((len(gp), n), a0)
                if a_pts is not None:
                    a_pts[q, cells] = av
    if need_lam:
        data["lam"] = lam
    if need_data:
        data["g"] = g
        data["a"] = a0 if a_pts is None else a_pts
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
    are split at the facet endpoints so piecewise-polynomial traces are
    integrated exactly.  For a FluxError, the cells that lie inside one
    facet are integrated from its solution's BoundaryFlux and the cached
    Gauss sums of the boundary data over each cell; only the cut cells
    go through `evaluate`.
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
        cells, left, right, owner = _cut_pieces(total, n, v.breakpoints)
        out[cells] = 0.0
    else:
        out = np.zeros(n)
        left, right, owner = _split_pieces(total * np.arange(n) / n, total,
                                           v.breakpoints)
    _integrate_pieces(v, left, right, owner, out, gp, gw)
    out *= 2.0 ** (M / 2.0) / total
    return out


def dwt_step(v):
    """One analysis step: returns (coarse averages, detail coefficients).

    Periodic extension; input length must be a power of two >= 2.  The
    low-pass taps sum to sqrt(2), so the coarse coefficients stay
    consistent with the 2^(j/2)-scaled cell-average convention of
    sample_to_dyadic (constants gain a factor sqrt(2) per level); the
    details are orthonormal two-cell differences.
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


@dataclass
class WaveletPyramid:
    """Full analysis pyramid of a dyadic coefficient vector."""

    M: int
    v: list = field(default_factory=list)   # v[j] has length 2^j, j=0..M
    d: list = field(default_factory=list)   # d[j] has length 2^j, j=0..M-1

    @classmethod
    def analyze(cls, vM):
        vM = np.asarray(vM, dtype=float)
        M = int(round(math.log2(len(vM))))
        if (1 << M) != len(vM):
            raise ValueError("input length must be a power of two")
        vs = [None] * (M + 1)
        ds = [None] * M
        vs[M] = vM
        for j in range(M - 1, -1, -1):
            vs[j], ds[j] = dwt_step(vs[j + 1])
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
    """E2: dual-norm surrogate of the boundary function v at level M."""
    return wavelet_norm_of_vector(sample_to_dyadic(v, M))


def neumann_dual_error(delta, fine_mesh, order):
    """E1: energy of the harmonic-type lifting of the boundary residual.

    Solves grad(w).grad(v) = <delta, v> on the fine mesh with elements
    of the given order (coefficient 1) under a zero boundary-mean
    constraint, and returns |grad w|.  The duality pairing <delta, w>
    is checked against the energy (they must agree within 1%).  The
    facets of fine_mesh must refine delta's pieces.
    """
    space = FeSpace(fine_mesh, order)
    A = fem.assemble_stiffness(space, a=None, degree=2 * (order - 1) + 2)
    b = boundary_dual_load(space, delta, degree=2 * order + 4)
    c = fem.boundary_integral_vector(space, degree=2 * order)
    x = fem.solve(SparseSystem(A, b, symmetric=True), constraint=c)
    energy = float(x @ (A @ x))
    e1 = math.sqrt(max(energy, 0.0))
    pairing = float(b @ x)
    if e1 > 0 and abs(pairing - energy) > 0.01 * energy:
        raise fem.SolverError(
            f"dual-solve consistency failure: energy {energy:.6e} vs "
            f"pairing {pairing:.6e}")
    return e1


def boundary_dual_load(space, delta, degree=10):
    """b_i = integral over the boundary of delta * phi_i on space's mesh.

    Each facet is integrated with one facet rule, so the facets must
    refine delta's pieces: raises ValueError when a breakpoint of delta
    is not a facet start (within 1e-12 of the perimeter).
    """
    mesh = space.mesh
    bp = np.mod(delta.breakpoints, mesh.perimeter)
    f = mesh.facet_of_s(bp)
    gap = np.minimum(bp - mesh.bf_s0[f], mesh.bf_s0[f] + mesh.bf_len[f] - bp)
    if gap.max(initial=0.0) > 1e-12 * mesh.perimeter:
        raise ValueError("the facets of the mesh do not refine the pieces "
                         "of the boundary function (a breakpoint lies "
                         f"{gap.max():.3e} from every facet start)")
    t, w = segment_rule(degree)
    vals, _, dofs = fem.facet_basis(space, t)
    s = mesh.bf_s0[:, None] + t * mesh.bf_len[:, None]
    dv = delta.eval_s(s.ravel()).reshape(s.shape)
    return fem.facet_vector(space.ndof, dofs, vals,
                            dv * w * mesh.bf_len[:, None])
