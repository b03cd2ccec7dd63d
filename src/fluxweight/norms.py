"""Two independent evaluations of the dual trace norm of the flux error.

E1 lifts the boundary residual through an auxiliary pure-Neumann
problem solved with higher-order elements on a finer mesh and returns
the energy of the lifting.  E2 expands cell averages of the residual on
a dyadic boundary grid in a periodic (2,2)-biorthogonal wavelet basis
and takes the weighted coefficient norm; the two are equivalent norms
on the dual trace space.

E2 of a flux error samples 2^M dyadic cells with the 3-point Gauss rule
(exact to degree 5).  On the cells that lie inside one boundary facet
it combines the solution's per-facet polynomial flux with the exact
flux, a and g at the Gauss points.  Those are computed at the first E2
of a problem instance and kept on it under (domain polygon, M), so the
later steps of a study reuse them.  The cells that a facet end cuts are
integrated piece by piece with the same rule, as every cell of any
other BoundaryFunction is.  M and the quadrature are those of the
piecewise evaluation.
"""

import math
import warnings
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

    def integrals(self, degree=8):
        """(integral, integral of |.|) over the boundary."""
        mesh = self.mesh
        t, w = segment_rule(degree)
        facets = np.arange(mesh.num_boundary_facets)
        frep = np.repeat(facets, len(t))
        vals = self.evaluate(frep, np.tile(t, len(facets)))
        lenw = np.tile(w, len(facets)) * np.repeat(mesh.bf_len, len(t))
        return float((vals * lenw).sum()), float((np.abs(vals) * lenw).sum())


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


def _cut_pieces(starts, total, breakpoints):
    """The cells of `starts` that a breakpoint cuts, and their pieces.

    Returns (cells, left, right, owner) with the pieces that
    _split_pieces gives for those cells.
    """
    b = np.mod(breakpoints, total)
    cell = np.searchsorted(starts, b, side="right") - 1
    inner = b > starts[cell]
    cells = np.unique(cell[inner])
    ends = np.append(starts, total)[cells + 1]
    edges = np.unique(np.concatenate([starts[cells], ends, b[inner]]))
    left, right = edges[:-1], edges[1:]
    owner = np.searchsorted(starts, 0.5 * (left + right), side="right") - 1
    is_cut = np.zeros(len(starts), dtype=bool)
    is_cut[cells] = True
    keep = is_cut[owner] & ((right - left) > 1e-14 * total)
    return cells, left[keep], right[keep], owner[keep]


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


def _dyadic_boundary_data(problem, polygon, M, gp, with_data):
    """Exact flux (and a, g when with_data) at the Gauss points gp of
    every dyadic cell of level M on the polygon's boundary: a dict of
    lists with one array of length 2^M per Gauss point.

    Kept in problem.dyadic_cache under (polygon, M) and computed once.
    A cell that a corner cuts gets values from the side of each point;
    sample_to_dyadic never reads them, since corners are facet ends.
    """
    key = (polygon.tobytes(), M)
    data = problem.dyadic_cache.setdefault(key, {})
    if "lam" in data and ("a" in data or not with_data):
        return data
    side_vec = np.roll(polygon, -1, axis=0) - polygon
    side_len = np.hypot(*side_vec.T)
    cum = np.concatenate([[0.0], np.cumsum(side_len)])
    n = 1 << M
    total = cum[-1]
    starts = total * np.arange(n) / n
    fields = {}
    for q in range(len(gp)):
        s = starts + (total / n) * gp[q]
        side = np.minimum(np.searchsorted(cum, s, side="right") - 1,
                          len(polygon) - 1)
        t = (s - cum[side]) / side_len[side]
        x = polygon[side, 0] + t * side_vec[side, 0]
        y = polygon[side, 1] + t * side_vec[side, 1]
        if "lam" not in data:
            nx = side_vec[side, 1] / side_len[side]
            ny = -side_vec[side, 0] / side_len[side]
            fields.setdefault("lam", []).append(
                problem.exact_flux(x, y, nx, ny))
        if with_data:
            fields.setdefault("a", []).append(
                np.broadcast_to(problem.a(x, y), x.shape))
            fields.setdefault("g", []).append(
                np.broadcast_to(problem.g(x, y), x.shape))
    data.update(fields)
    return data


def _flux_error_cells(solution, starts, M, gp, gw):
    """Integral of the flux error over every dyadic cell of level M
    (cell starts `starts`), valid where the cell lies inside one facet."""
    mesh = solution.mesh
    flux = solution.flux
    data = _dyadic_boundary_data(solution.problem, mesh.polygon, M, gp,
                                 with_data=flux.d is not None)
    n = len(starts)
    width = mesh.perimeter / n
    # the facet of each cell's midpoint; cells and facets are both sorted
    first = np.searchsorted(starts + 0.5 * width, mesh.bf_s0)
    facet = np.repeat(np.arange(len(first)), np.diff(np.append(first, n)))
    rows = flux.at(facet)
    s0, length = mesh.bf_s0[facet], mesh.bf_len[facet]
    acc = np.zeros(n)
    for q in range(len(gp)):
        t = (starts + gp[q] * width - s0) / length
        if rows.d is None:
            lam_h = rows.combine(t)
        else:
            lam_h = rows.combine(t, data["a"][q], data["g"][q])
        acc += gw[q] * (data["lam"][q] - lam_h)
    return acc * width


def sample_to_dyadic(v, M):
    """Scaled cell averages of v on the uniform dyadic boundary grid.

    Entry k is 2^(M/2)/|boundary| times the integral of v over the k-th
    dyadic cell, counterclockwise from the anchor.  Integration cells
    are split at the facet endpoints so piecewise-polynomial traces are
    integrated exactly.  For a FluxError, the cells that lie inside one
    facet are integrated from its solution's BoundaryFlux and cached
    boundary data at the same Gauss points; only the cut cells go
    through `evaluate`.
    """
    if M < 3:
        raise ValueError("dyadic level must be at least 3")
    if M > MAX_LEVEL:
        raise ValueError(f"dyadic level {M} exceeds {MAX_LEVEL}")
    total = v.mesh.perimeter
    n = 1 << M
    starts = total * np.arange(n) / n
    gp, gw = segment_rule(5)
    if isinstance(v, FluxError):
        out = _flux_error_cells(v.solution, starts, M, gp, gw)
        cells, left, right, owner = _cut_pieces(starts, total, v.breakpoints)
        out[cells] = 0.0
    else:
        out = np.zeros(n)
        left, right, owner = _split_pieces(starts, total, v.breakpoints)
    _integrate_pieces(v, left, right, owner, out, gp, gw)
    return (2.0 ** (M / 2.0) / total) * out


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
    # cyclic padding: padded[l + 2i] == v[(2i + l) % n]
    padded = np.resize(v, n + len(LOW_PASS))
    vj = np.zeros(n // 2)
    for l, hl in enumerate(LOW_PASS):
        vj += hl * padded[l:l + n:2]
    dj = (math.sqrt(2.0) / 2.0) * (v[0::2] - v[1::2])
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


def neumann_dual_error(delta, fine_mesh, order, details=False):
    """E1: energy of the harmonic-type lifting of the boundary residual.

    Solves grad(w).grad(v) = <delta, v> on the fine mesh with elements
    of the given order (coefficient 1) under a zero boundary-mean
    constraint, and returns |grad w|.  The duality pairing <delta, w>
    is checked against the energy (they must agree within 1%).
    """
    mean, l1 = delta.integrals()
    if abs(mean) > 1e-7 * max(l1, 1e-300):
        warnings.warn(
            f"boundary residual has nonzero mean {mean:.3e} "
            f"(L1 mass {l1:.3e}); the dual solve may be inconsistent",
            stacklevel=2)
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
    if details:
        return e1, math.sqrt(max(pairing, 0.0))
    return e1


def boundary_dual_load(space, delta, degree=10):
    """b_i = integral over the boundary of delta * phi_i on space's mesh.

    Facets are split at delta's breakpoints, so discrete fluxes living
    on a different (coarser or unrelated) mesh are integrated piecewise.
    """
    mesh = space.mesh
    total = mesh.perimeter
    starts = mesh.bf_s0
    left, right, owner = _split_pieces(starts, total, delta.breakpoints)
    gp, gw = segment_rule(degree)
    b = np.zeros(space.ndof)
    length = right - left
    for q in range(len(gp)):
        s = left + gp[q] * length
        vals = delta.eval_s(s)
        t = (s - starts[owner]) / mesh.bf_len[owner]
        basis, _, dofs = fem.facet_point_basis(space, owner,
                                               np.clip(t, 0.0, 1.0))
        np.add.at(b, dofs, basis * (gw[q] * vals * length)[:, None])
    return b
