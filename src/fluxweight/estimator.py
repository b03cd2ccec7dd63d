"""Residual quantities, distance-dependent dual weights, and the
assembled flux-error estimators.

The dual weight of an element shrinks like (h_T / rho_T)^k with the
distance rho_T of its vertex patch to the boundary, so bulk residuals
are progressively discounted while boundary residuals keep full weight.
The classical unweighted estimator is kept as a comparison baseline;
both are one sum of volume, interior-facet and boundary loads, the
classical one with unit weights.  Each setting has one source: the
weight's C1, C2 and k come from the study's driver.AmrConfig, and the
method with its gamma or alpha from the DiscreteSolution judged.

Every boundary term reads u_h from its per-facet monomial trace
(DiscreteSolution.trace): u_h, its tangential derivative and
a dn(u_h) on a facet rule are Horner evaluations of the trace rows
(fem.monomial_values), and the discrete flux of every method comes
from BoundaryFlux.values.  The boundary residuals and
the vertex-patch terms share one pass over the facet rule, which
evaluates the Dirichlet data g (the trace of the exact solution u) and
its tangential derivative once, from one evaluation of u and grad u
(ProblemSpec.facet_data).

The volume residual makes one pass over the space's triangle rule with
one grad u_h per block; it reads f and grad u from the solve's load
pass and also sums the energy error |u - u_h|_1, which the driver
records.  The values of that pass end there: compute_residuals drops
them from the solution.
"""

from dataclasses import dataclass

import numpy as np

from . import fem
from .methods import BARBOSA_HUGHES, LAGRANGE, NITSCHE
from .quadrature import segment_rule, triangle_rule


def weight_element(h_T, rho_T, config):
    """Dual weight min{C1, C2 (h_T/rho_T)^k} per element, with c1, c2
    and k read from config (a driver.AmrConfig); the rho = 0 branch
    returns C1 exactly."""
    h_T = np.asarray(h_T, dtype=float)
    rho_T = np.asarray(rho_T, dtype=float)
    with np.errstate(divide="ignore", over="ignore"):
        ratio = np.where(rho_T > 0.0,
                         config.c2 * (h_T / np.maximum(rho_T, 1e-300))
                         ** config.k,
                         np.inf)
    return np.where(rho_T > 0.0, np.minimum(config.c1, ratio), config.c1)


def weight_facet(sigma_T, sigma_Tp):
    """Facet weight: the smaller of the two incident element weights."""
    return np.minimum(sigma_T, sigma_Tp)


@dataclass
class Residuals:
    """Raw residual quantities of a discrete solution (no weights)."""

    r1T: np.ndarray          # h_T ||f + div(a grad u_h)||_T
    interior_edges: np.ndarray
    r0F: np.ndarray          # h^1/2 ||jump of a dn(u_h)||_F, per interior edge
    r1F: np.ndarray          # h^1/2 ||lambda_h - a dn(u_h)||_F, per boundary facet
    r2F: np.ndarray          # h^1/2 |g - u_h|_1,F
    r3F: np.ndarray          # h^-1/2 ||u_h - g||_F
    patch_sq: np.ndarray     # (nbf, 2): r(F,P)^2 for the left/right vertex of F
    # |u - u_h|_1, from the volume residual's pass
    energy_err: float = np.nan


@dataclass
class IndicatorField:
    """Per-entity residuals, weights, and the assembled estimators."""

    residuals: Residuals
    sigma_T: np.ndarray
    sigma_F: np.ndarray
    eta_T: np.ndarray
    eta: float
    eta_T_classical: np.ndarray
    eta_classical: float


def compute_residuals(solution):
    """Evaluate all local residuals of `solution` on its mesh.

    The volume term expands div(a grad u_h) = a lap(u_h) + grad(a).grad(u_h)
    elementwise; boundary seminorms differentiate along the facet.  The
    volume pass reads f and grad u where the solve kept them
    (DiscreteSolution.f_values, grad_u_values) and then drops them; a
    solution that carries none, built by hand, has them evaluated here.
    """
    mesh = solution.mesh
    fv, guv = solution.f_values, solution.grad_u_values
    if fv is None:
        fv, guv = fem.rule_values(solution.space,
                                  solution.problem.f_and_grad_u)
    r1T, energy_err = _volume_residual(solution, fv, guv)
    solution.f_values = solution.grad_u_values = None
    r0F = _flux_jumps(solution)
    r1F, r2F, r3F, patch_sq = _boundary_residuals(solution)
    return Residuals(r1T, mesh.interior_edges, r0F, r1F, r2F, r3F, patch_sq,
                     energy_err)


def _volume_residual(solution, fv, guv):
    """r1T per triangle and the energy error |u - u_h|_1, from one pass
    over the space's triangle rule with one grad u_h per block, with
    the values fv of f and guv of grad u at that rule.

    A P1 gradient and a P2 Hessian are the same at every point of a
    triangle, so one row of their table serves all the rule's points
    and the result broadcasts over them; the P1 Hessian is zero and its
    term is left out.  The sums are those of the per-point evaluation,
    bit for bit.
    """
    space, problem = solution.space, solution.problem
    mesh = space.mesh
    qp, qw = triangle_rule(space.degree)
    _, gref, href = fem.triangle_tables(space.order, space.degree)
    if space.order == 1:
        gref = gref[:1]
    if space.order == 2:
        href = href[:1]
    invJT_all, det_all = mesh.jacobians()
    out = np.empty(mesh.num_triangles)
    energy = 0.0
    for blk in fem._blocks(mesh.num_triangles):
        invJT, det = invJT_all[blk], det_all[blk]
        co = solution.coeffs[space.tri_dofs[blk]]
        grad_u = fem.physical_gradients(co, gref, invJT)
        pts = mesh.triangle_points(blk, qp)
        x, y = pts[..., 0], pts[..., 1]
        ga = problem.grad_a(x, y)
        res = fv[blk]
        if space.order > 1:
            Minv = invJT.transpose(0, 2, 1) @ invJT
            hu = fem.contract(co, href)          # reference (xx, xy, yy)
            lap_u = (Minv[:, None, 0, 0] * hu[..., 0]
                     + 2.0 * Minv[:, None, 0, 1] * hu[..., 1]
                     + Minv[:, None, 1, 1] * hu[..., 2])
            res = res + problem.a(x, y) * lap_u
        res = res + ga[..., 0] * grad_u[..., 0] + ga[..., 1] * grad_u[..., 1]
        out[blk] = np.sqrt((res * res) @ qw * det)
        diff = guv[blk] - grad_u
        energy += ((diff * diff).sum(axis=-1) @ qw) @ det
    return mesh.h_T * out, float(np.sqrt(energy))


def _flux_jumps(solution):
    """h^1/2 ||jump of a dn(u_h)||_F per interior edge.

    The quadrature points of an edge sit at fixed places on a reference
    edge of each neighbor, run in one of two directions, so the basis
    gradients are tabulated once per (local edge, direction), and each
    side's coefficients meet all six tables in one matrix product per
    block of edges, of which every edge keeps its own.  A P1 gradient
    is constant on each side, so for order 1 the normal derivatives are
    evaluated at the rule's first point only and the jump broadcasts
    along the edge.
    """
    space, problem = solution.space, solution.problem
    mesh = space.mesh
    edges = mesh.interior_edges
    if len(edges) == 0:
        return np.zeros(0)
    t, w = segment_rule(space.degree)
    ev = mesh.edges[edges]
    P = mesh.vertices[ev[:, 0]]
    Q = mesh.vertices[ev[:, 1]]
    pts = P[:, None, :] + t[None, :, None] * (Q - P)[:, None, :]
    L = mesh.edge_length[edges]
    nrm = np.stack([(Q - P)[:, 1], -(Q - P)[:, 0]], axis=-1) / L[:, None]
    tj = t[:1] if space.order == 1 else t
    # the gradient tables of the local edges run forward, then backward:
    # rows (le + 3 * backward) * nq + q, (6 nq, nd, 2)
    tables = np.concatenate([fem.edge_tables(space.order, tuple(s))[1]
                             for s in (tj, 1.0 - tj)]).reshape(
                                 6 * len(tj), -1, 2)
    jump = np.zeros((len(edges), len(tj)))
    for blk in fem._blocks(len(edges)):
        e = edges[blk]
        for side, sgn in ((0, 1.0), (1, -1.0)):
            tri = mesh.edge_tris[e, side]
            le = mesh.edge_local[e, side]
            backward = mesh.triangles[tri, (le + 1) % 3] != ev[blk, 0]
            invJT, _ = mesh.jacobians(tri)
            co = solution.coeffs[space.tri_dofs[tri]]
            ref = fem.contract(co, tables).reshape(len(e), 6, len(tj), 2)[
                np.arange(len(e)), le + 3 * backward]
            gu = fem.map_gradients(ref, invJT)
            jump[blk] += sgn * (gu[..., 0] * nrm[blk, None, 0]
                                + gu[..., 1] * nrm[blk, None, 1])
    val = problem.a(pts[..., 0], pts[..., 1]) * jump
    norm_sq = np.einsum("nq,nq,q->n", val, val, w) * L
    return np.sqrt(L) * np.sqrt(norm_sq)


def _boundary_residuals(solution):
    """r1F, r2F, r3F and r(F,P)^2 for both vertices of every boundary
    facet, with g, its tangential derivative and the trace of u_h
    evaluated once on the facet rule.

    For each boundary vertex P the data g is L2-projected onto the
    continuous piecewise linears of its two-facet patch; the facet then
    carries h^-1 ||u_h - g_h^P||_F^2 + h |g_h^P - g|_1,F^2.
    """
    mesh = solution.mesh
    problem = solution.problem
    nbf = mesh.num_boundary_facets
    t, w = segment_rule(solution.space.degree)
    L = mesh.bf_len
    u, dn = solution.trace

    x, y = np.moveaxis(mesh.facet_points(t), -1, 0)
    av = problem.a(x, y)
    gv, dgt = problem.facet_data(mesh, t)
    uv = fem.monomial_values(u[:, None], t)
    diff = uv - gv
    # ||v||_F^2 = L * sum_q w_q v_q^2: h^-1/2 ||.||_F drops the facet
    # length and h^1/2 ||.||_F gains one
    r3F = np.sqrt(np.einsum("nq,nq,q->n", diff, diff, w))

    du = u[:, 1:] * np.arange(1, u.shape[1])
    tdiff = dgt - fem.monomial_values(du[:, None], t) / L[:, None]
    r2F = L * np.sqrt(np.einsum("nq,nq,q->n", tdiff, tdiff, w))

    # lambda_h - a dn(u_h); for Nitsche this is gamma/h_F (g - u_h)
    mis = (solution.flux.values(np.arange(nbf)[:, None], t, av, gv)
           - av * fem.monomial_values(dn[:, None], t))
    r1F = L * np.sqrt(np.einsum("nq,nq,q->n", mis, mis, w))

    phi = np.stack([1.0 - t, t], axis=1)                    # (nq, 2)
    Mloc = np.einsum("qi,qj,q->ij", phi, phi, w)[None] * L[:, None, None]
    bloc = np.einsum("nq,qi,q->ni", gv, phi, w) * L[:, None]

    # vertex j of the boundary loop starts facet j; its patch is
    # (facet j-1, facet j)
    M = np.zeros((nbf, 3, 3))
    b = np.zeros((nbf, 3))
    M[:, :2, :2] += np.roll(Mloc, 1, axis=0)
    M[:, 1:, 1:] += Mloc
    b[:, :2] += np.roll(bloc, 1, axis=0)
    b[:, 1:] += bloc
    coeffs = np.linalg.solve(M, b[:, :, None])[:, :, 0]     # (nbv, 3)
    # end values of g_h^P on F, for P the left vertex of F (F is the
    # patch's second facet) and for P its right vertex (the first facet)
    ends = np.stack([coeffs[:, 1:], np.roll(coeffs, -1, axis=0)[:, :2]],
                    axis=1)                                 # (nbf, 2, 2)
    gh = ends @ phi.T
    dgh = (ends[..., 1] - ends[..., 0]) / L[:, None]
    # h^-1 * integral cancels one length factor; h * integral gains one
    patch_sq = ((uv[:, None] - gh) ** 2 @ w
                + (dgh[..., None] - dgt[:, None]) ** 2 @ w * (L * L)[:, None])
    return r1F, r2F, r3F, patch_sq


def _eta_sum(r, sigma_T, mesh, bload):
    """eta_T and eta from the weighted volume and interior-facet terms
    and the boundary load of each facet; also returns sigma_F.

    Interior facet terms enter both incident elements; the global value
    is sqrt(sum eta_T^2) with that convention.
    """
    eta_sq = (sigma_T * r.r1T) ** 2
    tris = mesh.edge_tris[r.interior_edges]
    sigma_F = weight_facet(sigma_T[tris[:, 0]], sigma_T[tris[:, 1]])
    contrib = (sigma_F * r.r0F) ** 2
    np.add.at(eta_sq, tris[:, 0], contrib)
    np.add.at(eta_sq, tris[:, 1], contrib)
    np.add.at(eta_sq, mesh.bf_tri, bload)
    eta_T = np.sqrt(eta_sq)
    return eta_T, float(np.sqrt(eta_sq.sum())), sigma_F


def assemble_eta(residuals, sigma_T, solution):
    """Distance-weighted estimator: per-element eta_T, global eta and
    the facet weights sigma_F.

    The boundary load is method specific: r1^2 + r2^2 for the
    multiplier method, (1+gamma^2) r3^2 plus patch terms for Nitsche,
    (1+alpha^2) r1^2 plus patch terms for the stabilized multiplier
    method, with the method, gamma and alpha those of `solution`.
    Patch terms are attributed half-and-half to the two facets of each
    vertex patch.
    """
    r = residuals
    mesh, method = solution.mesh, solution.method
    nbf = mesh.num_boundary_facets
    S_vertex = r.patch_sq[(np.arange(nbf) - 1) % nbf, 1] + r.patch_sq[:, 0]
    patch = 0.5 * (S_vertex + S_vertex[(np.arange(nbf) + 1) % nbf])
    if method == LAGRANGE:
        bload = r.r1F ** 2 + r.r2F ** 2
    elif method == NITSCHE:
        bload = (1.0 + solution.gamma ** 2) * r.r3F ** 2 + patch
    elif method == BARBOSA_HUGHES:
        bload = (1.0 + solution.alpha ** 2) * r.r1F ** 2 + patch
    else:
        raise ValueError(f"unknown method {method!r}")
    return _eta_sum(r, sigma_T, mesh, bload)


def assemble_eta_classical(residuals, solution):
    """Unweighted residual estimator (energy-norm driven baseline): the
    sum of assemble_eta with unit weights and its own boundary load,
    with the method and gamma of `solution`."""
    r = residuals
    mesh, method = solution.mesh, solution.method
    if method in (LAGRANGE, BARBOSA_HUGHES):
        bload = r.r1F ** 2 + r.r3F ** 2
    elif method == NITSCHE:
        bload = solution.gamma ** 2 * r.r3F ** 2
    else:
        raise ValueError(f"unknown method {method!r}")
    eta_T, eta, _ = _eta_sum(r, np.ones(mesh.num_triangles), mesh, bload)
    return eta_T, eta


def build_indicators(solution, rho, config):
    """Residuals, weights and both estimators in one pass; rho holds the
    patch distances rho_T of compute_distance_field, and config (a
    driver.AmrConfig) the weight's c1, c2 and k."""
    res = compute_residuals(solution)
    sigma_T = weight_element(solution.mesh.h_T, rho, config)
    eta_T, eta, sigma_F = assemble_eta(res, sigma_T, solution)
    eta_T_c, eta_c = assemble_eta_classical(res, solution)
    return IndicatorField(res, sigma_T, sigma_F, eta_T, eta, eta_T_c, eta_c)


def dump_indicators(field, mesh, rho, path):
    """CSV dump: element_id, h_T, rho_T, sigma_T, r1T, etaT."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("element_id,h_T,rho_T,sigma_T,r1T,etaT\n")
        for i in range(mesh.num_triangles):
            fh.write(f"{i},{mesh.h_T[i]:.17g},{rho[i]:.17g},"
                     f"{field.sigma_T[i]:.17g},{field.residuals.r1T[i]:.17g},"
                     f"{field.eta_T[i]:.17g}\n")
