"""The three boundary-condition treatments for the Dirichlet problem.

Each solver returns a DiscreteSolution whose discrete flux (the
approximation of the outward normal flux a*du/dn on the boundary) is
either an explicit coefficient vector in a BoundarySpace (Lagrange
multiplier and Barbosa-Hughes) or the Nitsche post-processing rule
a*dn(u_h) + gamma/h_F * (g - u_h).  Both are held in one per-facet
polynomial form, BoundaryFlux.

Dirichlet data enters weakly everywhere: nothing is interpolated
nodally.  The `sign` argument selects the symmetric (-1) or the
antisymmetric (+1, default) variant of the stabilized methods.
"""

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np
from scipy import sparse

from . import fem
from .fem import BoundarySpace, FeSpace, SparseSystem
from .quadrature import segment_rule

LAGRANGE = "lagrange"
BARBOSA_HUGHES = "barbosa-hughes"
NITSCHE = "nitsche"


@dataclass
class ProblemSpec:
    """Diffusion problem -div(a grad u) = f with Dirichlet data g.

    All callables are vectorized over numpy arrays.  grad_u and grad_a
    return arrays with a trailing axis of length 2.  The exact solution
    and its gradient are optional; when present, g defaults to the trace
    of u and the exact flux to a * grad(u) . n.
    """

    name: str
    domain: str
    a: Callable
    grad_a: Callable
    f: Callable
    u: Optional[Callable] = None
    grad_u: Optional[Callable] = None
    g: Optional[Callable] = None
    # boundary data at dyadic quadrature points, filled and read by
    # norms.sample_to_dyadic; it lives as long as this instance
    dyadic_cache: dict = field(default_factory=dict, init=False,
                               repr=False, compare=False)

    def __post_init__(self):
        if self.g is None:
            if self.u is None:
                raise ValueError("either g or the exact solution must be given")
            self.g = self.u

    @property
    def has_exact(self):
        return self.u is not None and self.grad_u is not None

    def exact_flux(self, x, y, nx, ny):
        """a * grad(u) . n at boundary points with outward normal (nx, ny)."""
        if self.grad_u is None:
            raise ValueError(f"problem {self.name!r} has no exact flux")
        gu = self.grad_u(x, y)
        return self.a(x, y) * (gu[..., 0] * nx + gu[..., 1] * ny)

    def g_facet(self, mesh):
        """Boundary data as a function of (facet_ids, t)."""
        def fn(facet_ids, t):
            pts = mesh.boundary_points(facet_ids, t)
            return self.g(pts[:, 0], pts[:, 1])
        return fn

    def g_tangential(self, mesh):
        """Tangential derivative of g along facets; analytic when grad_u
        is available, otherwise central differences in arc length."""
        if self.grad_u is not None:
            def fn(facet_ids, t):
                pts = mesh.boundary_points(facet_ids, t)
                tang = mesh.bf_tangent[facet_ids]
                gu = self.grad_u(pts[:, 0], pts[:, 1])
                return gu[..., 0] * tang[:, 0] + gu[..., 1] * tang[:, 1]
            return fn

        def fn(facet_ids, t):
            h = 1e-6
            p1 = mesh.boundary_points(facet_ids, np.clip(t + h, 0.0, 1.0))
            p0 = mesh.boundary_points(facet_ids, np.clip(t - h, 0.0, 1.0))
            dt = np.clip(t + h, 0.0, 1.0) - np.clip(t - h, 0.0, 1.0)
            ds = dt * mesh.bf_len[facet_ids]
            return (self.g(p1[:, 0], p1[:, 1]) - self.g(p0[:, 0], p0[:, 1])) / ds
        return fn


def verify_problem(problem, n_points=100, step=1e-5, rtol=1e-4, seed=7):
    """Finite-difference check that -div(a grad u) = f at interior points.

    Returns the worst normalized defect; raises if it exceeds rtol.
    """
    if not problem.has_exact:
        return 0.0
    rng = np.random.default_rng(seed)
    from .mesh import distance_to_boundary, domain_polygon
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


def _horner(coef, t):
    """Rows of monomial coefficients (lowest first) evaluated at t."""
    out = coef[:, -1]
    for j in range(coef.shape[1] - 2, -1, -1):
        out = out * t + coef[:, j]
    return out


@dataclass
class BoundaryFlux:
    """Discrete flux lambda_h(f, t) = a(x) D_f(t) + c_f g(x) + Q_f(t).

    On boundary facet f at parameter t, with x the boundary point; D and
    Q hold one row of monomial coefficients in t per facet (lowest
    degree first) and c one constant per facet.  Nitsche: D = dn(u_h),
    c = gamma/h_F, Q = -c u_h.  Multiplier methods: D and c are None
    and Q is the multiplier.
    """

    q: np.ndarray
    d: Optional[np.ndarray] = None
    c: Optional[np.ndarray] = None

    def at(self, facet_ids):
        """The rows of the given facets, one per entry of facet_ids."""
        if self.d is None:
            return BoundaryFlux(np.take(self.q, facet_ids, axis=0))
        return BoundaryFlux(np.take(self.q, facet_ids, axis=0),
                            np.take(self.d, facet_ids, axis=0),
                            self.c[facet_ids])

    def combine(self, t, a=None, g=None):
        """lambda_h at parameter t of each row's facet, given the values
        of a and g there (ignored by multiplier fluxes)."""
        if self.d is None:
            return _horner(self.q, t)
        return a * _horner(self.d, t) + self.c * g + _horner(self.q, t)


@dataclass
class DiscreteSolution:
    """Bulk solution plus a well-defined boundary flux representation."""

    method: str
    problem: ProblemSpec
    space: FeSpace
    coeffs: np.ndarray
    multiplier_space: Optional[BoundarySpace] = None
    multiplier: Optional[np.ndarray] = None
    gamma: Optional[float] = None
    alpha: Optional[float] = None
    sign: int = 1
    extras: dict = field(default_factory=dict)

    @property
    def mesh(self):
        return self.space.mesh

    @property
    def total_dofs(self):
        n = self.space.ndof
        if self.multiplier is not None:
            n += self.multiplier_space.ndof
        return n

    @property
    def boundary_dofs(self):
        n = len(self.space.boundary_dofs)
        if self.multiplier is not None:
            n += self.multiplier_space.ndof
        return n

    def trace_values(self, facet_ids, t):
        vals, _, dofs = fem.facet_point_basis(self.space, facet_ids, t)
        return np.einsum("nj,nj->n", self.coeffs[dofs], vals)

    def trace_normal_flux(self, facet_ids, t):
        """a * dn(u_h) at facet parameters (one-sided, from the element)."""
        _, grads, dofs = fem.facet_point_basis(
            self.space, facet_ids, t, gradients=True)
        gu = np.einsum("nj,nja->na", self.coeffs[dofs], grads)
        nrm = self.mesh.bf_normal[facet_ids]
        pts = self.mesh.boundary_points(facet_ids, t)
        av = self.problem.a(pts[:, 0], pts[:, 1])
        return av * (gu[:, 0] * nrm[:, 0] + gu[:, 1] * nrm[:, 1])

    @cached_property
    def flux(self):
        """The discrete flux as a BoundaryFlux, built on first use."""
        if self.method in (LAGRANGE, BARBOSA_HUGHES):
            return BoundaryFlux(self.multiplier_space.monomial_coefficients(
                self.multiplier))
        mesh = self.mesh
        k = self.space.order
        nbf = mesh.num_boundary_facets
        nodes = np.linspace(0.0, 1.0, k + 1)
        frep = np.repeat(np.arange(nbf), k + 1)
        trep = np.tile(nodes, nbf)
        vals, grads, dofs = fem.facet_point_basis(self.space, frep, trep,
                                                  gradients=True)
        local = self.coeffs[dofs]
        u = np.einsum("nj,nj->n", local, vals).reshape(nbf, k + 1)
        gu = np.einsum("nj,nja->na", local, grads)
        nrm = mesh.bf_normal[frep]
        dn = (gu[:, 0] * nrm[:, 0] + gu[:, 1] * nrm[:, 1]).reshape(nbf, k + 1)
        c = self.gamma / mesh.bf_len
        return BoundaryFlux(
            -c[:, None] * fem.monomial_coefficients(u, nodes),
            fem.monomial_coefficients(dn, nodes), c)

    def flux_values(self, facet_ids, t):
        """The discrete flux lambda_h at facet parameters."""
        facet_ids = np.asarray(facet_ids, dtype=np.int64)
        t = np.asarray(t, dtype=float)
        rows = self.flux.at(facet_ids)
        if rows.d is None:
            return rows.combine(t)
        pts = self.mesh.boundary_points(facet_ids, t)
        x, y = pts[:, 0], pts[:, 1]
        return rows.combine(t, self.problem.a(x, y), self.problem.g(x, y))


def _facet_terms(space, problem, degree):
    """Shared per-quadrature-point boundary data for the assemblers."""
    mesh = space.mesh
    facets = np.arange(mesh.num_boundary_facets)
    t, w = segment_rule(degree)
    nq = len(t)
    frep = np.repeat(facets, nq)
    trep = np.tile(t, len(facets))
    vals, grads, dofs = fem.facet_point_basis(space, frep, trep,
                                              gradients=True)
    pts = mesh.boundary_points(frep, trep)
    nrm = mesh.bf_normal[frep]
    adn = (problem.a(pts[:, 0], pts[:, 1])[:, None]
           * np.einsum("nja,na->nj", grads, nrm))
    gv = problem.g(pts[:, 0], pts[:, 1])
    lenw = np.tile(w, len(facets)) * mesh.bf_len[frep]
    hF = mesh.bf_len[frep]
    return frep, trep, vals, adn, dofs, gv, lenw, hF


def _scatter(rows, cols, vals, shape):
    return sparse.coo_matrix(
        (vals.ravel(), (rows.ravel(), cols.ravel())), shape=shape).tocsr()


def _pair(vals_i, vals_j, weight, dofs_i, dofs_j, shape):
    contrib = vals_i[:, :, None] * vals_j[:, None, :] * weight[:, None, None]
    rows = np.repeat(dofs_i[:, :, None], dofs_j.shape[1], axis=2)
    cols = np.repeat(dofs_j[:, None, :], dofs_i.shape[1], axis=1)
    return _scatter(rows, cols, contrib, shape)


def solve_lagrange(problem, mesh, k=2, kprime=0, continuous=False,
                   degree=None):
    """Mixed Galerkin solve: the flux is an unknown multiplier.

    The multiplier equation enforces the Dirichlet data weakly; the
    bulk equation carries -integral(lambda_h v) on its left-hand side.
    """
    space = FeSpace(mesh, k)
    bspace = BoundarySpace(mesh, kprime, continuous)
    if degree is None:
        degree = 2 * k + 4
    A = fem.assemble_stiffness(space, problem.a, degree)
    F = fem.assemble_load(space, problem.f, degree)

    frep, trep, vals, adn, dofs, gv, lenw, hF = _facet_terms(
        space, problem, degree)
    mvals = bspace.eval(trep)
    mdofs = bspace.facet_dofs[frep]
    C = _pair(vals, mvals, lenw, dofs, mdofs, (space.ndof, bspace.ndof))
    G = np.zeros(bspace.ndof)
    np.add.at(G, mdofs, mvals * (gv * lenw)[:, None])

    K = sparse.bmat([[A, -C], [-C.T, None]], format="csr")
    rhs = np.concatenate([F, -G])
    x = fem.solve(SparseSystem(K, rhs, symmetric=True))
    return DiscreteSolution(LAGRANGE, problem, space, x[:space.ndof],
                            multiplier_space=bspace,
                            multiplier=x[space.ndof:])


def solve_barbosa_hughes(problem, mesh, k=2, kprime=0, continuous=False,
                         alpha=0.1, sign=1, degree=None):
    """Stabilized mixed solve with the flux-mismatch penalty alpha."""
    if alpha <= 0:
        raise ValueError("stabilization parameter must be positive")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    space = FeSpace(mesh, k)
    bspace = BoundarySpace(mesh, kprime, continuous)
    if degree is None:
        degree = 2 * k + 4
    A = fem.assemble_stiffness(space, problem.a, degree)
    F = fem.assemble_load(space, problem.f, degree)

    frep, trep, vals, adn, dofs, gv, lenw, hF = _facet_terms(
        space, problem, degree)
    mvals = bspace.eval(trep)
    mdofs = bspace.facet_dofs[frep]
    nb, nm = space.ndof, bspace.ndof

    C = _pair(vals, mvals, lenw, dofs, mdofs, (nb, nm))
    D = _pair(adn, adn, lenw * hF, dofs, dofs, (nb, nb))
    E = _pair(adn, mvals, lenw * hF, dofs, mdofs, (nb, nm))
    Mb = _pair(mvals, mvals, lenw * hF, mdofs, mdofs, (nm, nm))
    G = np.zeros(nm)
    np.add.at(G, mdofs, mvals * (gv * lenw)[:, None])

    K = sparse.bmat(
        [[A + sign * alpha * D, -C - sign * alpha * E],
         [C.T - alpha * E.T, alpha * Mb]], format="csr")
    rhs = np.concatenate([F, G])
    x = fem.solve(SparseSystem(K, rhs))
    return DiscreteSolution(BARBOSA_HUGHES, problem, space, x[:nb],
                            multiplier_space=bspace, multiplier=x[nb:],
                            alpha=alpha, sign=sign)


def solve_nitsche(problem, mesh, k=1, gamma=10.0, sign=1, degree=None):
    """Penalty-consistent weak imposition of the Dirichlet data."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    space = FeSpace(mesh, k)
    if degree is None:
        degree = 2 * k + 4
    A = fem.assemble_stiffness(space, problem.a, degree)
    F = fem.assemble_load(space, problem.f, degree)

    frep, trep, vals, adn, dofs, gv, lenw, hF = _facet_terms(
        space, problem, degree)
    n = space.ndof
    N1 = _pair(vals, adn, lenw, dofs, dofs, (n, n))     # v * a dn(u)
    P = _pair(vals, vals, lenw * gamma / hF, dofs, dofs, (n, n))
    K = A - N1 + sign * N1.T + P
    rhs = F.copy()
    np.add.at(rhs, dofs, adn * (sign * gv * lenw)[:, None])
    np.add.at(rhs, dofs, vals * (gamma / hF * gv * lenw)[:, None])
    x = fem.solve(SparseSystem(K, rhs))
    return DiscreteSolution(NITSCHE, problem, space, x,
                            gamma=gamma, sign=sign)


def compatibility_defect(solution, degree=None):
    """integral(lambda_h) + integral(f): vanishes up to solver tolerance.

    Uses the same quadrature degrees as the assembly so the identity
    obtained by testing with v = 1 holds exactly.
    """
    problem = solution.problem
    mesh = solution.mesh
    if degree is None:
        degree = 2 * solution.space.order + 4
    t, w = segment_rule(degree)
    facets = np.arange(mesh.num_boundary_facets)
    frep = np.repeat(facets, len(t))
    trep = np.tile(t, len(facets))
    lam = solution.flux_values(frep, trep)
    lenw = np.tile(w, len(facets)) * mesh.bf_len[frep]
    int_lam = float((lam * lenw).sum())
    int_f = float(fem.assemble_load(solution.space, problem.f, degree).sum())
    return int_lam + int_f


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
