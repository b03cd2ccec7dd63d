"""The three boundary-condition treatments for the Dirichlet problem.

Each solver returns a DiscreteSolution whose discrete flux (the
approximation of the outward normal flux a*du/dn on the boundary) is
either an explicit coefficient vector in a BoundarySpace (Lagrange
multiplier and Barbosa-Hughes) or the Nitsche post-processing rule
a*dn(u_h) + gamma/h_F * (g - u_h).  Both are held in one per-facet
polynomial form, BoundaryFlux.  Outside assembly, the boundary values of
u_h are read from one per-facet monomial form too, DiscreteSolution.trace,
which the Nitsche flux and every estimator boundary term share.

Every boundary term is integrated on arrays of shape (facets, rule
points) and assembled from one local matrix per facet.  The Lagrange
multiplier method is the alpha = 0 case of the Barbosa-Hughes solve.

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
    # Gauss sums of the boundary data over dyadic cells, filled and read
    # by norms.sample_to_dyadic; it lives as long as this instance
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

    def g_tangential(self, mesh, t):
        """Tangential derivative of g at the parameters t on every
        boundary facet, shape (facets, len(t)); analytic when grad_u is
        available, otherwise central differences in arc length."""
        if self.grad_u is not None:
            pts = mesh.facet_points(t)
            gu = self.grad_u(pts[..., 0], pts[..., 1])
            tang = mesh.bf_tangent[:, None, :]
            return gu[..., 0] * tang[..., 0] + gu[..., 1] * tang[..., 1]
        h = 1e-6
        t1, t0 = np.clip(t + h, 0.0, 1.0), np.clip(t - h, 0.0, 1.0)
        p1, p0 = mesh.facet_points(t1), mesh.facet_points(t0)
        ds = (t1 - t0) * mesh.bf_len[:, None]
        return (self.g(p1[..., 0], p1[..., 1])
                - self.g(p0[..., 0], p0[..., 1])) / ds


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

    @cached_property
    def trace(self):
        """(u, dn): monomial rows in t (lowest degree first) of u_h and of
        dn(u_h) on every boundary facet, shape (facets, k + 1) each, from
        the bulk basis at k + 1 equispaced nodes of each facet."""
        nodes = np.linspace(0.0, 1.0, self.space.order + 1)
        vals, grads, dofs = fem.facet_basis(self.space, nodes,
                                            gradients=True)
        local = self.coeffs[dofs]
        u = np.einsum("fj,fqj->fq", local, vals)
        gu = np.einsum("fj,fqja->fqa", local, grads)
        dn = np.einsum("fqa,fa->fq", gu, self.mesh.bf_normal)
        return (fem.monomial_coefficients(u, nodes),
                fem.monomial_coefficients(dn, nodes))

    @cached_property
    def flux(self):
        """The discrete flux as a BoundaryFlux, built on first use."""
        if self.method in (LAGRANGE, BARBOSA_HUGHES):
            return BoundaryFlux(self.multiplier_space.monomial_coefficients(
                self.multiplier))
        u, dn = self.trace
        c = self.gamma / self.mesh.bf_len
        return BoundaryFlux(-c[:, None] * u, dn, c)

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


def _prologue(problem, mesh, k, degree):
    """What every solver starts from: the bulk space of order k, its
    stiffness matrix and load vector, and the boundary data on the facet
    rule t, each of shape (facets, len(t), ...): the bulk basis, a dn of
    it, g and the weights w_q h_F, with the dofs of each facet
    (t, vals, adn, dofs, gv, lenw)."""
    space = FeSpace(mesh, k)
    if degree is None:
        degree = 2 * k + 4
    A = fem.assemble_stiffness(space, problem.a, degree)
    F = fem.assemble_load(space, problem.f, degree)
    t, w = segment_rule(degree)
    vals, grads, dofs = fem.facet_basis(space, t, gradients=True)
    x, y = np.moveaxis(mesh.facet_points(t), -1, 0)
    adn = (problem.a(x, y)[..., None]
           * np.einsum("fqja,fa->fqj", grads, mesh.bf_normal))
    lenw = w * mesh.bf_len[:, None]
    return space, A, F, (t, vals, adn, dofs, problem.g(x, y), lenw)


def _pair(vals_i, vals_j, weight, dofs_i, dofs_j, shape):
    """Sparse matrix of the facet rule sums of weight * vals_i vals_j:
    one local matrix per facet, added at (dofs_i, dofs_j).  vals are
    (facets, nq, n), or one (nq, n) table shared by every facet."""
    vi = np.broadcast_to(vals_i, weight.shape + vals_i.shape[-1:])
    vj = np.broadcast_to(vals_j, weight.shape + vals_j.shape[-1:])
    local = np.einsum("fqi,fqj,fq->fij", vi, vj, weight)
    rows = np.broadcast_to(dofs_i[:, :, None], local.shape)
    cols = np.broadcast_to(dofs_j[:, None, :], local.shape)
    return sparse.coo_matrix((local.ravel(), (rows.ravel(), cols.ravel())),
                             shape=shape).tocsr()


def _solve_multiplier(method, problem, mesh, k, kprime, continuous, degree,
                      alpha=0.0, sign=1):
    """The solve of both multiplier methods: [[A, -C], [-C^T, 0]] x =
    [F, -G], and with alpha > 0 the matrix gains
    alpha [[sign D, -sign E], [E^T, -Mb]], which is the Barbosa-Hughes
    system with its second block row negated.  The matrix is symmetric,
    and checked to be, when alpha == 0 or sign == -1."""
    bspace = BoundarySpace(mesh, kprime, continuous)
    space, A, F, (t, vals, adn, dofs, gv, lenw) = _prologue(
        problem, mesh, k, degree)
    mvals = bspace.eval(t)
    mdofs = bspace.facet_dofs
    nb, nm = space.ndof, bspace.ndof
    C = _pair(vals, mvals, lenw, dofs, mdofs, (nb, nm))
    G = fem.facet_vector(nm, mdofs, mvals, gv * lenw)
    K = sparse.bmat([[A, -C], [-C.T, None]], format="csr")
    if alpha > 0:
        hw = lenw * mesh.bf_len[:, None]
        D = _pair(adn, adn, hw, dofs, dofs, (nb, nb))
        E = _pair(adn, mvals, hw, dofs, mdofs, (nb, nm))
        Mb = _pair(mvals, mvals, hw, mdofs, mdofs, (nm, nm))
        K = K + alpha * sparse.bmat([[sign * D, -sign * E], [E.T, -Mb]],
                                    format="csr")
    x = fem.solve(SparseSystem(K, np.concatenate([F, -G]),
                               symmetric=alpha == 0 or sign == -1))
    return DiscreteSolution(method, problem, space, x[:nb],
                            multiplier_space=bspace, multiplier=x[nb:],
                            alpha=alpha if alpha > 0 else None, sign=sign)


def solve_lagrange(problem, mesh, k=2, kprime=0, continuous=False,
                   degree=None):
    """Mixed Galerkin solve: the flux is an unknown multiplier.

    The multiplier equation enforces the Dirichlet data weakly; the
    bulk equation carries -integral(lambda_h v) on its left-hand side.
    """
    return _solve_multiplier(LAGRANGE, problem, mesh, k, kprime, continuous,
                             degree)


def solve_barbosa_hughes(problem, mesh, k=2, kprime=0, continuous=False,
                         alpha=0.1, sign=1, degree=None):
    """Stabilized mixed solve with the flux-mismatch penalty alpha."""
    if alpha <= 0:
        raise ValueError("stabilization parameter must be positive")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    return _solve_multiplier(BARBOSA_HUGHES, problem, mesh, k, kprime,
                             continuous, degree, alpha, sign)


def solve_nitsche(problem, mesh, k=1, gamma=10.0, sign=1, degree=None):
    """Penalty-consistent weak imposition of the Dirichlet data."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    space, A, F, (t, vals, adn, dofs, gv, lenw) = _prologue(
        problem, mesh, k, degree)
    n = space.ndof
    hF = mesh.bf_len[:, None]
    N1 = _pair(vals, adn, lenw, dofs, dofs, (n, n))     # v * a dn(u)
    P = _pair(vals, vals, lenw * gamma / hF, dofs, dofs, (n, n))
    K = A - N1 + sign * N1.T + P
    # the data g enters against sign * a dn(v) + gamma/h_F v
    rhs = F + fem.facet_vector(n, dofs, sign * adn + gamma / hF[..., None]
                               * vals, gv * lenw)
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
    flux = solution.flux
    lam = fem.monomial_values(flux.q, t)
    if flux.d is not None:
        x, y = np.moveaxis(mesh.facet_points(t), -1, 0)
        lam += (problem.a(x, y) * fem.monomial_values(flux.d, t)
                + flux.c[:, None] * problem.g(x, y))
    int_lam = float((lam @ w) @ mesh.bf_len)
    int_f = float(fem.assemble_load(solution.space, problem.f, degree).sum())
    return int_lam + int_f
