"""The three boundary-condition treatments for the Dirichlet problem.

Every problem is manufactured: ProblemSpec holds the exact solution u,
whose trace is the Dirichlet data g, and the source f = -div(a grad u).
Each solver returns a DiscreteSolution whose discrete flux (the
approximation of the outward normal flux a*du/dn on the boundary) is
either an explicit coefficient vector in a BoundarySpace (Lagrange
multiplier and Barbosa-Hughes) or the Nitsche post-processing rule
a*dn(u_h) + gamma/h_F * (g - u_h).  Both are held in one per-facet
polynomial form, BoundaryFlux, whose one evaluator BoundaryFlux.values
serves DiscreteSolution.flux_values, the compatibility defect and the
estimator.  Outside assembly, the boundary values of u_h are read from
one per-facet monomial form too, DiscreteSolution.trace, which the
Nitsche flux and every estimator boundary term share.

Every boundary term is integrated on arrays of shape (facets, rule
points) as one local matrix per facet.  Each system matrix is one
conversion of the element stiffness matrices and these facet matrices
(fem.assemble_matrix), with no sparse sums or block stacking.  The
solve's load pass also gives integral f (the sum of its load vector)
and integral |f|; the DiscreteSolution keeps both for the compatibility
defect and its scale, which integrates by the solve's own rules, those
of FeSpace.degree.  The Lagrange multiplier method is the alpha = 0
case of the Barbosa-Hughes solve.

The Dirichlet data enters weakly everywhere: nothing is interpolated
nodally.  The `sign` argument selects the symmetric (-1) or the
antisymmetric (+1, default) variant of the stabilized methods.
"""

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from . import fem
from .fem import BoundarySpace, FeSpace, SparseSystem
from .quadrature import segment_rule

LAGRANGE = "lagrange"
BARBOSA_HUGHES = "barbosa-hughes"
NITSCHE = "nitsche"


@dataclass
class ProblemSpec:
    """Diffusion problem -div(a grad u) = f, given by its exact solution
    u, whose trace is the Dirichlet data.

    All callables are vectorized over numpy arrays.  grad_u and grad_a
    return arrays with a trailing axis of length 2.  `solution` returns
    (u, grad_u) from one evaluation and `f_and_grad_u` (f, grad_u) from
    one evaluation; the solve's load pass reads the latter.  Either
    form may be given by its parts (u with grad_u, and f), and the
    missing callables are derived from what is given.
    """

    name: str
    domain: str
    a: Callable
    grad_a: Callable
    f: Optional[Callable] = None
    u: Optional[Callable] = None
    grad_u: Optional[Callable] = None
    solution: Optional[Callable] = None
    f_and_grad_u: Optional[Callable] = None
    # Gauss sums of the boundary data over dyadic cells, filled and read
    # by norms.sample_to_dyadic; it lives as long as this instance
    dyadic_cache: dict = field(default_factory=dict, init=False,
                               repr=False, compare=False)

    def __post_init__(self):
        both = self.solution
        if both is None:
            u, grad_u = self.u, self.grad_u
            if u is None or grad_u is None:
                raise ValueError("the exact solution must be given: "
                                 "solution, or u and grad_u")
            self.solution = lambda x, y: (u(x, y), grad_u(x, y))
        if self.u is None:
            self.u = lambda x, y: both(x, y)[0]
        if self.grad_u is None:
            self.grad_u = lambda x, y: both(x, y)[1]
        source = self.f_and_grad_u
        if source is None:
            f, grad_u = self.f, self.grad_u
            if f is None:
                raise ValueError("the source must be given: "
                                 "f_and_grad_u, or f")
            self.f_and_grad_u = lambda x, y: (f(x, y), grad_u(x, y))
        elif self.f is None:
            self.f = lambda x, y: source(x, y)[0]

    def exact_flux(self, x, y, nx, ny):
        """a * grad(u) . n at boundary points with outward normal (nx, ny)."""
        return self.boundary_values(x, y, nx, ny)[0]

    def boundary_values(self, x, y, nx, ny):
        """(exact flux, u) at boundary points with outward normal
        (nx, ny), from one call of `solution`."""
        u, gu = self.solution(x, y)
        return _normal_flux(self.a(x, y), gu, nx, ny), u

    def facet_data(self, mesh, t):
        """u and its tangential derivative at the parameters t on every
        boundary facet, shape (facets, len(t)) each, from one call of
        `solution`."""
        x, y = np.moveaxis(mesh.facet_points(t), -1, 0)
        u, gu = self.solution(x, y)
        return u, _tangential(gu, mesh)


def _normal_flux(a, gu, nx, ny):
    return a * (gu[..., 0] * nx + gu[..., 1] * ny)


def _tangential(gu, mesh):
    """Gradients (facets, nq, 2) at facet points, along each facet."""
    tang = mesh.bf_tangent[:, None, :]
    return gu[..., 0] * tang[..., 0] + gu[..., 1] * tang[..., 1]


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

    def values(self, facet_ids, t, a=None, g=None):
        """lambda_h at the parameters t of the facets facet_ids, which
        broadcast against t, given the values of a and of the Dirichlet
        data g (the trace of u) at those points (ignored by multiplier
        fluxes)."""
        lam = fem.monomial_values(self.q[facet_ids], t)
        if self.d is None:
            return lam
        return (a * fem.monomial_values(self.d[facet_ids], t)
                + self.c[facet_ids] * g + lam)


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
    # integral f and integral |f| by the load rule of the solve
    # (integral f is the sum of the load vector)
    f_integral: float = np.nan
    abs_f_integral: float = np.nan
    # f and grad u at the points of the space's triangle rule,
    # (triangles, nq, ...), from the solve's load pass, for the
    # estimator's volume pass, which drops them once it has read them
    # (estimator.compute_residuals)
    f_values: Optional[np.ndarray] = field(default=None, repr=False)
    grad_u_values: Optional[np.ndarray] = field(default=None, repr=False)

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
        """The discrete flux lambda_h at the parameters t of the facets
        facet_ids, which broadcast against t."""
        facet_ids = np.asarray(facet_ids, dtype=np.int64)
        t = np.asarray(t, dtype=float)
        if self.flux.d is None:
            return self.flux.values(facet_ids, t)
        x, y = np.moveaxis(self.mesh.boundary_points(facet_ids, t), -1, 0)
        return self.flux.values(facet_ids, t, self.problem.a(x, y),
                                self.problem.u(x, y))


def _prologue(problem, mesh, k):
    """What every solver starts from: the bulk space of order k, its
    element stiffness matrices, its load vector with the integrals of f
    and |f| by the same rule, the values of f and grad u at that rule,
    from one evaluation of f_and_grad_u (the keywords of
    DiscreteSolution in `loads`), and the boundary data on the facet
    rule t, each of shape (facets, len(t), ...): the bulk basis, a dn of
    it, the Dirichlet data u and the weights w_q h_F, with the dofs of
    each facet (t, vals, adn, dofs, gv, lenw)."""
    space = FeSpace(mesh, k)
    Ke = fem.element_stiffness(space, problem.a)
    fv, gu = fem.rule_values(space, problem.f_and_grad_u)
    F, abs_f = fem.assemble_load_sums(space, fv)
    t, w = segment_rule(space.degree)
    vals, grads, dofs = fem.facet_basis(space, t, gradients=True)
    x, y = np.moveaxis(mesh.facet_points(t), -1, 0)
    adn = (problem.a(x, y)[..., None]
           * np.einsum("fqja,fa->fqj", grads, mesh.bf_normal))
    lenw = w * mesh.bf_len[:, None]
    loads = dict(f_integral=float(F.sum()), abs_f_integral=abs_f,
                 f_values=fv, grad_u_values=gu)
    return space, Ke, F, loads, (t, vals, adn, dofs, problem.u(x, y), lenw)


def _pair(vals_i, vals_j, weight):
    """Local matrices (facets, n_i, n_j) of the facet rule sums of
    weight * vals_i vals_j.  vals are (facets, nq, n), or one (nq, n)
    table shared by every facet."""
    vi = np.broadcast_to(vals_i, weight.shape + vals_i.shape[-1:])
    vj = np.broadcast_to(vals_j, weight.shape + vals_j.shape[-1:])
    return np.einsum("fqi,fqj,fq->fij", vi, vj, weight)


def _solve_multiplier(method, problem, mesh, k, kprime, continuous,
                      alpha=0.0, sign=1):
    """The solve of both multiplier methods: [[A, -C], [-C^T, 0]] x =
    [F, -G], and with alpha > 0 the matrix gains
    alpha [[sign D, -sign E], [E^T, -Mb]], which is the Barbosa-Hughes
    system with its second block row negated.  Every block is a sum of
    local matrices per triangle or facet, and the matrix is one
    conversion of all of them.  It is symmetric, and checked to be, when
    alpha == 0 or sign == -1."""
    bspace = BoundarySpace(mesh, kprime, continuous)
    space, Ke, F, loads, (t, vals, adn, dofs, gv, lenw) = _prologue(
        problem, mesh, k)
    mvals = bspace.eval(t)
    nb, nm = space.ndof, bspace.ndof
    mdofs = nb + bspace.facet_dofs
    C = _pair(vals, mvals, lenw)
    top, bottom = -C, -C
    terms = [(space.tri_dofs, space.tri_dofs, Ke)]
    if alpha > 0:
        hw = lenw * mesh.bf_len[:, None]
        E = _pair(adn, mvals, hw)
        top, bottom = top - alpha * sign * E, bottom + alpha * E
        terms += [(dofs, dofs, alpha * sign * _pair(adn, adn, hw)),
                  (mdofs, mdofs, -alpha * _pair(mvals, mvals, hw))]
    terms += [(dofs, mdofs, top), (mdofs, dofs, bottom.transpose(0, 2, 1))]
    K = fem.assemble_matrix((nb + nm, nb + nm), terms)
    G = fem.facet_vector(nm, bspace.facet_dofs, mvals, gv * lenw)
    x = fem.solve(SparseSystem(K, np.concatenate([F, -G]),
                               symmetric=alpha == 0 or sign == -1,
                               order=fem.dissection_order(space, bspace)))
    return DiscreteSolution(method, problem, space, x[:nb],
                            multiplier_space=bspace, multiplier=x[nb:],
                            alpha=alpha if alpha > 0 else None, **loads)


def solve_lagrange(problem, mesh, k=2, kprime=0, continuous=False):
    """Mixed Galerkin solve: the flux is an unknown multiplier.

    The multiplier equation enforces the Dirichlet data weakly; the
    bulk equation carries -integral(lambda_h v) on its left-hand side.
    """
    return _solve_multiplier(LAGRANGE, problem, mesh, k, kprime, continuous)


def solve_barbosa_hughes(problem, mesh, k=2, kprime=0, continuous=False,
                         alpha=0.1, sign=1):
    """Stabilized mixed solve with the flux-mismatch penalty alpha."""
    if alpha <= 0:
        raise ValueError("stabilization parameter must be positive")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    return _solve_multiplier(BARBOSA_HUGHES, problem, mesh, k, kprime,
                             continuous, alpha, sign)


def solve_nitsche(problem, mesh, k=1, gamma=10.0, sign=1):
    """Penalty-consistent weak imposition of the Dirichlet data.

    The matrix A - N1 + sign N1^T + P is one conversion of the element
    stiffness matrices and one boundary matrix per facet, whose dofs
    are those of the facet's triangle."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    space, Ke, F, loads, (t, vals, adn, dofs, gv, lenw) = _prologue(
        problem, mesh, k)
    n = space.ndof
    hF = mesh.bf_len[:, None]
    N1 = _pair(vals, adn, lenw)     # v * a dn(u)
    boundary = (sign * N1.transpose(0, 2, 1) - N1
                + _pair(vals, vals, lenw * gamma / hF))
    K = fem.assemble_matrix((n, n), [(space.tri_dofs, space.tri_dofs, Ke),
                                     (dofs, dofs, boundary)])
    # the data g enters against sign * a dn(v) + gamma/h_F v
    rhs = F + fem.facet_vector(n, dofs, sign * adn + gamma / hF[..., None]
                               * vals, gv * lenw)
    x = fem.solve(SparseSystem(K, rhs, order=fem.dissection_order(space)))
    return DiscreteSolution(NITSCHE, problem, space, x, gamma=gamma,
                            **loads)


def compatibility_defect(solution):
    """integral(lambda_h) + integral(f): vanishes up to solver tolerance.

    Uses the solve's own rule, on the boundary and for its load sum
    integral(f), so the identity obtained by testing with v = 1 holds
    exactly.
    """
    mesh = solution.mesh
    t, w = segment_rule(solution.space.degree)
    lam = solution.flux_values(
        np.arange(mesh.num_boundary_facets)[:, None], t)
    return float((lam @ w) @ mesh.bf_len) + solution.f_integral
