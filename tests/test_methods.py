import numpy as np
import pytest
from scipy import sparse

from fluxweight import driver, fem, methods
from fluxweight.mesh import build_unit_square
from fluxweight.problems import problem_data
from fluxweight.quadrature import segment_rule

from conftest import (assemble_grad_load, bulk_trace, coo_stiffness,
                      distorted_square4, exact_flux_integral_defect,
                      facet_point_basis, facet_point_pair, interpolate,
                      make_linear_problem, make_poly_problem,
                      minimum_degree_lu_nnz, multiplier_values,
                      verify_problem)


def exact_flux_on_facets(problem, mesh, t=0.5):
    f = np.arange(mesh.num_boundary_facets)
    tt = np.full(len(f), t)
    pts = mesh.boundary_points(f, tt)
    nrm = mesh.bf_normal[f]
    return problem.exact_flux(pts[:, 0], pts[:, 1], nrm[:, 0], nrm[:, 1])


def test_lagrange_linear_exact(linear_problem, square4):
    sol = methods.solve_lagrange(linear_problem, square4, k=2, kprime=0)
    ui = interpolate(fem.FeSpace(square4, 2), linear_problem.u)
    assert np.abs(sol.coeffs - ui).max() <= 1e-10
    # facet-constant multipliers are facet-average fluxes
    lam = exact_flux_on_facets(linear_problem, square4)
    assert np.abs(sol.multiplier - lam).max() <= 1e-10


def test_lagrange_weak_data_residual(linear_problem, square4):
    # the multiplier equation's residual is within the solver contract
    sol = methods.solve_lagrange(linear_problem, square4, k=2, kprime=0)
    t, w = segment_rule(8)
    facets = np.arange(square4.num_boundary_facets)
    frep = np.repeat(facets, len(t))
    trep = np.tile(t, len(facets))
    pts = square4.boundary_points(frep, trep)
    gv = linear_problem.u(pts[:, 0], pts[:, 1])
    uv, _ = bulk_trace(sol, frep, trep)
    lenw = np.tile(w, len(facets)) * np.repeat(square4.bf_len, len(t))
    per_facet = ((gv - uv) * lenw).reshape(len(facets), len(t)).sum(axis=1)
    assert np.abs(per_facet).max() <= 1e-9


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("sign", [1, -1])
def test_nitsche_linear_exact(k, sign, linear_problem, square4):
    sol = methods.solve_nitsche(linear_problem, square4, k=k, gamma=10.0,
                                sign=sign)
    ui = interpolate(fem.FeSpace(square4, k), linear_problem.u)
    assert np.abs(sol.coeffs - ui).max() <= 1e-10


def test_nitsche_flux_postprocessing_linear(linear_problem, square4):
    sol = methods.solve_nitsche(linear_problem, square4, k=1, gamma=10.0)
    f = np.arange(square4.num_boundary_facets)
    t = np.full(len(f), 0.37)
    lam = exact_flux_on_facets(linear_problem, square4, t=0.37)
    assert np.abs(sol.flux_values(f, t) - lam).max() <= 1e-9


@pytest.mark.parametrize("k", [1, 2])
def test_nitsche_flux_matches_postprocessing_rule(k, gentle_problem,
                                                  square8):
    # the per-facet polynomial form reproduces
    # a*dn(u_h) + gamma/h_F * (g - u_h) evaluated from the bulk basis
    sol = methods.solve_nitsche(gentle_problem, square8, k=k, gamma=10.0)
    rng = np.random.default_rng(5)
    f = rng.integers(0, square8.num_boundary_facets, 200)
    t = rng.random(200)
    x, y = square8.boundary_points(f, t).T
    uv, dn = bulk_trace(sol, f, t)
    rule = (gentle_problem.a(x, y) * dn + 10.0 / square8.bf_len[f]
            * (gentle_problem.u(x, y) - uv))
    assert np.abs(sol.flux_values(f, t) - rule).max() \
        <= 1e-12 * np.abs(rule).max()


@pytest.mark.parametrize("order", [1, 2, 3])
def test_trace_matches_bulk_basis(order, linear_problem):
    # the per-facet monomial rows of u_h and dn(u_h) reproduce the bulk
    # basis at random facet points of a distorted mesh
    m = distorted_square4()
    sp = fem.FeSpace(m, order)
    co = np.random.default_rng(order).standard_normal(sp.ndof)
    sol = methods.DiscreteSolution(methods.NITSCHE, linear_problem, sp, co,
                                   gamma=10.0)
    rng = np.random.default_rng(10 + order)
    f = rng.integers(0, m.num_boundary_facets, 300)
    t = rng.random(300)
    powers = t[:, None] ** np.arange(order + 1)
    for rows, expect in zip(sol.trace, bulk_trace(sol, f, t)):
        got = (rows[f] * powers).sum(axis=1)
        assert np.abs(got - expect).max() <= 1e-12 * np.abs(expect).max()


@pytest.mark.parametrize("kprime,continuous", [(0, False), (1, False),
                                               (2, True)])
def test_multiplier_flux_matches_basis(kprime, continuous, gentle_problem,
                                       square4):
    sol = methods.solve_barbosa_hughes(gentle_problem, square4, k=2,
                                       kprime=kprime, continuous=continuous)
    rng = np.random.default_rng(6)
    f = rng.integers(0, square4.num_boundary_facets, 100)
    t = rng.random(100)
    basis = multiplier_values(sol.multiplier_space, sol.multiplier, f, t)
    assert np.abs(sol.flux_values(f, t) - basis).max() \
        <= 1e-12 * np.abs(basis).max()


def test_nitsche_compatibility(square8):
    p = problem_data("franke")
    sol = methods.solve_nitsche(p, square8, k=1, gamma=10.0)
    assert abs(methods.compatibility_defect(sol)) <= 1e-9


def test_bh_linear_exact(linear_problem, square4):
    sol = methods.solve_barbosa_hughes(linear_problem, square4, k=2,
                                       kprime=0, alpha=0.1, sign=1)
    ui = interpolate(fem.FeSpace(square4, 2), linear_problem.u)
    assert np.abs(sol.coeffs - ui).max() <= 1e-10


def test_bh_vanishing_stabilization_matches_lagrange(square4):
    p = problem_data("franke")
    lm = methods.solve_lagrange(p, square4, k=2, kprime=0)
    bh = methods.solve_barbosa_hughes(p, square4, k=2, kprime=0,
                                      alpha=1e-10, sign=1)
    scale = np.abs(lm.coeffs).max()
    assert np.abs(bh.coeffs - lm.coeffs).max() <= 1e-7 * scale
    assert np.abs(bh.multiplier - lm.multiplier).max() <= 1e-6 * max(
        np.abs(lm.multiplier).max(), 1.0)


@pytest.mark.parametrize("sign", [1, -1])
def test_penalty_elimination_equivalence(sign, square4):
    # eliminating a discontinuous P1 multiplier from the stabilized mixed
    # system reproduces Nitsche with gamma = 1/alpha (P1 bulk, constant a)
    p = make_poly_problem()
    alpha = 0.1
    bh = methods.solve_barbosa_hughes(p, square4, k=1, kprime=1,
                                      alpha=alpha, sign=sign)
    ni = methods.solve_nitsche(p, square4, k=1, gamma=1.0 / alpha, sign=sign)
    scale = np.abs(ni.coeffs).max()
    assert np.abs(bh.coeffs - ni.coeffs).max() <= 1e-8 * scale
    # multiplier facet averages equal the post-processed flux averages
    t, w = segment_rule(8)
    facets = np.arange(square4.num_boundary_facets)
    frep = np.repeat(facets, len(t))
    trep = np.tile(t, len(facets))
    avg_bh = (bh.flux_values(frep, trep).reshape(-1, len(t)) @ w)
    avg_ni = (ni.flux_values(frep, trep).reshape(-1, len(t)) @ w)
    assert np.abs(avg_bh - avg_ni).max() <= 1e-8 * max(
        np.abs(avg_ni).max(), 1.0)


def test_flux_integral_defect_all_methods():
    # fine enough that the data-quadrature truncation of the assembled
    # right-hand sides is below the 1e-9 target
    p = problem_data("franke")
    m16 = build_unit_square(16)
    m32 = build_unit_square(32)
    sols = [
        methods.solve_lagrange(p, m16, k=2, kprime=0),
        methods.solve_barbosa_hughes(p, m16, k=2, kprime=0, alpha=0.1),
        methods.solve_nitsche(p, m32, k=1, gamma=10.0),
    ]
    for sol in sols:
        assert abs(exact_flux_integral_defect(sol)) <= 1e-9


def test_discrete_compatibility_identity(square8):
    # integral(lambda_h) + integral(f) with assembly-matched quadrature
    # vanishes to solver precision on any mesh
    p = problem_data("franke")
    for sol in (methods.solve_lagrange(p, square8, k=2, kprime=0),
                methods.solve_barbosa_hughes(p, square8, k=2, kprime=0,
                                             alpha=0.1),
                methods.solve_nitsche(p, square8, k=1, gamma=10.0)):
        assert abs(methods.compatibility_defect(sol)) <= 1e-12


def test_galerkin_orthogonality(gentle_problem, square8):
    p = gentle_problem
    sol = methods.solve_lagrange(p, square8, k=2, kprime=0)
    sp = sol.space
    # residual functional r(v) = (a grad u, grad v) - <lambda, v>
    #                           - (a grad u_h, grad v) + <lambda_h, v>
    r = assemble_grad_load(
        sp, lambda x, y: p.a(x, y)[..., None] * p.grad_u(x, y), degree=10)
    A = fem.assemble_stiffness(sp, p.a)
    r -= A @ sol.coeffs
    t, w = segment_rule(12)
    facets = np.arange(square8.num_boundary_facets)
    frep = np.repeat(facets, len(t))
    trep = np.tile(t, len(facets))
    pts = square8.boundary_points(frep, trep)
    nrm = square8.bf_normal[frep]
    lam = p.exact_flux(pts[:, 0], pts[:, 1], nrm[:, 0], nrm[:, 1])
    lam_h = sol.flux_values(frep, trep)
    lenw = np.tile(w, len(facets)) * np.repeat(square8.bf_len, len(t))
    vals, _, dofs = facet_point_basis(sp, frep, trep)
    np.add.at(r, dofs, -vals * ((lam - lam_h) * lenw)[:, None])
    # r(v_h) vanishes for 20 random discrete functions
    rng = np.random.default_rng(4)
    M = fem.assemble_stiffness(sp, lambda x, y: np.ones_like(x))
    for _ in range(20):
        v = rng.standard_normal(sp.ndof)
        norm_v = np.sqrt(v @ (M @ v) + v @ v)
        assert abs(r @ v) <= 1e-8 * norm_v


def test_symmetric_and_antisymmetric_rates_agree():
    p = problem_data("franke")
    from fluxweight import norms
    from fluxweight.mesh import uniform_refine
    rates = {}
    for sign in (1, -1):
        errs = []
        mesh = build_unit_square(8)
        for _ in range(3):
            sol = methods.solve_nitsche(p, mesh, k=1, gamma=10.0, sign=sign)
            errs.append(norms.wavelet_norm(
                norms.flux_error_function(sol), 14))
            mesh = uniform_refine(mesh, 2)
        rates[sign] = np.log2(errs[-2] / errs[-1])
    assert abs(rates[1] - rates[-1]) <= 0.2


@pytest.mark.parametrize("missing", [
    dict(u=None), dict(grad_u=None), dict(u=None, grad_u=None),
    dict(f=None)])
def test_problem_needs_its_exact_solution_and_source(missing):
    # Dirichlet data is the trace of the exact solution: a problem with
    # no solution, or no source, is refused
    p = make_linear_problem()
    parts = dict(a=p.a, grad_a=p.grad_a, f=p.f, u=p.u, grad_u=p.grad_u)
    with pytest.raises(ValueError, match="must be given"):
        methods.ProblemSpec("partial", "unit-square", **{**parts, **missing})


def test_problem_parts_derive_the_joint_callables(gentle_problem):
    # from f, u and grad_u, solution and f_and_grad_u return those parts
    x, y = np.random.default_rng(3).random((2, 50))
    u, gu = gentle_problem.solution(x, y)
    f, gu2 = gentle_problem.f_and_grad_u(x, y)
    assert np.array_equal(u, gentle_problem.u(x, y))
    assert np.array_equal(gu, gentle_problem.grad_u(x, y))
    assert np.array_equal(gu2, gu)
    assert np.array_equal(f, gentle_problem.f(x, y))


def test_verify_problem_catches_wrong_source():
    bad = methods.ProblemSpec(
        name="bad", domain="unit-square",
        a=lambda x, y: np.ones_like(np.asarray(x, dtype=float)),
        grad_a=lambda x, y: np.zeros(np.shape(np.asarray(x)) + (2,)),
        f=lambda x, y: np.ones_like(np.asarray(x, dtype=float)),  # wrong
        u=lambda x, y: x + y,
        grad_u=lambda x, y: np.stack([np.ones_like(x), np.ones_like(y)],
                                     axis=-1))
    with pytest.raises(ValueError):
        verify_problem(bad)


def test_solver_failure_context(square4):
    p = problem_data("franke")
    # an unstable pair: rich continuous multiplier against P1 bulk
    with pytest.raises(fem.SolverError):
        methods.solve_lagrange(p, square4, k=1, kprime=2, continuous=False)
    # P1 bulk against a P0 multiplier on an even number of boundary
    # facets: an alternating-sign kernel makes the system singular
    with pytest.raises(fem.SolverError, match="numerically singular"):
        methods.solve_lagrange(p, square4, k=1, kprime=0)


def reference_system(method, problem, mesh, k, kprime=0, continuous=False,
                     gamma=10.0, alpha=0.0, sign=1):
    """The system matrix of a method as a sum of separately assembled
    sparse terms, each from one outer product per facet rule point."""
    space = fem.FeSpace(mesh, k)
    degree = 2 * k + 4
    A = coo_stiffness(space, problem.a, degree)
    t, w = segment_rule(degree)
    facets = np.arange(mesh.num_boundary_facets)
    frep, trep = np.repeat(facets, len(t)), np.tile(t, len(facets))
    x, y = mesh.boundary_points(frep, trep).T
    vals, grads, dofs = facet_point_basis(space, frep, trep, gradients=True)
    adn = problem.a(x, y)[:, None] * np.einsum(
        "nja,na->nj", grads, mesh.bf_normal[frep])
    hF = mesh.bf_len[frep]
    lenw = np.tile(w, len(facets)) * hF
    n = space.ndof
    if method == methods.NITSCHE:
        N1 = facet_point_pair(vals, adn, lenw, dofs, dofs, (n, n))
        P = facet_point_pair(vals, vals, lenw * gamma / hF, dofs, dofs,
                             (n, n))
        return A - N1 + sign * N1.T + P
    bspace = fem.BoundarySpace(mesh, kprime, continuous)
    nm = bspace.ndof
    mvals, mdofs = bspace.eval(trep), bspace.facet_dofs[frep]
    C = facet_point_pair(vals, mvals, lenw, dofs, mdofs, (n, nm))
    K = sparse.bmat([[A, -C], [-C.T, None]], format="csr")
    if alpha == 0:
        return K
    hw = lenw * hF
    D = facet_point_pair(adn, adn, hw, dofs, dofs, (n, n))
    E = facet_point_pair(adn, mvals, hw, dofs, mdofs, (n, nm))
    Mb = facet_point_pair(mvals, mvals, hw, mdofs, mdofs, (nm, nm))
    return K + alpha * sparse.bmat([[sign * D, -sign * E], [E.T, -Mb]],
                                   format="csr")


@pytest.mark.parametrize("method,kw", [
    (methods.NITSCHE, dict(k=2, sign=1)),
    (methods.NITSCHE, dict(k=1, sign=-1)),
    (methods.LAGRANGE, dict(k=2, kprime=1)),
    (methods.LAGRANGE, dict(k=2, kprime=2, continuous=True)),
    (methods.BARBOSA_HUGHES, dict(k=2, kprime=0, alpha=0.1, sign=1)),
    (methods.BARBOSA_HUGHES, dict(k=1, kprime=1, alpha=0.1, sign=-1)),
])
def test_system_matrix_matches_separate_terms(method, kw, gentle_problem,
                                              monkeypatch):
    # one conversion of every local matrix gives the sum of the
    # separately assembled terms
    mesh = distorted_square4()
    seen = []
    monkeypatch.setattr(fem, "solve", lambda system: seen.append(
        system.matrix) or np.zeros(len(system.rhs)))
    config = dict(kw, **({"gamma": 10.0} if method == methods.NITSCHE
                         else {}))
    if method == methods.NITSCHE:
        methods.solve_nitsche(gentle_problem, mesh, **config)
    elif method == methods.LAGRANGE:
        methods.solve_lagrange(gentle_problem, mesh, **config)
    else:
        methods.solve_barbosa_hughes(gentle_problem, mesh, **config)
    (K,) = seen
    ref = reference_system(method, gentle_problem, mesh, **kw).toarray()
    assert K.indices.dtype == np.int32
    assert np.abs(K.toarray() - ref).max() <= 1e-14 * np.abs(ref).max()


def test_saddle_solve_fill_guard(caplog, monkeypatch):
    # P2 bulk against a P0 multiplier in the dissection order: 9.7x fill,
    # 0.74 of reverse Cuthill-McKee with minimum degree on A^T A
    solve, seen = fem.solve, []
    monkeypatch.setattr(fem, "solve", lambda system: seen.append(
        system.matrix) or solve(system))
    with caplog.at_level("INFO", logger="fluxweight.fem"):
        methods.solve_lagrange(problem_data("varcoef-peak"),
                               build_unit_square(64), k=2, kprime=0)
    (stats,) = [r.args for r in caplog.records if r.name == "fluxweight.fem"]
    assert stats["ordering"] == "dissection"
    assert stats["lu_nnz"] <= 12 * stats["nnz"], stats
    assert stats["lu_nnz"] <= 1.05 * minimum_degree_lu_nnz(seen[0]), stats


@pytest.mark.parametrize("kprime,continuous", [(0, False), (2, True)])
def test_multiplier_dofs_follow_their_bulk_dofs(kprime, continuous,
                                                monkeypatch):
    # each multiplier dof is eliminated right after the last bulk dof of
    # the triangles of the facets it couples to (both facets for a shared
    # vertex dof of a continuous multiplier)
    mesh = distorted_square4()
    seen = []
    monkeypatch.setattr(fem, "solve", lambda system: seen.append(
        system) or np.zeros(len(system.rhs)))
    sol = methods.solve_lagrange(problem_data("franke"), mesh, k=2,
                                 kprime=kprime, continuous=continuous)
    (system,) = seen
    nb, fd = sol.space.ndof, sol.multiplier_space.facet_dofs
    position = np.empty(len(system.rhs), dtype=np.int64)
    position[system.order] = np.arange(len(system.rhs))
    bulk_last = position[sol.space.tri_dofs[mesh.bf_tri]].max(axis=1)
    assert (position[nb + fd] > bulk_last[:, None]).all()
    # no bulk dof comes between that last one and the multiplier dof
    last = np.zeros(sol.multiplier_space.ndof, dtype=np.int64)
    np.maximum.at(last, fd, np.broadcast_to(bulk_last[:, None], fd.shape))
    bulk_seen = np.cumsum(system.order < nb)
    assert np.array_equal(bulk_seen[position[nb:]], bulk_seen[last])


@pytest.mark.parametrize("method", ["nitsche", "lagrange", "barbosa-hughes"])
def test_compatibility_from_the_solve_load(method, square8):
    # the load sums come from the solve's own load pass: integral f is
    # the sum of its load vector, integral |f| uses the same rule
    p = problem_data("varcoef-peak")
    sol = driver._solve(driver.AmrConfig(problem=p.name, method=method,
                                         k=2), p, square8)
    F = fem.assemble_load(sol.space, p.f)
    abs_f = fem.assemble_load(sol.space, lambda x, y: np.abs(p.f(x, y)))
    assert sol.abs_f_integral == pytest.approx(abs_f.sum(), rel=1e-14)
    defect = methods.compatibility_defect(sol)
    by_assembly = defect - sol.f_integral + F.sum()
    assert abs(defect - by_assembly) <= 1e-14 * sol.abs_f_integral
