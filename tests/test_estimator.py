import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluxweight import estimator as est
from fluxweight import fem, methods
from fluxweight.driver import AmrConfig
from fluxweight.mesh import (build_domain_mesh, build_unit_square,
                             compute_distance_field, refine)
from fluxweight.problems import problem_data
from fluxweight.quadrature import segment_rule

from conftest import distorted_square4


def test_weight_element_cases():
    cfg = AmrConfig(c1=1.0, c2=1.0, k=1)
    assert est.weight_element(0.3, 0.0, cfg) == 1.0       # boundary branch
    assert est.weight_element(0.01, 0.5, cfg) == pytest.approx(0.02)
    cfg2 = AmrConfig(c1=1.0, c2=1.0, k=2)
    assert est.weight_element(0.1, 0.05, cfg2) == 1.0     # min{1, 4}


def test_weight_facet():
    assert est.weight_facet(0.3, 0.7) == 0.3
    assert est.weight_facet(0.5, 0.5) == 0.5
    assert est.weight_facet(1.0, 0.1) == pytest.approx(0.1)


@given(h=st.floats(1e-6, 1.0), rho=st.floats(0.0, 10.0),
       h2=st.floats(1e-6, 1.0))
@settings(max_examples=200, deadline=None)
def test_weight_monotone(h, rho, h2):
    cfg = AmrConfig(c1=1.0, c2=0.7, k=2)
    w = est.weight_element(h, rho, cfg)
    assert 0.0 < w <= cfg.c1
    # non-decreasing in h at fixed rho
    lo, hi = min(h, h2), max(h, h2)
    assert (est.weight_element(lo, rho, cfg)
            <= est.weight_element(hi, rho, cfg) + 1e-15)
    # non-increasing in rho at fixed h
    assert (est.weight_element(h, rho + 0.5, cfg)
            <= est.weight_element(h, rho, cfg) + 1e-15)


def test_invalid_weight_config():
    with pytest.raises(ValueError, match="weight constants"):
        AmrConfig(c1=0.0)


def test_residuals_vanish_for_reproduced_solution(linear_problem, square4):
    for sol in (methods.solve_lagrange(linear_problem, square4, k=2,
                                       kprime=0),
                methods.solve_nitsche(linear_problem, square4, k=1,
                                      gamma=10.0)):
        r = est.compute_residuals(sol)
        for arr in (r.r1T, r.r0F, r.r1F, r.r2F, r.r3F,
                    np.sqrt(r.patch_sq.ravel())):
            assert np.abs(arr).max() <= 1e-9


def _zero_solution_patch_sq(mesh, u, grad_u):
    """patch_sq of u_h = 0 for the data g = u.

    With u_h = 0, the entry of facet F and vertex P is
    int_0^1 (g_h^P)^2 dt + h_F^2 int_0^1 (d_s g_h^P - d_s g)^2 dt, where
    g_h^P is the L2 projection of g onto the continuous piecewise
    linears of the two-facet patch of P.
    """
    p = methods.ProblemSpec(
        name="data", domain="unit-square",
        a=lambda x, y: np.ones_like(np.asarray(x, dtype=float)),
        grad_a=lambda x, y: np.zeros(np.shape(np.asarray(x)) + (2,)),
        f=lambda x, y: np.zeros_like(np.asarray(x, dtype=float)),
        u=u, grad_u=grad_u)
    sp = fem.FeSpace(mesh, 1)
    fake = methods.DiscreteSolution(methods.NITSCHE, p, sp,
                                    np.zeros(sp.ndof), gamma=10.0)
    return est.compute_residuals(fake).patch_sq


def _uneven_boundary(mesh):
    """The mesh with its first boundary facet bisected: on square4,
    facets 0 and 1 have length 1/8 and the others 1/4."""
    for _ in range(2):
        mesh = refine(mesh, [mesh.bf_tri[0]])
    return mesh


def test_patch_projection_constant_and_linear(square4):
    # the projection reproduces continuous piecewise linear data, so
    # g_h^P = g on both facets of every patch and the tangential term
    # vanishes
    mesh = _uneven_boundary(square4)
    patch_sq = _zero_solution_patch_sq(
        mesh, lambda x, y: np.full_like(np.asarray(x, dtype=float), 4.5),
        lambda x, y: np.zeros(np.shape(np.asarray(x)) + (2,)))
    assert np.allclose(patch_sq, 4.5 ** 2, rtol=1e-12, atol=0.0)

    def g_lin(x, y):
        return 3.0 * x + 2.0 * y - 1.0

    patch_sq = _zero_solution_patch_sq(
        mesh, g_lin, lambda x, y: np.stack(
            [np.full_like(np.asarray(x, dtype=float), 3.0),
             np.full_like(np.asarray(y, dtype=float), 2.0)], axis=-1))
    t, w = segment_rule(4)
    nbf = mesh.num_boundary_facets
    pts = mesh.boundary_points(np.repeat(np.arange(nbf), len(t)),
                               np.tile(t, nbf))
    g_sq = (g_lin(pts[:, 0], pts[:, 1]) ** 2).reshape(nbf, len(t)) @ w
    assert np.allclose(patch_sq, g_sq[:, None], rtol=1e-12, atol=1e-14)


def test_patch_projection_quadratic_dense_oracle(square4):
    # g = x^2 is s^2 on the bottom edge; the vertex at s = 1/4 starts
    # facet 2 (length 1/4), and its patch is facets 1 (length 1/8) and 2
    mesh = _uneven_boundary(square4)
    patch_sq = _zero_solution_patch_sq(
        mesh, lambda x, y: x * x, lambda x, y: np.stack(
            [2.0 * x, np.zeros_like(np.asarray(y, dtype=float))], axis=-1))
    s0, L = mesh.bf_s0[[1, 2]], mesh.bf_len[[1, 2]]
    assert np.allclose(s0, [0.125, 0.25]) and np.allclose(L, [0.125, 0.25])
    # dense oracle: hat-function mass matrix and moments on the two facets
    t, w = segment_rule(8)
    phi = np.stack([1 - t, t], axis=1)
    M = np.zeros((3, 3))
    b = np.zeros(3)
    for j in range(2):
        s = s0[j] + t * L[j]
        M[j:j + 2, j:j + 2] += (phi[:, :, None] * phi[:, None, :]
                                * (w * L[j])[:, None, None]).sum(0)
        b[j:j + 2] += (phi * (s * s * w * L[j])[:, None]).sum(0)
    co = np.linalg.solve(M, b)
    # facet 1 carries the patch as its right vertex, facet 2 as its left
    for j, (facet, slot) in enumerate(((1, 1), (2, 0))):
        ca, cb = co[j], co[j + 1]
        gh = ca * (1 - t) + cb * t
        dg = 2.0 * (s0[j] + t * L[j])
        expect = gh ** 2 @ w + L[j] ** 2 * (((cb - ca) / L[j] - dg) ** 2 @ w)
        assert patch_sq[facet, slot] == pytest.approx(expect, rel=1e-12)


def test_volume_residual_constant_source(square8):
    p = methods.ProblemSpec(
        name="unit-f", domain="unit-square",
        a=lambda x, y: np.ones_like(np.asarray(x, dtype=float)),
        grad_a=lambda x, y: np.zeros(np.shape(np.asarray(x)) + (2,)),
        f=lambda x, y: np.ones_like(np.asarray(x, dtype=float)),
        g=lambda x, y: np.zeros_like(np.asarray(x, dtype=float)))
    sp = fem.FeSpace(square8, 1)
    fake = methods.DiscreteSolution(methods.NITSCHE, p, sp,
                                    np.zeros(sp.ndof), gamma=10.0)
    r = est.compute_residuals(fake)
    expect = square8.h_T * np.sqrt(square8.signed_area)
    assert np.abs(r.r1T - expect).max() <= 1e-13


def test_flux_jump_hat_function():
    # two triangles sharing the diagonal of the unit square; u_h is the
    # hat of one off-diagonal vertex, so the gradients are constant
    m = build_unit_square(1)
    p = methods.ProblemSpec(
        name="z", domain="unit-square",
        a=lambda x, y: np.ones_like(np.asarray(x, dtype=float)),
        grad_a=lambda x, y: np.zeros(np.shape(np.asarray(x)) + (2,)),
        f=lambda x, y: np.zeros_like(np.asarray(x, dtype=float)),
        g=lambda x, y: np.zeros_like(np.asarray(x, dtype=float)))
    sp = fem.FeSpace(m, 1)
    coeffs = np.zeros(sp.ndof)
    hat_vertex = np.nonzero(
        np.isclose(m.vertices, [1.0, 0.0]).all(axis=1))[0][0]
    coeffs[hat_vertex] = 1.0
    fake = methods.DiscreteSolution(methods.NITSCHE, p, sp, coeffs,
                                    gamma=10.0)
    r = est.compute_residuals(fake)
    # hand-assembled: the hat at (1,0) lives on the lower triangle
    # {(0,0),(1,0),(1,1)} with gradient (1, -1); the upper gradient is 0.
    # unit diagonal normal (1,-1)/sqrt(2): jump magnitude = sqrt(2).
    hF = np.sqrt(2.0)
    expect = hF ** 0.5 * np.sqrt(2.0) * hF ** 0.5  # h^(1/2) |jump| |F|^(1/2)
    assert len(r.r0F) == 1
    assert r.r0F[0] == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("order", [1, 2, 3])
def test_flux_jumps_pointwise_oracle(order):
    # plain loops over interior edges, quadrature points and both
    # neighbors, each locating the point in its triangle by J^-1
    m = distorted_square4()
    p = problem_data("varcoef-peak")
    sp = fem.FeSpace(m, order)
    co = np.random.default_rng(order).standard_normal(sp.ndof)
    sol = methods.DiscreteSolution(methods.NITSCHE, p, sp, co, gamma=10.0)
    degree = 2 * order + 4
    t, w = segment_rule(degree)
    expect = []
    for e in m.interior_edges:
        P, Q = m.vertices[m.edges[e]]
        L = np.hypot(*(Q - P))
        n = np.array([(Q - P)[1], -(Q - P)[0]]) / L
        norm_sq = 0.0
        for tq, wq in zip(t, w):
            x = P + tq * (Q - P)
            jump = 0.0
            for side, sgn in ((0, 1.0), (1, -1.0)):
                tri = m.edge_tris[e, side]
                v = m.vertices[m.triangles[tri]]
                J = np.column_stack([v[1] - v[0], v[2] - v[0]])
                ref = np.linalg.solve(J, x - v[0])
                G = sp.element.grad(ref[None])[0] @ np.linalg.inv(J)
                jump += sgn * (co[sp.tri_dofs[tri]] @ G) @ n
            norm_sq += wq * L * (p.a(x[0], x[1]) * jump) ** 2
        expect.append(np.sqrt(L) * np.sqrt(norm_sq))
    got = est.compute_residuals(sol).r0F
    assert np.allclose(got, expect, rtol=1e-12, atol=0.0)


def _random_solution(method, mesh, order, problem, seed):
    """A DiscreteSolution of the given method with random coefficients:
    Nitsche, Barbosa-Hughes with k' = 1, or continuous Lagrange k' = 2."""
    rng = np.random.default_rng(seed)
    sp = fem.FeSpace(mesh, order)
    co = rng.standard_normal(sp.ndof)
    if method == methods.NITSCHE:
        return methods.DiscreteSolution(method, problem, sp, co, gamma=10.0)
    bs = (fem.BoundarySpace(mesh, 1) if method == methods.BARBOSA_HUGHES
          else fem.BoundarySpace(mesh, 2, continuous=True))
    return methods.DiscreteSolution(
        method, problem, sp, co, multiplier_space=bs,
        multiplier=rng.standard_normal(bs.ndof), alpha=0.1)


@pytest.mark.parametrize("method", [methods.NITSCHE, methods.BARBOSA_HUGHES,
                                    methods.LAGRANGE])
@pytest.mark.parametrize("order", [1, 2, 3])
def test_boundary_residuals_pointwise_oracle(order, method):
    # plain loops over boundary facets and quadrature points, each point
    # located in the facet's triangle by J^-1; the patch projections are
    # dense 3x3 solves per boundary vertex
    m = distorted_square4()
    p = problem_data("varcoef-peak")
    sol = _random_solution(method, m, order, p, seed=order)
    co = sol.coeffs
    degree = 2 * order + 4          # the patch rule is the same here
    t, w = segment_rule(degree)
    nbf = m.num_boundary_facets
    u, du, lam_mis, g, dg = (np.empty((nbf, len(t))) for _ in range(5))
    for f in range(nbf):
        P, Q = m.vertices[m.bf_v0[f]], m.vertices[m.bf_v1[f]]
        tau = (Q - P) / np.hypot(*(Q - P))
        n = np.array([tau[1], -tau[0]])
        tri = m.bf_tri[f]
        v = m.vertices[m.triangles[tri]]
        J = np.column_stack([v[1] - v[0], v[2] - v[0]])
        local = co[sol.space.tri_dofs[tri]]
        for q, tq in enumerate(t):
            x = P + tq * (Q - P)
            ref = np.linalg.solve(J, x - v[0])
            G = sol.space.element.grad(ref[None])[0] @ np.linalg.inv(J)
            u[f, q] = local @ sol.space.element.eval(ref[None])[0]
            du[f, q] = (local @ G) @ tau
            g[f, q] = p.g(x[0], x[1])
            dg[f, q] = p.grad_u(x[0], x[1]) @ tau
            if method != methods.NITSCHE:
                bs = sol.multiplier_space
                lam = (bs.eval(np.array([tq]))[0]
                       @ sol.multiplier[bs.facet_dofs[f]])
                lam_mis[f, q] = lam - p.a(x[0], x[1]) * ((local @ G) @ n)
    L = m.bf_len
    r3F = L ** -0.5 * np.sqrt(L * ((u - g) ** 2 @ w))
    r2F = L ** 0.5 * np.sqrt(L * ((dg - du) ** 2 @ w))
    r1F = (10.0 * r3F if method == methods.NITSCHE
           else L ** 0.5 * np.sqrt(L * (lam_mis ** 2 @ w)))
    patch_sq = np.empty((nbf, 2))
    hats = np.stack([1 - t, t], axis=1)
    for j in range(nbf):
        pair = ((j - 1) % nbf, j)           # the patch of vertex bf_v0[j]
        M = np.zeros((3, 3))
        b = np.zeros(3)
        for i, f in enumerate(pair):
            M[i:i + 2, i:i + 2] += L[f] * (hats.T * w) @ hats
            b[i:i + 2] += L[f] * (hats.T * w) @ g[f]
        c = np.linalg.solve(M, b)
        for i, (f, slot) in enumerate(zip(pair, (1, 0))):
            gh = c[i] * (1 - t) + c[i + 1] * t
            dgh = (c[i + 1] - c[i]) / L[f]
            patch_sq[f, slot] = (L[f] ** -1 * L[f] * ((u[f] - gh) ** 2 @ w)
                                 + L[f] * L[f] * ((dgh - dg[f]) ** 2 @ w))
    r = est.compute_residuals(sol)
    for got, expect in ((r.r1F, r1F), (r.r2F, r2F), (r.r3F, r3F),
                        (r.patch_sq, patch_sq)):
        assert np.allclose(got, expect, rtol=1e-12, atol=0.0)


def test_eta_definition_single_contributions(square4):
    p = problem_data("franke")
    sol = methods.solve_nitsche(p, square4, k=1, gamma=10.0)
    r = est.compute_residuals(sol)
    sigma = est.weight_element(square4.h_T, compute_distance_field(square4),
                               AmrConfig(c1=1, c2=1, k=1))
    eta_T, eta, sigma_F = est.assemble_eta(r, sigma, sol)
    # global value is exactly the root of summed squares
    assert eta == pytest.approx(np.sqrt((eta_T ** 2).sum()), rel=1e-12)
    # hand-check one boundary element
    t0 = square4.bf_tri[0]
    expected = (sigma[t0] * r.r1T[t0]) ** 2
    for pos, e in enumerate(r.interior_edges):
        ts = square4.edge_tris[e]
        if t0 in ts:
            expected += (sigma_F[pos] * r.r0F[pos]) ** 2
    nbf = square4.num_boundary_facets
    S = r.patch_sq[(np.arange(nbf) - 1) % nbf, 1] + r.patch_sq[:, 0]
    for f in range(nbf):
        if square4.bf_tri[f] == t0:
            expected += (1 + sol.gamma ** 2) * r.r3F[f] ** 2
            expected += 0.5 * (S[f] + S[(f + 1) % nbf])
    assert eta_T[t0] ** 2 == pytest.approx(expected, rel=1e-12)


def test_eta_homogeneity(square4):
    p = problem_data("franke")
    sol = methods.solve_lagrange(p, square4, k=2, kprime=0)
    r = est.compute_residuals(sol)
    sigma = est.weight_element(square4.h_T, compute_distance_field(square4),
                               AmrConfig(c1=1, c2=1, k=2))
    _, eta, _ = est.assemble_eta(r, sigma, sol)
    r2 = dataclasses.replace(
        r, r1T=3 * r.r1T, r0F=3 * r.r0F, r1F=3 * r.r1F, r2F=3 * r.r2F,
        r3F=3 * r.r3F, patch_sq=9 * r.patch_sq)
    _, eta2, _ = est.assemble_eta(r2, sigma, sol)
    assert eta2 == pytest.approx(3 * eta, rel=1e-12)


def test_classical_matches_weighted_when_constructed(square4):
    # with all weights at C1 = 1 and the boundary term r2 replaced by r3,
    # the weighted estimator coincides with the classical one (multiplier
    # method): constructed case per the definitions
    p = problem_data("franke")
    sol = methods.solve_lagrange(p, square4, k=2, kprime=0)
    r = est.compute_residuals(sol)
    r_mod = dataclasses.replace(r, r2F=r.r3F.copy())
    sigma = est.weight_element(square4.h_T, compute_distance_field(square4),
                               AmrConfig(c1=1.0, c2=1e9, k=1))
    assert np.all(sigma == 1.0)
    eta_T, eta, _ = est.assemble_eta(r_mod, sigma, sol)
    eta_T_c, eta_c = est.assemble_eta_classical(r, sol)
    assert eta == pytest.approx(eta_c, rel=1e-12)
    assert np.allclose(eta_T, eta_T_c, rtol=1e-12)


def test_classical_gamma_scaling(square4):
    p = problem_data("franke")
    sol = methods.solve_nitsche(p, square4, k=1, gamma=10.0)
    r = est.compute_residuals(sol)
    _, e1 = est.assemble_eta_classical(r, sol)
    _, e2 = est.assemble_eta_classical(
        r, dataclasses.replace(sol, gamma=20.0))
    # the boundary part scales as gamma^2; with the interior parts fixed
    # the global value must satisfy e1 < e2 < 2*e1
    assert e1 < e2 < 2 * e1


def test_zero_residuals_zero_eta(square4):
    r = est.Residuals(
        r1T=np.zeros(square4.num_triangles),
        interior_edges=square4.interior_edges,
        r0F=np.zeros(len(square4.interior_edges)),
        r1F=np.zeros(square4.num_boundary_facets),
        r2F=np.zeros(square4.num_boundary_facets),
        r3F=np.zeros(square4.num_boundary_facets),
        patch_sq=np.zeros((square4.num_boundary_facets, 2)))
    sigma = np.ones(square4.num_triangles)
    sol = methods.DiscreteSolution(methods.LAGRANGE, None,
                                   fem.FeSpace(square4, 1), None)
    _, eta, _ = est.assemble_eta(r, sigma, sol)
    assert eta == 0.0
    _, eta_c = est.assemble_eta_classical(r, sol)
    assert eta_c == 0.0


def test_interior_refinement_decreases_weighted_bulk():
    # fixed f = 1, zero discrete function: refining interior elements
    # shrinks the weighted bulk contribution
    m = build_unit_square(8)
    p = methods.ProblemSpec(
        name="unit-f", domain="unit-square",
        a=lambda x, y: np.ones_like(np.asarray(x, dtype=float)),
        grad_a=lambda x, y: np.zeros(np.shape(np.asarray(x)) + (2,)),
        f=lambda x, y: np.ones_like(np.asarray(x, dtype=float)),
        g=lambda x, y: np.zeros_like(np.asarray(x, dtype=float)))
    cfg = AmrConfig(c1=1.0, c2=1.0, k=2)

    def bulk_term(mesh):
        sp = fem.FeSpace(mesh, 2)
        fake = methods.DiscreteSolution(methods.NITSCHE, p, sp,
                                        np.zeros(sp.ndof), gamma=10.0)
        r = est.compute_residuals(fake)
        sigma = est.weight_element(mesh.h_T, compute_distance_field(mesh),
                                   cfg)
        return ((sigma * r.r1T) ** 2).sum()

    before = bulk_term(m)
    interior = np.nonzero(compute_distance_field(m) >= 0.15)[0]
    assert len(interior) > 0
    after = bulk_term(refine(m, interior))
    assert after < before


def test_indicator_dump(tmp_path, square4):
    p = problem_data("franke")
    sol = methods.solve_nitsche(p, square4, k=1, gamma=10.0)
    rho = compute_distance_field(square4)
    ind = est.build_indicators(sol, rho, AmrConfig(c1=1, c2=1, k=1))
    path = tmp_path / "ind.csv"
    est.dump_indicators(ind, square4, rho, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "element_id,h_T,rho_T,sigma_T,r1T,etaT"
    assert len(lines) == 1 + square4.num_triangles


@pytest.mark.parametrize("name", ["franke", "lshape-singular"])
def test_volume_pass_reads_the_solve_values_once(name):
    # the solve keeps f and grad u at the triangle rule for the volume
    # pass, which drops them; a second pass evaluates the callables and
    # agrees with the first
    problem = problem_data(name)
    mesh = build_domain_mesh(problem.domain, 4)
    sol = methods.solve_nitsche(problem, mesh, k=2)
    assert sol.f_values is not None and sol.grad_u_values is not None
    first = est.compute_residuals(sol)
    assert sol.f_values is None and sol.grad_u_values is None
    again = est.compute_residuals(sol)
    assert np.allclose(again.r1T, first.r1T, rtol=1e-14, atol=0.0)
    assert again.energy_err == pytest.approx(first.energy_err, rel=1e-14)
    assert first.energy_err == fem.h1_seminorm_error(
        sol.space, sol.coeffs, problem.grad_u)
