import tracemalloc

import numpy as np
import pytest
from scipy import sparse

from fluxweight import fem, norms
from fluxweight.elements import reference_element
from fluxweight.mesh import (boundary_band, build_lshape, build_unit_square,
                             uniform_refine)
from fluxweight.norms import BoundaryFunction
from fluxweight.problems import problem_data
from fluxweight.quadrature import segment_rule, triangle_rule

from conftest import (coo_stiffness, distorted_square4, eval_cells,
                      facet_point_basis, interpolate, minimum_degree_lu_nnz,
                      pinned_stiffness, plain_load, uncondensed_dual_error)


@pytest.mark.parametrize("order", [1, 2])
def test_partition_of_unity(order, square4):
    rng = np.random.default_rng(0)
    el = reference_element(order)
    for _ in range(20):
        pts = rng.random((square4.num_triangles, 2))
        pts[:, 1] *= 1.0 - pts[:, 0]
        vals = el.eval(pts)
        assert np.abs(vals.sum(axis=-1) - 1.0).max() <= 1e-13


@pytest.mark.parametrize("order", [3, 4])
def test_partition_of_unity_high_order(order):
    rng = np.random.default_rng(1)
    el = reference_element(order)
    pts = rng.random((200, 2))
    pts[:, 1] *= 1.0 - pts[:, 0]
    assert np.abs(el.eval(pts).sum(axis=-1) - 1.0).max() <= 1e-12


def test_reference_p1_stiffness():
    m = build_unit_square(1)
    sp = fem.FeSpace(m, 1)
    A = fem.assemble_stiffness(sp).toarray()
    assert np.abs(A @ np.ones(sp.ndof)).max() <= 1e-12
    # the element matrix of the unit right triangle
    el = reference_element(1)
    qp, qw = triangle_rule(2)
    g = el.grad(qp)
    Ke = np.einsum("qia,qja,q->ij", g, g, qw)
    expect = np.array([[1.0, -0.5, -0.5], [-0.5, 0.5, 0.0], [-0.5, 0.0, 0.5]])
    # reference triangle orders (peak, base0, base1); compare as sets of rows
    assert np.allclose(np.sort(Ke.ravel()), np.sort(expect.ravel()))


def test_stiffness_symmetry_and_kernel(square8):
    for order in (1, 2):
        sp = fem.FeSpace(square8, order)
        A = fem.assemble_stiffness(
            sp, a=lambda x, y: 1.0 + x + y * y)
        skew = abs(A - A.T)
        assert skew.data.max(initial=0.0) <= 1e-12 * np.abs(A.data).max()
        assert np.abs(A @ np.ones(sp.ndof)).max() <= 1e-12


def test_stiffness_variable_coefficient_single_element_oracle():
    # one small element, entries against a refined-quadrature oracle
    verts = np.array([[0.5, 0.5], [0.53125, 0.5], [0.5, 0.53125]])
    m = build_unit_square(32)
    sp = fem.FeSpace(m, 2)

    def a(x, y):
        return 1.0 + np.sin(np.pi * np.hypot(x, y)) ** 2

    A = fem.assemble_stiffness(sp, a)
    # oracle: re-assemble the element integral at the max supported degree
    Ah = coo_stiffness(sp, a, degree=12)
    d = abs(A - Ah)
    assert d.data.max(initial=0.0) <= 1e-10 * np.abs(Ah.data).max()


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_stiffness_and_gradients_pointwise_oracle(order):
    # plain loops over triangles and quadrature points
    m = distorted_square4()
    assert (m.jacobians()[1] > 0).all()
    sp = fem.FeSpace(m, order)
    el = sp.element
    a_var = problem_data("varcoef-peak").a
    qp, qw = triangle_rule(2 * order + 4)
    co = np.random.default_rng(order).standard_normal(sp.ndof)
    Kc = np.zeros((sp.ndof, sp.ndof))
    Kv = np.zeros((sp.ndof, sp.ndof))
    grads = np.zeros((m.num_triangles, len(qw), 2))
    for t in range(m.num_triangles):
        d = sp.tri_dofs[t]
        p = m.vertices[m.triangles[t]]
        J = np.column_stack([p[1] - p[0], p[2] - p[0]])
        for q in range(len(qw)):
            G = el.grad(qp[q][None])[0] @ np.linalg.inv(J)  # (nd, 2)
            x = p[0] + J @ qp[q]
            Ke = qw[q] * abs(np.linalg.det(J)) * (G @ G.T)
            Kc[np.ix_(d, d)] += Ke
            Kv[np.ix_(d, d)] += a_var(x[0], x[1]) * Ke
            grads[t, q] = co[d] @ G
    for a, oracle in ((None, Kc), (a_var, Kv)):
        K = fem.assemble_stiffness(sp, a).toarray()
        assert np.abs(K - oracle).max() <= 1e-13 * np.abs(oracle).max()
    got = fem.physical_gradients(co[sp.tri_dofs],
                                 fem.triangle_tables(order, sp.degree)[1],
                                 m.jacobians()[0])
    assert np.abs(got - grads).max() <= 1e-13 * np.abs(grads).max()


def test_stiffness_memory_peak():
    # P3 on 64x64, the size of an E1 reference: 37 249 DOFs, 8192
    # triangles; with coefficient 1 each element matrix is one product
    # with the tensor summed over the rule's 36 points; the matrix
    # itself holds about 7 MB
    sp = fem.FeSpace(build_unit_square(64), 3)
    tracemalloc.start()
    try:
        fem.assemble_stiffness(sp)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20


@pytest.mark.parametrize("order", [1, 2, 3, 4])
@pytest.mark.parametrize("variable", [False, True])
def test_stiffness_matches_coo_path(order, variable):
    # one int32 conversion of the element matrices gives the matrix of
    # the per-block int64 COO lists
    sp = fem.FeSpace(distorted_square4(), order)
    a = problem_data("varcoef-peak").a if variable else None
    A = fem.assemble_stiffness(sp, a)
    ref = coo_stiffness(sp, a)
    assert A.indices.dtype == A.indptr.dtype == np.int32
    assert np.array_equal(A.indptr, ref.indptr)
    assert np.array_equal(A.indices, ref.indices)
    assert np.abs(A.data - ref.data).max() <= 1e-15 * np.abs(ref.data).max()


def test_load_partition_of_unity(square8):
    sp = fem.FeSpace(square8, 1)
    b = fem.assemble_load(sp, lambda x, y: np.ones_like(x))
    assert abs(b.sum() - 1.0) < 1e-13
    z = fem.assemble_load(sp, lambda x, y: np.zeros_like(x))
    assert np.all(z == 0.0)


def test_load_franke_refined_quadrature_oracle():
    p = problem_data("franke")
    m = build_unit_square(32)
    sp = fem.FeSpace(m, 2)
    b = fem.assemble_load(sp, p.f)
    oracle = plain_load(sp, p.f, degree=12)
    denom = np.abs(oracle).max()
    assert np.abs(b - oracle).max() <= 1e-8 * denom


def test_assembly_linearity(square4):
    sp = fem.FeSpace(square4, 2)

    def f1(x, y):
        return np.sin(x + y)

    def f2(x, y):
        return x * y + 1.0

    b = fem.assemble_load(sp, lambda x, y: 2.0 * f1(x, y) - 3.0 * f2(x, y))
    b12 = 2.0 * fem.assemble_load(sp, f1) - 3.0 * fem.assemble_load(sp, f2)
    assert np.abs(b - b12).max() <= 1e-12 * np.abs(b12).max()


def test_trace_consistency(square4):
    # volume-basis evaluation on a facet equals the facet restriction
    rng = np.random.default_rng(2)
    for order in (1, 2):
        sp = fem.FeSpace(square4, order)
        coeffs = rng.standard_normal(sp.ndof)
        t, _ = segment_rule(6)
        facets = np.arange(square4.num_boundary_facets)
        frep = np.repeat(facets, len(t))
        trep = np.tile(t, len(facets))
        vals, _, dofs = facet_point_basis(sp, frep, trep)
        through_volume = np.einsum("nj,nj->n", coeffs[dofs], vals)
        # restriction: Lagrange interpolation of the endpoint/midpoint values
        nodes = np.linspace(0.0, 1.0, order + 1)
        node_vals = []
        for tn in nodes:
            v, _, d = facet_point_basis(
                sp, facets, np.full(len(facets), tn))
            node_vals.append(np.einsum("nj,nj->n", coeffs[d], v))
        node_vals = np.stack(node_vals, axis=1)
        restr = np.zeros_like(through_volume)
        for j, xj in enumerate(nodes):
            lj = np.ones_like(trep)
            for mn, xm in enumerate(nodes):
                if mn != j:
                    lj *= (trep - xm) / (xj - xm)
            restr += node_vals[frep, j] * lj
        assert np.abs(through_volume - restr).max() <= 1e-13


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_facet_basis_matches_pointwise_oracle(order):
    # one table per local edge against one basis evaluation per point,
    # on a mesh whose boundary facets use all three local edges
    m = distorted_square4()
    assert set(m.bf_local) == {0, 1, 2}
    sp = fem.FeSpace(m, order)
    t, _ = segment_rule(2 * order + 4)
    vals, grads, dofs = fem.facet_basis(sp, t, gradients=True)
    nbf, nq, nd = m.num_boundary_facets, len(t), sp.element.ndof
    v, g, d = facet_point_basis(sp, np.repeat(np.arange(nbf), nq),
                                np.tile(t, nbf), gradients=True)
    assert vals.shape == (nbf, nq, nd) and grads.shape == (nbf, nq, nd, 2)
    assert np.array_equal(dofs, d[::nq])
    assert np.abs(vals - v.reshape(nbf, nq, nd)).max() <= 1e-13
    assert (np.abs(grads - g.reshape(nbf, nq, nd, 2)).max()
            <= 1e-13 * np.abs(g).max())
    assert fem.facet_basis(sp, t)[1] is None



@pytest.mark.parametrize("degree", [0, 1, 3])
def test_monomial_values_match_vandermonde(degree):
    # Horner's rule against the product with the Vandermonde matrix:
    # per-point rows (one t per row), and (facets, 1, d+1) rows against
    # a rule, whose result broadcasts to (facets, len(t)) also when the
    # rows have a single coefficient
    rng = np.random.default_rng(degree)
    rows = rng.standard_normal((7, degree + 1))
    t, _ = segment_rule(6)
    per_point = rng.random(7)
    vander = np.vander(per_point, degree + 1, increasing=True)
    assert np.allclose(fem.monomial_values(rows, per_point),
                       (rows * vander).sum(axis=1), rtol=1e-14, atol=1e-14)
    rule = fem.monomial_values(rows[:, None], t)
    assert rule.shape == (7, len(t))
    assert np.allclose(rule, rows @ np.vander(t, degree + 1,
                                              increasing=True).T,
                       rtol=1e-14, atol=1e-14)

def test_solve_identity_and_saddle():
    st = fem.SparseSystem(sparse.eye(4, format="csr"), np.arange(4.0))
    assert np.allclose(fem.solve(st), np.arange(4.0))
    sd = fem.SparseSystem(
        sparse.csr_matrix(np.array([[2.0, 1.0], [1.0, 0.0]])),
        np.array([3.0, 1.0]))
    assert np.allclose(fem.solve(sd), [1.0, 1.0])


def test_solve_residual_contract_reported():
    A = sparse.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(fem.SolverError):
        fem.solve(fem.SparseSystem(A, np.array([1.0, 0.0])))


def test_exactly_singular_factor_reported_singular():
    # SuperLU stops at the zero pivot 1 - 1 * 1 = 0, which is a
    # numerically singular factor
    A = sparse.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(fem.SolverError,
                       match="numerically singular.*exactly singular"):
        fem.solve(fem.SparseSystem(A, np.array([1.0, 1.0])))


def test_solve_statistics(caplog, monkeypatch, square4):
    sp = fem.FeSpace(square4, 2)
    A = fem.assemble_stiffness(sp) + sparse.eye(sp.ndof)
    with caplog.at_level("INFO", logger="fluxweight.fem"):
        fem.solve(fem.SparseSystem(A, np.ones(sp.ndof),
                                   order=fem.dissection_order(sp)))
        monkeypatch.setattr(fem, "PIVOT_CHECK_MAX_NNZ", 0)
        fem.solve(fem.SparseSystem(A, np.ones(sp.ndof)))
    checked, skipped = [r.args for r in caplog.records
                        if r.name == "fluxweight.fem"]
    assert checked["ordering"] == "dissection"
    assert skipped["ordering"] == "natural"
    assert 0.0 < checked["pivot_ratio"] <= 1.0
    assert skipped["pivot_ratio"] is None


def test_solve_order_must_be_a_permutation():
    A = sparse.eye(3, format="csr")
    for order in ([0, 1], [0, 1, 1], [0, 1, 3]):
        with pytest.raises(ValueError, match="permutation"):
            fem.SparseSystem(A, np.ones(3), order=order)


@pytest.mark.parametrize("order", [1, 2, 4])
@pytest.mark.parametrize("mesh", ["square", "band", "lshape"])
def test_dissection_order_is_a_permutation(order, mesh):
    m = {"square": lambda: build_unit_square(8),
         "band": lambda: boundary_band(build_unit_square(4)),
         "lshape": lambda: build_lshape(4)}[mesh]()
    sp = fem.FeSpace(m, order)
    perm = fem.dissection_order(sp)
    assert np.array_equal(np.sort(perm), np.arange(sp.ndof))
    bspace = fem.BoundarySpace(m, order, continuous=True)
    perm = fem.dissection_order(sp, bspace)
    assert np.array_equal(np.sort(perm), np.arange(sp.ndof + bspace.ndof))


def test_dissection_separator_last():
    # the first cut halves the bounding square of the centroids along y
    # (y takes the top bit of the Morton code): on the 8x8 square it is
    # the line y = 1/2, which no centroid lies on.  The dofs of triangles
    # on both sides of it are eliminated after all others.
    m = build_unit_square(8)
    sp = fem.FeSpace(m, 2)
    upper = m.vertices[m.triangles][:, :, 1].mean(axis=1) > 0.5
    sides = np.zeros((sp.ndof, 2), dtype=bool)
    for side in (0, 1):
        sides[sp.tri_dofs[upper == bool(side)], side] = True
    position = np.empty(sp.ndof, dtype=np.int64)
    position[fem.dissection_order(sp)] = np.arange(sp.ndof)
    shared = sides.all(axis=1)
    assert shared.sum() == 8 * 2 + 1
    assert position[shared].min() > position[~shared].max()


def test_symmetry_flag_verified():
    A = sparse.csr_matrix(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        fem.SparseSystem(A, np.zeros(2), symmetric=True)


def test_pure_neumann_constrained_solve(square4):
    # a boundary function of nonzero mean: E1 projects its load to mean
    # zero and pins one unknown, and must equal the solve bordered by
    # the zero-mean constraint, at P1 and at P3 (condensed)
    def fn(f, t):
        s = square4.bf_s0[f] + t * square4.bf_len[f]
        return np.cos(np.pi * s / 2.0) + 0.5

    delta = BoundaryFunction(square4, fn)
    for order in (1, 3):
        ref, b, _, _ = uncondensed_dual_error(delta, square4, order)
        assert b.sum() >= 0.5 * np.abs(b).sum()
        assert norms.neumann_dual_error(delta, square4, order) \
            == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("reference", ["uniform", "band"])
def test_reference_solve_fill_bounded(reference, caplog):
    # the full E1 systems at P3 and P4, with one unknown pinned, factor
    # in the dissection order with lu.nnz <= 5 nnz(A) (at most 3.53x
    # measured; SuperLU's natural order exceeds 8x), and within 5% of
    # reverse Cuthill-McKee with minimum degree on A^T + A (0.87-0.93
    # of it measured)
    base = build_unit_square(16)
    m = uniform_refine(base, 2) if reference == "uniform" else \
        boundary_band(base)
    for order in (3, 4):
        sp = fem.FeSpace(m, order)
        A, perm = pinned_stiffness(sp)
        b = np.random.default_rng(order).standard_normal(sp.ndof)
        with caplog.at_level("INFO", logger="fluxweight.fem"):
            caplog.clear()
            fem.solve(fem.SparseSystem(A, b, symmetric=True, order=perm))
        (rec,) = [r for r in caplog.records if r.name == "fluxweight.fem"]
        stats = rec.args
        assert stats["n"] == sp.ndof
        assert stats["ordering"] == "dissection"
        assert stats["res_ratio"] <= 1.0
        assert stats["lu_nnz"] <= 5 * stats["nnz"], stats
        assert stats["lu_nnz"] <= 1.05 * minimum_degree_lu_nnz(A), stats


def test_interpolation_reproduces_polynomials(square4):
    sp = fem.FeSpace(square4, 2)
    co = interpolate(sp, lambda x, y: x * x + 2 * x * y - y)
    qp, _ = triangle_rule(4)
    tris = np.arange(square4.num_triangles)
    vals = eval_cells(sp, co, tris, qp)
    pts = square4.triangle_points(tris, qp)
    exact = pts[..., 0] ** 2 + 2 * pts[..., 0] * pts[..., 1] - pts[..., 1]
    assert np.abs(vals - exact).max() <= 1e-13
