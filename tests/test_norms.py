import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluxweight import driver, fem, methods, norms, problems
from fluxweight.mesh import (boundary_band, boundary_graded,
                             build_domain_mesh,
                             build_graded_mesh, build_lshape,
                             build_unit_square, uniform_refine)
from fluxweight.norms import (BoundaryFunction, WaveletPyramid, dwt_step,
                              flux_error_function, sample_to_dyadic,
                              wavelet_norm, wavelet_norm_of_vector)
from fluxweight.problems import problem_data
from fluxweight.quadrature import segment_rule

from conftest import (distorted_square4, make_gentle_problem,
                      ordered_stiffness, pinned_stiffness, split_pieces,
                      uncondensed_dual_error)


def test_filter_taps_bit_for_bit():
    rationals = np.array([3 / 128, -3 / 128, -11 / 64, 11 / 64, 1.0, 1.0,
                          11 / 64, -11 / 64, -3 / 128, 3 / 128])
    assert np.array_equal(norms.LOW_PASS, (math.sqrt(2.0) / 2.0) * rationals)
    assert len(norms.LOW_PASS) == 10


def test_dwt_constants_partition():
    # tap sum is sqrt(2): constants scale by sqrt(2) per analysis level,
    # consistently with the 2^(j/2)-scaled sampling convention
    v, d = dwt_step(np.full(16, 3.25))
    assert np.abs(v - math.sqrt(2.0) * 3.25).max() <= 1e-14
    assert np.abs(d).max() == 0.0


def test_dwt_two_vector():
    v, d = dwt_step([1.0, -1.0])
    assert d == pytest.approx([math.sqrt(2.0)])


def test_dwt_hand_computed_four_vector():
    # worked by hand with the periodic 10-tap filter:
    # only taps hitting index 0 mod 4 contribute
    v1, d1 = dwt_step([1.0, 0.0, 0.0, 0.0])
    assert v1 == pytest.approx([math.sqrt(2.0) / 2.0, 0.0], abs=1e-15)
    assert d1 == pytest.approx([math.sqrt(2.0) / 2.0, 0.0], abs=1e-15)
    v0, d0 = dwt_step(v1)
    assert v0 == pytest.approx([0.5], abs=1e-15)
    assert d0 == pytest.approx([0.5], abs=1e-15)


def test_dwt_matches_bruteforce_loops():
    rng = np.random.default_rng(0)
    v = rng.standard_normal(16)
    vj, dj = dwt_step(v)
    c = math.sqrt(2.0) / 2.0
    taps = np.array([3 / 128, -3 / 128, -11 / 64, 11 / 64, 1.0, 1.0,
                     11 / 64, -11 / 64, -3 / 128, 3 / 128])
    for k in range(8):
        ref = sum(c * taps[l] * v[(2 * k + l) % 16] for l in range(10))
        assert vj[k] == pytest.approx(ref, abs=1e-14)
        assert dj[k] == pytest.approx(c * (v[2 * k] - v[2 * k + 1]),
                                      abs=1e-14)


def test_dwt_matches_modulo_index_form():
    # the strided slices of the cyclic padding give the same sums, in
    # the same tap order, as indexing modulo n
    rng = np.random.default_rng(3)
    for j in range(1, 11):
        n = 1 << j
        v = rng.standard_normal(n)
        idx2 = 2 * np.arange(n // 2)
        ref = np.zeros(n // 2)
        for l, hl in enumerate(norms.LOW_PASS):
            ref += hl * v[(idx2 + l) % n]
        vj, dj = dwt_step(v)
        assert np.array_equal(vj, ref)
        assert np.array_equal(
            dj, (math.sqrt(2.0) / 2.0) * (v[idx2] - v[idx2 + 1]))


def test_lifting_matches_the_tap_order_step():
    # every coefficient of the lifted step is within 4 eps max|v| of the
    # ten taps summed in tap order, on every length from 2 to 2^12: the
    # levels of fewer than five pairs wrap around more than once
    eps = np.finfo(float).eps
    rng = np.random.default_rng(11)
    for j in range(1, 13):
        h = 1 << (j - 1)
        for _ in range(4):
            v = rng.standard_normal(2 * h) * 10.0 ** rng.uniform(-3, 3)
            want_v, want_d = dwt_step(v)
            got_v, got_d = norms._lift(v, np.empty(h), np.empty(h + 4),
                                       np.empty(h + 4))
            bound = 4 * eps * np.abs(v).max()
            assert np.abs(got_v - want_v).max() <= bound
            assert np.abs(got_d - want_d).max() <= bound


def _tap_order_norm(v):
    M = int(math.log2(len(v)))
    vs, ds = [None] * (M + 1), [None] * M
    vs[M] = v
    for j in range(M - 1, -1, -1):
        vs[j], ds[j] = dwt_step(vs[j + 1])
    return WaveletPyramid(M, vs, ds).norm()


def test_wavelet_norm_matches_the_tap_order_pyramid(square4):
    rng = np.random.default_rng(12)
    vectors = [rng.standard_normal(1 << M) for M in (1, 2, 3, 5, 8, 12, 15)]
    sol = methods.solve_nitsche(problem_data("franke"),
                                uniform_refine(square4, 3), k=1)
    vectors.append(sample_to_dyadic(flux_error_function(sol), 14))
    for v in vectors:
        ref = _tap_order_norm(v)
        assert abs(wavelet_norm_of_vector(v) - ref) <= 1e-15 * ref


def test_dwt_rejects_bad_length():
    with pytest.raises(ValueError):
        dwt_step([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        dwt_step([1.0])


@given(st.integers(2, 6), st.integers(0, 2 ** 31 - 1))
@settings(max_examples=40, deadline=None)
def test_norm_axioms_on_vectors(level, seed):
    rng = np.random.default_rng(seed)
    n = 1 << level
    u = rng.standard_normal(n)
    v = rng.standard_normal(n)
    nu = wavelet_norm_of_vector(u)
    nv = wavelet_norm_of_vector(v)
    assert wavelet_norm_of_vector(2.0 * u) == pytest.approx(2.0 * nu,
                                                            rel=1e-12)
    assert wavelet_norm_of_vector(u + v) <= nu + nv + 1e-10
    if nu > 0:
        assert wavelet_norm_of_vector(-u) == pytest.approx(nu, rel=1e-12)


def test_sampling_constant(square4):
    cf = BoundaryFunction(square4, lambda f, t: np.full(len(f), 2.0))
    for M in (3, 5, 8):
        s = sample_to_dyadic(cf, M)
        assert len(s) == 1 << M
        assert np.abs(s - 2.0 * 2.0 ** (-M / 2.0)).max() <= 1e-14


def test_sampling_indicator_first_cell(square4):
    M = 4
    cell = square4.perimeter / (1 << M)

    def ind(f, t):
        s = square4.bf_s0[f] + t * square4.bf_len[f]
        return (s < cell).astype(float)

    samp = sample_to_dyadic(BoundaryFunction(square4, ind), M)
    assert samp[0] == pytest.approx(2.0 ** (M / 2.0) * cell / 4.0)
    assert np.abs(samp[1:]).max() <= 1e-14


def test_sampling_piecewise_constant_quad_oracle():
    from scipy.integrate import quad
    m = build_unit_square(1)  # 4 boundary facets of length 1
    vals = np.array([0.3, -1.2, 2.0, 0.7])

    def pc(f, t):
        return vals[f]

    bf = BoundaryFunction(m, pc)
    M = 3
    samp = sample_to_dyadic(bf, M)
    for k in range(1 << M):
        lo = 4.0 * k / (1 << M)
        hi = 4.0 * (k + 1) / (1 << M)
        oracle = quad(lambda s: vals[min(int(s), 3)], lo, hi,
                      points=[1, 2, 3], limit=200)[0]
        assert samp[k] == pytest.approx(
            2.0 ** (M / 2.0) / 4.0 * oracle, abs=1e-12)


def test_sampling_level_bounds(square4):
    bf = BoundaryFunction(square4, lambda f, t: np.zeros(len(f)))
    with pytest.raises(ValueError):
        sample_to_dyadic(bf, 2)
    with pytest.raises(ValueError):
        sample_to_dyadic(bf, 41)


def test_wavelet_norm_zero_and_homogeneous(square4):
    zf = BoundaryFunction(square4, lambda f, t: np.zeros(len(f)))
    assert wavelet_norm(zf, 8) == 0.0

    def cosf(f, t):
        s = square4.bf_s0[f] + t * square4.bf_len[f]
        return np.cos(2 * np.pi * s / 4.0)

    one = wavelet_norm(BoundaryFunction(square4, cosf), 10)
    two = wavelet_norm(BoundaryFunction(
        square4, lambda f, t: 2.0 * cosf(f, t)), 10)
    assert two == pytest.approx(2.0 * one, rel=1e-12)


def test_wavelet_norm_stable_in_level(square4):
    def cosf(f, t):
        s = square4.bf_s0[f] + t * square4.bf_len[f]
        return np.cos(2 * np.pi * s / 4.0)

    bf = BoundaryFunction(square4, cosf)
    vals = [wavelet_norm(bf, M) for M in (10, 14, 18)]
    assert max(vals) / min(vals) <= 1.2


def test_pyramid_dump(tmp_path):
    vM = np.arange(8.0)
    pyr = WaveletPyramid.analyze(vM)
    assert pyr.M == 3
    path = tmp_path / "pyr.csv"
    pyr.dump(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "level,index,v,d"
    assert len(lines) == 1 + 1 + 2 + 4 + 8


def test_neumann_dual_error_zero(square4):
    zf = BoundaryFunction(square4, lambda f, t: np.zeros(len(f)))
    fine = uniform_refine(square4, 2)
    assert norms.neumann_dual_error(zf, fine, order=3) <= 1e-12


def test_neumann_dual_error_selfconvergence():
    # E1 of a fixed smooth mean-zero function converges as the reference
    # mesh refines: Cauchy differences shrink by >= 2 per level
    m = build_unit_square(4)

    def cosf(f, t):
        s = m.bf_s0[f] + t * m.bf_len[f]
        return np.cos(2 * np.pi * s / 4.0)

    bf = BoundaryFunction(m, cosf)
    vals = [norms.neumann_dual_error(bf, build_unit_square(n), order=3)
            for n in (8, 16, 32, 64)]
    diffs = np.abs(np.diff(vals))
    assert diffs[1] <= diffs[0] / 2.0
    assert diffs[2] <= diffs[1] / 2.0


def test_neumann_dual_pairing_agrees(square8):
    def mode(f, t):
        s = square8.bf_s0[f] + t * square8.bf_len[f]
        return np.sin(2 * np.pi * s / 4.0) + 0.2 * np.cos(4 * np.pi * s / 4.0)

    # neumann_dual_error raises when the pairing <delta, w> and the
    # energy |grad w|^2 differ by more than 1%
    bf = BoundaryFunction(square8, mode)
    e1 = norms.neumann_dual_error(bf, uniform_refine(square8, 2), order=3)
    assert 0.0 < e1 < np.inf


def test_boundary_band_e1_matches_uniform_reference(square8):
    # the lifting is harmonic: refining only the boundary band gives the
    # E1 of the mesh bisected twice everywhere
    sol = methods.solve_nitsche(problem_data("franke"), square8, k=1)
    delta = flux_error_function(sol)
    band = norms.neumann_dual_error(delta, boundary_band(square8), order=3)
    full = norms.neumann_dual_error(delta, uniform_refine(square8, 2),
                                    order=3)
    assert band == pytest.approx(full, rel=1e-6)


def test_graded_reference_e1_is_resolved():
    # E1 of a uniform Franke k=1 level on the driver's reference (the
    # mesh graded from the level's boundary facets, band bisected
    # E1_BAND = 3 times, P3) against the same graded mesh with its band
    # bisected 5 times at P4; the step mesh's own band bisected twice
    # reads 0.93% low here
    mesh = uniform_refine(build_unit_square(4), 2)
    cfg = driver.AmrConfig(problem="franke", method="nitsche", k=1,
                           initial_n=4)
    delta = flux_error_function(methods.solve_nitsche(
        problem_data("franke"), mesh, k=1))
    resolved = norms.neumann_dual_error(
        delta, boundary_band(boundary_graded(mesh, 4), 5), order=4)
    assert driver._e1_of(delta, cfg, mesh) == pytest.approx(resolved,
                                                            rel=0.005)


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_condensed_stiffness_is_schur_complement(order):
    # the interior dofs of different triangles do not couple, so the
    # elementwise Schur complements assemble to the Schur complement of
    # the full matrix on the vertex and edge dofs
    # (assembled in the dissection order of those dofs)
    sp = fem.FeSpace(distorted_square4(), order)
    K = fem.assemble_stiffness(sp).toarray()
    n = sp.skeleton_ndof
    perm = fem.dissection_order(sp)
    perm = perm[perm < n]
    S = norms._condensed_stiffness(sp, perm)
    assert n == sp.mesh.num_vertices + (order - 1) * len(sp.mesh.edges)
    assert S.shape == (n, n)
    ref = K[:n, :n] - K[:n, n:] @ np.linalg.solve(K[n:, n:], K[n:, :n]) \
        if n < sp.ndof else K
    ref = ref[perm][:, perm]
    assert np.abs(S.toarray() - ref).max() <= 1e-13 * np.abs(ref).max()
    fem.SparseSystem(S, np.zeros(n), symmetric=True)
    assert np.abs(S @ np.ones(n)).max() <= 1e-13 * np.abs(ref).max()


def _band_flux_error(domain):
    mesh = build_unit_square(8) if domain == "square" else build_lshape(4)
    problem = problem_data("franke" if domain == "square"
                           else "lshape-singular")
    sol = methods.solve_nitsche(problem, mesh, k=1)
    return flux_error_function(sol), boundary_band(mesh)


@pytest.mark.parametrize("order", [3, 4])
@pytest.mark.parametrize("domain", ["square", "lshape"])
def test_condensed_e1_matches_uncondensed(domain, order):
    # the interior basis functions vanish on the boundary, so condensing
    # them out changes E1 by round-off only: the dual load and the
    # constraint have no weight on them; the oracle keeps them and
    # borders the system with the constraint
    delta, band = _band_flux_error(domain)
    full, b, c, space = uncondensed_dual_error(delta, band, order)
    assert norms.neumann_dual_error(delta, band, order) == pytest.approx(
        full, rel=1e-12)
    n = space.skeleton_ndof
    assert space.ndof - n == (band.num_triangles
                              * (order - 1) * (order - 2) // 2)
    assert np.abs(b[n:]).max() <= 1e-14 * np.abs(b).max()
    assert np.abs(c[n:]).max() <= 1e-14 * np.abs(c).max()


@pytest.mark.parametrize("order", [3, 4])
def test_e1_factor_holds_no_interior_unknown(order, caplog):
    # the factored system has the vertex and edge unknowns alone, with
    # no border, and fills less than the full system pinned alike
    delta, band = _band_flux_error("square")
    space = fem.FeSpace(band, order)
    A, perm = pinned_stiffness(space)
    with caplog.at_level("INFO"):
        caplog.clear()
        fem.solve(fem.SparseSystem(A, np.zeros(space.ndof), order=perm))
        (full,) = [r.args for r in caplog.records
                   if r.name == "fluxweight.fem"]
        caplog.clear()
        norms.neumann_dual_error(delta, band, order)
        (solve,) = [r.args for r in caplog.records
                    if r.name == "fluxweight.fem"]
        (e1,) = [r.args for r in caplog.records
                 if r.name == "fluxweight.norms"]
    nv, ne = band.num_vertices, len(band.edges)
    assert solve["n"] == nv + (order - 1) * ne
    assert solve["res_ratio"] <= 1.0
    assert solve["lu_nnz"] < full["lu_nnz"]
    assert e1["order"] == order
    assert e1["triangles"] == band.num_triangles
    assert e1["kept"] == solve["n"]
    assert e1["kept"] + e1["eliminated"] == full["n"]
    assert e1["gap"] <= 1e-12


def test_pin_fixes_the_last_unknown(square4):
    # the last row and column of the matrix in the dissection order
    # become the identity's; with a load of zero sum the pinned solve
    # solves the singular system too, with x = 0 at the pinned unknown
    sp = fem.FeSpace(square4, 2)
    order = fem.dissection_order(sp)
    K = ordered_stiffness(sp, order)
    A = K.copy()
    b = np.random.default_rng(0).standard_normal(sp.ndof)
    b -= b.mean()
    pinned = b.copy()
    norms._pin(A, pinned, order)
    last = np.zeros(sp.ndof)
    last[-1] = 1.0
    assert np.array_equal(A[:, [-1]].toarray().ravel(), last)
    assert np.array_equal(A[[-1]].toarray().ravel(), last)
    assert (A[:-1, :-1] != K[:-1, :-1]).nnz == 0
    assert pinned[order[-1]] == 0.0
    pinned[order[-1]] = b[order[-1]]
    assert np.array_equal(pinned, b)
    x = fem.solve(fem.SparseSystem(A, b * (np.arange(sp.ndof)
                                           != order[-1]), order=order))
    assert x[order[-1]] == 0.0
    y = x[order]
    assert np.abs(K @ y - b[order]).max() <= 1e-10 * np.abs(b).max()


def test_e1_holds_one_copy_of_its_matrix(monkeypatch):
    # traced live memory when the factorization starts, from the start
    # of neumann_dual_error: the order-4 E1 on the band of 16x16 (5937
    # unknowns kept) holds its one CSC matrix (1.50 MB) and its vectors,
    # 1.89 MB in all, against 3.85 MB when SuperLU read a permuted copy
    # of a CSR matrix in the original numbering
    mesh = build_unit_square(16)
    delta = flux_error_function(methods.solve_nitsche(
        problem_data("franke"), mesh, k=1))
    band = boundary_band(mesh)
    norms.neumann_dual_error(delta, band, 4)  # tables and caches
    seen = []
    splu = fem.splu

    def traced_splu(A, *args, **kwargs):
        seen.append((tracemalloc.get_traced_memory()[0],
                     A.data.nbytes + A.indices.nbytes + A.indptr.nbytes))
        return splu(A, *args, **kwargs)

    monkeypatch.setattr(fem, "splu", traced_splu)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        norms.neumann_dual_error(delta, band, 4)
    finally:
        tracemalloc.stop()
    ((live, matrix),) = seen
    assert live - base <= 1.5 * matrix, (live - base, matrix)


def test_boundary_dual_load_matches_pointwise_loop(square4):
    # a flux error of square4 that jumps at its facet ends, against the
    # P3 basis of square4 bisected twice; the loop locates every rule
    # point in the facet's triangle by J^-1 and evaluates delta at its
    # arc length
    sol = methods.solve_barbosa_hughes(problem_data("franke"), square4,
                                       k=2, kprime=1)
    delta = flux_error_function(sol)
    fine = uniform_refine(square4, 2)
    sp = fem.FeSpace(fine, 3)
    b = norms.boundary_dual_load(sp, delta)
    t, w = segment_rule(sp.degree)
    ref = np.zeros(sp.ndof)
    for f in range(fine.num_boundary_facets):
        P, Q = fine.vertices[fine.bf_v0[f]], fine.vertices[fine.bf_v1[f]]
        tri = fine.bf_tri[f]
        v = fine.vertices[fine.triangles[tri]]
        J = np.column_stack([v[1] - v[0], v[2] - v[0]])
        for tq, wq in zip(t, w):
            xi = np.linalg.solve(J, P + tq * (Q - P) - v[0])
            val = delta.eval_s(np.array([fine.bf_s0[f]
                                         + tq * fine.bf_len[f]]))[0]
            ref[sp.tri_dofs[tri]] += (wq * fine.bf_len[f] * val
                                      * sp.element.eval(xi[None])[0])
    assert np.abs(b - ref).max() <= 1e-13 * np.abs(ref).max()


def test_boundary_dual_load_needs_facets_that_refine_the_pieces():
    # delta jumps at the facet ends of build_unit_square(2), among them
    # s = 1/2, which no facet of build_unit_square(3) starts at
    delta = BoundaryFunction(build_unit_square(2),
                             lambda f, t: (-1.0) ** f)
    with pytest.raises(ValueError, match="refine"):
        norms.boundary_dual_load(fem.FeSpace(build_unit_square(3), 2), delta)
    b = norms.boundary_dual_load(fem.FeSpace(build_unit_square(4), 2), delta)
    assert np.isfinite(b).all()


def test_norm_equivalence_family():
    # Fourier modes and mean-removed facet indicators: the two dual-norm
    # evaluations stay within a fixed equivalence band
    m = build_unit_square(16)
    fine = build_unit_square(48)
    funcs = []
    for k in range(1, 6):
        funcs.append(lambda f, t, k=k: np.cos(
            2 * np.pi * k * (m.bf_s0[f] + t * m.bf_len[f]) / 4.0))
    for j in (0, 9, 17, 30, 44):
        L = m.bf_len[j]

        def ind(f, t, j=j, L=L):
            return (f == j).astype(float) - L / 4.0

        funcs.append(ind)
    ratios = []
    for fn in funcs:
        bf = BoundaryFunction(m, fn)
        e2 = wavelet_norm(bf, 14)
        e1 = norms.neumann_dual_error(bf, fine, order=3)
        ratios.append(e2 / e1)
    ratios = np.array(ratios)
    assert ratios.max() / ratios.min() <= 25.0


def _flux_cases():
    gentle = make_gentle_problem()
    square = build_unit_square(4)
    # facet ends at thirds never fall on dyadic cell boundaries, so
    # facet ends cut cells of this mesh (counted in the next test)
    graded = build_graded_mesh("unit-square", 0.125, initial_n=3)
    lshape = problem_data("lshape-singular")
    franke = problem_data("franke")
    return {
        "nitsche-k1": lambda: methods.solve_nitsche(gentle, square, k=1),
        "nitsche-k2": lambda: methods.solve_nitsche(gentle, square, k=2),
        "franke-nitsche-k2": lambda: methods.solve_nitsche(
            franke, square, k=2),
        "multiplier-k2-k0": lambda: methods.solve_lagrange(
            gentle, square, k=2, kprime=0),
        "multiplier-k2-k2-continuous": lambda: methods.solve_lagrange(
            gentle, square, k=2, kprime=2, continuous=True),
        "graded-nitsche-k1": lambda: methods.solve_nitsche(
            gentle, graded, k=1),
        "graded-nitsche-k2": lambda: methods.solve_nitsche(
            gentle, graded, k=2),
        "lshape-nitsche-k1": lambda: methods.solve_nitsche(
            lshape, build_domain_mesh("l-shape", 4), k=1),
    }


@pytest.mark.parametrize("case", sorted(_flux_cases()))
def test_flux_error_sampling_matches_piecewise(case):
    # the cached whole-cell sums agree with integrating every cell piece
    # by piece through evaluate: a varies in the gentle problem and is
    # constant in Franke's (k=2) and the L-shape's (k=1)
    M = 12
    sol = _flux_cases()[case]()
    delta = flux_error_function(sol)
    fast = sample_to_dyadic(delta, M)
    slow = sample_to_dyadic(BoundaryFunction(sol.mesh, delta.evaluate), M)
    t, _ = segment_rule(5)
    nbf = sol.mesh.num_boundary_facets
    lam = sol.flux_values(np.repeat(np.arange(nbf), len(t)),
                          np.tile(t, nbf))
    # an entry is 2^(-M/2) times a cell average of the flux error
    scale = np.abs(lam).max() * 2.0 ** (-M / 2.0)
    assert np.abs(fast - slow).max() <= 1e-12 * scale
    if case != "graded-nitsche-k2":
        # there E2 is 6.7e-6 while gamma/h_F reaches 960, and round-off
        # in the boundary points moves E2 by 3e-10 relative
        e_slow = wavelet_norm_of_vector(slow)
        assert abs(wavelet_norm_of_vector(fast) - e_slow) <= 1e-10 * e_slow


def test_dyadic_cells_by_arithmetic_match_search():
    # each facet's first cell, and the cut cells with their pieces, come
    # from arithmetic on the facet starts; they equal the searches over
    # the 2^M cell starts and the pieces of the reference split
    for case, solve in sorted(_flux_cases().items()):
        mesh = solve().mesh
        total = mesh.perimeter
        for M in (3, 12, 17):
            n = 1 << M
            starts = total * np.arange(n) / n
            first = np.searchsorted(starts + 0.5 * total / n, mesh.bf_s0)
            assert np.array_equal(norms._first_cells(mesh, n), first)
            cell = np.searchsorted(starts, mesh.bf_s0, side="right") - 1
            cut = np.unique(cell[mesh.bf_s0 > starts[cell]])
            cells, left, right, owner = norms._cut_pieces(total, n,
                                                          mesh.bf_s0)
            assert np.array_equal(cells, cut)
            ref = split_pieces(starts, total, mesh.bf_s0)
            sel = np.isin(ref[2], cut)
            for got, expect in zip((left, right, owner), ref):
                assert np.array_equal(got, expect[sel])
            if case.startswith("graded") and M > 3:
                assert len(cut) > 0


def test_generic_e2_integrates_the_split_at_every_breakpoint():
    # whole cells first, then the cut cells piece by piece: the same cell
    # integrals as one split of every cell at the breakpoints
    m = build_graded_mesh("unit-square", 0.3, initial_n=3)
    v = BoundaryFunction(m, lambda f, t: np.cos(7.0 * f + 3.0 * t) + t * t)
    M, total = 10, m.perimeter
    n = 1 << M
    gp, gw = segment_rule(5)
    expect = np.zeros(n)
    left, right, owner = split_pieces(total * np.arange(n) / n, total,
                                      v.breakpoints)
    norms._integrate_pieces(v, left, right, owner, expect, gp, gw)
    expect *= 2.0 ** (M / 2.0) / total
    assert np.array_equal(sample_to_dyadic(v, M), expect)


def test_second_e2_evaluates_exact_flux_on_cut_cells_only():
    M = 12
    problem = make_gentle_problem()
    first = methods.solve_nitsche(
        problem, build_graded_mesh("unit-square", 0.25, initial_n=3), k=1)
    sample_to_dyadic(flux_error_function(first), M)
    assert set(problem.dyadic_cache[(first.mesh.polygon.tobytes(), M,
                                     True)]) == {"lam", "a", "g"}

    mesh = build_graded_mesh("unit-square", 0.125, initial_n=3)
    sol = methods.solve_nitsche(problem, mesh, k=1)
    points = []
    exact = problem.exact_flux

    def counting(x, y, nx, ny):
        points.append(len(x))
        return exact(x, y, nx, ny)

    problem.exact_flux = counting
    sample_to_dyadic(flux_error_function(sol), M)
    # a facet end strictly inside a cell cuts it and adds one piece;
    # each piece takes the 3 Gauss points of the 5th-degree rule
    width = mesh.perimeter / (1 << M)
    cell = np.floor(mesh.bf_s0 / width)
    inner = mesh.bf_s0 > cell * width
    pieces = len(np.unique(cell[inner])) + inner.sum()
    assert pieces > 0
    assert sum(points) == 3 * pieces


def test_multiplier_flux_caches_only_the_exact_flux(square4):
    problem = make_gentle_problem()
    sol = methods.solve_lagrange(problem, square4, k=2, kprime=0)
    sample_to_dyadic(flux_error_function(sol), 8)
    assert list(problem.dyadic_cache) == [(square4.polygon.tobytes(), 8,
                                           False)]
    assert set(problem.dyadic_cache[(square4.polygon.tobytes(), 8,
                                     False)]) == {"lam"}


def test_franke_boundary_data_in_one_pass(monkeypatch, square4):
    # the Nitsche cache of Franke's problem evaluates the four terms once
    # per chunk of cells, at every Gauss point of the chunk and for the
    # exact flux and g together; its lam is the multiplier cache's bit
    # for bit, and its g the Gauss sums of g over each cell
    M = 15
    gp, gw = segment_rule(5)
    passes = []
    terms = problems._franke_terms

    def counting(x, y):
        passes.append(len(x))
        return terms(x, y)

    monkeypatch.setattr(problems, "_franke_terms", counting)
    problem = problem_data("franke")
    one_pass = norms._dyadic_boundary_data(
        problem, square4.polygon, M, gp, gw, with_data=True)
    assert passes == [len(gp) * norms._CHUNK] * ((1 << M) // norms._CHUNK)
    lam_only = norms._dyadic_boundary_data(
        problem, square4.polygon, M, gp, gw, with_data=False)
    assert set(lam_only) == {"lam"}
    assert np.array_equal(one_pass["lam"], lam_only["lam"])
    # the cells run counterclockwise from the origin along the sides of
    # the unit square, a quarter of them per side
    n = 1 << M
    s = 4.0 * (np.arange(n)[:, None] + gp) / n
    side, t = np.divmod(s, 1.0)
    corner = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    step = np.roll(corner, -1, axis=0) - corner
    side = side.astype(int)
    pts = corner[side] + t[..., None] * step[side]
    g = problem.u(pts[..., 0], pts[..., 1]) @ gw
    assert np.abs(one_pass["g"] - g).max() <= 1e-14 * np.abs(g).max()


def test_franke_nitsche_cache_is_lean(square4):
    # per-cell Gauss sums of the exact flux and g, and a as one number:
    # two arrays of 2^17 doubles (2.1 MB)
    M = 17
    problem = problem_data("franke")
    delta = flux_error_function(methods.solve_nitsche(problem, square4, k=1))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        sample_to_dyadic(delta, M)
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert set(problem.dyadic_cache[(square4.polygon.tobytes(), M,
                                     True)]) == {"lam", "a", "g"}
    assert held <= 2.5e6
