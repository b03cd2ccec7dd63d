import numpy as np
import pytest

from fluxweight import mesh as meshmod
from fluxweight.mesh import (Mesh, boundary_band, boundary_graded,
                             build_domain_mesh, build_graded_mesh, build_lshape,
                             build_unit_square, check_mesh,
                             compute_distance_field, distance_to_boundary,
                             domain_polygon, polygon_sides,
                             project_to_boundary, refine, shape_regularity,
                             uniform_refine)

from conftest import boundary_at


def test_unit_square_counts(square4):
    assert square4.num_triangles == 32
    assert square4.num_vertices == 25
    assert square4.num_boundary_facets == 16
    check_mesh(square4)


def test_unit_square_n1_diameter():
    m = build_unit_square(1)
    assert m.num_triangles == 2
    assert np.allclose(m.h_T, np.sqrt(2.0))


def test_anchor_facet_direction(square4):
    f = square4.facet_of_s([0.0])[0]
    assert np.allclose(square4.vertices[square4.bf_v0[f]], [0.0, 0.0])
    assert np.allclose(square4.vertices[square4.bf_v1[f]], [0.25, 0.0])


def test_lshape_counts():
    assert build_lshape(1).num_triangles == 6
    m = build_lshape(2)
    assert m.num_triangles == 24
    assert np.allclose(m.signed_area, 0.125)
    assert m.perimeter == 8.0
    check_mesh(m)


def test_lshape_reentrant_corner():
    m = build_lshape(3)
    # exactly one boundary vertex at the origin
    vb = m.vertices[np.unique(np.r_[m.bf_v0, m.bf_v1])]
    at_origin = np.isclose(vb, 0.0).all(axis=1)
    assert at_origin.sum() == 1
    # interior angle at the corner: incoming facet heads +y, outgoing +x,
    # so the domain turns through 3*pi/2
    origin_v = np.nonzero(np.isclose(m.vertices, 0.0).all(axis=1))[0][0]
    fin = np.nonzero(m.bf_v1 == origin_v)[0][0]
    fout = np.nonzero(m.bf_v0 == origin_v)[0][0]
    tin = m.bf_tangent[fin]
    tout = m.bf_tangent[fout]
    cross = tin[0] * tout[1] - tin[1] * tout[0]
    turn = np.arctan2(cross, np.dot(tin, tout))
    interior = np.pi - turn
    assert abs(interior - 1.5 * np.pi) < 1e-12


@pytest.mark.parametrize("domain, n", [("unit-square", 1), ("unit-square", 3),
                                       ("l-shape", 1), ("l-shape", 3)])
def test_structured_mesh_numbers_the_grid_x_outer(domain, n):
    # a plain loop over the grid, x outer: each kept cell (centre inside
    # the domain) gives (b, c, a) and (d, a, c), and the vertices keep
    # their grid order with those of no kept cell left out
    lo = -1.0 if domain == "l-shape" else 0.0
    m = 2 * n if domain == "l-shape" else n
    xs = np.linspace(lo, 1.0, m + 1)

    def inside(x, y):
        return not (domain == "l-shape" and x > 0 and y < 0)

    cells = [(i, j) for i in range(m) for j in range(m)
             if inside((xs[i] + xs[i + 1]) / 2, (xs[j] + xs[j + 1]) / 2)]
    used = sorted({(i + di, j + dj) for i, j in cells
                   for di in (0, 1) for dj in (0, 1)})
    vid = {v: k for k, v in enumerate(used)}
    tris = []
    for i, j in cells:
        a, b = vid[i, j], vid[i + 1, j]
        c, d = vid[i + 1, j + 1], vid[i, j + 1]
        tris += [(b, c, a), (d, a, c)]
    mesh = build_domain_mesh(domain, n)
    assert np.array_equal(mesh.vertices, [(xs[i], xs[j]) for i, j in used])
    assert np.array_equal(mesh.triangles, tris)
    check_mesh(mesh)


@pytest.mark.parametrize("domain", ["unit-square", "l-shape"])
def test_boundary_at_inverts_the_chart(domain):
    poly = domain_polygon(domain)
    _, _, cum = polygon_sides(poly)
    rng = np.random.default_rng(3)
    s = np.r_[cum[:-1], rng.uniform(0.0, cum[-1], 200)]
    x, y, nx, ny = boundary_at(poly, s)
    back, dist = project_to_boundary(poly, np.column_stack([x, y]))
    assert np.allclose(back, s, rtol=0.0, atol=1e-14)
    assert (dist <= 1e-15).all()
    # each corner starts its side, whose outward normal it takes
    assert np.array_equal(np.column_stack([x, y])[:len(poly)], poly)
    assert np.allclose(np.hypot(nx, ny), 1.0)
    step = np.column_stack([x + 1e-3 * nx, y + 1e-3 * ny])
    away = distance_to_boundary(domain, step)
    assert np.allclose(away[~np.isin(s, cum)], 1e-3)
    assert not meshmod._inside(poly, step).any()


def test_chart_refuses_a_vertex_off_the_boundary():
    m = build_unit_square(2)
    verts = m.vertices.copy()
    verts[np.all(verts == [0.5, 0.0], axis=1)] = [0.5, 0.1]
    with pytest.raises(ValueError, match="not on the domain boundary"):
        Mesh(verts, m.triangles, "unit-square")


def test_refine_empty_marks_identity(square4):
    assert refine(square4, []) is square4


def test_refine_all(square4):
    r = refine(square4, np.arange(square4.num_triangles))
    assert r.num_triangles >= 2 * square4.num_triangles
    assert (r.level >= 1).all()
    check_mesh(r)


def test_refine_single_interior_conforming(square8):
    cent = square8.vertices[square8.triangles].mean(axis=1)
    inner = np.argmin(np.abs(cent[:, 0] - 0.5) + np.abs(cent[:, 1] - 0.5))
    r = refine(square8, [inner])
    check_mesh(r)  # facet-incidence invariant catches hanging nodes
    assert r.num_triangles > square8.num_triangles
    assert (np.abs(r.signed_area.sum() - 1.0) < 1e-12)


# T = (v0, v1, v2) = (4, 5, 1) of refine(refine(build_unit_square(2),
# [0]), [8]): its refinement edge (5, 1) is shared with triangle 5, and
# its edges (v2, v0) and (v0, v1) are the refinement edges of triangles
# 3 and 10, so marking those forces the closure to split them.  The
# midpoints m0 of (v1, v2), m1 of (v2, v0) and m2 of (v0, v1) are
# numbered from 11 in edge order.
@pytest.mark.parametrize("marks, midpoints, rows, levels", [
    # refinement edge only: (m0, v0, v1), (m0, v2, v0)
    ([4], [[0.25, 0.75]], [[11, 4, 5], [11, 1, 4]], [1, 1]),
    # plus (v0, v1): the first child split at m2
    ([10], [[0.25, 0.75], [0.5, 0.75]],
     [[12, 11, 4], [12, 5, 11], [11, 1, 4]], [2, 2, 1]),
    # plus (v2, v0): the second child split at m1
    ([3], [[0.25, 0.5], [0.25, 0.75]],
     [[12, 4, 5], [11, 12, 1], [11, 4, 12]], [1, 2, 2]),
    # all three edges
    ([3, 10], [[0.25, 0.5], [0.25, 0.75], [0.5, 0.75]],
     [[13, 12, 4], [13, 5, 12], [11, 12, 1], [11, 4, 12]], [2, 2, 2, 2]),
], ids=["refinement-edge", "plus-v0v1", "plus-v2v0", "all-three"])
def test_refine_child_rows_of_each_edge_pattern(marks, midpoints, rows,
                                                levels):
    m = refine(refine(build_unit_square(2), [0]), [8])
    te = m.tri_edges
    assert m.triangles[4].tolist() == [4, 5, 1] and m.level[4] == 0
    assert (te[5, 0], te[3, 0], te[10, 0]) == tuple(te[4])
    r = refine(m, marks)
    check_mesh(r)
    assert r.vertices[11:].tolist() == midpoints
    kids = np.nonzero(r.parent == 4)[0]
    # children of one triangle are consecutive, after those of 0..3
    assert kids.tolist() == list(range(kids[0], kids[0] + len(rows)))
    assert kids[0] == np.count_nonzero(r.parent < 4)
    assert r.triangles[kids].tolist() == rows
    assert r.level[kids].tolist() == levels


def test_bisection_monotone(square4):
    r = refine(square4, np.arange(square4.num_triangles))
    for child in range(r.num_triangles):
        assert r.h_T[child] < square4.h_T[r.parent[child]]


def test_two_sweeps_halve_h(square4):
    r = uniform_refine(square4, 2)
    assert np.allclose(r.h_T.max(), square4.h_T.max() / 2)
    assert r.num_boundary_facets == 2 * square4.num_boundary_facets


def _corner_amr_mesh():
    """A bisected unit-square mesh: three rounds of marking near (0, 0)."""
    m = build_unit_square(4)
    for _ in range(3):
        cent = m.vertices[m.triangles].mean(axis=1)
        m = refine(m, np.nonzero(np.hypot(*cent.T) < 0.4)[0])
    return m


@pytest.mark.parametrize("make", [_corner_amr_mesh, lambda: build_lshape(8)],
                         ids=["square-amr", "lshape8"])
def test_boundary_band_facets_match_uniform(make):
    m = make()
    band = boundary_band(m)
    check_mesh(band)
    fine = uniform_refine(m, 2)
    assert np.array_equal(np.sort(band.bf_len), np.sort(fine.bf_len))
    assert band.num_triangles < fine.num_triangles


@pytest.mark.parametrize("make, initial_n", [
    (_corner_amr_mesh, 4),
    (lambda: uniform_refine(build_lshape(4), 2), 4),
    (lambda: uniform_refine(build_unit_square(8), 4), 8)],
    ids=["square-amr", "lshape4-twice", "square8-level2"])
def test_boundary_graded_keeps_the_facets(make, initial_n):
    m = make()
    g = boundary_graded(m, initial_n)
    check_mesh(g)
    assert np.array_equal(g.bf_s0, m.bf_s0)
    assert np.array_equal(g.bf_len, m.bf_len)
    assert g.num_triangles < m.num_triangles


def test_boundary_graded_leaves_the_corner_refinement_out():
    # the corner refinement of this mesh reaches into the bulk; the
    # graded mesh refines only toward the facets it left on the boundary
    m = _corner_amr_mesh()
    g = boundary_graded(m, 4)
    cent = g.vertices[g.triangles].mean(axis=1)
    inner = distance_to_boundary("unit-square", cent) > 0.25
    assert (g.level[inner] == 0).all()


@pytest.mark.parametrize("sweeps, most_rounds", [(0, 0), (8, 6)])
def test_boundary_graded_refuses_a_mesh_of_another_root(monkeypatch, sweeps,
                                                        most_rounds):
    # the facet starts of a 3x3 mesh (thirds) are no bisection points of
    # the 4x4 one: the builder raises ValueError once a facet that holds
    # a start would be bisected below the shortest facet, at once for
    # the 3x3 mesh and after three facet bisections (two rounds each)
    # for it bisected 8 times (shortest facet 1/48)
    m = uniform_refine(build_unit_square(3), sweeps)
    rounds = []

    def counting(mesh, marked):
        rounds.append(len(marked))
        return refine(mesh, marked)

    monkeypatch.setattr(meshmod, "refine", counting)
    with pytest.raises(ValueError, match="bisections"):
        boundary_graded(m, 4)
    assert len(rounds) <= most_rounds


@pytest.mark.parametrize("make", [
    lambda: build_unit_square(4), lambda: build_lshape(3), _corner_amr_mesh,
    lambda: boundary_band(_corner_amr_mesh())],
    ids=["square4", "lshape3", "square-amr", "band"])
def test_topology_matches_row_unique_reference(make):
    m = make()
    nt = m.num_triangles
    tri = m.triangles
    local = np.concatenate([tri[:, [1, 2]], tri[:, [2, 0]], tri[:, [0, 1]]])
    edges, inv = np.unique(np.sort(local, axis=1), axis=0,
                           return_inverse=True)
    assert np.array_equal(m.edges, edges)
    assert np.array_equal(m.tri_edges, inv.reshape(3, nt).T)
    edge_tris = np.full((len(edges), 2), -1)
    for t in range(nt):
        for e in inv.reshape(3, nt)[:, t]:
            edge_tris[e, int(edge_tris[e, 0] >= 0)] = t
    assert np.array_equal(m.edge_tris, edge_tris)


def test_random_refinement_rounds_keep_invariants():
    rng = np.random.default_rng(3)
    m = build_unit_square(2)
    for _ in range(10):
        nmark = rng.integers(1, m.num_triangles + 1)
        marked = rng.choice(m.num_triangles, size=nmark, replace=False)
        m = refine(m, marked)
        check_mesh(m)
    assert shape_regularity(m) <= 10.0


def test_lshape_random_refinement():
    rng = np.random.default_rng(5)
    m = build_lshape(1)
    for _ in range(6):
        marked = rng.choice(m.num_triangles,
                            size=max(1, m.num_triangles // 3), replace=False)
        m = refine(m, marked)
        check_mesh(m)


def test_distance_field_boundary_zero(square8):
    rho = compute_distance_field(square8)
    touches = square8.vertex_on_boundary[square8.triangles].any(axis=1)
    assert (rho[touches] == 0.0).all()


def test_distance_point_example():
    # a vertex at (0.5, 0.25) on the unit square is 0.25 from the boundary
    d = distance_to_boundary("unit-square", np.array([[0.5, 0.25]]))
    assert abs(d[0] - 0.25) < 1e-15


def test_distance_lshape_brute_force():
    m = build_lshape(4)
    pts = np.array([[0.1, 0.1], [-0.3, -0.45], [0.7, 0.2], [-0.9, 0.9]])
    d = distance_to_boundary("l-shape", pts)
    # brute force over every boundary facet of the mesh
    best = np.full(len(pts), np.inf)
    for f in range(m.num_boundary_facets):
        a = m.vertices[m.bf_v0[f]]
        b = m.vertices[m.bf_v1[f]]
        ab = b - a
        t = np.clip(((pts - a) @ ab) / (ab @ ab), 0.0, 1.0)
        best = np.minimum(best, np.hypot(*(pts - (a + t[:, None] * ab)).T))
    assert np.allclose(d, best, atol=1e-13)
    assert abs(d[0] - 0.1) < 1e-14  # edge y=0 is nearer than the corner


def test_rho_zero_iff_patch_touches(square8):
    rho = compute_distance_field(square8)
    tri = square8.triangles
    for t in range(square8.num_triangles):
        # brute-force patch: every triangle sharing a vertex with t
        patch = np.isin(tri, tri[t]).any(axis=1)
        verts = np.unique(tri[patch])
        touches = square8.vertex_on_boundary[verts].any()
        assert (rho[t] == 0.0) == touches
        dmin = distance_to_boundary(
            "unit-square", square8.vertices[verts]).min()
        assert abs(rho[t] - dmin) <= 1e-14


def test_rho_under_refinement(square8):
    rho0 = compute_distance_field(square8)
    r = refine(square8, np.arange(square8.num_triangles))
    rho1 = compute_distance_field(r)
    for child in range(r.num_triangles):
        p = r.parent[child]
        assert rho1[child] <= rho0[p] + square8.h_T[p] + 1e-13


def test_arc_tiling_after_refinement(square4):
    rng = np.random.default_rng(11)
    m = square4
    for _ in range(4):
        m = refine(m, rng.choice(m.num_triangles, 5, replace=False))
    assert abs(m.bf_len.sum() - m.perimeter) <= 1e-12 * m.perimeter
    s_end = m.bf_s0 + m.bf_len
    assert np.allclose(np.r_[m.bf_s0[1:], m.perimeter], s_end, atol=1e-12)


def test_graded_mesh_trivial():
    m = build_graded_mesh("unit-square", 1.0)
    assert m.num_triangles == 32  # coarse mesh already satisfies h=1


def test_graded_mesh_boundary_law():
    m = build_graded_mesh("unit-square", 1 / 8)
    assert (m.bf_len <= 1 / 64 + 1e-12).all()
    dist = distance_to_boundary(
        "unit-square", m.vertices)[m.triangles].min(axis=1)
    target = np.maximum((1 / 8) ** 2, np.sqrt(dist) / 8)
    assert (m.h_T <= target * (1 + 1e-9)).all()
    check_mesh(m)


def test_graded_size_target_formula():
    # dist 0.25 at h=1/8 gives target h*sqrt(dist) = 1/16
    assert abs(max((1 / 8) ** 2, (1 / 8) * np.sqrt(0.25)) - 1 / 16) < 1e-15


def test_graded_cap():
    with pytest.raises(RuntimeError):
        build_graded_mesh("unit-square", 1 / 8, element_cap=100)


def test_dump_mesh_format(tmp_path, square4):
    path = tmp_path / "mesh.txt"
    meshmod.dump_mesh(square4, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "OFF-like: 25 32"
    assert len(lines) == 1 + 25 + 32
    x, y = map(float, lines[1].split())
    i, j, k = map(int, lines[26].split())
    assert {i, j, k} <= set(range(25))
