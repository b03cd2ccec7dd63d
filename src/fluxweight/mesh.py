"""Conforming triangular meshes of the unit square and the L-shape.

Each domain is one corner loop, counterclockwise from a fixed anchor
corner (unit square: (0, 0); L-shape: (-1, -1)), and everything else
derives from it: the structured initial mesh (build_domain_mesh), the
arc-length chart and the distance to the boundary (project_to_boundary),
and E2's boundary data, which norms builds side by side, all reading
one side table (polygon_sides).

Triangles store their vertices counterclockwise with the *peak* vertex
first: the refinement edge of triangle (v0, v1, v2) is (v1, v2), the
edge opposite v0.  `refine` performs newest-vertex bisection with
recursive closure, which keeps every mesh conforming and shape regular
(the structured initial meshes consist of right isosceles triangles
whose bisection children are again right isosceles).  Bisection is one
rule: (v0, v1, v2) splits at the midpoint m of its refinement edge into
(m, v0, v1) and (m, v2, v0), whose refinement edges are the parent's
other two edges.  The closure marks a triangle's refinement edge
whenever any of its edges is marked, so applying the rule twice splits
every marked edge of the parent mesh.

The boundary facets are ordered counterclockwise from the anchor and
their arc intervals tile [0, |boundary|).  Meshes are immutable after
construction; refinement returns a new mesh.  So a mesh builds the
affine geometry of its triangles (J^-T and det J) once, on first use,
and every kernel reads it (Mesh.jacobians).
"""

import numpy as np

UNIT_SQUARE = "unit-square"
LSHAPE = "l-shape"

_POLYGONS = {
    UNIT_SQUARE: np.array(
        [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
    LSHAPE: np.array(
        [[-1.0, -1.0], [0.0, -1.0], [0.0, 0.0], [1.0, 0.0],
         [1.0, 1.0], [-1.0, 1.0]]),
}


def domain_polygon(domain):
    """Corner loop of the named domain, counterclockwise, anchor first."""
    try:
        return _POLYGONS[domain]
    except KeyError:
        raise ValueError(f"unknown domain {domain!r}") from None


def polygon_sides(polygon):
    """Side vectors, side lengths and the arc length at each corner of
    the corner loop, the perimeter last."""
    vec = np.roll(polygon, -1, axis=0) - polygon
    length = np.hypot(*vec.T)
    return vec, length, np.concatenate([[0.0], np.cumsum(length)])


def project_to_boundary(polygon, pts):
    """Arc length in [0, perimeter) of the nearest boundary point of
    each point (n, 2), and its exact distance.  A point as near (within
    1e-14) to two sides takes its arc length from the first in the loop."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    vec, length, cum = polygon_sides(polygon)
    s = np.zeros(len(pts))
    dist = np.full(len(pts), np.inf)
    for a, ab, L, c in zip(polygon, vec, length, cum):
        t = np.clip(((pts - a) @ ab) / (L * L), 0.0, 1.0)
        d = np.hypot(*(pts - (a + t[:, None] * ab)).T)
        better = d < dist - 1e-14
        s[better] = c + t[better] * L
        np.minimum(dist, d, out=dist)
    return np.mod(s, cum[-1]), dist


def distance_to_boundary(domain, pts):
    """Exact Euclidean distance from points (n, 2) to the domain boundary."""
    return project_to_boundary(domain_polygon(domain), pts)[1]


class Mesh:
    """Immutable triangulation with boundary chart and refinement history."""

    def __init__(self, vertices, triangles, domain, level=None, parent=None):
        self.vertices = np.asarray(vertices, dtype=float)
        self.triangles = np.asarray(triangles, dtype=np.int64)
        self.domain = domain
        nt = len(self.triangles)
        self.level = (np.zeros(nt, dtype=np.int32) if level is None
                      else np.asarray(level, dtype=np.int32))
        self.parent = (np.arange(nt, dtype=np.int64) if parent is None
                       else np.asarray(parent, dtype=np.int64))
        self.polygon = domain_polygon(domain)
        self._geometry = None  # (J^-T, det J), see jacobians
        self._build_topology()
        self._build_boundary_chart()

    # -- construction helpers -------------------------------------------------

    def _build_topology(self):
        tri = self.triangles
        nt = len(tri)
        # one int64 key per local edge, lo*nv + hi, at index 3*t + i for
        # edge i of triangle t, which is opposite its vertex i; the keys
        # sort as the (lo, hi) rows, each edge's in triangle order
        nv = len(self.vertices)
        p, q = tri[:, [1, 2, 0]].ravel(), tri[:, [2, 0, 1]].ravel()
        key = np.minimum(p, q) * nv + np.maximum(p, q)
        order = np.argsort(key, kind="stable")
        sk = key[order]
        second = np.r_[False, sk[1:] == sk[:-1]]
        if (sk[2:] == sk[:-2]).any():
            raise ValueError("non-manifold mesh: edge shared by > 2 triangles")
        self.edges = np.column_stack(np.divmod(sk[~second], nv))
        ne = len(self.edges)
        se, slot = np.cumsum(~second) - 1, second.astype(np.int64)
        inv = np.empty(3 * nt, dtype=np.int64)
        inv[order] = se
        self.tri_edges = inv.reshape(nt, 3)
        self.edge_tris = np.full((ne, 2), -1, dtype=np.int64)
        self.edge_local = np.full((ne, 2), -1, dtype=np.int64)
        self.edge_tris[se, slot] = order // 3
        self.edge_local[se, slot] = order % 3

        ev = self.vertices[self.edges]
        self.edge_length = np.hypot(ev[:, 0, 0] - ev[:, 1, 0],
                                    ev[:, 0, 1] - ev[:, 1, 1])
        self.h_T = self.edge_length[self.tri_edges].max(axis=1)

        p = self.vertices[tri]
        self.signed_area = 0.5 * (
            (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
            - (p[:, 1, 1] - p[:, 0, 1]) * (p[:, 2, 0] - p[:, 0, 0]))

        self.interior_edges = np.nonzero(self.edge_tris[:, 1] >= 0)[0]
        self._boundary_edges = np.nonzero(self.edge_tris[:, 1] < 0)[0]

    def _build_boundary_chart(self):
        self.perimeter = polygon_sides(self.polygon)[2][-1]
        be = self._boundary_edges
        tri_of = self.edge_tris[be, 0]
        le = self.edge_local[be, 0]
        v0 = self.triangles[tri_of, (le + 1) % 3]
        v1 = self.triangles[tri_of, (le + 2) % 3]
        s0, dist = project_to_boundary(self.polygon, self.vertices[v0])
        if dist.max(initial=0.0) > 1e-9:
            raise ValueError("point not on the domain boundary")
        order = np.argsort(s0, kind="stable")

        self.bf_edge = be[order]
        self.bf_tri = tri_of[order]
        self.bf_local = le[order]
        self.bf_v0 = v0[order]
        self.bf_v1 = v1[order]
        self.bf_s0 = s0[order]
        self.bf_len = self.edge_length[self.bf_edge]
        tang = ((self.vertices[self.bf_v1] - self.vertices[self.bf_v0])
                / self.bf_len[:, None])
        self.bf_tangent = tang
        self.bf_normal = np.column_stack([tang[:, 1], -tang[:, 0]])

        onb = np.zeros(len(self.vertices), dtype=bool)
        onb[self.bf_v0] = True
        onb[self.bf_v1] = True
        self.vertex_on_boundary = onb

    # -- public queries --------------------------------------------------------

    @property
    def num_vertices(self):
        return len(self.vertices)

    @property
    def num_triangles(self):
        return len(self.triangles)

    @property
    def num_boundary_facets(self):
        return len(self.bf_edge)

    def boundary_points(self, facet_ids, t):
        """Physical points at facet parameters t in [0, 1] (CCW direction)."""
        p0 = self.vertices[self.bf_v0[facet_ids]]
        p1 = self.vertices[self.bf_v1[facet_ids]]
        t = np.asarray(t, dtype=float)
        return p0 + t[..., None] * (p1 - p0)

    def facet_points(self, t):
        """Physical points at the parameters t on every boundary facet,
        shape (facets, len(t), 2)."""
        return self.boundary_points(
            np.arange(self.num_boundary_facets)[:, None], t)

    def facet_of_s(self, s):
        """Boundary facet ids containing arc lengths s (wrapped)."""
        s = np.mod(np.asarray(s, dtype=float), self.perimeter)
        idx = np.searchsorted(self.bf_s0, s, side="right") - 1
        return np.clip(idx, 0, self.num_boundary_facets - 1)

    def triangle_points(self, tri_ids, ref_pts):
        """Map reference points (nq, 2) into triangles, shape (nt, nq, 2):
        their barycentric coordinates (nq, 3) times the vertices."""
        x, y = ref_pts[:, 0], ref_pts[:, 1]
        return np.stack([1 - x - y, x, y], axis=1) @ self.vertices[
            self.triangles[tri_ids]]

    def jacobians(self, tri_ids=None):
        """Inverse transposes J^-T (n, 2, 2) of the Jacobians of the
        affine maps from the reference triangle, and their determinants
        (n,), read-only: the mesh builds them for every triangle once
        (affine_geometry), on first use, and this selects rows."""
        if self._geometry is None:
            self._geometry = affine_geometry(self.vertices, self.triangles)
        if tri_ids is None:
            return self._geometry
        return tuple(g[tri_ids] for g in self._geometry)


def affine_geometry(vertices, triangles):
    """J^-T (n, 2, 2) and det J (n,) of the affine maps of the reference
    triangle onto the triangles, as read-only arrays."""
    p = vertices[triangles]
    J = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]], axis=-1)
    det = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
    invJT = np.empty_like(J)
    invJT[:, 0, 0] = J[:, 1, 1]
    invJT[:, 0, 1] = -J[:, 1, 0]
    invJT[:, 1, 0] = -J[:, 0, 1]
    invJT[:, 1, 1] = J[:, 0, 0]
    invJT /= det[:, None, None]
    invJT.flags.writeable = det.flags.writeable = False
    return invJT, det


def _inside(polygon, pts):
    """Whether the points (n, 2) lie inside the corner loop, by the
    crossing number of a ray in +x."""
    x, y = pts.T
    inside = np.zeros(len(pts), dtype=bool)
    for a, b in zip(polygon, np.roll(polygon, -1, axis=0)):
        if a[1] != b[1]:
            cross = (a[1] > y) != (b[1] > y)
            inside ^= cross & (x < a[0] + (y - a[1]) * (b[0] - a[0])
                               / (b[1] - a[1]))
    return inside


def build_domain_mesh(domain, n):
    """Structured mesh of the domain: the cells of side 1/n of its
    bounding box whose centre lies inside its corner loop, each split
    along its lower-left to upper-right diagonal into two right
    isosceles triangles, peak first.  Vertices and cells are numbered
    with x outer and y inner; grid vertices of no kept cell are dropped.
    """
    if n < 1:
        raise ValueError("subdivision count must be >= 1")
    poly = domain_polygon(domain)
    lo, hi = poly.min(axis=0), poly.max(axis=0)
    xs, ys = (np.linspace(lo[i], hi[i], int(round((hi[i] - lo[i]) * n)) + 1)
              for i in range(2))
    ny = len(ys)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    i, j = (g.ravel() for g in np.meshgrid(np.arange(len(xs) - 1),
                                           np.arange(ny - 1), indexing="ij"))
    centres = np.column_stack([(xs[i] + xs[i + 1]) / 2,
                               (ys[j] + ys[j + 1]) / 2])
    keep = _inside(poly, centres)
    a = i[keep] * ny + j[keep]
    b, c, d = a + ny, a + ny + 1, a + 1
    used, tris = np.unique(np.column_stack([b, c, a, d, a, c]),
                           return_inverse=True)
    verts = np.column_stack([X.ravel(), Y.ravel()])[used]
    return Mesh(verts, tris.reshape(-1, 3), domain)


def build_unit_square(n):
    """build_domain_mesh of the unit square: 2*n^2 triangles."""
    return build_domain_mesh(UNIT_SQUARE, n)


def build_lshape(n):
    """build_domain_mesh of the L-shape: 6*n^2 triangles."""
    return build_domain_mesh(LSHAPE, n)


def refine(mesh, marked):
    """Newest-vertex bisection of the marked triangles, with closure.

    Every marked triangle is bisected at least once; hanging nodes are
    removed by marking the refinement edge of every triangle with a
    marked edge, until no triangle has a marked edge but an unmarked
    refinement edge.  Then the rule splits each triangle whose
    refinement edge is marked into (m, v0, v1) and (m, v2, v0), in two
    rounds: the children's refinement edges are the parent's (v0, v1)
    and (v2, v0), the only edges left to split, and their other edges
    are new, so no grandchild is split again.  A triangle's children
    follow each other in that order, one level deeper, and record the
    index of their pre-refinement ancestor; the midpoints are numbered
    after the old vertices, in edge order.
    """
    marked = np.unique(np.asarray(marked, dtype=np.int64))
    if marked.size == 0:
        return mesh
    if marked.min(initial=0) < 0 or marked.max(initial=0) >= mesh.num_triangles:
        raise ValueError("marked set contains invalid triangle ids")

    te = mesh.tri_edges
    edge_marked = np.zeros(len(mesh.edges), dtype=bool)
    edge_marked[te[marked, 0]] = True
    while True:
        need = edge_marked[te].any(axis=1) & ~edge_marked[te[:, 0]]
        if not need.any():
            break
        edge_marked[te[need, 0]] = True

    medges = np.nonzero(edge_marked)[0]
    mid_id = np.full(len(mesh.edges), -1, dtype=np.int64)
    mid_id[medges] = mesh.num_vertices + np.arange(len(medges))
    midpoints = 0.5 * (mesh.vertices[mesh.edges[medges, 0]]
                       + mesh.vertices[mesh.edges[medges, 1]])
    new_verts = np.vstack([mesh.vertices, midpoints])

    # rows: vertices (peak first), edge ids (refinement edge first) in
    # the parent's numbering, with the unmarked sentinel NEW for edges
    # that a split creates
    NEW = len(mesh.edges)
    edge_marked = np.append(edge_marked, False)
    tri, edges = mesh.triangles, te
    lev, par = mesh.level, np.arange(mesh.num_triangles)
    for _ in range(2):
        split = edge_marked[edges[:, 0]]
        v0, v1, v2 = tri[split].T
        e0, e1, e2 = edges[split].T
        m = mid_id[e0]
        # a split row gives its two children, side by side
        n = 1 + split
        first = (np.cumsum(n) - n)[split]
        tri, edges = np.repeat(tri, n, axis=0), np.repeat(edges, n, axis=0)
        tri[first] = np.column_stack([m, v0, v1])
        tri[first + 1] = np.column_stack([m, v2, v0])
        edges[first] = edges[first + 1] = NEW
        edges[first, 0] = e2
        edges[first + 1, 0] = e1
        lev, par = np.repeat(lev + split, n), np.repeat(par, n)

    return Mesh(new_verts, tri, mesh.domain, level=lev, parent=par)


def uniform_refine(mesh, sweeps=1):
    """Bisect every triangle, `sweeps` times (two sweeps halve h)."""
    for _ in range(sweeps):
        mesh = refine(mesh, np.arange(mesh.num_triangles))
    return mesh


def boundary_band(mesh, sweeps=2):
    """Bisect the triangles whose vertex patch touches the boundary
    (rho_T == 0), `sweeps` times, recomputing the band after each sweep.

    Boundary facets come out as fine as under `uniform_refine(mesh,
    sweeps)`, while the bulk keeps its size (up to the closure).
    """
    for _ in range(sweeps):
        mesh = refine(mesh, np.nonzero(compute_distance_field(mesh) == 0)[0])
    return mesh


def boundary_graded(mesh, initial_n):
    """The coarsest bisection of build_domain_mesh(mesh.domain,
    initial_n) with the boundary facets of `mesh`: the triangles whose
    boundary facet holds a facet start of `mesh` strictly inside (beyond
    1e-12 of the perimeter) are bisected until none does, so the bulk is
    graded inward by the newest-vertex closure alone.

    `mesh` must be a bisection of that initial mesh.  Otherwise a facet
    that holds a start comes down to less than twice the shortest facet
    of `mesh`, where bisecting it would pass below that facet, and
    ValueError is raised there: the loop always ends.
    """
    starts = mesh.bf_s0
    tol = 1e-12 * mesh.perimeter
    shortest = mesh.bf_len.min()
    out = build_domain_mesh(mesh.domain, initial_n)
    while True:
        # the first start beyond each facet's own, and whether it lies
        # before the facet's end
        nxt = np.searchsorted(starts, out.bf_s0 + tol, side="right")
        inside = nxt < len(starts)
        inside[inside] = (starts[nxt[inside]]
                          < out.bf_s0[inside] + out.bf_len[inside] - tol)
        if not inside.any():
            return out
        # a facet that holds a start holds two facets of `mesh`
        if (out.bf_len[inside] < 2 * shortest * (1 - 1e-12)).any():
            raise ValueError(
                "the boundary facets of the mesh are not bisections of "
                f"those of the initial mesh at n = {initial_n}")
        out = refine(out, out.bf_tri[inside])


def compute_distance_field(mesh):
    """rho_T per triangle: the minimum distance to the boundary over the
    vertices of the patch of triangles sharing a vertex with T (exactly
    0 when the patch touches the boundary)."""
    tri = mesh.triangles
    tri_min = distance_to_boundary(mesh.domain, mesh.vertices)[tri].min(axis=1)
    vert_min = np.full(mesh.num_vertices, np.inf)
    for c in range(3):
        np.minimum.at(vert_min, tri[:, c], tri_min)
    rho = vert_min[tri].min(axis=1)
    rho[rho < 1e-14] = 0.0
    return rho


def build_graded_mesh(domain, h, initial_n=4, element_cap=2_000_000):
    """Boundary-concentrated mesh: size h^2 on the boundary, h*sqrt(dist)
    in the bulk.

    Any element violating its local target max(h^2, h*sqrt(dist(T))) --
    and any boundary facet longer than h^2 -- is bisected until the scan
    comes back clean.  dist(T) is the minimum vertex distance to the
    boundary, matching the post-generation scan in the tests.
    """
    if not 0.0 < h <= 1.0:
        raise ValueError("grading parameter must lie in (0, 1]")
    mesh = build_domain_mesh(domain, initial_n)
    while True:
        if mesh.num_triangles > element_cap:
            raise RuntimeError(
                f"graded mesh exceeded the element cap ({element_cap})")
        dist = distance_to_boundary(
            domain, mesh.vertices)[mesh.triangles].min(axis=1)
        target = np.maximum(h * h, h * np.sqrt(dist))
        bad = mesh.h_T > target * (1 + 1e-12)
        fb = mesh.bf_len > h * h * (1 + 1e-12)
        if fb.any():
            bad = bad.copy()
            bad[mesh.bf_tri[fb]] = True
        if not bad.any():
            return mesh
        mesh = refine(mesh, np.nonzero(bad)[0])


def shape_regularity(mesh):
    """Max ratio of circumradius to inradius over all triangles."""
    p = mesh.vertices[mesh.triangles]
    a = np.hypot(*(p[:, 1] - p[:, 2]).T)
    b = np.hypot(*(p[:, 2] - p[:, 0]).T)
    c = np.hypot(*(p[:, 0] - p[:, 1]).T)
    area = np.abs(mesh.signed_area)
    R = a * b * c / (4.0 * area)
    r = 2.0 * area / (a + b + c)
    return float((R / r).max())


def check_mesh(mesh, tol=1e-12):
    """Validate the structural invariants; raises AssertionError on
    failure.  A check for the tests: no study calls it."""
    counts = (mesh.edge_tris >= 0).sum(axis=1)
    assert set(np.unique(counts)) <= {1, 2}, "facet incidence broken"
    assert (mesh.signed_area > 0).all(), "non-positive triangle area"
    s_end = mesh.bf_s0 + mesh.bf_len
    gaps = np.abs(np.r_[mesh.bf_s0[1:], mesh.perimeter] - s_end)
    assert gaps.max() <= tol * mesh.perimeter, "arc intervals do not tile"
    assert abs(mesh.bf_s0[0]) <= tol, "first facet does not start at anchor"
    assert abs(mesh.bf_len.sum() - mesh.perimeter) <= tol * mesh.perimeter
    assert shape_regularity(mesh) <= 10.0, "shape regularity degraded"
    return True


def dump_mesh(mesh, path):
    """Write the plain-text mesh format: header, vertices, triangles."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"OFF-like: {mesh.num_vertices} {mesh.num_triangles}\n")
        for x, y in mesh.vertices:
            fh.write(f"{x:.17g} {y:.17g}\n")
        for i, j, k in mesh.triangles:
            fh.write(f"{i} {j} {k}\n")
