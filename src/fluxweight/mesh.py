"""Conforming triangular meshes of the unit square and the L-shape.

Triangles store their vertices counterclockwise with the *peak* vertex
first: the refinement edge of triangle (v0, v1, v2) is (v1, v2), the
edge opposite v0.  `refine` performs newest-vertex bisection with
recursive closure, which keeps every mesh conforming and shape regular
(the structured initial meshes consist of right isosceles triangles
whose bisection children are again right isosceles).

The boundary carries an arc-length chart: facets are ordered
counterclockwise from a fixed anchor corner (unit square: (0, 0);
L-shape: (-1, -1)) and their arc intervals tile [0, |boundary|).
Meshes are immutable after construction; refinement returns a new mesh.
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


def distance_to_boundary(domain, pts):
    """Exact Euclidean distance from points (n, 2) to the domain boundary."""
    poly = domain_polygon(domain)
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    best = np.full(len(pts), np.inf)
    for k in range(len(poly)):
        a = poly[k]
        b = poly[(k + 1) % len(poly)]
        ab = b - a
        t = np.clip(((pts - a) @ ab) / (ab @ ab), 0.0, 1.0)
        proj = a + t[:, None] * ab
        best = np.minimum(best, np.hypot(*(pts - proj).T))
    return best


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
        self._build_topology()
        self._build_boundary_chart()

    # -- construction helpers -------------------------------------------------

    def _build_topology(self):
        tri = self.triangles
        nt = len(tri)
        # local edge i is opposite local vertex i
        edges_all = np.concatenate(
            [tri[:, [1, 2]], tri[:, [2, 0]], tri[:, [0, 1]]], axis=0)
        # one int64 key per edge, lo*nv + hi, sorts as the (lo, hi) rows
        nv = len(self.vertices)
        key = (np.minimum(edges_all[:, 0], edges_all[:, 1]) * nv
               + np.maximum(edges_all[:, 0], edges_all[:, 1]))
        ukey, inv = np.unique(key, return_inverse=True)
        self.edges = np.column_stack(np.divmod(ukey, nv))
        ne = len(self.edges)
        self.tri_edges = inv.reshape(3, nt).T.copy()

        flat = self.tri_edges.ravel()  # index 3*t + le
        order = np.argsort(flat, kind="stable")
        se = flat[order]
        start = np.r_[True, se[1:] != se[:-1]]
        group_start = np.maximum.accumulate(
            np.where(start, np.arange(len(se)), 0))
        slot = np.arange(len(se)) - group_start
        if slot.max(initial=0) > 1:
            raise ValueError("non-manifold mesh: edge shared by > 2 triangles")
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
        poly = self.polygon
        seg_len = np.hypot(*(np.roll(poly, -1, axis=0) - poly).T)
        cum = np.concatenate([[0.0], np.cumsum(seg_len)])
        self.perimeter = cum[-1]

        be = self._boundary_edges
        tri_of = self.edge_tris[be, 0]
        le = self.edge_local[be, 0]
        v0 = self.triangles[tri_of, (le + 1) % 3]
        v1 = self.triangles[tri_of, (le + 2) % 3]
        s0 = self._chart_s(self.vertices[v0], cum)
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

    def _chart_s(self, pts, cum):
        """Arc length of boundary points, in [0, perimeter); cum holds the
        arc length at each polygon vertex and the perimeter last."""
        poly = self.polygon
        pts = np.atleast_2d(pts)
        s = np.full(len(pts), np.nan)
        dist = np.full(len(pts), np.inf)
        for k in range(len(poly)):
            a, b = poly[k], poly[(k + 1) % len(poly)]
            ab = b - a
            L = np.hypot(*ab)
            t = np.clip(((pts - a) @ ab) / (L * L), 0.0, 1.0)
            d = np.hypot(*(pts - (a + t[:, None] * ab)).T)
            better = d < dist - 1e-14
            s[better] = cum[k] + t[better] * L
            dist[better] = d[better]
        if dist.max(initial=0.0) > 1e-9:
            raise ValueError("point not on the domain boundary")
        return np.mod(s, cum[-1])

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
        """Map reference points (nq, 2) into triangles, shape (nt, nq, 2)."""
        p = self.vertices[self.triangles[tri_ids]]
        x = ref_pts[None, :, 0, None]
        y = ref_pts[None, :, 1, None]
        return (p[:, None, 0, :] * (1 - x - y) + p[:, None, 1, :] * x
                + p[:, None, 2, :] * y)

    def jacobians(self, tri_ids=None):
        """Affine Jacobians (n, 2, 2), inverse transposes and determinants."""
        tri = self.triangles if tri_ids is None else self.triangles[tri_ids]
        p = self.vertices[tri]
        J = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]], axis=-1)
        det = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
        invJT = np.empty_like(J)
        invJT[:, 0, 0] = J[:, 1, 1]
        invJT[:, 0, 1] = -J[:, 1, 0]
        invJT[:, 1, 0] = -J[:, 0, 1]
        invJT[:, 1, 1] = J[:, 0, 0]
        invJT /= det[:, None, None]
        return J, invJT, det


def build_unit_square(n):
    """Structured mesh of [0, 1]^2 with 2*n^2 right isosceles triangles.

    Every cell is split along its lower-left to upper-right diagonal; the
    arc-length anchor is the corner (0, 0).
    """
    if n < 1:
        raise ValueError("subdivision count must be >= 1")
    xs = np.linspace(0.0, 1.0, n + 1)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    verts = np.column_stack([X.ravel(), Y.ravel()])

    def vid(i, j):
        return i * (n + 1) + j

    tris = []
    for i in range(n):
        for j in range(n):
            a, b = vid(i, j), vid(i + 1, j)
            c, d = vid(i + 1, j + 1), vid(i, j + 1)
            tris.append((b, c, a))  # peak at right angle, hyp = diagonal
            tris.append((d, a, c))
    return Mesh(verts, np.array(tris), UNIT_SQUARE)


def build_lshape(n):
    """Structured mesh of [-1,1]^2 minus (0,1)x(-1,0), 6*n^2 triangles.

    Each of the three unit squares is subdivided n times per side; the
    arc-length anchor is the corner (-1, -1) and the re-entrant corner
    sits at the origin.
    """
    if n < 1:
        raise ValueError("subdivision count must be >= 1")
    m = 2 * n
    xs = np.linspace(-1.0, 1.0, m + 1)
    keep = np.zeros((m + 1, m + 1), dtype=bool)
    newid = np.full((m + 1, m + 1), -1, dtype=np.int64)
    verts = []
    for i in range(m + 1):
        for j in range(m + 1):
            if xs[i] > 0.0 and xs[j] < 0.0:
                continue  # inside the excluded quadrant
            keep[i, j] = True
            newid[i, j] = len(verts)
            verts.append((xs[i], xs[j]))
    tris = []
    for i in range(m):
        for j in range(m):
            if xs[i] >= 0.0 and xs[j] < 0.0:
                continue  # excluded cell
            a, b = newid[i, j], newid[i + 1, j]
            c, d = newid[i + 1, j + 1], newid[i, j + 1]
            tris.append((b, c, a))
            tris.append((d, a, c))
    return Mesh(np.array(verts), np.array(tris), LSHAPE)


def build_domain_mesh(domain, n):
    if domain == UNIT_SQUARE:
        return build_unit_square(n)
    if domain == LSHAPE:
        return build_lshape(n)
    raise ValueError(f"unknown domain {domain!r}")


def refine(mesh, marked):
    """Newest-vertex bisection of the marked triangles, with closure.

    Every marked triangle is bisected at least once; hanging nodes are
    removed by recursively bisecting neighbors across their refinement
    edges.  Children record the index of their pre-refinement ancestor.
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

    e0 = edge_marked[te[:, 0]]
    e1 = edge_marked[te[:, 1]]
    e2 = edge_marked[te[:, 2]]
    nchild = np.where(~e0, 1, 2 + e1.astype(int) + e2.astype(int))
    offs = np.concatenate([[0], np.cumsum(nchild)])
    total = offs[-1]
    out = np.empty((total, 3), dtype=np.int64)
    lev = np.empty(total, dtype=np.int32)
    par = np.empty(total, dtype=np.int64)

    tri = mesh.triangles
    v0, v1, v2 = tri[:, 0], tri[:, 1], tri[:, 2]
    m0 = mid_id[te[:, 0]]
    m1 = mid_id[te[:, 1]]
    m2 = mid_id[te[:, 2]]
    L = mesh.level
    ids = np.arange(mesh.num_triangles)

    def emit(mask, slot, cols, dlev):
        rows = offs[ids[mask]] + slot
        out[rows] = np.column_stack(cols)
        lev[rows] = L[mask] + dlev
        par[rows] = ids[mask]

    k = ~e0
    emit(k, 0, (v0[k], v1[k], v2[k]), 0)

    # bisect the refinement edge only
    k = e0 & ~e1 & ~e2
    emit(k, 0, (m0[k], v0[k], v1[k]), 1)
    emit(k, 1, (m0[k], v2[k], v0[k]), 1)

    # refinement edge + edge (v0, v1): first child bisected again
    k = e0 & ~e1 & e2
    emit(k, 0, (m2[k], m0[k], v0[k]), 2)
    emit(k, 1, (m2[k], v1[k], m0[k]), 2)
    emit(k, 2, (m0[k], v2[k], v0[k]), 1)

    # refinement edge + edge (v2, v0): second child bisected again
    k = e0 & e1 & ~e2
    emit(k, 0, (m0[k], v0[k], v1[k]), 1)
    emit(k, 1, (m1[k], m0[k], v2[k]), 2)
    emit(k, 2, (m1[k], v0[k], m0[k]), 2)

    # all three edges
    k = e0 & e1 & e2
    emit(k, 0, (m2[k], m0[k], v0[k]), 2)
    emit(k, 1, (m2[k], v1[k], m0[k]), 2)
    emit(k, 2, (m1[k], m0[k], v2[k]), 2)
    emit(k, 3, (m1[k], v0[k], m0[k]), 2)

    return Mesh(new_verts, out, mesh.domain, level=lev, parent=par)


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
    """Validate the structural invariants; raises AssertionError on failure."""
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
