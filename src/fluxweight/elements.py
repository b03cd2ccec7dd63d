"""Nodal Lagrange elements of order 1..4 on the reference triangle.

Node layout per order p: the three vertices first, then p-1 nodes per
edge (edge i is opposite vertex i, nodes ordered from the lower- to the
higher-numbered local endpoint), then interior lattice nodes.  Basis
functions are built by inverting the monomial Vandermonde at the nodes;
for p <= 4 this is well conditioned.
"""

from functools import lru_cache

import numpy as np

MAX_ORDER = 4

# Local edge i is opposite local vertex i.
EDGE_VERTICES = ((1, 2), (2, 0), (0, 1))


class ReferenceElement:
    """Scalar Lagrange element on the reference triangle."""

    def __init__(self, order):
        if not 1 <= order <= MAX_ORDER:
            raise ValueError(f"unsupported element order {order}")
        self.order = order
        self.nodes = _lattice_nodes(order)
        self.ndof = len(self.nodes)
        exps = [(i, j) for d in range(order + 1) for i in range(d + 1)
                for j in [d - i]]
        self._exps = np.array(exps)  # (ndof, 2) monomial exponents
        V = self._monomials(self.nodes)
        self._coef = np.linalg.inv(V)  # phi_a = sum_b coef[b, a] * m_b
        # DOF counts per entity
        self.n_edge_dofs = order - 1
        self.n_interior_dofs = self.ndof - 3 - 3 * self.n_edge_dofs

    def _monomials(self, pts, dx=0, dy=0):
        pts = np.asarray(pts, dtype=float)
        x, y = pts[..., 0], pts[..., 1]
        out = np.empty(pts.shape[:-1] + (len(self._exps),))
        for b, (i, j) in enumerate(self._exps):
            ci = cj = 1.0
            ii, jj = i, j
            for _ in range(dx):
                ci *= ii
                ii = max(ii - 1, 0)
            for _ in range(dy):
                cj *= jj
                jj = max(jj - 1, 0)
            if ci * cj == 0.0:
                out[..., b] = 0.0
            else:
                out[..., b] = ci * cj * x**ii * y**jj
        return out

    def eval(self, pts):
        """Basis values at reference points, shape (..., ndof)."""
        return self._monomials(pts) @ self._coef

    def grad(self, pts):
        """Reference gradients, shape (..., ndof, 2)."""
        gx = self._monomials(pts, dx=1) @ self._coef
        gy = self._monomials(pts, dy=1) @ self._coef
        return np.stack([gx, gy], axis=-1)

    def hess(self, pts):
        """Reference second derivatives, shape (..., ndof, 3) for (xx, xy, yy)."""
        hxx = self._monomials(pts, dx=2) @ self._coef
        hxy = self._monomials(pts, dx=1, dy=1) @ self._coef
        hyy = self._monomials(pts, dy=2) @ self._coef
        return np.stack([hxx, hxy, hyy], axis=-1)

def _lattice_nodes(p):
    verts = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
    nodes = list(verts)
    for a, b in EDGE_VERTICES:
        lo, hi = (a, b) if a < b else (b, a)
        pa, pb = verts[lo], verts[hi]
        for i in range(1, p):
            t = i / p
            nodes.append((pa[0] + t * (pb[0] - pa[0]),
                          pa[1] + t * (pb[1] - pa[1])))
    for i in range(1, p):
        for j in range(1, p - i):
            nodes.append((i / p, j / p))
    return np.array(nodes)


@lru_cache(maxsize=None)
def reference_element(order):
    return ReferenceElement(order)
