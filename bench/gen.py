"""Deterministic inputs and independent oracles for the benchmark.

Nothing here calls the package under test.  Fans are polar fans: m seeded
unit normals whose convex hull has the origin inside, with the hull's
triangles as cells.  Such a fan is the normal fan of the polytope
{x : n_j . x <= 1}, so it is valid, simple and (with probability 1) in
general position by construction.  Areas come from a per-cell 3x3 vertex
solve plus a shoelace sum in an explicit frame of each face plane.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import ConvexHull, HalfspaceIntersection

HULL_MARGIN = 1e-2      # every hull facet at least this far from the origin


def rng_for(seed: int, *stream) -> np.random.Generator:
    """Independent generator per (seed, stream) so inputs do not shift together."""
    return np.random.default_rng([seed, *stream])


def polar_fan(rng: np.random.Generator, m: int):
    """(normals, cells) of a polar fan; cells are CCW seen from outside.

    Draws are repeated only while the origin is not inside the hull (by
    HULL_MARGIN), the condition under which the hull triangles partition
    the sphere.  Nothing from the package under test is consulted.
    """
    while True:
        normals = rng.standard_normal((m, 3))
        normals /= np.linalg.norm(normals, axis=1)[:, None]
        hull = ConvexHull(normals)
        if len(hull.vertices) == m and np.all(-hull.equations[:, 3] > HULL_MARGIN):
            break
    cells = []
    for a, b, c in hull.simplices:
        a, b, c = int(a), int(b), int(c)
        if np.linalg.det(normals[[a, b, c]]) < 0.0:
            b, c = c, b
        cells.append((a, b, c))
    return normals, tuple(cells)


def cell_vertices(normals, cells, h) -> np.ndarray:
    """One vertex per cell from the planes of its first three faces."""
    first = np.array([cell[:3] for cell in cells])
    h = np.asarray(h, dtype=float)
    return np.linalg.solve(normals[first], h[first][..., None])[..., 0]


def _plane_frame(n):
    axis = np.eye(3)[int(np.argmin(np.abs(n)))]
    u = axis - (axis @ n) * n
    u /= np.linalg.norm(u)
    return u, np.cross(n, u)


class Polytope:
    """Face rings of a convex polytope, fixed once from its seed supports.

    The rings are found by an angular sort of each face's vertices, which
    is valid because the seed is convex.  Oriented areas for other support
    vectors of the same type reuse the rings (signed shoelace).
    """

    def __init__(self, normals, cells, h0):
        self.normals = np.asarray(normals, dtype=float)
        self.cells = tuple(tuple(c) for c in cells)
        m = len(self.normals)
        verts = cell_vertices(self.normals, self.cells, h0)
        around = [[] for _ in range(m)]
        for ci, cell in enumerate(self.cells):
            for j in cell:
                around[j].append(ci)
        self.frames = [_plane_frame(n) for n in self.normals]
        self.rings = []
        for j in range(m):
            u, v = self.frames[j]
            pts = verts[around[j]]
            rel = pts - pts.mean(axis=0)
            order = np.argsort(np.arctan2(rel @ v, rel @ u))
            self.rings.append(np.array(around[j])[order])

    def areas(self, h) -> np.ndarray:
        verts = cell_vertices(self.normals, self.cells, h)
        out = np.empty(len(self.rings))
        for j, ring in enumerate(self.rings):
            u, v = self.frames[j]
            pts = verts[ring]
            x, y = pts @ u, pts @ v
            out[j] = 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))
        return out


def balance_project(normals, f) -> np.ndarray:
    """Orthogonal projection of an area vector onto sum f_j n_j = 0."""
    coef = np.linalg.lstsq(normals, f, rcond=None)[0]
    return f - normals @ coef


def solve_target(rng, poly: Polytope, f0, s: float) -> np.ndarray:
    """g = (1-s) f0 + s w, w a positive random multiple of f0 on the balance plane."""
    while True:
        w = balance_project(poly.normals, rng.uniform(0.6, 1.4, len(f0)) * f0)
        if np.all(w > 0.2 * f0):
            break
    return balance_project(poly.normals, (1.0 - s) * f0 + s * w)


def same_type(normals, cells, h, interior) -> bool:
    """Whether {x : N x <= h} has exactly the given cells as its vertices.

    scipy's halfspace intersection is the oracle; each intersection point
    must lie on exactly three planes, and those triples must be the cells.
    """
    hs = HalfspaceIntersection(np.column_stack([normals, -h]), interior)
    found = set()
    for p in hs.intersections:
        active = np.nonzero(np.abs(normals @ p - h) <= 1e-9 * max(1.0, float(np.max(np.abs(h)))))[0]
        if len(active) != 3:
            return False
        found.add(frozenset(int(a) for a in active))
    return found == {frozenset(c) for c in cells}


def perturbed_supports(rng, normals, cells, h, size: float) -> np.ndarray:
    """h + d, d uniform in [-size, size]^m, shrunk until the type is kept."""
    while True:
        d = rng.uniform(-size, size, len(h))
        if same_type(normals, cells, h + d, np.zeros(3)):
            return h + d
        size *= 0.7
