"""Shared oracles and generators for the test suite.

Everything here is deliberately independent of the code paths under test:
vertices come from scipy's halfspace intersection, areas from a classic
2-d shoelace in explicit plane coordinates, containment from a brute-force
grid of translations.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import ConvexHull, HalfspaceIntersection

from herisson.builders import _ccw_cell
from herisson.fan import ANTIPODAL_TOL, CONVEXITY_TOL, HEMISPHERE_TOL, TOUCH_TOL, Fan
from herisson.geometry import face_frame


def halfspace_vertices(normals, offsets, interior_point=None):
    """Vertices of {x : n_i . x <= h_i} via scipy (independent oracle)."""
    normals = np.asarray(normals, dtype=float)
    offsets = np.asarray(offsets, dtype=float)
    if interior_point is None:
        interior_point = np.zeros(3)
    halfspaces = np.column_stack([normals, -offsets])
    hs = HalfspaceIntersection(halfspaces, interior_point)
    return hs.intersections


def match_point_sets(a, b, tol):
    """Greedy one-to-one matching of two point clouds within tol."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if len(a) != len(b):
        return False
    used = set()
    for p in a:
        dists = np.linalg.norm(b - p, axis=1)
        order = np.argsort(dists)
        hit = next((j for j in order if j not in used and dists[j] <= tol), None)
        if hit is None:
            return False
        used.add(hit)
    return True


def shoelace_area(h, j):
    """Unsigned area of face j via the classic 2-d shoelace formula."""
    u, v = face_frame(h.fan.equipment[j])
    pts = h.face_polygon(j)
    x = pts @ u
    y = pts @ v
    return 0.5 * abs(float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)))


def point_in_convex(point, poly, tol=1e-12):
    poly = np.asarray(poly, dtype=float)
    edges = np.roll(poly, -1, axis=0) - poly
    rel = np.asarray(point) - poly
    cross = edges[:, 0] * rel[:, 1] - edges[:, 1] * rel[:, 0]
    return bool(np.all(cross >= -tol))


def grid_fit_exists(p, q, steps=40):
    """Brute-force search for a translation putting polygon p inside q."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    lo = q.min(axis=0) - p.max(axis=0)
    hi = q.max(axis=0) - p.min(axis=0)
    for cx in np.linspace(lo[0], hi[0], steps):
        for cy in np.linspace(lo[1], hi[1], steps):
            moved = p + np.array([cx, cy])
            if all(point_in_convex(v, q, tol=1e-9) for v in moved):
                return True
    return False


def random_normal_fan_2d(rng, nmin=4, nmax=8, min_gap=0.35):
    """Sorted edge-normal angles of a generic convex polygon fan."""
    while True:
        n = int(rng.integers(nmin, nmax + 1))
        angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
        gaps = np.diff(np.concatenate([angles, [angles[0] + 2 * np.pi]]))
        if np.min(gaps) > min_gap and np.max(gaps) < np.pi - 0.2:
            return angles


def polygon_from_supports(angles, offsets):
    """Convex polygon with given edge-normal angles and support numbers.

    Vertex i is the intersection of edge lines i and i+1; returns None when
    some edge comes out with nonpositive length (the support vector does
    not describe a polygon with this fan).
    """
    n = len(angles)
    normals = np.column_stack([np.cos(angles), np.sin(angles)])
    verts = []
    for i in range(n):
        a = normals[i]
        b = normals[(i + 1) % n]
        mat = np.stack([a, b])
        verts.append(np.linalg.solve(mat, [offsets[i], offsets[(i + 1) % n]]))
    verts = np.array(verts)
    tangents = np.column_stack([-normals[:, 1], normals[:, 0]])
    lengths = np.einsum("ij,ij->i", np.roll(verts, -1, axis=0) - verts, np.roll(tangents, -1, axis=0))
    prev = np.roll(verts, 1, axis=0)
    first = np.einsum("ij,ij->i", verts - prev, tangents)
    if np.any(lengths <= 1e-9) and np.any(first <= 1e-9):
        return None
    edge_vec = np.roll(verts, -1, axis=0) - verts
    lens = np.linalg.norm(edge_vec, axis=1)
    if np.any(lens <= 1e-9):
        return None
    # edge i runs from vertex i-1 to vertex i in this construction; re-cycle
    # so that returned vertices are in CCW order starting anywhere.
    area2 = float(np.sum(verts[:, 0] * np.roll(verts[:, 1], -1) - np.roll(verts[:, 0], -1) * verts[:, 1]))
    if area2 <= 1e-12:
        return None
    return verts


def random_polygon_pair(rng, angles):
    """Two valid polygons over one edge-normal fan."""
    out = []
    while len(out) < 2:
        offsets = rng.uniform(0.6, 1.6, len(angles))
        poly = polygon_from_supports(angles, offsets)
        if poly is not None:
            out.append(poly)
    return out


def random_simple_fan(rng, nplanes=8, min_sep=0.5):
    """Fan of a generic simple polytope: every cell has exactly 3 faces.

    Random well-separated outward normals with random offsets bound a
    polytope whose vertices generically lie on exactly three facet planes.
    """
    while True:
        normals = rng.standard_normal((nplanes, 3))
        normals /= np.linalg.norm(normals, axis=1)[:, None]
        if min(
            np.linalg.norm(normals[i] - normals[j], axis=-1)
            for i in range(nplanes)
            for j in range(i + 1, nplanes)
        ) < min_sep:
            continue
        offsets = rng.uniform(0.8, 1.4, nplanes)
        try:
            verts = halfspace_vertices(normals, offsets)
        except Exception:
            continue
        verts = np.unique(np.round(verts, 9), axis=0)
        cells = []
        ok = True
        for v in verts:
            incident = np.nonzero(np.abs(normals @ v - offsets) < 1e-7)[0]
            if len(incident) != 3:
                ok = False
                break
            cells.append(tuple(incident))
        if not ok or sorted({f for c in cells for f in c}) != list(range(nplanes)):
            continue
        # bounded exactly when the origin is strictly inside the normals' hull
        if np.any(ConvexHull(normals).equations[:, 3] >= 0.0):
            continue
        cells = tuple(_ccw_cell(normals, c) for c in cells)
        return Fan(equipment=normals, cells=cells), offsets


def random_hull_fan(rng, npoints=10, min_sep=0.4, with_supports=False):
    """Valid fan (plus supports) from the boundary of a random polytope.

    Random well-separated unit vectors are taken as polytope vertices; the
    hull's facet normals become the equipment and the hull vertices the
    cells, which is exactly the outward-equipped convex herisson.
    """
    while True:
        pts = rng.standard_normal((npoints, 3))
        pts /= np.linalg.norm(pts, axis=1)[:, None]
        ok = True
        for i in range(npoints):
            for j in range(i + 1, npoints):
                if np.linalg.norm(pts[i] - pts[j]) < min_sep:
                    ok = False
        if not ok:
            continue
        hull = ConvexHull(pts)
        normals = hull.equations[:, :3]
        scale = np.linalg.norm(normals, axis=1)
        normals = normals / scale[:, None]
        offsets = -hull.equations[:, 3] / scale
        incident = {v: [] for v in range(npoints)}
        for fi, simplex in enumerate(hull.simplices):
            for v in simplex:
                incident[v].append(fi)
        try:
            cells = tuple(_ccw_cell(normals, incident[v]) for v in sorted(incident))
        except Exception:
            continue
        fan = Fan(equipment=normals, cells=cells)
        return (fan, offsets) if with_supports else fan


def polar_fan(rng, m):
    """Normal fan of {x : n_j . x <= 1} for m random unit normals n_j.

    The hull triangles of the normals are the cells, turned counterclockwise
    as seen from outside; draws whose hull misses the origin are repeated.
    Valid and simple by construction, in general position with probability 1.
    """
    while True:
        normals = rng.standard_normal((m, 3))
        normals /= np.linalg.norm(normals, axis=1)[:, None]
        hull = ConvexHull(normals)
        if len(hull.vertices) == m and np.all(hull.equations[:, 3] < 0.0):
            break
    cells = []
    for a, b, c in hull.simplices:
        if np.linalg.det(normals[[a, b, c]]) < 0.0:
            b, c = c, b
        cells.append((int(a), int(b), int(c)))
    return Fan(equipment=normals, cells=tuple(cells))


# Scalar reference for the arc-crossing scan and the cell checks of
# fan.validate: one pair of arcs and one cell at a time, as the rules read.

def _angle(a, b):
    return float(np.arccos(np.clip(np.dot(a, b), -1.0, 1.0)))


def _strictly_inside(p, q, x, tol=TOUCH_TOL):
    """Whether x lies on the minor arc p-q, strictly away from the endpoints."""
    ap, aq = _angle(p, x), _angle(q, x)
    if ap <= tol or aq <= tol:
        return False
    return ap + aq <= _angle(p, q) + 1e-9


def _arcs_cross(p, q, a, b):
    """Whether minor arcs p-q and a-b meet away from shared endpoints."""
    d = np.cross(np.cross(p, q), np.cross(a, b))
    nd = np.linalg.norm(d)
    if nd < 1e-12:
        # Same great circle: overlap iff an endpoint of one arc sits strictly
        # inside the other, or the arcs coincide.
        if any(_strictly_inside(p, q, x) for x in (a, b)) or any(_strictly_inside(a, b, x) for x in (p, q)):
            return True
        same = _angle(p, a) <= TOUCH_TOL and _angle(q, b) <= TOUCH_TOL
        swapped = _angle(p, b) <= TOUCH_TOL and _angle(q, a) <= TOUCH_TOL
        return same or swapped
    x = d / nd
    return any(_strictly_inside(p, q, c) and _strictly_inside(a, b, c) for c in (x, -x))


def crossing_entries(fan):
    """'crossing arcs' entries from the scan over all pairs of sorted arcs."""
    eq = fan.equipment
    arcs = sorted(fan.arcs)
    entries = []
    for idx, (a, b) in enumerate(arcs):
        for c, d in arcs[idx + 1:]:
            if np.linalg.norm(eq[a] + eq[b]) <= ANTIPODAL_TOL or np.linalg.norm(eq[c] + eq[d]) <= ANTIPODAL_TOL:
                continue
            if _arcs_cross(eq[a], eq[b], eq[c], eq[d]):
                entries.append(("crossing arcs", f"arcs {(a, b)} and {(c, d)}"))
    return entries


def convexity_entries(fan):
    """'non-convex cell' entries, one cell and one corner triple at a time."""
    entries = []
    for ci, cell in enumerate(fan.cells):
        if len(set(cell)) < 3 or len(set(cell)) != len(cell):
            continue
        pts = fan.equipment[list(cell)]
        n = len(cell)
        if any(
            float(np.linalg.det(np.stack([pts[i], pts[(i + 1) % n], pts[k]]))) <= -CONVEXITY_TOL
            for i in range(n) for k in range(n) if k not in (i, (i + 1) % n)
        ):
            entries.append(("non-convex cell", f"cell {ci} is not a CCW convex spherical polygon"))
            continue
        area = np.cross(pts, np.roll(pts, -1, axis=0)).sum(axis=0)
        if np.linalg.norm(area) < 1e-12 or np.min(pts @ (area / np.linalg.norm(area))) <= HEMISPHERE_TOL:
            entries.append(("non-convex cell", f"cell {ci} is not inside an open hemisphere"))
    return entries
