"""Shared oracles and generators for the test suite.

Everything here is deliberately independent of the code paths under test:
vertices come from scipy's halfspace intersection, areas from a classic
2-d shoelace in explicit plane coordinates, containment from linear
programs on planar polygons and from a brute-force grid of translations.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import astuple, dataclass

import numpy as np
from scipy.optimize import linprog
from scipy.spatial import ConvexHull, HalfspaceIntersection

from herisson import builders
from herisson.builders import _ccw_cell
from herisson.congruence import FIT_TOL, LENGTH_TOL
from herisson.errors import MalformedFan
from herisson.fan import (
    ANTIPODAL_TOL,
    CONVEXITY_TOL,
    GENERAL_POSITION_TOL,
    HEMISPHERE_TOL,
    SWEEP_SLACK,
    TOUCH_TOL,
    Fan,
)
from herisson.geometry import Herisson, face_frame


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
    return float(np.arccos(min(max(float(np.dot(a, b)), -1.0), 1.0)))    # NaN stays NaN


def _strictly_inside(p, q, x, tol=TOUCH_TOL):
    """Whether x lies on the minor arc p-q, strictly away from the endpoints."""
    ap, aq = _angle(p, x), _angle(q, x)
    if ap <= tol or aq <= tol:
        return False
    return ap + aq <= _angle(p, q) + 1e-9


def _arcs_cross(p, q, a, b, pq, ab):
    """Whether minor arcs p-q and a-b, on the great circles of normals
    pq = p x q and ab = a x b, meet away from shared endpoints."""
    d = np.cross(pq, ab)
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
    arcs = [tuple(arc) for arc in fan.arcs.tolist()]
    # taken once per arc: whether it is antipodal (then it takes no part) and its circle's normal
    antipodal = [np.linalg.norm(eq[a] + eq[b]) <= ANTIPODAL_TOL for a, b in arcs]
    normal = [np.cross(eq[a], eq[b]) for a, b in arcs]
    entries = []
    for i, (a, b) in enumerate(arcs):
        for j in range(i + 1, len(arcs)):
            (c, d), skip = arcs[j], antipodal[i] or antipodal[j]
            if not skip and _arcs_cross(eq[a], eq[b], eq[c], eq[d], normal[i], normal[j]):
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


def girard_excesses(fan):
    """Each cell's spherical excess by Girard's theorem, one cell and one corner
    at a time: the sum of its interior angles minus (n - 2) pi.  The angle at a
    corner turns, counterclockwise about the corner's normal, from the tangent
    towards the next corner to the tangent towards the previous one (atan2)."""
    excesses = []
    for cell in fan.cells:
        pts = fan.equipment[list(cell)]
        n, angles = len(pts), 0.0
        for i, here in enumerate(pts):
            ahead, back = pts[(i + 1) % n], pts[i - 1]
            ahead, back = ahead - (ahead @ here) * here, back - (back @ here) * here
            angles += float(np.mod(np.arctan2(here @ np.cross(ahead, back), ahead @ back), 2.0 * np.pi))
        excesses.append(angles - (n - 2) * np.pi)
    return excesses


# Scalar reference for the ring walk of Fan.ring_index: one face and one
# corner at a time, in dicts.

def node_chains(cells):
    """{face: (cell ring, neighbor ring)} for every face of the cells, faces
    in order of first appearance.

    Around face j the walk starts at the corner of least successor and goes
    on to the corner whose successor is the current corner's predecessor;
    it must pass every corner of j once and come back.  Raises the
    MalformedFan of the first ordered pair seen twice, else of the first
    face whose walk fails.
    """
    corners = {}
    for ci, cell in enumerate(cells):
        n = len(cell)
        for pos, j in enumerate(cell):
            pred, succ = cell[(pos - 1) % n], cell[(pos + 1) % n]
            slot = corners.setdefault(j, {})
            if succ in slot:
                raise MalformedFan(f"ordered face pair ({j},{succ}) appears twice")
            slot[succ] = (ci, pred)
    chains = {}
    for j, by_succ in corners.items():
        start = min(by_succ)
        ring_cells, neighbors = [], []
        s = start
        for step in range(len(by_succ)):
            if step and s == start:
                raise MalformedFan(f"fan of faces around face {j} does not close")
            if s not in by_succ:
                raise MalformedFan(f"open fan of faces around face {j}")
            ci, pred = by_succ[s]
            ring_cells.append(ci)
            neighbors.append(pred)
            s = pred
        if s != start:
            raise MalformedFan(f"fan of faces around face {j} does not close")
        chains[j] = (tuple(ring_cells), tuple(neighbors))
    return chains


def double_tetrahedron_fan():
    """Two regular-tetrahedron fans sharing face 0: faces 4-6 are faces 1-3
    turned by 60 degrees about face 0's normal, so face 0's corners form two
    cycles of three."""
    base = builders.regular_tetrahedron(1.0).fan
    n0 = base.equipment[0]
    c, s = np.cos(np.pi / 3), np.sin(np.pi / 3)
    turned = [c * v + s * np.cross(n0, v) + (1 - c) * (n0 @ v) * n0 for v in base.equipment[1:]]
    relabel = {0: 0, 1: 4, 2: 5, 3: 6}
    cells = base.cells + tuple(tuple(relabel[f] for f in cell) for cell in base.cells)
    return Fan(equipment=np.vstack([base.equipment, turned]), cells=cells)


def prism_fan(n):
    """Fan of the right prism over a regular n-gon: faces 0 and 1 are the top
    and bottom caps, faces 2..n+1 the laterals."""
    theta = 2.0 * np.pi * np.arange(n) / n
    eq = np.vstack([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], np.column_stack([np.cos(theta), np.sin(theta), np.zeros(n)])])
    cells = []
    for i in range(n):
        a, b = 2 + i, 2 + (i + 1) % n
        for cell in ((0, a, b), (1, b, a)):
            cells.append(cell if np.linalg.det(eq[list(cell)]) > 0.0 else (cell[0], cell[2], cell[1]))
    return Fan(equipment=eq, cells=tuple(cells))


# Planar reference for the containment test and the polygon labeling of
# congruence: one pair of faces at a time, in the coordinates of their plane,
# with scipy's linprog deciding containment.

ANGLE_TOL = 1e-9        # radians, edge-normal matching


class NotComparable(Exception):
    """Polygon pair outside the labeling rules: one fits inside the other."""


def _polygon_ccw(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    area2 = float(np.sum(pts[:, 0] * np.roll(pts[:, 1], -1) - np.roll(pts[:, 0], -1) * pts[:, 1]))
    if area2 < 0.0:
        pts = pts[::-1]
    return pts


def _edge_data(pts: np.ndarray):
    """Outward unit normals, lengths and normal angles of a CCW polygon."""
    edges = np.roll(pts, -1, axis=0) - pts
    lengths = np.linalg.norm(edges, axis=1)
    normals = np.column_stack([edges[:, 1], -edges[:, 0]]) / lengths[:, None]
    angles = np.arctan2(normals[:, 1], normals[:, 0])
    return normals, lengths, angles


def _poly_scale(*polys) -> float:
    return max(1.0, max(float(np.max(np.abs(p))) for p in polys))


def _support(pts: np.ndarray, direction) -> float:
    return float(np.max(pts @ np.asarray(direction)))


def _is_translate(p: np.ndarray, q: np.ndarray, tol: float) -> bool:
    if len(p) != len(q):
        return False
    shift = p.mean(axis=0) - q.mean(axis=0)
    moved = q + shift
    for offset in range(len(p)):
        if np.max(np.linalg.norm(np.roll(moved, -offset, axis=0) - p, axis=1)) <= tol:
            return True
    return False


def fit_slack(p, q) -> float:
    """Largest t such that (c, u_i) + t <= h_q(u_i) - h_p(u_i) for some c, over
    the edge normals u_i of polygon q: a max-slack linear program."""
    p = _polygon_ccw(p)
    q = _polygon_ccw(q)
    normals, _lengths, _angles = _edge_data(q)
    b = np.array([_support(q, u) - _support(p, u) for u in normals])
    res = linprog(
        c=[0.0, 0.0, -1.0],
        A_ub=np.column_stack([normals, np.ones(len(normals))]),
        b_ub=b,
        bounds=[(None, None)] * 3,
        method="highs",
    )
    return float(res.x[2]) if res.success else -np.inf


def can_translate_inside(p, q) -> bool:
    """Whether some translate of polygon p is a proper subset of polygon q.

    Feasibility of (c, u_i) <= h_q(u_i) - h_p(u_i) over the edge normals u_i
    of q, up to FIT_TOL times the plane scale; congruent translates are
    excluded because a copy of q placed inside q must coincide with it.
    """
    p = _polygon_ccw(p)
    q = _polygon_ccw(q)
    scale = _poly_scale(p, q)
    if fit_slack(p, q) < -FIT_TOL * scale:
        return False
    return not _is_translate(p, q, FIT_TOL * scale)


def _wrap(angle: float) -> float:
    return float(np.mod(angle, 2.0 * np.pi))


def _in_open_cone(angle: float, lo: float, hi: float) -> bool:
    """Whether angle lies strictly between lo and hi, counterclockwise."""
    span = _wrap(hi - lo)
    off = _wrap(angle - lo)
    return ANGLE_TOL < off < span - ANGLE_TOL


@dataclass(frozen=True)
class PolygonLabeling:
    """Alternating vertex/edge labels around each polygon plus the indices.

    labels are cyclic sequences [v0, e0, v1, e1, ...] where e_i is the edge
    from vertex i to vertex i+1; index_k counts the sign alternations around
    polygon k.  The lemma guarantees: either everything is 0 and the
    polygons are congruent translates, or both indices are at least 4.
    """

    labels1: tuple[int, ...]
    labels2: tuple[int, ...]
    index1: int
    index2: int

    @property
    def all_zero(self) -> bool:
        return not (any(self.labels1) or any(self.labels2))

    def edge_labels(self, which: int = 1) -> tuple[int, ...]:
        labels = self.labels1 if which == 1 else self.labels2
        return tuple(labels[1::2])


def cyclic_sign_changes(labels) -> int:
    """How often the sign changes from one nonzero label to the next, around
    the cycle: every nonzero label is compared with the nonzero one before it."""
    signs = [label for label in labels if label != 0]
    return sum(1 for i in range(len(signs)) if signs[i] != signs[i - 1])


def label_parallel_faces(f1, f2) -> PolygonLabeling:
    """Label a pair of parallel convex polygons and count sign changes.

    Rules: an edge facing an edge gives +1 to the longer and -1 to the
    shorter (0 to both when equal); an edge facing a vertex gives the edge
    +1 and the vertex -1; a vertex whose whole normal cone faces vertices
    stays 0.  Raises NotComparable when one polygon can be translated
    inside the other, where the rules say nothing.
    """
    p1 = _polygon_ccw(f1)
    p2 = _polygon_ccw(f2)
    if can_translate_inside(p1, p2) or can_translate_inside(p2, p1):
        raise NotComparable("one polygon fits inside the other by a translation")
    scale = _poly_scale(p1, p2)
    n1, len1, ang1 = _edge_data(p1)
    n2, len2, ang2 = _edge_data(p2)

    e1 = np.zeros(len(p1), dtype=int)
    e2 = np.zeros(len(p2), dtype=int)
    v1 = np.zeros(len(p1), dtype=int)
    v2 = np.zeros(len(p2), dtype=int)

    def vertex_cone(angles, i):
        # vertex i sits between edge i-1 and edge i
        return angles[i - 1], angles[i]

    matched2 = set()
    for i, a in enumerate(ang1):
        hits = [j for j, b in enumerate(ang2) if abs(_wrap(a - b + np.pi) - np.pi) <= ANGLE_TOL]
        if hits:
            j = hits[0]
            matched2.add(j)
            d = len1[i] - len2[j]
            if abs(d) > LENGTH_TOL * scale:
                e1[i], e2[j] = (1, -1) if d > 0 else (-1, 1)
        else:
            e1[i] = 1
            for j in range(len(p2)):
                lo, hi = vertex_cone(ang2, j)
                if _in_open_cone(a, lo, hi):
                    v2[j] = -1
                    break
    for j, b in enumerate(ang2):
        if j in matched2:
            continue
        e2[j] = 1
        for i in range(len(p1)):
            lo, hi = vertex_cone(ang1, i)
            if _in_open_cone(b, lo, hi):
                v1[i] = -1
                break

    labels1 = tuple(int(x) for pair in zip(v1, e1) for x in pair)
    labels2 = tuple(int(x) for pair in zip(v2, e2) for x in pair)
    return PolygonLabeling(
        labels1=labels1,
        labels2=labels2,
        index1=cyclic_sign_changes(labels1),
        index2=cyclic_sign_changes(labels2),
    )


def arc_lengths_loop(h: Herisson) -> dict[tuple[int, int], float]:
    """Length of the edge dual to each arc (a, b), a < b: the distance between the
    vertices of the two cells that hold a and b next to each other, each vertex
    solved on the planes of its cell's first three faces."""
    eq, cells = h.fan.equipment, h.fan.cells
    ends = {}
    for c, cell in enumerate(cells):
        for a, b in zip(cell, cell[1:] + cell[:1]):
            ends.setdefault((min(a, b), max(a, b)), []).append(c)
    vertex = [np.linalg.solve(eq[list(cell[:3])], h.h[list(cell[:3])]) for cell in cells]
    return {arc: float(np.linalg.norm(vertex[c] - vertex[d])) for arc, (c, d) in ends.items()}


def edge_labeling_loop(h1: Herisson, h2: Herisson) -> dict[tuple[int, int], int]:
    """Rule-(iv) arc labels from independently measured edge lengths, arc by arc."""
    l1 = arc_lengths_loop(h1)
    l2 = arc_lengths_loop(h2)
    tol = LENGTH_TOL * max(h1.scale, h2.scale)
    out = {}
    for arc in sorted(l1):
        d = l1[arc] - l2[arc]
        out[arc] = 0 if abs(d) <= tol else (1 if d > 0 else -1)
    return out


def face_polygon_2d(h: Herisson, j: int) -> np.ndarray:
    """Face j's polygon in the deterministic coordinates of its plane."""
    u, v = face_frame(h.fan.equipment[j])
    pts = h.face_polygon(j)
    return np.column_stack([pts @ u, pts @ v])


def brute_coplanar_triple(eq):
    """The first triple, in itertools.combinations order, whose determinant
    is at most GENERAL_POSITION_TOL in absolute value, or None."""
    triples = np.array(list(itertools.combinations(range(len(eq)), 3)), dtype=int).reshape(-1, 3)
    fails = np.flatnonzero(np.abs(np.linalg.det(eq[triples])) <= GENERAL_POSITION_TOL)
    return tuple(triples[fails[0]].tolist()) if fails.size else None


def outcome_digest(outcome) -> str:
    """sha256 of a SolveOutcome's status, t_reached, message and trace (floats
    by repr, which round-trips) and the bytes of h_final."""
    fields = (outcome.status.value, outcome.t_reached, outcome.message,
              [astuple(record) for record in outcome.trace])
    return hashlib.sha256(repr(fields).encode() + np.asarray(outcome.h_final).tobytes()).hexdigest()


def planted(eq, a, b, c, factor):
    """eq with n_c moved into the plane of n_a and n_b, then off it along
    their normal w so that |det(n_a, n_b, n_c)| = factor * GENERAL_POSITION_TOL."""
    eq = np.array(eq, dtype=float)
    w = np.cross(eq[a], eq[b])
    in_plane = 0.6 * eq[a] - 0.8 * eq[b]
    eq[c] = in_plane / np.linalg.norm(in_plane) + factor * GENERAL_POSITION_TOL / (w @ w) * w
    return eq


# Scalar references for fan.is_general_position and the fd Jacobian of the
# solver: one face i, and one probe pair, at a time.

def _window_pairs(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (p, p + 1), ..., (p, p + counts[p]) for every position p."""
    first = np.repeat(np.arange(len(counts)), counts)
    return first, first + 1 + np.arange(len(first)) - np.repeat(np.cumsum(counts) - counts, counts)


def general_position_loop(fan):
    """An angular sweep over the cross products n_i x n_j, one face i at a
    time: the verdict of is_general_position without its projections or blocks."""
    eq = fan.equipment
    if not np.all(np.isfinite(eq)):
        return False
    norms = np.linalg.norm(eq, axis=1)
    tol = GENERAL_POSITION_TOL + 64.0 * np.finfo(float).eps * float(np.max(norms, initial=0.0)) ** 3
    for i in range(fan.m - 2):
        cross = np.cross(eq[i], eq[i + 1:])
        r = np.linalg.norm(cross, axis=1)
        u = cross[np.argmax(r)]
        with np.errstate(divide="ignore", invalid="ignore"):
            phi = np.mod(np.arctan2(cross @ np.cross(eq[i], u) / norms[i], cross @ u), np.pi)
            width = np.minimum(SWEEP_SLACK * tol * norms[i] / (r * r.min()), np.pi / 2)
        phi = np.nan_to_num(phi)
        order = np.argsort(phi)
        phi = phi[order]
        width = np.nan_to_num(width, nan=np.pi / 2)[order] + 1e-12
        pos = np.arange(len(phi))
        counts = np.searchsorted(np.concatenate([phi, phi + np.pi]), phi + width, side="right") - pos - 1
        if not counts.any():
            continue
        first, second = _window_pairs(counts)
        j, k = order[first], order[second % len(phi)]
        rows = np.column_stack([np.full(len(j), i), i + 1 + np.minimum(j, k), i + 1 + np.maximum(j, k)])
        if np.any(np.abs(np.linalg.det(eq[rows])) <= GENERAL_POSITION_TOL):
            return False
    return True


def fd_jacobian_loop(fan, h, step):
    """Central differences of the area map, one realization per probe."""
    cols = []
    for j in range(fan.m):
        probe = np.zeros(fan.m)
        probe[j] = step
        plus = Herisson(fan, h + probe).oriented_areas
        minus = Herisson(fan, h - probe).oriented_areas
        cols.append((plus - minus) / (2.0 * step))
    return np.column_stack(cols)


# References for the realization layer: one 3x3 solve per cell in place of
# the fan's vertex map, and the oriented areas and analytic Jacobian of the
# first-three-planes model from cross products of its vertices, the Jacobian
# summed entry by entry.

def vertex_solve_loop(fan, h):
    """Vertices of (fan, h), each from np.linalg.solve on its cell's first three planes."""
    h = np.asarray(h, dtype=float)
    return np.array([np.linalg.solve(fan.equipment[list(cell[:3])], h[list(cell[:3])]) for cell in fan.cells])


def oriented_areas_cross(fan, vertices):
    """Oriented face areas, half the sums of (V_p x V_p+) . n_j over each ring."""
    idx = fan.ring_index
    crosses = np.cross(vertices[idx.cell], vertices[idx.cell[idx.next_pos]])
    return 0.5 * np.add.reduceat(np.einsum("ij,ij->i", crosses, fan.equipment[idx.owner]), idx.start[:-1])


def null_basis(fan):
    """(m, m - rank K) orthonormal basis of null(K), K = fan.consistency_matrix, by SVD; the identity when
    every cell is simple."""
    cons = fan.consistency_matrix
    if not cons.size:
        return np.eye(fan.m)
    _, sv, vt = np.linalg.svd(cons)
    return vt[int(np.sum(sv > 1e-12 * sv[0])):].T


def area_jacobian_cross(fan, vertices):
    """The analytic area Jacobian from the gradients 1/2 (V_p+ x n_j + n_j x V_p-) of
    the vertices, through each cell's block inverse, summed into J by np.add.at."""
    idx, n = fan.ring_index, fan.equipment[fan.ring_index.owner]
    prev_pos = np.argsort(idx.next_pos)         # the inverse permutation
    grads = 0.5 * (np.cross(vertices[idx.cell[idx.next_pos]], n) + np.cross(n, vertices[idx.cell[prev_pos]]))
    rows = np.einsum("ik,ikl->il", grads, fan.block_inverses[idx.cell])
    jac = np.zeros((fan.m, fan.m))
    np.add.at(jac, (idx.owner[:, None], idx.first3[idx.cell]), rows)
    return jac
