"""Sign-counting machinery and congruence decisions.

Two ingredients decide whether parallel herissons of the same orientation
coincide up to translation: a circuit-counting lemma on sphere-homeomorphic
complexes (Cauchy) and an edge/vertex labeling of convex polygon pairs
(Alexandrov).  For herissons the polygon pairs share their edge-normal
fans, so only the longer/shorter rule ever fires and all vertices stay 0:
the polygon labels are the arc labels of edge_labeling read around each
face's ring, up to lengths within the equality tolerance (scaled by the
plane coordinates in label_parallel_faces, by the supports in
edge_labeling).  congruent_and_parallel decides from the arc labels and
runs the containment linear programs only when some label is nonzero.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import NotComparable, NotSameClass
from .fan import Fan, arc_key
from .geometry import Herisson, face_frame, support_scale

ANGLE_TOL = 1e-9        # radians, edge-normal matching
LENGTH_TOL = 1e-9       # relative, rule-(iv) equality
FIT_TOL = 1e-9          # relative, containment LP slack


def sign_changes(labels) -> int:
    """Count +1/-1 alternations around a cyclic sequence, ignoring zeros."""
    nz = [x for x in labels if x != 0]
    if not nz:
        return 0
    return sum(1 for a, b in zip(nz, nz[1:] + nz[:1]) if a != b)


class CauchyStatus(enum.Enum):
    ALL_ZERO = "all_zero"
    WITNESS = "witness"
    VIOLATES_LEMMA = "violates_lemma"


@dataclass(frozen=True)
class CauchyVerdict:
    status: CauchyStatus
    vertex: int | None = None
    index: int | None = None


def _ring_labels(fan: Fan, j: int, labels) -> list[int]:
    """The labels of the arcs around face j, in ring order."""
    idx = fan.ring_index
    return [labels[arc_key(j, k)] for k in idx.neighbor[idx.start[j]:idx.start[j + 1]].tolist()]


def cauchy_verdict(fan: Fan, labels) -> CauchyVerdict:
    """Apply the circuit lemma to a labeled fan.

    labels maps every arc (unordered face pair) to +1, 0 or -1.  Either all
    arcs are 0, or some face on a nonzero arc has at most two sign changes
    around its ring; a labeling admitting neither outcome would contradict
    the lemma and is reported as such.
    """
    lab = {arc_key(*arc): int(value) for arc, value in labels.items()}
    arcs = [tuple(arc) for arc in fan.arcs.tolist()]
    missing = [arc for arc in arcs if arc not in lab]
    if missing:
        raise ValueError(f"labeling misses arcs {missing}")
    if not any(lab[arc] for arc in arcs):
        return CauchyVerdict(CauchyStatus.ALL_ZERO)
    for j in range(fan.m):
        ring = _ring_labels(fan, j, lab)
        if not any(ring):
            continue
        index = sign_changes(ring)
        if index <= 2:
            return CauchyVerdict(CauchyStatus.WITNESS, vertex=j, index=index)
    return CauchyVerdict(CauchyStatus.VIOLATES_LEMMA)


# ---------------------------------------------------------------------------
# planar convex polygons


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


def can_translate_inside(p, q) -> bool:
    """Whether some translate of polygon p is a proper subset of polygon q.

    Feasibility of (c, u_i) <= h_q(u_i) - h_p(u_i) over the edge normals u_i
    of q, solved as a max-slack linear program; congruent translates are
    excluded because a copy of q placed inside q must coincide with it.
    """
    from scipy.optimize import linprog   # deferred: importing it costs most of `import herisson`

    p = _polygon_ccw(p)
    q = _polygon_ccw(q)
    scale = _poly_scale(p, q)
    normals, _lengths, _angles = _edge_data(q)
    b = np.array([_support(q, u) - _support(p, u) for u in normals])
    res = linprog(
        c=[0.0, 0.0, -1.0],
        A_ub=np.column_stack([normals, np.ones(len(normals))]),
        b_ub=b,
        bounds=[(None, None)] * 3,
        method="highs",
    )
    if not res.success or res.x[2] < -FIT_TOL * scale:
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
        index1=sign_changes(labels1),
        index2=sign_changes(labels2),
    )


# ---------------------------------------------------------------------------
# whole-herisson comparison


def face_polygon_2d(h: Herisson, j: int) -> np.ndarray:
    """Face j's polygon in the deterministic coordinates of its plane."""
    u, v = face_frame(h.fan.equipment[j])
    pts = h.face_polygon(j)
    return np.column_stack([pts @ u, pts @ v])


def edge_labeling(h1: Herisson, h2: Herisson) -> dict[tuple[int, int], int]:
    """Rule-(iv) labels on every arc: +1 where h1's edge is longer.

    Antisymmetric under swapping the herissons.  All zero is the ALL_ZERO
    outcome of cauchy_verdict on the fan; congruent_and_parallel decides
    from these labels.
    """
    l1 = h1.edge_lengths()
    l2 = h2.edge_lengths()
    tol = LENGTH_TOL * max(support_scale(h1.h), support_scale(h2.h))
    out = {}
    for arc in sorted(l1):
        d = l1[arc] - l2[arc]
        out[arc] = 0 if abs(d) <= tol else (1 if d > 0 else -1)
    return out


class CongruenceStatus(enum.Enum):
    CONGRUENT = "congruent"
    DISTINCT = "distinct"
    HYPOTHESIS_FAILURE = "hypothesis_failure"


@dataclass(frozen=True)
class CongruenceVerdict:
    status: CongruenceStatus
    translation: np.ndarray | None = None
    face: int | None = None
    index: int | None = None
    detail: str = ""

    @property
    def is_congruent(self) -> bool:
        return self.status is CongruenceStatus.CONGRUENT


def _check_same_class(h1: Herisson, h2: Herisson) -> None:
    if h1.fan.equipment.shape != h2.fan.equipment.shape or not np.allclose(
        h1.fan.equipment, h2.fan.equipment, rtol=0.0, atol=1e-9
    ):
        raise NotSameClass("equipments differ")
    if h1.fan.cells != h2.fan.cells:
        raise NotSameClass("sphere partitions differ")
    if not np.array_equal(h1.signs, h2.signs):
        raise NotSameClass("face signs differ")


def congruent_and_parallel(h1: Herisson, h2: Herisson) -> CongruenceVerdict:
    """Decide whether two parallel same-orientation herissons are translates.

    Refuses with NotSameClass when the inputs are not parallel and of the
    same orientation.  When every arc label of edge_labeling is 0, face 0's
    centroids give the translation c carrying the first herisson onto the
    second, and one check over all vertices confirms it (CONGRUENT) or names
    the lowest face holding a vertex off by more than 1e-8*scale (DISTINCT).
    Otherwise the faces are scanned in order for one that fits inside its
    parallel mate (HYPOTHESIS_FAILURE: the uniqueness hypothesis breaks
    down); if none does, DISTINCT names the lowest face whose ring carries a
    nonzero label, with index the sign-change count of that ring.
    """
    _check_same_class(h1, h2)
    labels = edge_labeling(h1, h2)
    if not any(labels.values()):
        c = h2.face_polygon(0).mean(axis=0) - h1.face_polygon(0).mean(axis=0)
        dev = np.linalg.norm(h1.vertices + c - h2.vertices, axis=1)
        idx = h1.fan.ring_index
        off = idx.owner[dev[idx.cell] > 1e-8 * max(h1.scale, h2.scale)]
        if not off.size:
            return CongruenceVerdict(CongruenceStatus.CONGRUENT, translation=c)
        j = int(off.min())
        worst = float(np.max(dev[list(h1.face_cycle(j))]))
        return CongruenceVerdict(
            CongruenceStatus.DISTINCT, face=j,
            detail=f"face {j} fails to coincide after superposition (dev {worst:.2e})",
        )

    for j in range(h1.m):
        p1, p2 = face_polygon_2d(h1, j), face_polygon_2d(h2, j)
        if can_translate_inside(p1, p2):
            return CongruenceVerdict(
                CongruenceStatus.HYPOTHESIS_FAILURE, face=j,
                detail=f"face {j} of the first fits inside the second",
            )
        if can_translate_inside(p2, p1):
            return CongruenceVerdict(
                CongruenceStatus.HYPOTHESIS_FAILURE, face=j,
                detail=f"face {j} of the second fits inside the first",
            )
    j = min(a for (a, _b), label in labels.items() if label)   # arcs are sorted pairs
    index = sign_changes(_ring_labels(h1.fan, j, labels))
    return CongruenceVerdict(
        CongruenceStatus.DISTINCT, face=j, index=index, detail=f"face {j} pair has index {index}",
    )
