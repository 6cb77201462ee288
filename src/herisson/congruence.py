"""Sign-counting machinery and congruence decisions.

Two ingredients decide whether parallel herissons of the same orientation
coincide up to translation: a circuit-counting lemma on sphere-homeomorphic
complexes (Cauchy) and an edge labeling of parallel polygon pairs
(Alexandrov).  Parallel herissons share their fan, so each pair of parallel
faces shares its edge normals: only the longer/shorter rule of the polygon
labeling ever fires, on |l_p| of the signed lengths (Herisson.signed_lengths).
Its labels live on the (face, edge) incidences, which are the positions of
the fan's face rings; the two positions of one arc carry one length, hence
one label.  Whether a face fits inside its mate by a translation is read
from the same ring: edge p of face j has the outward normal u_p in the plane
of face j, the fan's u_jk (Fan.edge_frames) times eps_j sign(l_p), and the
face of h1 fits inside that of h2 iff some c in that plane has
u_p . c <= h2(u_p) - h1(u_p) for every p; on convex faces the right-hand
sides are the in-plane supports of the virtual polytope h2 - h1.

Some faces need no test.  When face j is convex in both herissons (eps_j
l_p > 0 around its ring) and every label of its ring is -1, the virtual
polygon h2 - h1 in its plane is a real convex polygon, the one whose edges
are |l2_p| - |l1_p| > 0 along the ring's directions; face j of h2 is the
Minkowski sum of face j of h1 and that polygon, so face j of h1 fits inside
it (_nested_faces).  congruent_and_parallel line-tests only the labeled
faces below the lowest such face.

The fit test (_fits) reads faces in blocks.  A segment is one face in one
direction; a row is one of its edges, whose line is tested, and a
constraint is one of its edges, tested along that line, so a segment of k
edges has k^2 (row, constraint) pairs.  A group of segments is padded to
its largest ring, (S, K) positions, and its pairs come from batched
products (S, K, 3) @ (S, 3, K) and reductions over the constraints; the
_fits docstring says why a padded position neither constrains nor reports
and how SCAN_BLOCK bounds a group.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFace, NotSameClass
from .fan import SCAN_BLOCK
from .geometry import Herisson, _class_mismatch

LENGTH_TOL = 1e-9         # relative to scale: rule-(iv) equality
FIT_TOL = 1e-9            # relative to scale: containment slack
SUPERPOSITION_TOL = 1e-8  # relative to scale: vertex offset once face 0's centroids coincide


def _position_labels(h1: Herisson, h2: Herisson) -> np.ndarray:
    """Rule-(iv) label at every ring position, +1 where h1's edge is longer (|l_p|
    of Herisson.signed_lengths); the two positions of an arc hold one length, hence one label."""
    d, tol = np.abs(h1.signed_lengths) - np.abs(h2.signed_lengths), LENGTH_TOL * max(h1.scale, h2.scale)
    return (d > tol).astype(int) - (d < -tol)


class CongruenceStatus(enum.Enum):
    CONGRUENT = "congruent"
    DISTINCT = "distinct"
    HYPOTHESIS_FAILURE = "hypothesis_failure"


@dataclass(frozen=True, eq=False)
class CongruenceVerdict:
    status: CongruenceStatus
    translation: np.ndarray | None = None
    face: int | None = None
    index: int | None = None
    detail: str = ""
    direction: int | None = None    # HYPOTHESIS_FAILURE: 0 moves h1's face into h2's, 1 the reverse

    @property
    def is_congruent(self) -> bool:
        return self.status is CongruenceStatus.CONGRUENT


def _block_dot(cols: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """out[o, s, r] = cols[s, o] . rows[s, :, r]: the products (S, K, 3) @ (S, 3, r) of the K
    constraints of each segment s with r of its rows, laid out (K, S, r) so that a reduction
    over the constraints runs along the rows of every segment at once."""
    out = np.empty((cols.shape[1], len(cols), rows.shape[2]))
    np.matmul(cols, rows, out=out.transpose(1, 0, 2))
    return out


def _fits(h1: Herisson, h2: Herisson, faces: np.ndarray, tol: float):
    """Yield, group by group, the (faces, directions) that fit by a translation.

    Direction 0 moves face j of h1 into face j of h2, direction 1 the
    reverse.  Segment s = 2i + d is faces[i] in direction d.  Its k rows and
    its k constraints are both the ring positions p of the receiving face j:
    the edge e_p = V[succ] - V[cell] there has the outward normal
    u_p = eps_j (e_p x n_j) / |e_p| and the right-hand side beta_p, the max
    over the ring of u_p . (receiving vertex) minus that over the moved
    vertices, plus tol (the maxima keep non-convex faces right).  The
    bounded set {c : u_p . c <= beta_p} is non-empty iff the constraints cut
    an interval from the line u_r . c = beta_r of some row r, which runs
    along n_j x u_r.  As e_p runs along t_p, (n_j x u_p, u_p) is the fan's
    edge frame (t_p, u_jk) times s_p = eps_j sign(l_p), l_p = e_p . t_p the
    receiving surface's signed length; on an unchecked Herisson a
    zero-length edge gives s_p = 0, a zero row that constrains nothing.

    A group of S segments is one block of ring positions (S, K), K its
    largest ring, and each shorter ring is padded by repeating its last
    position.  A padded position gets s_p = 0, so its constraint is a zero
    row, slope 0 and room tol along every line, which constrains nothing,
    and a mask keeps its own line out of the yield; its vertex repeats a
    real one, so the maxima in beta_p do not move.  Segments come face by
    face, direction 0 first, and a group yields its rows in (segment, row)
    order, so the first row yielded names the lowest face that fits.  A
    group takes whole segments while its S K^2 padded (row, constraint)
    pairs stay within a budget that starts at the first segment's k^2 and
    grows fourfold per group up to SCAN_BLOCK, which bounds the memory of
    each product; a lone segment of more pairs is read in pieces of
    SCAN_BLOCK // K rows, every piece's beta_p before the first test.
    """
    if not len(faces):
        return
    idx, seg_face, seg_dir = h1.fan.ring_index, np.repeat(faces, 2), np.arange(2 * len(faces)) % 2
    seg_start, seg_sign = idx.start[seg_face], h1.signs[seg_face]
    k = idx.start[seg_face + 1] - seg_start
    verts = np.concatenate([h2.vertices, h1.vertices]).reshape(2, -1, 3)   # receiving verts[d], moved verts[1 - d]
    lengths = np.stack([h2.signed_lengths, h1.signed_lengths])               # receiving lengths[d]
    s0, size = 0, min(int(k[0]) ** 2, SCAN_BLOCK)
    while s0 < len(k):
        widest = np.maximum.accumulate(k[s0:s0 + size])    # a group holds at most size segments
        n = max(1, int(np.searchsorted(np.arange(1, len(widest) + 1) * widest ** 2, size, side="right")))
        s, K = slice(s0, s0 + n), int(widest[n - 1])
        col = np.arange(K)
        real = col < k[s, None]
        pos = seg_start[s, None] + np.minimum(col, k[s, None] - 1)
        d, cell = seg_dir[s, None], idx.cell[pos]
        receiving, moved = verts[d, cell], verts[1 - d, cell]
        frame = h1.fan.edge_frames[pos]
        s_p = seg_sign[s, None] * np.sign(lengths[d, pos]) * real
        ends = frame.transpose(2, 0, 1, 3) * s_p[..., None]     # (line direction, u) of every row: (2, S, K, 3)
        u, (line_t, u_t) = ends[1], np.ascontiguousarray(ends.swapaxes(-1, -2))    # line_t, u_t: (S, 3, K)
        step = K if n * K * K <= SCAN_BLOCK else max(1, SCAN_BLOCK // K)
        pieces = [slice(a, a + step) for a in range(0, K, step)]
        beta = np.concatenate([_block_dot(receiving, u_t[..., p]).max(axis=0)
                               - _block_dot(moved, u_t[..., p]).max(axis=0) for p in pieces], axis=1) + tol
        for p in pieces:
            # along the line of row r, constraint o has the slope u_o . (n x u_r)
            # and the room beta_o - beta_r u_o . u_r
            slope = _block_dot(u, line_t[..., p])
            room = beta.T[..., None] - beta[:, p] * _block_dot(u, u_t[..., p])
            own = col[p]                              # the line's own constraint holds on it
            slope[own, :, own - p.start] = room[own, :, own - p.start] = 0.0
            with np.errstate(divide="ignore", invalid="ignore"):
                bound = room / slope
            lo = np.where(slope >= 0, -np.inf, bound).max(axis=0)
            hi = np.where(slope <= 0, np.inf, bound).min(axis=0)
            miss = ((slope == 0) & (room < 0)).any(axis=0)     # a parallel constraint the line violates
            hit = s0 + np.nonzero((lo <= hi) & ~miss & real[:, p])[0]
            yield seg_face[hit], seg_dir[hit]
        s0, size = s0 + n, min(4 * size, SCAN_BLOCK)


def _nested_faces(h1: Herisson, h2: Herisson, ring: np.ndarray) -> np.ndarray:
    """(m,) mask of the faces j whose ring labels are all -1 and which are convex
    in both herissons, eps_j l_p > 0 at every position p of the ring.

    On a valid fan the edge directions eps_j t_p of such a ring turn once
    around, so face j is a convex polygon in both, and face j of h2 is the
    Minkowski sum of face j of h1 and the convex polygon whose edges run
    along the same directions with the lengths |l2_p| - |l1_p| > 0: face j
    of h1 fits inside its mate by a translation (direction 0), no line test
    needed.  The convexity mask is taken only when some ring is all -1.
    """
    idx = h1.fan.ring_index
    shorter = np.maximum.reduceat(ring, idx.start[:-1]) < 0
    if not shorter.any():
        return shorter
    eps = h1.signs[idx.owner]
    return shorter & np.logical_and.reduceat((eps * h1.signed_lengths > 0) & (eps * h2.signed_lengths > 0),
                                             idx.start[:-1])


def congruent_and_parallel(h1: Herisson, h2: Herisson) -> CongruenceVerdict:
    """Decide whether two parallel same-orientation herissons are translates.

    Refuses with NotSameClass, naming the reason, when the inputs are not
    parallel and of the same orientation (geometry._class_mismatch), and
    with DegenerateFace, naming the lowest one, when faces have zero area
    (sign 0, as unchecked Herissons may have): such a face would fit either
    way.  The scale is max(h1.scale, h2.scale), and edge lengths are compared
    within LENGTH_TOL times it.  When every ring label is 0, face 0's centroids
    give the translation c carrying the first herisson onto the second, and
    one check over all vertices confirms it (CONGRUENT) or names the lowest
    face holding a vertex off by more than SUPERPOSITION_TOL times the scale
    (DISTINCT).  Otherwise some face fits inside its parallel mate by a
    translation, within FIT_TOL times the scale (HYPOTHESIS_FAILURE: the
    uniqueness hypothesis breaks down), or none does (DISTINCT).  The
    verdict names the lowest face that fits, and, for that face, direction
    0 (the first herisson's face moved into the second's) before direction
    1, decided in this order:

    1. A face whose ring labels are all 0 is a translate of its mate and is
       not tested.
    2. The lowest nested face J (_nested_faces) is one that is convex in
       both herissons and whose ring labels are all -1: its mate is its
       Minkowski sum with a convex polygon, so it fits in direction 0.
    3. The labeled faces below J are tested in order by the line test
       (_fits), which stops at the first group of whole rings holding a
       fit; a fit of the lowest tested face in direction 0 reads that one
       ring.
    4. If none of them fits, J in direction 0 is the witness, and none of
       its rows are read; with no nested face, every labeled ring is read.

    If no face fits, DISTINCT names the lowest face whose ring carries a
    nonzero label, with index the sign-change count of that ring.
    """
    if reason := _class_mismatch(h1, h2):
        raise NotSameClass(reason)
    if (flat := (h1.signs == 0).nonzero()[0]).size:      # the signs are h2's too
        raise DegenerateFace(f"face {flat[0]} has zero area")
    ring = _position_labels(h1, h2)
    idx = h1.fan.ring_index
    if not ring.any():
        c = h2.face_polygon(0).mean(axis=0) - h1.face_polygon(0).mean(axis=0)
        dev = np.linalg.norm(h1.vertices + c - h2.vertices, axis=1)
        off = idx.owner[dev[idx.cell] > SUPERPOSITION_TOL * max(h1.scale, h2.scale)]
        if not off.size:
            return CongruenceVerdict(CongruenceStatus.CONGRUENT, translation=c)
        j = int(off.min())
        worst = float(np.max(dev[list(h1.face_cycle(j))]))
        return CongruenceVerdict(
            CongruenceStatus.DISTINCT, face=j,
            detail=f"face {j} fails to coincide after superposition (dev {worst:.2e})",
        )

    labeled = np.flatnonzero(np.add.reduceat(np.abs(ring), idx.start[:-1]))
    nested = int(np.argmax(np.append(_nested_faces(h1, h2, ring), True)))    # the lowest, m if none
    tol = FIT_TOL * max(h1.scale, h2.scale)
    fits = ((int(face[0]), int(direction[0])) for face, direction in _fits(h1, h2, labeled[labeled < nested], tol)
            if face.size)
    j, way = next(fits, (nested, 0))
    if j < h1.m:
        moved, receiving = ("second", "first") if way else ("first", "second")
        return CongruenceVerdict(
            CongruenceStatus.HYPOTHESIS_FAILURE, face=j, direction=way,
            detail=f"face {j} of the {moved} fits inside the {receiving}",
        )
    j = int(labeled[0])
    signs = ring[(idx.owner == j) & (ring != 0)]      # the nonzero labels of face j's ring, in ring order
    index = int(np.count_nonzero(signs != np.roll(signs, 1)))     # +1/-1 alternations around it
    return CongruenceVerdict(
        CongruenceStatus.DISTINCT, face=j, index=index, detail=f"face {j} pair has index {index}",
    )
