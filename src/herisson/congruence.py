"""Sign-counting machinery and congruence decisions.

Two ingredients decide whether parallel herissons of the same orientation
coincide up to translation: a circuit-counting lemma on sphere-homeomorphic
complexes (Cauchy) and an edge labeling of parallel polygon pairs
(Alexandrov).  Parallel herissons share their fan, so each pair of parallel
faces shares its edge normals: only the longer/shorter rule of the polygon
labeling ever fires.  Its labels live on the (face, edge) incidences, which
are the positions of the fan's face rings; the two positions of one arc
carry the same label.  Whether a face fits inside its mate by a translation
is read from the same ring: edge p of face j has the outward normal u_p in
the plane of face j, a sign times the fan's u_jk (Fan.edge_frames), and the
face of h1 fits inside that of h2 iff some c in that plane has
u_p . c <= h2(u_p) - h1(u_p) for every p; on convex faces the right-hand
sides are the in-plane supports of the virtual polytope h2 - h1.
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


def sign_changes(labels) -> int:
    """Count +1/-1 alternations around a cyclic sequence, ignoring zeros."""
    nz = [x for x in labels if x != 0]
    return sum(1 for a, b in zip(nz, nz[1:] + nz[:1]) if a != b)


def _position_labels(h1: Herisson, h2: Herisson) -> np.ndarray:
    """Rule-(iv) label at every ring position, +1 where h1's edge is longer;
    the two positions of an arc hold opposite edge vectors, hence one label."""
    d = h1.ring_lengths - h2.ring_lengths
    return np.where(np.abs(d) <= LENGTH_TOL * max(h1.scale, h2.scale), 0, np.where(d > 0, 1, -1))


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


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", a, b)


def _fits(h1: Herisson, h2: Herisson, faces: np.ndarray, tol: float):
    """Yield, group by group, the (faces, directions) that fit by a translation.

    Direction 0 moves face j of h1 into face j of h2, direction 1 the
    reverse.  A row is one ring position p of the receiving face j, with the
    outward normal u_p = eps_j (e_p x n_j) / |e_p| of its edge
    e_p = V[succ] - V[cell] and the right-hand side beta_p: the max over the
    ring of u_p . (receiving vertex) minus that over the moved vertices,
    plus tol (the maxima keep non-convex faces right).  The bounded set
    {c : u_p . c <= beta_p} is non-empty iff the other constraints cut an
    interval from some line u_p . c = beta_p, which runs along n_j x u_p.
    As e_p runs along t_p, (n_j x u_p, u_p) is the fan's edge frame
    (t_p, u_jk) times s_p = eps_j sign(e_p . t_p); on an unchecked Herisson
    a zero-length edge gives s_p = 0, a zero row that constrains nothing.

    Segment s = 2i + d holds the k rows of faces[i] in direction d, each
    paired with the k constraints of its segment; segments come face by
    face, direction 0 first, so the first row yielded names the lowest face
    that fits.  They are read whole, in groups whose k^2 pairs stay within a
    budget that starts at the first segment's k^2 and grows fourfold up to
    SCAN_BLOCK; a lone segment of more pairs is read in pieces of
    SCAN_BLOCK // k rows, every piece's beta_p before the first test.
    """
    if not len(faces):
        return
    idx, d = h1.fan.ring_index, np.arange(2 * len(faces)) % 2
    k = np.repeat(idx.start[faces + 1] - idx.start[faces], 2)      # segment s = 2i + d: faces[i] in direction d
    seg_face, seg_end = np.repeat(faces, 2), np.cumsum(k)
    seg_row, pair_at = seg_end - k, np.concatenate([[0], np.cumsum(k * k)])   # pair_at[s]: pairs before s
    seg_pos = idx.start[seg_face] - seg_row      # row r of segment s is at ring position seg_pos[s] + r
    seg_vert = d * len(h1.vertices)   # in direction d a cell's (receiving, moved) vertices are both[d * V + cell]
    both = np.concatenate([np.concatenate([h2.vertices, h1.vertices], axis=1),
                           np.concatenate([h1.vertices, h2.vertices], axis=1)]).reshape(-1, 2, 3)
    verts, frames, sign = both[:, 0], h1.fan.edge_frames, h1.signs[seg_face]
    rows = seg_end[-1]
    ua, beta = np.empty((rows, 2, 3)), np.empty(rows)    # ua[r] = (line direction, u) of row r
    u, vert = ua[:, 1], np.empty(rows, dtype=int)        # vert[r]: the receiving vertex of row r's cell

    def pairs(r, s):
        """The offset of the first pair of each row r of segment s, and the row
        and the constraint row of every pair."""
        n = k[s]
        first = np.cumsum(n) - n
        return first, np.repeat(r, n), np.repeat(seg_row[s] - first, n) + np.arange(first[-1] + n[-1])

    # beta_of and test are functions so that what they gather, one piece at a time, dies on return
    def beta_of(r, s):
        """Take beta of the rows r of segments s, which have their geometry, and return their pairs."""
        found = first, row, other = pairs(r, s)
        up, rm = u[row], both[vert[other]]
        beta[r] = (np.maximum.reduceat(_dot(up, rm[:, 0]), first)
                   - np.maximum.reduceat(_dot(up, rm[:, 1]), first) + tol)
        return found

    def test(r, s, first, row, other):
        """The (faces, directions) of the rows r whose line keeps an interval: along the line
        of row r, constraint o has the slope u_o . (n x u_r) and the room beta_o - beta_r u_o . u_r."""
        uo, line = u[other], ua[row]
        slope, room = _dot(uo, line[:, 0]), beta[other] - beta[row] * _dot(uo, line[:, 1])
        own = first + r - seg_row[s]
        slope[own] = room[own] = 0.0              # the line's own constraint holds on it
        with np.errstate(divide="ignore", invalid="ignore"):
            bound = room / slope
        lo = np.where(slope >= 0, -np.inf, bound)
        hi = np.where(slope <= 0, np.inf, bound)
        miss = (slope == 0) & (room < 0)          # a parallel constraint the line violates
        lo[miss], hi[miss] = np.inf, -np.inf
        hit = s[np.flatnonzero(np.maximum.reduceat(lo, first) <= np.minimum.reduceat(hi, first))]
        return seg_face[hit], hit % 2

    s0, size = 0, min(int(k[0]) ** 2, SCAN_BLOCK)
    while s0 < len(k):
        s1 = max(int(np.searchsorted(pair_at, pair_at[s0] + size, side="right")) - 1, s0 + 1)
        # the group: segments s0..s1-1, whose rows r get u, the line direction and the receiving vertex
        r = np.arange(seg_row[s0], seg_end[s1 - 1])
        s = np.repeat(np.arange(s0, s1), k[s0:s1])
        pos, dv = seg_pos[s] + r, seg_vert[s]
        v = vert[r] = dv + idx.cell[pos]
        frame = frames[pos]
        edge = verts[dv + idx.cell[idx.next_pos[pos]]] - verts[v]
        ua[r] = frame * (sign[s] * np.sign(_dot(edge, frame[:, 0])))[:, None, None]
        # a group of more than SCAN_BLOCK pairs is one segment, read in pieces of whole rows
        step = len(r) if pair_at[s1] - pair_at[s0] <= SCAN_BLOCK else max(1, SCAN_BLOCK // int(k[s0]))
        pieces = [slice(a, a + step) for a in range(0, len(r), step)]
        # a piece's pairs (found) live until the next piece has taken its own: freed
        # first, they let malloc trim the heap and fault its pages in again
        for p in pieces:
            found = beta_of(r[p], s[p])
        for p in pieces:
            if len(pieces) > 1:                   # one piece tests the pairs its beta took
                found = pairs(r[p], s[p])
            yield test(r[p], s[p], *found)
        s0, size = s1, min(4 * size, SCAN_BLOCK)


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
    (DISTINCT).  Otherwise the faces whose rings carry a nonzero label are
    tested in order, the first herisson's face moved into the second's
    (direction 0) before the reverse (direction 1), for one that fits inside
    its parallel mate by a translation, within FIT_TOL times the scale
    (HYPOTHESIS_FAILURE: the uniqueness hypothesis breaks down).  One such
    face is a witness, so the test (_fits) stops at the first group of whole
    rings holding a fit: a fit of the lowest tested face in direction 0
    reads that one ring, and DISTINCT reads them all.  A face whose ring
    labels are all 0 is a translate of its mate and is not tested.  If no
    face fits, DISTINCT names the lowest face whose ring carries a nonzero
    label, with index the sign-change count of that ring.
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
    for face, direction in _fits(h1, h2, labeled, FIT_TOL * max(h1.scale, h2.scale)):
        if face.size:
            j, way = int(face[0]), int(direction[0])
            moved, receiving = ("second", "first") if way else ("first", "second")
            return CongruenceVerdict(
                CongruenceStatus.HYPOTHESIS_FAILURE, face=j, direction=way,
                detail=f"face {j} of the {moved} fits inside the {receiving}",
            )
    j = int(labeled[0])
    index = sign_changes(ring[idx.start[j]:idx.start[j + 1]].tolist())
    return CongruenceVerdict(
        CongruenceStatus.DISTINCT, face=j, index=index, detail=f"face {j} pair has index {index}",
    )
