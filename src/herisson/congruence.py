"""Sign-counting machinery and congruence decisions.

Two ingredients decide whether parallel herissons of the same orientation
coincide up to translation: a circuit-counting lemma on sphere-homeomorphic
complexes (Cauchy) and an edge labeling of parallel polygon pairs
(Alexandrov).  Parallel herissons share their fan, so each pair of parallel
faces shares its edge normals: only the longer/shorter rule of the polygon
labeling ever fires.  Its labels live on the (face, edge) incidences, which
are the positions of the fan's face rings; the two positions of one arc
carry the same label, and edge_labeling lists it once per arc.  Whether a
face fits inside its mate by a translation is read from the same ring: edge
p of face j has the outward normal u_p in the plane of face j, and the face
of h1 fits inside that of h2 iff the translations c in that plane with
u_p . c <= h2(u_p) - h1(u_p) for every p form a non-empty set; on convex
faces the right-hand sides are the in-plane supports of the virtual
polytope h2 - h1.  One face that fits is a witness, so the search stops
at the first one: a verdict pays for the rings of the faces it tests, up to
that face, and nothing for the faces after it.  Edge lengths and fits are
both measured against one scale, the larger support scale of the two
herissons.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import NotSameClass
from .fan import SCAN_BLOCK, Fan, _cross, arc_key
from .geometry import Herisson, _class_mismatch

LENGTH_TOL = 1e-9       # relative to scale: rule-(iv) equality
FIT_TOL = 1e-9          # relative to scale: containment slack


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


def cauchy_verdict(fan: Fan, labels) -> CauchyVerdict:
    """Apply the circuit lemma to a labeled fan.

    labels maps every arc (unordered face pair) to +1, 0 or -1.  Either all
    arcs are 0, or some face on a nonzero arc has at most two sign changes
    around its ring; a labeling admitting neither outcome would contradict
    the lemma and is reported as such.  A key that is not an arc of the fan
    or a value other than -1, 0 and +1 raises ValueError naming the first.
    """
    arcs = [tuple(arc) for arc in fan.arcs.tolist()]
    known, lab = set(arcs), {}
    for arc, value in labels.items():
        if (key := arc_key(*arc)) not in known:
            raise ValueError(f"labeling has key {arc!r}, which is not an arc")
        if value not in (-1, 0, 1):
            raise ValueError(f"label {value!r} of arc {key} is not -1, 0 or +1")
        lab[key] = int(value)
    missing = [arc for arc in arcs if arc not in lab]
    if missing:
        raise ValueError(f"labeling misses arcs {missing}")
    if not any(lab[arc] for arc in arcs):
        return CauchyVerdict(CauchyStatus.ALL_ZERO)
    idx = fan.ring_index
    rings = [lab[arc_key(j, k)] for j, k in zip(idx.owner.tolist(), idx.neighbor.tolist())]
    for j in range(fan.m):
        ring = rings[idx.start[j]:idx.start[j + 1]]
        if not any(ring):
            continue
        index = sign_changes(ring)
        if index <= 2:
            return CauchyVerdict(CauchyStatus.WITNESS, vertex=j, index=index)
    return CauchyVerdict(CauchyStatus.VIOLATES_LEMMA)


# ---------------------------------------------------------------------------
# whole-herisson comparison


def _position_labels(h1: Herisson, h2: Herisson) -> np.ndarray:
    """Rule-(iv) label at every ring position, +1 where h1's edge is longer;
    the two positions of an arc hold opposite edge vectors, hence one label."""
    d = h1.ring_lengths - h2.ring_lengths
    return np.where(np.abs(d) <= LENGTH_TOL * max(h1.scale, h2.scale), 0, np.where(d > 0, 1, -1))


def edge_labeling(h1: Herisson, h2: Herisson) -> dict[tuple[int, int], int]:
    """Rule-(iv) labels on every arc: +1 where h1's edge is longer.

    Antisymmetric under swapping the herissons.  All zero is the ALL_ZERO
    outcome of cauchy_verdict on the fan; congruent_and_parallel decides
    from the same labels, read at the ring positions.
    """
    labels = _position_labels(h1, h2)[h1.fan.ring_index.arc_pos]
    return dict(zip(map(tuple, h1.fan.arcs.tolist()), labels.tolist()))


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
    """Yield, block by block, the (faces, directions) that fit by a translation.

    Direction 0 moves face j of h1 into face j of h2, direction 1 the
    reverse.  A row is one ring position p of the receiving face j, with the
    edge e_p = V[succ] - V[cell] and the outward normal
    u_p = eps_j (e_p x n_j) / |e_p| in the plane of face j, |e_p| read
    from the receiving surface's ring_lengths; its right-hand
    side beta_p is the max over the ring of u_p . (receiving vertex) minus
    the same max over the moved vertices, plus tol (the maxima keep
    non-convex faces right).  The face fits iff {c : u_p . c <= beta_p} is
    non-empty.  That set is bounded, so it is non-empty iff the other
    constraints cut a non-empty interval from some line u_p . c = beta_p,
    which runs along n_j x u_p.

    The rows come in segments s = 2i + d, the k rows of faces[i] in
    direction d, face by face and direction 0 before 1, so the first row
    yielded names the lowest face that fits.  Each row is paired with the k
    constraints of its segment.  The pairs are walked in blocks that grow
    geometrically: the first holds the k rows of faces[0] in direction 0
    (k^2 pairs), each later one four times as many pairs as the one before,
    up to SCAN_BLOCK.  A block takes the rows that start within its count
    of pairs, each row whole.  Only the segments (a few numbers per face)
    are laid out in advance, beside empty buffers for the rows; every
    per-row quantity (ring position, u_p, the line's direction, beta_p) is
    computed when a block first needs it.  A block's rows need beta_p of
    every row of their segments, so reaching a block computes u_p and the
    line's direction up to the end of the segment of its last row, and
    beta_p from its first row to that end, at most SCAN_BLOCK pairs at a
    time; the block's own pairs are the head of those.  What a caller that
    stops at the first block holding a fit pays thus grows with the rows up
    to the end of that block's last segment, and not with the faces after
    it.
    """
    if not len(faces):
        return
    idx, nv, d = h1.fan.ring_index, len(h1.vertices), np.arange(2 * len(faces)) % 2
    k = np.repeat(idx.start[faces + 1] - idx.start[faces], 2)      # segment s = 2i + d: faces[i] in direction d
    seg_face, seg_end = np.repeat(faces, 2), np.cumsum(k)
    seg_row, pairs_before = seg_end - k, np.cumsum(k * k) - k * k
    seg_pos = idx.start[seg_face] - seg_row      # row r of segment s is at ring position seg_pos[s] + r
    # in direction d a cell's (receiving, moved) vertices are both[d * V + cell], and the
    # receiving edge lengths are lengths[d * R + ring position]
    seg_vert, seg_len = d * nv, seg_pos + d * len(idx.cell)
    both = np.concatenate([np.concatenate([h2.vertices, h1.vertices], axis=1),
                           np.concatenate([h1.vertices, h2.vertices], axis=1)]).reshape(-1, 2, 3)
    verts, lengths = both[:, 0], np.concatenate([h2.ring_lengths, h1.ring_lengths])
    normal, sign = h1.fan.equipment[seg_face], h1.signs[seg_face]
    rows = seg_end[-1]
    ua, beta = np.empty((rows, 2, 3)), np.empty(rows)    # ua[r] = (line direction, u) of row r
    u, along = ua[:, 1], ua[:, 0]
    vert = np.empty(rows, dtype=int)              # the receiving vertex of each row's cell

    def cut(r0, t0, size):
        """The end r1 of the rows from r0 on that start within size pairs of
        row r0, which t0 pairs come before, the pairs before r1 and the end
        of the segment of row r1 - 1."""
        s = min(int(np.searchsorted(pairs_before, t0 + size, side="right")) - 1, len(k) - 1)
        i = min(-(-(t0 + size - pairs_before[s]) // k[s]), k[s])   # the first row at or after pair t0 + size
        return seg_row[s] + i, pairs_before[s] + i * k[s], seg_end[s] if i else seg_row[s]

    def geometry(r0, r1):
        """u, the line direction and the receiving vertex of rows r0..r1-1."""
        r = np.arange(r0, r1)
        s = np.searchsorted(seg_end, r, side="right")
        pos, dv, n = seg_pos[s] + r, seg_vert[s], normal[s]
        v = vert[r0:r1] = dv + idx.cell[pos]
        edge = verts[dv + idx.cell[idx.next_pos[pos]]] - verts[v]
        ur = u[r0:r1] = _cross(edge, n) * (sign[s] / lengths[seg_len[s] + r])[:, None]
        along[r0:r1] = _cross(n, ur)

    def pairs(r0, r1):
        """The segment of each row r0..r1-1 and the offset of its first pair,
        and the row and the constraint row of every pair."""
        r = np.arange(r0, r1)
        s = np.searchsorted(seg_end, r, side="right")
        n = k[s]
        first = np.cumsum(n) - n
        return s, first, np.repeat(r, n), np.repeat(seg_row[s] - first, n) + np.arange(first[-1] + n[-1])

    # beta_of and meet are functions so that their gathered arrays die on return: memory
    # stays near one piece of at most SCAN_BLOCK pairs
    def beta_of(r0, r1):
        """Take beta of rows r0..r1-1, whose segments have their geometry, and return their pairs."""
        found = _s, first, row, other = pairs(r0, r1)
        up, rm = u[row], both[vert[other]]
        beta[r0:r1] = (np.maximum.reduceat(_dot(up, rm[:, 0]), first)
                       - np.maximum.reduceat(_dot(up, rm[:, 1]), first) + tol)
        return found

    def meet(row, other):
        """The slope u_o . (n x u_r) and the room beta_o - beta_r u_o . u_r of
        constraint o along the line of row r, for every pair (r, o)."""
        uo, line = u[other], ua[row]
        return _dot(uo, line[:, 0]), beta[other] - beta[row] * _dot(uo, line[:, 1])

    ready = r0 = t0 = 0                           # the rows before ready have u, lines and beta
    size = min(int(k[0]) ** 2, SCAN_BLOCK)
    while r0 < rows:
        r1, t1, end = cut(r0, t0, size)           # the block: rows r0..r1-1
        whole = None                              # the pairs of rows r0..end-1, if taken at once
        if ready < end:
            # the constraints of a row are the rows of its segment, so beta is needed up to
            # end; it is taken for rows r0..end-1 at most SCAN_BLOCK pairs at a time, rows whole
            geometry(ready, end)
            c0, tc = r0, t0
            while c0 < end:
                c1, tc, _end = cut(c0, tc, SCAN_BLOCK)
                c1 = min(c1, end)
                whole = beta_of(c0, c1)           # dropped at once unless it holds all the rows
                if (c0, c1) != (r0, end):
                    whole = None
                c0 = c1
            ready = end
        s, first, row, other = whole or pairs(r0, r1)
        if r1 - r0 < len(first):                  # the block is the head of the rows r0..end-1
            head = first[r1 - r0]
            s, first, row, other = s[:r1 - r0], first[:r1 - r0], row[:head], other[:head]
        slope, room = meet(row, other)
        own = first + np.arange(r0, r1) - seg_row[s]
        slope[own] = room[own] = 0.0              # the line's own constraint holds on it
        with np.errstate(divide="ignore", invalid="ignore"):
            bound = room / slope
        lo = np.where(slope >= 0, -np.inf, bound)
        hi = np.where(slope <= 0, np.inf, bound)
        miss = (slope == 0) & (room < 0)          # a parallel constraint the line violates
        lo[miss], hi[miss] = np.inf, -np.inf
        hit = s[np.flatnonzero(np.maximum.reduceat(lo, first) <= np.minimum.reduceat(hi, first))]
        yield seg_face[hit], hit % 2
        r0, t0, size = r1, t1, min(4 * size, SCAN_BLOCK)


def congruent_and_parallel(h1: Herisson, h2: Herisson) -> CongruenceVerdict:
    """Decide whether two parallel same-orientation herissons are translates.

    Refuses with NotSameClass, naming the reason, when the inputs are not
    parallel and of the same orientation (geometry._class_mismatch).  When
    every ring label is 0, face 0's centroids give the translation c
    carrying the first herisson onto the second, and one check over all
    vertices confirms it (CONGRUENT) or names the lowest face holding a
    vertex off by more than 1e-8*scale (DISTINCT).  Otherwise the faces
    whose rings carry a nonzero label are tested in order, the first
    herisson's face moved into the second's before the reverse, for one that
    fits inside its parallel mate by a translation (HYPOTHESIS_FAILURE: the
    uniqueness hypothesis breaks down; direction is 0 when the first
    herisson's face moves into the second's, 1 for the reverse).  One such
    face is a witness, so the test, which reads the ring and the supports of
    h2 - h1 (see _fits), stops at the first block holding a fit.  Its blocks
    follow the face order and grow fourfold from the rows of the lowest
    tested face, and each row is read only when a block needs it.  So when
    the lowest tested face of the first herisson fits into the second's,
    the verdict reads that one ring; any other fit reads the rings up to the
    end of the block that holds it, and DISTINCT reads them all.  A face
    whose ring labels are all 0 is a translate of its mate and is not
    tested.  If no face fits, DISTINCT names the lowest face whose ring
    carries a nonzero label, with index the sign-change count of that ring.
    Edge lengths and fits are compared within 1e-9 times
    max(h1.scale, h2.scale).
    """
    if reason := _class_mismatch(h1, h2):
        raise NotSameClass(reason)
    ring = _position_labels(h1, h2)
    idx = h1.fan.ring_index
    if not ring.any():
        c = h2.face_polygon(0).mean(axis=0) - h1.face_polygon(0).mean(axis=0)
        dev = np.linalg.norm(h1.vertices + c - h2.vertices, axis=1)
        off = idx.owner[dev[idx.cell] > 1e-8 * max(h1.scale, h2.scale)]
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
