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
polytope h2 - h1.  Edge lengths and fits are both measured against one
scale, the larger support scale of the two herissons.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import NotSameClass
from .fan import SCAN_BLOCK, Fan, _cross, arc_key
from .geometry import Herisson, _class_mismatch

LENGTH_TOL = 1e-9       # relative, rule-(iv) equality
FIT_TOL = 1e-9          # relative, containment slack


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


@dataclass(frozen=True)
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
    constraints cut a non-empty interval from some line u_p . c = beta_p.
    Rows go face by face, direction 0 before 1, so the first row yielded
    names the lowest face that fits, and a caller that stops there has paid
    for the rows up to that face.  The (row, constraint) pairs are walked in
    blocks that grow geometrically: the first holds the k rows of faces[0]
    in direction 0 (k^2 pairs), each later one four times as many pairs as
    the one before, up to SCAN_BLOCK.  A block takes the rows that start
    within its count of pairs, each row whole, and the support maxima of a
    face are taken just before its first block.
    """
    idx = h1.fan.ring_index
    k = np.repeat(np.diff(idx.start)[faces], 2)      # segment s = 2i + d: faces[i] in direction d
    seg_row, seg_face = np.cumsum(k) - k, np.repeat(faces, 2)
    row_seg = np.repeat(np.arange(len(k)), k)
    row_k, d = k[row_seg], row_seg % 2
    pos = idx.start[seg_face[row_seg]] + np.arange(len(row_seg)) - seg_row[row_seg]
    verts = np.stack([h2.vertices, h1.vertices])    # verts[d] receives in direction d
    edge = verts[d, idx.cell[idx.next_pos[pos]]] - verts[d, idx.cell[pos]]
    length = np.stack([h2.ring_lengths, h1.ring_lengths])[d, pos]
    normal = h1.fan.equipment[idx.owner[pos]]
    u = _cross(edge, normal) * (h1.signs[idx.owner[pos]] / length)[:, None]
    along = _cross(normal, u)

    before = np.cumsum(row_k) - row_k             # pairs before each row
    shift, cell = seg_row[row_seg] - before, idx.cell[pos]    # pair t of row r: constraint row shift[r] + t

    def items(r0, r1):
        """The row and the constraint row of every pair of rows r0..r1-1,
        and the rows' first pairs."""
        n, t0 = row_k[r0:r1], before[r0]
        row = np.repeat(np.arange(r0, r1), n)
        return row, np.repeat(shift[r0:r1], n) + np.arange(t0, t0 + len(row)), before[r0:r1] - t0

    cuts, size = [0], min(int(k[0]) ** 2, SCAN_BLOCK) if len(k) else 0
    while cuts[-1] < len(row_k):
        cuts.append(int(np.searchsorted(before, before[cuts[-1]] + size)))
        size = min(4 * size, SCAN_BLOCK)
    blocks = list(zip(cuts, cuts[1:]))
    beta, pending, ready = np.empty(len(row_k)), iter(blocks), 0
    for r0, r1 in blocks:
        last = row_seg[r1 - 1]
        while ready < seg_row[last] + k[last]:
            s0, ready = next(pending)
            row, other, first = items(s0, ready)
            up, cells, dr = u[row], cell[other], d[row]
            beta[s0:ready] = (np.maximum.reduceat(_dot(up, verts[dr, cells]), first)
                              - np.maximum.reduceat(_dot(up, verts[1 - dr, cells]), first) + tol)
        row, other, first = items(r0, r1)
        uo = u[other]
        slope = _dot(uo, along[row])
        room = beta[other] - beta[row] * _dot(uo, u[row])
        with np.errstate(divide="ignore", invalid="ignore"):
            bound = room / slope
        skip = other == row                       # the line's own constraint holds on it
        lo = np.where(skip | (slope >= 0), -np.inf, bound)
        hi = np.where(skip | (slope <= 0), np.inf, bound)
        miss = ~skip & (slope == 0) & (room < 0)   # a parallel constraint the line violates
        lo[miss], hi[miss] = np.inf, -np.inf
        hit = row_seg[r0 + np.flatnonzero(np.maximum.reduceat(lo, first) <= np.minimum.reduceat(hi, first))]
        yield seg_face[hit], hit % 2


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
    h2 - h1 (see _fits), stops at the first block holding a fit; its blocks
    follow the face order and grow from the rows of the lowest tested face,
    so a verdict costs work in proportion to the rows up to the face that
    fits.  A face whose ring labels are all 0 is a translate of its mate and
    is not tested.  If no face fits, DISTINCT names the lowest face
    whose ring carries a nonzero label, with index the sign-change count of
    that ring.  Edge lengths and fits are compared within 1e-9 times
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
