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
from .fan import SCAN_BLOCK, Fan, arc_key
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
    the lemma and is reported as such.
    """
    lab = {arc_key(*arc): int(value) for arc, value in labels.items()}
    arcs = [tuple(arc) for arc in fan.arcs.tolist()]
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
    names the lowest face that fits.  The (row, constraint) pairs are walked
    in blocks of about SCAN_BLOCK, each row whole in one block, and the
    support maxima of a face are taken just before its first block.
    """
    idx = h1.fan.ring_index
    k = np.repeat(np.diff(idx.start)[faces], 2)      # segment s = 2i + d: faces[i] in direction d
    seg_row, seg_face = np.cumsum(k) - k, np.repeat(faces, 2)
    row_seg = np.repeat(np.arange(len(k)), k)
    row_k, d = k[row_seg], row_seg % 2
    pos = idx.start[seg_face[row_seg]] + np.arange(len(row_seg)) - seg_row[row_seg]
    verts = np.stack([h2.vertices, h1.vertices])    # verts[d] receives in direction d
    edge = verts[d, idx.succ[pos]] - verts[d, idx.cell[pos]]
    length = np.stack([h2.ring_lengths, h1.ring_lengths])[d, pos]
    normal = h1.fan.equipment[idx.owner[pos]]
    u = np.cross(edge, normal) * (h1.signs[idx.owner[pos]] / length)[:, None]
    along = np.cross(normal, u)

    def items(r0, r1):
        """The row and the constraint row of every pair of rows r0..r1-1,
        and the rows' first pairs."""
        n = row_k[r0:r1]
        first = np.cumsum(n) - n
        row = np.repeat(np.arange(r0, r1), n)
        return row, seg_row[row_seg[row]] + np.arange(len(row)) - np.repeat(first, n), first

    before = np.cumsum(row_k) - row_k
    cuts = np.flatnonzero(np.diff(before // SCAN_BLOCK, prepend=-1)).tolist()
    blocks = list(zip(cuts, cuts[1:] + [len(row_k)]))
    beta, pending, ready = np.empty(len(row_k)), iter(blocks), 0
    for r0, r1 in blocks:
        last = row_seg[r1 - 1]
        while ready < seg_row[last] + k[last]:
            s0, ready = next(pending)
            row, other, first = items(s0, ready)
            up, cells, dr = u[row], idx.cell[pos[other]], d[row]
            beta[s0:ready] = (np.maximum.reduceat(_dot(up, verts[dr, cells]), first)
                              - np.maximum.reduceat(_dot(up, verts[1 - dr, cells]), first) + tol)
        row, other, first = items(r0, r1)
        slope = _dot(u[other], along[row])
        room = beta[other] - beta[row] * _dot(u[other], u[row])
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
    uniqueness hypothesis breaks down).  The test reads the ring and the
    supports of h2 - h1 (see _fits) and stops at the first block of faces
    holding a fit; a face whose ring labels are all 0 is a translate of its
    mate and is not tested.  If no face fits, DISTINCT names the lowest face
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
            j = int(face[0])
            moved, receiving = ("second", "first") if direction[0] else ("first", "second")
            return CongruenceVerdict(
                CongruenceStatus.HYPOTHESIS_FAILURE, face=j,
                detail=f"face {j} of the {moved} fits inside the {receiving}",
            )
    j = int(labeled[0])
    index = sign_changes(ring[idx.start[j]:idx.start[j + 1]].tolist())
    return CongruenceVerdict(
        CongruenceStatus.DISTINCT, face=j, index=index, detail=f"face {j} pair has index {index}",
    )
