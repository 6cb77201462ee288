"""Equipment vectors and sphere-partition combinatorics.

A fan is the direction skeleton of a polyhedral hedgehog: m unit vectors
(one per face) plus the cells of the induced partition of the unit sphere.
Each cell lists the faces meeting at one surface vertex, counterclockwise
as seen from outside the sphere.  Incidence derives from the cells alone:
cells -> corner table (face, cell, succ, pred of every corner) -> arcs (its
unordered face pairs) -> face rings.  Table and arcs exist for any input.
Face j's ring starts at its least-succ corner and goes on to the corner of
j whose succ is the current pred.  Besides cells of fewer than 3 faces and
cells that miss a face or name one outside 0..m-1, the walk raises
MalformedFan when an ordered face pair appears twice, or, for the first
failing face by first appearance, when it meets a pred that is no succ of
the face ("open fan") or is not back at its start after exactly as many
steps as the face has corners ("does not close").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import MalformedFan, SingularVertex

UNIT_TOL = 1e-12
VERTEX_DET_TOL = 1e-12
ANTIPODAL_TOL = 1e-9
CONVEXITY_TOL = 1e-10
TOUCH_TOL = 1e-10          # radians: arc contacts closer than this count as endpoints
HEMISPHERE_TOL = 1e-9
GENERAL_POSITION_TOL = 1e-10
COVER_TOL = 1e-6           # radians: slack of the excess sum around 4*pi (the next degree is 8*pi)
SWEEP_SLACK = 8.0          # widens the angular windows of the general-position sweep for rounding
SCAN_BLOCK = 1 << 15       # arc pairs per block of the crossing scan


def arc_key(a: int, b: int) -> tuple[int, int]:
    """Canonical unordered key for the arc between faces a and b."""
    return (a, b) if a <= b else (b, a)


def _pair_runs(face: np.ndarray, a: np.ndarray, b: np.ndarray):
    """The distinct face pairs (a[i], b[i]) as sorted integer keys, how often
    each appears, and `labels`, the sorted face labels that decode them: a
    key is pos(a) * len(labels) + pos(b), where pos is a label's first
    position in `labels`, so no label value can make a key overflow."""
    labels = np.sort(face)
    key = np.sort(np.searchsorted(labels, a) * len(labels) + np.searchsorted(labels, b))
    first = np.flatnonzero(np.diff(key, prepend=-1))
    return key[first], np.diff(first, append=len(key)), labels


@dataclass(frozen=True)
class Fan:
    """Equipment plus sphere-partition cells; immutable after construction."""

    equipment: np.ndarray                  # (m, 3) unit directions
    cells: tuple[tuple[int, ...], ...]     # cyclic face lists, CCW from outside

    def __post_init__(self):
        eq = np.array(self.equipment, dtype=float)
        eq.setflags(write=False)
        object.__setattr__(self, "equipment", eq)
        cells = tuple(tuple(int(i) for i in c) for c in self.cells)
        if any(abs(i) >= 2**63 for c in cells for i in c):    # the corner table holds int64
            raise ValueError("a cell names a face index beyond 64 bits")
        object.__setattr__(self, "cells", cells)

    @property
    def m(self) -> int:
        return len(self.equipment)

    @cached_property
    def corners(self) -> np.ndarray:
        """(4, N) corner table: the rows face, cell, succ and pred, with the
        cells in order and each cell's corners in its cyclic order."""
        sizes = np.array([len(c) for c in self.cells], dtype=np.intp)
        face = np.fromiter((f for c in self.cells for f in c), dtype=np.intp, count=int(sizes.sum()))
        cell = np.repeat(np.arange(len(sizes)), sizes)
        first = np.repeat(np.cumsum(sizes) - sizes, sizes)
        pos, n = np.arange(len(face)) - first, sizes[cell]
        table = np.stack([face, cell, face[first + (pos + 1) % n], face[first + (pos - 1) % n]])
        table.setflags(write=False)
        return table

    @cached_property
    def arcs(self) -> np.ndarray:
        """(E, 2) arcs, as (low face, high face) rows in sorted order."""
        face, _, succ, _ = self.corners
        key, _, labels = _pair_runs(face, np.minimum(face, succ), np.maximum(face, succ))
        arcs = labels[np.column_stack([key // len(labels), key % len(labels)])]
        arcs.setflags(write=False)
        return arcs

    @cached_property
    def ring_index(self) -> RingIndex:
        (face, in_cell, succ, pred), m = self.corners, self.m
        sizes = np.bincount(in_cell, minlength=len(self.cells))
        if np.any(sizes < 3):
            raise MalformedFan(f"cell {int(np.argmax(sizes < 3))} has fewer than 3 faces")
        if set(face.tolist()) != set(range(m)):
            raise MalformedFan(f"the cells must use exactly the faces 0..{m - 1}")
        first = np.cumsum(sizes) - sizes
        beyond = np.arange(len(face)) - first[in_cell] >= 3    # corners past the first three

        # Sorted by (face, succ), face j's corners are the positions from
        # start[j] on, its least-succ corner first; nxt[s] is the position of
        # the corner after s, or n when there is none (and nxt[n] = n).
        key = face * m + succ
        order = np.argsort(key, kind="stable")
        key, n = key[order], len(order)
        repeat = order[1:][key[1:] == key[:-1]]
        if repeat.size:
            c = repeat.min()      # the first corner, in cell order, repeating a pair
            raise MalformedFan(f"ordered face pair ({face[c]},{succ[c]}) appears twice")
        want = (face * m + pred)[order]
        nxt = np.minimum(np.searchsorted(key, want), n - 1)
        nxt = np.append(np.where(key[nxt] == want, nxt, n), n)
        deg = np.bincount(face)
        start = np.cumsum(deg) - deg
        # all faces step together, those with more corners for longer
        ring, early = np.empty(n, dtype=np.intp), np.zeros(m, dtype=bool)
        live, at = np.arange(m), start
        for step in range(deg.max()):
            keep = deg[live] > step
            live, at = live[keep], at[keep]
            ring[start[live] + step] = at
            if step:
                early[live[at == start[live]]] = True
            at = nxt[at]
        last = ring[start + deg - 1]
        bad = (last == n) | early | (nxt[last] != start)
        if bad.any():
            appears = np.unique(face, return_index=True)[1]     # each face's first corner
            j = int(np.argmin(np.where(bad, appears, n)))
            if last[j] == n:
                raise MalformedFan(f"open fan of faces around face {j}")
            raise MalformedFan(f"fan of faces around face {j} does not close")

        corner = order[ring]
        owner, neighbor, cell = face[corner], pred[corner], in_cell[corner]
        k, size = np.arange(n) - start[owner], deg[owner]
        ring_succ, ring_pred = cell[start[owner] + (k + 1) % size], cell[start[owner] + (k - 1) % size]
        # np.unique sorts stably when asked for indices: the first position wins
        _, arc_pos = np.unique(np.minimum(owner, neighbor) * m + np.maximum(owner, neighbor), return_index=True)
        return RingIndex(
            face[first[:, None] + np.arange(3)], in_cell[beyond], face[beyond], owner, cell, ring_succ, ring_pred,
            neighbor, np.append(start, n), arc_pos,
        )

    @cached_property
    def vertex_blocks(self) -> np.ndarray:
        """(V, 3, 3) normals of each cell's first three faces, whose planes
        meet at the cell's vertex.  Raises SingularVertex for the first cell
        whose block is not finite or has |det| below VERTEX_DET_TOL."""
        blocks = self.equipment[self.ring_index.first3]
        finite = np.isfinite(blocks).all(axis=(1, 2))
        det = np.linalg.det(np.where(finite[:, None, None], blocks, 0.0))   # no det of a NaN: numpy warns
        bad = np.flatnonzero(~finite | (np.abs(det) < VERTEX_DET_TOL))
        if bad.size:
            ci = int(bad[0])
            kind = "coplanar" if finite[ci] else "non-finite"
            raise SingularVertex(f"cell {ci}: faces {self.cells[ci][:3]} have {kind} normals")
        blocks.setflags(write=False)
        return blocks

    @cached_property
    def block_inverses(self) -> np.ndarray:
        """(V, 3, 3) inverses of vertex_blocks."""
        return np.linalg.inv(self.vertex_blocks)

    def __eq__(self, other):
        if not isinstance(other, Fan):
            return NotImplemented
        return self.cells == other.cells and np.array_equal(self.equipment, other.equipment)

    def __hash__(self):
        return hash((self.cells, self.equipment.tobytes()))


@dataclass(frozen=True, eq=False)
class RingIndex:
    """Flat arrays over the cells and face rings of a fan.

    The face rings are concatenated face by face; ring position p is the
    corner cell[p] of face owner[p]'s polygon, and the polygon's edge at p
    runs from cell[p] to succ[p], dual to the arc (owner[p], neighbor[p]).
    Every vertex lies on the planes of the first three faces of its cell;
    the further faces of non-simple cells are the extra (cell, face) pairs,
    in cell order.  The module docstring says how the rings are walked.
    """

    first3: np.ndarray       # (V, 3) first three faces of each cell
    extra_cell: np.ndarray   # (X,) cell of each (cell, face) pair beyond the first three
    extra_face: np.ndarray   # (X,) face of that pair
    owner: np.ndarray        # (R,) face whose ring holds the position
    cell: np.ndarray         # (R,) cell at the position
    succ: np.ndarray         # (R,) cell at the next position of the same ring
    pred: np.ndarray         # (R,) cell at the previous position of the same ring
    neighbor: np.ndarray     # (R,) face across the edge at the position
    start: np.ndarray        # (m + 1,) face j's ring is positions start[j]:start[j + 1]
    arc_pos: np.ndarray      # (E,) first position whose edge is dual to fan.arcs[e]


@dataclass
class ValidationReport:
    """Accumulated rule violations; empty means the input is valid."""

    entries: list[tuple[str, str]] = field(default_factory=list)

    def add(self, code: str, detail: str) -> None:
        self.entries.append((code, detail))

    @property
    def ok(self) -> bool:
        return not self.entries

    @property
    def codes(self) -> set[str]:
        return {code for code, _ in self.entries}

    def __str__(self) -> str:
        if self.ok:
            return "valid"
        return "\n".join(f"{code}: {detail}" for code, detail in self.entries)


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products, rounded as the 1-D dot product of each row pair."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _angles(dots: np.ndarray) -> np.ndarray:
    """Angles between unit vectors, from their dot products."""
    return np.arccos(np.clip(dots, -1.0, 1.0))


def _inside(px: np.ndarray, qx: np.ndarray, span: np.ndarray) -> np.ndarray:
    """Whether x lies on the minor arc p-q of length span, strictly away from
    the endpoints, from the dot products p.x and q.x."""
    ap, aq = _angles(px), _angles(qx)
    return (ap > TOUCH_TOL) & (aq > TOUCH_TOL) & (ap + aq <= span + 1e-9)


@np.errstate(invalid="ignore")   # non-finite normals leave NaNs, which compare false
def _crossing_pairs(eq: np.ndarray, keys: np.ndarray, skip: np.ndarray) -> list[tuple[int, int]]:
    """Pairs (i, j), i < j in row-major order, of arcs keys[i] and keys[j]
    that meet away from shared endpoints; arcs flagged in skip take no part.

    The pairs are walked in blocks of SCAN_BLOCK, so memory stays
    O(E + SCAN_BLOCK) for E arcs.  Arcs on different great circles cross iff
    one of the circles' common points +-x is strictly inside both; arcs on one
    great circle cross iff an endpoint of one is strictly inside the other or
    the arcs coincide.  Dot products with -x are those with x negated, exactly.
    """
    keep = np.nonzero(~skip)[0]
    P, Q = eq[keys[keep, 0]], eq[keys[keep, 1]]
    normal, span = np.cross(P, Q), _angles(_rowdot(P, Q))
    n = len(keep)
    per_row = np.arange(n - 1, -1, -1)
    row_start, total = np.cumsum(per_row) - per_row, n * (n - 1) // 2
    found = []
    for k0 in range(0, total, SCAN_BLOCK):
        k = np.arange(k0, min(k0 + SCAN_BLOCK, total))
        i = np.searchsorted(row_start, k, side="right") - 1
        j = i + 1 + k - row_start[i]
        d = np.cross(normal[i], normal[j])
        nd = np.sqrt(_rowdot(d, d))
        cross = np.zeros(len(k), dtype=bool)
        same = np.nonzero(nd < 1e-12)[0]
        p, q, a, b = P[i[same]], Q[i[same]], P[j[same]], Q[j[same]]
        si, sj = span[i[same]], span[j[same]]
        pa, pb, qa, qb = _rowdot(p, a), _rowdot(p, b), _rowdot(q, a), _rowdot(q, b)
        cross[same] = (
            _inside(pa, qa, si) | _inside(pb, qb, si) | _inside(pa, pb, sj) | _inside(qa, qb, sj)
            | ((_angles(pa) <= TOUCH_TOL) & (_angles(qb) <= TOUCH_TOL))
            | ((_angles(pb) <= TOUCH_TOL) & (_angles(qa) <= TOUCH_TOL))
        )
        other = np.nonzero(nd >= 1e-12)[0]
        gi, gj, x = i[other], j[other], d[other] / nd[other, None]
        px, qx = _rowdot(P[gi], x), _rowdot(Q[gi], x)
        for sign in (1.0, -1.0):
            on = np.nonzero(_inside(sign * px, sign * qx, span[gi]))[0]
            y = sign * x[on]
            hit = _inside(_rowdot(P[gj[on]], y), _rowdot(Q[gj[on]], y), span[gj[on]])
            cross[other[on[hit]]] = True
        found += zip(keep[i[cross]].tolist(), keep[j[cross]].tolist())
    return found


@np.errstate(invalid="ignore")   # non-finite normals leave NaNs, which compare false
def _bad_cells(eq: np.ndarray, cells, checked: list[int]) -> list[str]:
    """Details, in cell order, of the cells in `checked` that are not CCW
    convex spherical polygons inside an open hemisphere.

    Cells of one size are checked together: one batched determinant over
    their (edge start, edge end, other corner) triples, n(n-2) for a cell of
    n faces, then the vector areas and the corners' products with them, all
    rounded as for one cell at a time.
    """
    bad = {}
    sizes = np.array([len(cells[ci]) for ci in checked], dtype=np.intp)
    for n in sorted(set(sizes.tolist())):   # a plain np.unique imports numpy.ma
        group = np.asarray(checked)[sizes == n]
        pts = eq[np.array([cells[ci] for ci in group])]         # (C, n, 3)
        nxt = np.roll(pts, -1, axis=1)
        others = (np.arange(n)[:, None] + np.arange(2, n)) % n   # corners off edge i
        mats = np.stack(np.broadcast_arrays(pts[:, :, None], nxt[:, :, None], pts[:, others]), axis=-2)
        convex = ~np.any(np.linalg.det(mats) <= -CONVEXITY_TOL, axis=(1, 2))
        # p_k . (vector area) sums the convexity determinants at p_k, so for a
        # convex cell it is positive exactly when the cell is in an open hemisphere
        area = np.cross(pts, nxt).sum(axis=1)
        norm = np.sqrt(_rowdot(area, area))
        small = norm < 1e-12
        unit = area / np.where(small, 1.0, norm)[:, None]
        low = np.min((pts @ unit[:, :, None])[:, :, 0], axis=1) <= HEMISPHERE_TOL
        for ci in group[~convex].tolist():
            bad[ci] = f"cell {ci} is not a CCW convex spherical polygon"
        for ci in group[convex & (small | low)].tolist():
            bad[ci] = f"cell {ci} is not inside an open hemisphere"
    return [bad[ci] for ci in sorted(bad)]


def _excess_sum(eq: np.ndarray, cells) -> float:
    """Sum of the cells' signed spherical excesses over a fan triangulation
    of each cell, in the Van Oosterom-Strackee form for unit vectors."""
    tris = np.array([(c[0], c[t], c[t + 1]) for c in cells for t in range(1, len(c) - 1)])
    a, b, c = eq[tris[:, 0]], eq[tris[:, 1]], eq[tris[:, 2]]
    det = np.einsum("ij,ij->i", a, np.cross(b, c))
    den = 1.0 + np.einsum("ij,ij->i", a, b) + np.einsum("ij,ij->i", b, c) + np.einsum("ij,ij->i", c, a)
    return float(2.0 * np.arctan2(det, den).sum())


def validate(fan: Fan) -> ValidationReport:
    """Check every partition rule on raw input; problems go into the report.

    Codes emitted: "non-unit vector", "antipodal adjacent pair",
    "crossing arcs", "non-convex cell", "Euler failure", "low face degree",
    "broken partition".  Deterministic and idempotent.

    Crossings are ruled out by a degree-one certificate when every other
    rule holds.  The cells then close up into a surface with V-E+F = 2 whose
    cells all map positively onto the sphere, so its degree is the sum of
    their spherical excesses over 4*pi, and every point off the arcs has
    exactly that many preimages.  A sum within COVER_TOL of 4*pi (degree
    one) leaves no room for an overlap, hence none for a crossing; a pinched
    face or a second sheet takes the sum to 8*pi or more.  Only when the
    certificate fails, or an earlier rule did, does the arc scan run: it
    names the crossing arcs, the pairs of sorted arcs in row-major order,
    antipodal arcs left out.  The scan is vectorized over blocks of
    SCAN_BLOCK arc pairs, so it takes O(E^2) time but O(E + SCAN_BLOCK)
    memory for E arcs.  Non-finite normals are reported as non-unit vectors
    and fail no other test.
    """
    report = ValidationReport()
    eq = fan.equipment
    m = fan.m

    norms = np.linalg.norm(eq, axis=1)
    for j in np.nonzero(~(np.abs(norms - 1.0) <= UNIT_TOL))[0]:   # NaN norms included
        report.add("non-unit vector", f"face {j} has norm {float(norms[j])!r}")

    # Manifold structure: every ordered pair of cyclically consecutive faces
    # must appear exactly once, and its reverse exactly once.
    for ci, cell in enumerate(fan.cells):
        if len(set(cell)) < 3:
            report.add("broken partition", f"cell {ci} has fewer than 3 distinct faces")
        if len(set(cell)) != len(cell):
            report.add("broken partition", f"cell {ci} repeats a face")
    face, _, succ, _ = fan.corners
    pairs, counts, labels = _pair_runs(face, face, succ)     # the ordered pairs, sorted
    k = len(labels)
    rev = pairs % k * k + pairs // k
    lonely = pairs[np.minimum(np.searchsorted(pairs, rev), len(pairs) - 1)] != rev
    for u in np.flatnonzero((counts > 1) | lonely):
        pair = (int(labels[pairs[u] // k]), int(labels[pairs[u] % k]))
        if counts[u] > 1:
            report.add("broken partition", f"ordered pair {pair} appears {counts[u]} times")
        if lonely[u]:
            report.add("broken partition", f"arc {arc_key(*pair)} borders only one cell")
    if np.any((face < 0) | (face >= m)):
        report.add("broken partition", "cell references a face index out of range")
        return report

    keys = fan.arcs
    arcs = [tuple(arc) for arc in keys.tolist()]
    ends = eq[keys[:, 0]] + eq[keys[:, 1]]
    antipodal = np.sqrt(_rowdot(ends, ends)) <= ANTIPODAL_TOL
    for e in np.nonzero(antipodal)[0]:
        report.add("antipodal adjacent pair", "faces {} and {}".format(*arcs[e]))

    degree = np.bincount(keys.ravel(), minlength=m)
    for j in np.nonzero(degree < 3)[0]:
        report.add("low face degree", f"face {j} lies on {degree[j]} arcs")

    if len(fan.cells) - len(arcs) + m != 2:
        report.add(
            "Euler failure",
            f"V-E+F = {len(fan.cells)}-{len(arcs)}+{m} = {len(fan.cells) - len(arcs) + m}",
        )

    # Convex spherical cells, counterclockwise, inside an open hemisphere.
    checked = [ci for ci, cell in enumerate(fan.cells) if len(set(cell)) == len(cell) >= 3]
    for detail in _bad_cells(eq, fan.cells, checked):
        report.add("non-convex cell", detail)

    if report.ok and abs(_excess_sum(eq, fan.cells) - 4.0 * np.pi) <= COVER_TOL:
        return report

    # Arc crossings (touching at shared endpoints is allowed).
    for i, j in _crossing_pairs(eq, keys, antipodal):
        report.add("crossing arcs", f"arcs {arcs[i]} and {arcs[j]}")

    return report


def _window_pairs(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (p, p + 1), ..., (p, p + counts[p]) for every position p."""
    first = np.repeat(np.arange(len(counts)), counts)
    return first, first + 1 + np.arange(len(first)) - np.repeat(np.cumsum(counts) - counts, counts)


def is_general_position(fan: Fan) -> bool:
    """True iff no three equipment vectors are coplanar: every triple i < j < k
    has |det(n_i, n_j, n_k)| > GENERAL_POSITION_TOL.

    An angular sweep per face i, in O(m^2 log m) time, finds the triples that
    can fail.  With c_j = n_i x n_j and phi_j its direction modulo pi in the
    plane normal to n_i, |det| |n_i| = |c_j| |c_k| |sin(phi_k - phi_j)|
    exactly, unit vectors or not.  So a pair (j, k) can fail only when its
    angle gap is within arcsin(tol |n_i| / (|c_j| |c_k|)) of 0 modulo pi,
    where tol adds a bound on the rounding of a 3x3 determinant to
    GENERAL_POSITION_TOL; the windows taken are SWEEP_SLACK times that wide
    (with min |c| in place of |c_k|), which also covers the rounding of the
    cross products and angles.  The determinant of every pair in a window is
    computed as np.linalg.det of the rows (i, j, k), and it alone decides.
    The faces i are swept in blocks of at most SCAN_BLOCK pairs (i, j), or
    one face, so memory stays O(m + SCAN_BLOCK) beside the window pairs,
    which are few unless many triples nearly fail.  Non-finite equipment is never in
    general position.
    """
    eq = fan.equipment
    if not np.all(np.isfinite(eq)):
        return False
    m = len(eq)
    norms = np.linalg.norm(eq, axis=1)
    tol = GENERAL_POSITION_TOL + 64.0 * np.finfo(float).eps * float(np.max(norms, initial=0.0)) ** 3
    per_block = max(1, SCAN_BLOCK // max(m, 1))    # faces i per block, each with fewer than m pairs
    for i0 in range(0, m - 2, per_block):
        i1 = min(i0 + per_block, m - 2)
        count = m - 1 - np.arange(i0, i1)          # one segment of pairs (i, j > i) per face i
        seg_start = np.cumsum(count) - count
        seg = np.repeat(np.arange(len(count)), count)
        face = i0 + seg
        other = face + 1 + np.arange(len(seg)) - seg_start[seg]
        cross = np.cross(eq[face], eq[other])
        r = np.linalg.norm(cross, axis=1)
        hits = np.flatnonzero(r == np.maximum.reduceat(r, seg_start)[seg])
        u = cross[hits[np.searchsorted(hits, seg_start)]]       # first longest c per face
        # a zero n_i leaves phi and width undefined: every pair is then a candidate
        with np.errstate(divide="ignore", invalid="ignore"):
            phi = np.mod(np.arctan2(
                _rowdot(cross, np.cross(eq[i0:i1], u)[seg]) / norms[face], _rowdot(cross, u[seg])), np.pi)
            width = np.minimum(SWEEP_SLACK * tol * norms[face] / (r * np.minimum.reduceat(r, seg_start)[seg]),
                               np.pi / 2)
        # sorting within segments leaves seg, seg_start and count valid
        order = np.lexsort((np.nan_to_num(phi), seg))
        phi = np.nan_to_num(phi)[order]
        width = np.nan_to_num(width, nan=np.pi / 2)[order] + 1e-12
        # forward windows over each face's angles and their copies shifted by
        # pi, searched in one sorted array of complex (face, angle) keys
        slot = seg_start[seg] + np.arange(len(seg))
        keys = np.empty(2 * len(seg), dtype=complex)
        keys[slot] = seg + 1j * phi
        keys[slot + count[seg]] = seg + 1j * (phi + np.pi)
        counts = np.searchsorted(keys, seg + 1j * (phi + width), side="right") - slot - 1
        if not counts.any():
            continue
        first, second = _window_pairs(counts)
        second = seg_start[seg[first]] + (second - seg_start[seg[first]]) % count[seg[first]]
        j, k = other[order[first]], other[order[second]]
        rows = np.column_stack([face[order[first]], np.minimum(j, k), np.maximum(j, k)])
        if np.any(np.abs(np.linalg.det(eq[rows])) <= GENERAL_POSITION_TOL):
            return False
    return True
