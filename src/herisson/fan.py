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

A Fan caches what it derives (see Fan), read-only, by one rule: a cached
value depends only on `equipment`, `cells` and module constants.  A test
that changes such a constant (VERTEX_DET_TOL for the vertex map and all built
on it; GENERAL_POSITION_TOL, SWEEP_SLACK, WINDOW_PAD or SCAN_BLOCK for the
witness) builds a fresh Fan.  Vertices, face areas and congruence fits go
through these caches, so no per-call work factors a block or takes a cross
product.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DegenerateEquipment, MalformedFan, SingularVertex

UNIT_TOL = 1e-12           # absolute: slack of a normal's norm around 1
VERTEX_DET_TOL = 1e-12     # absolute: least |det| of a cell's first three normals
ANTIPODAL_TOL = 1e-9       # absolute: least |n_a + n_b| of the ends of an arc
CONVEXITY_TOL = 1e-10      # absolute: corner determinants det(n_i, n_i+1, n_k) down to -this pass
TOUCH_TOL = 1e-10          # radians: arc contacts closer than this count as endpoints
HEMISPHERE_TOL = 1e-9      # absolute: least n_k . (unit vector area) of a cell inside a hemisphere
GENERAL_POSITION_TOL = 1e-10   # absolute: least |det| of three normals in general position
COVER_TOL = 1e-6           # radians: slack of the excess sum around +-4*pi (the next degree is +-8*pi)
ARC_SPAN_TOL = 1e-9        # radians: slack of ap + aq <= span when a point lies on an arc p-q (_inside)
SAME_CIRCLE_TOL = 1e-12    # absolute: least |n_i x n_j| of the circle normals of arcs on two great circles
ZERO_AREA_TOL = 1e-12      # absolute: least |vector area| of a cell that has a direction
SPAN_DET_TOL = 1e-12       # absolute: least |det(E^T E)| of equipment that spans 3-space
CAP_SLACK = 1e-4           # radians: widens the arcs' bounding caps in the crossing scan (see _crossing_pairs)
SWEEP_SLACK = 8.0          # widens the angular windows of the general-position sweep for rounding
WINDOW_PAD = 1e-12         # radians: added to every angular window of the general-position sweep
# Work per block of the blocked scans, which bounds their memory: cap tests and
# candidate arc pairs in the crossing scan, (face, normal) projections in the
# general-position sweep, ring positions of the fd probes, whose lengths and areas
# are taken together, and (row, constraint) pairs of the congruence fits, whose faces
# stay whole unless one face alone holds more (then its rows stay whole).
SCAN_BLOCK = 1 << 15


def _pair_runs(face: np.ndarray, a: np.ndarray, b: np.ndarray):
    """The distinct face pairs (a[i], b[i]) as sorted integer keys, how often
    each appears, and `labels`, the sorted face labels that decode them: a
    key is pos(a) * len(labels) + pos(b), where pos is a label's first
    position in `labels`, so no label value can make a key overflow."""
    labels = np.sort(face)
    key = np.sort(np.searchsorted(labels, a) * len(labels) + np.searchsorted(labels, b))
    cut = np.concatenate(([key.size > 0], key[1:] != key[:-1], [True])).nonzero()[0]   # run starts, then the end
    return key[cut[:-1]], cut[1:] - cut[:-1], labels


def _frozen(a: np.ndarray) -> np.ndarray:
    """a, made read-only, as every array a Fan caches."""
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Fan:
    """Equipment plus sphere-partition cells, immutable; it caches, by the module's rule, corners, arcs, ring_index,
    block_inverses (the vertex map), edge_frames (edge directions), edge_rows (signed length and edge support maps),
    consistency_matrix, translation_gram and coplanar_triple (the general-position witness), once per Fan."""

    equipment: np.ndarray                  # (m, 3) unit directions
    cells: tuple[tuple[int, ...], ...]     # cyclic face lists, CCW from outside

    def __post_init__(self):
        eq = np.array(self.equipment, dtype=float)
        if eq.ndim != 2 or eq.shape[1] != 3:
            raise ValueError("equipment must be a list of 3-vectors")
        eq.setflags(write=False)
        object.__setattr__(self, "equipment", eq)
        cells = tuple(tuple(c) for c in self.cells)
        for k, c in enumerate(cells):
            for i, label in enumerate(c):
                if isinstance(label, bool) or not isinstance(label, (int, np.integer)):
                    raise ValueError(f"cells[{k}][{i}] = {label!r} is not an integer")
        cells = tuple(tuple(int(i) for i in c) for c in cells)
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
        return _frozen(np.stack([face, cell, face[first + (pos + 1) % n], face[first + (pos - 1) % n]]))

    @cached_property
    def arcs(self) -> np.ndarray:
        """(E, 2) arcs, as (low face, high face) rows in sorted order."""
        face, _, succ, _ = self.corners
        key, _, labels = _pair_runs(face, np.minimum(face, succ), np.maximum(face, succ))
        return _frozen(labels[np.column_stack([key // len(labels), key % len(labels)])])

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
        return RingIndex(*map(_frozen, (
            face[first[:, None] + np.arange(3)], in_cell[beyond], face[beyond], owner, cell,
            start[owner] + (k + 1) % size, neighbor, np.append(start, n),
        )))

    @cached_property
    def block_inverses(self) -> np.ndarray:
        """(V, 3, 3) inverses of the normals of each cell's first three faces: the vertex map, which
        sends their supports to the cell's vertex.  Raises SingularVertex, before anything is inverted,
        for the first cell whose block is not finite or has |det| below VERTEX_DET_TOL."""
        blocks = self.equipment[self.ring_index.first3]
        finite = np.isfinite(blocks).all(axis=(1, 2))
        det = np.linalg.det(np.where(finite[:, None, None], blocks, 0.0))   # no det of a NaN: numpy warns
        bad = np.flatnonzero(~finite | (np.abs(det) < VERTEX_DET_TOL))
        if bad.size:
            ci = int(bad[0])
            kind = "coplanar" if finite[ci] else "non-finite"
            raise SingularVertex(f"cell {ci}: faces {self.cells[ci][:3]} have {kind} normals")
        return _frozen(np.linalg.inv(blocks))

    @cached_property
    def edge_frames(self) -> np.ndarray:
        """(R, 2, 3) rows t_p = n_j x n_k / |n_j x n_k| ([p, 0]) and u_jk = t_p x n_j ([p, 1]) of ring
        position p of face j across the arc to face k: the edge at p runs along t_p, and u_jk is the unit
        projection of n_k onto the plane of j.  The twin position of an arc holds -t_p."""
        idx, eq = self.ring_index, self.equipment
        normal = eq[idx.owner]
        t = _cross(normal, eq[idx.neighbor])
        t /= np.linalg.norm(t, axis=1)[:, None]
        return _frozen(np.stack([t, _cross(t, normal)], axis=1))

    @cached_property
    def edge_rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Sparse rows of l = L h and sigma = S h (geometry).  (6, R) columns and coefficients of l_p =
        t_p . (V_c' - V_c), c = cell[p], c' = cell[next_pos[p]], V_c = A_c h on c's first3, rows 0-2 the arc's
        cell of lower index and rows 3-5 the other, so an arc's two positions hold the same entries; _dot2 sums
        t_p^T A, which cancels in ill-conditioned cells.  Then (R,) csc and cot of theta_jk, j = owner[p], k =
        neighbor[p], the weights of h_k and -h_j in sigma_p; in general (n_j . n_j, n_j . n_k) / |n_j x n_k|,
        which weighs face j's area by |n_j|."""
        idx, inverses, eq = self.ring_index, self.block_inverses, self.equipment
        pair = np.sort([idx.cell, idx.cell[idx.next_pos]], axis=0)      # (2, R) the edge's cells, lower index first
        t = np.where(idx.cell == pair[0], 1.0, -1.0)[:, None] * self.edge_frames[:, 0]
        cols = np.concatenate(idx.first3[pair].swapaxes(1, 2))
        coeffs = np.concatenate(_dot2(np.stack([-t, t]), inverses[pair]).swapaxes(1, 2))
        normal, other = eq[idx.owner], eq[idx.neighbor]
        sine = np.linalg.norm(_cross(normal, other - normal), axis=1)     # |n_j x n_k|, accurate as n_k nears n_j
        return tuple(map(_frozen, (cols, coeffs, _rowdot(normal, normal) / sine, _rowdot(normal, other) / sine)))

    @cached_property
    def consistency_matrix(self) -> np.ndarray:
        """(X, m) rows K, (K h)_k = (n_f, v_c) - h_f for the k-th extra (cell c, face f), v_c = c's vertex."""
        idx = self.ring_index
        rows = np.arange(len(idx.extra_face))
        cons = np.zeros((len(rows), self.m))
        coeffs = np.einsum("ik,ikl->il", self.equipment[idx.extra_face], self.block_inverses[idx.extra_cell])
        cons[rows[:, None], idx.first3[idx.extra_cell]] = coeffs
        cons[rows, idx.extra_face] -= 1.0
        return _frozen(cons)

    @cached_property
    def translation_gram(self) -> np.ndarray:
        """(3, 3) E^T E of the equipment; a |det| below SPAN_DET_TOL raises DegenerateEquipment on every read."""
        gram = self.equipment.T @ self.equipment
        if abs(float(np.linalg.det(gram))) < SPAN_DET_TOL:
            raise DegenerateEquipment("equipment does not span 3-space")
        return _frozen(gram)

    @cached_property
    def coplanar_triple(self) -> tuple[int, int, int] | None:
        """The least triple failing is_general_position, or None (_coplanar_triple)."""
        return _coplanar_triple(self.equipment)

    def __eq__(self, other):
        if not isinstance(other, Fan):
            return NotImplemented
        return self.cells == other.cells and np.array_equal(self.equipment, other.equipment)

    def __hash__(self):
        return hash((self.cells, (self.equipment + 0.0).tobytes()))     # -0.0 + 0.0 is +0.0, as __eq__ sees it


@dataclass(frozen=True, eq=False)
class RingIndex:
    """Flat arrays over the cells and face rings of a fan.

    The face rings are concatenated face by face; ring position p is the
    corner cell[p] of face owner[p]'s polygon, and the polygon's edge at p
    runs from cell[p] to cell[next_pos[p]], dual to the arc (owner[p],
    neighbor[p]).  Each arc has its edge at two positions, one of each face,
    and the positions with owner < neighbor name every arc once.  The walk
    (module docstring) rejects a repeated ordered face pair, so (owner[p],
    neighbor[p]) is a different entry of an (m, m) matrix at every position.
    Every vertex lies on the planes of the first three faces of its cell; the
    further faces of non-simple cells are the extra (cell, face) pairs, in
    cell order.
    """

    first3: np.ndarray       # (V, 3) first three faces of each cell
    extra_cell: np.ndarray   # (X,) cell of each (cell, face) pair beyond the first three
    extra_face: np.ndarray   # (X,) face of that pair
    owner: np.ndarray        # (R,) face whose ring holds the position
    cell: np.ndarray         # (R,) cell at the position
    next_pos: np.ndarray     # (R,) next position of the same ring
    neighbor: np.ndarray     # (R,) face across the edge at the position
    start: np.ndarray        # (m + 1,) face j's ring is positions start[j]:start[j + 1]


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


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.cross of 3-vectors on the last axis, bit for bit, without its axis handling."""
    out = np.empty(np.broadcast(a, b).shape)
    out[..., 0] = a[..., 1] * b[..., 2] - a[..., 2] * b[..., 1]
    out[..., 1] = a[..., 2] * b[..., 0] - a[..., 0] * b[..., 2]
    out[..., 2] = a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]
    return out


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products, rounded as the 1-D dot product of each row pair."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _dot2(t: np.ndarray, a: np.ndarray) -> np.ndarray:
    """(..., 3) rows t^T a of t (..., 3) and a (..., 3, 3), as accurate as if summed in twice the working
    precision and rounded once: Ogita, Rump and Oishi's Dot2 over Dekker's exact products."""
    x, y = t[..., :, None], a
    xh, yh = (v * 134217729.0 - (v * 134217729.0 - v) for v in (x, y))    # Veltkamp's split by 2^27 + 1
    p, xl, yl = x * y, x - xh, y - yh
    err = ((xh * yh - p) + xh * yl + xl * yh) + xl * yl      # p + err = x * y exactly
    total, err = p[..., 0, :], (err[..., 0, :] + err[..., 1, :]) + err[..., 2, :]
    for q in (p[..., 1, :], p[..., 2, :]):
        old, total = total, total + q
        z = total - old
        err = err + ((old - (total - z)) + (q - z))
    return total + err


def _angles(dots: np.ndarray) -> np.ndarray:
    """Angles between unit vectors, from their dot products."""
    return np.arccos(np.clip(dots, -1.0, 1.0))


def _inside(px: np.ndarray, qx: np.ndarray, span: np.ndarray) -> np.ndarray:
    """Whether x lies on the minor arc p-q of length span, strictly away from
    the endpoints, from the dot products p.x and q.x."""
    ap, aq = _angles(px), _angles(qx)
    return (ap > TOUCH_TOL) & (aq > TOUCH_TOL) & (ap + aq <= span + ARC_SPAN_TOL)


def _near_pairs(centre: np.ndarray, radius: np.ndarray, i0: int, i1: int) -> tuple[np.ndarray, np.ndarray]:
    """Pairs (i, j), i0 <= i < i1 and i < j, in row-major order, whose caps meet:
    angle(centre[i], centre[j]) <= radius[i] + radius[j], or the angle is NaN."""
    near = ~(np.arccos(centre[i0:i1] @ centre[i0 + 1:].T) - radius[i0 + 1:] > radius[i0:i1, None])
    near[:, :i1 - i0] = np.triu(near[:, :i1 - i0])      # column c is arc i0 + 1 + c
    i, j = np.nonzero(near)
    return i + i0, j + i0 + 1


@np.errstate(invalid="ignore")   # non-finite normals leave NaNs, which compare false
def _crossing_pairs(eq: np.ndarray, keys: np.ndarray, skip: np.ndarray) -> list[tuple[int, int]]:
    """Pairs (i, j), i < j in row-major order, of arcs keys[i] and keys[j]
    that meet away from shared endpoints; arcs flagged in skip take no part.

    Only pairs whose bounding caps meet (_near_pairs) get the exact test: arc
    p-q lies within span/2 of c = (p + q)/|p + q|, so caps of radius r = (span
    + CAP_SLACK)/2 meet when angle(c_i, c_j) <= r_i + r_j.  The slack covers
    ARC_SPAN_TOL (ap + aq <= L puts x within L/2 of c while L/2 <= pi/2, as
    cos d(x, c) 2cos(span/2) = p.x + q.x), TOUCH_TOL and rounding: normals
    within UNIT_TOL give dot products off by e <= 2.1e-12, which moves arccos
    by (pi/sqrt(2)) sqrt(e) = 3.2e-6 rad at most, under 3e-5 rad over the
    angles of two arcs and their centres.  The cap of an arc that reaches a
    hemisphere, or has an endpoint failing UNIT_TOL (the test is then not
    geometric), is the sphere.  The exact test takes blocks of SCAN_BLOCK
    candidates: arcs on different great circles cross iff one of the circles'
    common points +-x is strictly inside both; arcs on one great circle cross
    iff an endpoint of one is strictly inside the other or the arcs coincide.
    Dot products with -x are those with x negated, exactly.
    """
    keep = np.nonzero(~skip)[0]
    P, Q = eq[keys[keep, 0]], eq[keys[keep, 1]]
    normal, span = _cross(P, Q), _angles(_rowdot(P, Q))
    centre = (P + Q) / np.linalg.norm(P + Q, axis=1)[:, None]
    unit = (np.abs(np.linalg.norm(eq, axis=1) - 1.0) <= UNIT_TOL)[keys[keep]].all(axis=1)
    radius = np.where(unit & (span + CAP_SLACK < np.pi), (span + CAP_SLACK) / 2, np.pi)
    n, found, i0 = len(keep), [], 0
    while i0 < n - 1:      # rows i0..i1 - 1: at most SCAN_BLOCK cap tests
        i1 = i0 + max(1, SCAN_BLOCK // (n - 1 - i0))
        near_i, near_j = _near_pairs(centre, radius, i0, i1)
        for k0 in range(0, len(near_i), SCAN_BLOCK):
            i, j = near_i[k0:k0 + SCAN_BLOCK], near_j[k0:k0 + SCAN_BLOCK]
            d = _cross(normal[i], normal[j])
            nd = np.sqrt(_rowdot(d, d))
            cross = np.zeros(len(i), dtype=bool)
            same, other = np.nonzero(nd < SAME_CIRCLE_TOL)[0], np.nonzero(nd >= SAME_CIRCLE_TOL)[0]
            if same.size:       # rare: most candidates lie on two great circles
                p, q, a, b = P[i[same]], Q[i[same]], P[j[same]], Q[j[same]]
                si, sj = span[i[same]], span[j[same]]
                pa, pb, qa, qb = _rowdot(p, a), _rowdot(p, b), _rowdot(q, a), _rowdot(q, b)
                cross[same] = (
                    _inside(pa, qa, si) | _inside(pb, qb, si) | _inside(pa, pb, sj) | _inside(qa, qb, sj)
                    | ((_angles(pa) <= TOUCH_TOL) & (_angles(qb) <= TOUCH_TOL))
                    | ((_angles(pb) <= TOUCH_TOL) & (_angles(qa) <= TOUCH_TOL))
                )
            if other.size:
                gi, gj, x = i[other], j[other], d[other] / nd[other, None]
                px, qx = _rowdot(P[gi], x), _rowdot(Q[gi], x)
                for sign in (1.0, -1.0):
                    on = np.nonzero(_inside(sign * px, sign * qx, span[gi]))[0]
                    y = sign * x[on]
                    hit = _inside(_rowdot(P[gj[on]], y), _rowdot(Q[gj[on]], y), span[gj[on]])
                    cross[other[on[hit]]] = True
            found += zip(keep[i[cross]].tolist(), keep[j[cross]].tolist())
        i0 = i1
    return found


def _caps(face: np.ndarray, succ: np.ndarray, count: int) -> np.ndarray | None:
    """(3, L) corner rows face, cell and succ of the caps 0, 1, ... that close
    the holes of a fan whose missing ordered pairs are (face[i], succ[i]), or
    None unless those pairs chain into `count` simple cycles, each face
    leaving once and entering once.  A cap's corners follow its cycle, so it
    turns as the cells around it do.  With no cell repeating a face, every
    cycle has 3 or more faces: the reverse of a missing pair is some cell's
    pair, so not missing."""
    nxt = dict(zip(face.tolist(), succ.tolist()))
    if len(nxt) < len(face) or set(nxt.values()) != nxt.keys():
        return None
    rows, cap = [], 0
    while nxt:
        start = at = next(iter(nxt))
        while True:
            rows.append((at, cap, nxt[at]))
            if (at := nxt.pop(at)) == start:
                break
        cap += 1
    return np.array(rows, dtype=np.intp).T if cap == count else None


@np.errstate(invalid="ignore")   # non-finite normals leave NaNs, which compare false
def _bad_cells(eq: np.ndarray, corners: np.ndarray, sizes: np.ndarray, checked: np.ndarray,
               turn: np.ndarray, certify: bool, caps: np.ndarray | None) -> tuple[list[str], float]:
    """Details, in cell order, of the cells flagged in `checked` that are not
    CCW convex spherical polygons inside an open hemisphere; and, if `certify`
    and every checked cell passes in one orientation, the sum of the cells'
    signed spherical excesses, else NaN.  The cells of `caps` (_caps), cells
    V, V + 1, ... after the fan's V, are checked and summed too, never named.

    Cells of one size are checked together from the corner products turn[i] = n_i x n_i+1:
    the determinants det(n_i, n_i+1, n_k) = turn[i] . n_k of the corners k off each edge,
    then the vector areas (sums of turn rows) and the corners' products with them.  A cell
    whose triple products overflow takes np.linalg.det of its (n_i, n_i+1, n_k) instead.  A
    clockwise cell passes the same tests on the negated determinants and products; they
    run only once the first size's cells fail counterclockwise, and its excess is negative.
    A cell's excess sums the Van Oosterom-Strackee angles of its triangles (c_0, c_t, c_t+1),
    0 < t < n - 1, whose numerators det(c_t, c_t+1, c_0) are determinants of corners t.
    """
    face, cell, succ = corners[:3]
    shown = len(sizes)
    if caps is not None:     # cap c is cell shown + c
        face, cell, succ = np.concatenate([corners[:3], caps + [[0], [shown], [0]]], axis=1)
        turn = np.concatenate([turn, _cross(eq[caps[0]], eq[caps[2]])])
        sizes = np.append(sizes, np.bincount(caps[1]))
        checked = np.append(checked, np.ones(len(sizes) - shown, dtype=bool))
    convex, pointed = np.ones(len(sizes), dtype=bool), np.ones(len(sizes), dtype=bool)
    excess, orient = 0.0, 1.0 if certify else 0.0     # orient: +-1 while the cells so far turn one way, else 0
    for later, n in enumerate(sorted(set(sizes[checked].tolist()))):   # a plain np.unique imports numpy.ma
        at = (checked[cell] & (sizes[cell] == n)).nonzero()[0].reshape(-1, n)    # a cell's corners per row
        group, pts, turns = cell[at[:, 0]], eq[face[at]], turn[at]
        others = (np.arange(n)[:, None] + np.arange(2, n)) % n   # corners off edge i
        det = np.einsum("gikx,gix->gik", pts[:, others], turns)
        if (over := (~np.isfinite(det).all(axis=(1, 2))).nonzero()[0]).size:     # overflowed: LU keeps the signs
            p = pts[over]
            det[over] = np.linalg.det(np.stack(np.broadcast_arrays(
                p[:, :, None], eq[succ[at[over]]][:, :, None], p[:, others]), axis=-2))
        convex[group] = ~np.any(det <= -CONVEXITY_TOL, axis=(1, 2))
        # p_k . (vector area) sums the convexity determinants at p_k, so for a
        # convex cell it is positive exactly when the cell is in an open hemisphere
        area = turns.sum(axis=1)
        norm = np.sqrt(_rowdot(area, area))
        small = norm < ZERO_AREA_TOL
        unit = area / np.where(small, 1.0, norm)[:, None]
        margin = (pts @ unit[:, :, None])[:, :, 0]
        pointed[group] = ~(small | (np.min(margin, axis=1) <= HEMISPHERE_TOL))
        if orient > 0 and not (convex[group] & pointed[group]).all():
            orient = 0.0 if later else -1.0     # clockwise cells fail from the first size on
        if orient < 0 and (np.any(det >= CONVEXITY_TOL) or small.any() or not np.max(margin) < -HEMISPHERE_TOL):
            orient = 0.0
        if orient:
            t = np.arange(1, n - 1)
            ab = np.einsum("gx,gtx->gt", pts[:, 0], pts[:, 1:])     # c_0 . c_t, 0 < t < n
            bc = np.einsum("gtx,gtx->gt", pts[:, 1:-1], pts[:, 2:])
            excess += 2.0 * float(np.arctan2(det[:, t, n - 2 - t], 1.0 + ab[:, :-1] + bc + ab[:, 1:]).sum())
    failed = (~(convex & pointed)[:shown]).nonzero()[0].tolist()
    details = [f"cell {ci} is not a CCW convex spherical polygon" if not convex[ci] else
               f"cell {ci} is not inside an open hemisphere" for ci in failed]
    return details, excess if orient else np.nan


# |n| past ~1e154 overflows to inf, which compares as a huge value would; opposite
# infinite normals sum to NaN, which compares false (they are reported as non-unit)
@np.errstate(over="ignore", invalid="ignore")
def validate(fan: Fan) -> ValidationReport:
    """Check every partition rule on raw input; problems go into the report.

    Codes emitted: "non-unit vector", "antipodal adjacent pair",
    "crossing arcs", "non-convex cell", "Euler failure", "low face degree",
    "broken partition".  Deterministic and idempotent.  The cell checks read one table
    of the N corner products n_i x n_i+1; the certificate below takes its terms from their groups.

    Crossings are ruled out by a degree-one certificate.  It needs every
    other rule to hold, save that the cells may all turn clockwise (each is
    then reported as not CCW), or else holes to be the only fault: arcs that
    border one cell, and the Euler failure they cause.  Then the missing
    pairs must chain into simple cycles, and one cap per cycle, turning as
    the cells do, must restore V-E+F = 2 (_caps).  The cells and caps close
    up into a surface with V-E+F = 2 whose cells all map onto convex
    spherical polygons of one orientation, so its degree is the sum of their
    signed spherical excesses over 4*pi, and every point off the arcs has
    exactly that many preimages.  A sum within COVER_TOL of +-4*pi (degree
    +-1) leaves no room for an overlap, hence none for a crossing; a pinched
    face or a second sheet takes the sum to +-8*pi or beyond.  Every other
    fan runs the arc scan: one that breaks another rule, whose cells turn
    both ways, with a repeated pair, a face on two holes or a cap that is
    not convex or in no open hemisphere, or whose sum is off +-4*pi.  The
    scan names the crossing arcs, the pairs of sorted arcs in row-major order,
    antipodal arcs left out.  For E arcs it makes O(E^2) cap tests, one matrix
    product per block of rows, and exact tests only where caps meet (~8 per
    arc on polar fans), in O(E + SCAN_BLOCK) memory (_crossing_pairs).
    Non-finite normals are reported as non-unit vectors and fail no other test.
    """
    report = ValidationReport()
    eq = fan.equipment
    m = fan.m

    exp = np.frexp(np.max(np.abs(eq), axis=1))[1]     # power-of-two row scales: huge norms stay finite, others exact
    norms = np.ldexp(np.linalg.norm(np.ldexp(eq, -exp[:, None]), axis=1), exp)
    for j in (~(np.abs(norms - 1.0) <= UNIT_TOL)).nonzero()[0]:   # NaN norms included
        report.add("non-unit vector", f"face {j} has norm {float(norms[j])!r}")

    # Manifold structure: every ordered pair of cyclically consecutive faces
    # must appear exactly once, and its reverse exactly once.
    face, cell, succ, _ = corners = fan.corners
    sizes = np.bincount(cell, minlength=len(fan.cells))
    f, c = corners[:2, np.lexsort((face, cell))]
    distinct = sizes - np.bincount(c[1:][(f[1:] == f[:-1]) & (c[1:] == c[:-1])], minlength=len(sizes))
    for ci in ((distinct < 3) | (distinct != sizes)).nonzero()[0].tolist():
        if distinct[ci] < 3:
            report.add("broken partition", f"cell {ci} has fewer than 3 distinct faces")
        if distinct[ci] != sizes[ci]:
            report.add("broken partition", f"cell {ci} repeats a face")
    pairs, counts, labels = _pair_runs(face, face, succ)     # the ordered pairs, sorted
    k = len(labels)
    rev = pairs % k * k + pairs // k
    lonely = pairs[np.minimum(np.searchsorted(pairs, rev), len(pairs) - 1)] != rev
    for u in ((counts > 1) | lonely).nonzero()[0]:
        pair = (int(labels[pairs[u] // k]), int(labels[pairs[u] % k]))
        if counts[u] > 1:
            report.add("broken partition", f"ordered pair {pair} appears {counts[u]} times")
        if lonely[u]:
            report.add("broken partition", f"arc {tuple(sorted(pair))} borders only one cell")
    if np.any((face < 0) | (face >= m)):
        report.add("broken partition", "cell references a face index out of range")
        return report
    turn = _cross(eq[face], eq[succ])      # every index is valid from here on

    keys = fan.arcs
    ends = eq[keys[:, 0]] + eq[keys[:, 1]]
    antipodal = np.sqrt(_rowdot(ends, ends)) <= ANTIPODAL_TOL
    for a, b in keys[antipodal].tolist():
        report.add("antipodal adjacent pair", f"faces {a} and {b}")

    degree = np.bincount(keys.ravel(), minlength=m)
    for j in (degree < 3).nonzero()[0]:
        report.add("low face degree", f"face {j} lies on {degree[j]} arcs")

    euler = len(fan.cells) - len(keys) + m
    if euler != 2:
        report.add("Euler failure", f"V-E+F = {len(fan.cells)}-{len(keys)}+{m} = {euler}")

    # When holes are the only fault (arcs that border one cell, and the Euler
    # failure they cause), caps that close them and restore V-E+F = 2 take
    # part in the certificate.
    caps = None
    if lonely.any() and len(report.entries) == lonely.sum() + (euler != 2):
        caps = _caps(labels[pairs[lonely] % k], labels[pairs[lonely] // k], 2 - euler)

    # Convex spherical cells, counterclockwise, inside an open hemisphere (the
    # certificate also takes them all clockwise); a cell holding a non-finite
    # normal has no geometry to check.
    finite = np.bincount(cell, weights=~np.isfinite(eq).all(axis=1)[face], minlength=len(sizes)) == 0
    checked = (distinct == sizes) & (sizes >= 3) & finite
    details, excess = _bad_cells(eq, corners, sizes, checked, turn, report.ok or caps is not None, caps)
    for detail in details:
        report.add("non-convex cell", detail)

    if abs(abs(excess) - 4.0 * np.pi) <= COVER_TOL:      # NaN unless the certificate's hypotheses held
        return report

    # Arc crossings (touching at shared endpoints is allowed).
    for i, j in _crossing_pairs(eq, keys, antipodal):
        report.add("crossing arcs", f"arcs {tuple(keys[i].tolist())} and {tuple(keys[j].tolist())}")

    return report


@np.errstate(divide="ignore", invalid="ignore", over="ignore")   # windows that overflow clip to pi/2
def _coplanar_triple(eq: np.ndarray) -> tuple[int, int, int] | None:
    """The lexicographically least triple i < j < k failing is_general_position,
    or None; with a zero or non-finite n_z, the least triple holding the first z."""
    m = len(eq)
    if m < 3:
        return None
    norms = np.linalg.norm(eq, axis=1)
    bad = np.flatnonzero(~np.isfinite(eq).all(axis=1) | (norms == 0.0))
    if bad.size:
        return (0, 1, max(2, int(bad[0])))
    tol = GENERAL_POSITION_TOL + 64.0 * np.finfo(float).eps * norms.max() ** 3    # inf: every pair a candidate
    u = _cross(eq, np.eye(3)[np.argmin(np.abs(eq), axis=1)])     # n_i x the axis of n_i's least |component|
    u /= np.linalg.norm(u, axis=1)[:, None]
    v = _cross(eq / norms[:, None], u)          # (u_i, v_i) spans the plane normal to n_i
    for i0 in range(0, m - 2, max(1, SCAN_BLOCK // m)):
        i1 = min(i0 + max(1, SCAN_BLOCK // m), m - 2)
        rows, count = np.arange(i1 - i0), m - 1 - np.arange(i0, i1)    # count: the j > i of each row
        x, y = u[i0:i1] @ eq[i0 + 1:].T, v[i0:i1] @ eq[i0 + 1:].T    # p_ij, columns j from i0 + 1
        phi, r = np.arctan2(y, x), x * x + y * y
        phi += np.pi * (phi < 0.0)
        low = rows[:, None] > rows      # the columns j <= i
        np.copyto(phi[:, :len(rows)], np.inf, where=low)
        np.copyto(r[:, :len(rows)], np.inf, where=low)
        r_min = np.sqrt(r.min(axis=1))
        scale = SWEEP_SLACK * tol / (norms[i0:i1] * r_min)     # the window of p_ij is scale / |p_ij|
        ring, wide = np.sort(phi, axis=1), np.fmin(scale / r_min, np.pi / 2) + WINDOW_PAD
        short = (np.diff(ring, axis=1) <= wide[:, None]).any(axis=1)
        rows = np.flatnonzero(short | (ring[:, 0] + np.pi - ring[rows, count - 1] <= wide))
        if not rows.size:
            continue
        order, count = np.argsort(phi[rows], axis=1), count[rows]
        ring = np.take_along_axis(phi[rows], order, axis=1)
        width = np.fmin(scale[rows, None] / np.sqrt(np.take_along_axis(r[rows], order, axis=1)),
                        np.pi / 2) + WINDOW_PAD
        a, p = np.nonzero(np.arange(ring.shape[1]) < count[:, None])
        found, step = [], 0
        while a.size:       # the step-th successor of each angle, while in the angle's window
            step += 1
            q = (p + step) % count[a]
            hit = (step < count[a]) & (ring[a, q] + np.pi * (q < p) - ring[a, p] <= width[a, p])
            a, p, q = a[hit], p[hit], q[hit]
            jk = np.sort(np.column_stack([order[a, p], order[a, q]]), axis=1) + i0 + 1
            triples = np.column_stack([rows[a] + i0, jk])
            fails = triples[np.abs(np.linalg.det(eq[triples])) <= GENERAL_POSITION_TOL]
            found.append(fails[np.lexsort(fails.T[::-1])[:1]])
        if len(found := np.concatenate(found)):
            return tuple(found[np.lexsort(found.T[::-1])[0]].tolist())
    return None


def is_general_position(fan: Fan) -> bool:
    """True iff no three equipment vectors are coplanar: every triple i < j < k
    has |det(n_i, n_j, n_k)| > GENERAL_POSITION_TOL.

    With (u_i, v_i) an orthonormal frame of the plane normal to n_i, n_j
    projects to p_ij = (u_i . n_j, v_i . n_j); for phi_ij its direction modulo
    pi, |det| = |n_i| |p_ij| |p_ik| |sin(phi_ik - phi_ij)| exactly.  So a pair
    (j, k) can fail only when its angle gap is within its window, SWEEP_SLACK
    tol / (|n_i| |p_ij| min_k |p_ik|) clipped at pi/2, where tol adds a bound on
    the rounding of a 3x3 determinant to GENERAL_POSITION_TOL and the slack
    covers the rounding of projections and angles.  A block of faces i gets its
    p_ij, j > i, from two matrix products.  Once its rows are sorted by angle,
    a row none of whose cyclic gaps is within its widest window has no
    candidate pair; only the other rows walk each angle's forward window.
    np.linalg.det of the rows (i, j, k) of every candidate alone decides.
    Blocks hold SCAN_BLOCK // m faces and each step of the walk keeps one
    failing triple, so memory stays O(m + SCAN_BLOCK); the time grows with the
    candidates, which are few unless many triples nearly fail.  A zero or
    non-finite normal is never in general position.
    """
    return fan.coplanar_triple is None
