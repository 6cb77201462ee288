"""Equipment vectors and sphere-partition combinatorics.

A fan is the direction skeleton of a polyhedral hedgehog: m unit vectors
(one per face) plus the cells of the induced partition of the unit sphere.
Each cell lists the faces meeting at one surface vertex, counterclockwise
as seen from outside the sphere.  Arcs (the geodesic edges of the
partition) and the rotation system around each face are derived data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import MalformedFan

UNIT_TOL = 1e-12
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


def _cyclic_pairs(seq):
    n = len(seq)
    return [(seq[i], seq[(i + 1) % n]) for i in range(n)]


def _node_chains(cells):
    """Chain the corners of the given cells around every face label.

    Returns {label: (cell_ring, neighbor_ring)} where cell_ring[i] is the
    index of the i-th cell around the label and neighbor_ring[i] is the
    label across the boundary between ring positions i and i+1.  The chain
    follows the orientation induced by counterclockwise cells, which is the
    order that makes the reconstructed face polygons positively oriented
    for an outward-equipped convex body.
    """
    corners: dict[int, dict[int, tuple[int, int]]] = {}
    for ci, cell in enumerate(cells):
        n = len(cell)
        for pos, j in enumerate(cell):
            pred = cell[(pos - 1) % n]
            succ = cell[(pos + 1) % n]
            slot = corners.setdefault(j, {})
            if succ in slot:
                raise MalformedFan(f"ordered face pair ({j},{succ}) appears twice")
            slot[succ] = (ci, pred)
    chains = {}
    for j, by_succ in corners.items():
        start = min(by_succ)
        ring_cells, neighbors = [], []
        s = start
        for _ in range(len(by_succ)):
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


@dataclass(frozen=True)
class Fan:
    """Equipment plus sphere-partition cells; immutable after construction."""

    equipment: np.ndarray                  # (m, 3) unit directions
    cells: tuple[tuple[int, ...], ...]     # cyclic face lists, CCW from outside

    def __post_init__(self):
        eq = np.array(self.equipment, dtype=float)
        eq.setflags(write=False)
        object.__setattr__(self, "equipment", eq)
        object.__setattr__(
            self, "cells", tuple(tuple(int(i) for i in c) for c in self.cells)
        )

    @property
    def m(self) -> int:
        return len(self.equipment)

    @cached_property
    def arcs(self) -> frozenset[tuple[int, int]]:
        out = set()
        for cell in self.cells:
            for a, b in _cyclic_pairs(cell):
                out.add(arc_key(a, b))
        return frozenset(out)

    @cached_property
    def face_rings(self) -> dict[int, tuple[tuple[int, ...], tuple[int, ...]]]:
        """face -> (cells around it, neighbor faces per boundary edge)."""
        return _node_chains(self.cells)

    @cached_property
    def ring_index(self) -> RingIndex:
        for ci, cell in enumerate(self.cells):
            if len(cell) < 3:   # malformed input (ValueError), as for a bad support vector
                raise ValueError(f"cell {ci} has fewer than 3 faces")
        first3 = np.array([cell[:3] for cell in self.cells], dtype=np.intp)
        extra = [(ci, f) for ci, cell in enumerate(self.cells) for f in cell[3:]]
        extra = np.array(extra, dtype=np.intp).reshape(-1, 2)
        rings = [self.face_rings[j] for j in range(self.m)]
        sizes = [len(ring) for ring, _ in rings]
        owner = np.repeat(np.arange(self.m), sizes)
        cell = np.concatenate([ring for ring, _ in rings])
        succ = np.concatenate([np.roll(ring, -1) for ring, _ in rings])
        pred = np.concatenate([np.roll(ring, 1) for ring, _ in rings])
        start = np.cumsum(sizes) - sizes
        neighbor = np.concatenate([neighbors for _, neighbors in rings])
        keys = np.sort(np.column_stack([owner, neighbor]), axis=1)
        # np.unique sorts stably when asked for indices: the first position wins
        arcs, arc_pos = np.unique(keys, axis=0, return_index=True)
        return RingIndex(first3, extra[:, 0], extra[:, 1], owner, cell, succ, pred, start, arcs, arc_pos)

    @cached_property
    def block_inverses(self) -> np.ndarray:
        """(V, 3, 3) inverses of the cells' first-three-face normal blocks, read
        only after a realization ruled out singular ones (np.linalg.inv raises)."""
        return np.linalg.inv(self.equipment[self.ring_index.first3])

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
    runs from cell[p] to succ[p].  Every vertex lies on the planes of the
    first three faces of its cell; the further faces of non-simple cells
    are the extra (cell, face) pairs, in cell order.
    """

    first3: np.ndarray       # (V, 3) first three faces of each cell
    extra_cell: np.ndarray   # (X,) cell of each (cell, face) pair beyond the first three
    extra_face: np.ndarray   # (X,) face of that pair
    owner: np.ndarray        # (R,) face whose ring holds the position
    cell: np.ndarray         # (R,) cell at the position
    succ: np.ndarray         # (R,) cell at the next position of the same ring
    pred: np.ndarray         # (R,) cell at the previous position of the same ring
    start: np.ndarray        # (m,) first position of each face's ring
    arcs: np.ndarray         # (E, 2) arc keys, sorted
    arc_pos: np.ndarray      # (E,) first position whose edge is dual to the arc


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
    for n in np.unique(sizes):
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
    ordered: dict[tuple[int, int], int] = {}
    for ci, cell in enumerate(fan.cells):
        if len(set(cell)) < 3:
            report.add("broken partition", f"cell {ci} has fewer than 3 distinct faces")
        if len(set(cell)) != len(cell):
            report.add("broken partition", f"cell {ci} repeats a face")
        for pair in _cyclic_pairs(cell):
            ordered[pair] = ordered.get(pair, 0) + 1
    for pair, count in sorted(ordered.items()):
        if count > 1:
            report.add("broken partition", f"ordered pair {pair} appears {count} times")
        if ordered.get((pair[1], pair[0]), 0) == 0:
            report.add("broken partition", f"arc {arc_key(*pair)} borders only one cell")
    if any(j < 0 or j >= m for cell in fan.cells for j in cell):
        report.add("broken partition", "cell references a face index out of range")
        return report

    arcs = sorted(fan.arcs)
    keys = np.array(arcs, dtype=np.intp).reshape(-1, 2)
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

    A sweep per face i in O(m log m) time and O(m) memory, plus the triples
    it cannot rule out, finds the triples that can fail.  With
    c_j = n_i x n_j and phi_j its direction modulo pi in the plane normal to
    n_i, |det| |n_i| = |c_j| |c_k| |sin(phi_k - phi_j)| exactly, unit
    vectors or not.  So a pair (j, k) can fail only when its
    angle gap is within arcsin(tol |n_i| / (|c_j| |c_k|)) of 0 modulo pi,
    where tol adds a bound on the rounding of a 3x3 determinant to
    GENERAL_POSITION_TOL; the windows taken are SWEEP_SLACK times that wide
    (with min |c| in place of |c_k|), which also covers the rounding of the
    cross products and angles.  The determinant of every pair in a window is
    computed as np.linalg.det of the rows (i, j, k), and it alone decides.
    Non-finite equipment is never in general position.
    """
    eq = fan.equipment
    if not np.all(np.isfinite(eq)):
        return False
    norms = np.linalg.norm(eq, axis=1)
    tol = GENERAL_POSITION_TOL + 64.0 * np.finfo(float).eps * float(np.max(norms, initial=0.0)) ** 3
    for i in range(fan.m - 2):
        cross = np.cross(eq[i], eq[i + 1:])
        r = np.linalg.norm(cross, axis=1)
        u = cross[np.argmax(r)]
        # a zero n_i leaves phi and width undefined: every pair is then a candidate
        with np.errstate(divide="ignore", invalid="ignore"):
            phi = np.mod(np.arctan2(cross @ np.cross(eq[i], u) / norms[i], cross @ u), np.pi)
            width = np.minimum(SWEEP_SLACK * tol * norms[i] / (r * r.min()), np.pi / 2)
        phi = np.nan_to_num(phi)
        order = np.argsort(phi)
        phi = phi[order]
        width = np.nan_to_num(width, nan=np.pi / 2)[order] + 1e-12
        # forward windows over the angles and their copies shifted by pi
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


@dataclass(frozen=True, eq=False)
class DualComplex:
    """Cell complex dual to the hedgehog surface: one node per face.

    Nodes are face indices, edges are arcs, 2-cells are the fan cells.  The
    rotation system gives, for every node, its neighbor nodes in cyclic
    order; circuits around nodes are what the sign-counting lemma inspects.
    """

    nodes: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    cells: tuple[tuple[int, ...], ...]
    rotation: dict[int, tuple[int, ...]]

    def degree(self, node: int) -> int:
        return len(self.rotation[node])


def dual_complex(fan: Fan) -> DualComplex:
    """Build the dual complex, eliminating collapsible degree-2 vertices.

    A cell with exactly two distinct faces is the spherical image of a
    surface vertex sitting in the middle of a straight edge; its two
    boundary arcs run along one geodesic and are merged by dropping the
    cell.  Raises MalformedFan when a two-face cell cannot be merged
    (coincident or antipodal normals) or a cell is left with fewer than
    three faces after the collapse.
    """
    eq = fan.equipment
    retained = []
    for ci, cell in enumerate(fan.cells):
        distinct = set(cell)
        if len(distinct) >= 3:
            retained.append(tuple(cell))
            continue
        if len(distinct) == 2:
            a, b = sorted(distinct)
            if np.linalg.norm(eq[a] + eq[b]) <= ANTIPODAL_TOL:
                raise MalformedFan(
                    f"cell {ci} joins antipodal faces {a},{b}; cannot merge its edges"
                )
            if np.linalg.norm(eq[a] - eq[b]) <= 1e-12:
                raise MalformedFan(f"cell {ci} joins coincident faces {a},{b}")
            continue  # collapsible: drop the cell, the arc set merges the edges
        raise MalformedFan(f"cell {ci} has fewer than 2 distinct faces")

    for ci, cell in enumerate(retained):
        if len(set(cell)) < 3:
            raise MalformedFan(f"cell {ci} has fewer than 3 faces after collapse")

    chains = _node_chains(retained)
    nodes = tuple(sorted(chains))
    edges = set()
    for cell in retained:
        for a, b in _cyclic_pairs(cell):
            edges.add(arc_key(a, b))
    rotation = {j: chains[j][1] for j in nodes}
    return DualComplex(
        nodes=nodes, edges=tuple(sorted(edges)), cells=tuple(retained), rotation=rotation
    )
