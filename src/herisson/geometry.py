"""Realize hedgehog surfaces from support numbers.

Reconstruction places each surface vertex at the intersection of the
planes (x, n_j) = h_j of the first three faces of its cell and assembles the
face polygons by walking the cells around each face in the fan-induced
order.  Oriented areas skip the vertices: in face j's frame (u_j, v_j),
u_j x v_j = n_j, the vertex at ring position p has the coordinates
a_p = U_p . x_p and b_p = W_p . x_p (Fan.ring_frames), x_p the supports of
its cell's first three faces, and phi_j = 1/2 sum_p (a_p b_p+ - a_p+ b_p),
p+ (p-) the next (previous) position of the ring: the signed shoelace sum of
(V_p x V_p+) . n_j / 2 in the same model.  The sign convention comes from the
counterclockwise orientation of the spherical cells: an outward-equipped
convex body gets positive areas everywhere.

Herisson(fan, h) is the unchecked surface and reconstruct the checked one
(the boundary test is reconstruct's alone).  A Herisson holds its fan and
supports only; vertices, face coordinates, oriented areas, signs and edge
lengths are functions of them, computed on first read and cached read-only,
by the rule the Fan follows for what it derives.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateFace, InconsistentVertex, NotSameClass
from .fan import Fan, _cross, _frozen

CONSISTENCY_TOL = 1e-8     # relative to scale, cells with more than 3 faces
EDGE_TOL = 1e-9            # relative to scale
AREA_TOL = 1e-12           # relative to scale**2
FRAME_AXIS_TOL = 1e-8      # absolute: least 1 - |n . axis| of the coordinate axis that face_frame projects
EQUIPMENT_MATCH_TOL = 1e-9   # absolute: entrywise slack of two equipments of one orientation class


def support_scale(h) -> float:
    """Length scale used by every relative tolerance: max(1, max |h_j|)."""
    h = np.asarray(h, dtype=float)
    return max(1.0, float(np.max(np.abs(h)))) if h.size else 1.0


def face_frame(normal):
    """Deterministic orthonormal basis (u, v) of the plane with this normal.

    u is the normalized projection of the smallest-index coordinate axis not
    parallel to the normal; v completes a right-handed triple (u, v, normal).
    """
    n = np.asarray(normal, dtype=float)
    for axis in np.eye(3):
        if 1.0 - abs(float(n @ axis)) > FRAME_AXIS_TOL:
            break
    u = axis - (axis @ n) * n
    u = u / np.linalg.norm(u)
    v = _cross(n, u)
    return u, v


def _face_coordinates(fan: Fan, h: np.ndarray) -> np.ndarray:
    """(..., 2, R) frame coordinates (a_p, b_p) of supports (..., m), each row rounded as on its own."""
    x = np.take(h, fan.ring_index.cell_first3, axis=-1)[..., :, None, :]
    return (x * fan.ring_frames).sum(axis=-3)


def _oriented_areas(fan: Fan, ab: np.ndarray) -> np.ndarray:
    """Oriented face areas (..., m) by the shoelace on face coordinates ab (..., 2, R)."""
    idx = fan.ring_index
    after = np.take(ab, idx.next_pos, axis=-1)
    twice = ab[..., 0, :] * after[..., 1, :] - after[..., 0, :] * ab[..., 1, :]
    return 0.5 * np.add.reduceat(twice, idx.start[:-1], axis=-1)


def _area_jacobian(fan: Fan, ab: np.ndarray) -> np.ndarray:
    """Exact gradient of the area map under the first-three-planes model, at face coordinates ab (2, R).

    phi_j = 1/2 sum_p (a_p b_p+ - a_p+ b_p) (module docstring) has the gradient
    1/2 (b_p+ - b_p-) U_p + 1/2 (a_p- - a_p+) W_p in x_p, and these row terms go
    into J by one bincount over Fan.jacobian_scatter.  On fans whose cells are
    all simple this is the classical form: the off-diagonal entry (i, k) for
    adjacent faces is the signed shared-edge length over sin of the angle
    between n_i and n_k, the diagonal the matching planar-polygon derivative.
    """
    idx, frames = fan.ring_index, fan.ring_frames
    turn = np.take(ab, idx.next_pos, axis=1) - np.take(ab, idx.prev_pos, axis=1)
    rows = 0.5 * (turn[1] * frames[:, 0] - turn[0] * frames[:, 1])
    return np.bincount(fan.jacobian_scatter, rows.ravel(), minlength=fan.m * fan.m).reshape(fan.m, fan.m)


@dataclass(frozen=True, eq=False)
class Herisson:
    """The hedgehog surface of supports h on a fan, unchecked (see reconstruct).

    h is copied to float and read-only; ValueError unless it has one entry
    per face.  Everything else is a cached_property of (fan, h), every array
    read-only: scale (support_scale of h), vertices from the fan's vertex map
    (block_inverses), face_coordinates, the (2, R) frame coordinates of every
    ring position (Fan.ring_frames), oriented areas from them by the shoelace
    of the same model, which _area_jacobian differentiates, signs from the
    areas, and ring_lengths, the edge length at every ring position, measured
    once per arc.
    """

    fan: Fan
    h: np.ndarray

    def __post_init__(self):
        h = np.array(self.h, dtype=float)
        if h.shape != (self.fan.m,):
            raise ValueError(f"support vector has length {h.shape}, fan has m={self.fan.m}")
        object.__setattr__(self, "h", _frozen(h))

    @property
    def m(self) -> int:
        return self.fan.m

    @cached_property
    def scale(self) -> float:
        return support_scale(self.h)

    @cached_property
    def vertices(self) -> np.ndarray:
        """(V, 3) vertex of every cell, on the planes of its first three faces."""
        idx = self.fan.ring_index
        return _frozen((self.fan.block_inverses @ self.h[idx.first3][..., None])[..., 0])

    @cached_property
    def face_coordinates(self) -> np.ndarray:
        """(2, R) coordinates (a_p, b_p) of the vertex at every ring position in its face's frame."""
        return _frozen(_face_coordinates(self.fan, self.h))

    @cached_property
    def oriented_areas(self) -> np.ndarray:
        return _frozen(_oriented_areas(self.fan, self.face_coordinates))

    @cached_property
    def signs(self) -> np.ndarray:
        """(m,) int sign of every oriented area."""
        return _frozen(np.sign(self.oriented_areas).astype(int))

    @cached_property
    def ring_lengths(self) -> np.ndarray:
        """(R,) read-only length of the polygon edge at every ring position, taken
        at arc_pos and read at both positions of its arc (their edge vectors are
        exact negatives, so either would give the same bits)."""
        idx = self.fan.ring_index
        first = idx.arc_pos
        edges = self.vertices[idx.cell[idx.next_pos[first]]] - self.vertices[idx.cell[first]]
        return _frozen(np.linalg.norm(edges, axis=1)[idx.arc_of])

    def face_cycle(self, j: int) -> tuple[int, ...]:
        """Cell indices around face j, in boundary order; IndexError unless 0 <= j < m."""
        if not 0 <= j < self.m:
            raise IndexError(f"face {j} is outside 0..{self.m - 1}")
        idx = self.fan.ring_index
        return tuple(idx.cell[idx.start[j]:idx.start[j + 1]].tolist())

    def face_polygon(self, j: int) -> np.ndarray:
        """Vertex coordinates of face j's polygon, (k, 3)."""
        return self.vertices[list(self.face_cycle(j))]

    def translated(self, c) -> "Herisson":
        """The same surface moved by c (support numbers shift by (c, n_j))."""
        c = np.asarray(c, dtype=float)
        return reconstruct(self.fan, self.h + self.fan.equipment @ c)


def reconstruct(fan: Fan, h) -> Herisson:
    """The checked surface: Herisson(fan, h), once it passes the tests below.

    Raises SingularVertex for coplanar or non-finite normals at a cell,
    ValueError for other non-finite normals or supports, InconsistentVertex
    when a fourth plane misses its vertex beyond 1e-8*scale, DegenerateFace
    when an edge or an oriented area falls under the degeneracy tolerances.
    Supports that flip the sign of some face are accepted without comment,
    so two herissons on one fan may lie in different orientation classes.
    Compare their `signs` before mixing them; minkowski_sum and
    congruent_and_parallel check the signs of their inputs only.
    """
    h = np.asarray(h, dtype=float)
    if not np.all(np.isfinite(h)):
        raise ValueError("support numbers must be finite")
    fan.block_inverses      # SingularVertex first, for the normals that place vertices
    if (bad := np.flatnonzero(~np.isfinite(fan.equipment).all(axis=1))).size:
        raise ValueError(f"face {bad[0]} has a non-finite normal")
    surface = Herisson(fan, h)
    idx = fan.ring_index
    if idx.extra_face.size:     # only non-simple cells have planes beyond their first three
        misses = np.abs(np.einsum("ij,ij->i", fan.equipment[idx.extra_face], surface.vertices[idx.extra_cell])
                        - h[idx.extra_face])
        worst = float(misses.max())
        if worst > CONSISTENCY_TOL * surface.scale:
            k = int(np.argmax(misses))      # the first (cell, face) pair holding the maximum
            raise InconsistentVertex(
                f"cell {idx.extra_cell[k]}: plane of face {idx.extra_face[k]} misses the vertex by {worst:.3e}"
            )
    min_edge = float(surface.ring_lengths.min())
    if min_edge <= EDGE_TOL * surface.scale:
        raise DegenerateFace(f"shortest edge {min_edge:.3e} below tolerance")
    amin = float(np.min(np.abs(surface.oriented_areas)))
    if amin <= AREA_TOL * surface.scale**2:
        raise DegenerateFace(f"smallest |oriented area| {amin:.3e} below tolerance")
    return surface


def _class_mismatch(h1: Herisson, h2: Herisson) -> str:
    """Why h1 and h2 are not of one orientation class, or "": equipments of one shape
    within EQUIPMENT_MATCH_TOL entrywise, equal cells and equal face signs, in turn."""
    e1, e2 = h1.fan.equipment, h2.fan.equipment      # one Fan: close to itself unless it holds a NaN
    if (np.isnan(e1).any() if h1.fan is h2.fan else
            e1.shape != e2.shape or not np.allclose(e1, e2, rtol=0.0, atol=EQUIPMENT_MATCH_TOL)):
        return "equipments differ"
    if h1.fan.cells != h2.fan.cells:
        return "sphere partitions differ"
    if not np.array_equal(h1.signs, h2.signs):
        return "face signs differ"
    return ""


def balance_residual(f, fan: Fan) -> np.ndarray:
    """Sum of oriented areas times equipment vectors (zero for any herisson)."""
    f = np.asarray(f, dtype=float)
    if f.shape != (fan.m,):
        raise ValueError("area vector length does not match the fan")
    return fan.equipment.T @ f


def gauge_fix(fan: Fan, h) -> np.ndarray:
    """Translate the surface so that sum h_j n_j = 0.

    Removes the three translation degrees of freedom: the returned supports
    describe a translate of the input surface and the map is a projection
    (applying it twice changes nothing).
    """
    h = np.asarray(h, dtype=float)
    eq = fan.equipment
    return h - eq @ np.linalg.solve(fan.translation_gram, eq.T @ h)


def minkowski_sum(h1: Herisson, h2: Herisson) -> Herisson:
    """Minkowski sum of two herissons over one fan: supports add.

    Raises NotSameClass with the reason unless the operands are of one class
    (_class_mismatch), as congruent_and_parallel does.  Signed edge lengths
    add arc by arc, but oriented areas (quadratic in h) do not, so a face of
    the sum may change sign: the sum need not be of the operands' class.
    """
    if reason := _class_mismatch(h1, h2):
        raise NotSameClass(reason)
    return reconstruct(h1.fan, h1.h + h2.h)
