"""Realize hedgehog surfaces from support numbers.

Reconstruction places each surface vertex at the intersection of the planes
(x, n_j) = h_j of the first three faces of its cell and assembles the face
polygons by walking the cells around each face in the fan-induced order.
Areas and their Jacobian skip the vertices and read two maps linear in h
(Fan.edge_rows): the signed length l_p of the edge at ring position p, dual
to the arc from face j = owner[p] to k = neighbor[p], and its signed support
in j's plane, sigma_p = (h_k - h_j cos theta_jk) / sin theta_jk.  By
Minkowski's polygon formula phi_j = 1/2 sum_p sigma_p l_p over ring j; the
classical Jacobian (J d)_j = sum_p l_p sigma_p(d), J_jk = l_jk / sin
theta_jk, J_jj = -sum_k l_jk cot theta_jk, is symmetric with J h = 2 phi(h),
and it is the derivative of phi, phi(h + s d) = phi(h) + s J d + s^2 phi(d),
on all of R^m when every cell is simple, on null(K) (Fan.consistency_matrix)
otherwise.  The counterclockwise cells fix the sign: an outward-equipped
convex body gets positive areas everywhere.

Herisson(fan, h) is the unchecked surface and reconstruct the checked one
(the boundary test is reconstruct's alone).  A Herisson holds its fan and
supports only; vertices, signed edge lengths, oriented areas and signs are
functions of them, computed on first read and cached read-only, by the rule
the Fan follows for what it derives.
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


def _signed_lengths(fan: Fan, h: np.ndarray) -> np.ndarray:
    """(..., R) signed edge lengths L h of supports (..., m); each row sums its six products in one fixed order."""
    cols, coeffs, _, _ = fan.edge_rows
    x = coeffs * np.take(h, cols, axis=-1)
    return (x[..., 0, :] + x[..., 1, :] + x[..., 2, :]) + (x[..., 3, :] + x[..., 4, :] + x[..., 5, :])


def _oriented_areas(fan: Fan, h: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Oriented face areas (..., m), 1/2 sum_p sigma_p l_p, of supports h (..., m) with signed lengths (..., R)."""
    idx, (_, _, csc, cot) = fan.ring_index, fan.edge_rows
    sigma = csc * np.take(h, idx.neighbor, axis=-1) - cot * np.take(h, idx.owner, axis=-1)
    return 0.5 * np.add.reduceat(sigma * lengths, idx.start[:-1], axis=-1)


def _area_jacobian(fan: Fan, lengths: np.ndarray) -> np.ndarray:
    """The classical area Jacobian at signed lengths (R,): l_p csc at (owner, neighbor) of every ring
    position, a different entry each (RingIndex), and -sum_p l_p cot over each ring on the diagonal."""
    idx, (_, _, csc, cot) = fan.ring_index, fan.edge_rows
    jac = np.zeros((fan.m, fan.m))
    jac[idx.owner, idx.neighbor] = lengths * csc
    np.fill_diagonal(jac, -np.add.reduceat(lengths * cot, idx.start[:-1]))
    return jac


@dataclass(frozen=True, eq=False)
class Herisson:
    """The hedgehog surface of supports h on a fan, unchecked (see reconstruct).

    h is copied to float and read-only; ValueError unless it has one entry
    per face.  Everything else is a cached_property of (fan, h), every array
    read-only: scale (support_scale of h), vertices from the fan's vertex map
    (block_inverses), signed_lengths (Fan.edge_rows), oriented areas from
    them and the edge supports (module docstring), and signs from the areas.
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
    def signed_lengths(self) -> np.ndarray:
        """(R,) signed length l_p = (V[cell[next_pos[p]]] - V[cell[p]]) . t_p (Fan.edge_frames) of the edge at
        ring position p, as L h (Fan.edge_rows): linear in h, positive on convex bodies, |l_p| the edge's
        length; the two positions of an arc sum the same products in the same order, so hold the same bits."""
        return _frozen(_signed_lengths(self.fan, self.h))

    @cached_property
    def oriented_areas(self) -> np.ndarray:
        return _frozen(_oriented_areas(self.fan, self.h, self.signed_lengths))

    @cached_property
    def signs(self) -> np.ndarray:
        """(m,) int sign of every oriented area."""
        return _frozen(np.sign(self.oriented_areas).astype(int))

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
    when the least |signed length| or |oriented area| falls under its
    degeneracy tolerance.
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
    min_edge = float(np.abs(surface.signed_lengths).min())
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
    add at every ring position, but oriented areas (quadratic in h) do not, so
    a face of the sum may change sign: the sum need not be of the operands' class.
    """
    if reason := _class_mismatch(h1, h2):
        raise NotSameClass(reason)
    return reconstruct(h1.fan, h1.h + h2.h)
