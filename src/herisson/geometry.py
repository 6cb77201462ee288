"""Realize hedgehog surfaces from support numbers.

Reconstruction places each surface vertex at the intersection of the
planes (x, n_j) = h_j of the first three faces of its cell, assembles the
face polygons by walking the cells around each face in the fan-induced
order, and reads oriented areas off the signed shoelace sum.  The sign
convention comes from the counterclockwise orientation of the spherical
cells: an outward-equipped convex body gets positive areas everywhere.

_realize gives the unchecked surface and reconstruct the checked one, both a
Herisson, which measures its edge lengths once (ring_lengths) for every length,
perimeter and boundary test.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateEquipment, DegenerateFace, InconsistentVertex, NotSameClass
from .fan import Fan

CONSISTENCY_TOL = 1e-8     # relative to scale, cells with more than 3 faces
EDGE_TOL = 1e-9            # relative to scale
AREA_TOL = 1e-12           # relative to scale**2


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
    for k in range(3):
        axis = np.zeros(3)
        axis[k] = 1.0
        if 1.0 - abs(float(n @ axis)) > 1e-8:
            break
    u = axis - (axis @ n) * n
    u = u / np.linalg.norm(u)
    v = np.cross(n, u)
    return u, v


def _oriented_areas(fan: Fan, vertices: np.ndarray) -> np.ndarray:
    """Oriented face areas (P, m) of a stack of vertex sets (P, V, 3).

    Signed shoelace: twice the area is the sum over edges of (p x q) . n.
    The stack is flattened into one ring of P * V vertices, so every set is
    summed exactly as it would be on its own.
    """
    idx = fan.ring_index
    count, nverts = vertices.shape[:2]
    flat = vertices.reshape(-1, 3)
    shift = nverts * np.arange(count)[:, None]
    crosses = np.cross(flat[(idx.cell + shift).ravel()], flat[(idx.succ + shift).ravel()])
    twice_areas = np.einsum("ij,ij->i", crosses, np.tile(fan.equipment[idx.owner], (count, 1)))
    starts = (idx.start[:-1] + len(idx.cell) * np.arange(count)[:, None]).ravel()
    return 0.5 * np.add.reduceat(twice_areas, starts).reshape(count, fan.m)


def _realize(fan: Fan, h) -> Herisson:
    """The surface of (fan, h) before any strictness checks (see reconstruct)."""
    h = np.asarray(h, dtype=float)
    if h.shape != (fan.m,):
        raise ValueError(f"support vector has length {h.shape}, fan has m={fan.m}")
    vertices = np.linalg.solve(fan.vertex_blocks, h[fan.ring_index.first3][..., None])[..., 0]
    areas = _oriented_areas(fan, vertices[None])[0]
    return Herisson(fan, h, vertices, np.sign(areas).astype(int), areas)


def _check_boundary(surface: Herisson) -> None:
    """Raise DegenerateFace for an edge at or below EDGE_TOL*scale or an
    oriented area at or below AREA_TOL*scale**2: the class boundary."""
    scale = surface.scale
    min_edge = float(surface.ring_lengths.min())
    if min_edge <= EDGE_TOL * scale:
        raise DegenerateFace(f"shortest edge {min_edge:.3e} below tolerance")
    amin = float(np.min(np.abs(surface.oriented_areas)))
    if amin <= AREA_TOL * scale**2:
        raise DegenerateFace(f"smallest |oriented area| {amin:.3e} below tolerance")


def _consistency_matrix(fan: Fan) -> np.ndarray:
    """Linear rows K with K h = extra-plane residuals of non-simple cells."""
    idx = fan.ring_index
    rows = np.arange(len(idx.extra_face))
    cons = np.zeros((len(rows), fan.m))
    coeffs = np.einsum("ik,ikl->il", fan.equipment[idx.extra_face], fan.block_inverses[idx.extra_cell])
    cons[rows[:, None], idx.first3[idx.extra_cell]] = coeffs
    cons[rows, idx.extra_face] -= 1.0
    return cons


def _area_jacobian(fan: Fan, vertices: np.ndarray) -> np.ndarray:
    """Exact gradient of the area map under the first-three-planes model.

    On fans whose cells are all simple this reduces to the classical form:
    the off-diagonal entry (i, k) for adjacent faces equals the signed
    shared-edge length divided by sin of the angle between n_i and n_k, and
    the diagonal is the matching planar-polygon derivative.
    """
    idx = fan.ring_index
    n = fan.equipment[idx.owner]
    grads = 0.5 * (np.cross(vertices[idx.succ], n) + np.cross(n, vertices[idx.pred]))
    rows = np.einsum("ik,ikl->il", grads, fan.block_inverses[idx.cell])
    jac = np.zeros((fan.m, fan.m))
    np.add.at(jac, (idx.owner[:, None], idx.first3[idx.cell]), rows)
    return jac


@dataclass(frozen=True)
class Herisson:
    """A realized hedgehog surface: fan, supports, vertices, signs, oriented areas."""

    fan: Fan
    h: np.ndarray
    vertices: np.ndarray
    signs: np.ndarray
    oriented_areas: np.ndarray

    def __post_init__(self):
        for name in ("h", "vertices", "signs", "oriented_areas"):
            arr = np.array(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def m(self) -> int:
        return self.fan.m

    @property
    def scale(self) -> float:
        return support_scale(self.h)

    @cached_property
    def ring_lengths(self) -> np.ndarray:
        """(R,) read-only length of the polygon edge at every ring position;
        the two positions of an arc hold the same length."""
        idx = self.fan.ring_index
        lengths = np.linalg.norm(self.vertices[idx.succ] - self.vertices[idx.cell], axis=1)
        lengths.setflags(write=False)
        return lengths

    @property
    def perimeters(self) -> np.ndarray:
        """(m,) sum of the edge lengths around each face."""
        return np.add.reduceat(self.ring_lengths, self.fan.ring_index.start[:-1])

    def face_cycle(self, j: int) -> tuple[int, ...]:
        """Cell indices around face j, in boundary order; IndexError unless 0 <= j < m."""
        if not 0 <= j < self.m:
            raise IndexError(f"face {j} is outside 0..{self.m - 1}")
        idx = self.fan.ring_index
        return tuple(idx.cell[idx.start[j]:idx.start[j + 1]].tolist())

    def face_polygon(self, j: int) -> np.ndarray:
        """Vertex coordinates of face j's polygon, (k, 3)."""
        return self.vertices[list(self.face_cycle(j))]

    def edge_lengths(self) -> dict[tuple[int, int], float]:
        """Length of the shared edge dual to each arc."""
        lens = self.ring_lengths[self.fan.ring_index.arc_pos]
        return {(a, b): float(x) for (a, b), x in zip(self.fan.arcs.tolist(), lens)}

    def translated(self, c) -> "Herisson":
        """The same surface moved by c (support numbers shift by (c, n_j))."""
        c = np.asarray(c, dtype=float)
        return reconstruct(self.fan, self.h + self.fan.equipment @ c)


def reconstruct(fan: Fan, h) -> Herisson:
    """Realize the herisson with the given support numbers.

    Raises SingularVertex for coplanar normals at a cell, InconsistentVertex
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
    surface = _realize(fan, h)
    idx = fan.ring_index
    misses = np.abs(np.einsum("ij,ij->i", fan.equipment[idx.extra_face], surface.vertices[idx.extra_cell])
                    - h[idx.extra_face])
    worst = float(np.max(misses, initial=0.0))
    if worst > CONSISTENCY_TOL * surface.scale:
        k = int(np.argmax(misses))      # the first (cell, face) pair holding the maximum
        raise InconsistentVertex(
            f"cell {idx.extra_cell[k]}: plane of face {idx.extra_face[k]} misses the vertex by {worst:.3e}"
        )
    _check_boundary(surface)
    return surface


def _class_mismatch(h1: Herisson, h2: Herisson) -> str:
    """Why h1 and h2 are not of one orientation class, or "": equipments of one
    shape within 1e-9 entrywise, equal cells and equal face signs, in turn."""
    if h1.fan.equipment.shape != h2.fan.equipment.shape or not np.allclose(
        h1.fan.equipment, h2.fan.equipment, rtol=0.0, atol=1e-9
    ):
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
    gram = eq.T @ eq
    if abs(float(np.linalg.det(gram))) < 1e-12:
        raise DegenerateEquipment("equipment does not span 3-space")
    c = np.linalg.solve(gram, eq.T @ h)
    return h - eq @ c


def minkowski_sum(h1: Herisson, h2: Herisson) -> Herisson:
    """Minkowski sum of two herissons over one fan: supports add.

    Raises NotSameClass with the reason unless the operands are of one class
    (_class_mismatch), as congruent_and_parallel does; every face of the
    result is the planar Minkowski sum of the parallel input faces, and edge
    lengths add arc by arc.
    """
    if reason := _class_mismatch(h1, h2):
        raise NotSameClass(reason)
    return reconstruct(h1.fan, h1.h + h2.h)


def perimeter_bound(target_area: float, min_angle: float) -> float:
    """Longest side of a convex polygon with bounded area and edge-line angles.

    For a polygon of area at most target_area whose distinct edge lines meet
    at angles no smaller than min_angle (and with no parallel sides), any
    side is at most 2*sqrt(area)/sin(angle): the isosceles triangle raised
    on a side of length l with base angles a has area l^2 sin^2(a)/4 and
    fits inside the polygon.  The solver multiplies this by the side count
    as a divergence sentinel.
    """
    if not target_area > 0.0:
        raise ValueError("target_area must be positive")
    if not 0.0 < min_angle <= np.pi / 2:
        raise ValueError("min_angle must lie in (0, pi/2]")
    return 2.0 * float(np.sqrt(target_area)) / float(np.sin(min_angle))
