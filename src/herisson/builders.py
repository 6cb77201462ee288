"""Constructors for the concrete hedgehogs used as fixtures.

Convex bodies (box, regular tetrahedron), the reflected truncated
tetrahedron ("bowtie"), the waisted bitetrahedron family whose elongation
defeats existence outside general position, and the space-filling prism.
All builders are deterministic and return checked surfaces (reconstruct);
the bowtie and the waisted bitetrahedron share their mirrored tetrahedron
caps (_mirrored_caps).
"""

from __future__ import annotations

import numbers

import numpy as np

from .fan import Fan
from .geometry import Herisson, face_frame, reconstruct

_SQRT3 = np.sqrt(3.0)
_TETRA_HEIGHT = np.sqrt(2.0 / 3.0)          # regular tetrahedron, unit edge
_LATERAL_TILT = 2.0 * np.sqrt(2.0) / 3.0    # horizontal part of a lateral normal


def _ccw_cell(points: np.ndarray, cell) -> tuple[int, ...]:
    """Order one cell counterclockwise as seen from outside the sphere.

    Angular sort about the cell's centroid direction; valid for the convex
    spherical cells every builder produces.  The cycle is rotated so the
    smallest face index comes first, which keeps output byte-stable.
    """
    cell = list(cell)
    pts = points[cell]
    centroid = pts.sum(axis=0)
    centroid = centroid / np.linalg.norm(centroid)
    u, v = face_frame(centroid)
    ang = np.arctan2(pts @ v, pts @ u)
    order = [cell[i] for i in np.argsort(ang, kind="stable")]
    k = order.index(min(order))
    return tuple(order[k:] + order[:k])


def _fan(equipment: np.ndarray, raw_cells) -> Fan:
    cells = tuple(_ccw_cell(equipment, c) for c in raw_cells)
    return Fan(equipment=equipment, cells=cells)


def box(a: float, b: float, c: float) -> Herisson:
    """Axis-aligned box centered at the origin, outward equipment.

    Face order is +x, -x, +y, -y, +z, -z, so the oriented areas come out as
    (bc, bc, ca, ca, ab, ab).
    """
    if not (a > 0 and b > 0 and c > 0):
        raise ValueError("box extents must be positive")
    equipment = np.array(
        [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]],
        dtype=float,
    )
    h = np.array([a, a, b, b, c, c], dtype=float) / 2.0
    cells = []
    for sx in (1, -1):
        for sy in (1, -1):
            for sz in (1, -1):
                cells.append((0 if sx > 0 else 1, 2 if sy > 0 else 3, 4 if sz > 0 else 5))
    return reconstruct(_fan(equipment, cells), h)


def cube() -> Herisson:
    """Cube of edge 2: the box with all support numbers equal to 1."""
    return box(2.0, 2.0, 2.0)


def regular_tetrahedron(r: float = 1.0) -> Herisson:
    """Regular tetrahedron with insphere radius r, outward equipment."""
    if not r > 0:
        raise ValueError("insphere radius must be positive")
    equipment = (
        np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float)
        / np.sqrt(3.0)
    )
    h = np.full(4, float(r))
    cells = [(j, k, l) for j in range(4) for k in range(j + 1, 4) for l in range(k + 1, 4)]
    return reconstruct(_fan(equipment, cells), h)


def _corner_dirs():
    """Horizontal unit directions of the three base corners (120 deg apart)."""
    ang = np.deg2rad([90.0, 210.0, 330.0])
    return np.stack([np.cos(ang), np.sin(ang)], axis=1)


def _plane_offset(normal, point) -> float:
    return float(np.asarray(normal) @ np.asarray(point))


def _mirrored_caps(zb: float) -> tuple[np.ndarray, np.ndarray]:
    """Inward lateral normals (6, 3) and their supports (6,) of a unit-edge
    regular tetrahedron cap with base plane z = zb (rows 0-2, face i opposite
    base corner i) and of its mirror image in z = 0 (rows 3-5)."""
    corners = _corner_dirs()
    mirror = np.array([1.0, 1.0, -1.0])
    outward = np.column_stack([_LATERAL_TILT * -corners, np.full(3, 1.0 / 3.0)])
    normals = np.vstack([-outward, -(outward * mirror)])
    base_pts = np.column_stack([(1.0 / _SQRT3) * corners, np.full(3, zb)])[[1, 2, 0]]   # corner i+1 is on face i
    points = np.vstack([base_pts, base_pts * mirror])
    return normals, np.array([_plane_offset(n, x) for n, x in zip(normals, points)])


def reflected_truncated_tetrahedron(rho: float) -> Herisson:
    """Unit-edge regular tetrahedron truncated at height fraction rho and
    glued to its mirror image in the cutting plane.

    The two faces parallel to the cutting plane keep outward normals; all
    six lateral trapezoids are equipped with inward normals (_mirrored_caps),
    which makes the surface a herisson with exactly two positive faces.  Face
    order: bottom base, three bottom laterals, three top laterals, top base.
    """
    if not 0.0 < rho < 1.0:
        raise ValueError("truncation ratio must lie in (0, 1)")
    zb = -(1.0 - rho) * _TETRA_HEIGHT         # bottom base plane, cut plane at z=0
    lateral, offsets = _mirrored_caps(zb)
    equipment = np.vstack([(0.0, 0.0, -1.0), lateral, (0.0, 0.0, 1.0)])
    h = np.concatenate([[-zb], offsets, [-zb]])

    cells = []
    for i in range(3):                        # base corners, bottom then top
        j, k = (i + 1) % 3, (i + 2) % 3
        cells.append((0, 1 + j, 1 + k))
        cells.append((7, 4 + j, 4 + k))
    for i in range(3):                        # waist corners on the cut plane
        j, k = (i + 1) % 3, (i + 2) % 3
        cells.append((1 + j, 1 + k, 4 + j, 4 + k))
    return reconstruct(_fan(equipment, cells), h)


def waisted_bitetrahedron(k: int) -> Herisson:
    """Two unit-edge tetrahedron caps joined by a thin triangular prism.

    The prism waist has length k and an orthogonal cross-section of
    perimeter 1/k (side 1/(3k)), so each of the three waist rectangles has
    oriented area exactly -1/3.  Bases carry outward equipment, everything
    else inward; the caps' laterals come from _mirrored_caps.  Face order:
    bottom base, three waist faces, three bottom laterals, three top
    laterals, top base.
    """
    if isinstance(k, bool) or not isinstance(k, numbers.Integral) or k < 1:
        raise ValueError("waist length k must be a positive integer")
    k = int(k)
    s = 1.0 / (3.0 * k)                       # waist triangle side
    zb = -k / 2.0 - (1.0 - s) * _TETRA_HEIGHT   # bottom base plane
    lateral, offsets = _mirrored_caps(zb)
    waist = np.column_stack([_corner_dirs(), np.zeros(3)])     # inward horizontal, face i opposite corner i
    equipment = np.vstack([(0.0, 0.0, -1.0), waist, lateral, (0.0, 0.0, 1.0)])
    h = np.concatenate([[-zb], np.full(3, -s / (2.0 * _SQRT3)), offsets, [-zb]])

    cells = []
    for i in range(3):
        j, kk = (i + 1) % 3, (i + 2) % 3
        cells.append((0, 4 + j, 4 + kk))                   # bottom base corners
        cells.append((10, 7 + j, 7 + kk))                  # top base corners
        cells.append((4 + j, 4 + kk, 1 + j, 1 + kk))       # bottom waist corners
        cells.append((7 + j, 7 + kk, 1 + j, 1 + kk))       # top waist corners
    return reconstruct(_fan(equipment, cells), h)


def space_filling_prism() -> Herisson:
    """Right prism over the mirrored trapezium that tiles 3-space.

    Cross-section: isosceles trapezium with bases 3 and 1 and base angles
    pi/4, united with its reflection across the line through the shorter
    base (an hourglass hexagon of area 4), extruded by a unit segment.
    Caps and the two long sides keep outward normals; the four slope faces
    adjacent to the reflex edges are equipped inward, which is the choice
    that turns the induced sphere partition into a valid one.
    """
    s = np.sqrt(2.0) / 2.0
    equipment = np.array(
        [
            [0, 0, -1],      # bottom cap, outward
            [0, 0, 1],       # top cap, outward
            [0, -1, 0],      # south side y=-1, outward
            [0, 1, 0],       # north side y=+1, outward
            [-s, -s, 0],     # south-east slope, inward
            [-s, s, 0],      # north-east slope, inward
            [s, s, 0],       # north-west slope, inward
            [s, -s, 0],      # south-west slope, inward
        ],
        dtype=float,
    )
    # Hexagon corners counterclockwise, and the side face on the edge from
    # each corner to the next.
    corners = [(-1.5, -1.0), (1.5, -1.0), (0.5, 0.0), (1.5, 1.0), (-1.5, 1.0), (-0.5, 0.0)]
    sides = [2, 4, 5, 3, 6, 7]
    h = np.zeros(8)
    h[1] = 1.0
    for point, face in zip(corners, sides):
        h[face] = _plane_offset(equipment[face][:2], point)
    cells = [(cap, sides[i - 1], sides[i]) for i in range(6) for cap in (0, 1)]
    return reconstruct(_fan(equipment, cells), h)
