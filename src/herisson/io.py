"""File formats: JSON fans and herissons, OBJ meshes, SVG sphere charts.

JSON is the single source format; OBJ and SVG are write-only views.  Doubles
are serialized through repr, which round-trips bit-exactly, and all export
is deterministic so repeated runs produce identical bytes.
"""

from __future__ import annotations

import json

import numpy as np

from .fan import ANTIPODAL_TOL, Fan
from .geometry import Herisson, face_frame, reconstruct

SVG_SIZE = 600.0       # width and height of the SVG chart
POLE_CENTROID_TOL = 1e-6   # absolute: least |sum_j n_j| whose antipode serves as the projection pole
POLE_TOL = 1e-12           # absolute: a point x with 1 - x . pole below this coincides with the pole
ARC_LINE_TOL = 1e-9        # relative to max(1, max |coordinate|)**2: a smaller doubled triangle draws a line


def fan_to_dict(fan: Fan) -> dict:
    return {
        "equipment": [[float(x) for x in row] for row in fan.equipment],
        "cells": [list(cell) for cell in fan.cells],
    }


_KINDS = {(int, float): "a number", list: "a list"}      # JSON bools are neither; Fan checks cell labels


def _entries(values, kind, what: str) -> list:
    """values if it is a JSON list of kind entries; else ValueError naming the first bad one."""
    if not isinstance(values, list):
        raise ValueError(f"{what} must be a list")
    for i, x in enumerate(values):
        if isinstance(x, bool) or not isinstance(x, kind):
            raise ValueError(f"{what}[{i}] = {x!r} is not {_KINDS[kind]}")
    return values


def _vector(values, what: str) -> np.ndarray:
    return np.array(_entries(values, (int, float), what), dtype=float)


def fan_from_dict(data: dict) -> Fan:
    rows = _entries(data["equipment"], list, "equipment")
    equipment = np.array([_vector(row, f"equipment[{i}]") for i, row in enumerate(rows)])
    return Fan(equipment=equipment, cells=_entries(data["cells"], list, "cells"))


def herisson_to_dict(h: Herisson) -> dict:
    out = fan_to_dict(h.fan)
    out["h"] = [float(x) for x in h.h]
    out["vertices"] = [[float(x) for x in v] for v in h.vertices]
    out["faces"] = [list(h.face_cycle(j)) for j in range(h.m)]
    out["signs"] = [int(s) for s in h.signs]
    return out


def herisson_from_dict(data: dict) -> Herisson:
    return reconstruct(fan_from_dict(data), _vector(data["h"], "h"))


def dumps(data: dict) -> str:
    return json.dumps(data, indent=2) + "\n"


def load(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def save(data: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(data))


def load_fan(path: str) -> Fan:
    return fan_from_dict(load(path))


def load_herisson(path: str) -> Herisson:
    return herisson_from_dict(load(path))


def load_vector(path: str, keys) -> np.ndarray:
    """The number list under the first of keys present, or the file's plain list."""
    data, what = load(path), "vector"
    if isinstance(data, dict):
        what = next((key for key in keys if key in data), None)
        data = data[what] if what else None
    if not isinstance(data, list):
        raise ValueError(f"expected one of {keys} or a plain list")
    return _vector(data, what)


# ---------------------------------------------------------------------------
# OBJ


def export_obj(h: Herisson) -> str:
    """Wavefront OBJ with every face as an independent polygon.

    Vertices are duplicated per face so self-intersecting surfaces stay
    well-formed; each face block carries its sign in a comment.
    """
    lines = ["# polyhedral hedgehog surface", f"# faces {h.m} (independent polygons)"]
    offset = 1
    for j in range(h.m):
        pts = h.face_polygon(j)
        lines.append(f"# face {j} epsilon {int(h.signs[j]):+d} area {float(h.oriented_areas[j])!r}")
        for v in pts:
            lines.append(f"v {float(v[0])!r} {float(v[1])!r} {float(v[2])!r}")
        lines.append("f " + " ".join(str(offset + i) for i in range(len(pts))))
        offset += len(pts)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# SVG


def _stereographic_pole(fan: Fan, points: np.ndarray) -> np.ndarray:
    """The first candidate at least POLE_TOL (in 1 - x . pole) from every point: the antipode of
    sum_j n_j unless that sum is ~0, the antipode of the first cell's normal sum, which lies inside
    the opposite cell, then that sum itself, which lies strictly inside the first cell."""
    total, first = fan.equipment.sum(axis=0), fan.equipment[list(fan.cells[0])].sum(axis=0)
    for pole in ([-total] if np.linalg.norm(total) > POLE_CENTROID_TOL else []) + [-first, first]:
        pole = pole / np.linalg.norm(pole)
        if np.all(1.0 - points @ pole >= POLE_TOL):
            return pole
    raise ValueError("every candidate projection pole coincides with a face normal or an arc midpoint")


def _project(pole: np.ndarray, x: np.ndarray) -> np.ndarray:
    u, v = face_frame(pole)
    y = x / (1.0 - float(x @ pole))
    return np.array([float(y @ u), float(y @ v)])


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def _arc_path(p1: np.ndarray, pm: np.ndarray, p2: np.ndarray) -> str:
    """SVG path for the circular arc through three projected points."""
    ax, ay = p1
    bx, by = pm
    cx, cy = p2
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    if abs(d) < ARC_LINE_TOL * max(1.0, np.abs([p1, pm, p2]).max() ** 2):
        return f"M {_fmt(ax)} {_fmt(ay)} L {_fmt(cx)} {_fmt(cy)}"
    ox = ((ax**2 + ay**2) * (by - cy) + (bx**2 + by**2) * (cy - ay) + (cx**2 + cy**2) * (ay - by)) / d
    oy = ((ax**2 + ay**2) * (cx - bx) + (bx**2 + by**2) * (ax - cx) + (cx**2 + cy**2) * (bx - ax)) / d
    r = float(np.hypot(ax - ox, ay - oy))
    t1 = np.arctan2(ay - oy, ax - ox)
    tm = np.arctan2(by - oy, bx - ox)
    t2 = np.arctan2(cy - oy, cx - ox)
    ccw_span = float(np.mod(t2 - t1, 2 * np.pi))
    ccw_mid = float(np.mod(tm - t1, 2 * np.pi))
    if ccw_mid <= ccw_span:
        sweep, span = 1, ccw_span
    else:
        sweep, span = 0, 2 * np.pi - ccw_span
    large = 1 if span > np.pi else 0
    return (
        f"M {_fmt(ax)} {_fmt(ay)} A {_fmt(r)} {_fmt(r)} 0 {large} {sweep} {_fmt(cx)} {_fmt(cy)}"
    )


def export_svg(fan: Fan) -> str:
    """Stereographic chart of the sphere partition, arcs as circular arcs."""
    face = fan.corners[0]
    outside = face[(face < 0) | (face >= fan.m)]
    if outside.size:
        raise ValueError(f"cell label {int(outside[0])} is outside 0..{fan.m - 1}")
    mids = []
    for a, b in fan.arcs.tolist():
        mid3 = fan.equipment[a] + fan.equipment[b]
        norm = np.linalg.norm(mid3)
        if norm <= ANTIPODAL_TOL:
            raise ValueError(f"arc {a}-{b} joins antipodal faces and has no midpoint to draw")
        mids.append(((a, b), mid3 / norm))
    pole = _stereographic_pole(fan, np.vstack([fan.equipment, *(mid for _, mid in mids)]))
    points = {j: _project(pole, fan.equipment[j]) for j in range(fan.m)}
    paths = [((a, b), _arc_path(points[a], _project(pole, mid), points[b])) for (a, b), mid in mids]

    coords = np.array(list(points.values()))
    lo = coords.min(axis=0)
    hi = coords.max(axis=0)
    pad = 0.15 * float(max(hi - lo)) + 0.1
    view = (lo[0] - pad, lo[1] - pad, (hi[0] - lo[0]) + 2 * pad, (hi[1] - lo[1]) + 2 * pad)
    stroke = view[2] / 200.0

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(SVG_SIZE)}" height="{_fmt(SVG_SIZE)}" '
        f'viewBox="{_fmt(view[0])} {_fmt(view[1])} {_fmt(view[2])} {_fmt(view[3])}">',
        f"<!-- stereographic pole: {float(pole[0])!r} {float(pole[1])!r} {float(pole[2])!r} -->",
    ]
    for key, path in paths:
        lines.append(
            f'<path d="{path}" fill="none" stroke="black" stroke-width="{_fmt(stroke)}">'
            f"<title>arc {key[0]}-{key[1]}</title></path>"
        )
    for j in range(fan.m):
        x, y = points[j]
        lines.append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(1.8 * stroke)}" fill="crimson">'
            f"<title>face {j}</title></circle>"
        )
        lines.append(
            f'<text x="{_fmt(x + 2.5 * stroke)}" y="{_fmt(y - 2.5 * stroke)}" '
            f'font-size="{_fmt(6 * stroke)}">{j}</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
