import itertools
import re
import time
import tracemalloc
from fractions import Fraction
from functools import cached_property

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull

import herisson
from helpers import (
    brute_coplanar_triple,
    convexity_entries,
    crossing_entries,
    double_tetrahedron_fan,
    general_position_loop,
    girard_excesses,
    node_chains,
    planted,
    polar_fan,
    random_hull_fan,
)
from herisson import builders
from herisson import fan as fan_module
from herisson.errors import MalformedFan
from herisson.fan import (
    CONVEXITY_TOL,
    GENERAL_POSITION_TOL,
    HEMISPHERE_TOL,
    SCAN_BLOCK,
    Fan,
    is_general_position,
    validate,
)
from herisson.geometry import reconstruct


def _corrupt_cube_fan(antipodal=True):
    base = builders.cube().fan
    eq = np.array(base.equipment)
    if antipodal:
        eq[2] = -eq[0]  # faces 0 and 2 are adjacent on the cube
    return Fan(equipment=eq, cells=base.cells)


def double_cover_pentagram():
    """Two caps over an equator pentagram: every local rule holds, but the
    cells cover the sphere twice and the equator arcs overlap."""
    ring = [(np.cos(4 * np.pi * i / 5), np.sin(4 * np.pi * i / 5), 0.0) for i in range(5)]
    eq = np.array([(0.0, 0.0, 1.0), (0.0, 0.0, -1.0)] + ring)
    cells = [(0, 2 + i, 2 + (i + 1) % 5) for i in range(5)]
    cells += [(1, 2 + (i + 1) % 5, 2 + i) for i in range(5)]
    return Fan(equipment=eq, cells=tuple(cells))


def _rotated(v, rng, max_angle):
    """v turned about a random axis by an angle up to max_angle."""
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(0.0, max_angle)
    return v * np.cos(angle) + np.cross(axis, v) * np.sin(angle) + axis * (axis @ v) * (1.0 - np.cos(angle))


def perturbed_polar_fans(seed, count=8):
    """Polar fans as drawn, with one normal turned by up to 0.5 rad and with
    one normal flipped."""
    rng = np.random.default_rng(seed)
    fans = []
    for _ in range(count):
        fan = polar_fan(rng, int(rng.integers(6, 17)))
        moved, flipped = np.array(fan.equipment), np.array(fan.equipment)
        j = int(rng.integers(fan.m))
        moved[j] = _rotated(moved[j], rng, 0.5)
        moved[j] /= np.linalg.norm(moved[j])
        flipped[int(rng.integers(fan.m))] *= -1.0
        fans += [fan, Fan(equipment=moved, cells=fan.cells), Fan(equipment=flipped, cells=fan.cells)]
    return fans


def polar_variants(seed, count=4):
    """Polar fans as drawn, with every cell reversed and with one cell dropped."""
    rng = np.random.default_rng(seed)
    fans = []
    for _ in range(count):
        fan = polar_fan(rng, int(rng.integers(6, 17)))
        k = int(rng.integers(len(fan.cells)))
        fans += [
            Fan(equipment=fan.equipment, cells=tuple(c[::-1] for c in fan.cells)),
            Fan(equipment=fan.equipment, cells=fan.cells[:k] + fan.cells[k + 1:]),
        ]
    return fans


def reversed_and_dropped(fan, k=0):
    """fan with every cell reversed, with cell k dropped, and with both."""
    def reverse(cells):
        return tuple(c[::-1] for c in cells)
    dropped = fan.cells[:k] + fan.cells[k + 1:]
    return [Fan(equipment=fan.equipment, cells=cells) for cells in (reverse(fan.cells), dropped, reverse(dropped))]


def hole_cases(seed, count=8):
    """Polar fans with two cells dropped from the ring of one face, as drawn
    and reversed: two adjacent cells, whose hole's cap may be non-convex, and
    two cells that share that face but no arc, two holes that meet."""
    rng = np.random.default_rng(seed)
    fans = []
    for _ in range(count):
        fan = polar_fan(rng, int(rng.integers(8, 17)))
        idx = fan.ring_index
        j = int(np.argmax(np.diff(idx.start)))     # a face on 4 or more cells
        ring = np.roll(idx.cell[idx.start[j]:idx.start[j + 1]], -int(rng.integers(idx.start[j + 1] - idx.start[j])))
        for pair in (ring[:2], ring[:3:2]):
            cells = tuple(c for ci, c in enumerate(fan.cells) if ci not in pair)
            fans += [Fan(equipment=fan.equipment, cells=form) for form in (cells, tuple(c[::-1] for c in cells))]
    return fans


_S = np.sqrt(0.5)
E0, E45, E90, E135, E180, NORTH = (1.0, 0, 0), (_S, _S, 0), (0, 1.0, 0), (-_S, _S, 0), (-1.0, 0, 0), (0, 0, 1.0)


def great_circle_cases():
    """Fans with arcs along one great circle, with the crossing arcs they give."""
    return {
        # arc (0, 1) spans 0-90 degrees of the equator, arc (2, 3) 45-135 degrees
        "overlap": (Fan(np.array([E0, E90, E45, E135, NORTH]), ((0, 1, 4), (2, 3, 4))), ["arcs (0, 1) and (2, 3)"]),
        # faces 2, 3 repeat faces 1, 0: arc (2, 3) is arc (0, 1) reversed, (3, 4) and (2, 4) repeat (0, 4) and (1, 4)
        "repeated": (
            Fan(np.array([E0, E90, E90, E0, NORTH]), ((0, 1, 4), (2, 3, 4))),
            ["arcs (0, 1) and (2, 3)", "arcs (0, 4) and (3, 4)", "arcs (1, 4) and (2, 4)"],
        ),
        # arcs (0, 1) and (1, 2) meet end to end on the equator, (0, 3) and (2, 3) at the pole
        "touching": (Fan(np.array([E0, E90, E180, NORTH]), ((0, 1, 3), (1, 2, 3))), []),
    }


def _along(angle, off=0.0):
    """The point `angle` rad along the equator from (1, 0, 0) towards (0, 1, 0),
    then turned `off` rad towards the south pole."""
    return np.array([np.cos(angle) * np.cos(off), np.sin(angle) * np.cos(off), -np.sin(off)])


def adversarial_arc_fans():
    """Fans whose cells are single arcs (two-face cells, or one face twice for
    a zero-length arc), placed where the cap bound of the crossing scan is
    tight, each scene turned to its own place among random short arcs; then
    with the normals scaled by 1.5, by 1 +- 1e-12 (just off unit after
    rounding) and by 1 +- 0.9e-12 (unit), and with a NaN or an inf normal."""
    rng = np.random.default_rng(16)
    gaps = (-1e-9, -2e-10, -1e-10, -5e-11, 0.0, 5e-11, 1e-10, 2e-10, 1e-9)
    bar = [(_along(0.0), _along(1.0))]
    scenes = [
        # T-junctions: stems from the north that end short of the bar, on it, or past it
        bar + [(_along(0.1 * k + 0.05, -0.3), _along(0.1 * k + 0.05, g)) for k, g in enumerate(gaps)],
        # arcs on the bar's great circle that overlap its end or stop short of it
        bar + [(_along(1.0 + g), _along(1.6)) for g in gaps],
        # arcs across the bar's great circle just inside or outside its end
        bar + [(_along(1.0 + g, -0.2), _along(1.0 + g, 0.2)) for g in gaps],
        # zero-length arcs on the bar, off it by 1e-10 and 1e-9 rad, and at its end
        bar + [(p, p) for p in (_along(0.5), _along(0.5, 1e-10), _along(0.5, 1e-9), _along(1.0), _along(1.0 + 1e-9))],
        # the bar repeated, forwards and backwards
        bar * 2 + [bar[0][::-1]],
    ]
    for eps in (1.5e-9, 1e-5, 1e-4, 2e-4):
        # arcs just short of pi, so |p + q| is just above ANTIPODAL_TOL, crossed
        # near their middle and ends, and on the far half of their great circle
        long = (_along(0.0), _along(np.pi - eps))
        scenes.append([long] + [(_along(a, -0.1), _along(a, 0.1)) for a in (0.2, np.pi / 2, np.pi - 0.2, -np.pi / 2)])
    scenes += [[(_along(0.0), _along(rng.uniform(0.05, 0.5)))] for _ in range(12)]
    points, cells = [], []
    for scene in scenes:
        turn = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        for p, q in scene:
            same = p is q
            points += [turn @ p] if same else [turn @ p, turn @ q]
            cells.append((len(points) - 1,) * 2 if same else (len(points) - 2, len(points) - 1))
    eq = np.array(points)
    nan, inf = eq.copy(), eq.copy()
    nan[3], inf[7] = np.nan, np.inf
    scaled = [s * eq for s in (1.5, 1 + 1e-12, 1 - 1e-12, 1 + 0.9e-12, 1 - 0.9e-12)]
    return [Fan(equipment=e, cells=tuple(cells)) for e in [eq] + scaled + [nan, inf]]


def _turned(points, rng):
    """points under a random rotation (a proper one: orientations stay)."""
    q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    return points @ (np.sign(np.linalg.det(q)) * q).T


def _ring(rng, n, height):
    """n unit vectors at the given height, counterclockwise around the pole."""
    t = 2 * np.pi * (np.arange(n) + rng.uniform(-0.2, 0.2, n)) / n
    r = np.sqrt(1 - height * height)
    return np.column_stack([r * np.cos(t), r * np.sin(t), np.full(n, height)])


def convexity_tie_cell(rng, factor, n):
    """n unit normals of one CCW cell whose least corner determinant is
    det(n_0, n_1, n_2) = -factor * CONVEXITY_TOL: the others on a circle
    around the pole, n_1 just inside the arc n_0-n_2; turned at random."""
    ring = _ring(rng, n - 1, np.cos(rng.uniform(0.3, 0.6)))
    w = np.cross(ring[0], ring[1])
    mid = (ring[0] + ring[1]) / np.linalg.norm(ring[0] + ring[1])
    e = np.arcsin(factor * CONVEXITY_TOL / np.linalg.norm(w))
    return _turned(np.insert(ring, 1, np.cos(e) * mid + np.sin(e) * w / np.linalg.norm(w), axis=0), rng)


def hemisphere_tie_cell(rng, factor, n):
    """n unit normals of one CCW cell at height factor * HEMISPHERE_TOL around
    the pole, turned at random: its vector area points at the pole, so that
    height is its hemisphere margin."""
    return _turned(_ring(rng, n, factor * HEMISPHERE_TOL), rng)


def reference_entries(fan, crossings=None):
    """validate's entries, with the cell checks and the crossing scan taken
    from the one-at-a-time references; `crossings`, when given, stands for
    crossing_entries(fan), which depends on the arcs and the equipment only."""
    local = [e for e in validate(fan).entries if e[0] not in ("non-convex cell", "crossing arcs")]
    return local + convexity_entries(fan) + (crossing_entries(fan) if crossings is None else crossings)


def brute_general_position(eq):
    """Every C(m, 3) determinant, as the definition reads."""
    triples = np.array(list(itertools.combinations(range(len(eq)), 3)), dtype=int).reshape(-1, 3)
    return bool(np.all(np.abs(np.linalg.det(eq[triples])) > GENERAL_POSITION_TOL))


@pytest.fixture(scope="module")
def adversarial():
    """The adversarial arc fans and their crossing entries from the pairwise scan."""
    fans = adversarial_arc_fans()
    with np.errstate(invalid="ignore"):     # the scalar scan meets the NaN and inf normals too
        return fans, [crossing_entries(fan) for fan in fans]


class TestValidate:
    def test_cube_fan_is_valid(self, cube):
        assert validate(cube.fan).ok

    def test_bowtie_fan_is_valid(self, bowtie):
        assert validate(bowtie.fan).ok

    def test_all_builders_valid(self, cube, box123, tetra, bowtie, waisted, tiling):
        for h in (cube, box123, tetra, bowtie, waisted, tiling):
            report = validate(h.fan)
            assert report.ok, str(report)

    def test_empty_report_reads_valid(self, cube):
        assert str(herisson.ValidationReport()) == str(validate(cube.fan)) == "valid"

    def test_antipodal_adjacent_pair_reported(self):
        report = validate(_corrupt_cube_fan())
        assert "antipodal adjacent pair" in report.codes

    def test_non_unit_vector_reported(self, cube):
        # a NaN norm compares false; non-finite normals fail no other test and warn of nothing
        for bad, norm in ((1.5 * cube.fan.equipment[0], "1.5"), (np.full(3, np.nan), "nan"), (np.full(3, np.inf), "inf")):
            eq = np.array(cube.fan.equipment)
            eq[0] = bad
            report = validate(Fan(equipment=eq, cells=cube.fan.cells))
            assert report.entries == [("non-unit vector", f"face 0 has norm {norm}")]
        # two infinite normals on one arc: their sum is NaN, their cells go unchecked
        fan = polar_fan(np.random.default_rng(1), 20)
        a, b = fan.arcs[0]
        eq = np.array(fan.equipment)
        eq[[a, b]] = [(np.inf, 0.0, 0.0), (-np.inf, 1.0, 0.0)]
        report = validate(Fan(equipment=eq, cells=fan.cells))
        assert report.entries == [("non-unit vector", f"face {j} has norm inf") for j in sorted((a, b))]

    @pytest.mark.parametrize("scale", [1e154, 1e200])
    def test_huge_normals_are_non_unit_without_warning(self, scale):
        # |n|^2 and |n_a + n_b|^2 overflow to inf, which warns of nothing
        # (the test configuration turns RuntimeWarning into an error); each
        # norm is named finite all the same
        fan = polar_fan(np.random.default_rng(67), 20)
        report = validate(Fan(equipment=scale * fan.equipment, cells=fan.cells))
        named = [detail.split(" has norm ") for code, detail in report.entries if code == "non-unit vector"]
        assert [face for face, _ in named] == [f"face {j}" for j in range(20)]
        norms = [float(norm) for _, norm in named]
        assert norms == pytest.approx(scale * np.linalg.norm(fan.equipment, axis=1), rel=1e-15, abs=0.0)

    def test_euler_failure_reported(self, cube):
        report = validate(Fan(equipment=cube.fan.equipment, cells=cube.fan.cells[:-1]))
        assert "Euler failure" in report.codes

    @pytest.mark.parametrize("label", [6, 7, -1])
    def test_face_index_out_of_range_ends_the_report(self, cube, label):
        # the partition rules name the broken arcs, then validate stops before
        # any rule indexes the equipment with the labels (face 7 would raise)
        cells = cube.fan.cells[:-1] + ((0, label, 4),)
        report = validate(Fan(equipment=cube.fan.equipment, cells=cells))
        assert report.entries[-1] == ("broken partition", "cell references a face index out of range")
        assert report.codes == {"broken partition"}

    def test_non_convex_cell_reported(self, cube):
        # Reversing one cell breaks the CCW convexity convention.
        cells = list(cube.fan.cells)
        cells[0] = tuple(reversed(cells[0]))
        report = validate(Fan(equipment=cube.fan.equipment, cells=tuple(cells)))
        assert "non-convex cell" in report.codes

    def test_crossing_arcs_reported(self, tetra):
        # Swapping two labels inside one cell rewires arcs across each other.
        cells = list(tetra.fan.cells)
        a, b, c = cells[0]
        cells[0] = (b, a, c)
        report = validate(Fan(equipment=tetra.fan.equipment, cells=tuple(cells)))
        assert not report.ok
        assert {"crossing arcs", "broken partition"} & report.codes

    def test_polar_fan_cells_in_open_hemisphere(self):
        # normal fan of a convex polytope: cells 9 and 11 were once rejected
        normals = np.random.default_rng(1).standard_normal((12, 3))
        normals /= np.linalg.norm(normals, axis=1)[:, None]
        cells = []
        for a, b, c in ConvexHull(normals).simplices:
            if np.linalg.det(normals[[a, b, c]]) < 0.0:
                b, c = c, b
            cells.append((a, b, c))
        report = validate(Fan(equipment=normals, cells=tuple(cells)))
        assert report.ok, str(report)

    def test_great_circle_cell_reported(self):
        # coplanar normals pass the convexity test but bound no pointed cone
        eq = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-0.6, -0.8, 0.0], [0.0, 0.0, 1.0]])
        report = validate(Fan(equipment=eq, cells=((0, 1, 2), (0, 1, 3))))
        assert ("non-convex cell", "cell 0 is not inside an open hemisphere") in report.entries

    def test_double_cover_names_its_crossings(self):
        report = validate(double_cover_pentagram())
        assert [code for code, _ in report.entries] == ["crossing arcs"] * 5

    def test_matches_pairwise_scan(self, monkeypatch, calls_of, cube, box123, tetra, bowtie, waisted, tiling):
        fans = [h.fan for h in (cube, box123, tetra, bowtie, waisted, tiling)]
        covers = [double_cover_pentagram()] + [fan for fan, _ in great_circle_cases().values()]
        fans += perturbed_polar_fans(7) + polar_variants(7) + covers
        fans += [form for fan in covers for form in reversed_and_dropped(fan)] + hole_cases(31, count=2)
        fast = [validate(fan).entries for fan in fans]
        assert fast == [reference_entries(fan) for fan in fans]
        assert {"crossing arcs", "non-convex cell"} <= {code for entries in fast for code, _ in entries}
        # no excess sum passes a negative tolerance, so the arc scan runs on every fan
        monkeypatch.setattr(fan_module, "COVER_TOL", -1.0)
        scans = calls_of("_crossing_pairs", fan_module)
        assert fast == [validate(fan).entries for fan in fans]
        assert len(scans) == len(fans)

    def test_reversed_and_holed_fans_match_pairwise_scan(self, calls_of):
        # the certificate covers fans reversed or with holes whose caps are
        # convex; the forms it cannot cover run the scan and name their crossings
        scans = calls_of("_crossing_pairs", fan_module)
        for fan in [double_cover_pentagram()] + [fan for fan, _ in great_circle_cases().values()]:
            for form in reversed_and_dropped(fan):     # the certificate covers none of these
                scans.clear()
                entries = validate(form).entries
                assert len(scans) == 1
                assert entries == reference_entries(form)
        for form in reversed_and_dropped(double_cover_pentagram()):
            assert [code for code, _ in validate(form).entries].count("crossing arcs") == 5
        # per drawn fan: adjacent cells dropped, as drawn and reversed, then the
        # cells that meet at one face; those two holes share it, so the scan runs
        scanned = []
        for form in hole_cases(31):
            scans.clear()
            entries = validate(form).entries
            scanned.append(len(scans))
            assert entries == reference_entries(form)
            assert {code for code, _ in entries} <= {"broken partition", "Euler failure", "non-convex cell"}
        adjacent, meeting = np.array(scanned).reshape(-1, 2, 2).transpose(1, 0, 2)
        assert (meeting == 1).all()
        assert (adjacent[:, 0] == adjacent[:, 1]).all()     # reversing a fan keeps its verdict
        assert sorted(set(adjacent[:, 0].tolist())) == [0, 1]     # convex caps and non-convex ones

    @pytest.mark.parametrize("scale", [1e120, 1e154])
    def test_overflowing_cells_match_pairwise_scan(self, scale):
        # the corners' triple products overflow to NaN, where LU keeps the signs; each
        # fan as drawn, with every cell reversed and with one cell reversed
        rng = np.random.default_rng([26, int(np.log10(scale))])
        fans = []
        for _ in range(15):
            fan = polar_fan(rng, int(rng.integers(6, 13)))
            cells, k = fan.cells, int(rng.integers(len(fan.cells)))
            for form in (cells, tuple(c[::-1] for c in cells), cells[:k] + (cells[k][::-1],) + cells[k + 1:]):
                fans.append(Fan(equipment=scale * fan.equipment, cells=form))
        with np.errstate(over="ignore", invalid="ignore"):     # the references overflow too
            expected = [reference_entries(fan) for fan in fans]
        assert [validate(fan).entries for fan in fans] == expected
        assert {"non-unit vector", "non-convex cell"} <= {code for entries in expected for code, _ in entries}

    def test_planted_near_ties_match_pairwise_scan(self):
        # a cell's least corner determinant 1e-3 off -CONVEXITY_TOL, or its
        # hemisphere margin 1e-3 off HEMISPHERE_TOL: triple products and the
        # reference's LU round differently, but far inside that gap
        rng = np.random.default_rng(26)
        for factor in (1 - 1e-3, 1 + 1e-3):
            for n in (4, 5, 6) * 4:
                pts = convexity_tie_cell(rng, factor, n)
                dets = sorted(np.linalg.det(pts[[i, (i + 1) % n, k]])
                              for i in range(n) for k in range(n) if k not in (i, (i + 1) % n))
                assert dets[:2] == pytest.approx([-factor * CONVEXITY_TOL] * 2, rel=1e-6) and dets[2] > 1e-3
                convex = Fan(equipment=pts, cells=(tuple(range(n)),))
                hemisphere = Fan(equipment=hemisphere_tie_cell(rng, factor, n), cells=(tuple(range(n)),))
                for fan, flagged, detail in ((convex, factor > 1, "not a CCW convex spherical polygon"),
                                             (hemisphere, factor < 1, "not inside an open hemisphere")):
                    entries = validate(fan).entries
                    assert entries == reference_entries(fan)
                    cell = [e for e in entries if e[0] == "non-convex cell"]
                    assert cell == ([("non-convex cell", f"cell 0 is {detail}")] if flagged else [])

    def test_corner_products_taken_once(self, monkeypatch):
        # one _cross over the N corners serves the cell checks and the
        # certificate; at ordinary scales no np.linalg.det runs
        fan = polar_fan(np.random.default_rng(26), 40)
        fans = [fan] + polar_variants(26, count=2) + perturbed_polar_fans(26, count=2)
        expected = [reference_entries(f) for f in fans]
        rows = []
        kernel = fan_module._cross
        monkeypatch.setattr(fan_module, "_cross", lambda a, b: rows.append(np.broadcast(a, b).shape) or kernel(a, b))
        assert validate(fan).ok
        assert rows == [(3 * len(fan.cells), 3)]

        def no_det(*args):
            raise AssertionError("np.linalg.det called")
        monkeypatch.setattr(np.linalg, "det", no_det)
        assert [validate(f).entries for f in fans] == expected

    def test_certificate_angles_taken_once_per_cell_size(self, monkeypatch, calls_of, waisted, tiling):
        # on a valid fan the excess terms take one np.arctan2 per distinct cell
        # size, and so they do on the fan reversed and with a cell dropped (its
        # cap is a triangle too); on a fan with non-unit normals or with one
        # cell reversed they take none; at ordinary scales no np.linalg.det runs
        fan = polar_fan(np.random.default_rng(30), 40)
        cells, k = fan.cells, len(fan.cells) // 2
        certified = [Fan(equipment=fan.equipment, cells=cells[1:]),
                     Fan(equipment=fan.equipment, cells=tuple(c[::-1] for c in cells))]
        invalid = [Fan(equipment=1.5 * fan.equipment, cells=cells),
                   Fan(equipment=fan.equipment, cells=cells[:k] + (cells[k][::-1],) + cells[k + 1:])]

        def no_det(*args):
            raise AssertionError("np.linalg.det called")
        monkeypatch.setattr(np.linalg, "det", no_det)
        angles = calls_of("arctan2", np)
        for valid in (waisted.fan, tiling.fan, fan):
            angles.clear()
            assert validate(valid).ok
            assert len(angles) == len({len(c) for c in valid.cells})
        assert {len(c) for c in waisted.fan.cells} == {3, 4}
        for bad in certified:
            angles.clear()
            assert not validate(bad).ok
            assert len(angles) == len({len(c) for c in cells}) == 1
        for bad in invalid:
            angles.clear()
            assert not validate(bad).ok
            assert angles == []

    def test_certificate_matches_girard(self, monkeypatch, cube, box123, tetra, bowtie, waisted, tiling):
        # the excess sum folded into the cell checks against Girard's theorem,
        # within 1e-12 per cell: the builder fixtures (waisted has 4-faced
        # cells), polar fans and the double cover of the pentagram at 8 pi; the
        # same reversed, at -4 pi and -8 pi; polar fans with a cell dropped,
        # whose cells and cap give 4 pi, Girard's sum taken on the capped cells
        rng = np.random.default_rng(30)
        drawn = [h.fan for h in (cube, box123, tetra, bowtie, waisted, tiling)]
        drawn += [polar_fan(rng, m) for m in (4, 5, 6, 8, 12, 20, 30, 40, 60, 80, 100, 120)]
        drawn.append(double_cover_pentagram())
        reversed_fans = [Fan(equipment=fan.equipment, cells=tuple(c[::-1] for c in fan.cells)) for fan in drawn]
        dropped = []
        for fan in drawn[6:-1]:
            k = int(rng.integers(len(fan.cells)))
            dropped.append(Fan(equipment=fan.equipment, cells=fan.cells[:k] + fan.cells[k + 1:]))
        sums, capped, kernel = [], [], fan_module._bad_cells

        def folded(eq, corners, sizes, checked, turn, certify, caps):
            details, excess = kernel(eq, corners, sizes, checked, turn, certify, caps)
            sums.append(excess)
            if caps is not None:
                capped.append(tuple(tuple(caps[0, caps[1] == c].tolist()) for c in range(caps[1, -1] + 1)))
            return details, excess
        monkeypatch.setattr(fan_module, "_bad_cells", folded)
        for fan in drawn + reversed_fans + dropped:
            validate(fan)
        assert len(sums) == len(drawn) + len(reversed_fans) + len(dropped) and len(capped) == len(dropped)
        closed = [Fan(equipment=fan.equipment, cells=fan.cells + caps) for fan, caps in zip(dropped, capped)]
        expected = [girard_excesses(fan) for fan in drawn + closed]
        assert min(min(excesses) for excesses in expected) > 0.0
        expected[len(drawn):len(drawn)] = [[-e for e in excesses] for excesses in expected[:len(drawn)]]
        for total, excesses in zip(sums, expected):
            assert abs(total - sum(excesses)) <= 1e-12 * len(excesses), (total, sum(excesses))
        turns = [4.0] * (len(drawn) - 1) + [8.0]
        assert [round(total / np.pi, 9) for total in sums] == turns + [-t for t in turns] + [4.0] * len(dropped)

    def test_matches_pairwise_scan_at_realistic_sizes(self):
        # a dozen polar fans at m = 20-60, as drawn, reversed, with one cell
        # dropped and with one cell reversed; none of these changes the arcs,
        # so the pairwise crossing scan runs once per drawn fan
        rng = np.random.default_rng(30)
        codes = set()
        for m in (20, 22, 24, 26, 28, 30, 34, 38, 42, 48, 54, 60):
            fan = polar_fan(rng, m)
            cells, k = fan.cells, int(rng.integers(len(fan.cells)))
            crossings = crossing_entries(fan)
            for form in (cells, tuple(c[::-1] for c in cells), cells[:k] + cells[k + 1:],
                         cells[:k] + (cells[k][::-1],) + cells[k + 1:]):
                variant = Fan(equipment=fan.equipment, cells=form)
                assert np.array_equal(variant.arcs, fan.arcs)
                entries = validate(variant).entries
                assert entries == reference_entries(variant, crossings)
                codes |= {code for code, _ in entries}
        assert codes == {"non-convex cell", "broken partition", "Euler failure"}

    @pytest.mark.parametrize("block", [1, 64, SCAN_BLOCK])
    def test_cap_pruned_scan_matches_pairwise_on_adversarial_arcs(self, monkeypatch, block, adversarial):
        fans, expected = adversarial
        monkeypatch.setattr(fan_module, "SCAN_BLOCK", block)   # row and candidate blocks cut everywhere
        assert [[e for e in validate(fan).entries if e[0] == "crossing arcs"] for fan in fans] == expected

    @pytest.mark.parametrize("name", ["overlap", "repeated", "touching"])
    def test_same_great_circle_arcs(self, name):
        fan, details = great_circle_cases()[name]
        expected = [("crossing arcs", detail) for detail in details]
        assert [e for e in validate(fan).entries if e[0] == "crossing arcs"] == expected
        assert crossing_entries(fan) == expected

    @pytest.mark.parametrize("v", [
        pytest.param((0.18881711923692265, -0.19839032737660414, 0.9617636786063786), marks=pytest.mark.xfail(
            strict=True, reason="ROADMAP item 7: arccos of v.v one ulp below 1 is 1.5e-8 rad, past TOUCH_TOL")),
        (np.cos(np.pi / 3), np.sin(np.pi / 3), 0.0),
    ])
    def test_coinciding_arcs_cross(self, v):
        # faces 2, 3 repeat faces 0, 1: the arcs (0, 1) and (2, 3) coincide
        eq = np.array([v, (1.0, 0.0, 0.0), v, (1.0, 0.0, 0.0)])
        assert fan_module._crossing_pairs(eq, np.array([[0, 1], [2, 3]]), np.zeros(2, dtype=bool)) == [(0, 1)]

    def test_validate_idempotent(self, waisted):
        first = validate(waisted.fan)
        second = validate(waisted.fan)
        assert first.entries == second.entries

    def test_random_convex_fans_valid(self, rng):
        for _ in range(5):
            fan = random_hull_fan(rng)
            assert validate(fan).ok

    def test_cell_sizes_sum_to_twice_arcs(self, cube, tetra, bowtie, waisted, tiling, rng):
        fans = [h.fan for h in (cube, tetra, bowtie, waisted, tiling)]
        fans += [random_hull_fan(rng) for _ in range(3)]
        for fan in fans:
            assert sum(len(c) for c in fan.cells) == 2 * len(fan.arcs)


class TestGeneralPosition:
    def test_cube_not_general(self, cube):
        assert not is_general_position(cube.fan)

    def test_tetra_general(self, tetra):
        assert is_general_position(tetra.fan)

    def test_waisted_not_general(self, waisted):
        # the three waist normals are coplanar
        assert not is_general_position(waisted.fan)

    def test_triangle_cells_do_not_imply_general_position(self, cube):
        assert all(len(c) == 3 for c in cube.fan.cells)
        assert not is_general_position(cube.fan)

    def test_matches_brute_force(self, cube, box123, tetra, bowtie, waisted, tiling):
        rng = np.random.default_rng(11)
        inputs = [h.fan.equipment for h in (cube, box123, tetra, bowtie, waisted, tiling)]
        for fan in perturbed_polar_fans(3, count=8):
            eq = np.array(fan.equipment)
            inputs.append(eq)
            coplanar = eq.copy()
            a, b, c = rng.choice(fan.m, 3, replace=False)
            coplanar[c] = rng.uniform(-1, 1) * eq[a] + rng.uniform(-1, 1) * eq[b]
            coplanar[c] /= np.linalg.norm(coplanar[c])
            inputs.append(coplanar)
            for spread in (1e-13, 1e-11, 1e-9, 1e-7):
                twin = eq.copy()
                a, b = rng.choice(fan.m, 2, replace=False)
                twin[b] = eq[a] + spread * rng.standard_normal(3)
                inputs.append(twin / np.linalg.norm(twin, axis=1)[:, None])
            inputs.append(eq * rng.uniform(1e-2, 1e2, (fan.m, 1)))
        verdicts = []
        for eq in inputs:
            verdict = is_general_position(Fan(equipment=eq, cells=()))
            assert verdict == brute_general_position(eq)
            verdicts.append(verdict)
        assert True in verdicts and False in verdicts


    def test_blocked_sweep_matches_loop(self, cube, box123, tetra, bowtie, waisted, tiling):
        # the blocked sweep against the per-face loop; polar fans up to
        # m = 300 span several blocks of faces
        rng = np.random.default_rng(17)
        inputs = [h.fan.equipment for h in (cube, box123, tetra, bowtie, waisted, tiling)]
        for m in (6, 7, 12, 40, 120, 300):
            eq = np.array(polar_fan(rng, m).equipment)
            inputs.append(eq)
            for c in (m - 1, m // 2):
                coplanar = eq.copy()
                a, b = rng.choice(c, 2, replace=False)
                coplanar[c] = rng.uniform(-1, 1) * eq[a] + rng.uniform(-1, 1) * eq[b]
                coplanar[c] /= np.linalg.norm(coplanar[c])
                inputs.append(coplanar)
            inputs.append(eq * rng.uniform(1e-2, 1e2, (m, 1)))
            zero, nan = eq.copy(), eq.copy()
            zero[m // 3] = 0.0
            nan[m // 2, 1] = np.nan
            inputs += [zero, nan]
        verdicts = []
        for eq in inputs:
            fan = Fan(equipment=eq, cells=())
            verdicts.append(is_general_position(fan))
            assert verdicts[-1] == general_position_loop(fan)
        assert verdicts.count(True) >= 12 and verdicts.count(False) >= 12

    def _agree(self, eq):
        """The verdict of the sweep, checked against the loop and brute force."""
        fan = Fan(equipment=eq, cells=())
        verdict = is_general_position(fan)
        assert verdict == general_position_loop(fan) == brute_general_position(eq)
        assert fan_module._coplanar_triple(fan.equipment) == brute_coplanar_triple(fan.equipment)
        return verdict

    def test_parallel_and_antipodal_normals(self):
        eq = np.array(polar_fan(np.random.default_rng(3), 20).equipment)
        for sign in (1.0, -1.0):
            for a, b in ((0, 1), (4, 17), (18, 19)):
                twin = eq.copy()
                twin[b] = sign * eq[a]
                assert not self._agree(twin)

    def test_planted_triple_at_the_tolerance(self):
        rng = np.random.default_rng(23)
        for m in (5, 12, 30):
            eq = np.array(polar_fan(rng, m).equipment)
            for a, b, c in ((0, 1, 2), (m - 3, m - 1, m - 2), tuple(rng.choice(m, 3, replace=False))):
                for factor, general in ((0.5, False), (2.0, True)):
                    moved = planted(eq, a, b, c, factor)
                    assert abs(abs(np.linalg.det(moved[sorted((a, b, c))])) - factor * GENERAL_POSITION_TOL) < 1e-14
                    assert self._agree(moved) is general
                    assert self._agree(moved * rng.uniform(0.9, 1.1, (m, 1))) is general

    def test_pair_across_the_angle_wrap(self):
        # for n_0 = e_z the sweep measures angles from (0, 1, 0), so n_1 and
        # n_2 lie on either side of the wrap from pi to 0
        eq = np.vstack([[0.0, 0.0, 1.0], [-2.5e-11, 1.0, 0.3], [2.5e-11, 1.0, -0.2],
                        polar_fan(np.random.default_rng(47), 12).equipment])
        assert not self._agree(eq)
        eq[2, 0] = 1e-9
        assert self._agree(eq)

    def test_many_coplanar_triples(self):
        rng = np.random.default_rng(59)
        for m in (9, 30):
            angle = rng.uniform(0.0, 2.0 * np.pi, m)
            circle = np.column_stack([np.cos(angle), np.sin(angle), np.zeros(m)])
            assert not self._agree(circle)
            assert not self._agree(rng.integers(-2, 3, (m, 3)) + np.array([0.0, 0.0, 5.0]))

    def test_zero_or_non_finite_normal(self):
        eq = np.array(polar_fan(np.random.default_rng(53), 10).equipment)
        for z, value in ((0, 0.0), (1, np.nan), (6, np.inf), (9, 0.0)):
            bad = eq.copy()
            bad[z] = value
            fan = Fan(equipment=bad, cells=())
            assert not is_general_position(fan) and not general_position_loop(fan)
            assert fan_module._coplanar_triple(fan.equipment) == (0, 1, max(2, z))

    def test_fewer_than_three_normals(self):
        # an empty (0, 3) equipment is legal
        for m in (0, 1, 2):
            assert self._agree(np.eye(3)[:m])
            assert self._agree(np.zeros((m, 3)))

    def test_rescaled_normals(self):
        rng = np.random.default_rng(29)
        for m in (8, 40):
            eq = np.array(polar_fan(rng, m).equipment)
            verdicts = [self._agree(eq * rng.uniform(1e-2, 1e2, (m, 1))) for _ in range(3)]
            verdicts += [self._agree(planted(eq * rng.uniform(1e-2, 1e2, (m, 1)), 1, 5, 3, 0.5))]
            assert verdicts == [True, True, True, False]
        # one normal at the ends of the float range: the loop oracle overflows
        # on the cube of the largest norm, so brute force alone decides
        for scale, general in ((1e-200, False), (1e-150, False), (1e150, True), (1e300, True)):
            far = eq.copy()
            far[3] *= scale
            assert is_general_position(Fan(equipment=far, cells=())) is general is brute_general_position(far)
            assert fan_module._coplanar_triple(far) == brute_coplanar_triple(far)

    def test_many_row_blocks(self, monkeypatch):
        # blocks of one face i each, so every block boundary is crossed; _agree
        # builds a fresh Fan, whose cached witness sees the patched SCAN_BLOCK
        rng = np.random.default_rng(31)
        monkeypatch.setattr(fan_module, "SCAN_BLOCK", 64)
        verdicts = []
        for m in (33, 47):
            eq = np.array(polar_fan(rng, m).equipment)
            verdicts.append(self._agree(eq))
            for a, b, c in ((0, 1, m - 1), (m - 4, m - 3, m - 2), (m // 2, 3, m - 1)):
                verdicts.append(self._agree(planted(eq, a, b, c, 0.5)))
        assert verdicts == [True, False, False, False] * 2

    def test_large_polar_fans_span_several_blocks(self):
        rng = np.random.default_rng(37)
        for m in (300, 700):
            assert SCAN_BLOCK // m < m - 2
            fan = polar_fan(rng, m)
            eq = np.array(fan.equipment)
            assert is_general_position(fan) and general_position_loop(fan)
            for a, b, c in ((m - 3, m - 2, m - 1), (m // 2, 7, m - 5)):
                moved = Fan(equipment=planted(eq, a, b, c, 0.5), cells=())
                triple = fan_module._coplanar_triple(moved.equipment)
                assert not is_general_position(moved) and not general_position_loop(moved)
                assert triple[0] < triple[1] < triple[2] and c in triple
                assert abs(np.linalg.det(moved.equipment[list(triple)])) <= GENERAL_POSITION_TOL


def test_cross_matches_numpy_bit_for_bit():
    rng = np.random.default_rng(41)
    special = np.array([np.inf, -np.inf, np.nan, 1e300, -1e300, 1e-300, -1e-300, 5e-324, -2.5e-320, 0.0, -0.0])
    for shape_a, shape_b in (((3,), (3,)), ((200, 3), (200, 3)), ((4, 50, 3), (4, 50, 3)), ((4, 50, 3), (50, 3)),
                             ((1, 7, 3), (5, 1, 3))):
        a, b = rng.standard_normal(shape_a), rng.standard_normal(shape_b)
        for x in (a, b):
            hit = rng.random(x.shape) < 0.3
            x[hit] = rng.choice(special, int(hit.sum()))
        with np.errstate(all="ignore"):
            assert np.array_equal(fan_module._cross(a, b), np.cross(a, b), equal_nan=True)


def test_dot2_rounds_once():
    # t^T a correctly rounded where the three products nearly cancel, as t_p^T A_c
    # does in ill-conditioned cells; a plain float64 sum misses many of these
    rng = np.random.default_rng(36)
    t, a = rng.standard_normal((2, 100, 3)), rng.standard_normal((2, 100, 3, 3))
    a[..., 2, :] = -(t[..., 0, None] * a[..., 0, :] + t[..., 1, None] * a[..., 1, :]) / t[..., 2, None]
    a[..., 2, :] *= 1.0 + 1e-9 * rng.standard_normal((2, 100, 3))
    exact = np.array([[[float(sum(Fraction(x) * Fraction(y) for x, y in zip(t[i, r], a[i, r, :, k])))
                        for k in range(3)] for r in range(100)] for i in range(2)])
    assert np.array_equal(fan_module._dot2(t, a), exact)
    assert not np.array_equal(np.einsum("...i,...ik->...k", t, a), exact)


def test_cached_arrays_are_read_only(bowtie):
    # every cached property, read once; a write to any array it holds raises
    fan = Fan(equipment=bowtie.fan.equipment, cells=bowtie.fan.cells)
    names = [name for name, attr in vars(Fan).items() if isinstance(attr, cached_property)]
    values = [getattr(fan, name) for name in names]
    arrays = [v for v in values if isinstance(v, np.ndarray)] + list(fan.edge_rows) + list(vars(fan.ring_index).values())
    assert len(arrays) == 18 and all(isinstance(a, np.ndarray) for a in arrays)
    for array in [fan.equipment, *arrays]:
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0


@pytest.mark.parametrize("equipment", [np.eye(2), np.ones(3), np.ones((4, 4)), np.ones((4, 2)), [], np.ones((2, 3, 3))])
def test_equipment_must_be_three_vectors(equipment):
    with pytest.raises(ValueError, match=r"^equipment must be a list of 3-vectors$"):
        Fan(equipment=equipment, cells=())


def test_thousand_face_fan_checks_quickly():
    # C(1000, 3) determinant blocks would take about 12 GB
    fan = polar_fan(np.random.default_rng(5), 1000)
    start = time.perf_counter()
    assert is_general_position(fan)
    assert validate(fan).ok
    assert time.perf_counter() - start < 20.0


def test_thousand_face_invalid_fans_fail_cleanly():
    # the certificate covers the fans with a cell dropped and with every cell
    # reversed; the fan with one cell reversed runs the crossing scan: cap tests
    # over the C(2994, 2) arc pairs in blocks of rows, exact tests only on the
    # pairs whose caps meet
    fan = polar_fan(np.random.default_rng(5), 1000)
    cells = fan.cells
    dropped = Fan(equipment=fan.equipment, cells=cells[1:])
    reversed_cells = Fan(equipment=fan.equipment, cells=tuple(c[::-1] for c in cells))
    one_reversed = Fan(equipment=fan.equipment, cells=(cells[0][::-1],) + cells[1:])
    start = time.perf_counter()
    tracemalloc.start()
    try:
        report = validate(dropped)
        assert [code for code, _ in report.entries] == ["broken partition"] * 3 + ["Euler failure"]
        report = validate(reversed_cells)
        assert report.entries == [
            ("non-convex cell", f"cell {ci} is not a CCW convex spherical polygon") for ci in range(1996)
        ]
        report = validate(one_reversed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [code for code, _ in report.entries] == ["broken partition"] * 6 + ["non-convex cell"]
    assert time.perf_counter() - start < 20.0
    assert peak < 32 * 2**20


def test_ten_thousand_face_reversed_and_holed_fans_skip_the_scan(calls_of):
    # every cell reversed, cell k dropped, and both: the certificate covers all
    # three, and the scan's call count (not the wall time) shows it never runs
    fan = polar_fan(np.random.default_rng(19), 10_000)
    k, V, E = 4321, len(fan.cells), len(fan.arcs)
    a, b, c = fan.cells[k]

    def non_convex(count):
        return [("non-convex cell", f"cell {ci} is not a CCW convex spherical polygon") for ci in range(count)]

    def hole(*pairs):
        lonely = [("broken partition", f"arc {tuple(sorted(pair))} borders only one cell") for pair in sorted(pairs)]
        return lonely + [("Euler failure", f"V-E+F = {V - 1}-{E}+{fan.m} = 1")]
    scans = calls_of("_crossing_pairs", fan_module)
    reversed_fan, dropped, both = reversed_and_dropped(fan, k)
    assert validate(reversed_fan).entries == non_convex(V)
    assert validate(dropped).entries == hole((b, a), (c, b), (a, c))      # the pairs of the cells around the hole
    assert validate(both).entries == hole((a, b), (b, c), (c, a)) + non_convex(V - 1)
    assert scans == []


@pytest.mark.parametrize("seed", [3, 4])
def test_exact_test_sees_linear_pairs(monkeypatch, seed):
    # the caps leave the exact test about 8 pairs per arc, not all E(E-1)/2
    fan = polar_fan(np.random.default_rng(seed), 300)
    near_pairs, seen = fan_module._near_pairs, []

    def counted(*args):
        pairs = near_pairs(*args)
        seen.append(len(pairs[0]))
        return pairs
    monkeypatch.setattr(fan_module, "_near_pairs", counted)
    # one cell reversed, alone and with another dropped: mixed orientations, which the certificate cannot cover
    for cells in ((fan.cells[0][::-1],) + fan.cells[1:], (fan.cells[0][::-1],) + fan.cells[2:]):
        variant = Fan(equipment=fan.equipment, cells=cells)
        seen.clear()
        assert not validate(variant).ok
        assert 0 < sum(seen) <= 16 * len(variant.arcs)


class TestDualComplex:
    """The complex dual to the surface, as the ring index encodes it: nodes
    are faces, edges are arcs, 2-cells are the fan's cells."""

    def test_cube_dual_counts(self, cube):
        idx = cube.fan.ring_index
        assert (cube.fan.m, len(cube.fan.arcs), len(cube.fan.cells)) == (6, 12, 8)
        assert int(np.sum(idx.owner < idx.neighbor)) == 12
        assert np.bincount(idx.owner).tolist() == [4] * 6
        assert np.bincount(idx.cell).tolist() == [3] * 8

    def test_tetra_dual_counts(self, tetra):
        assert (tetra.fan.m, len(tetra.fan.arcs), len(tetra.fan.cells)) == (4, 6, 4)
        assert np.bincount(tetra.fan.ring_index.owner).tolist() == [3] * 4

    def test_rotation_degrees_match_edges(self, waisted):
        idx, arcs = waisted.fan.ring_index, waisted.fan.arcs
        for j in range(waisted.fan.m):
            ring = idx.neighbor[idx.start[j]:idx.start[j + 1]]
            assert sorted(ring.tolist()) == sorted(set(arcs[arcs[:, 0] == j, 1]) | set(arcs[arcs[:, 1] == j, 0]))
        once = idx.owner < idx.neighbor     # one position per arc
        assert sorted(zip(idx.owner[once].tolist(), idx.neighbor[once].tolist())) == list(map(tuple, arcs.tolist()))


def _reference_rings(fan):
    """cell, neighbor and start arrays of the face rings from node_chains."""
    chains = node_chains(fan.cells)
    rings = [chains[j] for j in range(fan.m)]
    sizes = [len(cells) for cells, _ in rings]
    return (np.concatenate([cells for cells, _ in rings]), np.concatenate([nbrs for _, nbrs in rings]),
            np.cumsum([0] + sizes))


def _malformed_message(walk, cells):
    try:
        walk(cells)
    except MalformedFan as exc:
        return str(exc)
    return None


class TestRingWalk:
    def test_matches_reference_walk(self, cube, box123, tetra, bowtie, waisted, tiling):
        rng = np.random.default_rng(17)
        fans = [h.fan for h in (cube, box123, tetra, bowtie, waisted, tiling)]
        for m in (6, 7, 9, 12, 20, 33, 50, 80, 120):
            fan = polar_fan(rng, m)
            fans += [fan, Fan(equipment=fan.equipment, cells=tuple(c[::-1] for c in fan.cells))]
        for fan in fans:
            idx = fan.ring_index
            cell, neighbor, start = _reference_rings(fan)
            assert np.array_equal(idx.cell, cell) and np.array_equal(idx.neighbor, neighbor)
            assert np.array_equal(idx.start, start)

    def test_malformed_messages_match_reference_walk(self, cube):
        # which face fails, and whether it is open or does not close, follows
        # the chain that the walk from the least-succ corner meets
        polar = polar_fan(np.random.default_rng(3), 20)
        for base, variants, kinds in (
            (cube.fan, [cube.fan.cells[:k] + cube.fan.cells[k + 1:] for k in range(8)], (7, 1, 0)),
            (polar, [polar.cells[:k] + polar.cells[k + 1:] for k in range(36)], (29, 7, 0)),
            (cube.fan, [cube.fan.cells + cube.fan.cells[2:3]], (0, 0, 1)),
        ):
            messages = [_malformed_message(node_chains, cells) for cells in variants]
            walked = [_malformed_message(lambda c: Fan(base.equipment, c).ring_index, cells) for cells in variants]
            assert walked == messages
            assert kinds == (
                sum(msg.startswith("open fan") for msg in messages),
                sum(msg.endswith("does not close") for msg in messages),
                sum(msg.endswith("appears twice") for msg in messages),
            )

    def test_ring_listed_twice_rejected(self):
        # face 0's corners form two cycles of three; walking six steps used
        # to list its ring twice and double its area
        fan = double_tetrahedron_fan()
        with pytest.raises(MalformedFan, match=r"^fan of faces around face 0 does not close$"):
            reconstruct(fan, np.ones(fan.m))

    def test_faces_outside_the_cells_rejected(self, cube):
        for cells in (cube.fan.cells[:-1] + ((0, 7, 2),), cube.fan.cells[:-1] + ((0, -1, 2),)):
            with pytest.raises(MalformedFan, match="exactly the faces 0..5"):
                Fan(cube.fan.equipment, cells).ring_index
        with pytest.raises(MalformedFan, match="exactly the faces 0..6"):
            Fan(np.vstack([cube.fan.equipment, [[0.6, 0.8, 0.0]]]), cube.fan.cells).ring_index


@pytest.mark.parametrize("label", [0.9, 0.0, 2.0, True, np.True_, "0", None, np.float64(1.0)])
def test_non_integer_cell_label_rejected(cube, label):
    # a label used to be cast with int(), so (0.9, 2, 4) became face 0 and validated
    cells = ((label, 2, 4),) + cube.fan.cells[1:]
    with pytest.raises(ValueError, match=rf"^cells\[0\]\[0\] = {re.escape(repr(label))} is not an integer$"):
        Fan(cube.fan.equipment, cells)


def test_numpy_integer_cell_labels_accepted(cube):
    cells = tuple(tuple(np.array(c, dtype=np.int32)) for c in cube.fan.cells)
    fan = Fan(cube.fan.equipment, cells)
    assert fan.cells == cube.fan.cells and all(type(i) is int for c in fan.cells for i in c)
    assert validate(fan).ok


def test_fans_compare_by_equipment_and_cells(cube):
    first, second = (Fan(np.array(cube.fan.equipment), cube.fan.cells) for _ in range(2))
    assert first is not second and first == second and hash(first) == hash(second)
    assert len({first, second}) == 1
    moved = np.array(cube.fan.equipment)
    moved[0] = (0.6, 0.8, 0.0)
    assert Fan(moved, cube.fan.cells) != first
    assert first != cube.fan.cells and first != "fan"


def test_public_names_resolve():
    assert all(hasattr(herisson, name) for name in herisson.__all__)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_hull_fans_always_validate(seed):
    fan = random_hull_fan(np.random.default_rng(seed), npoints=8)
    assert validate(fan).ok
    assert len(fan.cells) - len(fan.arcs) + fan.m == 2
