import itertools
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull

from helpers import convexity_entries, crossing_entries, polar_fan, random_hull_fan
from herisson import builders
from herisson import fan as fan_module
from herisson.errors import MalformedFan
from herisson.fan import GENERAL_POSITION_TOL, Fan, dual_complex, is_general_position, validate


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


def reference_entries(fan):
    """validate's entries, with the cell checks and the crossing scan taken
    from the one-at-a-time references."""
    local = [e for e in validate(fan).entries if e[0] not in ("non-convex cell", "crossing arcs")]
    return local + convexity_entries(fan) + crossing_entries(fan)


def brute_general_position(eq):
    """Every C(m, 3) determinant, as the definition reads."""
    triples = np.array(list(itertools.combinations(range(len(eq)), 3)))
    return bool(np.all(np.abs(np.linalg.det(eq[triples])) > GENERAL_POSITION_TOL))


def bigon_cube_fan():
    """Cube fan with a degree-2 spherical vertex inserted on the arc {0, 2}."""
    base = builders.cube().fan
    return Fan(equipment=base.equipment, cells=base.cells + ((0, 2),))


class TestValidate:
    def test_cube_fan_is_valid(self, cube):
        assert validate(cube.fan).ok

    def test_bowtie_fan_is_valid(self, bowtie):
        assert validate(bowtie.fan).ok

    def test_all_builders_valid(self, cube, box123, tetra, bowtie, waisted, tiling):
        for h in (cube, box123, tetra, bowtie, waisted, tiling):
            report = validate(h.fan)
            assert report.ok, str(report)

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

    def test_euler_failure_reported(self, cube):
        report = validate(Fan(equipment=cube.fan.equipment, cells=cube.fan.cells[:-1]))
        assert "Euler failure" in report.codes

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

    def test_matches_pairwise_scan(self, monkeypatch, cube, box123, tetra, bowtie, waisted, tiling):
        fans = [h.fan for h in (cube, box123, tetra, bowtie, waisted, tiling)]
        fans += perturbed_polar_fans(7) + polar_variants(7) + [double_cover_pentagram()]
        fans += [fan for fan, _ in great_circle_cases().values()]
        fast = [validate(fan).entries for fan in fans]
        assert fast == [reference_entries(fan) for fan in fans]
        assert {"crossing arcs", "non-convex cell"} <= {code for entries in fast for code, _ in entries}
        monkeypatch.setattr(fan_module, "_excess_sum", lambda eq, cells: float("nan"))
        assert fast == [validate(fan).entries for fan in fans]

    @pytest.mark.parametrize("name", ["overlap", "repeated", "touching"])
    def test_same_great_circle_arcs(self, name):
        fan, details = great_circle_cases()[name]
        expected = [("crossing arcs", detail) for detail in details]
        assert [e for e in validate(fan).entries if e[0] == "crossing arcs"] == expected
        assert crossing_entries(fan) == expected

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


def test_thousand_face_fan_checks_quickly():
    # C(1000, 3) determinant blocks would take about 12 GB
    fan = polar_fan(np.random.default_rng(5), 1000)
    start = time.perf_counter()
    assert is_general_position(fan)
    assert validate(fan).ok
    assert time.perf_counter() - start < 20.0


def test_thousand_face_invalid_fans_fail_cleanly():
    # both run the arc scan over all C(2994, 2) arc pairs, in blocks
    fan = polar_fan(np.random.default_rng(5), 1000)
    dropped = Fan(equipment=fan.equipment, cells=fan.cells[1:])
    reversed_cells = Fan(equipment=fan.equipment, cells=tuple(c[::-1] for c in fan.cells))
    start = time.perf_counter()
    report = validate(dropped)
    assert [code for code, _ in report.entries] == ["broken partition"] * 3 + ["Euler failure"]
    report = validate(reversed_cells)
    assert report.entries == [
        ("non-convex cell", f"cell {ci} is not a CCW convex spherical polygon") for ci in range(1996)
    ]
    assert time.perf_counter() - start < 20.0


class TestDualComplex:
    def test_cube_dual_counts(self, cube):
        dc = dual_complex(cube.fan)
        assert len(dc.nodes) == 6
        assert len(dc.edges) == 12
        assert len(dc.cells) == 8
        assert all(len(c) == 3 for c in dc.cells)

    def test_tetra_dual_counts(self, tetra):
        dc = dual_complex(tetra.fan)
        assert (len(dc.nodes), len(dc.edges), len(dc.cells)) == (4, 6, 4)

    def test_degree2_vertex_collapsed(self):
        dc = dual_complex(bigon_cube_fan())
        assert (len(dc.nodes), len(dc.edges), len(dc.cells)) == (6, 12, 8)

    def test_antipodal_bigon_is_malformed(self, cube):
        fan = Fan(equipment=cube.fan.equipment, cells=cube.fan.cells + ((0, 1),))
        with pytest.raises(MalformedFan):
            dual_complex(fan)

    def test_rotation_degrees_match_edges(self, waisted):
        dc = dual_complex(waisted.fan)
        for node in dc.nodes:
            incident = [e for e in dc.edges if node in e]
            assert dc.degree(node) == len(incident)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_hull_fans_always_validate(seed):
    fan = random_hull_fan(np.random.default_rng(seed), npoints=8)
    assert validate(fan).ok
    assert len(fan.cells) - len(fan.arcs) + fan.m == 2
