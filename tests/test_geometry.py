import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import halfspace_vertices, match_point_sets, polar_fan, random_hull_fan, shoelace_area
from herisson import builders
from herisson.congruence import congruent_and_parallel
from herisson.errors import DegenerateEquipment, DegenerateFace, InconsistentVertex, NotSameClass, SingularVertex
from herisson.fan import Fan
from herisson.geometry import (
    _consistency_matrix,
    balance_residual,
    gauge_fix,
    minkowski_sum,
    perimeter_bound,
    reconstruct,
    support_scale,
)

SQRT3 = np.sqrt(3.0)


def _singular_fan():
    """A fan whose cell 0 holds the opposite normals of faces 0 and 1."""
    eq = np.array([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
    return Fan(equipment=eq, cells=((0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3, 2)))


class TestReconstruct:
    def test_cube_unit_supports(self, cube):
        assert np.allclose(cube.oriented_areas, 4.0, atol=1e-12)
        assert np.all(cube.signs == 1)
        assert match_point_sets(
            cube.vertices, [(sx, sy, sz) for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)], 1e-12
        )

    def test_tetra_insphere_one(self, tetra):
        # area of each face of the regular tetrahedron with inradius 1
        assert np.allclose(tetra.oriented_areas, 6.0 * SQRT3, atol=1e-9)
        for j in range(4):
            assert shoelace_area(tetra, j) == pytest.approx(6.0 * SQRT3, abs=1e-9)

    def test_convex_oracle_halfspaces(self, cube, box123, tetra):
        for h in (cube, box123, tetra):
            oracle = halfspace_vertices(h.fan.equipment, h.h)
            assert match_point_sets(h.vertices, oracle, 1e-10)

    def test_box_areas_exact(self, box123):
        assert np.max(np.abs(box123.oriented_areas - np.array([6, 6, 3, 3, 2, 2]))) <= 1e-12

    def test_bowtie_sign_pattern(self, bowtie):
        assert list(bowtie.signs) == [1, -1, -1, -1, -1, -1, -1, 1]

    def test_areas_match_shoelace_oracle(self, bowtie, waisted, tiling):
        for h in (bowtie, waisted, tiling):
            for j in range(h.m):
                assert abs(h.oriented_areas[j]) == pytest.approx(
                    shoelace_area(h, j), abs=1e-9 * support_scale(h.h) ** 2
                )

    def test_vertices_on_all_incident_planes(self, waisted, bowtie, tiling):
        for h in (waisted, bowtie, tiling):
            scale = support_scale(h.h)
            for ci, cell in enumerate(h.fan.cells):
                for f in cell:
                    res = abs(h.fan.equipment[f] @ h.vertices[ci] - h.h[f])
                    assert res <= 1e-9 * scale

    def test_singular_vertex(self):
        with pytest.raises(SingularVertex, match=r"^cell 0: faces \(0, 1, 2\) have coplanar normals$"):
            reconstruct(_singular_fan(), np.ones(4))

    def test_block_inverses_refuse_a_singular_block(self):
        with pytest.raises(SingularVertex, match=r"^cell 0: faces \(0, 1, 2\) have coplanar normals$"):
            _singular_fan().block_inverses

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_normal_is_a_singular_vertex(self, cube, value):
        # no determinant is taken of a non-finite block, so numpy warns of
        # nothing (the test configuration turns RuntimeWarning into an error)
        eq = np.array(cube.fan.equipment)
        eq[0, 0] = value
        with pytest.raises(SingularVertex, match=r"^cell 0: faces \(0, 2, 4\) have non-finite normals$"):
            reconstruct(Fan(equipment=eq, cells=cube.fan.cells), np.ones(6))

    def test_inconsistent_vertex_names_cell_and_face(self, bowtie):
        # the bowtie's waist cells have four faces; move the fourth plane
        ci = next(i for i, cell in enumerate(bowtie.fan.cells) if len(cell) == 4)
        f = bowtie.fan.cells[ci][3]
        h = np.array(bowtie.h)
        h[f] += 0.1
        with pytest.raises(InconsistentVertex, match=f"^cell {ci}: plane of face {f} misses"):
            reconstruct(bowtie.fan, h)

    @pytest.mark.parametrize("fixture", ["bowtie", "waisted", "tiling"])
    def test_consistency_rows_vanish_on_realized_supports(self, fixture, request):
        body = request.getfixturevalue(fixture)
        cons = _consistency_matrix(body.fan)
        extra = sum(len(cell) - 3 for cell in body.fan.cells)
        assert cons.shape == (extra, body.m)
        assert np.max(np.abs(cons @ body.h), initial=0.0) <= 1e-12 * support_scale(body.h)

    def test_degenerate_face(self, cube):
        h = np.array(cube.h)
        h[5] = -1.0  # z=+1 and z=-(-1): zero-height box
        with pytest.raises(DegenerateFace):
            reconstruct(cube.fan, h)

    def test_balance_for_every_fixture(self, cube, box123, tetra, bowtie, waisted, tiling):
        for h in (cube, box123, tetra, bowtie, waisted, tiling):
            residual = balance_residual(h.oriented_areas, h.fan)
            bound = 1e-9 * max(1.0, float(np.sum(np.abs(h.oriented_areas))))
            assert np.linalg.norm(residual) <= bound

    def test_translation_equivariance(self, bowtie, rng):
        for _ in range(5):
            c = rng.uniform(-2, 2, 3)
            moved = reconstruct(bowtie.fan, bowtie.h + bowtie.fan.equipment @ c)
            scale = support_scale(moved.h)
            assert np.max(np.abs(moved.vertices - (bowtie.vertices + c))) <= 1e-9 * scale
            assert np.max(np.abs(moved.oriented_areas - bowtie.oriented_areas)) <= 1e-10 * scale**2

    def test_homogeneity(self, waisted, rng):
        for _ in range(5):
            lam = rng.uniform(0.3, 3.0)
            scaled = reconstruct(waisted.fan, lam * waisted.h)
            assert np.allclose(
                scaled.oriented_areas, lam**2 * waisted.oriented_areas, rtol=1e-9, atol=0
            )

    def test_random_convex_reconstruction(self, rng):
        for _ in range(3):
            fan, h = random_hull_fan(rng, with_supports=True)
            body = reconstruct(fan, h)
            assert np.all(body.signs == 1)
            oracle = halfspace_vertices(fan.equipment, h)
            assert match_point_sets(body.vertices, oracle, 1e-8)


class TestGaugeFix:
    def test_symmetric_cube_unchanged(self, cube):
        assert np.allclose(gauge_fix(cube.fan, cube.h), cube.h, atol=1e-14)

    def test_translated_cube_recentered(self, cube):
        # unit cube shifted along x: supports (2,0,1,1,1,1)
        h = np.array([2.0, 0.0, 1.0, 1.0, 1.0, 1.0])
        assert np.allclose(gauge_fix(cube.fan, h), np.ones(6), atol=1e-14)

    def test_idempotent(self, bowtie, rng):
        h = bowtie.h + bowtie.fan.equipment @ rng.uniform(-3, 3, 3)
        once = gauge_fix(bowtie.fan, h)
        assert np.allclose(gauge_fix(bowtie.fan, once), once, atol=1e-13)

    def test_gauge_is_translate(self, waisted):
        fixed = gauge_fix(waisted.fan, waisted.h)
        a = reconstruct(waisted.fan, fixed)
        assert np.allclose(a.oriented_areas, waisted.oriented_areas, atol=1e-12)

    def test_equipment_not_spanning_space(self):
        # gauge_fix reads only the equipment, here four normals in one plane
        flat = Fan(equipment=[[1, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0]], cells=((0, 1, 2), (0, 2, 3)))
        with pytest.raises(DegenerateEquipment, match="^equipment does not span 3-space$"):
            gauge_fix(flat, np.ones(4))


FIXTURES = ("cube", "box123", "tetra", "bowtie", "waisted", "tiling")


@pytest.fixture(params=[*FIXTURES, "polar8", "polar40", "polar120"])
def body(request):
    if request.param in FIXTURES:
        return request.getfixturevalue(request.param)
    m = int(request.param[len("polar"):])
    return reconstruct(polar_fan(np.random.default_rng(m), m), np.ones(m))


class TestRingLengths:
    """Each surface measures its edge lengths once, in ring_lengths."""

    def test_read_only_and_computed_once(self, body):
        lengths = body.ring_lengths
        assert lengths is body.ring_lengths
        assert not lengths.flags.writeable
        with pytest.raises(ValueError):
            lengths[0] = 1.0

    def test_match_face_polygons(self, body):
        starts = body.fan.ring_index.start
        for j in range(body.m):
            poly = body.face_polygon(j)
            sides = np.linalg.norm(np.roll(poly, -1, axis=0) - poly, axis=1)
            assert np.array_equal(body.ring_lengths[starts[j]:starts[j + 1]], sides)
            assert body.perimeters[j] == pytest.approx(sides.sum(), rel=1e-15)

    def test_both_positions_of_an_arc_agree(self, body):
        # the edge vectors at the two positions are exact negatives, so
        # edge_lengths may read either position
        idx = body.fan.ring_index
        at = {(a, b): p for p, (a, b) in enumerate(zip(idx.owner.tolist(), idx.neighbor.tolist()))}
        mate = np.array([at[b, a] for a, b in zip(idx.owner.tolist(), idx.neighbor.tolist())])
        assert not np.array_equal(mate, np.arange(len(mate)))
        assert np.array_equal(body.ring_lengths, body.ring_lengths[mate])
        assert np.array_equal(list(body.edge_lengths().values()), body.ring_lengths[idx.arc_pos])


class TestFaceIndex:
    @pytest.mark.parametrize("j", [-1, 6, 100])
    def test_out_of_range_face_raises(self, cube, j):
        with pytest.raises(IndexError, match=f"^face {j} is outside 0..5$"):
            cube.face_cycle(j)
        with pytest.raises(IndexError, match=f"^face {j} is outside 0..5$"):
            cube.face_polygon(j)

    def test_every_face_in_range(self, cube):
        assert [len(cube.face_cycle(j)) for j in range(cube.m)] == [4] * 6


class TestMinkowskiSum:
    def test_cube_plus_cube(self, cube):
        total = minkowski_sum(cube, cube)
        assert np.allclose(total.oriented_areas, 16.0, atol=1e-12)

    def test_tetra_homogeneity(self):
        t1 = builders.regular_tetrahedron(1.0)
        t2 = builders.regular_tetrahedron(2.0)
        total = minkowski_sum(t1, t2)
        expect = builders.regular_tetrahedron(3.0)
        assert np.allclose(total.oriented_areas, expect.oriented_areas, rtol=1e-12)
        assert np.allclose(total.oriented_areas, 9.0 * t1.oriented_areas, rtol=1e-12)

    def test_bowtie_edge_lengths_add(self, bowtie):
        total = minkowski_sum(bowtie, bowtie)
        left = bowtie.edge_lengths()
        for arc, length in total.edge_lengths().items():
            assert length == pytest.approx(2.0 * left[arc], abs=1e-10)

    def test_edge_lengths_linear_across_shapes(self):
        a = builders.reflected_truncated_tetrahedron(0.3)
        b = builders.reflected_truncated_tetrahedron(0.6)
        total = minkowski_sum(a, b)
        la, lb = a.edge_lengths(), b.edge_lengths()
        for arc, length in total.edge_lengths().items():
            assert length == pytest.approx(la[arc] + lb[arc], abs=1e-10)

    def test_fan_mismatch(self, cube, tetra):
        with pytest.raises(NotSameClass, match="^equipments differ$"):
            minkowski_sum(cube, tetra)

    def test_sign_mismatch(self, cube):
        # a box with one negative extent realizes a different orientation class
        mixed = reconstruct(cube.fan, np.array([0.5, 0.5, -1.0, 0.5, 1.0, 1.0]))
        assert set(mixed.signs) == {-1, 1}
        with pytest.raises(NotSameClass, match="^face signs differ$"):
            minkowski_sum(cube, mixed)


def _nudged_cube(cube, delta):
    eq = np.array(cube.fan.equipment)
    eq[0, 1] += delta
    return reconstruct(Fan(equipment=eq, cells=cube.fan.cells), cube.h)


class TestSameClass:
    """minkowski_sum and congruent_and_parallel share one rule for one class."""

    def test_equipment_within_tolerance_is_accepted(self, cube):
        nudged = _nudged_cube(cube, 1e-10)
        assert np.allclose(minkowski_sum(cube, nudged).oriented_areas, 16.0, atol=1e-8)
        assert congruent_and_parallel(cube, nudged).is_congruent

    def test_equipment_beyond_tolerance_is_refused(self, cube):
        nudged = _nudged_cube(cube, 1e-6)
        with pytest.raises(NotSameClass, match="^equipments differ$"):
            minkowski_sum(cube, nudged)
        with pytest.raises(NotSameClass, match="^equipments differ$"):
            congruent_and_parallel(cube, nudged)

    def test_partitions_differ(self, cube):
        # the same normals, every cell listed from another corner: equal
        # cyclic orders, but not equal cells
        turned = Fan(equipment=cube.fan.equipment, cells=tuple(c[1:] + c[:1] for c in cube.fan.cells))
        other = reconstruct(turned, cube.h)
        with pytest.raises(NotSameClass, match="^sphere partitions differ$"):
            minkowski_sum(cube, other)
        with pytest.raises(NotSameClass, match="^sphere partitions differ$"):
            congruent_and_parallel(cube, other)


class TestPerimeterBound:
    def test_right_angle(self):
        assert perimeter_bound(1.0, np.pi / 2) == pytest.approx(2.0)

    def test_extremal_isosceles_triangle(self):
        # the inscribed isosceles triangle with base 1 and base angles pi/6
        alpha = np.pi / 6
        area = 0.25 * np.sin(alpha) ** 2
        assert perimeter_bound(area, alpha) == pytest.approx(1.0, abs=1e-12)

    def test_plugin_value(self):
        assert perimeter_bound(4.0, np.pi / 4) == pytest.approx(4.0 / np.sin(np.pi / 4))

    def test_brute_force_bound(self, rng):
        # Random convex polygons with min edge-line angle >= pi/4; no side
        # may exceed the bound for their area.
        from helpers import polygon_from_supports

        angles = np.deg2rad([0.0, 80.0, 170.0, 230.0, 310.0])
        for _ in range(200):
            poly = polygon_from_supports(angles, rng.uniform(0.5, 2.0, 5))
            if poly is None:
                continue
            edges = np.roll(poly, -1, axis=0) - poly
            lengths = np.linalg.norm(edges, axis=1)
            area = 0.5 * abs(
                float(np.sum(poly[:, 0] * np.roll(poly[:, 1], -1) - np.roll(poly[:, 0], -1) * poly[:, 1]))
            )
            assert np.max(lengths) <= perimeter_bound(area, np.pi / 4) + 1e-9

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            perimeter_bound(-1.0, 0.5)
        with pytest.raises(ValueError):
            perimeter_bound(1.0, 2.0)


@settings(max_examples=40, deadline=None)
@given(
    c=st.tuples(*[st.floats(-5, 5) for _ in range(3)]),
    lam=st.floats(0.1, 4.0),
)
def test_equivariance_properties(c, lam):
    base = builders.cube()
    c = np.array(c)
    moved = reconstruct(base.fan, lam * (base.h + base.fan.equipment @ c / lam))
    scale = support_scale(moved.h)
    assert np.max(np.abs(moved.oriented_areas - lam**2 * base.oriented_areas)) <= 1e-9 * max(
        1.0, lam**2 * 4.0
    ) + 1e-10 * scale**2
