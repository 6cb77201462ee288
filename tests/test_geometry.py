import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    area_jacobian_cross,
    halfspace_vertices,
    match_point_sets,
    null_basis,
    oriented_areas_cross,
    polar_fan,
    random_hull_fan,
    shoelace_area,
    vertex_solve_loop,
)
from herisson import builders, geometry
from herisson import fan as fan_module
from herisson.congruence import congruent_and_parallel
from herisson.errors import DegenerateEquipment, DegenerateFace, InconsistentVertex, NotSameClass, SingularVertex
from herisson.fan import Fan, validate
from herisson.geometry import (
    Herisson,
    _area_jacobian,
    balance_residual,
    gauge_fix,
    minkowski_sum,
    reconstruct,
    support_scale,
)

SQRT3 = np.sqrt(3.0)


def _singular_fan():
    """A fan whose cell 0 holds the opposite normals of faces 0 and 1."""
    eq = np.array([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
    return Fan(equipment=eq, cells=((0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3, 2)))


def _octahedron_normal_fan():
    """The normal fan of the octahedron, every cell listing faces 0 and 7
    last: no vertex block holds their normals."""
    eq = np.array([(x, y, z) for x in (1, -1) for y in (1, -1) for z in (1, -1)]) / np.sqrt(3)
    cells = ((2, 3, 1, 0), (6, 4, 5, 7), (1, 5, 4, 0), (3, 2, 6, 7), (4, 6, 2, 0), (5, 1, 3, 7))
    return eq, cells


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

    @pytest.mark.parametrize("face, value", [(0, np.nan), (7, np.inf), (7, -np.inf)])
    def test_non_finite_normal_outside_the_vertex_blocks(self, face, value):
        # named before anything is realized, so no NaN area warns when cast to a sign
        eq, cells = _octahedron_normal_fan()
        eq[face, 1] = value
        with pytest.raises(ValueError, match=f"^face {face} has a non-finite normal$"):
            reconstruct(Fan(equipment=eq, cells=cells), np.ones(8))

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
        cons = body.fan.consistency_matrix
        extra = sum(len(cell) - 3 for cell in body.fan.cells)
        assert cons.shape == (extra, body.m)
        assert np.max(np.abs(cons @ body.h), initial=0.0) <= 1e-12 * support_scale(body.h)

    def test_degenerate_face(self, cube):
        h = np.array(cube.h)
        h[5] = -1.0  # z=+1 and z=-(-1): zero-height box
        with pytest.raises(DegenerateFace):
            reconstruct(cube.fan, h)

    def test_zero_area_face_refused_alone(self):
        # phi is exactly quadratic along h0 + s d: phi_j = c + b s + a s^2 with
        # c = phi(h0)_j, a = phi(d)_j and b from phi(h0 + d)_j.  At its root
        # between supports that give face j opposite signs, only that area is
        # small, so the area test (not the edge test) refuses the surface
        rng = np.random.default_rng(0)
        fan = polar_fan(rng, 20)
        h0, h1 = np.ones(20), 1.0 + 0.8 * rng.uniform(-1.0, 1.0, 20)
        f0, f1, quad = (Herisson(fan, h).oriented_areas for h in (h0, h1, h1 - h0))
        j = int(np.nonzero(f0 * f1 < 0.0)[0][0])
        (s,) = [r.real for r in np.roots([quad[j], f1[j] - f0[j] - quad[j], f0[j]]) if r.imag == 0.0 and 0.0 < r.real < 1.0]
        surface = Herisson(fan, h0 + s * (h1 - h0))
        areas = np.abs(surface.oriented_areas)
        assert areas[j] <= 1e-14 and np.delete(areas, j).min() > 1e-3
        assert np.abs(surface.signed_lengths).min() > 1e-3
        with pytest.raises(DegenerateFace, match=r"^smallest \|oriented area\| .* below tolerance$"):
            reconstruct(fan, surface.h)

    def test_balance_for_every_fixture(self, cube, box123, tetra, bowtie, waisted, tiling):
        for h in (cube, box123, tetra, bowtie, waisted, tiling):
            residual = balance_residual(h.oriented_areas, h.fan)
            bound = 1e-9 * max(1.0, float(np.sum(np.abs(h.oriented_areas))))
            assert np.linalg.norm(residual) <= bound

    def test_balance_of_a_wrong_length_refused(self, cube):
        for areas in (cube.oriented_areas[:-1], np.append(cube.oriented_areas, 1.0), cube.oriented_areas[None]):
            with pytest.raises(ValueError, match=r"^area vector length does not match the fan$"):
                balance_residual(areas, cube.fan)

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


class TestSurface:
    """Herisson(fan, h) holds the fan and the supports; every other array derives from them."""

    def test_fields_are_fan_and_supports(self, bowtie):
        body = Herisson(bowtie.fan, bowtie.h.tolist())
        assert [f.name for f in dataclasses.fields(Herisson)] == ["fan", "h"]
        assert vars(body).keys() == {"fan", "h"}
        assert body.h.dtype == float and not body.h.flags.writeable
        assert np.array_equal(body.h, bowtie.h) and body.h is not bowtie.h

    def test_derived_arrays_are_read_only_and_computed_once(self, bowtie, calls_of):
        lengths = calls_of("_signed_lengths", geometry)
        body = Herisson(bowtie.fan, bowtie.h)
        for name in ("vertices", "signed_lengths", "oriented_areas", "signs"):
            value = getattr(body, name)
            assert getattr(body, name) is value and not value.flags.writeable
            with pytest.raises(ValueError):
                value[0] = 0
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(body, name, value)
        assert len(lengths) == 1      # areas read the cached lengths, signs the cached areas
        assert vars(body).keys() == {"fan", "h", "vertices", "signed_lengths", "oriented_areas", "signs"}
        assert body.vertices.shape == (len(bowtie.fan.cells), 3) and body.vertices.flags.c_contiguous
        assert np.array_equal(body.signs, np.sign(body.oriented_areas)) and body.signs.dtype == int

    def test_equality_is_identity(self):
        # equal fields would compare arrays, which have no single truth value
        first, second = builders.box(1.0, 1.0, 1.0), builders.box(1.0, 1.0, 1.0)
        assert first == first and first != second and not first == second
        assert hash(first) == hash(first) and len({first, second}) == 2

    @pytest.mark.parametrize("build", [Herisson, reconstruct])
    def test_supports_of_the_wrong_length_are_refused(self, cube, build):
        with pytest.raises(ValueError, match=r"^support vector has length \(5,\), fan has m=6$"):
            build(cube.fan, np.ones(5))


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
        # gauge_fix reads only the equipment, here four normals in one plane;
        # the Fan caches no raise, so every call raises
        flat = Fan(equipment=[[1, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0]], cells=((0, 1, 2), (0, 2, 3)))
        for _ in range(2):
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
    """Each surface measures its edges once, as the signed lengths at its ring positions."""

    def test_read_only_and_computed_once(self, body):
        lengths = body.signed_lengths
        assert lengths is body.signed_lengths
        assert not lengths.flags.writeable
        with pytest.raises(ValueError):
            lengths[0] = 1.0

    def test_match_face_polygons(self, body):
        # |l_p| is the polygon side within a few ulps of the magnitude of the six
        # products l_p sums (Fan.edge_rows), the scale at which L h is rounded,
        # and l_p has the sign of the side's vector against the fan's edge direction t_p;
        # the polygon's vertices round at that scale too, so a bound in ulps of
        # the side holds only for lengths read off the same rounded vertices
        starts, t = body.fan.ring_index.start, body.fan.edge_frames[:, 0]
        cols, coeffs, _, _ = body.fan.edge_rows
        magnitude = np.abs(coeffs * body.h[cols]).sum(axis=0)
        for j in range(body.m):
            poly = body.face_polygon(j)
            sides = np.roll(poly, -1, axis=0) - poly
            lengths = body.signed_lengths[starts[j]:starts[j + 1]]
            length = np.linalg.norm(sides, axis=1)
            assert np.all(np.abs(np.abs(lengths) - length) <= 4 * np.spacing(magnitude[starts[j]:starts[j + 1]]))
            assert np.array_equal(np.sign(lengths), np.sign((sides * t[starts[j]:starts[j + 1]]).sum(axis=1)))

    def test_both_positions_of_an_arc_agree(self, body):
        # the two positions of an arc sum the same six products in the same
        # order, so an arc's signed length may be read at either position
        idx = body.fan.ring_index
        at = {(a, b): p for p, (a, b) in enumerate(zip(idx.owner.tolist(), idx.neighbor.tolist()))}
        mate = np.array([at[b, a] for a, b in zip(idx.owner.tolist(), idx.neighbor.tolist())])
        assert not np.array_equal(mate, np.arange(len(mate)))
        assert np.array_equal(body.signed_lengths, body.signed_lengths[mate])


def _edge_directions(body):
    """(t_p, u_jk, e_p) of every ring position: the fan's edge frame and the edge vector from the vertices."""
    idx, frames = body.fan.ring_index, body.fan.edge_frames
    return frames[:, 0], frames[:, 1], body.vertices[idx.cell[idx.next_pos]] - body.vertices[idx.cell]


class TestEdgeFrames:
    """Fan.edge_frames: the unit direction t_p of the edge at each ring position
    and the unit projection u_jk of the neighbour's normal onto the face's plane."""

    def test_unit_and_perpendicular(self, body):
        fan = body.fan
        t, u, _ = _edge_directions(body)
        n, across = fan.equipment[fan.ring_index.owner], fan.equipment[fan.ring_index.neighbor]
        assert fan.edge_frames.shape == (len(fan.ring_index.owner), 2, 3)
        assert np.max(np.abs(np.linalg.norm(fan.edge_frames, axis=2) - 1.0)) <= 1e-14
        for a, b in ((t, n), (t, across), (u, n)):
            assert np.max(np.abs(np.einsum("ij,ij->i", a, b))) <= 1e-14
        assert np.all(np.einsum("ij,ij->i", u, across) > 0.0)

    def test_twin_position_holds_the_opposite_direction(self, body):
        idx = body.fan.ring_index
        at = {(a, b): p for p, (a, b) in enumerate(zip(idx.owner.tolist(), idx.neighbor.tolist()))}
        twin = np.array([at[b, a] for a, b in zip(idx.owner.tolist(), idx.neighbor.tolist())])
        t = body.fan.edge_frames[:, 0]
        assert np.array_equal(t[twin], -t)

    def test_read_only_and_computed_once(self, body, calls_of):
        fan = Fan(equipment=body.fan.equipment, cells=body.fan.cells)
        crosses = calls_of("_cross", fan_module)
        frames = fan.edge_frames
        assert fan.edge_frames is frames and len(crosses) == 2
        assert not frames.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            frames[0] = 0.0

    def test_signed_rows_are_the_edge_normals(self, body):
        # the congruence rows' outward normal eps_j (e_p x n_j) / |e_p|, from the
        # vertices, is s_p u_jk with s_p = eps_j sign(e_p . t_p), within 1e-12; the
        # direction of a vertex difference is good only to its rounding over |e_p|,
        # so short edges get 1e-14 scale / |e_p| (1.7e-12 off at m = 120)
        t, u, edge = _edge_directions(body)
        eps = body.signs[body.fan.ring_index.owner]
        n = body.fan.equipment[body.fan.ring_index.owner]
        length = np.linalg.norm(edge, axis=1)
        normal = eps[:, None] * np.cross(edge, n) / length[:, None]
        s = eps * np.sign(np.einsum("ij,ij->i", edge, t))
        assert np.all(np.abs(s) == 1)
        err = np.max(np.abs(normal - s[:, None] * u), axis=1)
        assert np.all(err <= np.maximum(1e-12, 1e-14 * body.scale / length))

    def test_hedgehog_fixtures_have_negative_edges(self, cube, box123, tetra, bowtie, waisted, tiling):
        # edges against t_p (negative signed lengths, out of all ring positions) and faces
        # of negative area, so that the cross-check above meets every sign of s_p; convex
        # bodies have neither
        counts = [(int(np.sum(b.signed_lengths < 0.0)), b.signed_lengths.size)
                  for b in (cube, box123, tetra, bowtie, waisted, tiling)]
        assert counts == [(0, 24), (0, 24), (0, 12), (18, 30), (24, 42), (8, 36)]
        assert [int(np.sum(b.signs < 0)) for b in (bowtie, waisted, tiling)] == [6, 9, 4]


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

    @staticmethod
    def assert_lengths_add(fan, h1, h2):
        # signed edge lengths are linear in the supports, at every ring position
        total = Herisson(fan, h1 + h2)
        err = total.signed_lengths - Herisson(fan, h1).signed_lengths - Herisson(fan, h2).signed_lengths
        assert np.max(np.abs(err)) <= 1e-12 * total.scale
        return total

    def test_bowtie_edge_lengths_add(self, bowtie):
        self.assert_lengths_add(bowtie.fan, bowtie.h, bowtie.h)

    def test_edge_lengths_linear_across_shapes(self):
        a = builders.reflected_truncated_tetrahedron(0.3)
        b = builders.reflected_truncated_tetrahedron(0.6)
        self.assert_lengths_add(a.fan, a.h, b.h)

    def test_edge_lengths_linear_through_sign_changes(self):
        # polar hedgehogs, sigma = 0.3: about 45 % of the edges run against t_p,
        # and the sum turns some of them over
        rng = np.random.default_rng(34)
        flipped = negative = total_edges = 0
        for m in (20, 40, 120):
            fan = polar_fan(rng, m)
            h1, h2 = (1.0 + 0.3 * rng.standard_normal(m) for _ in range(2))
            total = self.assert_lengths_add(fan, h1, h2)
            first = Herisson(fan, h1).signed_lengths
            flipped += int(np.sum(np.sign(total.signed_lengths) != np.sign(first)))
            negative, total_edges = negative + int(np.sum(first < 0.0)), total_edges + first.size
        assert flipped > 0 and 0.3 < negative / total_edges < 0.6

    def test_face_signs_may_change(self):
        # two herissons of one class whose sum flips two faces: supports add,
        # areas (quadratic in the supports) do not
        rng = np.random.default_rng(165)
        fan = polar_fan(rng, 40)
        for sigma, eps in ((0.3, 0.1), (0.3, 0.3), (0.6, 0.1), (0.6, 0.3)):
            h1 = 1.0 + sigma * rng.standard_normal(40)
            h2 = h1 + eps * sigma * rng.standard_normal(40)
        a, b = reconstruct(fan, h1), reconstruct(fan, h2)
        total = minkowski_sum(a, b)
        assert np.array_equal(total.h, h1 + h2)
        assert np.array_equal(a.signs, b.signs)
        assert np.flatnonzero(total.signs != a.signs).tolist() == [34, 39]
        areas = np.array([a.oriented_areas, b.oriented_areas, total.oriented_areas])[:, [34, 39]]
        assert np.allclose(areas, [[-0.252, 2.461], [-0.193, 1.163], [0.187, -0.098]], rtol=0.0, atol=1e-3)

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

    def test_nan_normal_differs_from_itself(self):
        # the vertices come from the first three planes, so a NaN normal 0
        # still realizes unchecked (reconstruct refuses it), and one Fan
        # object with a NaN is not of one class with itself
        eq, cells = _octahedron_normal_fan()
        assert validate(Fan(equipment=eq, cells=cells)).ok
        eq[0] = np.nan
        body = Herisson(Fan(equipment=eq, cells=cells), np.ones(8))
        with np.errstate(invalid="ignore"):     # the sign of the NaN area
            assert np.isfinite(body.vertices).all() and body.signs.shape == (8,)
        with pytest.raises(NotSameClass, match="^equipments differ$"):
            minkowski_sum(body, body)

    def test_partitions_differ(self, cube):
        # the same normals, every cell listed from another corner: equal
        # cyclic orders, but not equal cells
        turned = Fan(equipment=cube.fan.equipment, cells=tuple(c[1:] + c[:1] for c in cube.fan.cells))
        other = reconstruct(turned, cube.h)
        with pytest.raises(NotSameClass, match="^sphere partitions differ$"):
            minkowski_sum(cube, other)
        with pytest.raises(NotSameClass, match="^sphere partitions differ$"):
            congruent_and_parallel(cube, other)


class TestVertexMap:
    """Realization and the analytic Jacobian through the fan's cached vertex map and edge rows."""

    @pytest.fixture
    def bodies(self, cube, box123, tetra, bowtie, waisted, tiling):
        # the polar fans also with equipment x 1.5: the frames keep the (p x q) . n scaling
        rng = np.random.default_rng(20)
        bodies = [(b.fan, np.array(b.h)) for b in (cube, box123, tetra, bowtie, waisted, tiling)]
        for m in (6, 8, 20, 40, 120, 300):
            fan = polar_fan(rng, m)
            for fan in (fan, Fan(equipment=1.5 * fan.equipment, cells=fan.cells)):
                bodies += [(fan, 10.0 ** e * rng.uniform(0.5, 1.5, m)) for e in (-2, 0, 2)]
        return bodies

    def test_vertices_match_per_cell_solves(self, bodies):
        for fan, h in bodies:
            err = np.max(np.abs(Herisson(fan, h).vertices - vertex_solve_loop(fan, h)))
            assert err <= 1e-12 * support_scale(h)

    def test_areas_and_jacobian_match_the_cross_product_oracle(self, bodies):
        # the edge-row kernels reorder the arithmetic of the cross products, so
        # they agree with them to rounding, not bit for bit; the oracle's J is the
        # derivative of the first-three-planes model in every direction, which the
        # classical J matches on null(K) only (the identity where K has no rows)
        for fan, h in bodies:
            surface = Herisson(fan, h)
            oracle = oriented_areas_cross(fan, surface.vertices)
            assert np.max(np.abs(surface.oriented_areas - oracle)) <= 1e-14 * np.max(np.abs(oracle))
            oracle = area_jacobian_cross(fan, surface.vertices)
            jac = _area_jacobian(fan, surface.signed_lengths)
            assert np.max(np.abs((jac - oracle) @ null_basis(fan))) <= 1e-14 * np.max(np.abs(oracle))


def test_perimeters_are_bounded_by_the_support_norm(cube, box123, tetra, bowtie, waisted, tiling):
    # vertex c is B_c^-1 h on its cell's first three faces, so |v_c| <= |B_c^-1|_2 |h|,
    # and a face of at most k_max sides has perimeter at most 2 k_max max_c |B_c^-1|_2 |h|
    rng = np.random.default_rng(18)
    fans = [body.fan for body in (cube, box123, tetra, bowtie, waisted, tiling)]
    fans += [polar_fan(rng, m) for m in (8, 12, 20, 40, 80, 120)]
    for fan in fans:
        k_max = int(np.diff(fan.ring_index.start).max())
        inverse = float(np.linalg.norm(fan.block_inverses, ord=2, axis=(1, 2)).max())
        for _ in range(20):
            h = 10.0 ** rng.uniform(-3.0, 3.0) * (1.0 + rng.uniform(0.0, 1.5) * rng.standard_normal(fan.m))
            perimeters = np.add.reduceat(np.abs(Herisson(fan, h).signed_lengths), fan.ring_index.start[:-1])
            assert perimeters.max() <= 2.0 * k_max * inverse * np.linalg.norm(h)


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
