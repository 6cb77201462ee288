import time
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import null_space

import helpers
from helpers import (
    NotComparable,
    can_translate_inside,
    cyclic_sign_changes,
    edge_labeling_loop,
    face_polygon_2d,
    fit_slack,
    grid_fit_exists,
    label_parallel_faces,
    polar_fan,
    prism_fan,
    random_normal_fan_2d,
    random_polygon_pair,
)
from herisson import builders, congruence, geometry
from herisson import fan as fan_module
from herisson.congruence import CongruenceStatus, _position_labels, congruent_and_parallel
from herisson.errors import DegenerateFace, NotSameClass
from herisson.fan import Fan
from herisson.geometry import Herisson, reconstruct


SQ1 = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


class TestCanTranslateInside:
    def test_unit_square_in_double_square(self):
        assert can_translate_inside(SQ1, 2.0 * SQ1)

    def test_congruent_translate_is_false(self):
        assert not can_translate_inside(SQ1, SQ1 + np.array([3.0, -2.0]))

    def test_rectangle_1x3_in_square_2x2(self):
        rect = np.array([[0, 0], [1, 0], [1, 3], [0, 3]], dtype=float)
        square = 2.0 * SQ1
        assert not can_translate_inside(rect, square)
        assert not grid_fit_exists(rect, square)  # brute-force confirmation

    def test_grid_oracle_agrees(self, rng):
        for _ in range(20):
            angles = random_normal_fan_2d(rng)
            p, q = random_polygon_pair(rng, angles)
            p = 0.55 * p
            assert can_translate_inside(p, q) == grid_fit_exists(p, q)


class TestLabelParallelFaces:
    def test_congruent_triangles_all_zero(self):
        tri = np.array([[0.0, 0.0], [2.0, 0.0], [0.4, 1.3]])
        lab = label_parallel_faces(tri, tri + np.array([5.0, 7.0]))
        assert lab.all_zero
        assert lab.index1 == 0

    def test_swapped_rectangles(self):
        r13 = np.array([[0, 0], [1, 0], [1, 3], [0, 3]], dtype=float)
        r31 = np.array([[0, 0], [3, 0], [3, 1], [0, 1]], dtype=float)
        lab = label_parallel_faces(r13, r31)
        assert lab.index1 == 4 and lab.index2 == 4
        assert sorted(lab.edge_labels(1)) == [-1, -1, 1, 1]
        # cyclically alternating +1/-1 around either polygon
        edges = list(lab.edge_labels(1))
        assert all(edges[i] != edges[(i + 1) % 4] for i in range(4))

    def test_not_comparable(self):
        with pytest.raises(NotComparable):
            label_parallel_faces(SQ1, 3.0 * SQ1)

    def test_same_fan_pairs_zero_or_at_least_four(self, rng):
        for _ in range(60):
            angles = random_normal_fan_2d(rng)
            p, q = random_polygon_pair(rng, angles)
            if can_translate_inside(p, q) or can_translate_inside(q, p):
                continue
            lab = label_parallel_faces(p, q)
            if lab.all_zero:
                assert lab.index1 == 0
            else:
                assert lab.index1 >= 4 and lab.index2 >= 4
            assert lab.index1 != 2 and lab.index2 != 2

    def test_antisymmetry(self, rng):
        for _ in range(20):
            angles = random_normal_fan_2d(rng)
            p, q = random_polygon_pair(rng, angles)
            if can_translate_inside(p, q) or can_translate_inside(q, p):
                continue
            lab = label_parallel_faces(p, q)
            rev = label_parallel_faces(q, p)
            assert lab.labels1 == rev.labels2
            assert lab.labels2 == rev.labels1

    def test_mixed_fans_vertex_rules(self):
        # square versus diamond: every edge faces a vertex, rules (ii)/(iii)
        diamond = np.array([[1.5, 0.0], [0.0, 1.5], [-1.5, 0.0], [0.0, -1.5]])
        square = 2.0 * SQ1 - 1.0
        lab = label_parallel_faces(square, diamond)
        assert all(e == 1 for e in lab.edge_labels(1))
        assert all(e == 1 for e in lab.edge_labels(2))
        assert lab.index1 >= 4 and lab.index2 >= 4


class TestEdgeLabeling:
    def test_equal_herissons_all_zero(self, bowtie):
        assert not _position_labels(bowtie, bowtie.translated([0.3, -0.4, 0.9])).any()

    def test_antisymmetric(self):
        a = builders.reflected_truncated_tetrahedron(0.35)
        b = builders.reflected_truncated_tetrahedron(0.65)
        fwd = _position_labels(a, b)
        assert fwd.any() and np.array_equal(fwd, -_position_labels(b, a))

    def test_feeds_cauchy_verdict(self, cube):
        # a longer box against the cube: the labels are nonzero and some face
        # satisfies Cauchy's lemma
        counts = _labeled_ring_sign_changes(builders.box(4.0, 2.0, 2.0), cube)
        assert counts and min(counts) <= 2


class TestCauchyVerdict:
    def test_perturbed_pairs_give_witness(self, rng):
        # a 5% larger body with perturbed supports: some label is nonzero, and
        # some labeled face has at most two sign changes
        for m in (20, 40, 60, 80, 120):
            for _ in range(4):
                fan = polar_fan(rng, m)
                first = reconstruct(fan, np.ones(m))
                second = reconstruct(fan, 1.05 * np.ones(m) + 0.01 * rng.uniform(-1, 1, m))
                counts = _labeled_ring_sign_changes(first, second)
                assert counts and min(counts) <= 2


class TestCongruentAndParallel:
    def test_translate_recovered(self, bowtie, rng):
        polars = [reconstruct(polar_fan(np.random.default_rng(seed), m), np.ones(m))
                  for seed, m in ((40, 40), (60, 60))]
        for body in [bowtie] * 5 + polars:
            c = rng.uniform(-4, 4, 3)
            verdict = congruent_and_parallel(body, body.translated(c))
            assert verdict.status is CongruenceStatus.CONGRUENT
            assert np.max(np.abs(verdict.translation - c)) <= 1e-9

    def test_translates_decided_without_containment(self, bowtie, rng, monkeypatch):
        def refuse(*_args):
            raise AssertionError("containment test run on a translate")

        monkeypatch.setattr(congruence, "_fits", refuse)
        polar = reconstruct(polar_fan(np.random.default_rng(7), 40), np.ones(40))
        for body in (bowtie, polar):
            c = rng.uniform(-1, 1, 3)
            verdict = congruent_and_parallel(body, body.translated(c))
            assert verdict.status is CongruenceStatus.CONGRUENT
            assert np.max(np.abs(verdict.translation - c)) <= 1e-9

    def test_verdict_equality_is_identity(self, cube):
        # equal fields would compare translation arrays, which have no single truth value
        moved = cube.translated([0.3, 0.0, 0.0])
        first, second = congruent_and_parallel(cube, moved), congruent_and_parallel(cube, moved)
        assert first == first and first != second and not first == second
        assert hash(first) == hash(first) and len({first, second}) == 2

    def test_superposition_failure_names_lowest_face(self, cube, monkeypatch):
        # zero labels force the superposition: face 0 coincides after the
        # shift c = (1, 0, 0), the vertices at x = -1 stay 2 off
        monkeypatch.setattr(congruence, "_position_labels", lambda a, _b: np.zeros(len(a.fan.ring_index.cell), dtype=int))
        verdict = congruent_and_parallel(cube, builders.box(4.0, 2.0, 2.0))
        assert verdict.status is CongruenceStatus.DISTINCT
        assert (verdict.face, verdict.detail) == (1, "face 1 fails to coincide after superposition (dev 2.00e+00)")

    def test_distinct_witness_matches_polygon_labeling(self, monkeypatch):
        # containment switched off, both the line test and the nested-face
        # check: the witness is the first face pair with nonzero polygon
        # labels, and its index is that labeling's count
        monkeypatch.setattr(congruence, "_fits", lambda *_args: iter(()))
        monkeypatch.setattr(congruence, "_nested_faces", _no_nested_faces)
        monkeypatch.setattr(helpers, "can_translate_inside", lambda _p, _q: False)
        for first, second in (
            (builders.waisted_bitetrahedron(1), builders.waisted_bitetrahedron(2)),
            (builders.box(1.0, 2.0, 3.0), builders.box(3.0, 2.0, 1.0)),
            (builders.box(1.0, 2.0, 3.0), builders.box(2.0, 3.0, 1.0)),
        ):
            verdict = congruent_and_parallel(first, second)
            labelings = [label_parallel_faces(face_polygon_2d(first, j), face_polygon_2d(second, j))
                         for j in range(first.m)]
            j = next(j for j, lab in enumerate(labelings) if not lab.all_zero)
            assert verdict.status is CongruenceStatus.DISTINCT
            assert (verdict.face, verdict.index) == (j, labelings[j].index1)
            assert verdict.detail == f"face {j} pair has index {labelings[j].index1}"

    def test_nested_cubes_hypothesis_failure(self, cube):
        big = builders.box(4.0, 4.0, 4.0)
        verdict = congruent_and_parallel(cube, big)
        assert verdict.status is CongruenceStatus.HYPOTHESIS_FAILURE

    def test_different_waisted_bodies_not_congruent(self):
        # different elongation: lateral trapezoid 4 nests inside its mate, so
        # the uniqueness hypothesis fails and congruence is refused
        short, long = builders.waisted_bitetrahedron(1), builders.waisted_bitetrahedron(2)
        for first, second, detail in (
            (short, long, "face 4 of the first fits inside the second"),
            (long, short, "face 4 of the second fits inside the first"),
        ):
            verdict = congruent_and_parallel(first, second)
            assert verdict.status is CongruenceStatus.HYPOTHESIS_FAILURE
            assert (verdict.face, verdict.index, verdict.detail) == (4, None, detail)
            assert verdict.direction == (first is long)

    def test_not_same_class_equipment(self, cube, tetra):
        with pytest.raises(NotSameClass):
            congruent_and_parallel(cube, tetra)

    def test_not_same_class_signs(self, cube):
        mixed = reconstruct(cube.fan, np.array([0.5, 0.5, -1.0, 0.5, 1.0, 1.0]))
        with pytest.raises(NotSameClass):
            congruent_and_parallel(cube, mixed)

    def test_zero_area_faces_refused(self, cube):
        # an unchecked box of width 0: faces 2-5 have area 0, so their rows
        # have s_p = 0 and would fit either way; the lowest of them is named
        first = Herisson(cube.fan, [1.0, -1.0, 1.0, 1.0, 1.0, 1.0])
        second = Herisson(cube.fan, [1.0, -1.0, 2.0, 2.0, 0.5, 0.5])
        assert first.signs.tolist() == second.signs.tolist() == [1, 1, 0, 0, 0, 0]
        for pair in ((first, second), (second, first)):
            with pytest.raises(DegenerateFace, match=r"^face 2 has zero area$"):
                congruent_and_parallel(*pair)

    def test_one_fan_costs_no_equipment_check(self, cube, monkeypatch):
        # one Fan object skips np.allclose, and each fresh herisson measures its
        # scale once however often the verdict reads it
        scales, closes = [], []
        support_scale, allclose = geometry.support_scale, np.allclose
        monkeypatch.setattr(geometry, "support_scale", lambda h: scales.append(1) or support_scale(h))
        monkeypatch.setattr(np, "allclose", lambda *a, **k: closes.append(1) or allclose(*a, **k))
        box = reconstruct(cube.fan, np.array([0.5, 0.5, 1.0, 1.0, 1.5, 1.5]))
        for other, status in ((cube.translated([0.3, 0.0, 0.0]), CongruenceStatus.CONGRUENT),
                              (box, CongruenceStatus.HYPOTHESIS_FAILURE)):
            h1, h2 = (Herisson(h.fan, h.h) for h in (cube, other))
            scales.clear()
            assert congruent_and_parallel(h1, h2).status is status
            assert (len(scales), closes) == (2, [])
            assert congruent_and_parallel(h1, h2).status is status
            assert len(scales) == 2
        # an equal Fan object of its own still takes the check, and passes it
        twin = Fan(equipment=cube.fan.equipment.copy(), cells=cube.fan.cells)
        moved = reconstruct(twin, cube.h + twin.equipment @ [0.3, 0.0, 0.0])
        assert congruent_and_parallel(cube, moved).is_congruent
        assert closes == [1]

    def test_self_congruent_fixture_sweep(self, cube, tetra, bowtie, waisted, tiling):
        for body in (cube, tetra, bowtie, waisted, tiling):
            verdict = congruent_and_parallel(body, body.translated([1.0, 2.0, 3.0]))
            assert verdict.status is CongruenceStatus.CONGRUENT
            assert np.allclose(verdict.translation, [1.0, 2.0, 3.0], atol=1e-9)

    def test_large_prism_pair_exits_early(self):
        # the 2000-gon caps are faces 0 and 1: face 0 is convex in both prisms
        # and shorter on every edge, so it nests without a line test
        first, second = _prism_pair()
        verdict, peak, elapsed = _traced(lambda: congruent_and_parallel(first, second))
        assert verdict.status is CongruenceStatus.HYPOTHESIS_FAILURE
        assert (verdict.face, verdict.detail) == (0, "face 0 of the first fits inside the second")
        assert elapsed < 2.0
        assert peak < 64 * 2**20

    def test_large_prism_pair_reversed(self, monkeypatch):
        # direction 0 of face 0 fails on all 2000 rows, read in pieces of
        # SCAN_BLOCK // 2000 whole rows; direction 1 then fits
        first, second = _prism_pair()
        sizes, dot = [], congruence._block_dot
        monkeypatch.setattr(congruence, "_block_dot",
                            lambda a, b: sizes.append(_pairs(a, b)) or dot(a, b))
        verdict, peak, _elapsed = _traced(lambda: congruent_and_parallel(second, first))
        assert verdict.status is CongruenceStatus.HYPOTHESIS_FAILURE
        assert (verdict.face, verdict.direction, verdict.detail) == (0, 1, "face 0 of the second fits inside the first")
        assert peak < 64 * 2**20
        assert sum(sizes) > 4 * 2000**2 and max(sizes) < congruence.SCAN_BLOCK + 2000

    def test_zero_length_edges_give_zero_rows(self, cube):
        # an unchecked box of width 0: its x-edges have length 0 and faces 2-5
        # area 0, so s_p = 0 there and their rows are zero, not NaN (numpy would
        # warn); the square faces 0 and 1 still fit in direction 0 only
        first = Herisson(cube.fan, [1.0, -1.0, 1.0, 1.0, 1.0, 1.0])
        second = Herisson(cube.fan, [1.0, -1.0, 2.0, 2.0, 2.0, 2.0])
        assert not first.signed_lengths.all() and first.signs.tolist() == second.signs.tolist() == [1, 1, 0, 0, 0, 0]
        fits = {(f, d) for face, direction in congruence._fits(first, second, np.arange(6), congruence.FIT_TOL)
                for f, d in zip(face.tolist(), direction.tolist())}
        assert {(0, 0), (1, 0)} <= fits and not {(0, 1), (1, 1)} & fits

    def test_verdict_stops_at_the_first_fitting_face(self, monkeypatch):
        # face 0 fits, in direction 0 for (first, second) and in direction 1 for
        # (second, first): the verdict reads that face's rows and the rows of
        # the groups up to it, not the whole fan, in their products
        # (_block_dot, counted in padded pairs); the rows take u and the line
        # direction from the fan's edge frames, so neither the verdict nor an
        # exhausted _fits takes a cross product
        rng = np.random.default_rng([20261018, 0])
        fan = polar_fan(rng, 60)
        first = reconstruct(fan, np.ones(60))
        second = reconstruct(fan, 1.05 * np.ones(60) + 0.01 * rng.uniform(-1, 1, 60))
        fan.edge_frames                   # taken once per Fan, here before the count
        assert not hasattr(congruence, "_cross")
        rows = {"_cross": 0, "_block_dot": 0}
        for module, name, count in ((fan_module, "_cross", len), (geometry, "_cross", len),
                                    (congruence, "_block_dot", _pairs)):
            kernel = getattr(module, name)
            monkeypatch.setattr(module, name, lambda a, b, name=name, kernel=kernel, count=count:
                                rows.__setitem__(name, rows[name] + count(a, b)) or kernel(a, b))
        labeled = np.flatnonzero(np.add.reduceat(np.abs(congruence._position_labels(first, second)),
                                                 fan.ring_index.start[:-1]))
        for direction, (h1, h2) in enumerate(((first, second), (second, first))):
            rows.update(_cross=0, _block_dot=0)
            verdict = congruent_and_parallel(h1, h2)
            used = dict(rows)
            assert (verdict.status, verdict.face, verdict.direction) == (
                CongruenceStatus.HYPOTHESIS_FAILURE, 0, direction)
            rows.update(_cross=0, _block_dot=0)
            for _ in congruence._fits(h1, h2, labeled, congruence.FIT_TOL * max(h1.scale, h2.scale)):
                pass
            assert used["_cross"] == rows["_cross"] == 0, (direction, used, rows)
            assert 0 < used["_block_dot"] < 0.1 * rows["_block_dot"], (direction, used, rows)

    @pytest.mark.parametrize("order", [0, 1])
    def test_large_prism_pair_read_to_the_end(self, order):
        # every face in both directions: the caps' 2000 rows are read in
        # pieces, the 2000 lateral quads in groups of whole segments; each
        # face of the smaller prism fits inside its mate, none the reverse
        pair = _prism_pair()
        first, second = pair[::-1] if order else pair
        tol = congruence.FIT_TOL * max(first.scale, second.scale)
        found, peak, _elapsed = _traced(lambda: [
            (f, d) for face, direction in congruence._fits(first, second, np.arange(first.m), tol)
            for f, d in zip(face.tolist(), direction.tolist())])
        assert found == sorted(found) and set(found) == {(j, order) for j in range(first.m)}
        assert peak < 64 * 2**20


def _pairs(cols, rows):
    """The (row, constraint) pairs of one _block_dot call: (S, K, 3) @ (S, 3, r) takes S K r."""
    return cols.shape[0] * cols.shape[1] * rows.shape[2]


def _prism_pair():
    fan = prism_fan(2000)
    return reconstruct(fan, np.ones(fan.m)), reconstruct(fan, np.r_[1.2, 1.2, np.full(2000, 1.05)])


def _traced(call):
    """call's result, its tracemalloc peak in bytes and its wall time."""
    tracemalloc.start()
    try:
        start = time.perf_counter()
        result = call()
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak, elapsed


def _same_class_pairs():
    """The fixture pairs and seeded polar pairs whose signs agree."""
    pairs = [
        (builders.cube(), builders.box(4.0, 4.0, 4.0)),
        (builders.cube(), builders.box(4.0, 2.0, 2.0)),
        (builders.box(1.0, 2.0, 3.0), builders.box(3.0, 2.0, 1.0)),
        (builders.box(1.0, 2.0, 3.0), builders.box(2.0, 3.0, 1.0)),
        (builders.waisted_bitetrahedron(1), builders.waisted_bitetrahedron(2)),
        (builders.waisted_bitetrahedron(1), builders.waisted_bitetrahedron(3)),
        (builders.waisted_bitetrahedron(2), builders.waisted_bitetrahedron(3)),
        (builders.reflected_truncated_tetrahedron(0.35), builders.reflected_truncated_tetrahedron(0.65)),
    ]
    rng = np.random.default_rng(20261018)
    for m in (20, 40, 60) * 2:
        for factor, noise in ((1.0, 1e-4), (1.05, 0.01), (0.97, 0.01)):
            fan = polar_fan(rng, m)
            h = factor * np.ones(m) + fan.equipment @ rng.uniform(-1, 1, 3) + noise * rng.uniform(-1, 1, m)
            pairs.append((reconstruct(fan, np.ones(m)), reconstruct(fan, h)))
    return [(a, b) for a, b in pairs if np.array_equal(a.signs, b.signs)]


def test_edge_labeling_matches_the_dict_oracle():
    # fixtures, perturbed pairs, exact translates and near-translates whose
    # support noise puts edge-length differences around the 1e-9 band
    pairs = _same_class_pairs()
    rng = np.random.default_rng(20261019)
    for m in (20, 40, 60):
        for noise in (0.0, 1e-11, 1e-10, 3e-10, 1e-9):
            fan = polar_fan(rng, m)
            h = np.ones(m) + fan.equipment @ rng.uniform(-1, 1, 3) + noise * rng.uniform(-1, 1, m)
            pairs.append((reconstruct(fan, np.ones(m)), reconstruct(fan, h)))
    seen = set()
    for first, second in pairs:
        for a, b in ((first, second), (second, first)):
            idx = a.fan.ring_index
            once = idx.owner < idx.neighbor     # one position per arc
            labels = _position_labels(a, b)[once].tolist()
            arcs = list(zip(idx.owner[once].tolist(), idx.neighbor[once].tolist()))
            assert sorted(arcs) == list(map(tuple, a.fan.arcs.tolist()))
            assert dict(zip(arcs, labels)) == edge_labeling_loop(a, b)
            seen |= set(labels)
    assert seen == {-1, 0, 1}


def _labeled_ring_sign_changes(first, second):
    """The oracle's sign-change count around each face whose ring of position
    labels from first to second carries a nonzero label."""
    labels, start = _position_labels(first, second), first.fan.ring_index.start
    rings = [labels[start[j]:start[j + 1]].tolist() for j in range(first.m)]
    return [cyclic_sign_changes(ring) for ring in rings if any(ring)]


def test_labeled_pairs_have_a_face_of_at_most_two_sign_changes():
    # Cauchy's lemma on the ring labels: when some label is nonzero, some face
    # whose ring carries one has at most two sign changes around it
    most = 0
    for first, second in _same_class_pairs():
        counts = _labeled_ring_sign_changes(first, second)
        assert counts and min(counts) <= 2
        most = max(most, *counts)
    assert most >= 4                              # other rings do change sign more often


def _mixed_ring_pairs(bowtie, tiling):
    """Same-class pairs whose rings differ widely in size: prisms over n-gons
    (two n-gons among quads), the bowtie and the tiling, each moved off its
    mate by a scaling and by noise in the null space of its consistency rows."""
    rng = np.random.default_rng(20261020)
    bodies = [reconstruct(prism_fan(n), np.ones(n + 2)) for n in range(5, 13)] + [bowtie, tiling]
    pairs = []
    for body in bodies:
        cons = body.fan.consistency_matrix
        free = null_space(cons) if len(cons) else np.eye(body.m)
        for factor in (1.05, 1.0):
            noise = free @ (0.02 * rng.uniform(-1, 1, free.shape[1]))
            pairs.append((body, reconstruct(body.fan, factor * body.h + noise)))
    return [(a, b) for a, b in pairs if np.array_equal(a.signs, b.signs)]


def test_fits_match_the_linear_programs(monkeypatch, bowtie, tiling):
    # faces with all-zero ring labels are translates and never fit; the fits
    # come out in (face, direction) order, the same for every block size: 1
    # and 7 read every face in pieces of one row (two for k = 3 at 7); 20
    # reads faces of five edges or more in pieces of 20 // k rows (4 at
    # k = 5) and groups the smaller ones; 64 groups faces of up to eight
    # edges and cuts larger ones; the default groups whole faces, several
    # at a time.  A group pads its rings to its largest, so the mixed-ring
    # pairs, whose groups hold quads or triangles beside an n-gon, check
    # that padded rows neither constrain nor report
    mixed = _mixed_ring_pairs(bowtie, tiling)
    assert len(mixed) == 20
    compared = 0
    for first, second in _same_class_pairs() + mixed:
        scale = max(first.scale, second.scale)
        labeled = sorted({f for arc, label in edge_labeling_loop(first, second).items() if label for f in arc})
        runs = []
        for block in (1, 7, 20, 64, congruence.SCAN_BLOCK):
            monkeypatch.setattr(congruence, "SCAN_BLOCK", block)
            runs.append([(f, d) for face, direction in congruence._fits(
                first, second, np.array(labeled, dtype=int), congruence.FIT_TOL * scale)
                for f, d in zip(face.tolist(), direction.tolist())])
            monkeypatch.undo()
        assert all(run == sorted(runs[-1]) for run in runs)
        fits = np.zeros((first.m, 2), dtype=bool)
        for face, direction in runs[-1]:
            fits[face, direction] = True
        for j in range(first.m):
            p1, p2 = face_polygon_2d(first, j), face_polygon_2d(second, j)
            for direction, (moved, receiving) in enumerate(((p1, p2), (p2, p1))):
                if abs(fit_slack(moved, receiving)) > 1e-8 * scale:
                    assert fits[j, direction] == can_translate_inside(moved, receiving), (first.m, j, direction)
                    compared += 1
    assert compared >= 1200


def _fit_table(first, second):
    """Whether face j of first fits inside face j of second, and the reverse, by the linear programs."""
    polygons = [(face_polygon_2d(first, j), face_polygon_2d(second, j)) for j in range(first.m)]
    return [(can_translate_inside(p, q), can_translate_inside(q, p)) for p, q in polygons]


def _pinned_pairs():
    """(name, first, second, the oracle's fit table) of seeded same-class pairs whose
    first fit comes late, and of one in which no face fits."""
    rng = np.random.default_rng([20261025, 888])
    fan = polar_fan(rng, 60)
    first, second = reconstruct(fan, np.ones(60)), reconstruct(fan, np.ones(60) + 0.01 * rng.uniform(-1, 1, 60))
    yield "face 5", first, second, _fit_table(first, second)
    # faces relabeled so that the ones that fit in neither direction come first
    rng = np.random.default_rng([20261025, 21, 2])
    fan = polar_fan(rng, 60)
    h = np.ones(60) + 0.01 * rng.uniform(-1, 1, 60)
    table = _fit_table(reconstruct(fan, np.ones(60)), reconstruct(fan, h))
    order = np.argsort([any(fit) for fit in table], kind="stable")      # new face j is old face order[j]
    new = np.argsort(order)
    fan = Fan(equipment=fan.equipment[order], cells=tuple(tuple(int(new[i]) for i in cell) for cell in fan.cells))
    yield "face 27", reconstruct(fan, np.ones(60)), reconstruct(fan, h[order]), [table[j] for j in order]
    # non-convex: supports of both signs on a six-face fan
    rng = np.random.default_rng([20261025, 7, 1641])
    fan = polar_fan(rng, int(rng.integers(5, 10)))
    first, second = reconstruct(fan, rng.uniform(-1, 1, fan.m)), reconstruct(fan, rng.uniform(-1, 1, fan.m))
    yield "distinct", first, second, _fit_table(first, second)


PINNED = {
    "face 5": [(CongruenceStatus.HYPOTHESIS_FAILURE, 5, 0, None, "face 5 of the first fits inside the second"),
               (CongruenceStatus.HYPOTHESIS_FAILURE, 5, 1, None, "face 5 of the second fits inside the first")],
    "face 27": [(CongruenceStatus.HYPOTHESIS_FAILURE, 27, 1, None, "face 27 of the second fits inside the first"),
                (CongruenceStatus.HYPOTHESIS_FAILURE, 27, 0, None, "face 27 of the first fits inside the second")],
    "distinct": [(CongruenceStatus.DISTINCT, 0, None, 4, "face 0 pair has index 4")] * 2,
}


def test_late_fits_and_distinct_are_pinned():
    # the verdicts, in both orders, name the lowest face that fits by the
    # linear programs and the direction it fits in, direction 0 first; the
    # non-convex pair has no face that fits either way
    for name, first, second, table in _pinned_pairs():
        assert np.array_equal(first.signs, second.signs)
        for order, (h1, h2) in enumerate(((first, second), (second, first))):
            v = congruent_and_parallel(h1, h2)
            assert (v.status, v.face, v.direction, v.index, v.detail) == PINNED[name][order]
            fits = [fit[::-1] if order else fit for fit in table]
            lowest = next((j for j, fit in enumerate(fits) if any(fit)), None)
            if v.status is CongruenceStatus.DISTINCT:
                assert lowest is None
            else:
                assert lowest == v.face and fits[lowest].index(True) == v.direction


def _no_nested_faces(h1, _h2, _ring):
    """_nested_faces switched off: every verdict comes from the line test alone."""
    return np.zeros(h1.m, dtype=bool)


def _near_tie_pairs():
    """Seeded same-class pairs on polar fans, the second support vector a scaling of
    the first, moved and perturbed: 1 + 1.2e-9 and 1 + 2e-9 put edge-length
    differences around LENGTH_TOL, 1.001 and 1.05 well past it, and noise up to
    0.05 makes some faces non-convex."""
    rng = np.random.default_rng(20261022)
    pairs = []
    for m in (6, 9, 14, 20, 30, 45, 60):
        for factor in (1 + 1.2e-9, 1 + 2e-9, 1.001, 1.05):
            for noise in (0.0, 1e-10, 1e-3, 0.01, 0.05):
                fan = polar_fan(rng, m)
                h = np.ones(m) + noise * rng.uniform(-1, 1, m)
                moved = factor * h + fan.equipment @ rng.uniform(-0.5, 0.5, 3)
                pairs.append((reconstruct(fan, h), reconstruct(fan, moved)))
    return [(a, b) for a, b in pairs if np.array_equal(a.signs, b.signs)]


def _differential_pairs(bowtie, tiling):
    """Every test pair set, in both orders."""
    pairs = (_same_class_pairs() + _mixed_ring_pairs(bowtie, tiling) + [pair[1:3] for pair in _pinned_pairs()]
             + [_prism_pair()] + _near_tie_pairs())
    return [ordered for pair in pairs for ordered in (pair, pair[::-1])]


def _verdict_key(v):
    translation = None if v.translation is None else v.translation.tobytes()
    return v.status, v.face, v.direction, v.index, v.detail, translation


def test_nested_faces_leave_verdicts_unchanged(monkeypatch, bowtie, tiling):
    # the verdict with the nested-face check equals the line test's alone, and
    # the check decides a good share of the verdicts: the face it names is
    # nested and no lower labeled face fits
    pairs = _differential_pairs(bowtie, tiling)
    with_check = [congruent_and_parallel(a, b) for a, b in pairs]
    monkeypatch.setattr(congruence, "_nested_faces", _no_nested_faces)
    alone = [congruent_and_parallel(a, b) for a, b in pairs]
    monkeypatch.undo()
    assert [_verdict_key(v) for v in with_check] == [_verdict_key(v) for v in alone]
    decided = sum(v.status is CongruenceStatus.HYPOTHESIS_FAILURE
                  and congruence._nested_faces(a, b, _position_labels(a, b))[v.face]
                  for (a, b), v in zip(pairs, with_check))
    statuses = {v.status for v in alone}
    assert len(pairs) >= 350 and decided >= 80 and len(statuses) == 3, (len(pairs), decided, statuses)


def test_nested_faces_fit_in_direction_0(bowtie, tiling):
    # every face the check marks fits in direction 0 by an exhaustive read of
    # the line test and, unless its fit slack is within 1e-8 of 0 (the linear
    # programs then call it a translate), by the linear programs.  Faces whose
    # labels are all -1 but which are not convex in both stay unmarked, and
    # some of them do not fit
    marked = programs = unmarked = unfit = 0
    for a, b in _differential_pairs(bowtie, tiling):
        if a.m > 100:       # the prism pair: its 2002 faces take the linear programs too long
            continue
        ring = _position_labels(a, b)
        nested = congruence._nested_faces(a, b, ring)
        shorter = np.maximum.reduceat(ring, a.fan.ring_index.start[:-1]) < 0
        fits = {(f, d) for face, direction in congruence._fits(
            a, b, np.arange(a.m), congruence.FIT_TOL * max(a.scale, b.scale))
            for f, d in zip(face.tolist(), direction.tolist())}
        for j in np.flatnonzero(nested).tolist():
            assert (j, 0) in fits, (a.m, j)
            p, q = face_polygon_2d(a, j), face_polygon_2d(b, j)
            if can_translate_inside(p, q):
                programs += 1
            else:
                assert abs(fit_slack(p, q)) <= 1e-8 * max(a.scale, b.scale), (a.m, j)
        marked += int(nested.sum())
        unmarked += int((shorter & ~nested).sum())
        unfit += sum((j, 0) not in fits for j in np.flatnonzero(shorter & ~nested).tolist())
    assert marked >= 1800 and programs >= 0.95 * marked and unmarked >= 100 and unfit >= 1, (
        marked, programs, unmarked, unfit)


@pytest.mark.parametrize("pair, order, face, reads", [
    ("box 4 4 4", 0, 0, False), ("box 4 4 4", 1, 0, True),
    ("prism", 0, 0, False), ("prism", 1, 0, True), ("box 4 2 2", 0, 2, True)])
def test_nested_face_reads_no_rows(monkeypatch, pair, order, face, reads):
    # the cube in box(4, 4, 4) and the small prism in the large one: face 0
    # nests and the verdict reads no row; in the reverse order every label is
    # +1, nothing nests, and the line test reads rows to find the fit.  In
    # box(4, 2, 2) faces 0 and 1 are translates and faces 2-5 carry 0 and -1
    # labels, so nothing nests either
    first, second = _prism_pair() if pair == "prism" else (builders.cube(), builders.box(*map(float, pair.split()[1:])))
    h1, h2 = (second, first) if order else (first, second)
    pairs, dot = [], congruence._block_dot
    monkeypatch.setattr(congruence, "_block_dot", lambda a, b: pairs.append(_pairs(a, b)) or dot(a, b))
    verdict = congruent_and_parallel(h1, h2)
    assert (verdict.status, verdict.face, verdict.direction) == (CongruenceStatus.HYPOTHESIS_FAILURE, face, order)
    assert congruence._nested_faces(h1, h2, _position_labels(h1, h2)).any() != reads
    assert (sum(pairs) > 0) == reads


def test_fits_of_no_faces_yield_nothing(cube):
    box = builders.box(4.0, 4.0, 4.0)
    assert list(congruence._fits(cube, box, np.array([], dtype=int), congruence.FIT_TOL)) == []
