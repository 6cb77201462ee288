import math
import re
import warnings
from functools import cached_property

import numpy as np
import pytest

from helpers import (
    brute_coplanar_triple,
    fd_jacobian_loop,
    outcome_digest,
    planted,
    polar_fan,
    random_simple_fan,
)
from herisson import builders, geometry, solver
from herisson.errors import DegenerateFace
from herisson.fan import GENERAL_POSITION_TOL, Fan
from herisson.geometry import Herisson, _area_jacobian, _face_coordinates, _oriented_areas, reconstruct, support_scale
from herisson.solver import (
    RANK_CUTOFF,
    SolveOptions,
    SolveStatus,
    _Abort,
    _first_root,
    _newton_step,
    area_map,
    jacobian,
    solve_minkowski,
    validate_target,
)

FREE = SolveOptions(allow_non_general_position=True)

WAIST_TARGET = np.array(
    [np.sqrt(3) / 4] + [-1 / 3] * 3 + [-np.sqrt(3) / 4] * 6 + [np.sqrt(3) / 4]
)


def _polar_problem(m, spread=0.4, width=0.4):
    """A polar fan of m faces and a balanced target: 1 - spread of the unit seed's areas
    plus spread of their multiple by uniform(1 - width, 1 + width) factors, projected."""
    rng = np.random.default_rng(m)
    fan = polar_fan(rng, m)
    f0 = area_map(fan, np.ones(m))
    balanced = lambda f: f - fan.equipment @ np.linalg.lstsq(fan.equipment, f, rcond=None)[0]  # noqa: E731
    return fan, balanced((1.0 - spread) * f0 + spread * balanced(rng.uniform(1.0 - width, 1.0 + width, m) * f0))


class TestAreaMap:
    def test_cube_unit(self, cube):
        assert np.allclose(area_map(cube.fan, np.ones(6)), 4.0, atol=1e-12)

    def test_homogeneity_degree_two(self, cube, rng):
        for _ in range(5):
            lam = rng.uniform(0.2, 3.0)
            assert np.allclose(area_map(cube.fan, lam * np.ones(6)), 4.0 * lam**2, rtol=1e-12)

    def test_bowtie_sign_pattern(self, bowtie):
        f = area_map(bowtie.fan, bowtie.h)
        assert np.all(f[[0, 7]] > 0) and np.all(f[1:7] < 0)

    def test_balance_in_range(self, waisted):
        f = area_map(waisted.fan, waisted.h)
        residual = np.linalg.norm(waisted.fan.equipment.T @ f)
        assert residual <= 1e-9 * np.sum(np.abs(f))


class TestQuadraticModel:
    """Vertices are linear in h, so phi(h + s d) = phi(h) + s J(h) d + s^2 phi(d)
    exactly, and J(h) h = 2 phi(h); the step control rests on both."""

    def bodies(self, cube, box123, tetra, bowtie, waisted, tiling):
        rng = np.random.default_rng(8)
        out = [(b.fan, np.array(b.h)) for b in (cube, box123, tetra, bowtie, waisted, tiling)]
        return out + [(polar_fan(rng, m), rng.uniform(0.8, 1.2, m)) for m in (8, 20, 40, 120, 300)]

    def test_expansion_and_euler_identity(self, cube, box123, tetra, bowtie, waisted, tiling):
        rng = np.random.default_rng(13)
        # bowtie and waisted have cells of four faces: the first-three-planes model
        for fan, h in self.bodies(cube, box123, tetra, bowtie, waisted, tiling):
            base = Herisson(fan, h)
            jac = _area_jacobian(fan, _face_coordinates(fan, h))
            assert np.max(np.abs(jac @ h - 2.0 * base.oriented_areas)) <= 1e-12 * np.max(np.abs(base.oriented_areas))
            for _ in range(5):
                d, s = rng.standard_normal(fan.m), rng.uniform(-2.0, 2.0)
                terms = [base.oriented_areas, s * (jac @ d), s * s * Herisson(fan, d).oriented_areas]
                moved = Herisson(fan, h + s * d).oriented_areas
                size = sum(np.max(np.abs(term)) for term in terms)
                assert np.max(np.abs(moved - sum(terms))) <= 1e-12 * size

    def test_first_root_matches_numpy_roots(self):
        rng = np.random.default_rng(21)
        c, b, a = rng.standard_normal((3, 50))
        a[:5] = 0.0         # linear entries
        expected = min(
            (r.real for k in range(50) for r in np.roots([a[k], b[k], c[k]]) if abs(r.imag) == 0.0 and r.real > 0),
            default=np.inf,
        )
        assert _first_root(c, b, a) == pytest.approx(expected, rel=1e-12)
        assert _first_root(np.ones(3), np.ones(3), np.ones(3)) == np.inf       # no real root
        assert _first_root(np.ones(2), np.array([1.0, -4.0]), np.array([0.0, 4.0])) == 0.5   # linear; double root

    @staticmethod
    def first_root_reference(c, b, a):
        """_first_root entry by entry in Python floats: the same cancellation-free roots,
        a negative discriminant or a zero divisor giving none."""
        best = math.inf
        for ck, bk, ak in zip(c.tolist(), b.tolist(), a.tolist()):
            disc = bk * bk - 4.0 * ak * ck
            if disc < 0.0:
                continue
            q = -0.5 * (bk + math.copysign(math.sqrt(disc), bk))
            for num, den in ((q, ak), (ck, q)):
                if den != 0.0 and 0.0 < num / den < best:
                    best = num / den
        return best

    def test_first_root_matches_scalar_reference_bit_for_bit(self):
        rng = np.random.default_rng(34)
        c, b, a = rng.standard_normal((3, 300))      # mixed signs, about half the discriminants negative
        a[:30] = 0.0                                 # linear entries
        b[30:60] = 0.0                               # even entries: roots +-sqrt(-c / a)
        a[60:70], b[60:70] = 0.0, 0.0                # neither: no root
        c[70:80] = 0.0                               # a root at s = 0, which is not positive
        cases = [(c, b, a), (c[:100], b[:100], a[:100]), (np.abs(c), b, -np.abs(a))]   # the last: all real
        cases += [(np.ones(4), np.array([0.5, -0.5, 1.0, 0.0]), np.ones(4)),           # all complex: inf
                  (np.zeros(3), np.array([-2.0, 1.0, 0.0]), np.array([1.0, 1.0, 2.0])),  # only roots at 0 and -b/a
                  (np.ones(2), np.array([-2.0, 2.0]), np.ones(2))]                       # double roots 1 and -1
        firsts = []
        for c, b, a in cases:
            first = _first_root(c, b, a)
            assert type(first) is float and first == self.first_root_reference(c, b, a)
            firsts.append(first)
        assert firsts[3] == np.inf and firsts[4] == 2.0 and firsts[5] == 1.0


class TestJacobian:
    @pytest.mark.parametrize("fixture", ["cube", "bowtie", "tiling"])
    def test_analytic_matches_fd(self, fixture, request):
        body = request.getfixturevalue(fixture)
        ja = jacobian(body.fan, body.h, mode="analytic")
        jf = jacobian(body.fan, body.h, mode="fd")
        assert np.allclose(ja, jf, rtol=1e-5, atol=1e-8)

    def test_translation_null_space(self, bowtie, rng):
        j = jacobian(bowtie.fan, bowtie.h, mode="analytic")
        jnorm = np.linalg.norm(j)
        for _ in range(10):
            c = rng.uniform(-1, 1, 3)
            assert np.linalg.norm(j @ (bowtie.fan.equipment @ c)) <= 1e-6 * jnorm

    def test_euler_identity(self, cube, tetra, bowtie, waisted):
        for body in (cube, tetra, bowtie, waisted):
            j = jacobian(body.fan, body.h, mode="analytic")
            lhs = j @ body.h
            rhs = 2.0 * body.oriented_areas
            assert np.allclose(lhs, rhs, rtol=1e-6, atol=1e-12)

    def test_adjacent_entries_are_edge_over_sine(self, cube):
        # simple fan: entry (i, k) is the signed shared edge length divided
        # by the sine of the normal angle; for the unit cube that is 2
        j = jacobian(cube.fan, cube.h, mode="analytic")
        lengths = cube.ring_lengths[cube.fan.ring_index.arc_pos]
        eq = cube.fan.equipment
        for (a, b), length in zip(cube.fan.arcs.tolist(), lengths):
            sine = np.linalg.norm(np.cross(eq[a], eq[b]))
            assert j[a, b] == pytest.approx(length / sine, rel=1e-9)
        assert np.allclose(np.diag(j), 0.0, atol=1e-12)

    def test_symmetry_on_simple_fans(self, cube, tetra, rng):
        # mixed-area symmetry; expected on fans whose cells are all simple
        for body in (cube, tetra):
            j = jacobian(body.fan, body.h, mode="analytic")
            assert np.allclose(j, j.T, atol=1e-9 * np.linalg.norm(j))
        fan, h = random_simple_fan(rng)
        j = jacobian(fan, h, mode="analytic")
        assert np.allclose(j, j.T, atol=1e-8 * np.linalg.norm(j))

    def test_fd_is_exact_across_a_face_flip(self, cube):
        # a surface thinner than the probe step: the probes flip a face sign,
        # and central differences of the quadratic area map are exact all the same
        h = np.array([1.0, 1.0, 1.0, 1.0, 1.0, -1.0 + 2e-7])
        ja = jacobian(cube.fan, h, mode="analytic")
        jf = jacobian(cube.fan, h, mode="fd")
        assert np.linalg.norm(jf - ja) <= 1e-8 * np.linalg.norm(ja)


class TestBatchedProbes:
    """The batched fd Jacobian against one realization per probe."""

    @pytest.fixture(params=["default", "one pair per block"])
    def blocks(self, request, monkeypatch):
        if request.param != "default":
            monkeypatch.setattr(solver, "SCAN_BLOCK", 1)

    def test_bitwise_equal_to_loop(self, blocks, cube, box123, tetra, bowtie, waisted, tiling):
        rng = np.random.default_rng(5)
        bodies = [(b.fan, np.array(b.h)) for b in (cube, box123, tetra, bowtie, waisted, tiling)]
        bodies += [(polar_fan(rng, m), rng.uniform(0.8, 1.2, m)) for m in (6, 20, 40, 120)]
        for fan, h in bodies:
            step = 1e-6 * support_scale(h)
            assert np.array_equal(jacobian(fan, h, mode="fd"), fd_jacobian_loop(fan, h, step))

    def test_stacked_areas_equal_single_rows(self, cube, box123, tetra, bowtie, waisted, tiling):
        # the probes' columns rest on this: a stack of P supports, P = 1
        # included, gives the areas of P single rows bit for bit
        rng = np.random.default_rng(7)
        fans = [b.fan for b in (cube, box123, tetra, bowtie, waisted, tiling)]
        fans += [polar_fan(rng, m) for m in (6, 20, 40, 120, 300)]
        for fan in fans:
            stack = rng.uniform(0.5, 1.5, (5, fan.m))
            areas = _oriented_areas(fan, _face_coordinates(fan, stack))
            for row, h in zip(areas, stack):
                assert np.array_equal(row, _oriented_areas(fan, _face_coordinates(fan, h)))
                assert np.array_equal(row, _oriented_areas(fan, _face_coordinates(fan, h[None]))[0])


def _translation_free(eq, d):
    return d - eq @ np.linalg.solve(eq.T @ eq, eq.T @ d)


class TestNewtonStep:
    @pytest.mark.parametrize("m", [20, 40, 120, 300])
    def test_bordered_step_matches_lstsq(self, m, monkeypatch):
        rng = np.random.default_rng(m)
        fan = polar_fan(rng, m)
        h = rng.uniform(0.8, 1.2, m)
        base = reconstruct(fan, h)
        jac = jacobian(fan, h)
        rhs = area_map(fan, h * rng.uniform(0.95, 1.05, m)) - base.oriented_areas
        expected = np.linalg.lstsq(jac, rhs, rcond=RANK_CUTOFF)[0]
        monkeypatch.setattr(np.linalg, "lstsq", None)      # the fallback must not run
        step = _newton_step(jac, rhs, fan.equipment)
        assert np.linalg.norm(_translation_free(fan.equipment, step - expected)) <= 1e-12 * np.linalg.norm(expected)
        assert np.linalg.norm(fan.equipment.T @ step) <= 1e-12 * np.linalg.norm(step)

    @pytest.mark.parametrize("m", [20, 120])
    def test_second_rhs_shares_the_bordered_matrix(self, m, monkeypatch):
        # the predictor's second solve reuses the assembled matrix and its
        # condition verdict: one more LU solve, no second build or probe
        rng = np.random.default_rng(m)
        fan = polar_fan(rng, m)
        jac = jacobian(fan, rng.uniform(0.8, 1.2, m))
        rhs, second = (jac @ rng.standard_normal((m, 2))).T      # in the range of J, as area changes are
        solves = []
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: solves.append((a, b.shape)) or solve(a, b))
        step, again = _newton_step(jac, rhs, fan.equipment, then=lambda delta: second + 0.0 * delta)
        assert len(solves) == 2 and solves[1][0] is solves[0][0]
        assert solves[0][1] == (m + 3, 3) and solves[1][1] == (m + 3,)
        monkeypatch.setattr(np.linalg, "solve", solve)
        assert np.array_equal(step, _newton_step(jac, rhs, fan.equipment))
        expected = np.linalg.lstsq(jac, second, rcond=RANK_CUTOFF)[0]
        assert np.linalg.norm(_translation_free(fan.equipment, again - expected)) <= 1e-12 * np.linalg.norm(expected)

    def test_second_rhs_on_the_least_squares_path(self, waisted):
        jac = np.vstack([jacobian(waisted.fan, waisted.h), waisted.fan.consistency_matrix])
        rhs, second = np.random.default_rng(3).standard_normal((2, len(jac)))
        step, again = _newton_step(jac, rhs, waisted.fan.equipment, then=lambda delta: second)
        assert np.array_equal(step, np.linalg.lstsq(jac, rhs, rcond=RANK_CUTOFF)[0])
        assert np.array_equal(again, np.linalg.lstsq(jac, second, rcond=RANK_CUTOFF)[0])

    def test_least_squares_step_is_translation_free(self, waisted):
        # J and the consistency rows annihilate the translations, so the
        # minimum-norm step has no part along them: the walk projects no iterate
        eq = waisted.fan.equipment
        jac = np.vstack([jacobian(waisted.fan, waisted.h), waisted.fan.consistency_matrix])
        for rhs in np.random.default_rng(5).standard_normal((5, len(jac))):
            step = _newton_step(jac, rhs, eq)
            assert np.linalg.norm(eq.T @ step) <= 1e-12 * np.linalg.norm(step)

    def test_rank_drop_falls_back_and_degenerates(self):
        rng = np.random.default_rng(40)
        fan = polar_fan(rng, 40)
        jac = jacobian(fan, np.ones(40))
        values, vectors = np.linalg.eigh(0.5 * (jac + jac.T))
        values[np.argmax(np.abs(values))] = 0.0
        dropped = (vectors * values) @ vectors.T
        with pytest.raises(_Abort) as info:
            _newton_step(dropped, rng.standard_normal(40), fan.equipment)
        assert info.value.status is SolveStatus.DEGENERATED
        assert str(info.value) == "jacobian rank dropped to 36 (expected 37)"


class TestValidateTarget:
    def test_identity_target(self, tetra):
        report = validate_target(tetra.fan, tetra.oriented_areas, tetra.oriented_areas)
        assert report.ok

    def test_sign_flip_flagged(self, tetra):
        g = np.array(tetra.oriented_areas)
        g[2] *= -1.0
        report = validate_target(tetra.fan, tetra.oriented_areas, g)
        v = float(tetra.oriented_areas[2])
        assert report.entries[0] == ("sign agreement", f"f0[2]*g[2] = {v * -v!r} is not positive")

    def test_unbalanced_flagged(self, tetra):
        g = np.array(tetra.oriented_areas)
        g[0] *= 2.0
        report = validate_target(tetra.fan, tetra.oriented_areas, g)
        assert "balance" in report.codes

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_target_reported(self, tetra, value):
        g = np.array(tetra.oriented_areas)
        g[2] = value
        report = validate_target(tetra.fan, tetra.oriented_areas, g)
        assert report.entries == [("finite target", f"g[2] = {value!r} is not finite")]
        with pytest.raises(ValueError, match=r"^target rejected:\nfinite target: g\[2\] = "):
            solve_minkowski(tetra.fan, tetra.h, g)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_seed_areas_reported(self, tetra, value):
        f0 = np.array(tetra.oriented_areas)
        f0[1] = value
        report = validate_target(tetra.fan, f0, tetra.oriented_areas)
        assert report.entries == [("finite areas", f"f0[1] = {value!r} is not finite")]

    def test_every_non_finite_entry_named(self, tetra):
        g = np.array([np.inf, 1.0, np.nan, -np.inf])
        report = validate_target(tetra.fan, tetra.oriented_areas, g)
        assert report.entries == [("finite target", f"g[{j}] = {float(g[j])!r} is not finite") for j in (0, 2, 3)]

    def test_waisted_limit_target(self, waisted):
        # the famous limit vector satisfies sign and balance but the fan is
        # not in general position
        report = validate_target(waisted.fan, waisted.oriented_areas, WAIST_TARGET)
        assert report.codes == {"general position"}
        relaxed = validate_target(
            waisted.fan, waisted.oriented_areas, WAIST_TARGET, allow_non_general_position=True
        )
        assert relaxed.ok

    @pytest.mark.parametrize("name", ["cube", "waisted", "planted"])
    def test_general_position_names_its_witness(self, name, cube, waisted):
        if name == "planted":
            fan = polar_fan(np.random.default_rng(43), 40)
            fan = Fan(equipment=planted(fan.equipment, 29, 11, 17, 0.5), cells=fan.cells)
        else:
            fan = {"cube": cube, "waisted": waisted}[name].fan
        areas = np.ones(fan.m)
        report = validate_target(fan, areas, areas)
        triple = brute_coplanar_triple(fan.equipment)
        det = abs(np.linalg.det(fan.equipment[list(triple)]))
        assert det <= GENERAL_POSITION_TOL
        detail = "equipment vectors {}, {}, {} are coplanar (|det| = {:.3e})".format(*triple, det)
        assert ("general position", detail) in report.entries
        assert validate_target(fan, areas, areas).entries == report.entries

    def test_non_finite_normal_is_named_without_warning(self, tetra):
        eq = np.array(tetra.fan.equipment)
        eq[3] = np.nan
        report = validate_target(Fan(eq, tetra.fan.cells), tetra.oriented_areas, tetra.oriented_areas)
        assert report.entries == [("general position", "equipment vectors 0, 1, 3 are coplanar (|det| = nan)")]


@pytest.mark.parametrize("tol", [np.inf, np.nan, -1.0, 0.0])
def test_tol_area_must_be_finite_and_positive(tol):
    with pytest.raises(ValueError, match=r"^tol_area must be finite and positive, got "):
        SolveOptions(tol_area=tol)


class TestSolve:
    def test_cube_pure_scaling(self, cube):
        out = solve_minkowski(cube.fan, cube.h, np.full(6, 9.0), FREE)
        assert out.status is SolveStatus.CONVERGED
        assert np.max(np.abs(out.h_final - 1.5)) <= 1e-8

    def test_outcome_equality_is_identity(self, cube):
        # equal fields would compare h_final arrays, which have no single truth value
        first, second = (solve_minkowski(cube.fan, cube.h, np.full(6, 9.0), FREE) for _ in range(2))
        assert first == first and first != second and not first == second
        assert hash(first) == hash(first) and len({first, second}) == 2

    def test_cube_to_box(self, cube):
        out = solve_minkowski(cube.fan, cube.h, np.array([6.0, 6.0, 3.0, 3.0, 2.0, 2.0]), FREE)
        assert out.status is SolveStatus.CONVERGED
        assert np.max(np.abs(out.h_final - np.array([0.5, 0.5, 1.0, 1.0, 1.5, 1.5]))) <= 1e-8

    def test_tetra_random_targets(self, tetra, rng):
        for _ in range(5):
            g = area_map(tetra.fan, rng.uniform(0.6, 1.6, 4))
            out = solve_minkowski(tetra.fan, np.ones(4), g)
            assert out.status is SolveStatus.CONVERGED
            scale = support_scale(out.h_final)
            assert np.max(np.abs(area_map(tetra.fan, out.h_final) - g)) <= 1e-10 * scale**2

    def test_precondition_reported_before_stepping(self, cube):
        g = np.full(6, 9.0)
        g[0] = -9.0
        with pytest.raises(ValueError, match="sign agreement"):
            solve_minkowski(cube.fan, cube.h, g, FREE)

    def test_general_position_gate(self, cube):
        with pytest.raises(ValueError, match="general position"):
            solve_minkowski(cube.fan, cube.h, np.full(6, 9.0))

    def test_gauge_invariance(self, tetra, rng):
        g = area_map(tetra.fan, np.array([1.2, 0.9, 1.1, 1.0]))
        base = solve_minkowski(tetra.fan, np.ones(4), g)
        for _ in range(3):
            c = rng.uniform(-2, 2, 3)
            shifted = solve_minkowski(tetra.fan, np.ones(4) + tetra.fan.equipment @ c, g)
            assert shifted.status == base.status == SolveStatus.CONVERGED
            assert np.max(np.abs(shifted.h_final - base.h_final)) <= 1e-8

    def test_scaling_equivariance(self, tetra):
        g = area_map(tetra.fan, np.array([1.3, 0.8, 1.05, 1.0]))
        base = solve_minkowski(tetra.fan, np.ones(4), g)
        lam = 2.5
        scaled = solve_minkowski(tetra.fan, lam * np.ones(4), lam**2 * g)
        assert scaled.status is SolveStatus.CONVERGED
        assert np.allclose(scaled.h_final, lam * base.h_final, rtol=1e-7, atol=1e-9)

    def test_trace_is_monotone_and_converged(self, cube):
        out = solve_minkowski(cube.fan, cube.h, np.full(6, 9.0), FREE)
        ts = [record.t for record in out.trace]
        assert ts == sorted(ts) and ts[0] == 0.0 and ts[-1] == 1.0
        assert all(record.min_abs_area > 0 for record in out.trace)

    def test_bowtie_quad_cells_converge(self, bowtie):
        target = area_map(bowtie.fan, builders.reflected_truncated_tetrahedron(0.35).h)
        out = solve_minkowski(bowtie.fan, bowtie.h, target, FREE)
        assert out.status is SolveStatus.CONVERGED
        final = reconstruct(bowtie.fan, out.h_final)  # strict realizability holds
        assert np.allclose(final.oriented_areas, target, atol=1e-9)

    def test_intermediate_points_stay_in_class(self, bowtie):
        target = area_map(bowtie.fan, 1.4 * bowtie.h)
        out = solve_minkowski(bowtie.fan, bowtie.h, target, FREE)
        assert out.status is SolveStatus.CONVERGED
        for record in out.trace:
            assert record.min_abs_area > 0.0

    def test_nonexistence_family_fails_before_one(self, waisted):
        # the consistency rows keep this fan on the least-squares path; the
        # model's steps shrink toward the fold, where the rank verdict ends
        # the walk short of the target
        out = solve_minkowski(waisted.fan, waisted.h, WAIST_TARGET, FREE)
        assert out.status is SolveStatus.DEGENERATED
        assert out.t_reached == 0.999895741499875 and len(out.trace) == 12
        assert out.message == "jacobian rank dropped to 7 (expected 8)"

    @pytest.mark.parametrize("m, steps, solves", [(120, 1, 3), (40, 1, 3)])
    def test_step_count_of_polar_solves(self, m, steps, solves, newton_calls):
        # the quadratic model sizes the step: one step and two corrector
        # iterations where the fixed grid of 1/16 took 16 steps, 32 solves
        fan, g = _polar_problem(m)
        out = solve_minkowski(fan, np.ones(m), g)
        assert out.status is SolveStatus.CONVERGED and out.t_reached == 1.0
        assert np.max(np.abs(area_map(fan, out.h_final) - g)) <= 1e-10 * support_scale(out.h_final) ** 2
        assert len(out.trace) - 1 == steps and len(newton_calls) == solves

    def test_work_of_the_waisted_solve(self, waisted, newton_calls, monkeypatch):
        # the consistency rows send every step of this path to least squares: 45
        # Newton steps, 12 of them in the model with a second right-hand side
        lstsq_calls, lstsq = [], np.linalg.lstsq
        monkeypatch.setattr(np.linalg, "lstsq", lambda *args, **kw: lstsq_calls.append(args) or lstsq(*args, **kw))
        out = solve_minkowski(waisted.fan, waisted.h, WAIST_TARGET, FREE)
        assert out.status is SolveStatus.DEGENERATED and len(out.trace) == 12
        models = sum("then" in kwargs for _args, kwargs in newton_calls)
        assert len(newton_calls) == 45 and models == 12 and len(lstsq_calls) == 57

    @pytest.mark.parametrize("spread, width, steps", [(0.4, 0.4, 1), (1.0, 0.7, 3)])
    def test_iterates_are_support_vectors(self, spread, width, steps, calls_of, newton_calls):
        # a point of the walk is its supports, face coordinates and areas: the
        # model takes J from an accepted iterate's coordinates, reconstruct runs
        # once (on the seed) and gauge_fix at the seed and at the end
        fan, g = _polar_problem(40, spread, width)
        realized = calls_of("reconstruct", geometry, solver)
        fixed = calls_of("gauge_fix", geometry, solver)
        coordinates = calls_of("_face_coordinates", geometry, solver)
        out = solve_minkowski(fan, np.ones(40), g)
        accepted = len(out.trace) - 1
        models = sum("then" in kwargs for _args, kwargs in newton_calls)
        iterates = len(newton_calls) - models + accepted      # every corrector step, and each converged iterate
        assert out.converged and models == accepted == steps
        assert len(realized) == 1 and len(fixed) == 2
        # one per iterate, the model's phi(d), and the seed's realization, whose
        # coordinates and areas the gauge-fixed start reuses
        assert len(coordinates) == iterates + models + 1

    def test_final_supports_are_gauge_fixed(self, waisted):
        # the iterates and accepted points go unprojected; gauge_fix runs at the
        # seed and once on h_final, so it is translation-free whatever the ending
        cases = [(fan, np.ones(m), g, None) for m in (40, 120) for fan, g in [_polar_problem(m)]]
        cases.append((waisted.fan, waisted.h, WAIST_TARGET, FREE))
        statuses = []
        for fan, h0, g, opts in cases:
            out = solve_minkowski(fan, h0, g, opts)
            statuses.append(out.status)
            assert np.linalg.norm(fan.equipment.T @ out.h_final) <= 1e-13 * np.linalg.norm(out.h_final)
        assert statuses == [SolveStatus.CONVERGED] * 2 + [SolveStatus.DEGENERATED]

    @pytest.mark.parametrize("mode", ["analytic", "fd"])
    def test_warm_fan_solves_no_stacked_system(self, mode, monkeypatch):
        # vertices come from the fan's cached vertex map: on a warm Fan the
        # only np.linalg.solve calls left are the bordered and gauge solves
        rng = np.random.default_rng(40)
        fan = polar_fan(rng, 40)
        w = area_map(fan, np.ones(40)) * rng.uniform(0.9, 1.1, 40)
        g = w - fan.equipment @ np.linalg.lstsq(fan.equipment, w, rcond=None)[0]   # balanced
        opts = SolveOptions(jacobian_mode=mode)
        assert solve_minkowski(fan, np.ones(40), g, opts).converged       # warms the Fan
        shapes = []
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: shapes.append(np.shape(a)) or solve(a, b))
        assert solve_minkowski(fan, np.ones(40), g, opts).converged
        assert shapes and all(len(shape) == 2 for shape in shapes)

    @pytest.mark.parametrize("mode", ["FD", "finite-difference"])
    def test_unknown_jacobian_mode_rejected(self, cube, mode):
        with pytest.raises(ValueError, match="unknown jacobian mode"):
            jacobian(cube.fan, cube.h, mode=mode)
        with pytest.raises(ValueError, match="unknown jacobian mode"):     # when the options are built
            SolveOptions(allow_non_general_position=True, jacobian_mode=mode)

    def test_fd_probe_flip_is_not_an_ending(self, cube):
        # a surface thinner than the probe step: the fd probes at the seed
        # flip a face, and the fd walk converges where the analytic one does
        h = np.array([1.0, 1.0, 1.0, 1.0, 1.0, -1.0 + 2e-7])
        g = area_map(cube.fan, np.array([1.0, 1.0, 1.0, 1.0, 1.0, -1.0 + 4e-7]))
        opts = SolveOptions(allow_non_general_position=True, jacobian_mode="fd")
        out, analytic = solve_minkowski(cube.fan, h, g, opts), solve_minkowski(cube.fan, h, g, FREE)
        assert out.converged and analytic.converged
        assert np.max(np.abs(out.h_final - analytic.h_final)) <= 1e-12

    def test_fd_mode_solves_too(self, cube):
        opts = SolveOptions(allow_non_general_position=True, jacobian_mode="fd")
        out = solve_minkowski(cube.fan, cube.h, np.full(6, 2.25), opts)
        assert out.status is SolveStatus.CONVERGED
        assert np.max(np.abs(out.h_final - 0.75)) <= 1e-8


def _cube():
    cube = builders.cube()
    return cube.fan, cube.h


def _polar_six():
    return polar_fan(np.random.default_rng(0), 6), np.ones(6)


class TestEndings:
    """Every non-converged ending of the walk, each reported at the last accepted point."""

    @pytest.mark.parametrize("start, patches, supports, opts, status, message", [
        # an edge collapse: toward the box (1e-13, 1, 1) the x-edges shrink to
        # nothing, and the walk ends at the fold where J loses rank
        (_cube, [], [5e-14, 5e-14, 0.5, 0.5, 0.5, 0.5], FREE, "degenerated",
         r"jacobian rank dropped to 2 \(expected 3\)"),
        # a face area through zero: with the model's step limits lifted, one
        # second-order step carries an area past zero, and a loose tolerance
        # accepts that point
        (_polar_six, [(solver, "ROOT_FRACTION", np.inf), (solver, "CURVATURE_BUDGET", np.inf)],
         [1, 1, 1, 1, 3, 1], SolveOptions(tol_area=1e6), "degenerated", r"path left the orientation class"),
        # support norm: the target cube is 1.5 times the seed
        (_cube, [(solver, "DIVERGENCE_BOUND_FACTOR", 1.2)], [1.5] * 6, FREE, "diverged",
         r"support norm exceeded the divergence sentinel"),
        # no corrector iteration converges, so the step halves below MIN_STEP at t = 0
        (_cube, [(solver, "MAX_NEWTON_ITERS", 0)], [0.5, 0.5, 1, 1, 1.5, 1.5], FREE, "max_iterations",
         r"corrector stalled at t=0\.0 with step below 1e-06"),
        # the box takes two steps (to t = 0.8, then 1)
        (_cube, [(solver, "MAX_STEPS", 1)], [0.5, 0.5, 1, 1, 1.5, 1.5], FREE, "max_iterations",
         r"step budget exhausted"),
    ], ids=["edge", "area", "support-norm", "stall", "step-budget"])
    def test_ending(self, monkeypatch, start, patches, supports, opts, status, message):
        fan, h0 = start()
        # the edge case's target is one that reconstruct refuses, so the
        # areas come from the lenient model
        f0 = Herisson(fan, h0).oriented_areas
        g = Herisson(fan, supports).oriented_areas
        for module, name, value in patches:
            monkeypatch.setattr(module, name, value)
        out = solve_minkowski(fan, h0, g, opts)
        assert out.status is SolveStatus(status)
        assert out.t_reached < 1.0 and out.trace[-1].t == out.t_reached
        assert re.fullmatch(message, out.message)
        # h_final is the point accepted at t_reached
        g_t = (1.0 - out.t_reached) * f0 + out.t_reached * g
        assert np.max(np.abs(Herisson(fan, out.h_final).oriented_areas - g_t)) <= 1e-9
        # and it is gauge-fixed on every ending
        assert np.linalg.norm(fan.equipment.T @ out.h_final) <= 1e-13 * np.linalg.norm(out.h_final)

    def test_boundary_tolerances_are_not_an_ending(self, cube, monkeypatch):
        # the walk checks its iterates against no boundary tolerance: raised to
        # 1.0, which edges and areas on the way to the box fall under, they
        # change nothing
        g = area_map(cube.fan, np.array([0.5, 0.5, 1, 1, 1.5, 1.5]))
        expected = outcome_digest(solve_minkowski(cube.fan, cube.h, g, FREE))
        monkeypatch.setattr(geometry, "EDGE_TOL", 1.0)
        monkeypatch.setattr(geometry, "AREA_TOL", 1.0)
        assert outcome_digest(solve_minkowski(cube.fan, cube.h, g, FREE)) == expected

    @pytest.mark.parametrize("width, status, message", [
        (1e-13, "degenerated", "jacobian rank dropped to 2 (expected 3)"),
        (1e-10, "converged", ""),
    ])
    def test_collapsing_target(self, cube, width, status, message):
        # toward the box (width, 1, 1) the x-edges collapse below EDGE_TOL: the
        # walk ends at a fold before t = 1 or reaches the box, and either way
        # at supports that reconstruct refuses
        g = Herisson(cube.fan, [width / 2, width / 2, 0.5, 0.5, 0.5, 0.5]).oriented_areas
        out = solve_minkowski(cube.fan, cube.h, g, FREE)
        assert out.status is SolveStatus(status) and out.message == message
        assert (out.t_reached < 1.0) is (status == "degenerated")
        g_t = (1.0 - out.t_reached) * cube.oriented_areas + out.t_reached * g
        assert np.max(np.abs(Herisson(cube.fan, out.h_final).oriented_areas - g_t)) <= 1e-9
        with pytest.raises(DegenerateFace, match="shortest edge"):
            reconstruct(cube.fan, out.h_final)

    def test_runaway_step_diverges_before_it_is_evaluated(self, cube, monkeypatch):
        # the sentinel reads |x| before the iterate's areas are taken: a
        # corrector step to 1e200 ends the walk with no overflow on the way
        step = solver._newton_step
        runaway = lambda jac, rhs, eq, then=None: step(jac, rhs, eq, then) if then else np.full(len(eq), 1e200)  # noqa: E731
        monkeypatch.setattr(solver, "_newton_step", runaway)
        g = area_map(cube.fan, np.array([0.5, 0.5, 1, 1, 1.5, 1.5]))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            out = solve_minkowski(cube.fan, cube.h, g, FREE)
        assert out.status is SolveStatus.DIVERGED and out.t_reached == 0.0
        assert out.message == "support norm exceeded the divergence sentinel"

    def test_needle_is_not_an_ending(self, cube, monkeypatch):
        # a needle (long faces of small area) is reached with the factor at 2:
        # the sentinel watches |h| alone, which ends at 1.15 times the seed's
        needle = np.array([2, 2, 0.025, 0.025, 0.025, 0.025])
        monkeypatch.setattr(solver, "DIVERGENCE_BOUND_FACTOR", 2.0)
        out = solve_minkowski(cube.fan, cube.h, area_map(cube.fan, needle), FREE)
        assert out.status is SolveStatus.CONVERGED
        assert np.max(np.abs(out.h_final - needle)) <= 1e-9

    def test_path_leaves_the_orientation_class(self, monkeypatch):
        # with the model's step limits lifted, one second-order step goes
        # to t = 1 past the zero of a face area, and a loose tolerance
        # accepts that point; within the limits the walk stays in class
        fan = polar_fan(np.random.default_rng(0), 6)
        target = area_map(fan, np.array([1.0, 1.0, 1.0, 1.0, 3.0, 1.0]))
        opts = SolveOptions(tol_area=1e6)
        within = solve_minkowski(fan, np.ones(6), target, opts)
        assert within.status is SolveStatus.CONVERGED and len(within.trace) == 4
        monkeypatch.setattr(solver, "ROOT_FRACTION", np.inf)
        monkeypatch.setattr(solver, "CURVATURE_BUDGET", np.inf)
        out = solve_minkowski(fan, np.ones(6), target, opts)
        assert out.status is SolveStatus.DEGENERATED
        assert out.t_reached == 0.0 and len(out.trace) == 1
        assert out.message == "path left the orientation class"


class TestFanCache:
    """A Fan computes its invariants once; a solve reads them from the cache."""

    # every cache the Fan docstring lists; a solve reads all of them but arcs
    # (validate, the congruence labels and the exports read it) and edge_frames
    # (the congruence fits read it)
    SOLVE_CACHES = {"corners", "ring_index", "block_inverses", "ring_frames", "consistency_matrix",
                    "jacobian_scatter", "translation_gram", "coplanar_triple"}

    def test_the_docstring_lists_every_cache(self):
        caches = {name for name, attr in vars(Fan).items() if isinstance(attr, cached_property)}
        assert caches == self.SOLVE_CACHES | {"arcs", "edge_frames"}
        assert caches <= set(re.findall(r"\w+", Fan.__doc__))

    @staticmethod
    def planted_fan():
        fan = polar_fan(np.random.default_rng(43), 40)
        return Fan(equipment=planted(fan.equipment, 29, 11, 17, 0.5), cells=fan.cells)

    def test_repeated_solves_match_a_fresh_fan(self, cube, box123, tetra, bowtie, waisted, tiling):
        rng = np.random.default_rng(61)
        polar, off = polar_fan(rng, 20), self.planted_fan()
        cases = [
            (cube.fan, cube.h, area_map(cube.fan, np.array([0.5, 0.5, 1, 1, 1.5, 1.5])), FREE),
            (box123.fan, box123.h, area_map(box123.fan, np.array([1.2, 0.8, 1.5, 1.1, 0.9, 1.4])), FREE),
            (tetra.fan, tetra.h, area_map(tetra.fan, np.array([1.2, 0.9, 1.1, 1.0])), None),
            (bowtie.fan, bowtie.h, area_map(bowtie.fan, builders.reflected_truncated_tetrahedron(0.35).h), FREE),
            (waisted.fan, waisted.h, WAIST_TARGET, FREE),
            (tiling.fan, tiling.h, area_map(tiling.fan, 1.3 * tiling.h), FREE),
            (polar, np.ones(20), area_map(polar, rng.uniform(0.97, 1.03, 20)), SolveOptions(jacobian_mode="fd")),
            (off, 1.1 * np.ones(40), area_map(off, np.ones(40)), FREE),     # not in general position
        ]
        statuses = []
        for fan, h0, g, opts in cases:
            fan = Fan(equipment=fan.equipment, cells=fan.cells)
            first = solve_minkowski(fan, h0, g, opts)
            opts = opts or SolveOptions()
            unread = {"coplanar_triple"} if opts.allow_non_general_position else set()
            unread |= {"jacobian_scatter"} if opts.jacobian_mode == "fd" else set()
            assert vars(fan).keys() == {"equipment", "cells"} | (self.SOLVE_CACHES - unread)
            again = outcome_digest(solve_minkowski(fan, h0, g, opts))
            fresh = outcome_digest(solve_minkowski(Fan(equipment=fan.equipment, cells=fan.cells), h0, g, opts))
            assert outcome_digest(first) == again == fresh
            statuses.append(first.status)
        assert statuses == [SolveStatus.CONVERGED] * 4 + [SolveStatus.DEGENERATED] + [SolveStatus.CONVERGED] * 3

    def test_witness_is_named_alike_on_every_solve(self):
        fan = self.planted_fan()
        triple = brute_coplanar_triple(fan.equipment)
        messages = []
        for _ in range(2):
            with pytest.raises(ValueError, match="^target rejected:\ngeneral position: ") as info:
                solve_minkowski(fan, 1.1 * np.ones(40), area_map(fan, np.ones(40)))
            messages.append(str(info.value))
        assert fan.coplanar_triple == triple == (11, 17, 29)
        assert messages[0] == messages[1]
        assert messages[0].startswith("target rejected:\ngeneral position: equipment vectors 11, 17, 29 are coplanar")
