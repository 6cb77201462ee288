import itertools
import re

import numpy as np
import pytest

from helpers import fd_jacobian_loop, polar_fan, random_hull_fan, random_simple_fan
from herisson import builders, geometry, solver
from herisson.errors import ProbeFailed
from herisson.fan import Fan
from herisson.geometry import _area_jacobian, gauge_fix, reconstruct, support_scale
from herisson.solver import (
    RANK_CUTOFF,
    SolveOptions,
    SolveStatus,
    _Abort,
    _fd_area_jacobian,
    _min_edge_line_angle,
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
        lengths = cube.edge_lengths()
        eq = cube.fan.equipment
        for (a, b), length in lengths.items():
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

    def test_probe_failure_near_boundary(self, cube):
        # a surface thinner than the probe step: the probe flips a face sign
        h = np.array([1.0, 1.0, 1.0, 1.0, 1.0, -1.0 + 2e-7])
        reconstruct(cube.fan, h)  # realizable, but barely
        with pytest.raises(ProbeFailed):
            jacobian(cube.fan, h, mode="fd")


def _probe_outcome(func, fan, h, step, signs):
    try:
        return func(fan, h, step, signs)
    except ProbeFailed as exc:
        return str(exc)


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
            signs = reconstruct(fan, h).signs
            assert np.array_equal(jacobian(fan, h, mode="fd"), fd_jacobian_loop(fan, h, step, signs))

    def test_probe_failure_names_the_same_face(self, blocks, cube):
        h = np.array([1.0, 1.0, 1.0, 1.0, 1.0, -1.0 + 2e-7])
        step = 1e-6 * support_scale(h)
        signs = reconstruct(cube.fan, h).signs
        expected = _probe_outcome(fd_jacobian_loop, cube.fan, h, step, signs)
        assert expected.startswith("probe along h[")
        assert _probe_outcome(_fd_area_jacobian, cube.fan, h, step, signs) == expected
        # a polar fan whose smallest face cannot take the probe step
        fan = polar_fan(np.random.default_rng(4), 120)
        h = np.ones(fan.m)
        base = reconstruct(fan, h)
        small = int(np.argmin(np.abs(base.oriented_areas)))
        jac = _area_jacobian(fan, base.vertices)
        step = 1.5 * abs(base.oriented_areas[small]) / np.max(np.abs(jac[small]))
        expected = _probe_outcome(fd_jacobian_loop, fan, h, step, base.signs)
        assert expected == "probe along h[21] left the orientation class"
        assert _probe_outcome(_fd_area_jacobian, fan, h, step, base.signs) == expected


def _translation_free(eq, d):
    return d - eq @ np.linalg.solve(eq.T @ eq, eq.T @ d)


class TestNewtonStep:
    @pytest.mark.parametrize("m", [20, 40, 120, 300])
    def test_bordered_step_matches_lstsq(self, m, monkeypatch):
        rng = np.random.default_rng(m)
        fan = polar_fan(rng, m)
        h = rng.uniform(0.8, 1.2, m)
        base = reconstruct(fan, h)
        jac = _area_jacobian(fan, base.vertices)
        rhs = area_map(fan, h * rng.uniform(0.95, 1.05, m)) - base.oriented_areas
        expected = np.linalg.lstsq(jac, rhs, rcond=RANK_CUTOFF)[0]
        monkeypatch.setattr(np.linalg, "lstsq", None)      # the fallback must not run
        step = _newton_step(jac, rhs, fan.equipment)
        assert np.linalg.norm(_translation_free(fan.equipment, step - expected)) <= 1e-12 * np.linalg.norm(expected)
        assert np.linalg.norm(fan.equipment.T @ step) <= 1e-12 * np.linalg.norm(step)

    def test_rank_drop_falls_back_and_degenerates(self):
        rng = np.random.default_rng(40)
        fan = polar_fan(rng, 40)
        jac = _area_jacobian(fan, reconstruct(fan, np.ones(40)).vertices)
        values, vectors = np.linalg.eigh(0.5 * (jac + jac.T))
        values[np.argmax(np.abs(values))] = 0.0
        dropped = (vectors * values) @ vectors.T
        with pytest.raises(_Abort) as info:
            _newton_step(dropped, rng.standard_normal(40), fan.equipment)
        assert info.value.status is SolveStatus.DEGENERATED
        assert str(info.value) == "jacobian rank dropped to 36 (expected 37)"


def min_edge_line_angle_loop(fan):
    """Face by face over the arcs at the face, one pair of edge lines at a time."""
    eq = fan.equipment
    best = None
    for j in range(fan.m):
        dirs = []
        for k in {b if a == j else a for a, b in fan.arcs.tolist() if j in (a, b)}:
            d = np.cross(eq[j], eq[k])
            if np.linalg.norm(d) > 1e-12:
                dirs.append(d / np.linalg.norm(d))
        for a, b in itertools.combinations(dirs, 2):
            ang = float(np.arccos(min(1.0, abs(float(a @ b)))))
            if ang > 1e-9:
                best = ang if best is None else min(best, ang)
    return best


def test_min_edge_line_angle_matches_loop(cube, box123, tetra, bowtie, waisted, tiling):
    rng = np.random.default_rng(3)
    fans = [h.fan for h in (cube, box123, tetra, bowtie, waisted, tiling)]
    fans += [polar_fan(rng, m) for m in (8, 20, 40, 120)]
    for fan in fans:
        assert _min_edge_line_angle(fan) == pytest.approx(min_edge_line_angle_loop(fan), rel=1e-15, abs=0.0)


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


@pytest.mark.parametrize("tol", [np.inf, np.nan, -1.0, 0.0])
def test_tol_area_must_be_finite_and_positive(tol):
    with pytest.raises(ValueError, match=r"^tol_area must be finite and positive, got "):
        SolveOptions(tol_area=tol)


class TestSolve:
    def test_cube_pure_scaling(self, cube):
        out = solve_minkowski(cube.fan, cube.h, np.full(6, 9.0), FREE)
        assert out.status is SolveStatus.CONVERGED
        assert np.max(np.abs(out.h_final - 1.5)) <= 1e-8

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
        # the consistency rows keep this fan on the least-squares path,
        # whose rank verdict ends the walk one step short of the target
        out = solve_minkowski(waisted.fan, waisted.h, WAIST_TARGET, FREE)
        assert out.status is SolveStatus.DEGENERATED
        assert out.t_reached == 0.9375
        assert out.message == "jacobian rank dropped to 7 (expected 8)"

    @pytest.mark.parametrize("mode", ["FD", "finite-difference"])
    def test_unknown_jacobian_mode_rejected(self, cube, mode):
        with pytest.raises(ValueError, match="unknown jacobian mode"):
            jacobian(cube.fan, cube.h, mode=mode)
        opts = SolveOptions(allow_non_general_position=True, jacobian_mode=mode)
        with pytest.raises(ValueError, match="unknown jacobian mode"):
            solve_minkowski(cube.fan, cube.h, np.full(6, 9.0), opts)

    def test_fd_probe_flip_ends_the_path(self, cube):
        # a surface thinner than the probe step: the fd probes at the seed
        # flip a face, while the analytic walk takes no probes
        h = np.array([1.0, 1.0, 1.0, 1.0, 1.0, -1.0 + 2e-7])
        g = area_map(cube.fan, np.array([1.0, 1.0, 1.0, 1.0, 1.0, -1.0 + 4e-7]))
        opts = SolveOptions(allow_non_general_position=True, jacobian_mode="fd")
        out = solve_minkowski(cube.fan, h, g, opts)
        assert out.status is SolveStatus.DEGENERATED
        assert out.t_reached == 0.0 and len(out.trace) == 1
        assert out.message == "probe along h[4] left the orientation class"
        assert solve_minkowski(cube.fan, h, g, FREE).converged

    def test_fd_mode_solves_too(self, cube):
        opts = SolveOptions(allow_non_general_position=True, jacobian_mode="fd")
        out = solve_minkowski(cube.fan, cube.h, np.full(6, 2.25), opts)
        assert out.status is SolveStatus.CONVERGED
        assert np.max(np.abs(out.h_final - 0.75)) <= 1e-8


class TestEndings:
    """Every non-converged ending of the walk, each reported at the last accepted point."""

    @pytest.mark.parametrize("module, name, value, supports, status, message", [
        # the boundary of the class, raised high enough to meet on the way to the box
        (geometry, "EDGE_TOL", 1.0, [0.5, 0.5, 1, 1, 1.5, 1.5], "degenerated",
         r"shortest edge \d\.\d{3}e\+00 below tolerance"),
        (geometry, "AREA_TOL", 1.0, [0.5, 0.5, 1, 1, 1.5, 1.5], "degenerated",
         r"smallest \|oriented area\| \d\.\d{3}e\+00 below tolerance"),
        # support norm: the target cube is 1.5 times the seed
        (solver, "DIVERGENCE_BOUND_FACTOR", 1.2, [1.5] * 6, "diverged",
         r"support norm exceeded the divergence sentinel"),
        # face perimeter: a needle whose long faces have small area
        (solver, "DIVERGENCE_BOUND_FACTOR", 2.0, [2, 2, 0.025, 0.025, 0.025, 0.025], "diverged",
         r"face perimeter exceeded the divergence sentinel"),
        # no corrector iteration converges, so the step halves below MIN_STEP at t = 0
        (solver, "MAX_NEWTON_ITERS", 0, [0.5, 0.5, 1, 1, 1.5, 1.5], "max_iterations",
         r"corrector stalled at t=0\.0 with step below 1e-06"),
        (solver, "MAX_STEPS", 3, [0.5, 0.5, 1, 1, 1.5, 1.5], "max_iterations", r"step budget exhausted"),
    ], ids=["edge", "area", "support-norm", "perimeter", "stall", "step-budget"])
    def test_ending(self, cube, monkeypatch, module, name, value, supports, status, message):
        g = area_map(cube.fan, np.array(supports, dtype=float))
        monkeypatch.setattr(module, name, value)
        out = solve_minkowski(cube.fan, cube.h, g, FREE)
        assert out.status is SolveStatus(status)
        assert out.t_reached < 1.0 and out.trace[-1].t == out.t_reached
        assert re.fullmatch(message, out.message)
        # h_final is the point accepted at t_reached
        g_t = (1.0 - out.t_reached) * cube.oriented_areas + out.t_reached * g
        assert np.max(np.abs(area_map(cube.fan, out.h_final) - g_t)) <= 1e-9

    def test_path_leaves_the_orientation_class(self, cube, monkeypatch):
        # one tangent step from the cube toward a thin slab overshoots the
        # x extent through zero, and a loose tolerance accepts that point
        monkeypatch.setattr(solver, "HOMOTOPY_STEPS", 1)
        target = area_map(cube.fan, np.array([0.05, 0.05, 2.0, 2.0, 2.0, 2.0]))
        opts = SolveOptions(tol_area=1e6, allow_non_general_position=True)
        out = solve_minkowski(cube.fan, cube.h, target, opts)
        assert out.status is SolveStatus.DEGENERATED
        assert out.t_reached == 0.0 and len(out.trace) == 1
        assert out.message == "path left the orientation class"
