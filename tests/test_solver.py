import itertools

import numpy as np
import pytest

from helpers import polar_fan, random_hull_fan, random_simple_fan
from herisson import builders
from herisson.errors import ProbeFailed
from herisson.fan import Fan
from herisson.geometry import gauge_fix, reconstruct, support_scale
from herisson.solver import (
    SolveOptions,
    SolveStatus,
    _min_edge_line_angle,
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


def min_edge_line_angle_loop(fan):
    """Face by face over the ring neighbors, one pair of edge lines at a time."""
    eq = fan.equipment
    best = None
    for j in range(fan.m):
        dirs = []
        for k in set(fan.face_rings[j][1]):
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

    def test_waisted_limit_target(self, waisted):
        # the famous limit vector satisfies sign and balance but the fan is
        # not in general position
        report = validate_target(waisted.fan, waisted.oriented_areas, WAIST_TARGET)
        assert report.codes == {"general position"}
        relaxed = validate_target(
            waisted.fan, waisted.oriented_areas, WAIST_TARGET, allow_non_general_position=True
        )
        assert relaxed.ok


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
        out = solve_minkowski(waisted.fan, waisted.h, WAIST_TARGET, FREE)
        assert out.status in (SolveStatus.DIVERGED, SolveStatus.DEGENERATED)
        assert out.t_reached < 1.0

    @pytest.mark.parametrize("mode", ["FD", "finite-difference"])
    def test_unknown_jacobian_mode_rejected(self, cube, mode):
        with pytest.raises(ValueError, match="unknown jacobian mode"):
            jacobian(cube.fan, cube.h, mode=mode)
        opts = SolveOptions(allow_non_general_position=True, jacobian_mode=mode)
        with pytest.raises(ValueError, match="unknown jacobian mode"):
            solve_minkowski(cube.fan, cube.h, np.full(6, 9.0), opts)

    def test_fd_mode_solves_too(self, cube):
        opts = SolveOptions(allow_non_general_position=True, jacobian_mode="fd")
        out = solve_minkowski(cube.fan, cube.h, np.full(6, 2.25), opts)
        assert out.status is SolveStatus.CONVERGED
        assert np.max(np.abs(out.h_final - 0.75)) <= 1e-8
