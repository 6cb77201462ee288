import numpy as np
import pytest

from herisson import builders, io
from herisson.fan import validate
from herisson.geometry import balance_residual

SQRT3 = np.sqrt(3.0)

ALL_BUILDERS = [
    ("cube", lambda: builders.cube()),
    ("box123", lambda: builders.box(1.0, 2.0, 3.0)),
    ("tetra", lambda: builders.regular_tetrahedron(1.0)),
    ("bowtie", lambda: builders.reflected_truncated_tetrahedron(0.5)),
    ("waisted1", lambda: builders.waisted_bitetrahedron(1)),
    ("waisted5", lambda: builders.waisted_bitetrahedron(5)),
    ("tiling", lambda: builders.space_filling_prism()),
]


@pytest.mark.parametrize("name,make", ALL_BUILDERS)
def test_every_fixture_validates_and_balances(name, make):
    body = make()
    report = validate(body.fan)
    assert report.ok, f"{name}: {report}"
    residual = np.linalg.norm(balance_residual(body.oriented_areas, body.fan))
    assert residual <= 1e-9 * max(1.0, float(np.sum(np.abs(body.oriented_areas))))
    assert np.all(np.sign(body.oriented_areas) == body.signs)
    assert np.all(np.abs(body.oriented_areas) > 0)


@pytest.mark.parametrize("name,make", ALL_BUILDERS)
def test_builders_deterministic(name, make):
    a = io.dumps(io.herisson_to_dict(make()))
    b = io.dumps(io.herisson_to_dict(make()))
    assert a == b


class TestConvexBuilders:
    def test_box_areas(self):
        assert np.max(np.abs(builders.box(1, 2, 3).oriented_areas - [6, 6, 3, 3, 2, 2])) <= 1e-12

    def test_cube_is_box_222(self, cube):
        b = builders.box(2.0, 2.0, 2.0)
        assert np.allclose(cube.h, 1.0) and np.allclose(b.h, cube.h)
        assert cube.fan.cells == b.fan.cells

    def test_tetra_areas(self, tetra):
        assert np.allclose(tetra.oriented_areas, 6.0 * SQRT3, atol=1e-9)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            builders.box(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            builders.regular_tetrahedron(-1.0)


class TestBowtie:
    def test_sign_pattern(self, bowtie):
        assert list(bowtie.signs).count(1) == 2
        assert bowtie.signs[0] == 1 and bowtie.signs[7] == 1

    def test_balance_tight(self, bowtie):
        assert np.linalg.norm(balance_residual(bowtie.oriented_areas, bowtie.fan)) <= 1e-12

    def test_same_fan_across_rho(self):
        a = builders.reflected_truncated_tetrahedron(0.25)
        b = builders.reflected_truncated_tetrahedron(0.5)
        assert a.fan.cells == b.fan.cells
        assert np.allclose(a.fan.equipment, b.fan.equipment, atol=1e-15)
        assert np.array_equal(a.signs, b.signs)
        assert not np.allclose(a.h, b.h)

    def test_lateral_area_value(self):
        rho = 0.37
        body = builders.reflected_truncated_tetrahedron(rho)
        # trapezoid between the unit triangle and its rho-scaled copy
        expect = -(SQRT3 / 4.0) * (1.0 - rho**2)
        assert np.allclose(body.oriented_areas[1:7], expect, atol=1e-12)

    def test_domain(self):
        for bad in (0.0, 1.0, -0.3, 2.0):
            with pytest.raises(ValueError):
                builders.reflected_truncated_tetrahedron(bad)


class TestWaisted:
    def test_waist_exactly_minus_third(self):
        for k in (1, 2, 7):
            body = builders.waisted_bitetrahedron(k)
            assert np.max(np.abs(body.oriented_areas[1:4] + 1.0 / 3.0)) <= 1e-12

    def test_base_areas_exact(self):
        body = builders.waisted_bitetrahedron(4)
        assert abs(body.oriented_areas[0] - SQRT3 / 4.0) <= 0.05
        assert abs(body.oriented_areas[10] - SQRT3 / 4.0) <= 1e-12

    def test_lateral_areas_tend_to_limit(self):
        deviations = [
            float(np.max(np.abs(builders.waisted_bitetrahedron(k).oriented_areas[4:10] + SQRT3 / 4.0)))
            for k in (1, 2, 5, 10, 20)
        ]
        assert deviations[-1] <= 0.05
        assert all(a > b for a, b in zip(deviations, deviations[1:]))

    def test_support_growth_linear(self):
        maxima = [float(np.max(np.abs(builders.waisted_bitetrahedron(k).h))) for k in range(1, 21)]
        assert all(b - a >= 0.45 for a, b in zip(maxima, maxima[1:]))
        assert all(m >= 0.5 * k for k, m in enumerate(maxima, start=1))

    def test_domain(self):
        for bad in (0, -2, 1.5, True):
            with pytest.raises(ValueError):
                builders.waisted_bitetrahedron(bad)


class TestSpaceFillingPrism:
    def test_valid_and_balanced(self, tiling):
        assert validate(tiling.fan).ok
        assert np.linalg.norm(balance_residual(tiling.oriented_areas, tiling.fan)) <= 1e-12

    def test_cross_section_area(self, tiling):
        # both caps carry the full hourglass hexagon: 2 * trapezium area = 4
        assert abs(tiling.oriented_areas[0]) == pytest.approx(4.0, abs=1e-12)
        assert abs(tiling.oriented_areas[1]) == pytest.approx(4.0, abs=1e-12)

    def test_twelve_vertices_eight_faces(self, tiling):
        assert tiling.m == 8
        assert len(tiling.fan.cells) == 12
        assert len(tiling.fan.arcs) == 18

    def test_vertices_on_unit_slab(self, tiling):
        z = tiling.vertices[:, 2]
        assert set(np.round(z, 12)) == {0.0, 1.0}
