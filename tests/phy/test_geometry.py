"""Building geometry tests (the Figure 9a testbed)."""

import math

import pytest

from repro.phy.geometry import (
    FLOOR_HEIGHT_M,
    FloorPlan,
    Position,
    WalkPath,
)


class TestPosition:
    def test_same_point_distance_zero(self):
        p = Position(5, 5, 0)
        assert p.distance_to(p) == 0

    def test_planar_distance(self):
        a = Position(0, 0, 0, height=1.5)
        b = Position(3, 4, 0, height=1.5)
        assert a.distance_to(b) == pytest.approx(5.0)

    def test_floor_distance_includes_height(self):
        a = Position(0, 0, 0, height=1.5)
        b = Position(0, 0, 2, height=1.5)
        assert a.distance_to(b) == pytest.approx(2 * FLOOR_HEIGHT_M)

    def test_floors_between(self):
        assert Position(0, 0, 1).floors_between(Position(0, 0, 4)) == 3

    def test_symmetry(self):
        a = Position(1, 2, 0)
        b = Position(9, 3, 2)
        assert a.distance_to(b) == pytest.approx(b.distance_to(a))


class TestFloorPlan:
    def test_four_rus_per_floor(self):
        plan = FloorPlan()
        rus = plan.ru_positions(0)
        assert len(rus) == 4
        assert all(ru.floor == 0 for ru in rus)

    def test_rus_within_floor_bounds(self):
        plan = FloorPlan()
        for ru in plan.ru_positions(2):
            assert 0 < ru.x < plan.length_m
            assert 0 < ru.y < plan.width_m
            assert ru.floor == 2

    def test_rus_evenly_spread(self):
        plan = FloorPlan()
        xs = [ru.x for ru in plan.ru_positions(0)]
        gaps = [b - a for a, b in zip(xs, xs[1:])]
        assert all(gap == pytest.approx(gaps[0]) for gap in gaps)

    def test_invalid_floor_raises(self):
        with pytest.raises(ValueError):
            FloorPlan().ru_positions(5)

    def test_grid_points_cover_floor(self):
        plan = FloorPlan()
        points = plan.grid_points(0, step_m=5.0)
        assert len(points) > 20
        assert all(p.floor == 0 for p in points)
        assert max(p.x for p in points) > plan.length_m * 0.8


class TestWalkPath:
    def test_points_stay_on_floor(self):
        for point in WalkPath(floor=1).points(2.0):
            assert point.floor == 1

    def test_points_within_bounds(self):
        plan = FloorPlan()
        for point in WalkPath(floor=0).points(1.0):
            assert 0 <= point.x <= plan.length_m
            assert 0 <= point.y <= plan.width_m

    def test_step_spacing(self):
        points = list(WalkPath(floor=0).points(2.0))
        for a, b in zip(points, points[1:]):
            step = math.hypot(b.x - a.x, b.y - a.y)
            assert step <= 2.5  # allow corner turns

    def test_covers_floor_length(self):
        points = list(WalkPath(floor=0).points(1.0))
        xs = [p.x for p in points]
        assert max(xs) - min(xs) > 40  # most of the 50.9 m length
