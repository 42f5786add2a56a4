"""Building geometry: the five-floor testbed of Figure 9a.

Each floor is 50.9 m x 20.9 m with four ceiling-mounted RUs.  Positions are
3D with the floor index folded into z; UE walk paths reproduce the
floor-walk experiments of Figures 11 and 13.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, List

FLOOR_LENGTH_M = 50.9
FLOOR_WIDTH_M = 20.9
FLOOR_HEIGHT_M = 4.0
FLOORS = 5
RUS_PER_FLOOR = 4
CEILING_HEIGHT_M = 3.0
UE_HEIGHT_M = 1.5


@dataclass(frozen=True)
class Position:
    """A 3D position: x/y in metres within the floor plate, integer floor."""

    x: float
    y: float
    floor: int = 0
    height: float = UE_HEIGHT_M

    def distance_to(self, other: "Position") -> float:
        """3D euclidean distance, with floors converted to metres."""
        dz = (
            (self.floor * FLOOR_HEIGHT_M + self.height)
            - (other.floor * FLOOR_HEIGHT_M + other.height)
        )
        return math.sqrt((self.x - other.x) ** 2 + (self.y - other.y) ** 2 + dz**2)

    def floors_between(self, other: "Position") -> int:
        return abs(self.floor - other.floor)


@dataclass
class FloorPlan:
    """The testbed building: RU mounting points per floor (Figure 9a).

    The four RUs per floor are spread along the long axis at ceiling
    height, which gives full-floor coverage with no dead spots — the
    placement the paper verified empirically.
    """

    length_m: float = FLOOR_LENGTH_M
    width_m: float = FLOOR_WIDTH_M
    floors: int = FLOORS
    rus_per_floor: int = RUS_PER_FLOOR

    def ru_positions(self, floor: int) -> List[Position]:
        """Ceiling RU positions on one floor, spread along the long axis."""
        if not 0 <= floor < self.floors:
            raise ValueError(f"floor out of range: {floor}")
        spacing = self.length_m / self.rus_per_floor
        return [
            Position(
                x=spacing * (index + 0.5),
                y=self.width_m / 2,
                floor=floor,
                height=CEILING_HEIGHT_M,
            )
            for index in range(self.rus_per_floor)
        ]

    def grid_points(self, floor: int, step_m: float = 2.0) -> List[Position]:
        """A measurement grid over one floor (for coverage heatmaps)."""
        margin_m = 1.0
        points = []
        x = margin_m
        while x <= self.length_m - margin_m + 1e-9:
            y = margin_m
            while y <= self.width_m - margin_m + 1e-9:
                points.append(Position(x, y, floor))
                y += step_m
            x += step_m
        return points


@dataclass
class WalkPath:
    """A UE walk: a serpentine route across one floor (Figures 11 and 13).

    ``points(step_m)`` yields evenly spaced measurement positions along the
    path, like the throughput samples logged while walking the floor.
    """

    floor: int = 0
    plan: FloorPlan = None  # type: ignore[assignment]
    lanes: int = 3
    margin_m: float = 2.0

    def __post_init__(self) -> None:
        if self.plan is None:
            self.plan = FloorPlan()

    def waypoints(self) -> List[Position]:
        """Corner points of the serpentine."""
        plan = self.plan
        ys = [
            self.margin_m
            + lane * (plan.width_m - 2 * self.margin_m) / max(self.lanes - 1, 1)
            for lane in range(self.lanes)
        ]
        corners: List[Position] = []
        for lane, y in enumerate(ys):
            if lane % 2 == 0:
                corners.append(Position(self.margin_m, y, self.floor))
                corners.append(Position(plan.length_m - self.margin_m, y, self.floor))
            else:
                corners.append(Position(plan.length_m - self.margin_m, y, self.floor))
                corners.append(Position(self.margin_m, y, self.floor))
        return corners

    def points(self, step_m: float = 1.0) -> Iterator[Position]:
        """Evenly spaced positions along the walk."""
        corners = self.waypoints()
        for start, end in zip(corners, corners[1:]):
            segment = math.hypot(end.x - start.x, end.y - start.y)
            if segment < 1e-9:
                continue
            steps = max(int(segment / step_m), 1)
            for i in range(steps):
                t = i / steps
                yield Position(
                    start.x + t * (end.x - start.x),
                    start.y + t * (end.y - start.y),
                    self.floor,
                )
        yield corners[-1]
