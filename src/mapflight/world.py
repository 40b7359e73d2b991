"""3D grid instance model: metric embedding, obstacles, connectivity, instance files.

Cells are integer triples (i, j, k); the vertex of cell (i, j, k) is embedded at
((i+0.5)*cell_size, (j+0.5)*cell_size, (k+0.5)*cell_size). Obstacle cells block
their full volume.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterable

from .geometry3d import CylinderBody, Vec3

Cell = tuple[int, int, int]

FACE_6 = "face-6"
PLANAR_DIAG_10 = "face+planar-diag-10"
FULL_26 = "full-26"

DEFAULT_CONNECTIVITY = FACE_6
DEFAULT_SPEED = 0.5
DEFAULT_RADIUS = 0.25
DEFAULT_HEIGHT = 1.0


def _steps_face6() -> list[Cell]:
    return [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]


def _steps_planar10() -> list[Cell]:
    return _steps_face6() + [(1, 1, 0), (1, -1, 0), (-1, 1, 0), (-1, -1, 0)]


def _steps_full26() -> list[Cell]:
    return [
        (dx, dy, dz)
        for dx in (-1, 0, 1)
        for dy in (-1, 0, 1)
        for dz in (-1, 0, 1)
        if (dx, dy, dz) != (0, 0, 0)
    ]


CONNECTIVITY_STEPS: dict[str, list[Cell]] = {
    FACE_6: _steps_face6(),
    PLANAR_DIAG_10: _steps_planar10(),
    FULL_26: _steps_full26(),
}


class InstanceError(ValueError):
    """Instance file rejected; message carries the offending field path."""

    def __init__(self, location: str, message: str):
        self.location = location
        super().__init__(f"{location}: {message}")


@dataclass(frozen=True)
class GridWorld:
    dims: Cell
    cell_size: float
    obstacles: frozenset[Cell] = field(default_factory=frozenset)
    connectivity: str = DEFAULT_CONNECTIVITY

    def __post_init__(self) -> None:
        if len(self.dims) != 3 or any((not isinstance(n, int)) or n < 1 for n in self.dims):
            raise ValueError(f"dims must be three integers >= 1, got {self.dims!r}")
        if not (isinstance(self.cell_size, (int, float)) and self.cell_size > 0 and math.isfinite(self.cell_size)):
            raise ValueError(f"cell_size must be a positive number, got {self.cell_size!r}")
        if self.connectivity not in CONNECTIVITY_STEPS:
            raise ValueError(
                f"unknown connectivity {self.connectivity!r}; expected one of {sorted(CONNECTIVITY_STEPS)}"
            )
        object.__setattr__(self, "obstacles", frozenset(tuple(c) for c in self.obstacles))
        for cell in self.obstacles:
            if not self.in_bounds(cell):
                raise ValueError(f"obstacle {cell} outside grid dims {self.dims}")

    def in_bounds(self, cell: Cell) -> bool:
        nx, ny, nz = self.dims
        return 0 <= cell[0] < nx and 0 <= cell[1] < ny and 0 <= cell[2] < nz

    def is_free(self, cell: Cell) -> bool:
        nx, ny, nz = self.dims
        return 0 <= cell[0] < nx and 0 <= cell[1] < ny and 0 <= cell[2] < nz and cell not in self.obstacles

    def center(self, cell: Cell) -> Vec3:
        cs = self.cell_size
        return ((cell[0] + 0.5) * cs, (cell[1] + 0.5) * cs, (cell[2] + 0.5) * cs)

    def cell_at(self, point: Vec3) -> Cell:
        cs = self.cell_size
        return (
            int(round(point[0] / cs - 0.5)),
            int(round(point[1] / cs - 0.5)),
            int(round(point[2] / cs - 0.5)),
        )

    def vertex_index(self, cell: Cell) -> int:
        _, ny, nz = self.dims
        return (cell[0] * ny + cell[1]) * nz + cell[2]


@dataclass(frozen=True)
class AgentSpec:
    id: int
    start: Cell
    goal: Cell
    body: CylinderBody = CylinderBody(DEFAULT_RADIUS, DEFAULT_HEIGHT)
    speed: float = DEFAULT_SPEED

    def __post_init__(self) -> None:
        if not (isinstance(self.id, int) and self.id >= 0):
            raise ValueError(f"agent id must be a non-negative integer, got {self.id!r}")
        if not (self.speed > 0 and math.isfinite(self.speed)):
            raise ValueError(f"agent {self.id}: speed must be > 0, got {self.speed!r}")


def move_duration(world: GridWorld, a: Cell, b: Cell, speed: float) -> float:
    pa = world.center(a)
    pb = world.center(b)
    return math.dist(pa, pb) / speed


def _diagonal_box_free(world: GridWorld, cell: Cell, step: Cell) -> bool:
    # the center-to-center segment passes through the shared corner: every cell
    # of the axis-aligned box spanned by the two cells must be free
    xs = (cell[0],) if step[0] == 0 else (cell[0], cell[0] + step[0])
    ys = (cell[1],) if step[1] == 0 else (cell[1], cell[1] + step[1])
    zs = (cell[2],) if step[2] == 0 else (cell[2], cell[2] + step[2])
    for x in xs:
        for y in ys:
            for z in zs:
                if not world.is_free((x, y, z)):
                    return False
    return True


def neighbors(world: GridWorld, cell: Cell) -> list[Cell]:
    """In-bounds free cells adjacent under the world's connectivity, no corner-cutting."""
    if not world.in_bounds(cell):
        raise ValueError(f"query cell {cell} is out of bounds for dims {world.dims}")
    if not world.is_free(cell):
        raise ValueError(f"query cell {cell} is an obstacle")
    result: list[Cell] = []
    for step in CONNECTIVITY_STEPS[world.connectivity]:
        target = (cell[0] + step[0], cell[1] + step[1], cell[2] + step[2])
        if not world.is_free(target):
            continue
        if abs(step[0]) + abs(step[1]) + abs(step[2]) > 1 and not _diagonal_box_free(world, cell, step):
            continue
        result.append(target)
    return result


# ---------------------------------------------------------------------------
# instance files
# ---------------------------------------------------------------------------

_GRID_KEYS = {"dims", "cell_size", "obstacles", "connectivity"}
_AGENT_KEYS = {"id", "start", "goal", "radius", "height", "speed"}


def _as_cell(value, where: str) -> Cell:
    if (
        not isinstance(value, list)
        or len(value) != 3
        or any(not isinstance(v, int) or isinstance(v, bool) for v in value)
    ):
        raise InstanceError(where, f"expected a cell [i, j, k] of three integers, got {value!r}")
    return (value[0], value[1], value[2])


def _as_positive_number(value, where: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise InstanceError(where, f"expected a number, got {value!r}")
    v = float(value)
    if not (v > 0 and math.isfinite(v)):
        raise InstanceError(where, f"expected a positive finite number, got {value!r}")
    return v


def _reject_unknown(obj: dict, allowed: set[str], where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise InstanceError(where, f"unknown keys {sorted(unknown)}; allowed keys are {sorted(allowed)}")


def load_instance(path) -> tuple[GridWorld, list[AgentSpec]]:
    """Parse and fully validate an instance file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InstanceError(f"{path}:{exc.lineno}", f"not valid JSON: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise InstanceError(str(path), "top level must be an object")
    _reject_unknown(doc, {"grid", "agents"}, "top level")
    for key in ("grid", "agents"):
        if key not in doc:
            raise InstanceError("top level", f"missing required key {key!r}")

    grid = doc["grid"]
    if not isinstance(grid, dict):
        raise InstanceError("grid", "must be an object")
    _reject_unknown(grid, _GRID_KEYS, "grid")
    for key in ("dims", "cell_size"):
        if key not in grid:
            raise InstanceError("grid", f"missing required key {key!r}")
    dims = _as_cell(grid["dims"], "grid.dims")
    if any(n < 1 for n in dims):
        raise InstanceError("grid.dims", f"all dims must be >= 1, got {list(dims)}")
    cell_size = _as_positive_number(grid["cell_size"], "grid.cell_size")
    raw_obstacles = grid.get("obstacles", [])
    if not isinstance(raw_obstacles, list):
        raise InstanceError("grid.obstacles", f"expected a list, got {raw_obstacles!r}")
    obstacles = []
    for n, raw in enumerate(raw_obstacles):
        cell = _as_cell(raw, f"grid.obstacles[{n}]")
        if not all(0 <= c < d for c, d in zip(cell, dims)):
            raise InstanceError(f"grid.obstacles[{n}]", f"cell {list(cell)} outside dims {list(dims)}")
        obstacles.append(cell)
    connectivity = grid.get("connectivity", DEFAULT_CONNECTIVITY)
    if connectivity not in CONNECTIVITY_STEPS:
        raise InstanceError(
            "grid.connectivity", f"unknown value {connectivity!r}; expected one of {sorted(CONNECTIVITY_STEPS)}"
        )
    world = GridWorld(dims, cell_size, frozenset(obstacles), connectivity)

    raw_agents = doc["agents"]
    if not isinstance(raw_agents, list) or not raw_agents:
        raise InstanceError("agents", "expected a non-empty list")
    agents: list[AgentSpec] = []
    for n, raw in enumerate(raw_agents):
        where = f"agents[{n}]"
        if not isinstance(raw, dict):
            raise InstanceError(where, "each agent must be an object")
        _reject_unknown(raw, _AGENT_KEYS, where)
        for key in ("id", "start", "goal"):
            if key not in raw:
                raise InstanceError(where, f"missing required key {key!r}")
        if not isinstance(raw["id"], int) or isinstance(raw["id"], bool) or raw["id"] < 0:
            raise InstanceError(f"{where}.id", f"expected a non-negative integer, got {raw['id']!r}")
        agent_id = raw["id"]
        start = _as_cell(raw["start"], f"{where}.start")
        goal = _as_cell(raw["goal"], f"{where}.goal")
        for name, cell in (("start", start), ("goal", goal)):
            if not world.in_bounds(cell):
                raise InstanceError(f"{where}.{name}", f"agent {agent_id}: cell {list(cell)} out of bounds")
            if not world.is_free(cell):
                raise InstanceError(f"{where}.{name}", f"agent {agent_id}: cell {list(cell)} is an obstacle")
        if start == goal:
            raise InstanceError(where, f"agent {agent_id}: start and goal must differ")
        radius = _as_positive_number(raw.get("radius", DEFAULT_RADIUS), f"{where}.radius")
        height = _as_positive_number(raw.get("height", DEFAULT_HEIGHT), f"{where}.height")
        speed = _as_positive_number(raw.get("speed", DEFAULT_SPEED), f"{where}.speed")
        agents.append(AgentSpec(agent_id, start, goal, CylinderBody(radius, height), speed))

    seen_ids: dict[int, int] = {}
    for n, spec in enumerate(agents):
        if spec.id in seen_ids:
            raise InstanceError(f"agents[{n}].id", f"duplicate agent id {spec.id} (also agents[{seen_ids[spec.id]}])")
        seen_ids[spec.id] = n
    agents.sort(key=lambda s: s.id)
    if [s.id for s in agents] != list(range(len(agents))):
        raise InstanceError("agents", f"ids must be contiguous from 0, got {[s.id for s in agents]}")
    starts: dict[Cell, int] = {}
    goals: dict[Cell, int] = {}
    for spec in agents:
        if spec.start in starts:
            raise InstanceError("agents", f"agents {starts[spec.start]} and {spec.id} share start {list(spec.start)}")
        if spec.goal in goals:
            raise InstanceError("agents", f"agents {goals[spec.goal]} and {spec.id} share goal {list(spec.goal)}")
        starts[spec.start] = spec.id
        goals[spec.goal] = spec.id
    return world, agents


def save_instance(world: GridWorld, agents: Iterable[AgentSpec], path) -> None:
    doc = {
        "grid": {
            "dims": list(world.dims),
            "cell_size": world.cell_size,
            "obstacles": [list(c) for c in sorted(world.obstacles)],
            "connectivity": world.connectivity,
        },
        "agents": [
            {
                "id": a.id,
                "start": list(a.start),
                "goal": list(a.goal),
                "radius": a.body.radius,
                "height": a.body.height,
                "speed": a.speed,
            }
            for a in sorted(agents, key=lambda s: s.id)
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
