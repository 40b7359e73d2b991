"""3D grid instance model: metric embedding, obstacles, connectivity, instance files.

Cells are integer triples (i, j, k); the vertex of cell (i, j, k) is embedded at
((i+0.5)*cell_size, (j+0.5)*cell_size, (k+0.5)*cell_size). Obstacle cells block
their full volume. Each value rule lives in the constructor of the type it
constrains; `load_instance` keeps the file's shape and the cross-agent rules.
Every input file is read through `read_json`, and every rejected one raises
`InputError`.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterable

from .geometry3d import CylinderBody, Vec3, is_finite_number

Cell = tuple[int, int, int]

FACE_6 = "face-6"
PLANAR_DIAG_10 = "face+planar-diag-10"
FULL_26 = "full-26"

DEFAULT_CONNECTIVITY = FACE_6
DEFAULT_SPEED = 0.5
DEFAULT_RADIUS = 0.25
DEFAULT_HEIGHT = 1.0
# one-cell move time cell_size / speed, s: outside it, plan times vanish below
# or overflow the float spacing of the waypoint times
MOVE_TIME_RANGE = (1e-3, 1e3)
# grid cell ceiling: SIPP compiles every cell into its search graph, at about
# 10 us and 1 KB a cell, so the ceiling bounds that at about 10 s and 1 GB
MAX_CELLS = 2**20
# largest cell_size over an agent's radius or half height: far past it a contact
# window lasts below the float spacing of its move's times, and detection misses
# collisions; with MAX_CELLS it keeps the far corner within ~1e12 body sizes
MAX_CELL_PER_BODY = 1e6


# a list's order is the order of `neighbors` and of SIPP's successor lists
CONNECTIVITY_STEPS: dict[str, list[Cell]] = {
    FACE_6: [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)],
    PLANAR_DIAG_10: [
        (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1),
        (1, 1, 0), (1, -1, 0), (-1, 1, 0), (-1, -1, 0),
    ],
    FULL_26: [
        (dx, dy, dz)
        for dx in (-1, 0, 1)
        for dy in (-1, 0, 1)
        for dz in (-1, 0, 1)
        if (dx, dy, dz) != (0, 0, 0)
    ],
}


def _is_cell(value) -> bool:
    return isinstance(value, tuple) and len(value) == 3 and all(type(n) is int for n in value)


def is_agent_id(value) -> bool:
    """An int, not a bool, in [0, 2**63): what the int64 agent columns of the pose log and error series hold."""
    return type(value) is int and 0 <= value < 2**63


@dataclass(frozen=True)
class GridWorld:
    dims: Cell
    cell_size: float
    obstacles: frozenset[Cell] = field(default_factory=frozenset)
    connectivity: str = DEFAULT_CONNECTIVITY

    def __post_init__(self) -> None:
        if not (_is_cell(self.dims) and min(self.dims) >= 1):
            raise ValueError(f"dims must be three integers >= 1, got {self.dims!r}")
        if math.prod(self.dims) > MAX_CELLS:
            raise ValueError(f"dims {self.dims!r} hold more than {MAX_CELLS} cells")
        if not (is_finite_number(self.cell_size) and self.cell_size > 0):
            raise ValueError(f"cell_size must be a positive finite number, got {self.cell_size!r}")
        if not math.isfinite(max(self.dims) * self.cell_size):
            raise ValueError(f"the far corner dims * cell_size must be a finite float, "
                             f"got dims {self.dims!r} and cell_size {self.cell_size!r}")
        if not (isinstance(self.connectivity, str) and self.connectivity in CONNECTIVITY_STEPS):
            raise ValueError(
                f"unknown value {self.connectivity!r} for connectivity; expected one of {sorted(CONNECTIVITY_STEPS)}"
            )
        for cell in self.obstacles:
            if not _is_cell(cell):
                raise ValueError(f"obstacle {cell!r} is not a cell of three integers")
            if not self.in_bounds(cell):
                raise ValueError(f"obstacle {cell} outside dims {self.dims}")
        object.__setattr__(self, "cell_size", float(self.cell_size))
        object.__setattr__(self, "obstacles", frozenset(self.obstacles))

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
        if not is_agent_id(self.id):
            raise ValueError(f"agent id must be a non-negative integer below 2**63, got {self.id!r}")
        for name in ("start", "goal"):
            if not _is_cell(getattr(self, name)):
                raise ValueError(f"agent {self.id}: {name} must be a cell of three integers, got {getattr(self, name)!r}")
        if not (is_finite_number(self.speed) and self.speed > 0):
            raise ValueError(f"agent {self.id}: speed must be a positive finite number, got {self.speed!r}")
        object.__setattr__(self, "speed", float(self.speed))


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
    return all(world.is_free((x, y, z)) for x in xs for y in ys for z in zs)


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
# input files
# ---------------------------------------------------------------------------


class InputError(ValueError):
    """An input file was rejected; the message names the file and, for a bad value, its field path."""


def read_json(path):
    """The JSON document in a file; every way the file fails to open or decode is an InputError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise InputError(f"{path}: file not found") from exc
    except OSError as exc:
        raise InputError(f"{path}: cannot read: {exc.strerror}") from exc
    except (ValueError, RecursionError) as exc:
        # bad syntax, bytes that are not UTF-8, an integer past Python's digit
        # limit, or arrays and objects nested past the recursion limit
        raise InputError(f"{path}: not valid JSON: {exc}") from exc


def write_json(path, doc) -> None:
    """Write `doc` as JSON with 2-space indents, sorted keys and a trailing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


@contextmanager
def input_field(path, where: str):
    """Re-raise a ValueError from inside the block as an InputError naming the file and the field path `where`."""
    try:
        yield
    except ValueError as exc:
        raise InputError(f"{path}: {where}: {exc}") from exc


def check_keys(obj, allowed: set[str], required: tuple[str, ...] = ()) -> None:
    """Raise ValueError unless `obj` is a JSON object with only `allowed` keys and all `required` ones."""
    if not isinstance(obj, dict):
        raise ValueError("must hold a JSON object")
    unknown = set(obj) - allowed
    if unknown:
        raise ValueError(f"unknown keys {sorted(unknown)}; allowed keys are {sorted(allowed)}")
    for key in required:
        if key not in obj:
            raise ValueError(f"missing required key {key!r}")


_GRID_KEYS = {"dims", "cell_size", "obstacles", "connectivity"}
_AGENT_KEYS = {"id", "start", "goal", "radius", "height", "speed"}


def _tuple(value):
    """A JSON list as a tuple; any other value unchanged, for its constructor to reject."""
    return tuple(value) if isinstance(value, list) else value


def load_instance(path) -> tuple[GridWorld, list[AgentSpec]]:
    """The world and the agents (sorted by id) of an instance file.

    Checks the file's shape and the rules that need the world or several agents,
    among them each agent's one-cell move time, which must lie in MOVE_TIME_RANGE,
    and its radius and half height, which must be at least cell_size / MAX_CELL_PER_BODY;
    a constructor's ValueError comes back as an InputError naming `grid` or `agents[n]`.
    """
    doc = read_json(path)
    with input_field(path, "top level"):
        check_keys(doc, {"grid", "agents"}, ("grid", "agents"))
    with input_field(path, "grid"):
        grid = doc["grid"]
        check_keys(grid, _GRID_KEYS, ("dims", "cell_size"))
        raw_obstacles = grid.get("obstacles", [])
        if not isinstance(raw_obstacles, list):
            raise ValueError(f"obstacles: expected a list, got {raw_obstacles!r}")
        world = GridWorld(
            _tuple(grid["dims"]),
            grid["cell_size"],
            tuple(_tuple(cell) for cell in raw_obstacles),
            grid.get("connectivity", DEFAULT_CONNECTIVITY),
        )

    raw_agents = doc["agents"]
    if not isinstance(raw_agents, list) or not raw_agents:
        raise InputError(f"{path}: agents: expected a non-empty list")
    agents: list[AgentSpec] = []
    for n, raw in enumerate(raw_agents):
        with input_field(path, f"agents[{n}]"):
            check_keys(raw, _AGENT_KEYS, ("id", "start", "goal"))
            body = CylinderBody(raw.get("radius", DEFAULT_RADIUS), raw.get("height", DEFAULT_HEIGHT))
            spec = AgentSpec(raw["id"], _tuple(raw["start"]), _tuple(raw["goal"]), body, raw.get("speed", DEFAULT_SPEED))
            for name, cell in (("start", spec.start), ("goal", spec.goal)):
                if not world.in_bounds(cell):
                    raise ValueError(f"{name}: agent {spec.id}: cell {list(cell)} out of bounds")
                if not world.is_free(cell):
                    raise ValueError(f"{name}: agent {spec.id}: cell {list(cell)} is an obstacle")
            if spec.start == spec.goal:
                raise ValueError(f"agent {spec.id}: start and goal must differ")
            move_time = world.cell_size / spec.speed
            if not MOVE_TIME_RANGE[0] <= move_time <= MOVE_TIME_RANGE[1]:
                raise ValueError(
                    f"agent {spec.id}: one-cell move time cell_size / speed = {move_time!r} s "
                    f"is outside [{MOVE_TIME_RANGE[0]}, {MOVE_TIME_RANGE[1]}] s"
                )
            floor = world.cell_size / MAX_CELL_PER_BODY
            for name, size in (("radius", body.radius), ("half height", 0.5 * body.height)):
                if size < floor:
                    raise ValueError(f"agent {spec.id}: {name} {size!r} m is below cell_size / {MAX_CELL_PER_BODY!r} = {floor!r} m")
        agents.append(spec)

    with input_field(path, "agents"):
        seen_ids: dict[int, int] = {}
        for n, spec in enumerate(agents):
            if spec.id in seen_ids:
                raise ValueError(f"duplicate agent id {spec.id} (agents[{seen_ids[spec.id]}] and agents[{n}])")
            seen_ids[spec.id] = n
        agents.sort(key=lambda s: s.id)
        if [s.id for s in agents] != list(range(len(agents))):
            raise ValueError(f"ids must be contiguous from 0, got {[s.id for s in agents]}")
        starts: dict[Cell, int] = {}
        goals: dict[Cell, int] = {}
        for spec in agents:
            if spec.start in starts:
                raise ValueError(f"agents {starts[spec.start]} and {spec.id} share start {list(spec.start)}")
            if spec.goal in goals:
                raise ValueError(f"agents {goals[spec.goal]} and {spec.id} share goal {list(spec.goal)}")
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
    write_json(path, doc)
