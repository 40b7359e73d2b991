"""Timed waypoint plans: the shared contract between planner, validator, and simulator.

A plan file is self-contained: it echoes each agent's body and speed so the
execution side can run plans produced by external solvers. Each value rule lives
in the constructor of the type it constrains; `load_plans` keeps the file's shape
and the rules no type owns (unique agent ids, the speed).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional

import numpy as np

from . import geometry3d
from .geometry3d import CylinderBody, LinearMotion, Vec3, is_finite_number
from .world import (
    DEFAULT_HEIGHT,
    DEFAULT_RADIUS,
    DEFAULT_SPEED,
    AgentSpec,
    Cell,
    GridWorld,
    InputError,
    check_keys,
    input_field,
    is_agent_id,
    read_json,
    write_json,
)

Waypoint = tuple[float, float, float, float]

_SPEED_RTOL = 1e-9
_ENDPOINT_ATOL = 1e-9
_SAMPLING_GUARD = 1e-9
# Time step of the validator's sampled sweep, s.
_SAMPLING_DT = 1e-3
# How far past the later of two plans' last moves the sampled sweep runs; parked
# agents that statically overlap are guaranteed to show inside this pad.
_PARK_PAD = 1.0


def _are_numbers(x, y, z, t) -> bool:
    """Each value an int or a float, not a bool."""
    return (isinstance(x, (int, float)) and isinstance(y, (int, float)) and isinstance(z, (int, float))
            and isinstance(t, (int, float)) and bool not in (type(x), type(y), type(z), type(t)))


@dataclass(frozen=True)
class TimedPlan:
    """Ordered (x, y, z, t) waypoints, the first at t = 0, and the motions between them.

    `motions` is built once, at construction: one LinearMotion per pair of
    consecutive waypoints, then a wait at the goal that never ends (the agent
    parks there for good). The motion constructor owns the finiteness and
    time-order rules; the plan checks the row shape, the number type and t = 0.
    """

    agent: int
    waypoints: tuple[Waypoint, ...]
    motions: tuple[LinearMotion, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not is_agent_id(self.agent):
            raise ValueError(f"agent id must be a non-negative integer below 2**63, got {self.agent!r}")
        wps, points = [], []
        for n, row in enumerate(self.waypoints):
            if not (isinstance(row, (tuple, list)) and len(row) == 4 and _are_numbers(*row)):
                raise ValueError(f"agent {self.agent}: waypoint {n}: expected [x, y, z, t] numbers, got {row!r}")
            x, y, z, t = row
            try:
                point = (float(x), float(y), float(z))
                wps.append((*point, float(t)))
            except OverflowError as exc:
                raise ValueError(f"agent {self.agent}: waypoint {n}: an integer beyond the float range") from exc
            points.append(point)
        if not wps:
            raise ValueError(f"agent {self.agent}: plan needs at least one waypoint")
        times = [wp[3] for wp in wps]
        if times[0] != 0.0:
            raise ValueError(f"agent {self.agent}: first waypoint must have t = 0, got t = {times[0]!r}")
        motions = []
        for n, (p0, p1, t0, t1) in enumerate(zip(points, points[1:] + points[-1:], times, times[1:] + [math.inf])):
            try:
                motions.append(LinearMotion(p0, p1, t0, t1))
            except ValueError as exc:
                raise ValueError(f"agent {self.agent}: the motion from waypoint {n}: {exc}") from exc
        wps = tuple(wps)
        object.__setattr__(self, "waypoints", wps)
        object.__setattr__(self, "motions", tuple(motions))
        # plans key the solver's pair-test cache, so hash the waypoints once
        object.__setattr__(self, "_hash", hash((self.agent, wps)))

    def __hash__(self) -> int:
        return self._hash  # type: ignore[attr-defined]

    @property
    def start_position(self) -> Vec3:
        return self.motions[0].p0

    @property
    def goal_position(self) -> Vec3:
        return self.motions[-1].p0

    @property
    def end_time(self) -> float:
        return self.waypoints[-1][3]

    def positions_at(self, ts) -> np.ndarray:
        """Piecewise-linear positions at the times `ts`, shape (len(ts), 3): held at
        the start up to t = 0 and parked at the goal from the end time on.

        Inside the plan each row is `geometry3d._position_at` of the segment the
        time falls in, the same float operations element by element.
        """
        ts = np.asarray(ts, dtype=np.float64)
        wps = np.array(self.waypoints)  # one row (x, y, z, t) per waypoint
        times, points = wps[:, 3], wps[:, :3]
        out = np.where((ts <= times[0])[:, None], points[0], points[-1])
        inside = (ts > times[0]) & (ts < times[-1])
        t = ts[inside]
        k = np.searchsorted(times, t, side="right") - 1
        s = (t - times[k]) / (times[k + 1] - times[k])
        out[inside] = points[k] + (points[k + 1] - points[k]) * s[:, None]
        return out


@dataclass(frozen=True)
class Violation:
    kind: str  # "pairwise" | "static" | "kinematic" | "endpoint"
    time: float
    pair: Optional[tuple[int, int]] = None
    agent: Optional[int] = None
    min_separation_found: Optional[float] = None
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[Violation, ...]
    checked_pairs: int

    def summary(self) -> str:
        if self.ok:
            return f"OK ({self.checked_pairs} agent pairs checked)"
        lines = [f"{len(self.violations)} violation(s) over {self.checked_pairs} agent pairs:"]
        for v in self.violations:
            who = f"agents {v.pair[0]}-{v.pair[1]}" if v.pair else f"agent {v.agent}"
            extra = f", min separation {v.min_separation_found:.4f} m" if v.min_separation_found is not None else ""
            lines.append(f"  [{v.kind}] {who} at t = {v.time:.4f} s{extra} {v.detail}".rstrip())
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# static geometry helpers
# ---------------------------------------------------------------------------


def _segment_touches_box(p: Vec3, q: Vec3, lo: Vec3, hi: Vec3) -> bool:
    # slab clipping against the closed box; touching counts
    tmin, tmax = 0.0, 1.0
    for axis in range(3):
        d = q[axis] - p[axis]
        if abs(d) < 1e-15:
            if p[axis] < lo[axis] - 1e-12 or p[axis] > hi[axis] + 1e-12:
                return False
            continue
        t1 = (lo[axis] - p[axis]) / d
        t2 = (hi[axis] - p[axis]) / d
        if t1 > t2:
            t1, t2 = t2, t1
        tmin = max(tmin, t1)
        tmax = min(tmax, t2)
        if tmin > tmax + 1e-12:
            return False
    return True


def segment_cells(world: GridWorld, p: Vec3, q: Vec3) -> list[Cell]:
    """All grid cells whose closed volume the segment touches (conservative)."""
    cs = world.cell_size
    cells: list[Cell] = []
    ranges = []
    for axis in range(3):
        lo = min(p[axis], q[axis])
        hi = max(p[axis], q[axis])
        ranges.append((math.floor(lo / cs - 1e-9), math.floor(hi / cs + 1e-9)))
    for i in range(ranges[0][0], ranges[0][1] + 1):
        for j in range(ranges[1][0], ranges[1][1] + 1):
            for k in range(ranges[2][0], ranges[2][1] + 1):
                box_lo = (i * cs, j * cs, k * cs)
                box_hi = ((i + 1) * cs, (j + 1) * cs, (k + 1) * cs)
                if _segment_touches_box(p, q, box_lo, box_hi):
                    cells.append((i, j, k))
    return cells


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def _gaps(wa: np.ndarray, wb: np.ndarray, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Planar distance and vertical gap at the times ts of two plans' waypoint columns x, y, z, t."""
    # np.interp clamps outside the waypoint range: start-hold and goal-parking
    xa, ya, za = (np.interp(ts, wa[3], axis) for axis in wa[:3])
    xb, yb, zb = (np.interp(ts, wb[3], axis) for axis in wb[:3])
    return np.hypot(xa - xb, ya - yb), np.abs(za - zb)


def validate(
    plans: Iterable[TimedPlan],
    agents: Iterable[AgentSpec],
    world: GridWorld,
) -> ValidationReport:
    """Dual conflict check (analytic + sampled) plus static and kinematic checks.

    The analytic check is the solver's own pair test (`geometry3d._pair_earliest`),
    so planner and validator judge the cylinder the same way. The sampled check
    is independent of it: it never evaluates the quadratic, only positions on a
    uniform grid every _SAMPLING_DT seconds.
    """
    plan_list = sorted(plans, key=lambda p: p.agent)
    spec_map = {a.id: a for a in agents}
    plan_ids = [p.agent for p in plan_list]
    if len(set(plan_ids)) != len(plan_ids):
        raise InputError(f"plans do not match instance: duplicate plan agent ids: {plan_ids}")
    missing = [i for i in plan_ids if i not in spec_map]
    if missing:
        raise InputError(f"plans do not match instance: plans name agents absent from the instance: {missing}")
    unplanned = sorted(set(spec_map) - set(plan_ids))
    if unplanned:
        raise InputError(f"plans do not match instance: instance agents without plans: {unplanned}")

    violations: list[Violation] = []

    # endpoint + kinematic + static checks, per agent
    for plan in plan_list:
        spec = spec_map[plan.agent]
        start_c = world.center(spec.start)
        goal_c = world.center(spec.goal)
        if math.dist(plan.start_position, start_c) > _ENDPOINT_ATOL:
            violations.append(
                Violation("endpoint", 0.0, agent=plan.agent,
                          detail=f"first waypoint {plan.start_position} is not the start vertex {start_c}")
            )
        if math.dist(plan.goal_position, goal_c) > _ENDPOINT_ATOL:
            violations.append(
                Violation("endpoint", plan.end_time, agent=plan.agent,
                          detail=f"last waypoint {plan.goal_position} is not the goal vertex {goal_c}")
            )
        for k, m in enumerate(plan.motions[:-1]):  # the goal park neither moves nor leaves its cell
            length = math.dist(m.p0, m.p1)
            if length > 0.0:
                seg_speed = length / (m.t1 - m.t0)
                if abs(seg_speed - spec.speed) > _SPEED_RTOL * max(seg_speed, spec.speed):
                    violations.append(
                        Violation("kinematic", m.t0, agent=plan.agent,
                                  detail=f"segment {k} speed {seg_speed!r} differs from agent speed {spec.speed!r}")
                    )
            for cell in segment_cells(world, m.p0, m.p1):
                if not world.is_free(cell):
                    label = "out of bounds" if not world.in_bounds(cell) else "an obstacle"
                    violations.append(
                        Violation("static", m.t0, agent=plan.agent,
                                  detail=f"segment {k} touches cell {list(cell)} which is {label}")
                    )
                    break

    # pairwise checks: analytic intervals and an independent sampled sweep
    columns = {plan.agent: np.array(plan.waypoints).T for plan in plan_list}
    # a position never changes after its plan's last move ends, however long a wait follows
    settled = {plan.agent: max((m.t1 for m in plan.motions[:-1] if m.p0 != m.p1), default=0.0) for plan in plan_list}
    for pa, pb in itertools.combinations(plan_list, 2):
        body_a = spec_map[pa.agent].body
        body_b = spec_map[pb.agent].body
        r_sum = body_a.radius + body_b.radius
        h_half = 0.5 * (body_a.height + body_b.height)
        horizon = max(settled[pa.agent], settled[pb.agent]) + _PARK_PAD
        wa, wb = columns[pa.agent], columns[pb.agent]

        found = geometry3d._pair_earliest(pa, pb, body_a, body_b)

        ts = np.arange(0.0, horizon + 0.5 * _SAMPLING_DT, _SAMPLING_DT)
        planar, dz = _gaps(wa, wb, ts)
        # guard keeps exact-touching trajectories (legal) from tripping on
        # rounding noise; genuine penetrations at this sampling resolution
        # run orders of magnitude deeper
        mask = (planar < r_sum - _SAMPLING_GUARD) & (dz < h_half - _SAMPLING_GUARD)
        sampled_time = float(ts[np.argmax(mask)]) if mask.any() else None

        if found is not None:
            # the min separation comes from a dense grid over the analytic window
            lo, hi = found.unsafe
            ts = np.linspace(lo, min(hi, horizon), 1001)
            planar, dz = _gaps(wa, wb, ts)
            mask = (planar < r_sum) & (dz < h_half)
            earliest = lo if sampled_time is None else min(lo, sampled_time)
        elif sampled_time is not None:
            earliest = sampled_time
        else:
            continue
        violations.append(
            Violation("pairwise", earliest, pair=(pa.agent, pb.agent),
                      min_separation_found=float((planar[mask] if mask.any() else planar).min()),
                      detail="(analytic)" if sampled_time is None else "")
        )
    checked_pairs = len(plan_list) * (len(plan_list) - 1) // 2

    violations.sort(key=lambda v: (v.time, v.kind, v.pair or (-1, -1), v.agent if v.agent is not None else -1))
    return ValidationReport(ok=not violations, violations=tuple(violations), checked_pairs=checked_pairs)


# ---------------------------------------------------------------------------
# plan files
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlanSet:
    """Plans plus the echoed body parameters that make the file self-contained."""

    plans: tuple[TimedPlan, ...]
    bodies: Mapping[int, CylinderBody] = field(default_factory=dict)
    speeds: Mapping[int, float] = field(default_factory=dict)


def save_plans(plans: Iterable[TimedPlan], agents: Iterable[AgentSpec], path) -> None:
    spec_map = {a.id: a for a in agents}
    doc = {
        "plans": [
            {
                "agent": p.agent,
                "radius": spec_map[p.agent].body.radius,
                "height": spec_map[p.agent].body.height,
                "speed": spec_map[p.agent].speed,
                "waypoints": [list(wp) for wp in p.waypoints],
            }
            for p in sorted(plans, key=lambda p: p.agent)
        ]
    }
    write_json(path, doc)


_PLAN_KEYS = {"agent", "radius", "height", "speed", "waypoints"}


def load_plans(path) -> PlanSet:
    """The plans (sorted by agent) of a plan file, with their echoed bodies and speeds.

    Checks the file's shape and the rules no type owns; a constructor's
    ValueError comes back as an InputError naming `plans[n]`.
    """
    doc = read_json(path)
    if not isinstance(doc, dict) or set(doc) != {"plans"}:
        raise InputError(f"{path}: top level: expected exactly one key 'plans'")
    raw_plans = doc["plans"]
    if not isinstance(raw_plans, list) or not raw_plans:
        raise InputError(f"{path}: plans: expected a non-empty list")
    plans: list[TimedPlan] = []
    bodies: dict[int, CylinderBody] = {}
    speeds: dict[int, float] = {}
    for n, raw in enumerate(raw_plans):
        with input_field(path, f"plans[{n}]"):
            check_keys(raw, _PLAN_KEYS, ("agent", "waypoints"))
            if not isinstance(raw["waypoints"], list) or not raw["waypoints"]:
                raise ValueError("waypoints: expected a non-empty list")
            speed = raw.get("speed", DEFAULT_SPEED)
            if not (is_finite_number(speed) and speed > 0):
                raise ValueError(f"speed: expected a positive finite number, got {speed!r}")
            plan = TimedPlan(raw["agent"], raw["waypoints"])
            if plan.agent in bodies:
                raise ValueError(f"agent: duplicate agent id {plan.agent}")
            bodies[plan.agent] = CylinderBody(raw.get("radius", DEFAULT_RADIUS), raw.get("height", DEFAULT_HEIGHT))
        plans.append(plan)
        speeds[plan.agent] = float(speed)
    plans.sort(key=lambda p: p.agent)
    return PlanSet(tuple(plans), bodies, speeds)
