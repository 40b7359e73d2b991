"""Safe-interval path planning: single-agent lowest-arrival search under constraints.

Constraint semantics:
  * move constraint (src != dst): the move may not BEGIN at any t with
    lo <= t < hi (closed left so a branched departure cannot repeat, open
    right so departing exactly at hi is allowed);
  * wait constraint (src == dst): the agent may not occupy the vertex at any
    instant strictly inside (lo, hi).
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional

from .geometry3d import Interval
from .plan import TimedPlan
from .world import AgentSpec, Cell, GridWorld, MoveAction, move_duration, neighbors

_FULL = (Interval(0.0, math.inf),)


@dataclass(frozen=True)
class Constraint:
    """Prohibition on one agent's action over one time interval."""

    agent: int
    action: MoveAction
    interval: Interval

    @property
    def is_wait(self) -> bool:
        return self.action.is_wait


def _complement(merged: tuple[tuple[float, float], ...]) -> tuple[Interval, ...]:
    """Closed complement of the merged union of open prohibitions over [0, inf).

    Zero-length gaps are kept: an instant between two open prohibitions is
    legal occupancy.
    """
    out: list[Interval] = []
    cur = 0.0
    for lo, hi in merged:
        if lo >= cur:
            out.append(Interval(cur, lo))
        cur = max(cur, hi)
        if math.isinf(cur):
            break
    if not math.isinf(cur):
        out.append(Interval(cur, math.inf))
    return tuple(out)


def _insert_span(
    blocks: tuple[tuple[float, float], ...],
    span: tuple[float, float],
    touch_merges: bool,
) -> tuple[tuple[float, float], ...]:
    """Insert one span into sorted disjoint blocks, fusing per the merge rule."""
    lo, hi = span
    before: list[tuple[float, float]] = []
    after: list[tuple[float, float]] = []
    for b_lo, b_hi in blocks:
        if b_hi < lo or (not touch_merges and b_hi == lo):
            before.append((b_lo, b_hi))
        elif b_lo > hi or (not touch_merges and b_lo == hi):
            after.append((b_lo, b_hi))
        else:
            if b_lo < lo:
                lo = b_lo
            if b_hi > hi:
                hi = b_hi
    return tuple(before) + ((lo, hi),) + tuple(after)


@dataclass(frozen=True)
class SafeIntervalTable:
    """Per-vertex safe intervals and per-move departure prohibitions for one
    agent's constraints.

    Merged prohibition blocks are kept per key so `adding` can rebuild just
    the one entry a new constraint touches; the conflict tree leans on that.
    `adding` is the only way prohibitions enter a table.
    """

    vertex_safe: dict[Cell, tuple[Interval, ...]]
    move_blocks: dict[tuple[Cell, Cell], tuple[tuple[float, float], ...]]
    vertex_blocks: dict[Cell, tuple[tuple[float, float], ...]]

    def vertex_intervals(self, cell: Cell) -> tuple[Interval, ...]:
        return self.vertex_safe.get(cell, _FULL)

    def earliest_departure(self, src: Cell, dst: Cell, t: float) -> float:
        """Bump t forward past closed-left departure prohibitions on (src, dst)."""
        for lo, hi in self.move_blocks.get((src, dst), ()):
            if lo <= t < hi:
                t = hi
            elif lo > t:
                break
        return t

    def adding(self, constraint: Constraint) -> "SafeIntervalTable":
        """New table with one more prohibition; only the touched entry is rebuilt.

        A ban whose interval is empty (hi <= lo) forbids nothing and returns self.
        """
        span = (constraint.interval.lo, constraint.interval.hi)
        if span[1] <= span[0]:
            return self
        if constraint.is_wait:
            cell = constraint.action.src
            blocks = _insert_span(self.vertex_blocks.get(cell, ()), span, touch_merges=False)
            vertex_blocks = dict(self.vertex_blocks)
            vertex_blocks[cell] = blocks
            vertex_safe = dict(self.vertex_safe)
            vertex_safe[cell] = _complement(blocks)
            return SafeIntervalTable(vertex_safe, self.move_blocks, vertex_blocks)
        key = (constraint.action.src, constraint.action.dst)
        blocks = _insert_span(self.move_blocks.get(key, ()), span, touch_merges=True)
        move_blocks = dict(self.move_blocks)
        move_blocks[key] = blocks
        return SafeIntervalTable(self.vertex_safe, move_blocks, self.vertex_blocks)


def build_safe_intervals(constraints: Iterable[Constraint], agent: int) -> SafeIntervalTable:
    """The empty table with `adding` applied to each of one agent's constraints in turn."""
    table = SafeIntervalTable({}, {}, {})
    for c in constraints:
        if c.agent != agent:
            raise ValueError(f"constraint targets agent {c.agent}, expected {agent}")
        table = table.adding(c)
    return table


@lru_cache(maxsize=64)
def _expansion_map(world: GridWorld, speed: float) -> dict[Cell, tuple[tuple[Cell, float, int], ...]]:
    """(neighbor, move duration, neighbor vertex index) per free cell."""
    out: dict[Cell, tuple[tuple[Cell, float, int], ...]] = {}
    nx, ny, nz = world.dims
    for i in range(nx):
        for j in range(ny):
            for k in range(nz):
                cell = (i, j, k)
                if not world.is_free(cell):
                    continue
                out[cell] = tuple(
                    (nbr, move_duration(world, cell, nbr, speed), world.vertex_index(nbr))
                    for nbr in neighbors(world, cell)
                )
    return out


@lru_cache(maxsize=256)
def _heuristic_map(world: GridWorld, goal: Cell, speed: float) -> dict[Cell, float]:
    """Straight-line lower bound on time to the goal, per free cell."""
    goal_center = world.center(goal)
    return {
        cell: math.dist(world.center(cell), goal_center) / speed
        for cell in _expansion_map(world, speed)
    }


def sipp_plan(world: GridWorld, agent: AgentSpec, table: SafeIntervalTable) -> Optional[TimedPlan]:
    """Minimum-arrival plan from start to goal under one agent's safe-interval
    table; None iff the goal is unreachable.

    Best-first over (vertex, safe-interval) states with the earliest-departure
    successor rule; waits are implicit in departing later than the arrival.
    """
    if not world.is_free(agent.start):
        raise ValueError(f"agent {agent.id}: start {agent.start} is not a free cell")
    if not world.is_free(agent.goal):
        raise ValueError(f"agent {agent.id}: goal {agent.goal} is not a free cell")
    speed = agent.speed
    expansion = _expansion_map(world, speed)
    h = _heuristic_map(world, agent.goal, speed)

    start_state: Optional[int] = None
    for idx, iv in enumerate(table.vertex_intervals(agent.start)):
        if iv.contains(0.0):
            start_state = idx
            break
    if start_state is None:
        return None

    counter = itertools.count()
    best_g: dict[tuple[Cell, int], float] = {(agent.start, start_state): 0.0}
    parents: dict[tuple[Cell, int], tuple[tuple[Cell, int], float]] = {}
    open_heap: list[tuple] = [
        (h[agent.start], 0.0, world.vertex_index(agent.start), start_state, next(counter), agent.start)
    ]
    closed: set[tuple[Cell, int]] = set()

    goal_key: Optional[tuple[Cell, int]] = None
    while open_heap:
        f, neg_g, _, ivl_idx, _, cell = heapq.heappop(open_heap)
        key = (cell, ivl_idx)
        if key in closed:
            continue
        closed.add(key)
        g = -neg_g
        interval = table.vertex_intervals(cell)[ivl_idx]
        if cell == agent.goal and interval.unbounded:
            goal_key = key
            break
        for nbr, dur, nbr_idx in expansion[cell]:
            for m, target in enumerate(table.vertex_intervals(nbr)):
                if (nbr, m) in closed:
                    continue
                dep_min = max(g, target.lo - dur)
                dep_max = min(interval.hi, target.hi - dur)
                if dep_min > dep_max:
                    continue
                tau = table.earliest_departure(cell, nbr, dep_min)
                if tau > dep_max:
                    continue
                arrival = tau + dur
                if arrival < best_g.get((nbr, m), math.inf):
                    best_g[(nbr, m)] = arrival
                    parents[(nbr, m)] = (key, tau)
                    heapq.heappush(
                        open_heap,
                        (arrival + h[nbr], -arrival, nbr_idx, m, next(counter), nbr),
                    )
    if goal_key is None:
        return None

    # reconstruct: walk parent links, inserting a wait waypoint when the
    # departure is strictly after the arrival at that vertex
    chain: list[tuple[Cell, float, Optional[float]]] = []  # (cell, arrival, departure to next)
    key = goal_key
    departure: Optional[float] = None
    while True:
        chain.append((key[0], best_g[key], departure))
        if key not in parents:
            break
        key, departure = parents[key]
    chain.reverse()
    waypoints: list[tuple[float, float, float, float]] = []
    for cell, arrival, departure in chain:
        x, y, z = world.center(cell)
        waypoints.append((x, y, z, arrival))
        if departure is not None and departure > arrival:
            waypoints.append((x, y, z, departure))
    return TimedPlan(agent.id, tuple(waypoints))


def plan_satisfies_constraints(plan: TimedPlan, constraints: Iterable[Constraint], world: GridWorld) -> bool:
    """Replay a plan against a constraint list, independently of the safe-interval tables."""
    eps = 1e-12
    wps = plan.waypoints
    # occupancy spans per vertex: [arrival, departure] closed; the goal parks forever
    spans: list[tuple[Cell, float, float]] = []
    moves: list[tuple[Cell, Cell, float]] = []
    arrival = wps[0][3]
    for k in range(len(wps) - 1):
        p0 = (wps[k][0], wps[k][1], wps[k][2])
        p1 = (wps[k + 1][0], wps[k + 1][1], wps[k + 1][2])
        c0 = world.cell_at(p0)
        c1 = world.cell_at(p1)
        if p0 == p1:
            continue
        spans.append((c0, arrival, wps[k][3]))
        moves.append((c0, c1, wps[k][3]))
        arrival = wps[k + 1][3]
    last = (wps[-1][0], wps[-1][1], wps[-1][2])
    spans.append((world.cell_at(last), arrival, math.inf))

    for c in constraints:
        if c.agent != plan.agent:
            continue
        lo, hi = c.interval.lo, c.interval.hi
        if c.is_wait:
            for cell, t_in, t_out in spans:
                if cell != c.action.src:
                    continue
                if t_in == t_out:
                    if lo + eps < t_in < hi - eps:
                        return False
                elif max(t_in, lo) + eps < min(t_out, hi):
                    return False
        else:
            for src, dst, depart in moves:
                if (src, dst) == (c.action.src, c.action.dst) and lo - eps <= depart < hi - eps:
                    return False
    return True
