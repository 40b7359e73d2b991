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
from .world import AgentSpec, Cell, GridWorld, move_duration, neighbors

_FULL = (Interval(0.0, math.inf),)


@dataclass(frozen=True)
class Constraint:
    """Prohibition on one agent's move from src to dst (a wait when src == dst)
    over one time interval."""

    agent: int
    src: Cell
    dst: Cell
    interval: Interval

    @property
    def is_wait(self) -> bool:
        return self.src == self.dst


def _insert_span(
    blocks: tuple[tuple[float, float], ...],
    span: tuple[float, float],
) -> tuple[tuple[float, float], ...]:
    """Insert one span into sorted disjoint blocks, fusing those it overlaps or touches."""
    lo, hi = span
    before: list[tuple[float, float]] = []
    after: list[tuple[float, float]] = []
    for b_lo, b_hi in blocks:
        if b_hi < lo:
            before.append((b_lo, b_hi))
        elif b_lo > hi:
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

    Entries are kept per key so `adding` can rebuild just the one entry a new
    constraint touches; the conflict tree leans on that. `adding` is the only
    way prohibitions enter a table.
    """

    vertex_safe: dict[Cell, tuple[Interval, ...]]
    move_blocks: dict[tuple[Cell, Cell], tuple[tuple[float, float], ...]]

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
        lo, hi = constraint.interval.lo, constraint.interval.hi
        if hi <= lo:
            return self
        if constraint.is_wait:
            # the open ban (lo, hi) leaves the closed ends of what it cuts,
            # so an instant between two touching bans stays as [lo, lo]
            kept: list[Interval] = []
            for iv in self.vertex_intervals(constraint.src):
                if iv.hi <= lo or iv.lo >= hi:
                    kept.append(iv)
                    continue
                if iv.lo <= lo:
                    kept.append(Interval(iv.lo, lo))
                if hi <= iv.hi and not math.isinf(hi):
                    kept.append(Interval(hi, iv.hi))
            vertex_safe = dict(self.vertex_safe)
            vertex_safe[constraint.src] = tuple(kept)
            return SafeIntervalTable(vertex_safe, self.move_blocks)
        key = (constraint.src, constraint.dst)
        move_blocks = dict(self.move_blocks)
        move_blocks[key] = _insert_span(self.move_blocks.get(key, ()), (lo, hi))
        return SafeIntervalTable(self.vertex_safe, move_blocks)


def build_safe_intervals(constraints: Iterable[Constraint], agent: int) -> SafeIntervalTable:
    """The empty table with `adding` applied to each of one agent's constraints in turn."""
    table = SafeIntervalTable({}, {})
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
