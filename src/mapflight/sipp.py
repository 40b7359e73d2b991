"""Safe-interval path planning: single-agent lowest-arrival search under constraints.

Constraint semantics:
  * move constraint (src != dst): the move may not BEGIN at any t with
    lo <= t < hi (closed left so a branched departure cannot repeat, open
    right so departing exactly at hi is allowed);
  * wait constraint (src == dst): the agent may not occupy the vertex at any
    instant strictly inside (lo, hi).

Module-level caches, all bounded: `_search_graph` per (world, speed), built
on `world.adjacency`; `_heuristic` per (world, goal, speed); and
`_interned_plan`, which returns one TimedPlan per (agent, waypoints), so a
replan that finds a plan found before returns that same object. Its keys
compare floats by equality, under which +0.0 == -0.0; that is sound only
because SIPP's values are never -0.0 (nor NaN).
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional

from .geometry3d import Vec3
from .plan import TimedPlan, Waypoint
from .world import AgentSpec, Cell, GridWorld, adjacency, travel_time

_FULL = ((0.0, math.inf),)


@dataclass(frozen=True)
class Constraint:
    """Prohibition on one agent's move from src to dst (a wait when src == dst)
    over one window `interval` = (lo, hi) in seconds, lo finite and 0 <= lo <= hi."""

    agent: int
    src: Cell
    dst: Cell
    interval: tuple[float, float]

    def __post_init__(self) -> None:
        lo, hi = self.interval
        if not (math.isfinite(lo) and 0.0 <= lo <= hi):  # a NaN hi fails too
            raise ValueError(f"interval must satisfy 0 <= lo <= hi with lo finite, got {self.interval!r}")
        # constraints key the solver's replan cache, so hash the fields once
        object.__setattr__(self, "_hash", hash((self.agent, self.src, self.dst, self.interval)))

    def __hash__(self) -> int:
        return self._hash  # type: ignore[attr-defined]

    @property
    def is_wait(self) -> bool:
        return self.src == self.dst


def _past_blocks(blocks: tuple[tuple[float, float], ...], t: float) -> float:
    """t bumped forward past closed-left blocks [lo, hi) sorted by lo, which may
    touch or overlap: t only grows, so a block passed with lo <= t never holds
    t again, and the first with lo > t ends the walk, as later ones start later."""
    for lo, hi in blocks:
        if lo <= t < hi:
            t = hi
        elif lo > t:
            break
    return t


@dataclass(frozen=True, eq=False)
class SafeIntervalTable:
    """Per-vertex safe intervals [lo, hi] and per-move departure prohibitions
    [lo, hi) for one agent's constraints, both as (lo, hi) float pairs sorted
    by lo. Safe intervals are disjoint; a move keeps its bans as added, so they
    may touch or overlap.

    Entries are kept per key so `adding` can rebuild just the one entry a new
    constraint touches; the conflict tree leans on that. `adding` is the only
    way prohibitions enter a table. A table compares and hashes by identity,
    so it can key a cache: two builds of the same constraints are two keys.
    """

    vertex_safe: dict[Cell, tuple[tuple[float, float], ...]]
    move_blocks: dict[tuple[Cell, Cell], tuple[tuple[float, float], ...]]

    def vertex_intervals(self, cell: Cell) -> tuple[tuple[float, float], ...]:
        return self.vertex_safe.get(cell, _FULL)

    def adding(self, constraint: Constraint) -> "SafeIntervalTable":
        """New table with one more prohibition; only the touched entry is rebuilt.

        A ban whose interval is empty (hi <= lo) forbids nothing and returns self.
        """
        lo, hi = constraint.interval
        if hi <= lo:
            return self
        if constraint.is_wait:
            # the open ban (lo, hi) leaves the closed ends of what it cuts,
            # so an instant between two touching bans stays as [lo, lo]
            kept: list[tuple[float, float]] = []
            for s_lo, s_hi in self.vertex_intervals(constraint.src):
                if s_hi <= lo or s_lo >= hi:
                    kept.append((s_lo, s_hi))
                    continue
                if s_lo <= lo:
                    kept.append((s_lo, lo))
                if hi <= s_hi and not math.isinf(hi):
                    kept.append((hi, s_hi))
            vertex_safe = dict(self.vertex_safe)
            vertex_safe[constraint.src] = tuple(kept)
            return SafeIntervalTable(vertex_safe, self.move_blocks)
        key = (constraint.src, constraint.dst)
        move_blocks = dict(self.move_blocks)
        move_blocks[key] = tuple(sorted((*self.move_blocks.get(key, ()), (lo, hi))))
        return SafeIntervalTable(self.vertex_safe, move_blocks)


class _SearchGraph(NamedTuple):
    """One world's cells by vertex index; `GridWorld.vertex_index` is the one cell-to-index map."""

    centers: tuple[Vec3, ...]  # the center of the cell at each vertex index, obstacles included
    succ: tuple[tuple[tuple[int, float], ...], ...]  # (successor index, move duration); () off the free cells


@lru_cache(maxsize=64)
def _search_graph(world: GridWorld, speed: float) -> _SearchGraph:
    """The world's `adjacency` with each move's `travel_time` at `speed`, the bits of `move_duration`."""
    nx, ny, nz = world.dims
    centers = tuple(world.center((i, j, k)) for i in range(nx) for j in range(ny) for k in range(nz))
    succ = tuple(
        tuple((w, travel_time(centers[v], centers[w], speed)) for w in nbrs)
        for v, nbrs in enumerate(adjacency(world))
    )
    return _SearchGraph(centers, succ)


@lru_cache(maxsize=256)
def _heuristic(world: GridWorld, goal: Cell, speed: float) -> tuple[float, ...]:
    """Shortest time to the goal on the free graph, constraints ignored, per
    vertex index; inf where the goal cannot be reached.

    A plan under constraints only waits or detours more, so this is an
    admissible and consistent bound. Moves are symmetric (the same neighbours,
    the same `move_duration` both ways), so one backward Dijkstra from the
    goal over the successor lists computes it.
    """
    succ = _search_graph(world, speed).succ
    h = [math.inf] * len(succ)
    goal_v = world.vertex_index(goal)
    h[goal_v] = 0.0
    heap = [(0.0, goal_v)]
    while heap:
        d, v = heapq.heappop(heap)
        if d > h[v]:
            continue
        for w, dur in succ[v]:
            dw = d + dur
            if dw < h[w]:
                h[w] = dw
                heapq.heappush(heap, (dw, w))
    return tuple(h)


def sipp_plan(world: GridWorld, agent: AgentSpec, table: SafeIntervalTable) -> Optional[TimedPlan]:
    """Minimum-arrival plan from start to goal under one agent's safe-interval
    table; None iff the goal is unreachable.

    Best-first over (vertex, safe-interval) states with the earliest-departure
    successor rule; waits are implicit in departing later than the arrival.
    State (v, m), the m-th safe interval of vertex v, is keyed v + m * |V|.
    """
    if not world.is_free(agent.start):
        raise ValueError(f"agent {agent.id}: start {agent.start} is not a free cell")
    if not world.is_free(agent.goal):
        raise ValueError(f"agent {agent.id}: goal {agent.goal} is not a free cell")
    speed = agent.speed
    centers, succ = _search_graph(world, speed)
    h = _heuristic(world, agent.goal, speed)
    n_vertices = len(centers)
    inf = math.inf

    # the table by vertex index; an entry off the free cells is never reached
    safe = {world.vertex_index(cell): spans for cell, spans in table.vertex_safe.items() if world.is_free(cell)}
    blocks: dict[int, dict[int, tuple[tuple[float, float], ...]]] = {}
    for (src, dst), spans in table.move_blocks.items():
        if world.is_free(src) and world.is_free(dst):
            blocks.setdefault(world.vertex_index(src), {})[world.vertex_index(dst)] = spans

    start, goal = world.vertex_index(agent.start), world.vertex_index(agent.goal)
    if h[start] == inf:
        # moves are symmetric, so every state reachable from the start has a
        # finite h too, and none with h = inf is ever pushed
        return None
    for start_m, (lo, hi) in enumerate(safe.get(start, _FULL)):
        if lo <= 0.0 <= hi:
            break
    else:
        return None

    counter = itertools.count()
    start_key = start + start_m * n_vertices
    best_g: dict[int, float] = {start_key: 0.0}
    parents: dict[int, tuple[int, float]] = {}
    open_heap: list[tuple[float, float, int, int, int]] = [(h[start], 0.0, start, start_m, next(counter))]
    closed: set[int] = set()
    heappop, heappush = heapq.heappop, heapq.heappush

    goal_key: Optional[int] = None
    while open_heap:
        _, neg_g, v, m, _ = heappop(open_heap)
        key = v + m * n_vertices
        if key in closed:
            continue
        closed.add(key)
        g = -neg_g
        intervals = safe.get(v)
        hi = inf if intervals is None else intervals[m][1]
        if v == goal and hi == inf:
            goal_key = key
            break
        if g > hi:
            continue  # no departure window: every successor's dep_min > dep_max
        out_blocks = blocks.get(v)
        for w, dur in succ[v]:
            spans = None if out_blocks is None else out_blocks.get(w)
            targets = safe.get(w)
            if targets is None:
                # no vertex bans: the one interval is [0, inf), so the
                # departure window is exactly [g, hi]
                if w in closed:
                    continue
                tau = g if spans is None else _past_blocks(spans, g)
                if tau > hi:
                    continue
                arrival = tau + dur
                if arrival < best_g.get(w, inf):
                    best_g[w] = arrival
                    parents[w] = (key, tau)
                    heappush(open_heap, (arrival + h[w], -arrival, w, 0, next(counter)))
                continue
            for n, (t_lo, t_hi) in enumerate(targets):
                w_key = w + n * n_vertices
                if w_key in closed:
                    continue
                dep_min = max(g, t_lo - dur)
                dep_max = min(hi, t_hi - dur)
                if dep_min > dep_max:
                    continue
                tau = dep_min if spans is None else _past_blocks(spans, dep_min)
                if tau > dep_max:
                    continue
                arrival = tau + dur
                if arrival < best_g.get(w_key, inf):
                    best_g[w_key] = arrival
                    parents[w_key] = (key, tau)
                    heappush(open_heap, (arrival + h[w], -arrival, w, n, next(counter)))
    if goal_key is None:
        return None

    # reconstruct: walk parent links, inserting a wait waypoint when the
    # departure is strictly after the arrival at that vertex
    chain: list[tuple[Vec3, float, Optional[float]]] = []  # (center, arrival, departure to next)
    key = goal_key
    departure: Optional[float] = None
    while True:
        chain.append((centers[key % n_vertices], best_g[key], departure))
        if key not in parents:
            break
        key, departure = parents[key]
    chain.reverse()
    waypoints: list[tuple[float, float, float, float]] = []
    for (x, y, z), arrival, departure in chain:
        waypoints.append((x, y, z, arrival))
        if departure is not None and departure > arrival:
            waypoints.append((x, y, z, departure))
    return _interned_plan(agent.id, tuple(waypoints))


@lru_cache(maxsize=4096)
def _interned_plan(agent: int, waypoints: tuple[Waypoint, ...]) -> TimedPlan:
    """The one plan object of each (agent, waypoints) that SIPP returns.

    Replans under different tables often find the same plan; sharing it skips
    rebuilding its motions and makes the pair scan's cache hits identity hits.
    Keying by float equality is sound here only because SIPP's values are never
    -0.0 or NaN: centers are (i + 0.5) * cell_size > 0, and times start at +0.0
    and only grow, so equal keys hold equal bits.
    """
    return TimedPlan(agent, waypoints)
