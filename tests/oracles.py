"""Independent reference oracles used by the test suite.

Each oracle re-derives the quantity under test by brute force, sharing no code
with the implementation:

  * unsafe_interval_oracle — dense time sampling of the two-cylinder overlap
    predicate plus bisection refinement of the entry/exit instants.
  * contact_oracle — the generic (any-dimension, sum()-based) form of the
    solver's cylinder contact kernel, which the plain-arithmetic kernel must
    reproduce bit for bit; velocity_oracle and is_wait_oracle are the
    per-call LinearMotion formulas its precomputed fields must match.
  * timed_astar_oracle — single-agent time-expanded A* on a fixed tick grid,
    honoring departure prohibitions (closed-left) and occupancy prohibitions
    (open), with goal arrival requiring a legal park-forever.
  * plan_satisfies_constraints — replay of a plan against a constraint list,
    read off the constraints themselves rather than a safe-interval table.
  * joint_astar_oracle — exhaustive joint A* over all agents on a coarser tick
    grid, minimizing sum of individual arrival times, with pairwise swept
    cylinder collision checks each tick.
  * shortest_time_oracle — Bellman–Ford over every connectivity's moves, each
    move enumerated from its step box: the shortest time to a goal per cell.

Three more are the solver's earlier kernels, kept as written, which the
rewritten ones must reproduce bit for bit:

  * sipp_reference — the cell-keyed SIPP search, querying the safe-interval
    table per neighbour, guided by shortest_time_oracle.
  * pair_earliest_reference — the exhaustive double loop over two plans'
    motions, testing every pair that overlaps in time; the motions come from
    its own waypoint loop, motions_reference, and box_oracle restates the
    bounding box that the scan once derived from each pair's endpoints.
  * move_clear_delay_reference — the clearing delay by a plain bisection
    from [0, past the other's end], every probe a kernel call, then the snap
    to a time-alignment candidate.

Two are solver helpers that only the tests read:

  * earliest_conflict — the entry of a solver conflict table that comes
    first in the solver's earliest-conflict order.
  * build_safe_intervals — one agent's safe-interval table built from a
    constraint list, one `SafeIntervalTable.adding` at a time.

Two are the plan's earlier forms, which the current code must reproduce:

  * timed_plan_reference — the per-waypoint finiteness and time-order loops of
    the constructor, which the motion-owned rules reproduce, bool and str
    values aside.
  * position_at — the scalar position lookup, one time at a time, which
    `TimedPlan.positions_at` must reproduce bit for bit.

And four are the simulator's earlier per-row code, which the batched code
must reproduce bit for bit:

  * activate_reference — one fleet row's command activation, written field by
    field, row after row.
  * per_agent_errors_reference — each agent's max and mean error, read
    through a boolean mask of the error series.
  * pose_csv_reference and series_csv_reference — the CSV text formatted one
    record at a time.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
from collections import deque
from typing import Iterable, Optional, Sequence

import numpy as np

from mapflight import geometry3d, sipp
from mapflight.executor import HighLevelGoto, VelocitySetpoint
from mapflight.geometry3d import Conflict, LinearMotion, cylinder_unsafe_interval
from mapflight.plan import TimedPlan
from mapflight.world import move_duration, neighbors

Vec3 = tuple[float, float, float]
Cell = tuple[int, int, int]

# ---------------------------------------------------------------------------
# geometry oracle
# ---------------------------------------------------------------------------


def _pos_at(p0: Vec3, p1: Vec3, t0: float, t1: float, t: float) -> Vec3:
    if t1 == t0:
        return p0
    s = (t - t0) / (t1 - t0)
    return tuple(a + (b - a) * s for a, b in zip(p0, p1))  # type: ignore[return-value]


def _inside(motion_a, motion_b, r_sum: float, h_half: float, t: float) -> bool:
    """Strict cylinder-overlap predicate at one instant (the quantity sampled)."""
    ax, ay, az = _pos_at(motion_a.p0, motion_a.p1, motion_a.t0, motion_a.t1, t)
    bx, by, bz = _pos_at(motion_b.p0, motion_b.p1, motion_b.t0, motion_b.t1, t)
    dx, dy, dz = ax - bx, ay - by, az - bz
    return dx * dx + dy * dy < r_sum * r_sum and abs(dz) < h_half


def _bisect_edge(predicate, lo: float, hi: float, want_inside_high: bool, tol: float) -> float:
    """Boundary between outside/inside halves of [lo, hi] to within tol."""
    for _ in range(200):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if predicate(mid) == want_inside_high:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def unsafe_interval_oracle(
    motion_a,
    motion_b,
    r_sum: float,
    h_half: float,
    dt: float = 1e-4,
    tol: float = 1e-9,
) -> Optional[tuple[float, float]]:
    """Earliest maximal window where the overlap predicate holds, or None.

    Samples the common time window densely, then bisects the first entry and
    the matching exit. Windows narrower than dt can be missed; the tests treat
    any implementation-reported window by probing its midpoint directly.
    """
    lo = max(motion_a.t0, motion_b.t0)
    hi = min(motion_a.t1, motion_b.t1)
    if not hi > lo:
        return None

    def inside(t: float) -> bool:
        return _inside(motion_a, motion_b, r_sum, h_half, t)

    ts = np.arange(lo, hi, dt)
    ts = np.append(ts, hi)

    def positions(motion):
        span = motion.t1 - motion.t0
        if span == 0:
            frac = np.zeros_like(ts)
        else:
            frac = (ts - motion.t0) / span
        return [np.asarray(p0) + (np.asarray(p1) - np.asarray(p0)) * frac
                for p0, p1 in ((motion.p0[i], motion.p1[i]) for i in range(3))]

    pa = positions(motion_a)
    pb = positions(motion_b)
    dx, dy, dz = pa[0] - pb[0], pa[1] - pb[1], pa[2] - pb[2]
    mask = (dx * dx + dy * dy < r_sum * r_sum) & (np.abs(dz) < h_half)
    hits = np.flatnonzero(mask)
    if hits.size == 0:
        return None
    first = int(hits[0])
    if first == 0:
        entry = float(ts[0])
    else:
        entry = _bisect_edge(inside, float(ts[first - 1]), float(ts[first]), True, tol)
    # find the exit of this first window: first outside sample after `first`
    after = np.flatnonzero(~mask[first:])
    if after.size == 0:
        exit_ = float(ts[-1])
    else:
        k = first + int(after[0])
        exit_ = _bisect_edge(inside, float(ts[k - 1]), float(ts[k]), False, tol)
    return entry, exit_


def below_threshold_oracle(dp: tuple, dv: tuple, threshold: float, span: float) -> Optional[tuple[float, float]]:
    """Open subinterval of [0, span] where ||dp + s*dv|| < threshold, or None.

    Solves the quadratic |dv|^2 s^2 + 2(dp.dv) s + |dp|^2 - threshold^2 < 0
    in a cancellation-free form, with the sums taken by sum() from int 0.
    """
    a2 = sum(c * c for c in dv)
    c2 = sum(c * c for c in dp) - threshold * threshold
    if a2 < 1e-30:
        return (0.0, span) if c2 < 0.0 else None
    b2 = 2.0 * sum(p * v for p, v in zip(dp, dv))
    disc = b2 * b2 - 4.0 * a2 * c2
    if disc < 1e-12:  # geometry3d.TANGENCY_EPS
        return None
    root = math.sqrt(disc)
    q = -0.5 * (b2 + math.copysign(root, b2))
    r1 = q / a2
    r2 = c2 / q
    lo, hi = (r1, r2) if r1 <= r2 else (r2, r1)
    if lo < 0.0:
        lo = 0.0
    if hi > span:
        hi = span
    if hi <= lo:
        return None
    return lo, hi


def contact_oracle(dp: Vec3, dv: Vec3, span: float, r_sum: float, h_sum_half: float) -> Optional[tuple[float, float]]:
    """Open subwindow of [0, span] where dp + s*dv is a cylinder contact, or None."""
    xy = below_threshold_oracle((dp[0], dp[1]), (dv[0], dv[1]), r_sum, span)
    if xy is None:
        return None
    z = below_threshold_oracle((dp[2],), (dv[2],), h_sum_half, span)
    if z is None:
        return None
    lo = max(xy[0], z[0])
    hi = min(xy[1], z[1])
    if hi <= lo:
        return None
    return lo, hi


def is_wait_oracle(motion) -> bool:
    return motion.p0 == motion.p1


def velocity_oracle(motion) -> Vec3:
    if is_wait_oracle(motion):
        return (0.0, 0.0, 0.0)
    inv = 1.0 / (motion.t1 - motion.t0)
    return (
        (motion.p1[0] - motion.p0[0]) * inv,
        (motion.p1[1] - motion.p0[1]) * inv,
        (motion.p1[2] - motion.p0[2]) * inv,
    )


# ---------------------------------------------------------------------------
# grid helpers shared by both planners' oracles
# ---------------------------------------------------------------------------

_FACE6 = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1))


def _free_neighbors(dims: Cell, obstacles: frozenset, cell: Cell) -> list[Cell]:
    out = []
    for step in _FACE6:
        nbr = (cell[0] + step[0], cell[1] + step[1], cell[2] + step[2])
        if all(0 <= c < n for c, n in zip(nbr, dims)) and nbr not in obstacles:
            out.append(nbr)
    return out


def _free_moves(world, cell: Cell, speed: float) -> list[tuple[Cell, float]]:
    """(neighbour, move time) of every move out of a free cell: any step in
    {-1, 0, 1}^3 that the connectivity allows, whose whole step box is free."""
    out = []
    for step in itertools.product((-1, 0, 1), repeat=3):
        changed = sum(d != 0 for d in step)
        if changed == 0 or world.connectivity == "face-6" and changed > 1:
            continue
        if world.connectivity == "face+planar-diag-10" and (changed > 2 or changed == 2 and step[2] != 0):
            continue
        box = itertools.product(*((c,) if d == 0 else (c, c + d) for c, d in zip(cell, step)))
        if all(all(0 <= c < n for c, n in zip(b, world.dims)) and b not in world.obstacles for b in box):
            nbr = (cell[0] + step[0], cell[1] + step[1], cell[2] + step[2])
            out.append((nbr, math.dist(world.center(cell), world.center(nbr)) / speed))
    return out


def shortest_time_oracle(world, goal: Cell, speed: float) -> dict[Cell, float]:
    """Shortest time from each free cell to the goal, constraints ignored; inf
    where the goal cannot be reached. Bellman–Ford: relax every move until
    nothing changes."""
    free = [c for c in itertools.product(*(range(n) for n in world.dims)) if c not in world.obstacles]
    moves = {c: _free_moves(world, c, speed) for c in free}
    dist = {c: math.inf for c in free}
    dist[goal] = 0.0
    changed = True
    while changed:
        changed = False
        for cell in free:
            for nbr, dur in moves[cell]:
                if dur + dist[nbr] < dist[cell]:
                    dist[cell] = dur + dist[nbr]
                    changed = True
    return dist


def _bfs_distances(dims: Cell, obstacles: frozenset, goal: Cell) -> dict[Cell, int]:
    dist = {goal: 0}
    queue = deque([goal])
    while queue:
        cell = queue.popleft()
        for nbr in _free_neighbors(dims, obstacles, cell):
            if nbr not in dist:
                dist[nbr] = dist[cell] + 1
                queue.append(nbr)
    return dist


# ---------------------------------------------------------------------------
# single-agent time-expanded oracle
# ---------------------------------------------------------------------------


def timed_astar_oracle(
    world,
    agent,
    constraints: Iterable,
    dt: float = 0.01,
    max_expansions: int = 2_000_000,
) -> Optional[float]:
    """Optimal goal-arrival time on a tick grid, or None if unreachable.

    Mirrors the constraint semantics under test: a move prohibition [lo, hi)
    bans departures with lo <= k*dt < hi; an occupancy prohibition (lo, hi)
    bans stays and arrival instants strictly inside it. The goal counts only
    when parking there forever stays legal. Constraint endpoints must be
    dt-aligned so the tick model is exact.
    """
    dims, obstacles = world.dims, world.obstacles
    move_ticks = round(world.cell_size / agent.speed / dt)
    assert abs(move_ticks * dt - world.cell_size / agent.speed) < 1e-9, "move duration must be dt-aligned"

    def tick_of(value: float) -> int:
        k = round(value / dt)
        assert abs(k * dt - value) < 1e-6, f"constraint endpoint {value} not dt-aligned"
        return k

    move_bans: dict[tuple[Cell, Cell], list[tuple[int, int]]] = {}
    stay_bans: dict[Cell, list[tuple[int, int]]] = {}
    horizon_pad = 0
    for c in constraints:
        if c.agent != agent.id:
            continue
        lo = tick_of(c.interval[0])
        hi = math.inf if math.isinf(c.interval[1]) else tick_of(c.interval[1])
        if hi is not math.inf:
            horizon_pad += hi - lo
        if c.is_wait:
            stay_bans.setdefault(c.src, []).append((lo, hi))
        else:
            move_bans.setdefault((c.src, c.dst), []).append((lo, hi))

    def move_banned(src: Cell, dst: Cell, k: int) -> bool:
        return any(lo <= k < hi for lo, hi in move_bans.get((src, dst), ()))

    def instant_banned(cell: Cell, k: int) -> bool:
        return any(lo < k < hi for lo, hi in stay_bans.get(cell, ()))

    def stay_banned(cell: Cell, k: int) -> bool:  # staying over [k, k+1]
        return any(k < hi and k + 1 > lo for lo, hi in stay_bans.get(cell, ()))

    def can_park(cell: Cell, k: int) -> bool:
        return all(hi <= k for _, hi in stay_bans.get(cell, ()))

    bfs = _bfs_distances(dims, obstacles, agent.goal)
    if agent.start not in bfs:
        return None
    max_tick = bfs[agent.start] * move_ticks + horizon_pad + round(10.0 / dt)

    start = (agent.start, 0)
    open_heap: list[tuple] = [(bfs[agent.start] * move_ticks, 0, agent.start, 0)]
    seen = {start}
    counter = itertools.count(1)
    expansions = 0
    while open_heap:
        _, _, cell, k = heapq.heappop(open_heap)
        expansions += 1
        if expansions > max_expansions:
            raise RuntimeError("timed_astar_oracle: expansion budget exceeded")
        if cell == agent.goal and can_park(cell, k):
            return k * dt
        if k >= max_tick:
            continue
        if not stay_banned(cell, k) and (cell, k + 1) not in seen:
            seen.add((cell, k + 1))
            heapq.heappush(open_heap, (k + 1 + bfs[cell] * move_ticks, next(counter), cell, k + 1))
        for nbr in _free_neighbors(dims, obstacles, cell):
            arrival = k + move_ticks
            if (nbr, arrival) in seen or nbr not in bfs:
                continue
            if move_banned(cell, nbr, k) or instant_banned(nbr, arrival):
                continue
            seen.add((nbr, arrival))
            heapq.heappush(open_heap, (arrival + bfs[nbr] * move_ticks, next(counter), nbr, arrival))
    return None


def plan_satisfies_constraints(plan, constraints: Iterable, world) -> bool:
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
        lo, hi = c.interval
        if c.is_wait:
            for cell, t_in, t_out in spans:
                if cell != c.src:
                    continue
                if t_in == t_out:
                    if lo + eps < t_in < hi - eps:
                        return False
                elif max(t_in, lo) + eps < min(t_out, hi):
                    return False
        else:
            for src, dst, depart in moves:
                if (src, dst) == (c.src, c.dst) and lo - eps <= depart < hi - eps:
                    return False
    return True


# ---------------------------------------------------------------------------
# joint multi-agent oracle
# ---------------------------------------------------------------------------


def _segment_collides(
    pa: Vec3, va: Vec3, pb: Vec3, vb: Vec3, dt: float, r_sum: float, h_half: float
) -> bool:
    """Whether two constant-velocity cylinders overlap at any instant in [0, dt]."""
    dx, dy, dz = pa[0] - pb[0], pa[1] - pb[1], pa[2] - pb[2]
    ux, uy, uz = va[0] - vb[0], va[1] - vb[1], va[2] - vb[2]

    # window where |dz + uz t| < h_half
    if uz == 0.0:
        if abs(dz) >= h_half:
            return False
        z_lo, z_hi = 0.0, dt
    else:
        t1 = (-h_half - dz) / uz
        t2 = (h_half - dz) / uz
        z_lo, z_hi = max(0.0, min(t1, t2)), min(dt, max(t1, t2))
        if z_hi <= z_lo:
            return False

    # window where planar distance < r_sum: quadratic a t^2 + b t + c < 0
    a = ux * ux + uy * uy
    b = 2.0 * (dx * ux + dy * uy)
    c = dx * dx + dy * dy - r_sum * r_sum
    if a == 0.0:
        if c >= 0.0:
            return False
        xy_lo, xy_hi = 0.0, dt
    else:
        disc = b * b - 4.0 * a * c
        # exact grazing produces a zero discriminant that float rounding can
        # push slightly positive; grazing is zero-measure contact, not overlap
        if disc <= 1e-12:
            return False
        root = math.sqrt(disc)
        xy_lo = max(0.0, (-b - root) / (2.0 * a))
        xy_hi = min(dt, (-b + root) / (2.0 * a))
        if xy_hi <= xy_lo:
            return False
    # require positive-measure overlap: boundary touches (entry/exit exactly at
    # a tick edge) pick up ~1e-16 float noise and must not count as collision
    return min(z_hi, xy_hi) > max(z_lo, xy_lo) + 1e-9


def joint_astar_oracle(
    world,
    agents: Sequence,
    dt: float = 0.05,
    max_expansions: int = 3_000_000,
) -> Optional[float]:
    """Optimal sum of arrival times over all agents on a joint tick grid.

    Per tick every agent either continues a move in progress, starts a move,
    waits, or (at its goal) declares done and parks forever. Cost accrues dt
    for each not-yet-done agent per tick. Pairwise collisions are checked by
    the swept-cylinder predicate every tick, parked agents included. Returns
    None when no collision-free schedule exists within the expansion budget.
    """
    dims, obstacles = world.dims, world.obstacles
    n = len(agents)
    centers: dict[Cell, Vec3] = {}

    def center(cell: Cell) -> Vec3:
        if cell not in centers:
            centers[cell] = world.center(cell)
        return centers[cell]

    steps_of = {}
    for a in agents:
        steps = round(world.cell_size / a.speed / dt)
        assert abs(steps * dt - world.cell_size / a.speed) < 1e-9
        steps_of[a.id] = steps

    bfs = {a.id: _bfs_distances(dims, obstacles, a.goal) for a in agents}
    for a in agents:
        if a.start not in bfs[a.id]:
            return None

    r_sum = {}
    h_half = {}
    for i in range(n):
        for j in range(i + 1, n):
            r_sum[(i, j)] = agents[i].body.radius + agents[j].body.radius
            h_half[(i, j)] = 0.5 * (agents[i].body.height + agents[j].body.height)

    # per-agent micro-state: (cell, target_or_None, phase, done)
    Start = tuple[Cell, Optional[Cell], int, bool]
    start_state: tuple[Start, ...] = tuple((a.start, None, 0, False) for a in agents)

    def h_of(states) -> float:
        total = 0.0
        for a, (cell, target, phase, done) in zip(agents, states):
            if done:
                continue
            if target is None:
                total += bfs[a.id][cell] * steps_of[a.id] * dt
            else:
                remaining = (steps_of[a.id] - phase) * dt
                total += remaining + bfs[a.id][target] * steps_of[a.id] * dt
        return total

    def pose(a_idx: int, st: Start) -> Vec3:
        cell, target, phase, _ = st
        if target is None:
            return center(cell)
        p0, p1 = center(cell), center(target)
        frac = phase / steps_of[agents[a_idx].id]
        return tuple(x + (y - x) * frac for x, y in zip(p0, p1))  # type: ignore[return-value]

    collision_cache: dict[tuple, bool] = {}

    def agent_options(a_idx: int, st: Start):
        """(next_state, done_now) choices for one agent over one tick."""
        cell, target, phase, done = st
        a = agents[a_idx]
        if done:
            yield st
            return
        if target is not None:  # mid-move: forced continuation
            nphase = phase + 1
            if nphase == steps_of[a.id]:
                yield (target, None, 0, False)
            else:
                yield (cell, target, nphase, False)
            return
        if cell == a.goal:
            yield (cell, None, 0, True)  # declare done, park forever
        yield (cell, None, 0, False)  # wait one tick
        for nbr in _free_neighbors(dims, obstacles, cell):
            if nbr in bfs[a.id]:
                if steps_of[a.id] == 1:
                    yield (nbr, None, 0, False)
                else:
                    yield (cell, nbr, 1, False)

    counter = itertools.count()
    g_best: dict[tuple, float] = {start_state: 0.0}
    open_heap: list[tuple] = [(h_of(start_state), next(counter), start_state, 0.0)]
    expansions = 0
    while open_heap:
        f, _, states, g = heapq.heappop(open_heap)
        if g > g_best.get(states, math.inf) + 1e-12:
            continue
        expansions += 1
        if expansions > max_expansions:
            raise RuntimeError("joint_astar_oracle: expansion budget exceeded")
        if all(st[3] for st in states):
            return g
        # Cost accrues dt per not-yet-done agent when a tick is taken; a pure
        # done-declaration (every microstate unchanged) is free and instant.
        option_lists = [list(agent_options(i, st)) for i, st in enumerate(states)]

        def expand(idx: int, chosen: list):
            if idx == n:
                nxt = tuple(chosen)
                changed_only_done = all(
                    a[:3] == b[:3] for a, b in zip(states, nxt)
                ) and any(a[3] != b[3] for a, b in zip(states, nxt))
                if changed_only_done:
                    ng = g
                else:
                    poses = [pose(i, st) for i, st in enumerate(states)]
                    nposes = [pose(i, st) for i, st in enumerate(nxt)]
                    velocities = [
                        tuple((b - a) / dt for a, b in zip(p, np_))
                        for p, np_ in zip(poses, nposes)
                    ]
                    for i in range(n):
                        for j in range(i + 1, n):
                            key = (poses[i], velocities[i], poses[j], velocities[j])
                            hit = collision_cache.get(key)
                            if hit is None:
                                hit = _segment_collides(
                                    poses[i], velocities[i], poses[j], velocities[j],
                                    dt, r_sum[(i, j)], h_half[(i, j)],
                                )
                                collision_cache[key] = hit
                            if hit:
                                return
                    ng = g + dt * sum(1 for st in nxt if not st[3])
                if ng < g_best.get(nxt, math.inf) - 1e-12:
                    g_best[nxt] = ng
                    heapq.heappush(open_heap, (ng + h_of(nxt), next(counter), nxt, ng))
                return
            for opt in option_lists[idx]:
                chosen.append(opt)
                expand(idx + 1, chosen)
                chosen.pop()

        expand(0, [])
    return None


# ---------------------------------------------------------------------------
# earlier solver kernels
# ---------------------------------------------------------------------------


def _expansion_map(world, speed: float) -> dict:
    """(neighbor, move duration, neighbor vertex index) per free cell."""
    out: dict = {}
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


def sipp_reference(world, agent, table):
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
    h = shortest_time_oracle(world, agent.goal, speed)

    start_state: Optional[int] = None
    for idx, (lo, hi) in enumerate(table.vertex_intervals(agent.start)):
        if lo <= 0.0 <= hi:
            start_state = idx
            break
    if start_state is None:
        return None

    counter = itertools.count()
    best_g: dict = {(agent.start, start_state): 0.0}
    parents: dict = {}
    open_heap: list[tuple] = [
        (h[agent.start], 0.0, world.vertex_index(agent.start), start_state, next(counter), agent.start)
    ]
    closed: set = set()

    goal_key = None
    while open_heap:
        f, neg_g, _, ivl_idx, _, cell = heapq.heappop(open_heap)
        key = (cell, ivl_idx)
        if key in closed:
            continue
        closed.add(key)
        g = -neg_g
        _, hi = table.vertex_intervals(cell)[ivl_idx]
        if cell == agent.goal and hi == math.inf:
            goal_key = key
            break
        for nbr, dur, nbr_idx in expansion[cell]:
            for m, (t_lo, t_hi) in enumerate(table.vertex_intervals(nbr)):
                if (nbr, m) in closed:
                    continue
                dep_min = max(g, t_lo - dur)
                dep_max = min(hi, t_hi - dur)
                if dep_min > dep_max:
                    continue
                tau = sipp._past_blocks(table.move_blocks.get((cell, nbr), ()), dep_min)
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
    chain: list = []  # (cell, arrival, departure to next)
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


def motions_reference(plan) -> tuple[LinearMotion, ...]:
    """Consecutive-waypoint motions of a plan, ending in a wait at the goal
    that never ends: the agent parks there for good."""
    wps = plan.waypoints
    goal = (wps[-1][0], wps[-1][1], wps[-1][2])
    return tuple(
        LinearMotion((wps[k][0], wps[k][1], wps[k][2]),
                     (wps[k + 1][0], wps[k + 1][1], wps[k + 1][2]),
                     wps[k][3], wps[k + 1][3])
        for k in range(len(wps) - 1)
    ) + (LinearMotion(goal, goal, wps[-1][3], math.inf),)


def pair_earliest_reference(plan_i, plan_j, body_i, body_j):
    """Earliest conflict between two plans, goal parking included, or None.

    Ties on the window start go to the earlier action of plan_i, then of
    plan_j.
    """
    segs_i = motions_reference(plan_i)
    segs_j = motions_reference(plan_j)

    best = None
    for si in segs_i:
        if best is not None and si.t0 > best.unsafe[0]:
            break
        for sj in segs_j:
            if best is not None and sj.t0 > best.unsafe[0]:
                break
            if si.t1 <= sj.t0 or sj.t1 <= si.t0:
                continue
            hit = cylinder_unsafe_interval(si, sj, body_i, body_j)
            if hit is None:
                continue
            if best is None or (hit[0], si.t0, sj.t0) < (best.unsafe[0], best.action_i.t0, best.action_j.t0):
                best = Conflict(plan_i.agent, si, plan_j.agent, sj, hit)
    return best


def move_clear_delay_reference(action, other, body_a, body_b) -> float:
    """Smallest delay of `action` that clears its conflict with `other`, by a
    plain bisection to within _CLEAR_TOL on the safe side, then a snap to the
    least time-alignment candidate in the final [lo, hi] that the kernel
    judges clear; inf against a park that never ends."""
    if math.isinf(other.t1):
        return math.inf
    r_sum = body_a.radius + body_b.radius
    h_sum_half = 0.5 * (body_a.height + body_b.height)

    def collides(delta: float) -> bool:
        return geometry3d._unsafe_window(action, other, delta, r_sum, h_sum_half) is not None

    lo = 0.0
    hi = max(0.0, other.t1 - action.t0) + geometry3d._CLEAR_TOL
    while hi - lo > geometry3d._CLEAR_TOL:
        mid = 0.5 * (lo + hi)
        if collides(mid):
            lo = mid
        else:
            hi = mid
    snapped = hi
    for cand in (other.t0 - action.t0, other.t0 - action.t1, other.t1 - action.t0, other.t1 - action.t1):
        if lo <= cand <= snapped and not collides(cand):
            snapped = cand
    return snapped


def box_oracle(motion) -> tuple[float, ...]:
    """(x_lo, x_hi, y_lo, y_hi, z_lo, z_hi) of a motion, per axis its two
    endpoint coordinates in order; on a tie, such as 0.0 against -0.0, p1's
    value comes first, as the scan's inline rule had it."""
    return tuple(v for a, b in zip(motion.p0, motion.p1) for v in sorted((b, a)))


def earliest_conflict(table) -> Optional[Conflict]:
    """The table's conflict that starts first, or None for a conflict-free node.

    Tie-break on equal start: (agent_i, agent_j, action_i.t0, action_j.t0).
    """
    if not table:
        return None
    return min(table.values(), key=lambda c: (c.unsafe[0], c.agent_i, c.agent_j, c.action_i.t0, c.action_j.t0))


def build_safe_intervals(constraints: Iterable, agent: int) -> sipp.SafeIntervalTable:
    """The empty table with `adding` applied to each of one agent's constraints in turn."""
    table = sipp.SafeIntervalTable({}, {})
    for c in constraints:
        if c.agent != agent:
            raise ValueError(f"constraint targets agent {c.agent}, expected {agent}")
        table = table.adding(c)
    return table


# ---------------------------------------------------------------------------
# earlier plan rules
# ---------------------------------------------------------------------------


def timed_plan_reference(agent: int, waypoints) -> tuple[tuple[float, float, float, float], ...]:
    """The waypoints as `TimedPlan` once normalized them, or ValueError under its
    earlier rules: rows of four values that float() accepts and that are
    finite, at least one row, the first at t = 0, times strictly increasing."""
    try:
        wps = tuple(tuple(float(v) for v in wp) for wp in waypoints)
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"agent {agent}: waypoints must be rows of finite numbers ({exc})") from exc
    if not wps:
        raise ValueError(f"agent {agent}: plan needs at least one waypoint")
    for n, wp in enumerate(wps):
        if len(wp) != 4 or any(not math.isfinite(v) for v in wp):
            raise ValueError(f"agent {agent}: waypoint {n} must be four finite numbers, got {wp!r}")
    if wps[0][3] != 0.0:
        raise ValueError(f"agent {agent}: first waypoint must have t = 0, got t = {wps[0][3]!r}")
    for n in range(1, len(wps)):
        if wps[n][3] <= wps[n - 1][3]:
            raise ValueError(f"agent {agent}: waypoint {n} time {wps[n][3]!r} not after previous {wps[n - 1][3]!r}")
    return wps


def position_at(plan, t: float) -> Vec3:
    """Piecewise-linear position; clamped to the start before 0 and parked after the end."""
    times = [wp[3] for wp in plan.waypoints]
    if t <= times[0]:
        return plan.start_position
    if t >= times[-1]:
        return plan.goal_position
    m = plan.motions[bisect.bisect_right(times, t) - 1]
    return geometry3d._position_at(m.p0, m.p1, m.t0, m.t1, t)


# ---------------------------------------------------------------------------
# earlier simulator bookkeeping
# ---------------------------------------------------------------------------


def activate_reference(fleet, arrivals, activated: float) -> None:
    """Activate each (row, command) of one tick on a `flightsim._Fleet`, one
    row at a time, then recount the tracking and goto rows its `step` reads."""
    for i, command in arrivals:
        fleet.goto[i] = isinstance(command, HighLevelGoto)
        if isinstance(command, VelocitySetpoint):
            fleet.tracking[i] = False
            fleet.velocity[i] = command.velocity
            continue
        fleet.tracking[i] = True
        fleet.target[i] = command.target
        if isinstance(command, HighLevelGoto):
            fleet.anchor[i] = fleet.pos[i]
            fleet.duration[i] = command.duration
            fleet.activated[i] = activated
    fleet.n_tracking = np.count_nonzero(fleet.tracking)
    fleet.n_goto = np.count_nonzero(fleet.goto)


def per_agent_errors_reference(series) -> dict[int, tuple[float, float]]:
    """{agent: (max error, mean error)} of an ERROR_DTYPE series, whatever its
    row order; each mean is a running sum, left to right, over the agent's rows."""
    errors, agents = series["error"], series["agent"]
    out = {}
    for agent in np.unique(agents).tolist():
        agent_errors = errors[agents == agent]
        out[agent] = (agent_errors.max().item(), np.cumsum(agent_errors)[-1].item() / len(agent_errors))
    return out


def pose_csv_reference(records) -> str:
    """poses.csv of POSE_DTYPE records, one line per record, every float as its repr."""
    lines = ["t,agent,ax,ay,az,ex,ey,ez,px,py,pz"]
    columns = (records[name].tolist() for name in ("t", "agent", "actual", "estimated", "planned"))
    for t, agent, actual, estimated, planned in zip(*columns):
        lines.append(f"{t:.3f},{agent}," + ",".join(map(repr, (*actual, *estimated, *planned))))
    return "\n".join(lines) + "\n"


def series_csv_reference(series) -> str:
    """error_series.csv of ERROR_DTYPE rows, one line per row."""
    lines = ["t,agent,error"] + [f"{t:.3f},{agent},{error!r}" for t, agent, error in series.tolist()]
    return "\n".join(lines) + "\n"
