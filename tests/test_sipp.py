"""Safe-interval tables and single-agent planning over timed prohibitions."""

import math
import random

import pytest

import oracles
from mapflight import sipp
from mapflight.geometry3d import CylinderBody
from mapflight.sipp import Constraint, sipp_plan
from mapflight.world import CONNECTIVITY_STEPS, AgentSpec, GridWorld, move_duration, neighbors
from oracles import build_safe_intervals, plan_satisfies_constraints, sipp_reference

BODY = CylinderBody(0.25, 1.0)
INF = math.inf


def corridor():
    """A 4-cell straight corridor: 0.5 m cells, 0.5 m/s, 1 s per move."""
    world = GridWorld((4, 1, 1), 0.5)
    agent = AgentSpec(0, (0, 0, 0), (3, 0, 0), BODY, 0.5)
    return world, agent


def move_c(src, dst, lo, hi, agent=0):
    return Constraint(agent, src, dst, (lo, hi))


def wait_c(cell, lo, hi, agent=0):
    return Constraint(agent, cell, cell, (lo, hi))


class TestConstraint:
    @pytest.mark.parametrize("lo,hi", [(-1.0, 2.0), (2.0, 1.0), (INF, INF), (0.0, math.nan)])
    def test_rejects_bad_bounds(self, lo, hi):
        with pytest.raises(ValueError, match="interval must satisfy"):
            wait_c((0, 0, 0), lo, hi)


class TestSafeIntervalTable:
    EDGE = ((0, 0, 0), (1, 0, 0))

    def test_unconstrained_is_fully_safe(self):
        table = build_safe_intervals([], 0)
        assert table.vertex_intervals((2, 2, 0)) == ((0.0, INF),)
        assert table.move_blocks.get(self.EDGE, ()) == ()

    def test_touching_move_bans_block_departure_through_both(self):
        cs = [move_c(*self.EDGE, 2.0, 3.0), move_c(*self.EDGE, 1.0, 2.0)]
        table = build_safe_intervals(cs, 0)
        assert table.move_blocks[self.EDGE] == ((1.0, 2.0), (2.0, 3.0))
        assert sipp._past_blocks(table.move_blocks[self.EDGE], 1.0) == 3.0

    def test_touching_vertex_bans_keep_the_instant(self):
        # occupancy prohibitions are open, so the instant t = 2 between the
        # two remains legal and survives as a zero-length interval
        cs = [wait_c((1, 0, 0), 1.0, 2.0), wait_c((1, 0, 0), 2.0, 3.0)]
        table = build_safe_intervals(cs, 0)
        assert table.vertex_intervals((1, 0, 0)) == ((0.0, 1.0), (2.0, 2.0), (3.0, INF))

    def test_overlapping_vertex_bans_fuse(self):
        cs = [wait_c((1, 0, 0), 1.0, 2.5), wait_c((1, 0, 0), 2.0, 3.0)]
        table = build_safe_intervals(cs, 0)
        assert table.vertex_intervals((1, 0, 0)) == ((0.0, 1.0), (3.0, INF))

    def test_zero_length_ban_between_touching_bans_adds_nothing(self):
        cell = (1, 0, 0)
        cs = [wait_c(cell, 1.0, 2.0), wait_c(cell, 2.0, 2.0), wait_c(cell, 2.0, 3.0)]
        table = build_safe_intervals(cs, 0)
        assert table.vertex_intervals(cell) == ((0.0, 1.0), (2.0, 2.0), (3.0, INF))

    def test_zero_length_bans_leave_the_table_unchanged(self):
        cell = (1, 0, 0)
        table = build_safe_intervals([wait_c(cell, 2.0, 2.0), wait_c(cell, 2.0, 2.0)], 0)
        assert table.vertex_intervals(cell) == ((0.0, INF),)
        empty = build_safe_intervals([], 0)
        for c in (wait_c(cell, 2.0, 2.0), move_c(*self.EDGE, 2.0, 2.0)):
            assert empty.adding(c) is empty

    def test_earliest_departure_bumps_past_closed_left_blocks(self):
        table = build_safe_intervals([move_c(*self.EDGE, 1.0, 2.0), move_c(*self.EDGE, 3.0, 4.0)], 0)
        def dep(src, dst, t):
            return sipp._past_blocks(table.move_blocks.get((src, dst), ()), t)

        assert dep(*self.EDGE, 0.5) == 0.5
        assert dep(*self.EDGE, 1.0) == 2.0  # lo is blocked
        assert dep(*self.EDGE, 2.0) == 2.0  # hi is open, departure legal
        assert dep(*self.EDGE, 3.5) == 4.0
        assert dep(*self.EDGE, 9.0) == 9.0

    def test_tables_answer_as_their_prohibitions_say(self):
        """Probe random tables against the constraint semantics read off the
        constraint list itself, with zero-length, touching and unbounded bans.

        A wait ban is cut straight out of the vertex's safe intervals, so the
        intervals must also stay sorted and maximal: no two of them touch.
        """
        rng = random.Random(7)
        cells = [(0, 0, 0), (1, 0, 0), (0, 1, 0)]
        edges = [(src, dst) for src in cells for dst in cells if src != dst][:3]
        probes = [k * 0.125 for k in range(0, 14 * 8 + 1)]  # quarter grid and midpoints
        for _ in range(300):
            cs = []
            ends = []
            starts = []
            for _ in range(rng.randrange(1, 10)):
                if ends and rng.random() < 0.3:
                    lo = rng.choice(ends)  # touches an earlier ban's end
                else:
                    lo = rng.randrange(0, 40) * 0.25
                kind = rng.random()
                if kind < 0.15:
                    hi = lo
                elif kind < 0.3:
                    hi = INF
                elif kind < 0.4 and any(s > lo for s in starts):
                    hi = rng.choice([s for s in starts if s > lo])  # touches an earlier ban's start
                else:
                    hi = lo + rng.randrange(1, 12) * 0.25
                    ends.append(hi)
                starts.append(lo)
                if rng.random() < 0.5:
                    cs.append(wait_c(rng.choice(cells), lo, hi))
                else:
                    cs.append(move_c(*rng.choice(edges), lo, hi))
            table = build_safe_intervals(cs, 0)
            for cell in cells:
                bans = [c.interval for c in cs if c.is_wait and c.src == cell]
                for t in probes:
                    safe = any(lo <= t <= hi for lo, hi in table.vertex_intervals(cell))
                    assert safe == (not any(b[0] < t < b[1] for b in bans)), (cs, cell, t)
                ivs = table.vertex_intervals(cell)
                assert all(a[1] < b[0] for a, b in zip(ivs, ivs[1:])), (cs, cell, ivs)
            for src, dst in edges:
                bans = [c.interval for c in cs if not c.is_wait and (c.src, c.dst) == (src, dst)]
                blocks = table.move_blocks.get((src, dst), ())
                for t in probes:
                    r = sipp._past_blocks(blocks, t)
                    assert (r == t) == (not any(b[0] <= t < b[1] for b in bans)), (cs, (src, dst), t)
                    # r is the earliest legal departure: not banned, and every probe before it is
                    assert not any(b[0] <= r < b[1] for b in bans), (cs, (src, dst), t, r)
                    skipped = [p for p in probes if t <= p < r]
                    assert all(any(b[0] <= p < b[1] for b in bans) for p in skipped), (cs, (src, dst), t, r)
            shuffled = list(cs)
            rng.shuffle(shuffled)
            again = build_safe_intervals(shuffled, 0)
            assert (again.vertex_safe, again.move_blocks) == (table.vertex_safe, table.move_blocks)

    def test_a_table_is_a_key_by_identity(self):
        cs = [wait_c((1, 0, 0), 1.0, 2.0), move_c(*self.EDGE, 1.0, 3.0)]
        a, b = build_safe_intervals(cs, 0), build_safe_intervals(cs, 0)
        assert (a.vertex_safe, a.move_blocks) == (b.vertex_safe, b.move_blocks)
        cache = {a: "a", b: "b"}
        assert len(cache) == 2 and cache[a] == "a" and cache[b] == "b"
        assert a != b

    def test_rejects_foreign_agent_constraints(self):
        with pytest.raises(ValueError, match="targets agent 3"):
            build_safe_intervals([wait_c((0, 0, 0), 1.0, 2.0, agent=3)], 0)


class TestSippPlan:
    def test_unconstrained_straight_line(self):
        world, agent = corridor()
        plan = sipp_plan(world, agent, build_safe_intervals([], 0))
        assert plan is not None and plan.end_time == pytest.approx(3.0)
        assert [wp[3] for wp in plan.waypoints] == pytest.approx([0.0, 1.0, 2.0, 3.0])

    def test_move_ban_inserts_a_wait_waypoint(self):
        world, agent = corridor()
        ban = move_c((0, 0, 0), (1, 0, 0), 0.0, 1.5)
        plan = sipp_plan(world, agent, build_safe_intervals([ban], 0))
        assert plan is not None and plan.end_time == pytest.approx(4.5)
        # the wait shows up as a duplicated start position at t = 0 and t = 1.5
        assert plan.waypoints[0][:3] == plan.waypoints[1][:3]
        assert plan.waypoints[1][3] == pytest.approx(1.5)
        assert plan_satisfies_constraints(plan, [ban], world)

    def test_goal_occupancy_ban_delays_arrival(self):
        world, agent = corridor()
        plan = sipp_plan(world, agent, build_safe_intervals([wait_c((3, 0, 0), 2.0, 5.0)], 0))
        assert plan is not None and plan.end_time == pytest.approx(5.0)

    def test_unbounded_goal_ban_means_no_plan(self):
        world, agent = corridor()
        assert sipp_plan(world, agent, build_safe_intervals([wait_c((3, 0, 0), 0.0, INF)], 0)) is None

    def test_vertex_ban_on_a_through_cell(self):
        # passing through (1,0,0) means touching it for an instant; the open
        # prohibition (0.5, 2.0) forbids instants strictly inside, so the
        # earliest legal touch is exactly t = 2.0
        world, agent = corridor()
        ban = wait_c((1, 0, 0), 0.5, 2.0)
        plan = sipp_plan(world, agent, build_safe_intervals([ban], 0))
        assert plan is not None and plan.end_time == pytest.approx(4.0)
        assert plan_satisfies_constraints(plan, [ban], world)

    def test_detour_beats_waiting(self):
        # a long ban on the straight edge makes the two-sided grid route faster
        world = GridWorld((3, 2, 1), 0.5)
        agent = AgentSpec(0, (0, 0, 0), (2, 0, 0), BODY, 0.5)
        ban = move_c((1, 0, 0), (2, 0, 0), 0.0, 9.0)
        plan = sipp_plan(world, agent, build_safe_intervals([ban], 0))
        assert plan is not None and plan.end_time == pytest.approx(4.0)  # around via y = 1

    def test_unreachable_goal(self):
        world = GridWorld((3, 1, 1), 0.5, frozenset({(1, 0, 0)}))
        agent = AgentSpec(0, (0, 0, 0), (2, 0, 0), BODY, 0.5)
        assert sipp_plan(world, agent, build_safe_intervals([], 0)) is None

    def test_rejects_blocked_endpoints(self):
        world = GridWorld((3, 1, 1), 0.5, frozenset({(1, 0, 0)}))
        with pytest.raises(ValueError, match="start .* is not a free cell"):
            sipp_plan(world, AgentSpec(0, (1, 0, 0), (2, 0, 0), BODY, 0.5), build_safe_intervals([], 0))
        with pytest.raises(ValueError, match="goal .* is not a free cell"):
            sipp_plan(world, AgentSpec(0, (0, 0, 0), (1, 0, 0), BODY, 0.5), build_safe_intervals([], 0))


class TestPlanSatisfiesConstraints:
    def test_violating_plans_are_rejected(self):
        world, agent = corridor()
        plan = sipp_plan(world, agent, build_safe_intervals([], 0))
        assert plan is not None
        # departs the first edge at t = 0, inside the closed-left ban
        assert not plan_satisfies_constraints(plan, [move_c((0, 0, 0), (1, 0, 0), 0.0, 1.5)], world)
        # touches (1,0,0) at t = 1.0, strictly inside the open occupancy ban
        assert not plan_satisfies_constraints(plan, [wait_c((1, 0, 0), 0.5, 2.0)], world)
        # boundary touches are legal: the same ban ending exactly at 1.0 passes
        assert plan_satisfies_constraints(plan, [wait_c((1, 0, 0), 0.5, 1.0)], world)
        # other agents' constraints never apply
        assert plan_satisfies_constraints(plan, [move_c((0, 0, 0), (1, 0, 0), 0.0, 1.5, agent=9)], world)


class TestAgainstTimeExpandedOracle:
    """Randomized single-agent instances checked against a tick-grid A*."""

    DT = 0.01

    def random_instance(self, rng):
        dims = rng.choice([(3, 3, 1), (4, 4, 1), (3, 3, 2)])
        cells = [(i, j, k) for i in range(dims[0]) for j in range(dims[1]) for k in range(dims[2])]
        obstacles = frozenset(rng.sample(cells, rng.choice([0, 0, 1, 2])))
        free = [c for c in cells if c not in obstacles]
        start, goal = rng.sample(free, 2)
        world = GridWorld(dims, 0.5, obstacles)
        agent = AgentSpec(0, start, goal, BODY, 0.5)

        constraints = []
        for _ in range(rng.randrange(0, 7)):
            lo = rng.randrange(0, 300) * self.DT
            hi = lo + rng.randrange(1, 200) * self.DT
            cell = rng.choice(free)
            nbrs = [n for n in neighbors(world, cell)]
            if nbrs and rng.random() < 0.5:
                constraints.append(Constraint(0, cell, rng.choice(nbrs), (lo, hi)))
            else:
                constraints.append(Constraint(0, cell, cell, (lo, hi)))
        return world, agent, constraints

    def test_arrival_times_match_brute_force(self):
        rng = random.Random(42)
        checked = 0
        for _ in range(30):
            world, agent, constraints = self.random_instance(rng)
            plan = sipp_plan(world, agent, build_safe_intervals(constraints, 0))
            want = oracles.timed_astar_oracle(world, agent, constraints, dt=self.DT)
            if plan is None:
                assert want is None, f"planner said unreachable, oracle found {want}"
                continue
            assert plan_satisfies_constraints(plan, constraints, world)
            assert want is not None, "oracle said unreachable, planner found a plan"
            # the tick grid can only delay departures, never beat the optimum
            assert plan.end_time <= want + 1e-9
            assert want <= plan.end_time + self.DT + 1e-9
            checked += 1
        assert checked >= 15  # most random instances must be solvable


def waypoint_bits(plan):
    return None if plan is None else [[v.hex() for v in wp] for wp in plan.waypoints]


class TestExactHeuristic:
    """`_heuristic` is the shortest time to the goal on the free graph."""

    @pytest.mark.parametrize("connectivity", sorted(CONNECTIVITY_STEPS))
    def test_matches_the_shortest_time_oracle(self, connectivity):
        rng = random.Random(f"heuristic-{connectivity}")
        unreachable = 0
        for _ in range(12):
            dims = rng.choice([(5, 4, 2), (4, 4, 3), (6, 3, 1)])
            cells = [(i, j, k) for i in range(dims[0]) for j in range(dims[1]) for k in range(dims[2])]
            # dense enough to wall off pockets that cannot reach the goal
            obstacles = frozenset(rng.sample(cells, len(cells) * rng.choice([0, 3, 5]) // 10))
            world = GridWorld(dims, rng.choice([0.5, 0.3, 1.0]), obstacles, connectivity)
            free = [c for c in cells if c not in obstacles]
            goal = rng.choice(free)
            speed = rng.choice([0.5, 0.8, 1.3])
            h = sipp._heuristic(world, goal, speed)
            want = oracles.shortest_time_oracle(world, goal, speed)
            reach = {goal}
            frontier = [goal]
            while frontier:
                for nbr in neighbors(world, frontier.pop()):
                    if nbr not in reach:
                        reach.add(nbr)
                        frontier.append(nbr)
            for cell in cells:
                got = h[world.vertex_index(cell)]
                assert got == want.get(cell, INF), (cell, got, want.get(cell))
                assert (got == INF) == (cell not in reach), cell
            unreachable += len(free) - len(reach)
            # consistent on every move, in floats
            graph = sipp._search_graph(world, speed)
            for v, moves in enumerate(graph.succ):
                for w, dur in moves:
                    assert h[v] <= dur + h[w], (v, w)
        assert unreachable > 0


class TestSearchGraph:
    """`_search_graph` reads the cached adjacency; it must be the graph that
    `neighbors` and `move_duration` define, bit for bit, and `neighbors` must be
    the oracle's neighbour rule."""

    @pytest.mark.parametrize("connectivity", sorted(CONNECTIVITY_STEPS))
    def test_matches_neighbors_and_move_duration(self, connectivity):
        rng = random.Random(f"graph-{connectivity}")
        for _ in range(16):
            dims = tuple(rng.randint(1, 5) for _ in range(3))
            cells = [(i, j, k) for i in range(dims[0]) for j in range(dims[1]) for k in range(dims[2])]
            obstacles = frozenset(rng.sample(cells, len(cells) * rng.choice([0, 2, 4]) // 10))
            world = GridWorld(dims, rng.choice([0.1, 0.3, 0.5, 2.5]), obstacles, connectivity)
            speed = rng.choice([0.3, 0.5, 0.8, 1.7])
            graph = sipp._search_graph(world, speed)
            assert len(graph.centers) == len(graph.succ) == len(cells)
            for cell in cells:
                v = world.vertex_index(cell)
                assert graph.centers[v] == world.center(cell)
                if cell in obstacles:
                    assert graph.succ[v] == ()
                    with pytest.raises(ValueError, match="is an obstacle"):
                        neighbors(world, cell)
                    continue
                nbrs = neighbors(world, cell)
                want = [(world.vertex_index(n), move_duration(world, cell, n, speed).hex()) for n in nbrs]
                assert [(w, dur.hex()) for w, dur in graph.succ[v]] == want, (world, cell)
                oracle = oracles._free_moves(world, cell, speed)
                assert sorted((n, dur.hex()) for n, dur in oracle) == sorted(
                    (n, dur) for n, (_, dur) in zip(nbrs, want)), (world, cell)
            for outside in ((-1, 0, 0), (0, dims[1], 0), (0, 0, dims[2])):
                with pytest.raises(ValueError, match="out of bounds"):
                    neighbors(world, outside)


class TestInterning:
    """SIPP returns one object per distinct plan, and plans share equal motions."""

    def test_equal_searches_return_the_same_plan(self):
        world, agent = corridor()
        empty = build_safe_intervals([], 0)
        # a ban on the start cell long after the agent has left changes the
        # table, not the plan
        late = empty.adding(wait_c((0, 0, 0), 50.0, 60.0))
        a, b = sipp_plan(world, agent, empty), sipp_plan(world, agent, late)
        assert late is not empty and a is b
        # a ban at the goal makes the agent wait before its last move
        waited = sipp_plan(world, agent, empty.adding(wait_c((3, 0, 0), 2.5, 3.5)))
        assert waited.end_time == 3.5
        # the plans share their equal motions, but one that starts at t = 0.0
        # is built apart, since a zero may be -0.0
        assert waited.motions[1] is a.motions[1]
        assert waited.motions[0] == a.motions[0] and waited.motions[0] is not a.motions[0]


class TestAgainstTheReferenceSearch:
    """The vertex-indexed search must return exactly the plans of the earlier
    cell-keyed search, guided by the same exact heuristic, compared by
    float.hex, on fixed-seed tables."""

    def random_case(self, rng, connectivity):
        dims = rng.choice([(4, 4, 2), (5, 3, 2), (3, 3, 3)])
        cells = [(i, j, k) for i in range(dims[0]) for j in range(dims[1]) for k in range(dims[2])]
        obstacles = frozenset(rng.sample(cells, rng.randrange(0, 4)))
        world = GridWorld(dims, rng.choice([0.5, 0.3, 1.0]), obstacles, connectivity)
        free = [c for c in cells if c not in obstacles]
        start, goal = rng.sample(free, 2)
        agent = AgentSpec(0, start, goal, BODY, rng.choice([0.5, 0.8, 1.3]))

        def some_time():
            # lattice times make ties and touching windows; the rest are arbitrary floats
            return rng.randrange(0, 24) * 0.25 if rng.random() < 0.5 else rng.uniform(0.0, 6.0)

        constraints = []
        for _ in range(rng.randrange(0, 14)):
            cell = rng.choice(free)
            lo = some_time()
            hi = lo + rng.choice([0.25, 0.5, 1.0, rng.uniform(0.01, 3.0)])
            nbrs = neighbors(world, cell)
            if nbrs and rng.random() < 0.45:
                constraints.append(move_c(cell, rng.choice(nbrs), lo, hi))
                continue
            constraints.append(wait_c(cell, lo, hi))
            if rng.random() < 0.4:
                # a touching ban: the instant hi stays safe as [hi, hi]
                constraints.append(wait_c(cell, hi, hi + rng.uniform(0.1, 2.0)))
            elif rng.random() < 0.1:
                constraints.append(wait_c(cell, hi, INF))  # parked for good
        if rng.random() < 0.25:
            constraints.append(wait_c(start, 0.0, rng.uniform(0.1, 2.0)))  # covers the start at t = 0
        if rng.random() < 0.3:
            # every departure from the start banned for a while: the plan must wait
            until = rng.uniform(0.1, 2.0)
            constraints.extend(move_c(start, nbr, 0.0, until) for nbr in neighbors(world, start))
        if rng.random() < 0.25:
            lo = rng.uniform(0.0, 3.0)
            constraints.append(wait_c(goal, lo, lo + rng.uniform(1.0, 6.0)))  # an early arrival cannot stay
        if rng.random() < 0.1:
            constraints.append(wait_c(goal, some_time(), INF))  # no unbounded goal interval
        return world, agent, constraints

    @pytest.mark.parametrize("connectivity", sorted(CONNECTIVITY_STEPS))
    def test_plans_match_bit_for_bit(self, connectivity):
        rng = random.Random(f"sipp-{connectivity}")
        found = unreachable = waited = 0
        for case in range(80):
            world, agent, constraints = self.random_case(rng, connectivity)
            table = build_safe_intervals(constraints, 0)
            plan = sipp_plan(world, agent, table)
            want = sipp_reference(world, agent, table)
            assert waypoint_bits(plan) == waypoint_bits(want), (case, constraints)
            if plan is None:
                unreachable += 1
                continue
            found += 1
            positions = [wp[:3] for wp in plan.waypoints]
            waited += len(set(positions)) < len(positions)
        # the cases must reach both outcomes, and plans that wait
        assert found >= 40 and unreachable >= 3 and waited >= 10, (found, unreachable, waited)
