"""Conflict-tree search over continuous-time plans: optimality, failure modes."""

import dataclasses
import hashlib
import json
import math
import random
from pathlib import Path

import pytest

from mapflight import ccbs, geometry3d
from mapflight.ccbs import (
    LIMIT_EXCEEDED,
    NO_SOLUTION,
    SOLVED,
    SolveLimits,
    branch,
    ccbs_solve,
    conflict_table,
    replanned_table,
)
from mapflight.geometry3d import (
    Conflict,
    CylinderBody,
    LinearMotion,
    cylinder_unsafe_interval,
)
from mapflight.plan import TimedPlan, validate
from mapflight.sipp import sipp_plan
from mapflight.world import AgentSpec, GridWorld, load_instance, neighbors

from oracles import build_safe_intervals
from test_geometry3d import LATTICE_TIMES

BODY = CylinderBody(0.25, 1.0)


def swap_instance():
    """Two agents exchanging places along one row; a pure swap forces a detour."""
    world = GridWorld((4, 4, 1), 0.5)
    agents = [
        AgentSpec(0, (0, 0, 0), (2, 0, 0), BODY, 0.5),
        AgentSpec(1, (2, 0, 0), (0, 0, 0), BODY, 0.5),
    ]
    return world, agents


class TestSolved:
    def test_head_on_swap(self):
        world, agents = swap_instance()
        res = ccbs_solve(world, agents)
        assert res.status == SOLVED
        sol = res.solution
        # straight lines cost 2 + 2; the cheapest resolution sends one agent
        # around through the next row, 4 moves instead of 2
        assert sol.cost == pytest.approx(6.0, abs=1e-9)
        assert res.stats.expansions < 50
        assert validate(sol.plans, agents, world).ok

    def test_perpendicular_crossing_waits_out_the_intersection(self):
        world = GridWorld((5, 5, 1), 1.0)
        body = CylinderBody(0.5, 1.0)
        agents = [
            AgentSpec(0, (0, 2, 0), (4, 2, 0), body, 1.0),
            AgentSpec(1, (2, 0, 0), (2, 4, 0), body, 1.0),
        ]
        res = ccbs_solve(world, agents)
        assert res.status == SOLVED
        # both straight lines cost 4; the loser waits just long enough for the
        # crossing to clear, which works out to sqrt(2) seconds
        assert abs(res.solution.cost - (8.0 + math.sqrt(2))) < 1e-6
        assert validate(res.solution.plans, agents, world).ok

    def test_solution_invariants(self):
        world, agents = swap_instance()
        res = ccbs_solve(world, agents)
        sol = res.solution
        assert [p.agent for p in sol.plans] == [0, 1]
        assert sol.cost == pytest.approx(sum(p.end_time for p in sol.plans))
        assert sol.makespan == pytest.approx(max(p.end_time for p in sol.plans))
        assert res.stats.generated >= 1

    def test_conflict_free_instance_solves_at_the_root(self):
        world = GridWorld((4, 4, 1), 0.5)
        agents = [
            AgentSpec(0, (0, 0, 0), (3, 0, 0), BODY, 0.5),
            AgentSpec(1, (0, 3, 0), (3, 3, 0), BODY, 0.5),
        ]
        res = ccbs_solve(world, agents)
        assert res.status == SOLVED and res.stats.expansions == 0
        assert res.solution.cost == pytest.approx(6.0)


class TestEightAgents:
    def instance(self):
        rng = random.Random(3)
        cols = [(x, y) for x in range(4) for y in range(4)]
        start_cols = rng.sample(cols, 8)
        goal_cols = rng.sample(cols, 8)
        starts = [(x, y, rng.randrange(2)) for x, y in start_cols]
        goals = [(x, y, rng.randrange(2)) for x, y in goal_cols]
        world = GridWorld((4, 4, 2), 0.5)
        agents = [AgentSpec(i, s, g, BODY, 0.5) for i, (s, g) in enumerate(zip(starts, goals))]
        return world, agents

    def test_dense_instance_is_solved_optimally_and_deterministically(self):
        world, agents = self.instance()
        first = ccbs_solve(world, agents, SolveLimits(max_wall_time=60.0))
        assert first.status == SOLVED
        # bypass flattens the equal-cost plateau; without it this took 3335
        assert first.stats.expansions <= 200
        # total straight-line cost is 24; the single unavoidable conflict
        # resolves with one diagonal-length wait
        assert abs(first.solution.cost - (24.0 + math.sqrt(2))) < 1e-6
        assert validate(first.solution.plans, agents, world).ok
        second = ccbs_solve(world, agents, SolveLimits(max_wall_time=60.0))
        assert second.solution.plans == first.solution.plans
        assert second.solution.cost == first.solution.cost

    def test_bundled_ring_scenario(self, scenario_dir):
        world, agents = load_instance(scenario_dir / "swarm_8.json")
        res = ccbs_solve(world, agents, SolveLimits(max_wall_time=60.0))
        assert res.status == SOLVED
        assert res.solution.cost == pytest.approx(25.656854251193845, abs=1e-6)
        assert validate(res.solution.plans, agents, world).ok


class TestNoSolution:
    def test_overlapping_start_bodies(self):
        world = GridWorld((3, 3, 2), 0.5)
        agents = [
            AgentSpec(0, (0, 0, 0), (2, 0, 0), BODY, 0.5),
            AgentSpec(1, (0, 0, 1), (2, 0, 1), BODY, 0.5),  # stacked in the same column
        ]
        res = ccbs_solve(world, agents)
        assert res.status == NO_SOLUTION and res.solution is None
        assert "start with overlapping bodies" in res.detail

    def test_overlapping_goal_bodies(self):
        world = GridWorld((3, 3, 2), 0.5)
        agents = [
            AgentSpec(0, (0, 0, 0), (2, 0, 0), BODY, 0.5),
            AgentSpec(1, (0, 2, 1), (2, 0, 1), BODY, 0.5),
        ]
        res = ccbs_solve(world, agents)
        assert res.status == NO_SOLUTION
        assert "goals with overlapping bodies" in res.detail

    @pytest.mark.parametrize("which", ["start", "goal"])
    def test_overlap_check_agrees_with_detection_at_a_diagonal_graze(self, which):
        # r_sum rounds to exactly the diagonal of a cell: the check must call the
        # two parked bodies what the conflict detector calls them
        body = CylinderBody(0.5 * 0.7071067811865476, 1.0)
        world = GridWorld((4, 4, 1), 0.5)
        a, b = (0, 0, 0), (1, 1, 0)
        parked = cylinder_unsafe_interval(LinearMotion(world.center(a), world.center(a), 0.0, 1.0),
                                          LinearMotion(world.center(b), world.center(b), 0.0, 1.0), body, body)
        assert parked is not None
        if which == "start":
            agents = [AgentSpec(0, a, (3, 0, 0), body, 0.5), AgentSpec(1, b, (3, 3, 0), body, 0.5)]
        else:
            agents = [AgentSpec(0, (3, 0, 0), a, body, 0.5), AgentSpec(1, (3, 3, 0), b, body, 0.5)]
        res = ccbs_solve(world, agents)
        assert res.status == NO_SOLUTION and res.stats.expansions == 0
        assert f"{'start' if which == 'start' else 'have goals'} with overlapping bodies" in res.detail

    def test_walled_in_agent(self):
        world = GridWorld((3, 3, 1), 0.5, frozenset({(1, 2, 0), (2, 1, 0)}))
        agents = [
            AgentSpec(0, (0, 0, 0), (0, 2, 0), BODY, 0.5),
            AgentSpec(1, (2, 2, 0), (0, 1, 0), BODY, 0.5),
        ]
        res = ccbs_solve(world, agents)
        assert res.status == NO_SOLUTION
        assert res.detail == "agent 1 cannot reach its goal"

    def test_replans_count_only_the_root_plans_made(self):
        # agent 0 is walled into its corner: its root plan fails, and the others are never planned
        world = GridWorld((3, 3, 1), 0.5, frozenset({(1, 0, 0), (0, 1, 0), (1, 1, 0)}))
        agents = [
            AgentSpec(0, (0, 0, 0), (2, 2, 0), BODY, 0.5),
            AgentSpec(1, (2, 0, 0), (2, 1, 0), BODY, 0.5),
            AgentSpec(2, (0, 2, 0), (1, 2, 0), BODY, 0.5),
        ]
        res = ccbs_solve(world, agents)
        assert (res.status, res.detail) == (NO_SOLUTION, "agent 0 cannot reach its goal")
        assert res.stats.replans == 1


class TestLimits:
    def test_expansion_limit(self):
        world, agents = swap_instance()
        res = ccbs_solve(world, agents, SolveLimits(max_expansions=0))
        assert res.status == LIMIT_EXCEEDED and res.solution is None
        assert res.detail == "expansion limit reached; cost lower bound 4.0"
        assert res.stats.lower_bound == 4.0  # the root: two straight lines

    def test_wall_time_limit(self):
        world, agents = swap_instance()
        res = ccbs_solve(world, agents, SolveLimits(max_wall_time=0.0))
        assert res.status == LIMIT_EXCEEDED
        assert res.detail == "wall-time limit reached; cost lower bound 4.0"
        assert res.stats.lower_bound == 4.0

    def test_lower_bound_at_the_expansion_limit(self):
        world, agents = TestEightAgents().instance()
        root = ccbs_solve(world, agents, SolveLimits(max_expansions=0)).stats.lower_bound
        res = ccbs_solve(world, agents, SolveLimits(max_expansions=10))
        assert res.status == LIMIT_EXCEEDED
        # best-first on cost: no node left unexpanded can beat the one at hand
        assert root <= res.stats.lower_bound <= 24.0 + math.sqrt(2) + 1e-9
        assert res.detail.endswith(repr(res.stats.lower_bound))

    def test_solved_runs_report_no_bound(self):
        world, agents = swap_instance()
        assert ccbs_solve(world, agents).stats.lower_bound is None

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            (dict(max_wall_time=math.nan), "max_wall_time must be a number >= 0"),
            (dict(max_wall_time=-1.0), "max_wall_time must be a number >= 0"),
            (dict(max_wall_time=-math.inf), "max_wall_time must be a number >= 0"),
            (dict(max_wall_time=True), "max_wall_time must be a number >= 0"),
            (dict(max_wall_time="60"), "max_wall_time must be a number >= 0"),
            (dict(max_expansions=-3), "max_expansions must be an integer >= 0"),
            (dict(max_expansions=2.0), "max_expansions must be an integer >= 0"),
            (dict(max_expansions=False), "max_expansions must be an integer >= 0"),
        ],
    )
    def test_rejects_bad_limits(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            SolveLimits(**kwargs)

    def test_an_infinite_wall_time_is_no_limit(self):
        world, agents = swap_instance()
        res = ccbs_solve(world, agents, SolveLimits(max_wall_time=math.inf, max_expansions=0))
        assert res.detail == "expansion limit reached; cost lower bound 4.0"

    def test_unsolvable_swap_without_bypass_is_cut_off(self):
        # a swap in a 1-wide corridor has no solution, but the conflict tree
        # cannot prove that in continuous time: it keeps pushing departures
        # later forever. The expansion limit is what ends such runs.
        world = GridWorld((3, 1, 1), 0.5)
        agents = [
            AgentSpec(0, (0, 0, 0), (2, 0, 0), BODY, 0.5),
            AgentSpec(1, (2, 0, 0), (0, 0, 0), BODY, 0.5),
        ]
        res = ccbs_solve(world, agents, SolveLimits(max_expansions=300))
        assert res.status == LIMIT_EXCEEDED
        assert res.detail.startswith("expansion limit reached; cost lower bound ")


def test_chipping_swap_counters_at_a_small_budget(cold_caches):
    # The head-on swap with 0.25 m bodies in 10 m cells: each branch delays a
    # move by only the short contact window, so the search chips toward the
    # side-step and piles bans on one move: they cover 3 disjoint windows at
    # this budget and 5 at 20,000 expansions, against at most 2 on the
    # benchmark inputs. Every counter and the bound are pinned.
    world = GridWorld((4, 4, 1), 10.0)
    agents = [
        AgentSpec(0, (0, 0, 0), (2, 0, 0), BODY, 10.0),
        AgentSpec(1, (2, 0, 0), (0, 0, 0), BODY, 10.0),
    ]
    res = ccbs_solve(world, agents, SolveLimits(max_wall_time=math.inf, max_expansions=2000))
    st = res.stats
    assert res.status == LIMIT_EXCEEDED
    counters = (st.expansions, st.generated, st.bypasses, st.replans, st.replans_reused, st.branches_reused)
    assert counters == (2000, 4001, 0, 1885, 2117, 1888)
    assert (st.cardinal, st.semi_cardinal) == (1272, 728)
    assert st.lower_bound.hex() == (4.600000009540697).hex()


class TestBundledScenarios:
    """The demo scenarios ship conflict-free: every method must track them."""

    GOLDEN_COSTS = {
        "method_comparison": 6.0,
        "swarm_2": 7.0,
        "swarm_4": 12.0,
        "swarm_6": 16.0,
    }

    def test_demo_scenarios_solve_without_branching(self, scenario_dir):
        for name, want in self.GOLDEN_COSTS.items():
            world, agents = load_instance(scenario_dir / f"{name}.json")
            res = ccbs_solve(world, agents)
            assert res.status == SOLVED, name
            assert res.stats.expansions == 0, name
            assert res.solution.cost == pytest.approx(want, abs=1e-9), name
            assert validate(res.solution.plans, agents, world).ok, name
            # wait-free: tight tracking is achievable for velocity control too
            for p in res.solution.plans:
                for k in range(len(p.waypoints) - 1):
                    assert p.waypoints[k][:3] != p.waypoints[k + 1][:3], name


class TestBypass:
    def test_bypass_is_counted_apart_from_expansions(self):
        world, agents = TestEightAgents().instance()
        res = ccbs_solve(world, agents)
        assert res.stats.bypasses > 0
        # a bypass resolves a conflict without pushing children
        assert res.stats.generated < 2 * res.stats.expansions + 1


class TestPrioritisedConflicts:
    def instance(self):
        """Two pairs that never meet. In the open 3x3 block, agents 0 and 1
        conflict at t = 0.5, and each can go round at no extra cost. In the
        walled corridor, agent 2 crosses agent 3's one-cell passage at t = 1.0,
        where one of them must wait."""
        walls = frozenset((x, y, 0) for x in range(5, 12) for y in (0, 2) if x != 8)
        world = GridWorld((12, 3, 1), 0.5, walls)
        agents = [
            AgentSpec(0, (0, 2, 0), (1, 1, 0), BODY, 0.5),
            AgentSpec(1, (0, 0, 0), (1, 2, 0), BODY, 0.5),
            AgentSpec(2, (6, 1, 0), (10, 1, 0), BODY, 0.5),
            AgentSpec(3, (8, 0, 0), (8, 2, 0), BODY, 0.5),
        ]
        return world, agents

    def test_a_later_cardinal_conflict_is_branched_on_first(self, monkeypatch):
        world, agents = self.instance()
        bodies = {a.id: a.body for a in agents}
        root = {a.id: sipp_plan(world, a, build_safe_intervals((), a.id)) for a in agents}
        early, late = sorted(conflict_table(root, bodies).values(), key=lambda c: c.unsafe[0])
        assert (early.agent_i, early.agent_j, early.unsafe[0]) == (0, 1, 0.5)
        assert (late.agent_i, late.agent_j, late.unsafe[0]) == (2, 3, 1.0)

        def child_costs(conflict):
            constraints = branch(conflict, world, bodies)
            plans = [sipp_plan(world, agents[c.agent], build_safe_intervals([c], c.agent)) for c in constraints]
            return [p.end_time - root[c.agent].end_time for c, p in zip(constraints, plans)]

        assert child_costs(early) == [0.0, 0.0]  # non-cardinal
        assert min(child_costs(late)) > 0.0  # cardinal

        calls, nodes = [], []
        node_type = ccbs.CTNode

        def counted(conflict, world, bodies):
            calls.append(conflict)
            return branch(conflict, world, bodies)

        def recorded(*fields):
            nodes.append(node_type(*fields))
            return nodes[-1]

        monkeypatch.setattr(ccbs, "branch", counted)
        monkeypatch.setattr(ccbs, "CTNode", recorded)
        res = ccbs_solve(world, agents, SolveLimits(max_wall_time=math.inf, max_expansions=1))
        # classified in earliest order up to the first cardinal conflict
        assert calls == [early, late]
        # the one expansion pushed the cardinal conflict's two children, and
        # the cheaper of them already proves a higher bound than the root's
        assert (res.stats.expansions, res.stats.cardinal, res.stats.semi_cardinal) == (1, 1, 0)
        want = [(c.agent, build_safe_intervals([c], c.agent)) for c in branch(late, world, bodies)]
        got = [(a, child.tables[a]) for child in nodes[1:] for a in child.tables
               if child.tables[a] is not nodes[0].tables[a]]
        # tables compare by identity, so compare what they hold
        assert [(a, t.vertex_safe, t.move_blocks) for a, t in got] == \
            [(a, t.vertex_safe, t.move_blocks) for a, t in want]
        assert res.stats.lower_bound > nodes[0].cost


def _random_plan(rng: random.Random, world: GridWorld, agent: int) -> TimedPlan:
    """Random walk over cell centers with random continuous waits."""
    cell = (rng.randrange(world.dims[0]), rng.randrange(world.dims[1]), rng.randrange(world.dims[2]))
    t = 0.0
    wps = [(*world.center(cell), t)]
    for _ in range(rng.randint(1, 8)):
        if rng.random() < 0.3:
            t += rng.uniform(0.1, 1.5)
        else:
            nxt = rng.choice(neighbors(world, cell))
            t += math.dist(world.center(cell), world.center(nxt)) / 0.5
            cell = nxt
        wps.append((*world.center(cell), t))
    return TimedPlan(agent, tuple(wps))


def test_incremental_conflict_table_matches_full_scans():
    rng = random.Random(20240611)
    world = GridWorld((4, 4, 2), 0.5)
    for _ in range(20):
        n = rng.randint(2, 7)
        bodies = {a: BODY for a in range(n)}
        plans = {a: _random_plan(rng, world, a) for a in range(n)}
        table = conflict_table(plans, bodies)
        for _ in range(15):
            assert table == conflict_table(plans, bodies)
            agent = rng.randrange(n)
            plans[agent] = _random_plan(rng, world, agent)
            table = replanned_table(table, plans, agent, bodies)


GRAZE_WAIT = LinearMotion((5.25, 3.75, 0.75), (5.25, 3.75, 0.75), 2.4142135627984613, 3.0)
GRAZE_MOVE = LinearMotion((5.25, 4.75, 0.25), (5.25, 4.25, 0.25), 2.0, 3.0)


@pytest.mark.parametrize("wait_start", [2.4142135627984613, 2.0, 2.5])
def test_grazing_contact_is_no_conflict_wherever_the_wait_starts(wait_start):
    # the move ends touching the waiting body at t = 3; timed from the wait's
    # start this once showed a 1-ulp window [2.999999999999999, 3.0]
    wait = LinearMotion(GRAZE_WAIT.p0, GRAZE_WAIT.p1, wait_start, GRAZE_WAIT.t1)
    assert cylinder_unsafe_interval(wait, GRAZE_MOVE, BODY, BODY) is None
    assert cylinder_unsafe_interval(GRAZE_MOVE, wait, BODY, BODY) is None


def test_grazing_contact_branches_on_the_detected_window():
    # the same pair with the move ending 1 cm deeper: a real conflict, which the
    # wait side must forbid in full
    move = LinearMotion(GRAZE_MOVE.p0, (5.25, 4.24, 0.25), 2.0, 3.0)
    unsafe = cylinder_unsafe_interval(GRAZE_WAIT, move, BODY, BODY)
    assert unsafe is not None and unsafe[1] == 3.0
    world = GridWorld((12, 12, 2), 0.5)
    c_wait, c_move = branch(Conflict(0, GRAZE_WAIT, 1, move, unsafe), world, {0: BODY, 1: BODY})
    assert c_wait.agent == 0 and c_wait.is_wait
    assert c_wait.src == world.cell_at(GRAZE_WAIT.p0)
    assert c_wait.interval[0] <= unsafe[0] and c_wait.interval[1] == unsafe[1]
    assert c_move.agent == 1 and not c_move.is_wait
    assert c_move.interval[0] == 2.0 and c_move.interval[1] > 2.0


def test_branching_against_a_parked_agent_bans_for_good():
    # agent 1 parks at cell (2, 0, 0) from t = 3 and never leaves; bodies of
    # radius 0.3 overlap across one 0.5 m cell
    world = GridWorld((4, 1, 1), 0.5)
    body = CylinderBody(0.3, 1.0)
    here, there = world.center((1, 0, 0)), world.center((2, 0, 0))
    parked = LinearMotion(there, there, 3.0, math.inf)
    bodies = {0: body, 1: body}

    move = LinearMotion(world.center((0, 0, 0)), here, 4.0, 5.0)
    unsafe = cylinder_unsafe_interval(move, parked, body, body)
    c_move, _ = branch(Conflict(0, move, 1, parked, unsafe), world, bodies)
    # delaying the move never clears a body that stays forever
    assert (c_move.src, c_move.dst, c_move.interval) == ((0, 0, 0), (1, 0, 0), (4.0, math.inf))

    wait = LinearMotion(here, here, 2.0, 6.0)
    unsafe = cylinder_unsafe_interval(wait, parked, body, body)
    c_wait, c_parked = branch(Conflict(0, wait, 1, parked, unsafe), world, bodies)
    assert (c_wait.src, c_wait.dst, c_wait.interval) == ((1, 0, 0), (1, 0, 0), (3.0, math.inf))
    assert (c_parked.src, c_parked.interval) == ((2, 0, 0), (2.0, 6.0))


PLAN_GRID = Path(__file__).resolve().parents[1] / "perfbench" / "inputs" / "plan_grid"


def test_costs_are_the_same_on_every_python():
    # From Python 3.12 on, sum() of floats is compensated and read these one
    # ulp lower; a node cost that moves breaks heap ties differently
    world, agents = load_instance(PLAN_GRID / "grid_020.json")
    res = ccbs_solve(world, agents, SolveLimits(max_wall_time=3600.0, max_expansions=200))
    assert res.status == SOLVED and float.hex(res.solution.cost) == "0x1.cb504f334e3b8p+5"
    world, agents = load_instance(PLAN_GRID / "grid_015.json")
    res = ccbs_solve(world, agents, SolveLimits(max_wall_time=3600.0, max_expansions=200))
    assert res.status == LIMIT_EXCEEDED and repr(res.stats.lower_bound) == "117.82842712559693"
    assert res.detail == "expansion limit reached; cost lower bound 117.82842712559693"


STEPS_26 = [(dx, dy, dz) for dx in (-1, 0, 1) for dy in (-1, 0, 1) for dz in (-1, 0, 1) if (dx, dy, dz) != (0, 0, 0)]


def test_fuzz_wait_move_grazes_are_classified_once():
    """Detection and branching agree on wait-move contacts at lattice times.

    A wait that starts later may lose a conflict only when the whole window
    ended before its new start, and then keeps the rest of it exactly. The
    wait side of every branch forbids at least the detected window.
    """
    rng = random.Random(7)
    world = GridWorld((5, 5, 4), 0.5)

    def centre(cell):
        return tuple((c + 0.5) * 0.5 for c in cell)

    reclassified, uncovered, detected = [], [], 0
    for _ in range(8000):
        body = CylinderBody(0.25, rng.choice((1.0, 0.5)))
        cell = (rng.randrange(1, 4), rng.randrange(1, 4), rng.randrange(1, 3))
        t0, t1 = sorted(rng.sample(LATTICE_TIMES, 2))
        wait = LinearMotion(centre(cell), centre(cell), t0, t1 + rng.choice((0.0, 1.0)))
        src = tuple(c + rng.randrange(-1, 2) for c in cell)
        dst = tuple(c + d for c, d in zip(src, rng.choice(STEPS_26)))
        m0, m1, ms = centre(src), centre(dst), rng.choice(LATTICE_TIMES)
        move = LinearMotion(m0, m1, ms, ms + math.dist(m0, m1) / 0.5)
        full = cylinder_unsafe_interval(wait, move, body, body)
        for start in LATTICE_TIMES:
            if not t0 < start < wait.t1:
                continue
            late = cylinder_unsafe_interval(LinearMotion(wait.p0, wait.p1, start, wait.t1), move, body, body)
            if full is not None and full[1] <= start:
                ok = late is None
            else:
                ok = late == (None if full is None else (max(full[0], start), full[1]))
            if not ok:
                reclassified.append((wait, start, move, body, full, late))
        if full is None:
            continue
        detected += 1
        c_wait, _ = branch(Conflict(0, wait, 1, move, full), world, {0: body, 1: body})
        if not (c_wait.interval[0] <= full[0] and full[1] <= c_wait.interval[1]):
            uncovered.append((wait, move, body, full, c_wait.interval))
    assert detected >= 1000  # the generator must actually produce conflicts
    assert not reclassified, (len(reclassified), reclassified[:3])
    assert not uncovered, (len(uncovered), uncovered[:3])


def _fuzz_instance(seed: int, n: int):
    """12x12x3, 10% obstacles; starts and goals in distinct columns of one connected component."""
    rng = random.Random(seed)
    cells = [(x, y, z) for x in range(12) for y in range(12) for z in range(3)]
    world = GridWorld((12, 12, 3), 0.5, frozenset(rng.sample(cells, len(cells) // 10)))
    seen: set = set()
    largest: list = []
    for c in cells:
        if not world.is_free(c) or c in seen:
            continue
        component, todo = [c], [c]
        seen.add(c)
        while todo:
            for nb in neighbors(world, todo.pop()):
                if nb not in seen:
                    seen.add(nb)
                    component.append(nb)
                    todo.append(nb)
        if len(component) > len(largest):
            largest = component
    columns: dict = {}
    for c in sorted(largest):
        columns.setdefault(c[:2], []).append(c)
    pool = sorted(columns)
    start_cols, goal_cols = rng.sample(pool, n), rng.sample(pool, n)
    agents = [
        AgentSpec(i, rng.choice(columns[s]), rng.choice(columns[g]), BODY, 0.5)
        for i, (s, g) in enumerate(zip(start_cols, goal_cols))
    ]
    return world, agents


def test_fuzz_dense_grids_never_crash():
    for seed in range(12):
        world, agents = _fuzz_instance(seed, 12 + seed % 5)
        res = ccbs_solve(world, agents, SolveLimits(max_wall_time=60.0, max_expansions=25))
        assert res.status in (SOLVED, LIMIT_EXCEEDED), (seed, res.status, res.detail)
        if res.status == SOLVED:
            assert validate(res.solution.plans, agents, world).ok, seed


def _summary(res):
    cost = None if res.solution is None else round(res.solution.cost, 9)
    return res.status, cost, res.stats.expansions, res.stats.generated, res.stats.bypasses


class TestGolden:
    """(status, cost, expansions, generated, bypasses) pinned: a solver change
    that claims to expand the same conflict tree must reproduce every count."""

    FUZZ = {
        0: (LIMIT_EXCEEDED, None, 25, 35, 8),
        1: (LIMIT_EXCEEDED, None, 25, 31, 10),
        2: (LIMIT_EXCEEDED, None, 25, 35, 8),
        3: (LIMIT_EXCEEDED, None, 25, 33, 9),
        4: (LIMIT_EXCEEDED, None, 25, 31, 10),
        5: (SOLVED, 67.0, 12, 17, 4),
        6: (LIMIT_EXCEEDED, None, 25, 37, 7),
        7: (LIMIT_EXCEEDED, None, 25, 41, 5),
        8: (LIMIT_EXCEEDED, None, 25, 43, 4),
        9: (LIMIT_EXCEEDED, None, 25, 33, 9),
        10: (SOLVED, 111.0, 12, 17, 4),
        11: (SOLVED, 109.0, 7, 9, 3),
    }

    def test_dense_instance(self):
        world, agents = TestEightAgents().instance()
        res = ccbs_solve(world, agents)
        assert _summary(res) == (SOLVED, round(25.414213562798462, 9), 18, 21, 8)

    def test_bundled_ring_scenario(self, scenario_dir):
        world, agents = load_instance(scenario_dir / "swarm_8.json")
        res = ccbs_solve(world, agents)
        assert _summary(res) == (SOLVED, round(25.656854251193845, 9), 146, 283, 5)

    def test_each_distinct_replan_runs_once(self, monkeypatch):
        planned = []

        def counted(world, agent, table):
            planned.append((agent.id, sorted(table.vertex_safe.items()), sorted(table.move_blocks.items())))
            return sipp_plan(world, agent, table)

        monkeypatch.setattr(ccbs, "sipp_plan", counted)
        world, agents = TestEightAgents().instance()
        stats = ccbs_solve(world, agents).stats
        # no agent is ever planned twice under equal tables
        assert len(planned) == stats.replans
        assert all(planned.index(key) == n for n, key in enumerate(planned))
        # 8 root plans and 108 children looked up, classified or branched on,
        # of which 70 repeat an earlier replan
        assert (stats.replans, stats.replans_reused) == (46, 70)

    def test_fuzz_seeds_at_their_budget(self):
        for seed, want in self.FUZZ.items():
            world, agents = _fuzz_instance(seed, 12 + seed % 5)
            res = ccbs_solve(world, agents, SolveLimits(max_wall_time=60.0, max_expansions=25))
            assert _summary(res) == want, seed


def test_plan_grid_counters_at_a_small_budget(monkeypatch, cold_caches):
    # Every counter of the 32 committed plan-grid solves at 20 expansions,
    # bit for bit: a change that claims the same conflict trees must keep it.
    # The pair scan's kernel calls, from cold caches, are pinned too: a
    # box filter that skips a different set of pairs fails even where the
    # conflicts still match.
    kernel_calls = 0

    def counted(*args):
        nonlocal kernel_calls
        kernel_calls += 1
        return cylinder_unsafe_interval(*args)

    monkeypatch.setattr(geometry3d, "cylinder_unsafe_interval", counted)
    rows = []
    for k in range(32):
        world, agents = load_instance(PLAN_GRID / f"grid_{k:03d}.json")
        res = ccbs_solve(world, agents, SolveLimits(max_wall_time=math.inf, max_expansions=20))
        st = res.stats
        rows.append([
            res.status,
            res.detail,
            None if res.solution is None else res.solution.cost.hex(),
            st.expansions,
            st.cardinal,
            st.semi_cardinal,
            st.generated,
            st.bypasses,
            st.replans,
            st.replans_reused,
            None if st.lower_bound is None else float(st.lower_bound).hex(),
        ])
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == "5756e4afe6baa0f0a9f278558e95fcee7c14493dca9c8cb33f545e58d72fa017", rows
    assert kernel_calls == 11493


def test_each_distinct_conflict_is_branched_once(scenario_dir, monkeypatch):
    calls = []

    def counted(conflict, world, bodies):
        calls.append(conflict)
        return branch(conflict, world, bodies)

    monkeypatch.setattr(ccbs, "branch", counted)
    # (expansions, branches_reused, branch calls): classification looks up the
    # constraints of conflicts that are never branched on, too
    cases = [(TestEightAgents().instance(), (18, 34, 20)), (load_instance(scenario_dir / "swarm_8.json"), (146, 203, 20))]
    for (world, agents), want in cases:
        calls.clear()
        stats = ccbs_solve(world, agents).stats
        assert (stats.expansions, stats.branches_reused, len(calls)) == want
        assert len(calls) == len(set(calls))


def test_solver_timers_are_parts_of_the_wall_time():
    walled = (GridWorld((3, 3, 1), 0.5, frozenset({(1, 2, 0), (2, 1, 0)})),
              [AgentSpec(0, (0, 0, 0), (0, 2, 0), BODY, 0.5), AgentSpec(1, (2, 2, 0), (0, 1, 0), BODY, 0.5)])
    cases = [
        (TestEightAgents().instance(), SolveLimits(), SOLVED),
        (load_instance(PLAN_GRID / "grid_015.json"), SolveLimits(max_wall_time=math.inf, max_expansions=30),
         LIMIT_EXCEEDED),
        (walled, SolveLimits(), NO_SOLUTION),
    ]
    for (world, agents), limits, status in cases:
        res = ccbs_solve(world, agents, limits)
        st = res.stats
        assert res.status == status
        timers = (st.sipp_s, st.detect_s, st.branch_s)
        assert all(t >= 0.0 for t in timers), st
        assert sum(timers) <= st.wall_time, st
        if status != NO_SOLUTION:
            assert st.sipp_s > 0.0 and st.detect_s > 0.0 and st.branch_s > 0.0, st
            assert 1 <= st.peak_open <= st.generated, st
    # the dense instance's open list peaks at 11 of its 21 generated nodes
    assert ccbs_solve(*TestEightAgents().instance()).stats.peak_open == 11


SOLVE_TIMES = ("wall_time", "sipp_s", "detect_s", "branch_s")
DENSE = Path(__file__).resolve().parents[1] / "perfbench" / "inputs" / "plan_dense.json"


def test_solver_digest_is_pinned(cold_caches):
    # Status, detail, every SolveStats counter, the bound and every waypoint as
    # float hex over the 32 plan-grid inputs at 200 expansions, plan_dense and
    # the plateau inputs grid_009/grid_026 at 3,000, with no wall limit, from
    # cold caches: a change that claims the same solves must keep every bit of them.
    cases = [(PLAN_GRID / f"grid_{k:03d}.json", 200) for k in range(32)]
    cases += [(DENSE, 3000), (PLAN_GRID / "grid_009.json", 3000), (PLAN_GRID / "grid_026.json", 3000)]
    rows = []
    for path, budget in cases:
        world, agents = load_instance(path)
        res = ccbs_solve(world, agents, SolveLimits(max_wall_time=math.inf, max_expansions=budget))
        st = res.stats
        counters = [getattr(st, f.name) for f in dataclasses.fields(st)
                    if f.name not in SOLVE_TIMES and f.name != "lower_bound"]
        plans = [] if res.solution is None else [
            [p.agent, [[v.hex() for v in wp] for wp in p.waypoints]] for p in res.solution.plans]
        bound = None if st.lower_bound is None else float(st.lower_bound).hex()
        rows.append([path.stem, budget, res.status, res.detail, counters, bound, plans])
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == "6a8c991ef3210279a0ec1d50c9ea0e28eb5ab9eb5d1e0ba4573a7240fbef80a4", rows
