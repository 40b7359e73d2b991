"""Timed plans: interpolation, dual-check validation, plan file round-trips."""

import dataclasses
import hashlib
import json
import math
import pickle
import random

import numpy as np
import pytest

from mapflight.ccbs import ccbs_solve
from mapflight.geometry3d import CylinderBody
from mapflight.plan import (
    TimedPlan,
    load_plans,
    save_plans,
    segment_cells,
    validate,
)
from mapflight.world import AgentSpec, GridWorld, InputError, load_instance

from oracles import motions_reference, position_at, timed_plan_reference

BODY = CylinderBody(0.25, 1.0)


def spec(aid, start, goal, speed=0.5, body=BODY):
    return AgentSpec(aid, start, goal, body, speed)


class TestTimedPlan:
    def test_interpolation_and_clamping(self):
        p = TimedPlan(0, ((0.0, 0.0, 0.0, 0.0), (2.0, 0.0, 0.0, 4.0), (2.0, 2.0, 0.0, 8.0)))
        got = p.positions_at([2.0, 6.0, -1.0, 99.0])
        assert got.shape == (4, 3)
        assert got[0].tolist() == pytest.approx([1.0, 0.0, 0.0])
        assert got[1].tolist() == pytest.approx([2.0, 1.0, 0.0])
        assert got[2].tolist() == pytest.approx([0.0, 0.0, 0.0])  # held at start
        assert got[3].tolist() == pytest.approx([2.0, 2.0, 0.0])  # parked at goal
        assert p.end_time == 8.0

    def test_positions_at_is_the_scalar_lookup_bit_for_bit(self):
        rng = random.Random(26)
        coordinate = lambda: rng.choice((-0.0, 0.0, rng.uniform(-3.0, 3.0), rng.uniform(0.0, 1e-3)))
        for agent in range(60):
            point, t = (coordinate(), coordinate(), coordinate()), 0.0
            wps = [(*point, t)]
            for _ in range(rng.randrange(6)):
                t += rng.choice((rng.uniform(1e-3, 3.0), 0.1, 1 / 3))
                if rng.random() < 0.6:  # else wait where it is
                    point = (coordinate(), coordinate(), coordinate())
                wps.append((*point, t))
            plan = TimedPlan(agent, tuple(wps))
            times = [wp[3] for wp in wps]
            ts = times + [(a + b) / 2 for a, b in zip(times, times[1:])]
            ts += [-1.0, -0.0, -1e-300, times[-1] + 1e-9, times[-1] + 5.0, 1e12]
            ts += [rng.uniform(-0.5, times[-1] + 0.5) for _ in range(20)]
            got = plan.positions_at(ts)
            assert got.shape == (len(ts), 3)
            for t, row in zip(ts, got.tolist()):
                assert [v.hex() for v in row] == [v.hex() for v in position_at(plan, t)], (agent, t)

    @pytest.mark.parametrize(
        "wps,match",
        [
            # an explicit id keeps the name a case had when its match was an earlier message
            ((), "at least one waypoint"),
            pytest.param(((0.0, 0.0, 0.0),), r"waypoint 0: expected \[x, y, z, t\] numbers",
                         id="wps1-four finite numbers"),
            pytest.param(((0.0, 0.0, math.inf, 0.0),), "motion from waypoint 0: motion endpoints and t0 must be finite",
                         id="wps2-four finite numbers"),
            (((0.0, 0.0, 0.0, 0.5),), "must have t = 0"),
            pytest.param(((0.0, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0)), r"motion from waypoint 0: .* t0 < t1",
                         id="wps4-not after"),
            pytest.param(((0.0, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 2.0), (2.0, 0.0, 0.0, 1.0)),
                         r"motion from waypoint 1: .* t0 < t1", id="wps5-not after"),
            pytest.param(((0.0, 0.0, 10**400, 0.0),), "beyond the float range", id="huge-int"),
            pytest.param(((0.0, 0.0, None, 0.0),), r"expected \[x, y, z, t\] numbers, got \(0.0, 0.0, None",
                         id="wps7-rows of finite numbers"),
            # float() takes these; the number rule does not
            pytest.param(((0.0, 0.0, True, 0.0),), r"expected \[x, y, z, t\] numbers, got \(0.0, 0.0, True", id="bool"),
            pytest.param(((0.0, 0.0, "1.5", 0.0),), r"expected \[x, y, z, t\] numbers, got \(0.0, 0.0, '1.5'", id="str"),
            pytest.param(((0.0, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0, math.inf)), "only a wait may have an infinite end time",
                         id="move-to-inf"),
        ],
    )
    def test_rejects_malformed_waypoints(self, wps, match):
        with pytest.raises(ValueError, match=match):
            TimedPlan(0, wps)

    def test_a_float_subclass_is_a_number(self):
        wps = ((0.25, 0.25, 0.75, 0.0), (0.75, 0.25, 0.75, 1.0))
        plan = TimedPlan(0, tuple(tuple(np.float64(v) for v in wp) for wp in wps))
        assert plan == TimedPlan(0, wps)
        assert all(type(v) is float for wp in plan.waypoints for v in wp)

    def test_rejects_what_the_earlier_rules_rejected_and_bool_and_str(self):
        # fixed-seed mutations of valid plans, fed to the constructor and to the
        # earlier per-waypoint loops alike
        rng = random.Random(19)
        bad_values = [math.nan, math.inf, -math.inf, 10**400, True, False, "1.5", "x"]
        outcomes = {True: 0, False: 0}
        for case in range(3000):
            t = 0
            wps = []
            for _ in range(rng.randrange(1, 5)):
                wps.append([rng.choice([rng.uniform(-2.0, 2.0), rng.randrange(-2, 3), -0.0]) for _ in range(3)] + [t])
                t += rng.choice([1, 0.5, rng.uniform(0.01, 2.0)])
            row = rng.randrange(len(wps))
            kind = rng.randrange(7)
            if kind == 0:
                wps[row][rng.randrange(4)] = rng.choice(bad_values)
            elif kind == 1:
                wps[row] = rng.choice([wps[row][:3], wps[row] + [0.0], []])
            elif kind == 2 and row > 0:
                wps[row][3] = wps[row - 1][3] - rng.choice([0.0, 0.5, 1e-9])
            elif kind == 3:
                wps[0][3] = rng.choice([0.5, -0.5, 1e-300, -0.0])
            elif kind == 4:
                wps = []
            try:
                want = timed_plan_reference(0, wps)
            except ValueError:
                want = None
            try:
                plan = TimedPlan(0, wps)
            except ValueError:
                plan = None
            if any(isinstance(v, (bool, str)) for wp in wps for v in wp):
                assert plan is None, (case, wps)
                continue
            assert (plan is None) == (want is None), (case, wps)
            if plan is not None:
                assert [[float.hex(v) for v in wp] for wp in plan.waypoints] == [[float.hex(v) for v in wp] for wp in want]
                assert plan.motions == motions_reference(plan)
            outcomes[plan is None] += 1
        assert min(outcomes.values()) >= 1000, outcomes

    @pytest.mark.parametrize("agent", [-1, True, 1.0, "0", 2**63, 10**19, 10**400])
    def test_rejects_agent_ids_outside_int64(self, agent):
        # the pose log and the error series store agent ids in int64 columns
        with pytest.raises(ValueError, match="agent id must be a non-negative integer below 2"):
            TimedPlan(agent, ((0.0, 0.0, 0.0, 0.0),))

    def test_hash_is_the_hash_of_agent_and_waypoints(self):
        # the hash is computed once; equal plans must still hash equal
        ints = TimedPlan(3, ((0, 0, 0, 0), (1, 0, 0, 2), (1, 1, 0, 4)))
        floats = TimedPlan(3, ((0.0, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 2.0), (1.0, 1.0, 0.0, 4.0)))
        assert ints == floats and hash(ints) == hash(floats)
        assert hash(floats) == hash((floats.agent, floats.waypoints))
        assert TimedPlan(4, floats.waypoints) != floats
        for copy in (pickle.loads(pickle.dumps(floats)), dataclasses.replace(floats)):
            assert copy == floats and hash(copy) == hash(floats)
        moved = dataclasses.replace(floats, agent=5)
        assert hash(moved) == hash((5, floats.waypoints))
        with pytest.raises(dataclasses.FrozenInstanceError):
            floats.agent = 7


class TestSegmentCells:
    def test_axis_crossing(self):
        w = GridWorld((3, 3, 1), 1.0)
        got = set(segment_cells(w, (0.5, 0.5, 0.5), (1.5, 0.5, 0.5)))
        assert got == {(0, 0, 0), (1, 0, 0)}

    def test_corner_crossing_is_conservative(self):
        w = GridWorld((3, 3, 1), 1.0)
        got = set(segment_cells(w, (0.5, 0.5, 0.5), (1.5, 1.5, 0.5)))
        # grazing the shared corner counts for all four cells around it
        assert got == {(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)}


class TestValidateBookkeeping:
    def world(self):
        return GridWorld((4, 4, 1), 0.5)

    def straight_plan(self, aid, y):
        return TimedPlan(aid, ((0.25, y, 0.25, 0.0), (1.75, y, 0.25, 3.0)))

    def test_duplicate_plan_ids_rejected(self):
        w = self.world()
        plans = [self.straight_plan(0, 0.25), TimedPlan(0, ((0.25, 1.75, 0.25, 0.0), (1.75, 1.75, 0.25, 3.0)))]
        specs = [spec(0, (0, 0, 0), (3, 0, 0))]
        with pytest.raises(ValueError, match="duplicate plan agent ids"):
            validate(plans, specs, w)

    def test_unknown_and_unplanned_agents_rejected(self):
        w = self.world()
        specs = [spec(0, (0, 0, 0), (3, 0, 0)), spec(1, (0, 3, 0), (3, 3, 0))]
        with pytest.raises(ValueError, match="absent from the instance"):
            validate([self.straight_plan(7, 0.25)], [specs[0]], w)
        with pytest.raises(ValueError, match="without plans"):
            validate([self.straight_plan(0, 0.25)], specs, w)


class TestValidateChecks:
    def test_clean_plans_pass(self):
        w = GridWorld((4, 4, 1), 0.5)
        plans = [
            TimedPlan(0, ((0.25, 0.25, 0.25, 0.0), (1.75, 0.25, 0.25, 3.0))),
            TimedPlan(1, ((0.25, 1.75, 0.25, 0.0), (1.75, 1.75, 0.25, 3.0))),
        ]
        specs = [spec(0, (0, 0, 0), (3, 0, 0)), spec(1, (0, 3, 0), (3, 3, 0))]
        report = validate(plans, specs, w)
        assert report.ok and not report.violations and report.checked_pairs == 1
        assert report.summary() == "OK (1 agent pairs checked)"

    def test_head_on_swap_is_a_pairwise_violation(self):
        w = GridWorld((3, 1, 1), 0.5)
        plans = [
            TimedPlan(0, ((0.25, 0.25, 0.25, 0.0), (1.25, 0.25, 0.25, 2.0))),
            TimedPlan(1, ((1.25, 0.25, 0.25, 0.0), (0.25, 0.25, 0.25, 2.0))),
        ]
        specs = [spec(0, (0, 0, 0), (2, 0, 0)), spec(1, (2, 0, 0), (0, 0, 0))]
        report = validate(plans, specs, w)
        assert not report.ok
        v = report.violations[0]
        assert v.kind == "pairwise" and v.pair == (0, 1)
        # bodies overlap once the planar gap drops below 0.5 m, at t = 0.5
        assert v.time == pytest.approx(0.5, abs=1e-6)
        assert v.min_separation_found == pytest.approx(0.0, abs=1e-3)
        assert "[pairwise]" in report.summary()

    def test_obstacle_crossing_is_a_static_violation(self):
        w = GridWorld((3, 1, 1), 0.5, frozenset({(1, 0, 0)}))
        plans = [TimedPlan(0, ((0.25, 0.25, 0.25, 0.0), (1.25, 0.25, 0.25, 2.0)))]
        report = validate(plans, [spec(0, (0, 0, 0), (2, 0, 0))], w)
        kinds = [v.kind for v in report.violations]
        assert kinds == ["static"]
        assert "an obstacle" in report.violations[0].detail

    def test_wrong_segment_speed_is_a_kinematic_violation(self):
        w = GridWorld((3, 1, 1), 0.5)
        # 1.0 m in 1.0 s = twice the declared 0.5 m/s
        plans = [TimedPlan(0, ((0.25, 0.25, 0.25, 0.0), (1.25, 0.25, 0.25, 1.0)))]
        report = validate(plans, [spec(0, (0, 0, 0), (2, 0, 0))], w)
        kinds = [v.kind for v in report.violations]
        assert kinds == ["kinematic"]

    def test_wrong_endpoints_are_endpoint_violations(self):
        w = GridWorld((3, 1, 1), 0.5)
        # a plan that stops a cell short of its goal, and one that takes off a cell past its start
        for waypoints, vertex, t in [(((0.25, 0.25, 0.25, 0.0), (0.75, 0.25, 0.25, 1.0)), "goal vertex", 1.0),
                                     (((0.75, 0.25, 0.25, 0.0), (1.25, 0.25, 0.25, 1.0)), "start vertex", 0.0)]:
            report = validate([TimedPlan(0, waypoints)], [spec(0, (0, 0, 0), (2, 0, 0))], w)
            kinds = [v.kind for v in report.violations]
            assert kinds == ["endpoint"]
            assert vertex in report.violations[0].detail and report.violations[0].time == t

    def test_parked_goal_is_protected(self):
        # agent 0 reaches its goal at t = 1 and parks; agent 1 flies through
        # that spot at t = 3 — the parked tail must still count as occupied
        w = GridWorld((2, 5, 1), 0.5)
        plans = [
            TimedPlan(0, ((0.25, 0.25, 0.25, 0.0), (0.75, 0.25, 0.25, 1.0))),
            TimedPlan(1, ((0.75, 2.25, 0.25, 0.0), (0.75, 0.25, 0.25, 4.0))),
        ]
        specs = [
            spec(0, (0, 0, 0), (1, 0, 0)),
            spec(1, (1, 4, 0), (1, 0, 0)),
        ]
        report = validate(plans, specs, w)
        assert [(v.kind, v.pair) for v in report.violations] == [("pairwise", (0, 1))]
        # the gap to the parked agent drops below 0.5 m at t = 3
        assert report.violations[0].time == pytest.approx(3.0, abs=1e-6)

    def test_overlapping_parked_goals_are_reported_once(self):
        # both agents sit 0.3 m apart from t = 0 for good: the analytic window
        # never ends, and the validator measures it only up to its own horizon
        w = GridWorld((2, 1, 1), 0.3)
        plans = [TimedPlan(0, ((0.15, 0.15, 0.15, 0.0),)), TimedPlan(1, ((0.45, 0.15, 0.15, 0.0),))]
        specs = [spec(0, (0, 0, 0), (0, 0, 0)), spec(1, (1, 0, 0), (1, 0, 0))]
        report = validate(plans, specs, w)
        assert [(v.kind, v.pair, v.time) for v in report.violations] == [("pairwise", (0, 1), 0.0)]
        assert report.violations[0].min_separation_found == pytest.approx(0.3)

    def test_a_wait_until_t_1e12_after_the_last_move_validates(self, scenario_dir):
        # the sampled sweep ends 1 s after both bodies are at rest, not after the
        # wait; up to 1e12 s at 1 ms it once asked numpy for 7.11 PiB
        world, agents = load_instance(scenario_dir / "swarm_2.json")
        plans = list(ccbs_solve(world, agents).solution.plans)
        plans[0] = TimedPlan(0, plans[0].waypoints + (plans[0].waypoints[-1][:3] + (1e12,),))
        assert validate(plans, agents, world).ok

    def test_a_trailing_wait_leaves_an_overlap_at_rest_reported_as_it_was(self):
        # agent 1 ends 0.5 m from the parked agent 0, inside their 0.6 m r_sum, from t = 2.8 on
        w = GridWorld((2, 5, 1), 0.5)
        body = CylinderBody(0.3, 1.0)
        parked = TimedPlan(0, ((0.25, 0.25, 0.25, 0.0), (0.75, 0.25, 0.25, 1.0)))
        flown = ((0.75, 2.25, 0.25, 0.0), (0.75, 0.75, 0.25, 3.0))
        specs = [spec(0, (0, 0, 0), (1, 0, 0), body=body), spec(1, (1, 4, 0), (1, 1, 0), body=body)]
        reports = []
        for waypoints in (flown, flown + ((0.75, 0.75, 0.25, 1e12),)):
            report = validate([parked, TimedPlan(1, waypoints)], specs, w)
            reports.append([(v.kind, v.time.hex(), v.pair, v.min_separation_found.hex(), v.detail)
                            for v in report.violations])
        assert reports[0] == reports[1]
        assert [(kind, float.fromhex(t), pair) for kind, t, pair, _, _ in reports[0]] == [
            ("pairwise", pytest.approx(2.8, abs=1e-6), (0, 1))]


def colliding_plan_sets(n_sets=400, seed=24):
    """Fixed-seed random walks of 2-4 agents on a 4x4x2 grid at three scales,
    with mixed radii (one a hair over a quarter cell, for sub-millisecond
    grazes) and start delays; most of the sets collide."""
    rng = random.Random(seed)
    steps = [(dx, dy, dz) for dx in (-1, 0, 1) for dy in (-1, 0, 1) for dz in (-1, 0, 1) if (dx, dy, dz) != (0, 0, 0)]
    cells = [(i, j, k) for i in range(4) for j in range(4) for k in range(2)]
    for n in range(n_sets):
        scale = (1.0, 1e-3, 2.0**-10)[n % 3]
        world = GridWorld((4, 4, 2), 0.5 * scale)
        plans, specs = [], []
        for aid in range(rng.randint(2, 4)):
            speed = rng.choice([0.5, 0.8, 1.3]) * scale
            body = CylinderBody(rng.choice([0.1, 0.2, 0.25, 0.25 + 1e-8, 0.3]) * scale, rng.choice([0.4, 1.0]) * scale)
            start = cell = rng.choice(cells)
            x, y, z = world.center(cell)
            t = 0.0
            wps = [(x, y, z, t)]
            delay = rng.choice([0.0, 0.0, 0.5, 1.7])
            if delay:
                t += delay
                wps.append((x, y, z, t))
            for _ in range(rng.randint(1, 6)):
                cell = rng.choice([c for c in (tuple(a + b for a, b in zip(cell, s)) for s in steps) if world.in_bounds(c)])
                p = world.center(cell)
                t += math.dist((x, y, z), p) / speed
                x, y, z = p
                wps.append((x, y, z, t))
            plans.append(TimedPlan(aid, tuple(wps)))
            specs.append(AgentSpec(aid, start, cell, body, speed))
        yield plans, specs, world


class TestPinnedReports:
    """The validator's reports, bit for bit: a refactor of either check must
    leave every time, pair, separation and detail where it was."""

    # sha256 over the fixed-seed corpus, recorded before the pair check was
    # folded onto one sampling helper
    CORPUS_SHA256 = "1eba4d9415463c14bd08a7cf3a0ab2f8c366779b142ec91be299d5fda3c404f8"

    def test_fixed_seed_corpus_reports_are_pinned(self):
        digest = hashlib.sha256()
        failing = pairwise = analytic = 0
        for plans, specs, world in colliding_plan_sets():
            report = validate(plans, specs, world)
            failing += not report.ok
            digest.update(repr(report.checked_pairs).encode())
            for v in report.violations:
                pairwise += v.kind == "pairwise"
                analytic += v.detail == "(analytic)"
                sep = None if v.min_separation_found is None else v.min_separation_found.hex()
                digest.update(repr((v.kind, v.time.hex(), v.pair, v.agent, sep, v.detail)).encode())
        assert (failing, pairwise, analytic) == (315, 632, 13)
        assert digest.hexdigest() == self.CORPUS_SHA256

    def test_overlap_shorter_than_a_sampling_step_is_caught_analytically(self):
        # agent 1 passes the parked agent 0 at a planar gap of 0.5 m, 1e-7 m
        # inside r_sum, at t = 1.0005: the overlap lasts about 0.63 ms and sits
        # between two 1 ms samples, so only the analytic check sees it
        w = GridWorld((3, 2, 1), 0.5)
        plans = [
            TimedPlan(0, ((0.75, 0.25, 0.25, 0.0),)),
            TimedPlan(1, ((0.25, 0.75, 0.25, 0.0), (0.25, 0.75, 0.25, 0.5005), (1.25, 0.75, 0.25, 1.5005))),
        ]
        r_sum = 0.25 + (0.25 + 1e-7)
        specs = [spec(0, (1, 0, 0), (1, 0, 0), 1.0, CylinderBody(0.25, 1.0)),
                 spec(1, (0, 1, 0), (2, 1, 0), 1.0, CylinderBody(0.25 + 1e-7, 1.0))]
        report = validate(plans, specs, w)
        assert [(v.kind, v.pair, v.detail) for v in report.violations] == [("pairwise", (0, 1), "(analytic)")]
        v = report.violations[0]
        half = math.sqrt(r_sum**2 - 0.25)
        assert 2 * half < 1e-3
        assert v.time == pytest.approx(1.0005 - half, abs=1e-9)
        assert v.min_separation_found < r_sum


class TestPlanFiles:
    def make(self):
        specs = [
            spec(0, (0, 0, 0), (2, 0, 0), speed=0.4, body=CylinderBody(0.3, 0.8)),
            spec(1, (0, 1, 0), (2, 1, 0)),
        ]
        plans = [
            TimedPlan(0, ((0.25, 0.25, 0.25, 0.0), (1.25, 0.25, 0.25, 2.5))),
            TimedPlan(1, ((0.25, 0.75, 0.25, 0.0), (1.25, 0.75, 0.25, 2.0))),
        ]
        return plans, specs

    def test_roundtrip(self, tmp_path):
        plans, specs = self.make()
        path = tmp_path / "plans.json"
        save_plans(plans, specs, path)
        ps = load_plans(path)
        assert ps.plans == tuple(plans)
        assert ps.bodies == {0: CylinderBody(0.3, 0.8), 1: BODY}
        assert ps.speeds == {0: 0.4, 1: 0.5}

    def test_defaults_fill_missing_body_fields(self, tmp_path):
        path = tmp_path / "plans.json"
        path.write_text(
            json.dumps({"plans": [{"agent": 0, "waypoints": [[0, 0, 0, 0], [1, 0, 0, 2]]}]}),
            encoding="utf-8",
        )
        ps = load_plans(path)
        assert ps.bodies[0] == CylinderBody(0.25, 1.0) and ps.speeds[0] == 0.5

    def write(self, tmp_path, doc):
        path = tmp_path / "plans.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return path

    def base_doc(self):
        return {"plans": [{"agent": 0, "waypoints": [[0, 0, 0, 0], [1, 0, 0, 2]]}]}

    def test_not_json(self, tmp_path):
        path = tmp_path / "plans.json"
        path.write_text("[", encoding="utf-8")
        with pytest.raises(InputError, match="not valid JSON"):
            load_plans(path)

    @pytest.mark.parametrize(
        "mutate,match",
        [
            (lambda d: d.update(extra=1), "exactly one key 'plans'"),
            (lambda d: d.update(plans=[]), "non-empty list"),
            (lambda d: d["plans"][0].update(bogus=1), "unknown keys"),
            (lambda d: d["plans"][0].pop("agent"), "missing required key 'agent'"),
            (lambda d: d["plans"][0].update(agent=-1), "non-negative integer"),
            (lambda d: d["plans"][0].update(agent=2**63), rf"plans\[0\]: agent id .* got {2**63}"),
            (lambda d: d["plans"].append(dict(d["plans"][0])), "duplicate agent id"),
            (lambda d: d["plans"][0].update(waypoints=[]), "non-empty list"),
            (lambda d: d["plans"][0].update(waypoints=[[0, 0, 0]]), r"expected \[x, y, z, t\]"),
            (lambda d: d["plans"][0].update(waypoints=[[0, 0, 0, 1], [1, 0, 0, 2]]), "first waypoint must have t = 0"),
            pytest.param(lambda d: d["plans"][0].update(waypoints=[[0, 0, 0, 0], [1, 0, 0, 0]]),
                         r"plans\[0\]: agent 0: the motion from waypoint 0: .* t0 < t1",
                         id="<lambda>-not after previous"),
            (lambda d: d["plans"][0].update(radius=-1), "radius must be a positive finite number"),
            (lambda d: d["plans"][0].update(height=True), "height must be a positive finite number"),
            (lambda d: d["plans"][0].update(speed=10**400), "positive finite number"),
            pytest.param(lambda d: d["plans"][0]["waypoints"][1].__setitem__(0, math.nan), "endpoints and t0 must be finite",
                         id="<lambda>-four finite numbers"),
            pytest.param(lambda d: d["plans"][0]["waypoints"][1].__setitem__(0, 10**400),
                         "waypoint 1: an integer beyond the float range", id="<lambda>-rows of finite numbers"),
            (lambda d: d["plans"][0]["waypoints"][1].__setitem__(0, True), r"numbers, got \[True"),
        ],
    )
    def test_rejects_malformed_documents(self, tmp_path, mutate, match):
        doc = self.base_doc()
        mutate(doc)
        with pytest.raises(InputError, match=match):
            load_plans(self.write(tmp_path, doc))
