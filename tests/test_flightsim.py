"""Simulator unit behavior: dynamics, noise, logging cadence, error metrics."""

import collections
import hashlib
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import oracles
import pytest

from mapflight import cli, flightsim
from mapflight.ccbs import ccbs_solve
from mapflight.executor import HighLevelGoto, PositionSetpoint, VelocitySetpoint
from mapflight.flightsim import (
    BASIS_ACTUAL,
    BASIS_ESTIMATED,
    METHODS,
    ErrorReport,
    POSE_DTYPE,
    PoseLog,
    SimConfig,
    _Fleet,
    _mean,
    MAX_LOG_RECORDS,
    SEED_FREE_METHODS,
    _refine,
    check_flight_size,
    error_metrics,
    run_execution,
    run_executions,
)
from mapflight.plan import TimedPlan, load_plans
from mapflight.world import InputError, load_instance

REST = ((0.0, 0.0, 0.0), (0.0, 0.0, 0.0))  # (position, velocity)


def one_tick(state, command, dt, config, now=0.0, anchor=None, activated=None):
    """(position, velocity) after one tick of a one-row fleet that starts at `state`;
    the command is activated while the row sits at `anchor` (default: the state)."""
    fleet = _Fleet([state[0] if anchor is None else anchor], [state[1]], config, dt)
    if command is not None:
        fleet.activate([(0, command)], command.issue_time if activated is None else activated)
    fleet.pos = np.array([state[0]], dtype=np.float64)
    fleet.step(now)
    return tuple(fleet.pos[0].tolist()), tuple(fleet.vel[0].tolist())


def straight_plans():
    return [
        TimedPlan(0, ((0.25, 0.25, 0.25, 0.0), (1.75, 0.25, 0.25, 3.0))),
        TimedPlan(1, ((0.25, 0.75, 0.25, 0.0), (1.75, 0.75, 0.25, 3.0))),
    ]


class TestSimConfig:
    def test_defaults_are_valid(self):
        cfg = SimConfig()
        assert cfg.log_every_ticks == 2

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            (dict(tick=0.0), "tick must be a positive number"),
            (dict(noise_sigma=-0.1), "noise_sigma"),
            (dict(latency=-0.1), "latency"),
            (dict(tick=0.02, log_period=0.01), "at least one tick"),
            (dict(tick=0.003, log_period=0.01), "integer multiple"),
            (dict(vll_cruise_speed=0.0), "vll_cruise_speed"),
            (dict(arena_min=(0.0, 0.0, 0.0), arena_max=(0.0, 2.0, 2.0)), "below arena_max"),
            (dict(noise_sigma=float("nan")), "noise_sigma must be a finite number"),
            (dict(noise_sigma=float("inf")), "noise_sigma must be a finite number"),
            (dict(latency=float("nan")), "latency must be a finite number"),
            (dict(latency=float("inf")), "latency must be a finite number"),
            (dict(seed=-1), "seed must be a non-negative integer"),
            (dict(seed=1.5), "seed must be a non-negative integer"),
            (dict(tick=True), "tick must be a positive number"),
            (dict(log_period=True), "log_period must be a positive number"),
            (dict(max_speed=True), "max_speed must be a positive number"),
            (dict(noise_sigma=False), "noise_sigma must be a finite number"),
            (dict(vll_cruise_speed=math.inf), "vll_cruise_speed must be None or a finite number"),
            (dict(vll_cruise_speed=math.nan), "vll_cruise_speed must be None or a finite number"),
            (dict(vll_cruise_speed=True), "vll_cruise_speed must be None or a finite number"),
            (dict(arena_min=5), "arena_min must be three finite numbers"),
            (dict(arena_min=("a", 0, 0)), "arena_min must be three finite numbers"),
            (dict(arena_min=(0.0, 0.0), arena_max=(1.0, 1.0)), "arena_min must be three finite numbers"),
            (dict(arena_max=(2.0, 2.0, math.inf)), "arena_max must be three finite numbers"),
            (dict(arena_max=(2.0, 2.0, True)), "arena_max must be three finite numbers"),
            (dict(command_period=1e-9), "command_period must be at least one tick"),
            # the logs write t to the millisecond: 0.5 ms would repeat times, 1.5 ms shift them
            (dict(tick=0.0005, log_period=0.0005), "whole number of milliseconds"),
            (dict(tick=0.0005, log_period=0.0015), "whole number of milliseconds"),
        ],
    )
    def test_rejects_bad_values(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            SimConfig(**kwargs)

    def test_arena_bounds_become_float_tuples(self):
        cfg = SimConfig(arena_min=[0, 0, 0], arena_max=[2, 2, 2])
        assert cfg.arena_min == (0.0, 0.0, 0.0) and type(cfg.arena_min[0]) is float
        assert cfg == SimConfig()


class TestVehicleStep:
    def test_exact_exponential_velocity_relaxation(self):
        cfg = SimConfig(tau=0.3)
        cmd = VelocitySetpoint((1.0, 0.0, 0.0), issue_time=0.0)
        pos, vel = one_tick(REST, cmd, dt=0.3, config=cfg)
        # closed forms for a first-order lag over exactly one time constant
        assert vel[0] == pytest.approx(1.0 - math.exp(-1.0), abs=1e-15)
        assert pos[0] == pytest.approx(0.3 * math.exp(-1.0), abs=1e-15)
        assert vel[1] == 0.0 and pos[2] == 0.0

    def test_two_half_steps_equal_one_full_step(self):
        # the update is the exact flow of the ODE, so stepping is a semigroup
        cfg = SimConfig(tau=0.3)
        cmd = VelocitySetpoint((0.7, -0.2, 0.3), issue_time=0.0)
        once = one_tick(REST, cmd, dt=0.2, config=cfg)
        twice = one_tick(one_tick(REST, cmd, dt=0.1, config=cfg), cmd, dt=0.1, config=cfg)
        for a, b in zip(once[0] + once[1], twice[0] + twice[1]):
            assert a == pytest.approx(b, abs=1e-12)

    def test_no_command_decays_to_hover(self):
        cfg = SimConfig(tau=0.3)
        _, vel = one_tick(((0.0, 0.0, 0.0), (1.0, 0.0, 0.0)), None, dt=0.3, config=cfg)
        assert vel[0] == pytest.approx(math.exp(-1.0), abs=1e-15)

    def test_commanded_speed_is_clamped(self):
        cfg = SimConfig(tau=0.05, max_speed=1.0)
        cmd = VelocitySetpoint((10.0, 0.0, 0.0), issue_time=0.0)
        state = REST
        for _ in range(100):
            state = one_tick(state, cmd, dt=0.05, config=cfg)
        assert state[1][0] == pytest.approx(1.0, abs=1e-6)

    def test_a_setpoint_whose_squared_speed_overflows_is_limited_and_no_other_row_moves(self):
        # (1e200, -1e200, 5e199) once read as speed inf and was scaled to 0: the
        # vehicle hovered; (1e154, 0, 0) squares to a finite 1e308 and is left to step
        cfg = SimConfig()
        setpoints = [(3.0, 4.0, 0.0), (1e154, 0.0, 0.0), (0.2, -0.1, 0.0), (1e200, -1e200, 5e199)]

        def stepped(rows):
            fleet = _Fleet([(0.0, 0.0, 0.0)] * len(rows), [(0.0, 0.0, 0.0)] * len(rows), cfg, cfg.tick)
            fleet.activate([(row, VelocitySetpoint(setpoints[i], 0.0)) for row, i in enumerate(rows)], 0.0)
            fleet.step(0.0)
            return fleet

        fleet = stepped(range(4))
        for i in range(3):
            alone = stepped([i])
            assert (fleet.pos[i].tobytes(), fleet.vel[i].tobytes()) == (alone.pos[0].tobytes(), alone.vel[0].tobytes())
        # from rest, one step leaves vel = commanded * (1 - decay)
        commanded = fleet.vel[3] / (1.0 - fleet.decay)
        assert commanded.tolist() == pytest.approx([2.0 / 3.0, -2.0 / 3.0, 1.0 / 3.0], abs=1e-12)
        assert math.hypot(*commanded.tolist()) <= cfg.max_speed * (1.0 + 1e-12)

    def test_position_setpoint_converges(self):
        cfg = SimConfig(tau=0.05, gain=5.0)
        cmd = PositionSetpoint((1.0, 0.0, 0.0), issue_time=0.0)
        state = REST
        for _ in range(2000):
            state = one_tick(state, cmd, dt=0.005, config=cfg)
        assert state[0][0] == pytest.approx(1.0, abs=1e-2)
        assert abs(state[1][0]) < 0.05


class TestKernelMatchesScalarUpdate:
    """The one-vehicle case of the array kernel, bit for bit against the update
    written out per axis with Python floats."""

    CFG = SimConfig(tau=0.3, gain=2.0, max_speed=1.0, goto_refine_rate=100.0)
    STATE = ((0.31, -0.72, 1.05), (0.12, -0.05, 0.33))
    DT = 1.5  # long enough that the velocity keeps the last bit of the commanded one

    @staticmethod
    def clamped(v, limit):
        norm = math.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])
        if norm <= limit:
            return v
        s = limit / norm
        return (v[0] * s, v[1] * s, v[2] * s)

    def feedback(self, target):
        p = self.STATE[0]
        g = self.CFG.gain
        return self.clamped((g * (target[0] - p[0]), g * (target[1] - p[1]), g * (target[2] - p[2])),
                            self.CFG.max_speed)

    def expected(self, c):
        decay = math.exp(-self.DT / self.CFG.tau)
        ramp = self.CFG.tau * (1.0 - decay)
        p, v = self.STATE
        return (
            tuple(p[k] + c[k] * self.DT + (v[k] - c[k]) * ramp for k in range(3)),
            tuple(c[k] + (v[k] - c[k]) * decay for k in range(3)),
        )

    def goto_commanded(self, goto, now, activated):
        anchor = (0.1, 0.2, 0.3)
        s = math.floor(max(now - activated, 0.0) * self.CFG.goto_refine_rate) / self.CFG.goto_refine_rate
        frac = min(s, goto.duration) / goto.duration
        refined = tuple(anchor[k] + (goto.target[k] - anchor[k]) * frac for k in range(3))
        got = one_tick(self.STATE, goto, self.DT, self.CFG, now=now, anchor=anchor, activated=activated)
        return got, self.feedback(refined)

    def assert_bits(self, got, want):
        assert [x.hex() for x in got[0] + got[1]] == [x.hex() for x in want[0] + want[1]]

    def test_velocity_below_clamp(self):
        cmd = VelocitySetpoint((0.3, -0.4, 0.2), issue_time=0.0)
        self.assert_bits(one_tick(self.STATE, cmd, self.DT, self.CFG), self.expected(cmd.velocity))

    def test_velocity_above_clamp(self):
        cmd = VelocitySetpoint((1.7, -2.3, 0.9), issue_time=0.0)
        want = self.expected(self.clamped(cmd.velocity, 1.0))
        assert want[1] != self.expected(cmd.velocity)[1]
        self.assert_bits(one_tick(self.STATE, cmd, self.DT, self.CFG), want)

    def test_position_setpoint(self):
        cmd = PositionSetpoint((0.9, -0.1, 1.2), issue_time=0.0)
        self.assert_bits(one_tick(self.STATE, cmd, self.DT, self.CFG), self.expected(self.feedback(cmd.target)))

    def test_goto_before_its_duration(self):
        goto = HighLevelGoto((0.8, -0.6, 1.4), duration=2.0, issue_time=0.0)
        got, c = self.goto_commanded(goto, now=1.0737, activated=0.5)
        self.assert_bits(got, self.expected(c))

    def test_goto_after_its_duration(self):
        goto = HighLevelGoto((0.8, -0.6, 1.4), duration=2.0, issue_time=0.0)
        got, c = self.goto_commanded(goto, now=4.0, activated=0.5)
        self.assert_bits(got, self.expected(c))

    def test_no_command(self):
        self.assert_bits(one_tick(self.STATE, None, self.DT, self.CFG), self.expected((0.0, 0.0, 0.0)))


def refine_row(command, anchor, activated, now, rate):
    """One row of the fleet's goto refinement."""
    row = _refine(np.array([anchor]), np.array([command.target]), np.array([command.duration]),
                  np.array([now - activated]), rate)
    return tuple(row[0].tolist())


class TestRefineGoto:
    GOTO = HighLevelGoto((1.0, 0.0, 0.0), duration=1.0, issue_time=0.0)

    def test_staircase_interpolation(self):
        anchor = (0.0, 0.0, 0.0)
        # below one refine step: still at the anchor
        assert refine_row(self.GOTO, anchor, 0.0, now=0.004, rate=100.0) == (0.0, 0.0, 0.0)
        # exactly at a step boundary
        assert refine_row(self.GOTO, anchor, 0.0, now=0.01, rate=100.0)[0] == pytest.approx(0.01)
        # mid-flight, rounded down to the last 10 ms step
        assert refine_row(self.GOTO, anchor, 0.0, now=0.5003, rate=100.0)[0] == pytest.approx(0.5)

    def test_clamps_at_the_target(self):
        got = refine_row(self.GOTO, (0.0, 0.0, 0.0), 0.0, now=2.5, rate=100.0)
        assert got == (1.0, 0.0, 0.0)

    def test_anchor_offset(self):
        got = refine_row(self.GOTO, (0.5, 0.5, 0.0), 1.0, now=1.5, rate=100.0)
        assert got[0] == pytest.approx(0.75) and got[1] == pytest.approx(0.25)


FLEET_FIELDS = ("pos", "vel", "velocity", "target", "tracking", "goto", "anchor", "duration", "activated",
                "n_tracking", "n_goto")


def fleet_bits(fleet):
    return {name: [x.hex() if isinstance(x, float) else x for x in np.ravel(getattr(fleet, name)).tolist()]
            for name in FLEET_FIELDS}


def test_batched_activation_matches_the_row_by_row_oracle():
    """Random ticks that mix all three command kinds, in no row order, each
    followed by a few steps; the fleets must agree bit for bit throughout."""
    rng = np.random.default_rng(5)
    cfg = SimConfig()
    rows = 12
    start = rng.uniform(0.0, 2.0, (rows, 3)).tolist()
    batched = _Fleet(start, [(0.0, 0.0, 0.0)] * rows, cfg, cfg.tick)
    reference = _Fleet(start, [(0.0, 0.0, 0.0)] * rows, cfg, cfg.tick)
    kinds_seen = set()
    n = 0
    for _ in range(60):
        t = n * cfg.tick
        arrivals = []
        for row in rng.permutation(rows)[: rng.integers(0, rows + 1)].tolist():
            xyz = tuple(rng.uniform(-3.0, 3.0, 3).tolist())  # velocities beyond max_speed included
            kind = rng.integers(3)
            if kind == 0:
                command = VelocitySetpoint(xyz, issue_time=t)
            elif kind == 1:
                command = PositionSetpoint(xyz, issue_time=t)
            else:
                command = HighLevelGoto(xyz, duration=rng.uniform(0.01, 0.5), issue_time=t)
            kinds_seen.add(type(command))
            arrivals.append((row, command))
        batched.activate(arrivals, t)
        oracles.activate_reference(reference, arrivals, t)
        assert fleet_bits(batched) == fleet_bits(reference)
        for _ in range(rng.integers(1, 4)):
            batched.step(n * cfg.tick)
            reference.step(n * cfg.tick)
            n += 1
        assert fleet_bits(batched) == fleet_bits(reference)
    assert len(kinds_seen) == 3


class TestLocalize:
    """The localization noise run_execution adds to every logged pose."""

    @staticmethod
    def noise(config):
        planset = load_plans(FIXTURES / "swarm_4.plans.json")
        log = run_execution(planset.plans, "bll", config, speeds=planset.speeds)
        assert len(log.records)
        return log, log.records["estimated"] - log.records["actual"]

    def test_seeded_streams_are_reproducible(self):
        log, noise = self.noise(SimConfig(seed=42))
        again, noise_again = self.noise(SimConfig(seed=42))
        _, other_seed = self.noise(SimConfig(seed=43))
        assert np.array_equal(log.records, again.records) and np.array_equal(noise, noise_again)
        assert not np.array_equal(noise[:8], other_seed[:8])
        # each vehicle draws from its own stream
        assert len({tuple(noise[k]) for k in range(4)}) == 4

    def test_noise_statistics(self):
        _, noise = self.noise(SimConfig())
        assert abs(noise.mean()) < 0.005
        assert 0.045 < noise.std() < 0.055

    def test_zero_sigma_is_exact(self):
        log, _ = self.noise(SimConfig(noise_sigma=0.0))
        assert np.array_equal(log.records["estimated"], log.records["actual"])


class TestRunExecution:
    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="unknown method"):
            run_execution(straight_plans(), "teleport")
        with pytest.raises(ValueError, match="no plans"):
            run_execution([], "bll")

    def test_rejects_two_plans_for_one_agent(self):
        # both plans once flew, and error_metrics read the log as one agent
        # logged twice per tick
        plans = [
            TimedPlan(0, ((0.25, 0.25, 0.25, 0.0), (1.25, 0.25, 0.25, 2.0))),
            TimedPlan(0, ((0.25, 1.25, 0.25, 0.0), (1.25, 1.25, 0.25, 2.0))),
        ]
        with pytest.raises(ValueError, match="duplicate plan agent ids"):
            run_execution(plans, "bll")
        with pytest.raises(ValueError, match="duplicate plan agent ids"):
            run_executions(plans, "vll", SimConfig(seed=0), 2)

    def test_logging_cadence_is_exact(self):
        log = run_execution(straight_plans(), "bll", SimConfig(seed=3))
        assert len(log.records)
        for t in log.records["t"].tolist():
            assert abs(t * 100.0 - round(t * 100.0)) < 1e-6
        # both agents appear at every logged timestamp
        by_t: dict[float, set[int]] = {}
        for t, agent in zip(log.records["t"].tolist(), log.records["agent"].tolist()):
            by_t.setdefault(t, set()).add(agent)
        assert all(agents == {0, 1} for agents in by_t.values())

    def test_runs_are_deterministic(self):
        logs = [run_execution(straight_plans(), "bll", SimConfig(seed=11)) for _ in range(3)]
        assert np.array_equal(logs[0].records, logs[1].records) and np.array_equal(logs[1].records, logs[2].records)
        assert logs[0].to_csv() == logs[1].to_csv() == logs[2].to_csv()
        a, b = error_metrics(logs[0]), error_metrics(logs[1])
        assert a.to_json_dict("h") == b.to_json_dict("h")

    def test_different_seeds_differ(self):
        a = run_execution(straight_plans(), "bll", SimConfig(seed=1))
        b = run_execution(straight_plans(), "bll", SimConfig(seed=2))
        assert not np.array_equal(a.records, b.records)

    def test_zero_noise_estimates_equal_actuals(self):
        log = run_execution(straight_plans(), "bll", SimConfig(noise_sigma=0.0))
        assert np.array_equal(log.records["estimated"], log.records["actual"])

    def test_incompletable_plan_hits_the_wall_cap(self):
        cfg = SimConfig(tick=0.01, log_period=0.1, max_speed=0.001, noise_sigma=0.0)
        log = run_execution(straight_plans(), "bll", cfg)
        # makespan 3 s -> cap at 16 s; the crawling vehicle never arrives
        assert not log.completed
        assert log.end_time > 16.0

    def test_vll_reaches_the_goal_box(self):
        cfg = SimConfig(noise_sigma=0.0, latency=0.0, tau=0.05)
        log = run_execution(straight_plans(), "vll", cfg)
        assert log.completed
        last = log.records[log.records["t"] == log.records["t"][-1]]
        final = dict(zip(last["agent"].tolist(), last["actual"].tolist()))
        for plan in straight_plans():
            got = final[plan.agent]
            assert max(abs(p - g) for p, g in zip(got, plan.goal_position)) <= cfg.vll_box_half_width + 1e-9

    def test_a_huge_vll_cruise_speed_flies_at_max_speed(self, monkeypatch):
        # at 1e200 m/s every setpoint once overflowed when squared, so the clamp
        # scaled it to 0 and the vehicles hovered to the wall cap; at 0.5 m/s a
        # vll chase settles into each goal box (at 1 m/s it overshoots the last)
        cfg = SimConfig(vll_cruise_speed=1e200, max_speed=0.5)
        commanded = []
        step = _Fleet.step

        def spy(fleet, now):
            vel = fleet.vel
            step(fleet, now)
            # the first-order lag: vel' = commanded + (vel - commanded) * decay
            commanded.append(((fleet.vel - vel * fleet.decay) / (1.0 - fleet.decay)).copy())

        monkeypatch.setattr(_Fleet, "step", spy)
        planset = load_plans(FIXTURES / "swarm_4.plans.json")
        log = run_execution(planset.plans, "vll", cfg, speeds=planset.speeds)
        assert log.completed
        speeds = np.sqrt((np.concatenate(commanded) ** 2).sum(axis=1))
        assert 0.99 * cfg.max_speed < speeds.max() <= cfg.max_speed * (1.0 + 1e-9)

    def test_command_sink_records_the_stream(self):
        sink: list = []
        plan = straight_plans()[0]
        run_execution([plan], "bll", SimConfig(seed=0, noise_sigma=0.0), command_sink=sink)
        assert sink and all(agent == 0 for agent, _ in sink)
        issue_times = [cmd.issue_time for _, cmd in sink]
        assert issue_times[0] == pytest.approx(0.0)
        diffs = [b - a for a, b in zip(issue_times, issue_times[1:])]
        assert all(d == pytest.approx(0.05, abs=1e-9) for d in diffs)

    def test_an_executor_that_never_advances_is_stopped(self, monkeypatch):
        def stalled(*args, **kwargs):
            while True:
                yield 0.0

        monkeypatch.setattr(flightsim, "make_executor", stalled)
        with pytest.raises(RuntimeError, match="no forward progress"):
            run_execution(straight_plans(), "bll", SimConfig())


class TestErrorMetrics:
    def make_log(self):
        records = np.array(
            [
                (0.0, 0, (1.0, 0.0, 0.0), (1.1, 0.0, 0.0), (1.0, 0.0, 0.0)),  # t, agent, actual, estimated, planned
                (0.01, 0, (1.3, 0.0, 0.0), (1.0, 0.0, 0.0), (1.0, 0.0, 0.0)),
            ],
            dtype=POSE_DTYPE,
        )
        return PoseLog(records, "bll", 0, True, 0.01)

    def test_actual_basis(self):
        rep = error_metrics(self.make_log(), BASIS_ACTUAL)
        assert rep.aggregate.max_error == pytest.approx(0.3)
        assert rep.aggregate.avg_error == pytest.approx(0.15)
        assert rep.per_agent[0].max_error == pytest.approx(0.3)

    def test_estimated_basis(self):
        rep = error_metrics(self.make_log(), BASIS_ESTIMATED)
        assert rep.basis == BASIS_ESTIMATED
        assert rep.aggregate.max_error == pytest.approx(0.1)
        assert rep.aggregate.avg_error == pytest.approx(0.05)

    def test_unknown_basis_and_empty_log(self):
        for basis in ("wishful", "actual", "estimated"):  # the bases have no short aliases
            with pytest.raises(ValueError, match="unknown basis"):
                error_metrics(self.make_log(), basis)
        empty = PoseLog(np.empty(0, dtype=POSE_DTYPE), "bll", 0, True, 0.0)
        with pytest.raises(ValueError, match="empty pose log"):
            error_metrics(empty)

    @pytest.mark.parametrize(
        "rows",
        [
            [(0.0, 0), (0.01, 0), (0.0, 1), (0.01, 1)],  # agent-major
            [(0.0, 0), (0.0, 1), (0.01, 1), (0.01, 0)],  # agents reordered at a tick
            [(0.0, 0), (0.0, 1), (0.01, 0)],  # an agent missing at a tick
            [(0.0, 0), (0.0, 1), (0.0, 1), (0.01, 0), (0.01, 1), (0.01, 1)],  # an agent twice at each tick
        ],
    )
    def test_records_that_are_not_tick_major_raise(self, rows):
        records = np.array([(t, agent, (1.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 0.0, 0.0)) for t, agent in rows],
                           dtype=POSE_DTYPE)
        with pytest.raises(ValueError, match="tick-major"):
            error_metrics(PoseLog(records, "bll", 0, True, 0.01))

    def test_errors_are_math_dist_and_means_run_left_to_right(self):
        log = run_execution(straight_plans(), "vll", SimConfig(seed=3))
        rep = error_metrics(log, BASIS_ESTIMATED)
        r = log.records
        assert rep.series["error"].tolist() == list(map(math.dist, r["estimated"].tolist(), r["planned"].tolist()))
        # a compensated sum (math.fsum, or sum() from Python 3.12 on) gives 0.5
        assert _mean([1e16, 1.0, -1e16, 1.0]) == 0.25

    def test_serialization(self):
        rep = error_metrics(self.make_log())
        doc = rep.to_json_dict(config_hash="abc123")
        assert doc["config_hash"] == "abc123"
        assert doc["method"] == "bll" and doc["basis"] == BASIS_ACTUAL
        assert set(doc["per_agent"]) == {"0"}
        csv = rep.series_csv()
        lines = csv.splitlines()
        assert lines[0] == "t,agent,error" and len(lines) == 3
        assert lines[1].startswith("0.000,0,")


FIXTURES = Path(__file__).resolve().parent / "fixtures"

# sha256 of to_csv(), of json.dumps(error_metrics(log).to_json_dict(""), sort_keys=True)
# and of error_metrics(log).series_csv() for the committed plan fixtures. The first two
# were recorded with the per-agent scalar simulator, the third with the per-pose tuple log.
# bhl and bll never read the estimate, so their logs differ by seed but their errors do not.
# Every run spans 650-710 ticks, so the pins cross noise-block boundaries.
GOLDEN = {
    ("swarm_4", "bhl", 0): ("5c241eda83fc8540f55dcec54e9bc743b44be892beb6d5971d2fcf88411b23c4",
                            "c3927589ad38a82703cbc0753666c16434159d21f752a116800153ad3c4a7f80",
                            "d992fc945f621679a7a8174e8d32cc6551276544a54f937638e079e6839edcf0"),
    ("swarm_4", "bhl", 7): ("80465f4178603ce654ec63d773a34fcc7c8b0be7e1852b93bbcaa59b3a219a88",
                            "1754b6314c91c2565eec7eb8f5d5689c88a93c4dd6b6ee1a6b57d6d0034d4496",
                            "d992fc945f621679a7a8174e8d32cc6551276544a54f937638e079e6839edcf0"),
    ("swarm_4", "bll", 0): ("c595c8c3f8bb66599d4618f4148edee31110893fcff1dd660065f6088ec8fbd8",
                            "3d27dfa7e036711152d6013e105edde8f38e06aa2d0653f26dd32422e244dd34",
                            "93f98b923dccb3362129ef6ca5c6b02673ef8eeabdbe4f5f761b18188bd267d8"),
    ("swarm_4", "bll", 7): ("a859ff8c47fff163dd416323aef0e5bda59d5e54348ad4dd89073a149f89094b",
                            "78bc046eef8baf3f0fa5b0b994adb0ed2ccce550803bea537ec4558a21fa9cf0",
                            "93f98b923dccb3362129ef6ca5c6b02673ef8eeabdbe4f5f761b18188bd267d8"),
    ("swarm_4", "vll", 0): ("f565fe1a8fb28098fc6b8468d90836eebe09a1ee75322364c4b4857a8b5b629f",
                            "9159f3dc0fa092a138b0e61c5d71515e61be6be3e90547c9261515a3eb69a67c",
                            "ed7eb48b9fc32055258ae109c66d35e66192e6a1a07eac6cab132cda5b764066"),
    ("swarm_4", "vll", 7): ("785a5623ba118a665e93bebadc889f977f6343707261d97941c4a5f1ffe1a56c",
                            "d2e3a9b181b849375666dd47872466a9047a1262c56bfe3523801ffc3e1749bb",
                            "1ce80405b2f82c7009c2bab9f1ee8dfd94daf016d01eea439a4efd2a670ef6ce"),
    ("method_comparison", "bhl", 0): ("584edff4639dafee96f79b0797f1edc994259e415ec76d8bb18916e27b3d6356",
                                      "9bfb2717631915d244d8e0e18fe2bd6f4d4d109449148f4051ad8f7074fd41fb",
                                      "e25853def1459f7f22c680f86d80b6e1158468a9a6144f079b2f1719b73734d8"),
    ("method_comparison", "bhl", 7): ("4901d9be91b0cba1461c290ea8f621f64aece1fbe8717b1b7a5d73f52a883f04",
                                      "c09f30b8a9d694cb29a5e387bde7978307ec6d92db6d07ff06b69dd526964f2c",
                                      "e25853def1459f7f22c680f86d80b6e1158468a9a6144f079b2f1719b73734d8"),
    ("method_comparison", "bll", 0): ("4b321fecc6bd8ac57b75f0e76e3c77efd50773bed514a1bcd79647353ab10cb1",
                                      "2490725d1d5af266265a0aa9d9695cbeca83ccbfc3256b0fb84f2d677cbc200c",
                                      "94ead7e9641b1cd9fd659641ba9625211cb88b6f1ab323e2758ff9d36ac138bc"),
    ("method_comparison", "bll", 7): ("5486e5a8e4bc8e4d6d1ab73d429117ab9a005a4f08da2d74f0b5a428388d5ff4",
                                      "d6ce9950ad802548dad3cc9d7e2a79477c97689c971aa44160ae041ba4ba43f5",
                                      "94ead7e9641b1cd9fd659641ba9625211cb88b6f1ab323e2758ff9d36ac138bc"),
    ("method_comparison", "vll", 0): ("059f3d64c7f2695c2376e849f0ba0552d5bf6294aa2d8d897bac956a96e56396",
                                      "6b69fc83f245a607e001333d02d9b90240ee30151d6b500356bdf28c2c8bdbc3",
                                      "f065b8e7c000d82fee185c7f71d70a4011a7e26f4f129bc58d321ab9786f86ec"),
    ("method_comparison", "vll", 7): ("65f1c2648daa343da7080ae6f14a81d80b0d4dac32df928e1e8c9b8277878677",
                                      "75eb5dd965f6a6d73350a3b3d7ce25e05eb26971f5b5435d051c9fb43d3efa3f",
                                      "3e77c8dc0e884a8bcd0b93381ea5c9bc1ebd74fe858cef27e69967d3a005689d"),
}


@pytest.mark.parametrize("scenario,method,seed", sorted(GOLDEN))
def test_golden_log_hashes(scenario, method, seed):
    planset = load_plans(FIXTURES / f"{scenario}.plans.json")
    log = run_execution(planset.plans, method, SimConfig(seed=seed), speeds=planset.speeds)
    report = error_metrics(log)
    doc = json.dumps(report.to_json_dict(""), sort_keys=True)
    got = tuple(hashlib.sha256(text.encode()).hexdigest() for text in (log.to_csv(), doc, report.series_csv()))
    assert got == GOLDEN[(scenario, method, seed)]


def csv_digest(log):
    return hashlib.sha256(log.to_csv().encode()).hexdigest()


@pytest.mark.parametrize("method", ["bhl", "bll", "vll"])
@pytest.mark.parametrize("scenario", ["swarm_4", "method_comparison"])
def test_batched_runs_equal_per_seed_runs(scenario, method):
    planset = load_plans(FIXTURES / f"{scenario}.plans.json")
    configs = [SimConfig(seed=seed) for seed in range(13)]
    batched = list(run_executions(planset.plans, method, SimConfig(seed=0), 13, speeds=planset.speeds))
    assert [log.seed for log in batched] == list(range(13))
    reports = []
    for config, log in zip(configs, batched):
        alone = run_execution(planset.plans, method, config, speeds=planset.speeds)
        assert (log.completed, log.end_time) == (alone.completed, alone.end_time)
        assert csv_digest(log) == csv_digest(alone)  # a digest keeps a failure's report short
        reports.append(error_metrics(log).to_json_dict(""))
        assert reports[-1] == error_metrics(alone).to_json_dict("")
    # the seed moves only the estimated pose, and `bench` flies one run of a
    # method whose executors never read it (SEED_FREE_METHODS)
    assert len({log.records["estimated"].tobytes() for log in batched}) == 13
    actual = {log.records["actual"].tobytes() for log in batched}
    ends = {(log.completed, log.end_time) for log in batched}
    figures = {json.dumps([report["per_agent"], report["aggregate"]]) for report in reports}
    if method in SEED_FREE_METHODS:
        assert (len(actual), len(ends), len(figures)) == (1, 1, 1)
    else:  # vll steers on noisy estimates, so its runs fly apart and end at different ticks
        assert len(actual) == 13 and len(ends) > 1 and len(figures) > 1


# (completed, end_time.hex(), len(records)) of swarm_4 runs. At a 0.015 s log
# period the bhl and vll runs end between logged ticks (ticks 710 and 661).
RUN_ENDS = {
    (0.01, "bhl", 0): (True, "0x1.c666666666667p+1", 1424),
    (0.01, "bhl", 1): (True, "0x1.c666666666667p+1", 1424),
    (0.01, "bll", 0): (True, "0x1.b1eb851eb851fp+1", 1360),
    (0.01, "bll", 1): (True, "0x1.b1eb851eb851fp+1", 1360),
    (0.01, "vll", 0): (True, "0x1.a70a3d70a3d71p+1", 1324),
    (0.01, "vll", 1): (True, "0x1.a70a3d70a3d71p+1", 1324),
    (0.015, "bhl", 0): (True, "0x1.c666666666667p+1", 948),
    (0.015, "bhl", 1): (True, "0x1.c666666666667p+1", 948),
    (0.015, "bll", 0): (True, "0x1.b1eb851eb851fp+1", 908),
    (0.015, "bll", 1): (True, "0x1.b1eb851eb851fp+1", 908),
    (0.015, "vll", 0): (True, "0x1.a70a3d70a3d71p+1", 884),
    (0.015, "vll", 1): (True, "0x1.a70a3d70a3d71p+1", 884),
}


def run_end(log):
    return log.completed, log.end_time.hex(), len(log.records)


@pytest.mark.parametrize("log_period,method,seed", sorted(RUN_ENDS))
def test_run_ends_are_pinned(log_period, method, seed):
    planset = load_plans(FIXTURES / "swarm_4.plans.json")
    log = run_execution(planset.plans, method, SimConfig(seed=seed, log_period=log_period), speeds=planset.speeds)
    assert run_end(log) == RUN_ENDS[(log_period, method, seed)]


def test_wall_cap_and_batched_run_ends_are_pinned():
    # makespan 3 s -> cap at 16 s: the first tick past it, with 1,601 logged ticks of 2 agents
    log = run_execution(straight_plans(), "bll", SimConfig(max_speed=0.01))
    assert run_end(log) == (False, "0x1.00147ae147ae1p+4", 3202)
    # seeds 7, 8 and 9 end at ticks 652, 671 and 651
    planset = load_plans(FIXTURES / "swarm_4.plans.json")
    logs = run_executions(planset.plans, "vll", SimConfig(seed=7), 3, speeds=planset.speeds)
    assert [run_end(log) for log in logs] == [(True, "0x1.a147ae147ae15p+1", 1308),
                                              (True, "0x1.ad70a3d70a3d7p+1", 1344),
                                              (True, "0x1.a0a3d70a3d70ap+1", 1304)]


@pytest.mark.parametrize("log_block,noise_block,planned_ticks", [(1, 1, 1), (5, 3, 7)])
def test_block_lengths_never_change_a_log(monkeypatch, log_block, noise_block, planned_ticks):
    # vll runs at seeds 3, 4 and 5 end at ticks 681, 661 and 681, so ended runs
    # are cut from part-filled blocks and planned chunks
    planset = load_plans(FIXTURES / "swarm_4.plans.json")
    want = [csv_digest(log) for log in run_executions(planset.plans, "vll", SimConfig(seed=3), 3, speeds=planset.speeds)]
    monkeypatch.setattr(flightsim, "_LOG_BLOCK", log_block)
    monkeypatch.setattr(flightsim, "_NOISE_BLOCK", noise_block)
    monkeypatch.setattr(flightsim, "_PLANNED_TICKS", planned_ticks)
    assert [csv_digest(log) for log in run_executions(planset.plans, "vll", SimConfig(seed=3), 3, speeds=planset.speeds)] == want


def mixed_fleet():
    """(config, flights): at 0.09 m/s swarm_4's vll runs reach their 16 s wall cap
    while the straight plans, timed over 8 s (a 26 s cap), keep flying: bll's
    arrive after it."""
    config = SimConfig(seed=4, max_speed=0.09)
    fixtures = [load_plans(FIXTURES / f"{name}.plans.json") for name in ("swarm_4", "method_comparison")]
    straight = [TimedPlan(p.agent, tuple((x, y, z, t * 8.0 / 3.0) for x, y, z, t in p.waypoints))
                for p in straight_plans()]
    flights = [(fixtures[0].plans, "vll", 3, fixtures[0].speeds), (straight, "bll", 3, None),
               (fixtures[1].plans, "bhl", 1, fixtures[1].speeds), (fixtures[0].plans, "bll", 1, fixtures[0].speeds),
               (straight, "vll", 1, None)]
    return config, flights


def test_a_mixed_fleet_flies_each_run_as_it_flies_alone():
    config, flights = mixed_fleet()

    def digest(log):
        return run_end(log), hashlib.sha256(log.records.tobytes()).hexdigest()

    sink: list = []
    fleet = [digest(log) for log in flightsim.run_fleet(flights, config, command_sink=sink)]
    alone, sinks = [], []
    for plans, method, runs, speeds in flights:
        sinks.append([])
        alone += [digest(log) for log in run_executions(plans, method, config, runs, speeds, command_sink=sinks[-1])]
    assert fleet == alone
    # the fleet interleaves its flights' commands tick by tick, so only the multisets compare
    assert collections.Counter(sink) == sum(map(collections.Counter, sinks), collections.Counter())
    ends = [(completed, float.fromhex(end)) for (completed, end, _), _ in fleet]
    first_cap = min(end for completed, end in ends if not completed)
    assert first_cap > 16.0 and any(completed and end > first_cap for completed, end in ends)


def test_bench_figures_are_the_error_metrics_of_each_runs_log():
    # bench reads its (completed, max_error, avg_error) straight from the fleet's
    # logged arrays; they are error_metrics' aggregate of the log, bit for bit
    config, flights = mixed_fleet()
    got = [[(done, hi.hex(), avg.hex()) for done, hi, avg in runs] for runs in cli._fly_fleet(flights, config)]
    want = []
    for plans, method, runs, speeds in flights:
        want.append([])
        for log in run_executions(plans, method, config, runs, speeds):
            aggregate = error_metrics(log).aggregate
            want[-1].append((log.completed, aggregate.max_error.hex(), aggregate.avg_error.hex()))
    assert got == want
    assert {done for runs in got for done, _, _ in runs} == {True, False}  # wall-cap runs are among them


def test_the_rebuilt_estimate_is_the_one_the_executor_read(monkeypatch):
    # the loop forms estimates on wake ticks only and logs none; each log redraws
    # its noise from the seed, and must give what the executor read in flight
    read = {}
    estimated_position = flightsim._Vehicle.estimated_position

    def spy(vehicle):
        read[(vehicle.row, vehicle.now)] = estimated_position(vehicle)
        return read[(vehicle.row, vehicle.now)]

    monkeypatch.setattr(flightsim._Vehicle, "estimated_position", spy)
    planset = load_plans(FIXTURES / "swarm_4.plans.json")
    n = len(planset.plans)
    checked = 0
    for r, log in enumerate(run_executions(planset.plans, "vll", SimConfig(seed=5), 3, speeds=planset.speeds)):
        records = log.records
        for i, (t, estimated) in enumerate(zip(records["t"].tolist(), records["estimated"].tolist())):
            key = (r * n + i % n, t)
            if key in read:
                assert tuple(estimated) == read[key]
                checked += 1
    # a vll executor reads its estimate every 0.05 s (ten ticks, five logged ticks)
    # for about 3.4 s
    assert checked > 3 * n * 60


def test_benchs_fleet_reader_holds_only_the_logged_true_positions():
    # 13 swarm_4 vll runs, 52 rows: 48-byte blocks of true and estimated positions
    # and each run's 88-byte records once peaked at about 1.35 MB
    planset = load_plans(FIXTURES / "swarm_4.plans.json")
    config = SimConfig()
    flights = [(planset.plans, "vll", 13, planset.speeds)]
    rows = 13 * len(planset.plans)
    logs = run_executions(planset.plans, "vll", config, 13, planset.speeds)
    ticks = max(len(log.records) for log in logs) // len(planset.plans)
    logged = 24 * rows * -(-ticks // flightsim._LOG_BLOCK) * flightsim._LOG_BLOCK
    noise = 2 * 24 * rows * flightsim._NOISE_BLOCK  # the noise draws and their scaled copy
    tracemalloc.start()
    try:
        cli._fly_fleet(flights, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= logged + noise + 256 * 2**10


def test_a_fleet_is_sized_by_all_its_rows_and_its_longest_wall_cap(monkeypatch):
    # two plan sets that each fit alone, flown together, are refused before the fleet is built
    short = straight_plans()
    long = [TimedPlan(p.agent, tuple((x, y, z, t * 2.0) for x, y, z, t in p.waypoints)) for p in short]
    config = SimConfig()
    # the long set alone: 2 rows x 2,202 logged ticks up to its 22 s wall cap
    monkeypatch.setattr(flightsim, "MAX_LOG_RECORDS", 2 * 2202)
    check_flight_size(short, config, 1)
    check_flight_size(long, config, 1)

    def no_fleet(*args, **kwargs):
        raise AssertionError("the fleet was built")

    monkeypatch.setattr(flightsim, "_Fleet", no_fleet)
    with pytest.raises(InputError, match="a flight of 4 vehicle rows up to its wall cap of 22 s"):
        list(flightsim.run_fleet([(short, "bll", 1, None), (long, "bll", 1, None)], config))
    with pytest.raises(ValueError, match="no flights"):
        flightsim.run_fleet([], config)


@pytest.fixture(scope="module")
def bundled_plans(scenario_dir):
    """{scenario: (plans, speeds)} for every bundled scenario, solved once."""
    out = {}
    for path in sorted(scenario_dir.glob("*.json")):
        world, agents = load_instance(path)
        out[path.stem] = (ccbs_solve(world, agents).solution.plans, {a.id: a.speed for a in agents})
    assert len(out) == 5
    return out


@pytest.mark.parametrize("method", METHODS)
def test_per_agent_columns_equal_the_mask_oracle(bundled_plans, method):
    for plans, speeds in bundled_plans.values():
        for log in run_executions(plans, method, SimConfig(seed=0), 2, speeds=speeds):
            for basis in (BASIS_ACTUAL, BASIS_ESTIMATED):
                report = error_metrics(log, basis)
                want = oracles.per_agent_errors_reference(report.series)
                got = {agent: (e.max_error.hex(), e.avg_error.hex()) for agent, e in report.per_agent.items()}
                assert got == {agent: (hi.hex(), mean.hex()) for agent, (hi, mean) in sorted(want.items())}
                assert list(got) == sorted(want)


def test_batched_runs_reject_bad_run_counts():
    for runs in (0, -1, True, 1.0):
        with pytest.raises(ValueError, match="runs must be a positive int"):
            run_executions(straight_plans(), "bll", SimConfig(seed=0), runs)


# sha256 of to_csv() and of repr(command_sink) for swarm_4, seed 0, at two latencies
# the GOLDEN pins never reach: 0.12 s puts two or three commands in flight at once
# (the command period is 0.05 s), and 0 activates each command on the tick it is sent.
LINK_GOLDEN = {
    (0.12, "bhl"): ("584a61f214de70bb0057fe4119050b45482f19fa31ff11f198c4dbe2c9804cea",
                    "4920fddac3c28cbdacfbc5c32780ad7d43214705903e9854623a2ab028215afa"),
    (0.12, "bll"): ("2b79a52fe66291b07f5e31c0d9376bad6101f540766bfcda49f905d72ebb0212",
                    "40aa2ee12b2be64a8beb729c21df37c3ce0aac63dc9ea440f210896c179e9fa9"),
    (0.12, "vll"): ("164a8900a15a1ed95dc2bd2761e214f74bd3cea6239837317c759b205fd55d3e",
                    "ddaeaaf84f23d37cc962395e043d9564ecfcc54e015b66f2d5d5c5dee94853c3"),
    (0.0, "bhl"): ("c1f14d818d5a4b605e6b6d5630984b04a887d9c103908643aa676dd59ecd3d15",
                   "4920fddac3c28cbdacfbc5c32780ad7d43214705903e9854623a2ab028215afa"),
    (0.0, "bll"): ("24c8273e57867e8192612edb3c2ec897be181285a09d6bd6f2ce941d0e54583d",
                   "40aa2ee12b2be64a8beb729c21df37c3ce0aac63dc9ea440f210896c179e9fa9"),
    (0.0, "vll"): ("6548f021509e70a74a2deca3fc3c0b0999ae0062915a2976149c46320c3e54fc",
                   "11edf60d223f41be1a397ecdb0975fc40048402a02f7854aa4f2e6ed087caa29"),
}


@pytest.mark.parametrize("latency,method", sorted(LINK_GOLDEN))
def test_command_link_hashes(latency, method):
    planset = load_plans(FIXTURES / "swarm_4.plans.json")
    sink: list = []
    log = run_execution(planset.plans, method, SimConfig(seed=0, latency=latency), speeds=planset.speeds,
                        command_sink=sink)
    got = tuple(hashlib.sha256(text.encode()).hexdigest() for text in (log.to_csv(), repr(sink)))
    assert got == LINK_GOLDEN[(latency, method)]


FLY_SWARM = Path(__file__).resolve().parents[1] / "perfbench" / "inputs" / "fly_swarm.plans.json"

# sha256 of to_csv(), of json.dumps(error_metrics(log).to_json_dict(""), sort_keys=True)
# and of error_metrics(log).series_csv() for the 12-agent benchmark plan: logs of about
# 19k records, so the pins cross many row blocks of the CSV writers and of error_metrics.
LONG_GOLDEN = {
    ("bll", 0): ("697d9360c71beec87afd7912b504aacfc2e03db4246a4a95673e8b4459276d7c",
                 "d6ebce37c1afabc224eab090d853fba5e30468283e6aa99e05d259a5bb2b5a77",
                 "74634e7929927691baa5fab59d914ec4adeabf60eaa95d0959d7a4fa96533d8e"),
    ("vll", 1): ("c3eba2c6fd54eefb4f886cb00717126a9769aae9cc651574bda9d8d8ad318bdf",
                 "a0371b7660d12e0fb0cdf782af7a59cb72f5b157f4b69fcb0ed3bc4fcedfc92b",
                 "1331e33e1b753486f725a932688a9150c0fcab00b994435c5f940ec3ca090a2d"),
}


@pytest.fixture(scope="module")
def long_logs():
    """{(method, seed): PoseLog} of the benchmark plan, flown once."""
    planset = load_plans(FLY_SWARM)
    return {(method, seed): run_execution(planset.plans, method, SimConfig(seed=seed), speeds=planset.speeds)
            for method, seed in LONG_GOLDEN}


@pytest.mark.parametrize("method,seed", sorted(LONG_GOLDEN))
def test_long_log_hashes(long_logs, tmp_path, method, seed):
    log = long_logs[(method, seed)]
    report = error_metrics(log)
    doc = json.dumps(report.to_json_dict(""), sort_keys=True)
    text = log.to_csv()
    got = tuple(hashlib.sha256(t.encode()).hexdigest() for t in (text, doc, report.series_csv()))
    assert got == LONG_GOLDEN[(method, seed)]
    log.write_csv(tmp_path / "poses.csv")
    assert (tmp_path / "poses.csv").read_bytes() == text.encode()


@pytest.mark.parametrize("row_block", [1, 3, 2048])
def test_csv_writers_equal_the_per_record_format(monkeypatch, tmp_path, row_block):
    # repeated, negative-zero, tiny and non-finite values, in no particular record order
    rng = np.random.default_rng(26)
    pool = np.array([0.0, -0.0, 0.1, 1 / 3, -2.5, 1e-300, 5e-324, 1e16, np.inf, -np.inf, np.nan])
    records = np.empty(40, dtype=POSE_DTYPE)
    records["t"] = rng.choice([0.0, -0.0, 0.01, 0.0105, 2.5, 1e-4], 40)
    records["agent"] = rng.choice([0, 3, 7, 2**62], 40)
    for column in ("actual", "estimated", "planned"):
        records[column] = np.where(rng.random((40, 3)) < 0.5, rng.choice(pool, (40, 3)), rng.standard_normal((40, 3)))
    log = PoseLog(records, "bll", 0, True, 0.0)
    series = np.empty(40, dtype=flightsim.ERROR_DTYPE)
    series["t"], series["agent"], series["error"] = records["t"], records["agent"], records["planned"][:, 0]
    report = ErrorReport(BASIS_ACTUAL, "bll", 0, {}, None, series)
    monkeypatch.setattr(flightsim, "_ROW_BLOCK", row_block)
    assert log.to_csv() == oracles.pose_csv_reference(records)
    log.write_csv(tmp_path / "poses.csv")
    assert (tmp_path / "poses.csv").read_text(encoding="utf-8") == oracles.pose_csv_reference(records)
    assert report.series_csv() == oracles.series_csv_reference(series)
    empty = PoseLog(records[:0], "bll", 0, True, 0.0)
    assert empty.to_csv() == oracles.pose_csv_reference(records[:0])


def test_write_csv_memory_is_bounded_by_the_row_block(long_logs, tmp_path):
    log = long_logs[("vll", 1)]
    tracemalloc.start()
    try:
        log.write_csv(tmp_path / "poses.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # building the whole 19k-record file as one string took about 16 MB
    assert peak <= 4 * 2**20


def test_the_error_series_writer_writes_series_csv_one_block_at_a_time(long_logs, tmp_path):
    report = error_metrics(long_logs[("vll", 1)])
    assert len(report.series) > 4 * flightsim._ROW_BLOCK
    tracemalloc.start()
    try:
        report.write_csv(tmp_path / "error_series.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    text = report.series_csv()
    assert (tmp_path / "error_series.csv").read_bytes() == text.encode()
    # about 0.4 of the text's 0.55 MB; writing the joined text held it twice, about 1.1 MB
    assert peak < len(text)


def test_a_flight_past_the_log_limit_is_refused_before_its_first_tick(monkeypatch):
    planset = load_plans(FIXTURES / "swarm_4.plans.json")
    plan = planset.plans[0]
    long = TimedPlan(plan.agent, plan.waypoints + ((*plan.goal_position, 1e12),))
    plans = [long, *planset.plans[1:]]

    def no_fleet(*args, **kwargs):
        raise AssertionError("the fleet was built")

    monkeypatch.setattr(flightsim, "_Fleet", no_fleet)
    with pytest.raises(InputError, match=f"more than MAX_LOG_RECORDS = {MAX_LOG_RECORDS}"):
        run_execution(plans, "bll", SimConfig())
    with pytest.raises(InputError, match="MAX_LOG_RECORDS"):
        check_flight_size(plans, SimConfig(), runs=1)
    # the limit counts every run of a batch: 13 runs of swarm_4 log about 83k records at most
    check_flight_size(planset.plans, SimConfig(), runs=13)
    with pytest.raises(InputError, match="MAX_LOG_RECORDS"):
        check_flight_size(planset.plans, SimConfig(), runs=13 * 60)


def test_every_committed_flight_is_far_below_the_log_limit(bundled_plans):
    """Each bundled scenario as `bench` flies it (13 runs), each plan fixture and the
    benchmark plan log at most a twentieth of MAX_LOG_RECORDS."""
    flights = [(plans, 13) for plans, _ in bundled_plans.values()]
    flights += [(load_plans(path).plans, 13) for path in sorted(FIXTURES.glob("*.plans.json"))]
    flights.append((load_plans(FLY_SWARM).plans, 1))
    for plans, runs in flights:
        check_flight_size(plans, SimConfig(), runs=20 * runs)
