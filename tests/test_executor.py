"""Command generation: interpolated setpoints, per-segment gotos, box-chasing."""

import math
import re

import pytest

from mapflight.executor import (
    HighLevelGoto,
    PositionSetpoint,
    VehicleEndpoint,
    VelocitySetpoint,
    bhl_execute,
    bll_execute,
    make_executor,
    vll_execute,
)
from mapflight.plan import TimedPlan

TWO_SEGMENTS = TimedPlan(0, ((0.0, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 1.0), (1.0, 2.0, 0.0, 3.0)))


class ScriptedEndpoint(VehicleEndpoint):
    """Collects commands; the clock advances by whatever the executor yields."""

    def __init__(self, start: float = 0.0, position=(0.0, 0.0, 0.0)):
        self.t = start
        self.position = position
        self.sent = []

    def send(self, command):
        self.sent.append(command)

    def estimated_position(self):
        return self.position

    def clock(self):
        return self.t


class IntegratingEndpoint(ScriptedEndpoint):
    """Perfectly obeys velocity commands: position integrates the last one."""

    velocity = (0.0, 0.0, 0.0)

    def send(self, command):
        super().send(command)
        self.velocity = command.velocity

    def advance(self, dt):
        self.t += dt
        self.position = tuple(p + v * dt for p, v in zip(self.position, self.velocity))


def drive(executor, endpoint, on_step=None, max_steps=100_000):
    for delay in executor:
        if on_step is None:
            endpoint.t += delay
        else:
            on_step(delay)
        max_steps -= 1
        assert max_steps > 0, "executor never finished"


class TestBll:
    def test_setpoints_are_the_plan_interpolated_at_issue_times(self):
        plan = TimedPlan(0, ((0.0, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 1.0)))
        ep = ScriptedEndpoint()
        drive(bll_execute(plan, ep, period=0.025), ep)
        assert len(ep.sent) == 40  # t = 0.000 .. 0.975
        wants = plan.positions_at([cmd.issue_time for cmd in ep.sent]).tolist()
        for k, (cmd, want) in enumerate(zip(ep.sent, wants)):
            assert isinstance(cmd, PositionSetpoint)
            assert cmd.issue_time == pytest.approx(k * 0.025, abs=1e-12)
            assert max(abs(a - b) for a, b in zip(cmd.target, want)) <= 1e-12

    def test_multi_segment_interpolation(self):
        ep = ScriptedEndpoint()
        drive(bll_execute(TWO_SEGMENTS, ep, period=0.4), ep)
        # segment one sends at 0, 0.4, 0.8; segment two at 1.2, 1.6, ..., 2.8
        assert len(ep.sent) == 8
        wants = TWO_SEGMENTS.positions_at([cmd.issue_time for cmd in ep.sent]).tolist()
        for cmd, want in zip(ep.sent, wants):
            assert max(abs(a - b) for a, b in zip(cmd.target, want)) <= 1e-12

    def test_warns_when_clock_is_already_past_the_plan(self):
        ep = ScriptedEndpoint(start=5.0)
        with pytest.warns(UserWarning, match="already past"):
            drive(bll_execute(TWO_SEGMENTS, ep), ep)
        assert ep.sent == []

    def test_rejects_bad_period(self):
        with pytest.raises(ValueError, match="period"):
            list(bll_execute(TWO_SEGMENTS, ScriptedEndpoint(), period=0.0))


class TestBhl:
    def test_one_goto_per_segment_at_segment_start(self):
        ep = ScriptedEndpoint()
        drive(bhl_execute(TWO_SEGMENTS, ep), ep)
        assert [type(c) for c in ep.sent] == [HighLevelGoto, HighLevelGoto]
        first, second = ep.sent
        assert first.target == (1.0, 0.0, 0.0) and first.duration == pytest.approx(1.0)
        assert first.issue_time == pytest.approx(0.0)
        assert second.target == (1.0, 2.0, 0.0) and second.duration == pytest.approx(2.0)
        assert second.issue_time == pytest.approx(1.0)

    def test_warns_when_clock_is_already_past_the_plan(self):
        ep = ScriptedEndpoint(start=3.0)
        with pytest.warns(UserWarning, match="already past"):
            drive(bhl_execute(TWO_SEGMENTS, ep), ep)
        assert ep.sent == []


class TestVllStep:
    """One VLL step: the first resume of vll_execute, against a vehicle that does not move."""

    PLAN = TimedPlan(0, ((2.0, 0.0, 0.0, 0.0),))

    def first_commands(self, position, plan=PLAN, box_half_width=0.1, cruise_speed=0.5, start=0.0):
        ep = ScriptedEndpoint(start=start, position=position)
        steps = vll_execute(plan, ep, cruise_speed, period=0.25, box_half_width=box_half_width)
        assert next(steps, None) in (0.25, None)
        return ep.sent

    def test_steers_at_cruise_speed_toward_the_waypoint(self):
        sent = self.first_commands((0.5, 0.0, 0.0), start=3.0)
        assert sent == [VelocitySetpoint((0.5, 0.0, 0.0), issue_time=3.0)]

    def test_diagonal_direction_is_normalized(self):
        plan = TimedPlan(0, ((2.0, 2.0, 0.0, 0.0),))
        [cmd] = self.first_commands((1.0, 1.0, 0.0), plan=plan, cruise_speed=1.0)
        assert math.hypot(*cmd.velocity) == pytest.approx(1.0)
        assert cmd.velocity[0] == pytest.approx(cmd.velocity[1])

    def test_box_boundary_is_inside(self):
        # |dx| equal to the half-width counts as arrived (closed box): the
        # one waypoint is reached, and only the final stop is sent
        sent = self.first_commands((1.75, 0.0, 0.0), box_half_width=0.25)
        assert sent == [VelocitySetpoint((0.0, 0.0, 0.0), issue_time=0.0)]
        [cmd] = self.first_commands((1.7, 0.0, 0.0), box_half_width=0.25)
        assert cmd.velocity == (0.5, 0.0, 0.0)

    def test_box_is_per_axis(self):
        # inside on x but outside on z: not arrived, so it steers down
        [cmd] = self.first_commands((2.0, 0.0, 0.3), box_half_width=0.25)
        assert cmd.velocity == (0.0, 0.0, -0.5)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="box_half_width must be > 0"):
            self.first_commands((0.0, 0.0, 0.0), box_half_width=0.0)
        with pytest.raises(ValueError, match="cruise_speed must be > 0"):
            self.first_commands((0.0, 0.0, 0.0), cruise_speed=0.0)


class TestVllExecute:
    def test_chases_waypoints_in_order(self):
        plan = TimedPlan(0, ((0.0, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 2.0), (1.0, 1.0, 0.0, 4.0)))
        ep = IntegratingEndpoint()
        drive(vll_execute(plan, ep, cruise_speed=0.5, period=0.1, box_half_width=0.1), ep, on_step=ep.advance)
        moving = [c for c in ep.sent if c.velocity != (0.0, 0.0, 0.0)]
        assert moving, "expected cruise commands"
        # every cruise command runs at cruise speed
        for c in moving:
            assert math.hypot(*c.velocity) == pytest.approx(0.5)
        # +x chasing strictly precedes +y chasing: waypoints consumed in order
        phases = [0 if c.velocity[0] > 0.01 else 1 for c in moving]
        assert phases == sorted(phases)
        # the final command parks the vehicle
        assert ep.sent[-1].velocity == (0.0, 0.0, 0.0)
        # and the vehicle ended inside the goal box
        assert max(abs(p - g) for p, g in zip(ep.position, (1.0, 1.0, 0.0))) <= 0.1 + 1e-9

    def test_progress_is_paced_by_geometry_not_the_clock(self):
        # a slower cruise speed just means more commands; it still finishes
        plan = TimedPlan(0, ((0.0, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 1.0)))
        counts = []
        for cruise in (0.5, 0.25):
            ep = IntegratingEndpoint()
            drive(vll_execute(plan, ep, cruise, period=0.1, box_half_width=0.1), ep, on_step=ep.advance)
            counts.append(len(ep.sent))
        assert counts[1] > counts[0]


class BlindEndpoint(ScriptedEndpoint):
    """An endpoint with no position estimate: asking for one raises."""

    def estimated_position(self):
        raise AssertionError("the executor read the estimated position")


@pytest.mark.parametrize("method", ["bhl", "bll"])
def test_seed_free_executors_never_read_the_estimate(method):
    # bench flies one seed of these methods for all (flightsim.SEED_FREE_METHODS)
    blind, seeing = BlindEndpoint(), ScriptedEndpoint()
    drive(make_executor(method, TWO_SEGMENTS, blind, period=0.1), blind)
    drive(make_executor(method, TWO_SEGMENTS, seeing, period=0.1), seeing)
    assert blind.sent and blind.sent == seeing.sent


def test_vll_reads_the_estimate():
    ep = BlindEndpoint()
    with pytest.raises(AssertionError, match="read the estimated position"):
        drive(make_executor("vll", TWO_SEGMENTS, ep, cruise_speed=1.0), ep)


class TestMakeExecutor:
    def test_dispatch(self):
        ep = ScriptedEndpoint()
        drive(make_executor("bll", TWO_SEGMENTS, ep, period=0.5), ep)
        assert all(isinstance(c, PositionSetpoint) for c in ep.sent)
        ep = ScriptedEndpoint()
        drive(make_executor("BHL", TWO_SEGMENTS, ep), ep)
        assert all(isinstance(c, HighLevelGoto) for c in ep.sent)

    def test_vll_requires_a_cruise_speed(self):
        with pytest.raises(ValueError, match="cruise speed"):
            make_executor("vll", TWO_SEGMENTS, ScriptedEndpoint())

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method"):
            make_executor("teleport", TWO_SEGMENTS, ScriptedEndpoint())


def _with(k, bad):
    vec = [0.5, -0.5, 1.0]
    vec[k] = bad
    return tuple(vec)


BAD_VECTORS = [_with(k, bad) for k in range(3) for bad in (math.nan, math.inf, -math.inf)]
BAD_VECTORS += [(), (0.0, 0.0), (0.0, 0.0, 0.0, 0.0)]

MAKERS = {
    "goto": ("target", lambda v: HighLevelGoto(v, duration=1.0, issue_time=0.0)),
    "position": ("target", lambda v: PositionSetpoint(v, issue_time=0.0)),
    "velocity": ("velocity", lambda v: VelocitySetpoint(v, issue_time=0.0)),
}


class TestCommands:
    def test_validation(self):
        with pytest.raises(ValueError, match="duration"):
            HighLevelGoto((0.0, 0.0, 0.0), duration=0.0, issue_time=0.0)

    @pytest.mark.parametrize("kind", sorted(MAKERS))
    @pytest.mark.parametrize("vec", BAD_VECTORS, ids=repr)
    def test_vectors_must_be_three_finite_numbers(self, kind, vec):
        what, make = MAKERS[kind]
        with pytest.raises(ValueError, match=f"^{re.escape(f'{what} must be three finite numbers, got {vec!r}')}$"):
            make(vec)

