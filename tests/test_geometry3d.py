"""Analytic collision geometry: unsafe intervals, clearing delays, conflict scan."""

import math
import random

import pytest

from mapflight.ccbs import conflict_table, earliest_conflict
from mapflight.geometry3d import (
    CylinderBody,
    Interval,
    LinearMotion,
    cylinder_unsafe_interval,
    _pair_earliest,
    move_clear_delay,
    plan_motions,
)
from mapflight.plan import TimedPlan

from oracles import unsafe_interval_oracle


def shifted(motion: LinearMotion, dt: float) -> LinearMotion:
    """The same motion, dt later."""
    return LinearMotion(motion.p0, motion.p1, motion.t0 + dt, motion.t1 + dt)


# ---------------------------------------------------------------------------
# Interval / LinearMotion / CylinderBody contracts
# ---------------------------------------------------------------------------


class TestInterval:
    def test_contains_is_closed(self):
        iv = Interval(1.0, 2.0)
        assert iv.contains(1.0) and iv.contains(2.0) and iv.contains(1.5)
        assert not iv.contains(0.999) and not iv.contains(2.001)

    def test_unbounded(self):
        assert Interval(1.0, math.inf).unbounded
        assert not Interval(1.0, 2.0).unbounded

    @pytest.mark.parametrize("lo,hi", [(-1.0, 2.0), (2.0, 1.0), (math.inf, math.inf), (0.0, math.nan)])
    def test_rejects_bad_bounds(self, lo, hi):
        with pytest.raises(ValueError):
            Interval(lo, hi)


class TestLinearMotion:
    def test_wait_detection_and_velocity(self):
        wait = LinearMotion((1.0, 2.0, 3.0), (1.0, 2.0, 3.0), 0.0, 5.0)
        assert wait.is_wait
        assert wait.velocity() == (0.0, 0.0, 0.0)
        move = LinearMotion((0.0, 0.0, 0.0), (2.0, 0.0, 0.0), 1.0, 3.0)
        assert not move.is_wait
        assert move.velocity() == (1.0, 0.0, 0.0)
        assert move.position_at(2.0) == (1.0, 0.0, 0.0)

    def test_infinite_end_only_for_waits(self):
        LinearMotion((1.0, 1.0, 1.0), (1.0, 1.0, 1.0), 0.0, math.inf)  # parked forever: fine
        with pytest.raises(ValueError):
            LinearMotion((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), 0.0, math.inf)

    def test_rejects_reversed_times_and_negative_start(self):
        with pytest.raises(ValueError):
            LinearMotion((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), 2.0, 1.0)
        with pytest.raises(ValueError):
            LinearMotion((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), -1.0, 1.0)


class TestCylinderBody:
    @pytest.mark.parametrize("radius,height", [(0.0, 1.0), (-0.1, 1.0), (0.5, 0.0), (math.inf, 1.0)])
    def test_rejects_degenerate_bodies(self, radius, height):
        with pytest.raises(ValueError):
            CylinderBody(radius, height)


# ---------------------------------------------------------------------------
# planar window: bodies tall enough that the vertical condition always holds
# ---------------------------------------------------------------------------

TALL = CylinderBody(0.5, 10.0)  # r_sum 1.0 between two of them


class TestXYUnsafeInterval:
    def test_head_on_pass(self):
        # closing speed 2 m/s, below 1 m apart exactly for t in (1.5, 2.5)
        a = LinearMotion((0.0, 0.0, 0.0), (4.0, 0.0, 0.0), 0.0, 4.0)
        b = LinearMotion((4.0, 0.0, 0.0), (0.0, 0.0, 0.0), 0.0, 4.0)
        hit = cylinder_unsafe_interval(a, b, TALL, TALL)
        assert hit is not None
        assert hit.lo == pytest.approx(1.5, abs=1e-12)
        assert hit.hi == pytest.approx(2.5, abs=1e-12)

    def test_parallel_far_apart(self):
        a = LinearMotion((0.0, 0.0, 0.0), (4.0, 0.0, 0.0), 0.0, 4.0)
        b = LinearMotion((0.0, 10.0, 0.0), (4.0, 10.0, 0.0), 0.0, 4.0)
        assert cylinder_unsafe_interval(a, b, TALL, TALL) is None

    def test_two_overlapping_waits(self):
        a = LinearMotion((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), 0.0, 1.0)
        b = LinearMotion((0.5, 0.0, 0.0), (0.5, 0.0, 0.0), 0.0, 1.0)
        assert cylinder_unsafe_interval(a, b, TALL, TALL) == Interval(0.0, 1.0)

    def test_exact_touch_is_safe(self):
        # parallel lanes exactly r_sum apart: grazing, strict inequality says safe
        a = LinearMotion((0.0, 0.0, 0.0), (4.0, 0.0, 0.0), 0.0, 4.0)
        b = LinearMotion((4.0, 1.0, 0.0), (0.0, 1.0, 0.0), 0.0, 4.0)
        assert cylinder_unsafe_interval(a, b, TALL, TALL) is None

    def test_disjoint_time_windows(self):
        a = LinearMotion((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), 0.0, 1.0)
        b = LinearMotion((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), 1.0, 2.0)
        assert cylinder_unsafe_interval(a, b, TALL, TALL) is None


# ---------------------------------------------------------------------------
# vertical window: bodies wide enough that the planar condition always holds
# ---------------------------------------------------------------------------

WIDE = CylinderBody(50.0, 0.6)  # half-height sum 0.6 between two of them


class TestZUnsafeInterval:
    def test_climb_into_hovering_band(self):
        # a climbs 0 -> 2 m over 2 s; b hovers at 2 m; half-height sum 0.6
        a = LinearMotion((0.0, 0.0, 0.0), (0.0, 0.0, 2.0), 0.0, 2.0)
        b = LinearMotion((5.0, 5.0, 2.0), (5.0, 5.0, 2.0), 0.0, 2.0)
        hit = cylinder_unsafe_interval(a, b, WIDE, WIDE)
        assert hit is not None
        assert hit.lo == pytest.approx(1.4, abs=1e-12)
        assert hit.hi == pytest.approx(2.0, abs=1e-12)

    def test_same_level_hover(self):
        a = LinearMotion((0.0, 0.0, 1.0), (0.0, 0.0, 1.0), 0.0, 5.0)
        b = LinearMotion((1.0, 0.0, 1.0), (1.0, 0.0, 1.0), 0.0, 5.0)
        assert cylinder_unsafe_interval(a, b, WIDE, WIDE) == Interval(0.0, 5.0)

    def test_far_apart_levels(self):
        a = LinearMotion((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), 0.0, 2.0)
        b = LinearMotion((0.0, 0.0, 5.0), (1.0, 0.0, 5.0), 0.0, 2.0)
        assert cylinder_unsafe_interval(a, b, WIDE, WIDE) is None


# ---------------------------------------------------------------------------
# full cylinder window
# ---------------------------------------------------------------------------


class TestCylinderUnsafeInterval:
    def test_head_on_equal_bodies(self):
        a = LinearMotion((0.0, 0.0, 0.0), (4.0, 0.0, 0.0), 0.0, 4.0)
        b = LinearMotion((4.0, 0.0, 0.0), (0.0, 0.0, 0.0), 0.0, 4.0)
        body = CylinderBody(0.5, 1.0)
        hit = cylinder_unsafe_interval(a, b, body, body)
        assert hit is not None
        assert hit.lo == pytest.approx(1.5, abs=1e-12)
        assert hit.hi == pytest.approx(2.5, abs=1e-12)

    def test_vertical_separation_suppresses_planar_overlap(self):
        a = LinearMotion((0.0, 0.0, 0.0), (4.0, 0.0, 0.0), 0.0, 4.0)
        b = LinearMotion((4.0, 0.0, 3.0), (0.0, 0.0, 3.0), 0.0, 4.0)
        body = CylinderBody(0.5, 1.0)
        assert cylinder_unsafe_interval(a, b, body, body) is None

    def test_symmetry(self):
        a = LinearMotion((0.0, 0.0, 0.0), (3.0, 1.0, 1.0), 0.5, 3.5)
        b = LinearMotion((3.0, 0.0, 0.5), (0.0, 1.0, 0.5), 0.0, 4.0)
        body_a = CylinderBody(0.4, 1.2)
        body_b = CylinderBody(0.6, 0.8)
        ab = cylinder_unsafe_interval(a, b, body_a, body_b)
        ba = cylinder_unsafe_interval(b, a, body_b, body_a)
        assert ab == ba

    def test_time_shift_equivariance(self):
        a = LinearMotion((0.0, 0.0, 0.0), (4.0, 0.0, 0.0), 0.0, 4.0)
        b = LinearMotion((4.0, 0.2, 0.0), (0.0, 0.2, 0.0), 0.0, 4.0)
        body = CylinderBody(0.5, 1.0)
        base = cylinder_unsafe_interval(a, b, body, body)
        later = cylinder_unsafe_interval(shifted(a, 2.0), shifted(b, 2.0), body, body)
        assert base is not None and later is not None
        assert later.lo == pytest.approx(base.lo + 2.0, abs=1e-9)
        assert later.hi == pytest.approx(base.hi + 2.0, abs=1e-9)


# ---------------------------------------------------------------------------
# clearing delay
# ---------------------------------------------------------------------------


SQRT2 = math.sqrt(2.0)
# departure times as the solver produces them: sums of face (1 s) and planar
# diagonal (sqrt 2 s) moves at 0.5 m/s on 0.5 m cells, and a bisected delay
LATTICE_TIMES = (0.0, 1.0, SQRT2, 2.0, 1.0 + SQRT2, 2.4142135627984613, 3.0, 2.0 * SQRT2, 2.0 + SQRT2)
LATTICE_STEPS = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1),
                 (1, 1, 0), (1, -1, 0), (-1, 1, 0), (-1, -1, 0)]


def random_pair(rng: random.Random) -> tuple[LinearMotion, LinearMotion]:
    def motion():
        return LinearMotion(
            (rng.uniform(0, 3), rng.uniform(0, 3), rng.uniform(0, 1)),
            (rng.uniform(0, 3), rng.uniform(0, 3), rng.uniform(0, 1)),
            rng.uniform(0, 1),
            rng.uniform(1.5, 3),
        )

    return motion(), motion()


def lattice_pair(rng: random.Random) -> tuple[LinearMotion, LinearMotion]:
    """Grid-neighbour moves and waits between 0.5 m cell centres: the grazing-rich case."""

    def motion():
        cell = (rng.randrange(3), rng.randrange(3), rng.randrange(2))
        p0 = tuple((c + 0.5) * 0.5 for c in cell)
        t0 = rng.choice(LATTICE_TIMES)
        if rng.random() < 0.3:
            return LinearMotion(p0, p0, t0, t0 + rng.choice((1.0, SQRT2, 2.0)))
        step = rng.choice(LATTICE_STEPS)
        p1 = tuple((c + d + 0.5) * 0.5 for c, d in zip(cell, step))
        return LinearMotion(p0, p1, t0, t0 + math.dist(p0, p1) / 0.5)

    return motion(), motion()


class TestMoveClearDelay:
    def test_head_on_lattice_move_snaps_exactly(self):
        # two grid moves toward each other; the minimal clearing delay is exactly
        # the other's end time, and the boundary value must come out exact so
        # delayed departures do not leave nanosecond grazing overlaps behind
        action = LinearMotion((0.25, 0.25, 0.25), (0.75, 0.25, 0.25), 0.0, 1.0)
        other = LinearMotion((1.25, 0.25, 0.25), (0.75, 0.25, 0.25), 0.0, 1.0)
        body = CylinderBody(0.25, 1.0)
        delay = move_clear_delay(action, other, body, body)
        assert delay == 1.0

    def test_shifting_by_returned_delay_clears(self):
        # continuous motions, then lattice ones, where the snap candidates decide;
        # on the lattice both a layer-overlapping and a layer-touching height
        cases = [(random_pair, CylinderBody(0.5, 1.0), 200, 40),
                 (lattice_pair, CylinderBody(0.25, 1.0), 5000, 500),
                 (lattice_pair, CylinderBody(0.25, 0.5), 5000, 300)]
        rng = random.Random(4)
        for make_pair, body, draws, least in cases:
            checked = 0
            for _ in range(draws):
                a, b = make_pair(rng)
                if cylinder_unsafe_interval(a, b, body, body) is None:
                    continue
                checked += 1
                delay = move_clear_delay(a, b, body, body)
                assert cylinder_unsafe_interval(shifted(a, delay), b, body, body) is None, (a, b, body, delay)
            assert checked >= least  # the generator must actually produce conflicts


# ---------------------------------------------------------------------------
# plan-level conflict scan
# ---------------------------------------------------------------------------


def joint_earliest(plans, bodies):
    """Earliest conflict of a joint plan, through the solver's conflict table."""
    return earliest_conflict(conflict_table({p.agent: p for p in plans}, bodies))


class TestFirstConflict:
    def test_parked_goal_is_protected(self):
        # agent 0 parks at x = 2.5 from t = 2; agent 1 flies at it and stops
        # inside its protection radius; the scan must catch the approach
        plan_a = TimedPlan(0, ((0.5, 0.5, 0.5, 0.0), (2.5, 0.5, 0.5, 2.0)))
        plan_b = TimedPlan(1, ((6.5, 0.5, 0.5, 0.0), (3.5, 0.5, 0.5, 3.0)))
        bodies = {0: CylinderBody(0.6, 1.0), 1: CylinderBody(0.6, 1.0)}
        conflict = joint_earliest([plan_a, plan_b], bodies)
        assert conflict is not None
        assert (conflict.agent_i, conflict.agent_j) == (0, 1)
        # |3.5 + (6.5 - 3.5 - t) - 2.5| < 1.2 from t = 2.8 onward
        assert conflict.unsafe.lo == pytest.approx(2.8, abs=1e-9)

    def test_adjacent_parks_at_exact_touch_are_safe(self):
        plan_a = TimedPlan(0, ((0.5, 0.5, 0.5, 0.0), (2.5, 0.5, 0.5, 2.0)))
        plan_b = TimedPlan(1, ((6.5, 0.5, 0.5, 0.0), (3.5, 0.5, 0.5, 3.0)))
        bodies = {0: CylinderBody(0.5, 1.0), 1: CylinderBody(0.5, 1.0)}  # gap == r_sum
        assert joint_earliest([plan_a, plan_b], bodies) is None

    def test_earliest_conflict_wins(self):
        # agent 1 meets agent 0 at t ~ 1; agent 2 meets agent 0 much later
        plan_a = TimedPlan(0, ((0.0, 0.0, 0.5, 0.0), (8.0, 0.0, 0.5, 8.0)))
        plan_b = TimedPlan(1, ((2.0, 0.0, 0.5, 0.0), (2.0, 0.0, 0.5, 0.0 + 1.0),))
        plan_c = TimedPlan(2, ((6.0, 0.0, 0.5, 0.0), (6.0, 0.0, 0.5, 1.0),))
        bodies = {i: CylinderBody(0.5, 1.0) for i in range(3)}
        conflict = joint_earliest([plan_a, plan_b, plan_c], bodies)
        assert conflict is not None
        assert (conflict.agent_i, conflict.agent_j) == (0, 1)

    def test_single_plan_has_no_conflict(self):
        plan = TimedPlan(0, ((0.0, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 1.0)))
        assert joint_earliest([plan], {0: CylinderBody(0.5, 1.0)}) is None


class TestPlanMotions:
    def test_motions_and_parked_suffix(self):
        # the last motion is the goal park: a wait from the plan's end that never ends
        plan = TimedPlan(0, ((0.0, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 1.0), (1.0, 0.0, 0.0, 2.0)))
        motions = plan_motions(plan)
        assert [(m.t0, m.t1, m.is_wait) for m in motions] == [(0.0, 1.0, False), (1.0, 2.0, True), (2.0, math.inf, True)]
        assert motions[-1].p0 == (1.0, 0.0, 0.0)
        assert plan_motions(plan) is motions  # one cached list per plan
        assert plan_motions(TimedPlan(1, ((0.0, 0.0, 0.0, 0.0),))) == (
            LinearMotion((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), 0.0, math.inf),
        )

    def test_overlapping_goals_conflict_for_good(self):
        # two agents parked 0.3 m apart from t = 0: the overlap never ends
        body = CylinderBody(0.25, 1.0)
        plan_a = TimedPlan(0, ((1.0, 0.0, 0.5, 0.0),))
        plan_b = TimedPlan(1, ((1.3, 0.0, 0.5, 0.0),))
        found = _pair_earliest(plan_a, plan_b, body, body)
        assert found is not None and found.unsafe == Interval(0.0, math.inf)
        assert (found.action_i, found.action_j) == (plan_motions(plan_a)[-1], plan_motions(plan_b)[-1])


# ---------------------------------------------------------------------------
# randomized equivalence against the sampling + bisection oracle
# ---------------------------------------------------------------------------


def random_motion(rng: random.Random) -> LinearMotion:
    p0 = (rng.uniform(0, 3), rng.uniform(0, 3), rng.uniform(0, 2))
    if rng.random() < 0.25:
        p1 = p0  # wait in place
    else:
        p1 = (rng.uniform(0, 3), rng.uniform(0, 3), rng.uniform(0, 2))
    t0 = rng.uniform(0, 2)
    return LinearMotion(p0, p1, t0, t0 + rng.uniform(0.3, 3.0))


def assert_matches_oracle(a: LinearMotion, b: LinearMotion, body_a: CylinderBody, body_b: CylinderBody):
    r_sum = body_a.radius + body_b.radius
    h_half = 0.5 * (body_a.height + body_b.height)
    got = cylinder_unsafe_interval(a, b, body_a, body_b)
    want = unsafe_interval_oracle(a, b, r_sum, h_half)
    if want is not None:
        # no false-safe: an overlap the oracle can see must be reported
        assert got is not None, f"false-safe: oracle found {want}, implementation found none"
        assert got.lo == pytest.approx(want[0], abs=1e-6)
        assert got.hi == pytest.approx(want[1], abs=1e-6)
    elif got is not None:
        # windows narrower than the oracle's sampling step are legitimate;
        # they must still be genuine overlaps at their midpoint
        assert got.hi - got.lo < 2e-4, f"oracle missed a wide window {got}"


def test_randomized_pairs_match_oracle():
    rng = random.Random(12345)
    for _ in range(150):
        a = random_motion(rng)
        b = random_motion(rng)
        body_a = CylinderBody(rng.uniform(0.2, 0.7), rng.uniform(0.5, 2.0))
        body_b = CylinderBody(rng.uniform(0.2, 0.7), rng.uniform(0.5, 2.0))
        assert_matches_oracle(a, b, body_a, body_b)
