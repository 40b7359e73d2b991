"""Analytic collision geometry: unsafe intervals, clearing delays, conflict scan."""

import math
import random

import pytest

from mapflight import geometry3d
from mapflight.ccbs import conflict_table
from mapflight.geometry3d import (
    _BRACKET_WIDTH,
    _CLEAR_TOL,
    CylinderBody,
    _contact,
    LinearMotion,
    cylinder_unsafe_interval,
    _pair_earliest,
    _unsafe_window,
    is_finite_number,
    move_clear_delay,
)
from mapflight.plan import TimedPlan

from oracles import (
    box_oracle,
    contact_oracle,
    earliest_conflict,
    is_wait_oracle,
    motions_reference,
    move_clear_delay_reference,
    pair_earliest_reference,
    unsafe_interval_oracle,
    velocity_oracle,
)


def shifted(motion: LinearMotion, dt: float) -> LinearMotion:
    """The same motion, dt later."""
    return LinearMotion(motion.p0, motion.p1, motion.t0 + dt, motion.t1 + dt)


# ---------------------------------------------------------------------------
# LinearMotion / CylinderBody contracts
# ---------------------------------------------------------------------------


class TestLinearMotion:
    def test_wait_detection_and_velocity(self):
        wait = LinearMotion((1.0, 2.0, 3.0), (1.0, 2.0, 3.0), 0.0, 5.0)
        assert wait.is_wait
        assert wait.velocity == (0.0, 0.0, 0.0)
        move = LinearMotion((0.0, 0.0, 0.0), (2.0, 0.0, 0.0), 1.0, 3.0)
        assert not move.is_wait
        assert move.velocity == (1.0, 0.0, 0.0)

    def test_infinite_end_only_for_waits(self):
        LinearMotion((1.0, 1.0, 1.0), (1.0, 1.0, 1.0), 0.0, math.inf)  # parked forever: fine
        with pytest.raises(ValueError):
            LinearMotion((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), 0.0, math.inf)

    def test_rejects_reversed_times_and_negative_start(self):
        with pytest.raises(ValueError):
            LinearMotion((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), 2.0, 1.0)
        with pytest.raises(ValueError, match="t0 < t1"):
            LinearMotion((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), 1.0, 1.0)  # zero duration
        with pytest.raises(ValueError):
            LinearMotion((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), -1.0, 1.0)


HUGE_INT = 10**400  # a JSON integer too large for a float


@pytest.mark.parametrize(
    "value,expected",
    [(1, True), (-2.5, True), (0, True), (True, False), (False, False), (math.nan, False), (math.inf, False),
     (-math.inf, False), pytest.param(HUGE_INT, False, id="huge-int"), pytest.param(-HUGE_INT, False, id="-huge-int"),
     ("1.0", False), (None, False)],
)
def test_is_finite_number(value, expected):
    assert is_finite_number(value) is expected


class TestCylinderBody:
    @pytest.mark.parametrize(
        "radius,height",
        [(0.0, 1.0), (-0.1, 1.0), (0.5, 0.0), (math.inf, 1.0), (True, 1.0), ("a", 1.0),
         pytest.param(HUGE_INT, 1.0, id="huge-int-1.0"), (0.5, True), (0.5, "a"), pytest.param(0.5, HUGE_INT, id="0.5-huge-int")],
    )
    def test_rejects_degenerate_bodies(self, radius, height):
        with pytest.raises(ValueError):
            CylinderBody(radius, height)

    def test_integer_sizes_become_floats(self):
        body = CylinderBody(1, 2)
        assert body == CylinderBody(1.0, 2.0) and type(body.radius) is float and type(body.height) is float


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
        assert hit[0] == pytest.approx(1.5, abs=1e-12)
        assert hit[1] == pytest.approx(2.5, abs=1e-12)

    def test_parallel_far_apart(self):
        a = LinearMotion((0.0, 0.0, 0.0), (4.0, 0.0, 0.0), 0.0, 4.0)
        b = LinearMotion((0.0, 10.0, 0.0), (4.0, 10.0, 0.0), 0.0, 4.0)
        assert cylinder_unsafe_interval(a, b, TALL, TALL) is None

    def test_two_overlapping_waits(self):
        a = LinearMotion((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), 0.0, 1.0)
        b = LinearMotion((0.5, 0.0, 0.0), (0.5, 0.0, 0.0), 0.0, 1.0)
        assert cylinder_unsafe_interval(a, b, TALL, TALL) == (0.0, 1.0)

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
        assert hit[0] == pytest.approx(1.4, abs=1e-12)
        assert hit[1] == pytest.approx(2.0, abs=1e-12)

    def test_same_level_hover(self):
        a = LinearMotion((0.0, 0.0, 1.0), (0.0, 0.0, 1.0), 0.0, 5.0)
        b = LinearMotion((1.0, 0.0, 1.0), (1.0, 0.0, 1.0), 0.0, 5.0)
        assert cylinder_unsafe_interval(a, b, WIDE, WIDE) == (0.0, 5.0)

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
        assert hit[0] == pytest.approx(1.5, abs=1e-12)
        assert hit[1] == pytest.approx(2.5, abs=1e-12)

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
        assert later[0] == pytest.approx(base[0] + 2.0, abs=1e-9)
        assert later[1] == pytest.approx(base[1] + 2.0, abs=1e-9)


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

    def test_an_other_that_never_ends_needs_an_endless_delay(self):
        # no delay clears an agent parked for good: its window never closes,
        # so the delay is inf rather than a bisection over [0, inf]
        action = LinearMotion((0.25, 0.25, 0.25), (0.75, 0.25, 0.25), 0.0, 1.0)
        parked = LinearMotion((0.75, 0.25, 0.25), (0.75, 0.25, 0.25), 0.5, math.inf)
        body = CylinderBody(0.25, 1.0)
        assert move_clear_delay(action, parked, body, body) == math.inf

    def test_shifting_by_returned_delay_clears(self, monkeypatch):
        # continuous motions, then lattice ones, where the snap candidates decide;
        # on the lattice both a layer-overlapping and a layer-touching height.
        # Each probe is detection on the delayed action, bit for bit, and a move's
        # delay is the least that clears, within the bisection's width.
        probes = []

        def recording(a, b, delay, r_sum, h_sum_half):
            window = _unsafe_window(a, b, delay, r_sum, h_sum_half)
            probes.append((delay, window))
            return window

        monkeypatch.setattr(geometry3d, "_unsafe_window", recording)
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
                probes.clear()
                delay = move_clear_delay(a, b, body, body)
                probed = list(probes)
                assert probed  # every probe goes through the kernel
                for probe, window in probed:
                    hit = cylinder_unsafe_interval(shifted(a, probe), b, body, body)
                    assert bits(window) == bits(hit), (a, b, body, probe)
                assert cylinder_unsafe_interval(shifted(a, delay), b, body, body) is None, (a, b, body, delay)
                if not a.is_wait and delay >= 2 * _CLEAR_TOL:
                    early = shifted(a, delay - 2 * _CLEAR_TOL)
                    assert cylinder_unsafe_interval(early, b, body, body) is not None, (a, b, body, delay)
            assert checked >= least  # the generator must actually produce conflicts


CLEARING_BODIES = ((0.25, 1.0), (0.15, 0.5), (0.5, 1.0))  # (radius, height)


def clearing_corpus(scale: float, draws: int = 1500):
    """Fixed-seed conflicting (action, other, body) triples, random and lattice
    pairs under each body, every length scaled by `scale` and every time kept."""

    def scaled(m):
        return LinearMotion(tuple(v * scale for v in m.p0), tuple(v * scale for v in m.p1), m.t0, m.t1)

    rng = random.Random(7)
    for _ in range(draws):
        for make_pair in (random_pair, lattice_pair):
            a, b = make_pair(rng)
            a, b = scaled(a), scaled(b)
            for radius, height in CLEARING_BODIES:
                body = CylinderBody(radius * scale, height * scale)
                if cylinder_unsafe_interval(a, b, body, body) is not None:
                    yield a, b, body


class TestClearingBracket:
    """move_clear_delay against its two rules: a verified time-alignment
    candidate, else the plain bisection and snap, move_clear_delay_reference."""

    @pytest.mark.parametrize("scale", [1.0, 2.0**-4])
    def test_equals_the_plain_bisection_bit_for_bit(self, scale):
        pairs = 0
        for a, b, body in clearing_corpus(scale):
            pairs += 1
            want = move_clear_delay_reference(a, b, body, body)
            assert move_clear_delay(a, b, body, body).hex() == want.hex(), (a, b, body)
        assert pairs > 2500

    @pytest.mark.parametrize("scale", [3.0, 1e-2])
    def test_keeps_the_contract_where_the_kernel_is_not_monotone(self, scale):
        # Off the binary scales the kernel's verdict is not always monotone in
        # the delay, so the value may differ from the plain bisection's. It
        # always clears. For a move, 2 * _CLEAR_TOL less collides, unless the
        # plain bisection misses that too (the same value) or the conflict is
        # a graze under _CLEAR_TOL long, whose hits are rounding noise.
        for a, b, body in clearing_corpus(scale):
            delay = move_clear_delay(a, b, body, body)
            assert cylinder_unsafe_interval(shifted(a, delay), b, body, body) is None, (a, b, body, delay)
            if a.is_wait or delay < 2 * _CLEAR_TOL:
                continue
            if cylinder_unsafe_interval(shifted(a, delay - 2 * _CLEAR_TOL), b, body, body) is None:
                lo, hi = cylinder_unsafe_interval(a, b, body, body)
                assert delay == move_clear_delay_reference(a, b, body, body) or hi - lo < _CLEAR_TOL, (a, b, body)

    @pytest.mark.parametrize("scale", [1.0, 2.0**-4, 3.0, 1e-2])
    def test_returns_a_delay_the_kernel_judged_clear(self, scale, monkeypatch):
        # answered probes never decide the result: it is a kernel verdict
        clear = set()

        def recording(a, b, delay, r_sum, h_sum_half):
            window = _unsafe_window(a, b, delay, r_sum, h_sum_half)
            if window is None:
                clear.add(delay)
            return window

        monkeypatch.setattr(geometry3d, "_unsafe_window", recording)
        for a, b, body in clearing_corpus(scale):
            clear.clear()
            delay = move_clear_delay(a, b, body, body)
            assert delay in clear, (a, b, body, delay)

    @pytest.mark.parametrize("scale", [1.0, 2.0**-4, 3.0, 1e-2])
    def test_returns_the_verified_candidate(self, scale):
        # the first clear candidate above _BRACKET_WIDTH, with a hit _BRACKET_WIDTH below it
        verified = 0
        for a, b, body in clearing_corpus(scale):
            candidates = sorted({b.t0 - a.t0, b.t0 - a.t1, b.t1 - a.t0, b.t1 - a.t1})
            clear = [c for c in candidates
                     if c > _BRACKET_WIDTH and cylinder_unsafe_interval(shifted(a, c), b, body, body) is None]
            if clear and cylinder_unsafe_interval(shifted(a, clear[0] - _BRACKET_WIDTH), b, body, body) is not None:
                verified += 1
                assert move_clear_delay(a, b, body, body) == clear[0], (a, b, body)
        assert verified > 0

    def test_a_plain_bisection_that_ends_in_the_snap_is_the_reference(self):
        # no candidate verifies a bracket, and the bisection's final [lo, hi]
        # holds a clear candidate: without the snap these would return hi
        snapped = 0
        for a, b, body in clearing_corpus(0.37):
            r_sum, h_sum_half = 2 * body.radius, body.height

            def collides(delay):
                return _unsafe_window(a, b, delay, r_sum, h_sum_half) is not None

            candidates = sorted({b.t0 - a.t0, b.t0 - a.t1, b.t1 - a.t0, b.t1 - a.t1})
            clear = [c for c in candidates if c > _BRACKET_WIDTH and not collides(c)]
            want = move_clear_delay_reference(a, b, body, body)
            if not (clear and collides(clear[0] - _BRACKET_WIDTH)) and want in candidates:
                snapped += 1
                assert move_clear_delay(a, b, body, body).hex() == want.hex(), (a, b, body)
        assert snapped > 0

    def test_kernel_probes_are_pinned(self, monkeypatch):
        # the saving itself: kernel windows over the scale-1 corpus, the plain
        # bisection's count beside it
        corpus = list(clearing_corpus(1.0))
        probes = 0

        def counted(*args):
            nonlocal probes
            probes += 1
            return _unsafe_window(*args)

        monkeypatch.setattr(geometry3d, "_unsafe_window", counted)
        counts = []
        for clearing_delay in (move_clear_delay, move_clear_delay_reference):
            probes = 0
            for a, b, body in corpus:
                clearing_delay(a, b, body, body)
            counts.append(probes)
        assert counts == [55540, 82242]


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
        assert conflict.unsafe[0] == pytest.approx(2.8, abs=1e-9)

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
        motions = plan.motions
        assert [(m.t0, m.t1, m.is_wait) for m in motions] == [(0.0, 1.0, False), (1.0, 2.0, True), (2.0, math.inf, True)]
        assert motions[-1].p0 == (1.0, 0.0, 0.0)
        assert TimedPlan(1, ((0.0, 0.0, 0.0, 0.0),)).motions == (
            LinearMotion((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), 0.0, math.inf),
        )

    def test_overlapping_goals_conflict_for_good(self):
        # two agents parked 0.3 m apart from t = 0: the overlap never ends
        body = CylinderBody(0.25, 1.0)
        plan_a = TimedPlan(0, ((1.0, 0.0, 0.5, 0.0),))
        plan_b = TimedPlan(1, ((1.3, 0.0, 0.5, 0.0),))
        found = _pair_earliest(plan_a, plan_b, body, body)
        assert found is not None and found.unsafe == (0.0, math.inf)
        assert (found.action_i, found.action_j) == (plan_a.motions[-1], plan_b.motions[-1])


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
        assert got[0] == pytest.approx(want[0], abs=1e-6)
        assert got[1] == pytest.approx(want[1], abs=1e-6)
    elif got is not None:
        # windows narrower than the oracle's sampling step are legitimate;
        # they must still be genuine overlaps at their midpoint
        assert got[1] - got[0] < 2e-4, f"oracle missed a wide window {got}"


def test_randomized_pairs_match_oracle():
    rng = random.Random(12345)
    for _ in range(150):
        a = random_motion(rng)
        b = random_motion(rng)
        body_a = CylinderBody(rng.uniform(0.2, 0.7), rng.uniform(0.5, 2.0))
        body_b = CylinderBody(rng.uniform(0.2, 0.7), rng.uniform(0.5, 2.0))
        assert_matches_oracle(a, b, body_a, body_b)


# ---------------------------------------------------------------------------
# bit-for-bit equivalence of the contact kernel and the motion fields
# ---------------------------------------------------------------------------

SQRT1_2 = math.sqrt(0.5)
# signed zeros, cell offsets and axis/diagonal speeds: the values grid plans produce
KERNEL_LATTICE = (0.0, -0.0, 0.25, -0.25, 0.5, -0.5, 1.0, -1.0, SQRT1_2, -SQRT1_2, 0.5 * SQRT1_2, -0.5 * SQRT1_2)
# (r_sum, h_sum_half) of the test bodies (0.25, 1.0), (0.25, 0.5) and (0.5, 1.0)
KERNEL_BODIES = ((0.5, 1.0), (0.5, 0.5), (1.0, 1.0))
KERNEL_SPANS = (*LATTICE_TIMES[1:], 0.5, math.inf)


def bits(value):
    """float.hex of every entry, so that -0.0 and 0.0 differ."""
    return None if value is None else tuple(float.hex(v) for v in value)


def test_contact_kernel_matches_the_generic_oracle_bit_for_bit():
    rng = random.Random(20)

    def component():
        return rng.choice(KERNEL_LATTICE) if rng.random() < 0.75 else rng.uniform(-2.0, 2.0)

    contacts = 0
    for _ in range(60_000):
        dp = (component(), component(), component())
        dv = (component(), component(), component())
        span = rng.choice(KERNEL_SPANS) if rng.random() < 0.75 else rng.uniform(0.1, 3.0)
        if rng.random() < 0.75:
            r_sum, h_half = rng.choice(KERNEL_BODIES)
        else:
            r_sum, h_half = rng.uniform(0.4, 1.4), rng.uniform(0.5, 2.0)
        got = _contact(dp, dv, span, r_sum, h_half)
        assert bits(got) == bits(contact_oracle(dp, dv, span, r_sum, h_half)), (dp, dv, span, r_sum, h_half)
        contacts += got is not None
    assert contacts >= 10_000  # the draws must reach the root-finding branch


def test_motion_fields_match_the_per_call_formulas():
    rng = random.Random(21)
    motions = []
    for _ in range(2000):
        motions += [*random_pair(rng), *lattice_pair(rng), random_motion(rng)]
    motions.append(LinearMotion((1.0, 1.0, 1.0), (1.0, 1.0, 1.0), 2.0, math.inf))
    for m in motions:
        assert m.is_wait == is_wait_oracle(m), m
        assert bits(m.velocity) == bits(velocity_oracle(m)), m


# ---------------------------------------------------------------------------
# the swept pair scan against the exhaustive double loop
# ---------------------------------------------------------------------------

PAIR_STEP = 0.5  # lattice spacing in x, y and z
# r_sum below, at (grazing) and just above one step; h_sum_half likewise
PAIR_BODIES = (CylinderBody(0.2, 0.9), CylinderBody(0.25, 1.0), CylinderBody(0.255, 1.02), CylinderBody(0.3, 0.5))


def lattice_plan(rng: random.Random, agent: int) -> TimedPlan:
    """A random walk over a small lattice, diagonal moves and waits included;
    a zero coordinate is sometimes -0.0."""

    def coord(n):
        x = n * PAIR_STEP
        return -0.0 if x == 0.0 and rng.random() < 0.5 else x

    cell = [rng.randrange(0, 4), rng.randrange(0, 4), rng.randrange(0, 2)]
    speed = rng.choice([0.5, 0.7, 1.0])
    t = 0.0
    waypoints = [(coord(cell[0]), coord(cell[1]), coord(cell[2]), t)]
    for _ in range(rng.randrange(0, 9)):
        if rng.random() < 0.3:
            t += rng.choice([0.5, 1.0, rng.uniform(0.05, 2.0)])
        else:
            step = [rng.choice((-1, 0, 1)) for _ in range(3)] if rng.random() < 0.5 else [0, 0, 0]
            if step == [0, 0, 0]:
                step[rng.randrange(3)] = rng.choice((-1, 1))
            cell = [c + d for c, d in zip(cell, step)]
            t += PAIR_STEP * math.sqrt(sum(d * d for d in step)) / speed
        waypoints.append((coord(cell[0]), coord(cell[1]), coord(cell[2]), t))
    return TimedPlan(agent, tuple(waypoints))


def motion_bits(m: LinearMotion):
    return bits((*m.p0, *m.p1, m.t0, m.t1, *m.velocity)), m.is_wait


def test_swept_pair_scan_matches_the_exhaustive_loop():
    rng = random.Random(31)
    conflicts = signed_zero_boxes = 0
    for case in range(3000):
        plan_a, plan_b = lattice_plan(rng, 0), lattice_plan(rng, 1)
        for plan in (plan_a, plan_b):
            # a plan's own motions are those of the reference's waypoint loop, bit for bit
            assert [motion_bits(m) for m in plan.motions] == [motion_bits(m) for m in motions_reference(plan)], case
            # and each box is its motion's ordered endpoints, waits and the park included
            assert [bits(m.box) for m in plan.motions] == [bits(box_oracle(m)) for m in plan.motions], case
            signed_zero_boxes += sum(v == 0.0 and math.copysign(1.0, v) < 0.0 for m in plan.motions for v in m.box)
        body_a, body_b = rng.choice(PAIR_BODIES), rng.choice(PAIR_BODIES)
        got = _pair_earliest(plan_a, plan_b, body_a, body_b)
        want = pair_earliest_reference(plan_a, plan_b, body_a, body_b)
        assert (got is None) == (want is None), case
        if got is None:
            continue
        conflicts += 1
        assert motion_bits(got.action_i) == motion_bits(want.action_i), case
        assert motion_bits(got.action_j) == motion_bits(want.action_j), case
        assert bits(got.unsafe) == bits(want.unsafe), case
    # both outcomes must be common, and boxes must meet -0.0
    assert 600 <= conflicts <= 2400, conflicts
    assert signed_zero_boxes >= 1000, signed_zero_boxes
