"""Analytic collision geometry for cylindrical agents on piecewise-linear 3D trajectories.

Agents are upright cylinders. Two agents collide when their planar center
distance is below the sum of their radii while their vertical center distance
is below the half-sum of their heights. Both inequalities are strict, so
touching bodies are safe and grazing contacts do not count as conflicts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a runtime cycle
    from .plan import TimedPlan

Vec3 = tuple[float, float, float]

# Quadratic discriminants below this are grazing contacts, not conflicts.
TANGENCY_EPS = 1e-12

# Bisection width of move_clear_delay, s.
_CLEAR_TOL = 1e-9


@dataclass(frozen=True)
class Interval:
    """Time interval [lo, hi] in seconds; hi may be +inf for open-ended windows."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.lo) or self.lo < 0.0:
            raise ValueError(f"interval lo must be finite and >= 0, got {self.lo!r}")
        if math.isnan(self.hi) or self.hi < self.lo:
            raise ValueError(f"interval must satisfy lo <= hi, got [{self.lo!r}, {self.hi!r}]")

    @property
    def unbounded(self) -> bool:
        return math.isinf(self.hi)

    def contains(self, t: float) -> bool:
        return self.lo <= t <= self.hi


@dataclass(frozen=True)
class LinearMotion:
    """Straight-line motion from p0 at t0 to p1 at t1; a wait has p0 == p1.

    t1 = +inf is permitted only for waits (an agent parked forever).
    """

    p0: Vec3
    p1: Vec3
    t0: float
    t1: float

    def __post_init__(self) -> None:
        for v in (*self.p0, *self.p1, self.t0):
            if not math.isfinite(v):
                raise ValueError("motion endpoints and t0 must be finite")
        if math.isnan(self.t1) or self.t1 < self.t0:
            raise ValueError(f"motion must satisfy t0 <= t1, got [{self.t0!r}, {self.t1!r}]")
        if self.t0 < 0.0:
            raise ValueError("motion cannot start before t = 0")
        if math.isinf(self.t1) and self.p0 != self.p1:
            raise ValueError("only a wait may have an infinite end time")

    @property
    def is_wait(self) -> bool:
        return self.p0 == self.p1

    def velocity(self) -> Vec3:
        if self.is_wait or self.t1 == self.t0:
            return (0.0, 0.0, 0.0)
        inv = 1.0 / (self.t1 - self.t0)
        return (
            (self.p1[0] - self.p0[0]) * inv,
            (self.p1[1] - self.p0[1]) * inv,
            (self.p1[2] - self.p0[2]) * inv,
        )

    def position_at(self, t: float) -> Vec3:
        if self.is_wait or self.t1 == self.t0:
            return self.p0
        s = (t - self.t0) / (self.t1 - self.t0)
        return (
            self.p0[0] + (self.p1[0] - self.p0[0]) * s,
            self.p0[1] + (self.p1[1] - self.p0[1]) * s,
            self.p0[2] + (self.p1[2] - self.p0[2]) * s,
        )


@dataclass(frozen=True)
class CylinderBody:
    """Upright protection cylinder centered on the agent."""

    radius: float
    height: float

    def __post_init__(self) -> None:
        if not (self.radius > 0.0 and math.isfinite(self.radius)):
            raise ValueError(f"radius must be > 0, got {self.radius!r}")
        if not (self.height > 0.0 and math.isfinite(self.height)):
            raise ValueError(f"height must be > 0, got {self.height!r}")


@dataclass(frozen=True)
class Conflict:
    """Earliest pairwise collision between two plan actions."""

    agent_i: int
    action_i: LinearMotion
    agent_j: int
    action_j: LinearMotion
    unsafe: Interval


def _require_valid(m: LinearMotion) -> None:
    if m.t1 <= m.t0:
        raise ValueError(f"degenerate motion: t0 = {m.t0!r}, t1 = {m.t1!r}")


def _overlap_window(a: LinearMotion, b: LinearMotion) -> Optional[tuple[float, float]]:
    lo = a.t0 if a.t0 > b.t0 else b.t0
    hi = a.t1 if a.t1 < b.t1 else b.t1
    if hi <= lo:
        return None
    return lo, hi


def _below_threshold(dp: tuple, dv: tuple, threshold: float, span: float) -> Optional[tuple[float, float]]:
    """Open subinterval of [0, span] where ||dp + s*dv|| < threshold, or None.

    Solves the quadratic |dv|^2 s^2 + 2(dp.dv) s + |dp|^2 - threshold^2 < 0
    in a cancellation-free form.
    """
    a2 = sum(c * c for c in dv)
    c2 = sum(c * c for c in dp) - threshold * threshold
    if a2 < 1e-30:
        # no relative motion: inside for the whole window or never
        return (0.0, span) if c2 < 0.0 else None
    b2 = 2.0 * sum(p * v for p, v in zip(dp, dv))
    disc = b2 * b2 - 4.0 * a2 * c2
    if disc < TANGENCY_EPS:
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


def _contact(dp: Vec3, dv: Vec3, span: float, r_sum: float, h_sum_half: float) -> Optional[tuple[float, float]]:
    """Open subwindow of [0, span] where the relative motion dp + s*dv is a contact, or None.

    The one statement of the cylinder rule: planar distance < r_sum AND
    vertical distance < h_sum_half.
    """
    xy = _below_threshold((dp[0], dp[1]), (dv[0], dv[1]), r_sum, span)
    if xy is None:
        return None
    z = _below_threshold((dp[2],), (dv[2],), h_sum_half, span)
    if z is None:
        return None
    lo = max(xy[0], z[0])
    hi = min(xy[1], z[1])
    if hi <= lo:
        return None
    return lo, hi


def cylinder_unsafe_interval(
    a: LinearMotion,
    b: LinearMotion,
    body_a: CylinderBody,
    body_b: CylinderBody,
) -> Optional[Interval]:
    """Maximal window where the two moving cylinders overlap (point contact is empty)."""
    _require_valid(a)
    _require_valid(b)
    window = _overlap_window(a, b)
    if window is None:
        return None
    w0, w1 = window
    # A wait-move pair is timed from the move's own start, where the mover sits
    # exactly at p0, so a graze is classified the same wherever the wait is cut.
    if a.is_wait != b.is_wait:
        ref = b.t0 if a.is_wait else a.t0
    else:
        ref = w0
    pa, pb = a.position_at(ref), b.position_at(ref)
    va, vb = a.velocity(), b.velocity()
    hit = _contact(
        (pa[0] - pb[0], pa[1] - pb[1], pa[2] - pb[2]),
        (va[0] - vb[0], va[1] - vb[1], va[2] - vb[2]),
        w1 - ref,
        body_a.radius + body_b.radius,
        0.5 * (body_a.height + body_b.height),
    )
    if hit is None:
        return None
    lo, hi = max(w0, ref + hit[0]), ref + hit[1]
    # a sub-ulp window collapses once it is placed at ref
    return Interval(lo, hi) if lo < hi else None


def move_clear_delay(
    action: LinearMotion,
    other: LinearMotion,
    body_a: CylinderBody,
    body_b: CylinderBody,
) -> float:
    """Smallest delay of `action` that clears its conflict with `other`.

    Bisects on the safe side, so shifting by the returned value is always
    conflict-free; exact to within _CLEAR_TOL. `other` must end at a finite time.
    """
    p0a, va, t0a, t1a = action.p0, action.velocity(), action.t0, action.t1
    p0b, vb, t0b, t1b = other.p0, other.velocity(), other.t0, other.t1
    dv = (va[0] - vb[0], va[1] - vb[1], va[2] - vb[2])
    r_sum = body_a.radius + body_b.radius
    h_sum_half = 0.5 * (body_a.height + body_b.height)
    other_waits = other.is_wait
    dp0 = (p0a[0] - p0b[0], p0a[1] - p0b[1], p0a[2] - p0b[2])

    def collides(delta: float) -> bool:
        w0 = max(t0a + delta, t0b)
        w1 = min(t1a + delta, t1b)
        if w1 <= w0:
            return False
        if other_waits:
            # timed from the move's own start, as cylinder_unsafe_interval does
            ref = t0a + delta
            hit = _contact(dp0, dv, w1 - ref, r_sum, h_sum_half)
            return hit is not None and max(w0, ref + hit[0]) < ref + hit[1]
        sa = w0 - delta - t0a
        sb = w0 - t0b
        dp = (
            (p0a[0] + va[0] * sa) - (p0b[0] + vb[0] * sb),
            (p0a[1] + va[1] * sa) - (p0b[1] + vb[1] * sb),
            (p0a[2] + va[2] * sa) - (p0b[2] + vb[2] * sb),
        )
        return _contact(dp, dv, w1 - w0, r_sum, h_sum_half) is not None

    lo = 0.0
    hi = max(0.0, t1b - t0a) + _CLEAR_TOL  # past the other's window: disjoint in time
    while hi - lo > _CLEAR_TOL:
        mid = 0.5 * (lo + hi)
        if collides(mid):
            lo = mid
        else:
            hi = mid
    # The clearing boundary often sits exactly where the shifted window starts
    # or stops touching the other's window. Snapping to such a value (when it
    # lands in the bisection bracket and is verified safe) keeps downstream
    # departure times exact, so grazing contacts stay zero-measure instead of
    # reappearing as nanosecond overlaps that the conflict search must chip
    # away at indefinitely.
    snapped = hi
    for cand in (t0b - t0a, t0b - t1a, t1b - t0a, t1b - t1a):
        if lo <= cand <= snapped and not collides(cand):
            snapped = cand
    return snapped


@lru_cache(maxsize=32768)
def plan_motions(plan: "TimedPlan") -> tuple[LinearMotion, ...]:
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


@lru_cache(maxsize=65536)
def _pair_earliest(
    plan_i: "TimedPlan",
    plan_j: "TimedPlan",
    body_i: CylinderBody,
    body_j: CylinderBody,
) -> Optional[Conflict]:
    """Earliest conflict between two plans, goal parking included, or None.

    Ties on the window start go to the earlier action of plan_i, then of
    plan_j. Cached: the conflict tree re-checks mostly unchanged plan pairs.
    Pure in its arguments, so sharing across solver nodes is sound.
    """
    segs_i = plan_motions(plan_i)
    segs_j = plan_motions(plan_j)

    best: Optional[Conflict] = None
    for si in segs_i:
        if best is not None and si.t0 > best.unsafe.lo:
            break
        for sj in segs_j:
            if best is not None and sj.t0 > best.unsafe.lo:
                break
            if si.t1 <= sj.t0 or sj.t1 <= si.t0:
                continue
            hit = cylinder_unsafe_interval(si, sj, body_i, body_j)
            if hit is None:
                continue
            if best is None or (hit.lo, si.t0, sj.t0) < (best.unsafe.lo, best.action_i.t0, best.action_j.t0):
                best = Conflict(plan_i.agent, si, plan_j.agent, sj, hit)
    return best
