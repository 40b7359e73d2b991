"""Analytic collision geometry for cylindrical agents on piecewise-linear 3D trajectories.

Agents are upright cylinders. Two agents collide when their planar center
distance is below the sum of their radii while their vertical center distance
is below the half-sum of their heights. Both inequalities are strict, so
touching bodies are safe and grazing contacts do not count as conflicts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a runtime cycle
    from .plan import TimedPlan

Vec3 = tuple[float, float, float]

# Quadratic discriminants below this are grazing contacts, not conflicts.
TANGENCY_EPS = 1e-12

# Bisection width of move_clear_delay, s.
_CLEAR_TOL = 1e-9

# A clear time-alignment candidate with a kernel hit this far below it is move_clear_delay's answer, s.
_BRACKET_WIDTH = _CLEAR_TOL / 16


def is_finite_number(v) -> bool:
    """An int or float, not a bool, whose float value is finite (an int too large for a float is not)."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


def _velocity(p0: Vec3, p1: Vec3, t0: float, t1: float) -> Vec3:
    """The one velocity formula: displacement over duration, zero for a wait."""
    if p0 == p1:
        return (0.0, 0.0, 0.0)
    inv = 1.0 / (t1 - t0)
    return ((p1[0] - p0[0]) * inv, (p1[1] - p0[1]) * inv, (p1[2] - p0[2]) * inv)


@dataclass(frozen=True)
class LinearMotion:
    """Straight-line motion from p0 at t0 to p1 at t1 > t0; a wait has p0 == p1.

    t1 = +inf is permitted only for waits (an agent parked forever).
    `is_wait`, `velocity` and `box`, the axis-aligned bounding box
    (x_lo, x_hi, y_lo, y_hi, z_lo, z_hi) that the pair scan filters on, are
    computed once, at construction.
    """

    p0: Vec3
    p1: Vec3
    t0: float
    t1: float
    is_wait: bool = field(init=False, repr=False, compare=False)
    velocity: Vec3 = field(init=False, repr=False, compare=False)
    box: tuple[float, float, float, float, float, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for v in (*self.p0, *self.p1, self.t0):
            if not math.isfinite(v):
                raise ValueError("motion endpoints and t0 must be finite")
        if not self.t1 > self.t0:
            raise ValueError(f"motion must satisfy t0 < t1, got [{self.t0!r}, {self.t1!r}]")
        if self.t0 < 0.0:
            raise ValueError("motion cannot start before t = 0")
        is_wait = self.p0 == self.p1
        if math.isinf(self.t1) and not is_wait:
            raise ValueError("only a wait may have an infinite end time")
        object.__setattr__(self, "is_wait", is_wait)
        object.__setattr__(self, "velocity", _velocity(self.p0, self.p1, self.t0, self.t1))
        (ax, ay, az), (bx, by, bz) = self.p0, self.p1
        x = (ax, bx) if ax < bx else (bx, ax)
        y = (ay, by) if ay < by else (by, ay)
        z = (az, bz) if az < bz else (bz, az)
        object.__setattr__(self, "box", (*x, *y, *z))


@dataclass(frozen=True)
class CylinderBody:
    """Upright protection cylinder centered on the agent."""

    radius: float
    height: float

    def __post_init__(self) -> None:
        for name in ("radius", "height"):
            v = getattr(self, name)
            if not (is_finite_number(v) and v > 0):
                raise ValueError(f"{name} must be a positive finite number, got {v!r}")
            object.__setattr__(self, name, float(v))


@dataclass(frozen=True)
class Conflict:
    """Earliest pairwise collision between two plan actions, over the kernel's window `unsafe` = (lo, hi)."""

    agent_i: int
    action_i: LinearMotion
    agent_j: int
    action_j: LinearMotion
    unsafe: tuple[float, float]

    def __post_init__(self) -> None:
        # conflicts key the solver's branch cache, so hash the fields once
        object.__setattr__(self, "_hash", hash((self.agent_i, self.action_i, self.agent_j, self.action_j, self.unsafe)))

    def __hash__(self) -> int:
        return self._hash  # type: ignore[attr-defined]


def _solve_below(a2: float, b2: float, c2: float, span: float) -> Optional[tuple[float, float]]:
    """Open subinterval of [0, span] where a2 s^2 + b2 s + c2 < 0, or None.

    The coefficients are those of ||dp + s*dv||^2 - threshold^2; the roots
    are taken in a cancellation-free form.
    """
    if a2 < 1e-30:
        # no relative motion: inside for the whole window or never
        return (0.0, span) if c2 < 0.0 else None
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
    vertical distance < h_sum_half. Every sum starts at 0.0, so that a sum
    of negative zeros is +0.0, as a sum() from int 0 is: _solve_below reads
    the sign of b2 through copysign, and -0.0 would take the other root
    formula and can change the window's last bits.
    """
    px, py, pz = dp
    vx, vy, vz = dv
    xy = _solve_below(0.0 + vx * vx + vy * vy, 2.0 * (0.0 + px * vx + py * vy),
                      0.0 + px * px + py * py - r_sum * r_sum, span)
    if xy is None:
        return None
    z = _solve_below(0.0 + vz * vz, 2.0 * (0.0 + pz * vz), 0.0 + pz * pz - h_sum_half * h_sum_half, span)
    if z is None:
        return None
    lo = max(xy[0], z[0])
    hi = min(xy[1], z[1])
    if hi <= lo:
        return None
    return lo, hi


def _position_at(p0: Vec3, p1: Vec3, t0: float, t1: float, t: float) -> Vec3:
    """Position at t on the move from p0 at t0 to p1 at t1, in fraction form."""
    s = (t - t0) / (t1 - t0)
    return (p0[0] + (p1[0] - p0[0]) * s, p0[1] + (p1[1] - p0[1]) * s, p0[2] + (p1[2] - p0[2]) * s)


def _unsafe_window(
    a: LinearMotion,
    b: LinearMotion,
    delay: float,
    r_sum: float,
    h_sum_half: float,
) -> Optional[tuple[float, float]]:
    """Open window where `a`, started `delay` later, is in contact with `b`, or None.

    The one home of the window rule, for detection (delay 0) and the
    clearing-delay probe alike. At a nonzero delay, `a` is treated exactly as
    LinearMotion(a.p0, a.p1, a.t0 + delay, a.t1 + delay) would be, velocity
    included; at delay 0 its stored velocity is used, which is the same value.
    """
    a0, a1 = (a.t0 + delay, a.t1 + delay) if delay else (a.t0, a.t1)
    w0 = a0 if a0 > b.t0 else b.t0
    w1 = a1 if a1 < b.t1 else b.t1
    if w1 <= w0:
        return None
    va = _velocity(a.p0, a.p1, a0, a1) if delay else a.velocity
    # A wait-move pair is timed from the move's own start, where the mover sits
    # exactly at p0, so a graze is classified the same wherever the wait is cut.
    if a.is_wait != b.is_wait:
        ref = b.t0 if a.is_wait else a0
    else:
        ref = w0
    pa = a.p0 if a.is_wait else _position_at(a.p0, a.p1, a0, a1, ref)
    pb = b.p0 if b.is_wait else _position_at(b.p0, b.p1, b.t0, b.t1, ref)
    vb = b.velocity
    hit = _contact(
        (pa[0] - pb[0], pa[1] - pb[1], pa[2] - pb[2]),
        (va[0] - vb[0], va[1] - vb[1], va[2] - vb[2]),
        w1 - ref,
        r_sum,
        h_sum_half,
    )
    if hit is None:
        return None
    lo, hi = max(w0, ref + hit[0]), ref + hit[1]
    # a sub-ulp window collapses once it is placed at ref
    return (lo, hi) if lo < hi else None


def cylinder_unsafe_interval(
    a: LinearMotion,
    b: LinearMotion,
    body_a: CylinderBody,
    body_b: CylinderBody,
) -> Optional[tuple[float, float]]:
    """Maximal open window (lo, hi) where the two moving cylinders overlap, or
    None (point contact is empty): the kernel's pair, as it computed it."""
    return _unsafe_window(a, b, 0.0, body_a.radius + body_b.radius, 0.5 * (body_a.height + body_b.height))


def move_clear_delay(
    action: LinearMotion,
    other: LinearMotion,
    body_a: CylinderBody,
    body_b: CylinderBody,
) -> float:
    """Smallest delay of `action` that clears its conflict with `other`.

    Every kernel probe is detection's own window rule on the delayed action,
    and the result is a delay the kernel judged clear, by one of two rules.
    The time-alignment candidates (`other.t0 - action.t0`, ...) are tried
    first, in ascending order. If the first one above _BRACKET_WIDTH that the
    kernel judges clear, c, has a kernel hit at c - _BRACKET_WIDTH, the
    boundary lies within _BRACKET_WIDTH below c, and c is the result.
    Otherwise a bisection on the safe side, exact to within _CLEAR_TOL, ends
    in a snap: the least candidate in its final [lo, hi] that the kernel
    judges clear, else hi. The clearing boundary often sits exactly where the
    shifted window starts or stops touching the other's window; landing on a
    candidate there keeps downstream departure times exact, so grazing
    contacts stay zero-measure instead of reappearing as nanosecond overlaps
    that the conflict search must chip away at indefinitely. No delay clears
    an agent parked for good (`other` ends at inf): that returns inf.
    """
    if math.isinf(other.t1):
        return math.inf
    r_sum = body_a.radius + body_b.radius
    h_sum_half = 0.5 * (body_a.height + body_b.height)

    def collides(delta: float) -> bool:
        return _unsafe_window(action, other, delta, r_sum, h_sum_half) is not None

    candidates = sorted({other.t0 - action.t0, other.t0 - action.t1, other.t1 - action.t0, other.t1 - action.t1})
    for c in candidates:
        # the bisection takes delay 0 as a hit and never probes it, so a verified candidate lies above 0
        if c > _BRACKET_WIDTH and not collides(c):
            if collides(c - _BRACKET_WIDTH):
                return c
            break
    lo = 0.0
    hi = max(0.0, other.t1 - action.t0) + _CLEAR_TOL  # past the other's window: disjoint in time
    while hi - lo > _CLEAR_TOL:
        mid = 0.5 * (lo + hi)
        if collides(mid):
            lo = mid
        else:
            hi = mid
    for c in candidates:
        if lo <= c <= hi and not collides(c):
            return c
    return hi


# Box gap beyond the contact thresholds at which a pair cannot touch. Contact
# is strict `<`, so at this gap no rounding in the kernel can produce a hit.
_BOX_MARGIN = 1e-9


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

    A plan's motions are contiguous and ordered in time, so one sweep visits
    just the pairs that overlap in time, in the order of the full double loop.
    A pair whose axis-aligned boxes lie a margin apart skips the kernel.
    """
    segs_i = plan_i.motions
    segs_j = plan_j.motions
    gap_xy = body_i.radius + body_j.radius + _BOX_MARGIN
    gap_z = 0.5 * (body_i.height + body_j.height) + _BOX_MARGIN

    best: Optional[Conflict] = None
    first = 0  # the first j motion that does not end before the current i motion starts
    n_j = len(segs_j)
    for si in segs_i:
        t0, t1 = si.t0, si.t1
        if best is not None and t0 > best.unsafe[0]:
            break
        while segs_j[first].t1 <= t0:  # stops at the latest at the park, which ends at inf
            first += 1
        xi_lo, xi_hi, yi_lo, yi_hi, zi_lo, zi_hi = si.box
        for k in range(first, n_j):
            sj = segs_j[k]
            if sj.t0 >= t1 or (best is not None and sj.t0 > best.unsafe[0]):
                break
            xj_lo, xj_hi, yj_lo, yj_hi, zj_lo, zj_hi = sj.box
            if (xj_lo - xi_hi >= gap_xy or xi_lo - xj_hi >= gap_xy
                    or yj_lo - yi_hi >= gap_xy or yi_lo - yj_hi >= gap_xy
                    or zj_lo - zi_hi >= gap_z or zi_lo - zj_hi >= gap_z):
                continue
            hit = cylinder_unsafe_interval(si, sj, body_i, body_j)
            if hit is None:
                continue
            if best is None or (hit[0], t0, sj.t0) < (best.unsafe[0], best.action_i.t0, best.action_j.t0):
                best = Conflict(plan_i.agent, si, plan_j.agent, sj, hit)
    return best
