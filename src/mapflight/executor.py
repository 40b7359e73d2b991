"""Flight-command generation from timed plans: BHL, BLL, and VLL methods.

Executors are generators written against an abstract vehicle endpoint; each
yield hands back the delay until the executor wants to run again, which lets a
lockstep simulator (or a thin hardware adapter) schedule any number of agents
against one clock.
"""

from __future__ import annotations

import logging
import math
import warnings
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterator, Optional, Union

from .geometry3d import Vec3
from .plan import TimedPlan

log = logging.getLogger(__name__)

DEFAULT_COMMAND_PERIOD = 0.05
DEFAULT_BOX_HALF_WIDTH = 0.10


def _require_finite_vec(v: Vec3, what: str) -> None:
    if len(v) != 3 or not (math.isfinite(v[0]) and math.isfinite(v[1]) and math.isfinite(v[2])):
        raise ValueError(f"{what} must be three finite numbers, got {v!r}")


@dataclass(frozen=True)
class HighLevelGoto:
    """Reach target over the given duration; refined to setpoints on board."""

    target: Vec3
    duration: float
    issue_time: float

    def __post_init__(self) -> None:
        _require_finite_vec(self.target, "target")
        if not (self.duration > 0 and math.isfinite(self.duration)):
            raise ValueError(f"goto duration must be > 0, got {self.duration!r}")


@dataclass(frozen=True)
class PositionSetpoint:
    target: Vec3
    issue_time: float

    def __post_init__(self) -> None:
        _require_finite_vec(self.target, "target")


@dataclass(frozen=True)
class VelocitySetpoint:
    velocity: Vec3
    issue_time: float

    def __post_init__(self) -> None:
        _require_finite_vec(self.velocity, "velocity")


Command = Union[HighLevelGoto, PositionSetpoint, VelocitySetpoint]


class VehicleEndpoint(ABC):
    """What an executor needs from a vehicle: a command sink, an estimate, a clock."""

    @abstractmethod
    def send(self, command: Command) -> None: ...

    @abstractmethod
    def estimated_position(self) -> Vec3: ...

    @abstractmethod
    def clock(self) -> float: ...


def bll_execute(plan: TimedPlan, endpoint: VehicleEndpoint, period: float = DEFAULT_COMMAND_PERIOD) -> Iterator[float]:
    """Stream linearly interpolated position setpoints, one segment at a time.

    For each motion of the plan, from x_l at t_l to x at t: the per-axis
    velocity is v = (x - x_l) / (t - t_l), and while the clock has not reached
    t the setpoint x_l + v * t_r is sent, where t_r is the time since t_l.
    """
    if not period > 0:
        raise ValueError(f"period must be > 0, got {period!r}")
    if endpoint.clock() >= plan.end_time:
        warnings.warn(f"agent {plan.agent}: clock already past the final waypoint; nothing to execute")
        return
    for m in plan.motions[:-1]:
        (x_l, y_l, z_l), (x, y, z), t_l, t = m.p0, m.p1, m.t0, m.t1
        d = t - t_l
        v_x = (x - x_l) / d
        v_y = (y - y_l) / d
        v_z = (z - z_l) / d
        while endpoint.clock() < t:
            t_r = endpoint.clock() - t_l
            endpoint.send(
                PositionSetpoint(
                    (x_l + v_x * t_r, y_l + v_y * t_r, z_l + v_z * t_r),
                    issue_time=endpoint.clock(),
                )
            )
            yield period


def bhl_execute(plan: TimedPlan, endpoint: VehicleEndpoint) -> Iterator[float]:
    """Issue one HighLevelGoto per plan segment at the segment's start time."""
    if endpoint.clock() >= plan.end_time:
        warnings.warn(f"agent {plan.agent}: clock already past the final waypoint; nothing to execute")
        return
    for m in plan.motions[:-1]:
        now = endpoint.clock()
        if now < m.t0:
            yield m.t0 - now
        endpoint.send(HighLevelGoto(m.p1, duration=m.t1 - m.t0, issue_time=endpoint.clock()))


def vll_execute(
    plan: TimedPlan,
    endpoint: VehicleEndpoint,
    cruise_speed: float,
    period: float = DEFAULT_COMMAND_PERIOD,
    box_half_width: float = DEFAULT_BOX_HALF_WIDTH,
) -> Iterator[float]:
    """Chase waypoints in plan order at cruise speed, each until inside its closed
    per-axis box; geometry, not the schedule, paces progress."""
    if not period > 0:
        raise ValueError(f"period must be > 0, got {period!r}")
    if not box_half_width > 0:
        raise ValueError(f"box_half_width must be > 0, got {box_half_width!r}")
    if not cruise_speed > 0:
        raise ValueError(f"cruise_speed must be > 0, got {cruise_speed!r}")
    for n, (x, y, z, _) in enumerate(plan.waypoints):
        while True:
            e_x, e_y, e_z = endpoint.estimated_position()
            dx = x - e_x
            dy = y - e_y
            dz = z - e_z
            if abs(dx) <= box_half_width and abs(dy) <= box_half_width and abs(dz) <= box_half_width:
                log.debug("agent %d reached waypoint %d at t=%.3f", plan.agent, n, endpoint.clock())
                break
            scale = cruise_speed / math.sqrt(dx * dx + dy * dy + dz * dz)
            endpoint.send(VelocitySetpoint((dx * scale, dy * scale, dz * scale), issue_time=endpoint.clock()))
            yield period
    endpoint.send(VelocitySetpoint((0.0, 0.0, 0.0), issue_time=endpoint.clock()))


def make_executor(
    method: str,
    plan: TimedPlan,
    endpoint: VehicleEndpoint,
    *,
    period: float = DEFAULT_COMMAND_PERIOD,
    box_half_width: float = DEFAULT_BOX_HALF_WIDTH,
    cruise_speed: Optional[float] = None,
) -> Iterator[float]:
    """Executor generator for a method name ("bhl" | "bll" | "vll")."""
    name = method.lower()
    if name == "bll":
        return bll_execute(plan, endpoint, period)
    if name == "bhl":
        return bhl_execute(plan, endpoint)
    if name == "vll":
        if cruise_speed is None:
            raise ValueError("vll requires a cruise speed (defaults to the agent's plan speed)")
        return vll_execute(plan, endpoint, cruise_speed, period, box_half_width)
    raise ValueError(f"unknown method {method!r}; expected one of bhl, bll, vll")

