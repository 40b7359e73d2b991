"""Deterministic lockstep quadcopter simulation: first-order tracking dynamics,
Gaussian localization noise from seeded per-vehicle substreams, 10 ms pose
logging, and tracking-error metrics.

A pose log is one numpy structured array (`POSE_DTYPE`), one row per agent per
logged tick, and the error series is another (`ERROR_DTYPE`); the metrics and
the CSV writers read their columns.

The simulator keeps the state of all N vehicles in (N, 3) float64 arrays and
advances them together, one array update per tick (`_Fleet.step`). The seeded
repetitions of a batch fly as one fleet on one clock (`run_executions`).
Localization noise is drawn in blocks of ticks from each vehicle's own seeded
stream. Every array operation applies, element by element and in the same
order, the float operations of the one-vehicle update, so pose logs are
byte-identical for a fixed (plans, method, seed, config).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

from .executor import (
    DEFAULT_BOX_HALF_WIDTH,
    DEFAULT_COMMAND_PERIOD,
    Command,
    HighLevelGoto,
    VehicleEndpoint,
    VelocitySetpoint,
    make_executor,
)
from .geometry3d import Vec3
from .plan import TimedPlan
from .world import DEFAULT_SPEED

METHODS = ("bhl", "bll", "vll")

BASIS_ACTUAL = "actual-vs-planned"
BASIS_ESTIMATED = "estimated-vs-planned"

_EPS = 1e-9


def _is_finite_number(v) -> bool:
    """An int or float, not a bool, and finite."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


@dataclass(frozen=True)
class SimConfig:
    tick: float = 0.005
    log_period: float = 0.010
    tau: float = 0.3  # first-order velocity-tracking time constant
    gain: float = 2.0  # position-setpoint feedback gain, 1/s
    max_speed: float = 1.0
    noise_sigma: float = 0.05  # per-axis localization noise, m
    latency: float = 0.02  # command transport delay, s
    seed: int = 0
    arena_min: Vec3 = (0.0, 0.0, 0.0)
    arena_max: Vec3 = (2.0, 2.0, 2.0)
    command_period: float = DEFAULT_COMMAND_PERIOD
    vll_box_half_width: float = DEFAULT_BOX_HALF_WIDTH
    vll_cruise_speed: Optional[float] = None  # None: use each agent's plan speed
    goto_refine_rate: float = 100.0  # onboard goto interpolation, Hz

    def __post_init__(self) -> None:
        for name in ("tick", "log_period", "tau", "gain", "max_speed", "command_period",
                     "vll_box_half_width", "goto_refine_rate"):
            v = getattr(self, name)
            if not (_is_finite_number(v) and v > 0):
                raise ValueError(f"{name} must be a positive number, got {v!r}")
        for name in ("noise_sigma", "latency"):
            v = getattr(self, name)
            if not (_is_finite_number(v) and v >= 0):
                raise ValueError(f"{name} must be a finite number >= 0, got {v!r}")
        if not (isinstance(self.seed, (int, np.integer)) and not isinstance(self.seed, bool) and self.seed >= 0):
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        if self.log_period < self.tick - _EPS:
            raise ValueError("log_period must be at least one tick")
        ratio = self.log_period / self.tick
        if abs(ratio - round(ratio)) > 1e-9:
            raise ValueError(
                f"log_period {self.log_period!r} must be an integer multiple of tick {self.tick!r}"
            )
        v = self.vll_cruise_speed
        if v is not None and not (_is_finite_number(v) and v > 0):
            raise ValueError(f"vll_cruise_speed must be None or a finite number > 0, got {v!r}")
        for name in ("arena_min", "arena_max"):
            v = getattr(self, name)
            if not (isinstance(v, (tuple, list)) and len(v) == 3 and all(_is_finite_number(c) for c in v)):
                raise ValueError(f"{name} must be three finite numbers, got {v!r}")
            object.__setattr__(self, name, tuple(float(c) for c in v))
        if any(lo >= hi for lo, hi in zip(self.arena_min, self.arena_max)):
            raise ValueError(f"arena_min {self.arena_min} must be below arena_max {self.arena_max}")

    @property
    def log_every_ticks(self) -> int:
        return round(self.log_period / self.tick)


# Ticks of localization noise drawn per vehicle at once, into preallocated
# buffers of 3 KiB per vehicle. A block draw yields exactly the values of that
# many successive standard_normal(3) calls, and scaling by noise_sigma is the
# same multiply per element whether done per block or per tick, so the block
# length never changes a log.
_NOISE_BLOCK = 64


def _refine(anchor: np.ndarray, target: np.ndarray, duration: np.ndarray, elapsed: np.ndarray,
            rate: float) -> np.ndarray:
    """Row-wise goto refinement: anchor -> target, interpolated in steps of 1/rate."""
    s = np.minimum(np.floor(np.maximum(elapsed, 0.0) * rate) / rate, duration)
    return anchor + (target - anchor) * (s / duration)[:, None]


class _Fleet:
    """Positions, velocities and active commands of N vehicles as arrays.

    `step` is the one implementation of the vehicle dynamics: the simulation
    loop calls it once per tick for every vehicle of every run in a batch.
    """

    def __init__(self, positions: Sequence[Vec3], velocities: Sequence[Vec3], config: SimConfig, dt: float):
        self.pos = np.array(positions, dtype=np.float64)
        self.vel = np.array(velocities, dtype=np.float64)
        n = len(self.pos)
        self.gain = config.gain
        self.max_speed = config.max_speed
        self.rate = config.goto_refine_rate
        self.dt = dt
        self.decay = math.exp(-dt / config.tau)
        self.ramp = config.tau * (1.0 - self.decay)
        # commanded velocity of idle and velocity-setpoint rows; position or goto target of the rest
        self.velocity = np.zeros((n, 3))
        self.target = np.zeros((n, 3))
        self.tracking = np.zeros(n, dtype=bool)
        self.goto = np.zeros(n, dtype=bool)
        self.anchor = np.zeros((n, 3))
        self.duration = np.ones(n)
        self.activated = np.zeros(n)

    def activate(self, i: int, command: Command, activated: float, anchor: Optional[Vec3] = None) -> None:
        """Make `command` row i's active command; a goto is refined from `anchor`
        (default: the row's position now) starting at time `activated`."""
        self.goto[i] = isinstance(command, HighLevelGoto)
        if isinstance(command, VelocitySetpoint):
            self.tracking[i] = False
            self.velocity[i] = command.velocity
            self._clamp(self.velocity[i : i + 1])
            return
        self.tracking[i] = True
        self.target[i] = command.target
        if isinstance(command, HighLevelGoto):
            self.anchor[i] = self.pos[i] if anchor is None else anchor
            self.duration[i] = command.duration
            self.activated[i] = activated

    def _clamp(self, v: np.ndarray) -> None:
        """Scale, in place, every row whose speed exceeds max_speed down to it."""
        sq = v * v
        norm = np.sqrt(sq[:, 0] + sq[:, 1] + sq[:, 2])
        over = norm > self.max_speed
        if np.count_nonzero(over):
            v[over] *= (self.max_speed / norm[over])[:, None]

    def step(self, now: float) -> None:
        """Advance every row one tick with the exact flow of the first-order velocity lag.

        pos and vel are rebound to new arrays, never written in place, so
        callers may keep references to earlier states.
        """
        n = len(self.pos)
        n_tracking = np.count_nonzero(self.tracking)
        commanded = self.velocity
        if n_tracking:
            target = self.target
            n_goto = np.count_nonzero(self.goto)
            if n_goto:
                target = _refine(self.anchor, self.target, self.duration, now - self.activated, self.rate)
                if n_goto < n:
                    target = np.where(self.goto[:, None], target, self.target)
            feedback = self.gain * (target - self.pos)
            self._clamp(feedback)
            if n_tracking == n:
                commanded = feedback
            else:
                commanded = np.where(self.tracking[:, None], feedback, commanded)
        lag = self.vel - commanded
        self.pos = self.pos + commanded * self.dt + lag * self.ramp
        self.vel = commanded + lag * self.decay


POSE_DTYPE = np.dtype([("t", "f8"), ("agent", "i8"), ("actual", "f8", (3,)), ("estimated", "f8", (3,)),
                       ("planned", "f8", (3,))])
ERROR_DTYPE = np.dtype([("t", "f8"), ("agent", "i8"), ("error", "f8")])


@dataclass(frozen=True)
class PoseLog:
    records: np.ndarray  # POSE_DTYPE rows, tick-major, then agent
    method: str
    seed: int
    log_period: float
    completed: bool
    end_time: float

    def to_csv(self) -> str:
        r = self.records
        # floats go through tolist() so that repr prints 0.1, not np.float64(0.1)
        xyz = np.concatenate([r["actual"], r["estimated"], r["planned"]], axis=1).tolist()
        lines = ["t,agent,ax,ay,az,ex,ey,ez,px,py,pz"]
        lines += [f"{t:.3f},{agent}," + ",".join(map(repr, row))
                  for t, agent, row in zip(r["t"].tolist(), r["agent"].tolist(), xyz)]
        return "\n".join(lines) + "\n"

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_csv())


class _SimEndpoint(VehicleEndpoint):
    """A vehicle's view of the simulation; `now` and `estimates` are set before each resume."""

    def __init__(self, index: int):
        self.index = index
        self.now = 0.0
        self.estimates: Optional[np.ndarray] = None
        self.outbox: list[Command] = []

    def send(self, command: Command) -> None:
        self.outbox.append(command)

    def estimated_position(self) -> Vec3:
        return tuple(self.estimates[self.index].tolist())  # type: ignore[return-value]

    def clock(self) -> float:
        return self.now


@dataclass
class _AgentRuntime:
    agent: int
    endpoint: _SimEndpoint
    gen: Iterator[float]
    next_resume: float = 0.0
    done: bool = False
    pending: list[tuple[float, int, Command]] = field(default_factory=list)


def _plan_speed(plan: TimedPlan) -> float:
    for k in range(len(plan.waypoints) - 1):
        x0, y0, z0, t0 = plan.waypoints[k]
        x1, y1, z1, t1 = plan.waypoints[k + 1]
        length = math.dist((x0, y0, z0), (x1, y1, z1))
        if length > 0:
            return length / (t1 - t0)
    return DEFAULT_SPEED


@dataclass
class _Run:
    """One seeded repetition of a batch: fleet rows index*N .. index*N + N - 1."""

    index: int
    seed: int
    runtimes: list[_AgentRuntime]
    n_done: int = 0
    completed: bool = False
    end_time: float = 0.0
    n_logged: int = 0  # leading entries of the shared pose log that belong to this run


def run_execution(
    plans: Iterable[TimedPlan],
    method: str,
    config: SimConfig = SimConfig(),
    speeds: Optional[Mapping[int, float]] = None,
    command_sink: Optional[list] = None,
) -> PoseLog:
    """Lockstep execution of all plans under one method.

    Per tick: localize every vehicle, resume due executors on the shared clock,
    activate the newest due command (transport latency applies), then step the
    vehicle dynamics. Poses are logged every log_period. The run terminates when
    every executor has finished and every vehicle sits inside the VLL box of its
    goal, or is marked failed at the wall cap of 2 x makespan + 10 s.

    Vehicle state lives in (N, 3) float64 arrays stepped together by one
    kernel (`_Fleet.step`); only the executors, which wake once per command
    period, run per agent. Each vehicle's noise comes from its own SeedSequence
    child, drawn _NOISE_BLOCK ticks at a time. The logs are byte-identical to
    stepping each vehicle alone: every array operation is the scalar float
    operation of the one-vehicle update, in the same order, on each element,
    and a block draw equals the same number of single-tick draws.

    This is the one-config case of `run_executions`; `command_sink`, if given,
    receives every (agent, command) the executors send.
    """
    return next(_execute(plans, method, [config], speeds, command_sink))


def run_executions(
    plans: Iterable[TimedPlan],
    method: str,
    configs: Sequence[SimConfig],
    speeds: Optional[Mapping[int, float]] = None,
) -> Iterator[PoseLog]:
    """Fly the same plans once per config, all runs in one fleet; yields one
    PoseLog per config, in order.

    The configs must be equal in every field but `seed`. Run r's N vehicles
    are rows r*N .. r*N + N - 1 of one fleet of R*N rows, and all runs share
    the tick clock, so each log is byte-identical to
    `run_execution(plans, method, configs[r], speeds)`. The simulation runs
    when this is called; a run's record array is filled from the logged
    arrays only when the iterator reaches it.
    """
    return _execute(plans, method, configs, speeds, None)


def _execute(
    plans: Iterable[TimedPlan],
    method: str,
    configs: Sequence[SimConfig],
    speeds: Optional[Mapping[int, float]],
    command_sink: Optional[list],
) -> Iterator[PoseLog]:
    """The one tick loop behind run_execution and run_executions; only the
    one-config call passes a command_sink."""
    name = method.lower()
    if name not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    plan_list = sorted(plans, key=lambda p: p.agent)
    if not plan_list:
        raise ValueError("no plans to execute")
    if not configs:
        raise ValueError("no configs to execute")
    config = configs[0]
    if any(replace(c, seed=config.seed) != config for c in configs):
        raise ValueError("configs of one batch may differ only in seed")

    n_agents = len(plan_list)
    cruise_speeds = []
    for plan in plan_list:
        cruise = config.vll_cruise_speed
        if cruise is None:
            cruise = speeds[plan.agent] if speeds and plan.agent in speeds else _plan_speed(plan)
        cruise_speeds.append(cruise)
    rngs: list[np.random.Generator] = []
    runs: list[_Run] = []
    for r, run_config in enumerate(configs):
        rngs.extend(np.random.default_rng(s) for s in np.random.SeedSequence(run_config.seed).spawn(n_agents))
        runtimes = []
        for i, (plan, cruise) in enumerate(zip(plan_list, cruise_speeds)):
            endpoint = _SimEndpoint(r * n_agents + i)
            gen = make_executor(
                name,
                plan,
                endpoint,
                period=config.command_period,
                box_half_width=config.vll_box_half_width,
                cruise_speed=cruise,
            )
            runtimes.append(_AgentRuntime(agent=plan.agent, endpoint=endpoint, gen=gen))
        runs.append(_Run(r, run_config.seed, runtimes))

    rows = len(rngs)
    fleet = _Fleet([p.start_position for p in plan_list] * len(runs), [(0.0, 0.0, 0.0)] * rows, config, config.tick)
    goals = np.array([p.goal_position for p in plan_list] * len(runs), dtype=np.float64)
    makespan = max(p.end_time for p in plan_list)
    cap = 2.0 * makespan + 10.0
    steps_per_log = config.log_every_ticks
    box = config.vll_box_half_width
    noise = np.empty((rows, _NOISE_BLOCK, 3))  # one contiguous block per vehicle stream
    offsets = np.empty((_NOISE_BLOCK, rows, 3))  # noise_sigma * noise, one (rows, 3) slab per tick

    logged: list[tuple[float, np.ndarray, np.ndarray, list[Vec3]]] = []  # (t, actual, estimated, planned)
    active = runs  # runs still flying
    ready: list[_Run] = []  # active runs whose executors have all finished
    seq = 0
    n = 0
    wake = 0.0  # earliest executor resume or command activation still to come
    while True:
        t = n * config.tick
        k = n % _NOISE_BLOCK
        if k == 0:
            for block, rng in zip(noise, rngs):
                rng.standard_normal(out=block)
            np.multiply(noise.transpose(1, 0, 2), config.noise_sigma, out=offsets)
        estimated = fleet.pos + offsets[k]
        if n % steps_per_log == 0:
            logged.append((t, fleet.pos, estimated, [p.position_at(t) for p in plan_list]))
        if ready:
            inside = (np.abs(fleet.pos - goals) <= box).reshape(len(runs), -1).all(axis=1)
            for run in ready:
                if inside[run.index]:
                    run.completed = True
                    run.end_time = t
                    run.n_logged = len(logged)
            ready = [run for run in ready if not run.completed]
            active = [run for run in active if not run.completed]
            if not active:
                break
        if t > cap:
            for run in active:
                run.end_time = t
                run.n_logged = len(logged)
            break

        if wake <= t + _EPS:
            for run in active:
                for rt in run.runtimes:
                    guard = 0
                    rt.endpoint.now = t
                    rt.endpoint.estimates = estimated
                    while not rt.done and rt.next_resume <= t + _EPS:
                        try:
                            delay = next(rt.gen)
                        except StopIteration:
                            rt.done = True
                            run.n_done += 1
                            if run.n_done == n_agents:
                                ready.append(run)
                            break
                        rt.next_resume = t + max(delay, 1e-9)
                        guard += 1
                        if guard > 100000:
                            raise RuntimeError(f"agent {rt.agent}: executor yields no forward progress")
                    if rt.endpoint.outbox:
                        for command in rt.endpoint.outbox:
                            rt.pending.append((t + config.latency, seq, command))
                            seq += 1
                            if command_sink is not None:
                                command_sink.append((rt.agent, command))
                        rt.endpoint.outbox.clear()

            wake = math.inf
            for run in active:
                for rt in run.runtimes:
                    due = [entry for entry in rt.pending if entry[0] <= t + _EPS]
                    if due:
                        rt.pending = [entry for entry in rt.pending if entry[0] > t + _EPS]
                        fleet.activate(rt.endpoint.index, max(due, key=lambda entry: entry[1])[2], t)
                    for entry in rt.pending:
                        wake = min(wake, entry[0])
                    if not rt.done:
                        wake = min(wake, rt.next_resume)
        fleet.step(t)
        n += 1

    agents = [p.agent for p in plan_list]
    planned = np.array([p for _, _, _, p in logged])  # (ticks, N, 3), the same for every run
    return (_pose_log(run, logged, planned, agents, name, config.log_period) for run in runs)


def _pose_log(run: _Run, logged: list, planned: np.ndarray, agents: list[int], method: str,
              log_period: float) -> PoseLog:
    """The run's POSE_DTYPE records, one row per agent per logged tick, filled
    column by column from its rows of the logged per-tick arrays."""
    rows = slice(run.index * len(agents), (run.index + 1) * len(agents))
    ticks = logged[: run.n_logged]
    records = np.empty(len(ticks) * len(agents), dtype=POSE_DTYPE)
    records["t"] = np.repeat([t for t, _, _, _ in ticks], len(agents))
    records["agent"] = np.tile(agents, len(ticks))
    records["actual"] = np.concatenate([pos[rows] for _, pos, _, _ in ticks])
    records["estimated"] = np.concatenate([est[rows] for _, _, est, _ in ticks])
    records["planned"] = planned[: len(ticks)].reshape(-1, 3)
    return PoseLog(
        records=records,
        method=method,
        seed=run.seed,
        log_period=log_period,
        completed=run.completed,
        end_time=run.end_time,
    )


# ---------------------------------------------------------------------------
# error metrics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AgentError:
    max_error: float
    avg_error: float


@dataclass(frozen=True)
class ErrorReport:
    basis: str
    method: str
    seed: int
    per_agent: dict[int, AgentError]
    aggregate: AgentError
    series: np.ndarray  # ERROR_DTYPE rows, in the order of the log's records

    def to_json_dict(self, config_hash: str = "") -> dict:
        return {
            "basis": self.basis,
            "method": self.method,
            "seed": self.seed,
            "config_hash": config_hash,
            "per_agent": {
                str(agent): {"max_error": e.max_error, "avg_error": e.avg_error}
                for agent, e in sorted(self.per_agent.items())
            },
            "aggregate": {"max_error": self.aggregate.max_error, "avg_error": self.aggregate.avg_error},
        }

    def series_csv(self) -> str:
        lines = ["t,agent,error"]
        lines += [f"{t:.3f},{agent},{err!r}" for t, agent, err in self.series.tolist()]
        return "\n".join(lines) + "\n"


def _mean(values) -> float:
    # A running sum adds left to right. From Python 3.12 on sum() of floats is
    # compensated, and np.sum is pairwise; either would change errors.json.
    return np.cumsum(values)[-1].item() / len(values)


def error_metrics(log: PoseLog, basis: str = BASIS_ACTUAL) -> ErrorReport:
    """Per-record Euclidean error between the basis position and the planned one."""
    if basis not in (BASIS_ACTUAL, BASIS_ESTIMATED):
        raise ValueError(f"unknown basis {basis!r}")
    r = log.records
    if not len(r):
        raise ValueError("empty pose log")
    offset = r["actual" if basis == BASIS_ACTUAL else "estimated"] - r["planned"]
    series = np.empty(len(r), dtype=ERROR_DTYPE)
    series["t"], series["agent"] = r["t"], r["agent"]
    # math.hypot of the differences is math.dist bit for bit (one CPython routine);
    # a numpy norm differs from both by an ulp on some poses
    series["error"] = list(map(math.hypot, *offset.T.tolist()))
    errors, agents = series["error"], series["agent"]
    per_agent = {}
    for agent in np.unique(agents).tolist():
        agent_errors = errors[agents == agent]
        per_agent[agent] = AgentError(agent_errors.max().item(), _mean(agent_errors))
    aggregate = AgentError(errors.max().item(), _mean(errors))
    return ErrorReport(basis, log.method, log.seed, per_agent, aggregate, series)
