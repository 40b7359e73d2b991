"""Deterministic lockstep quadcopter simulation: first-order tracking dynamics,
Gaussian localization noise from seeded per-vehicle substreams, 10 ms pose
logging, and tracking-error metrics.

A pose log is one numpy structured array (`POSE_DTYPE`), one row per agent per
logged tick, tick-major, then agent; the error series is another
(`ERROR_DTYPE`) in the same order. The metrics and the CSV writers read their
columns in row blocks, and `error_metrics` takes its per-agent figures from the
(ticks, N) columns, so it rejects a log laid out any other way. A flight that
could log more than MAX_LOG_RECORDS records is refused before its first tick.

The simulator keeps the state of all N vehicles in (N, 3) float64 arrays and
advances them together, one array update per tick (`_Fleet.step`). Any list of
flights, each a plan set flown under one method for some seeded runs, flies as
one fleet on one clock; each run keeps its own rows, seed, wall cap and end
tick. The bookkeeping is batched too:

  * executors wake only on a tick where some vehicle's next resume or command
    arrival falls, and such a wake tick visits every vehicle of the runs still
    flying, in row order, and resumes only those that are due;
  * the commands that arrive on one tick are activated together, one array
    update per command kind (`_Fleet.activate`);
  * localization noise is drawn in blocks of ticks from each vehicle's own
    seeded stream, for the runs still flying only, and the estimated poses
    (true pose plus noise) are formed on wake ticks only, the only ticks on
    which an executor reads them;
  * only the true positions are logged, into fixed blocks of logged ticks.

The logged blocks have two readers. `run_fleet` cuts each run's records from
its rows of the blocks and rebuilds the estimated column by redrawing the
run's noise from its seed; the planned positions, the same for every run of a
flight, are filled into one array per flight after the last tick
(`TimedPlan.positions_at`). `run_fleet_errors`, which `mapflight bench` reads,
takes each run's error figures straight from the blocks and that planned
array, and builds no record at all.

Every array operation applies, element by element and in the same order, the
float operations of the one-vehicle update, so pose logs are byte-identical
for a fixed (plans, method, seed, config).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from operator import itemgetter
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
from .geometry3d import Vec3, is_finite_number
from .plan import TimedPlan
from .world import DEFAULT_SPEED, InputError

METHODS = ("bhl", "bll", "vll")
# Methods whose executors never read the estimated pose. The seed moves only
# that estimate (dynamics, goto anchors and the completion test read the true
# pose), so each of these flies the same true trajectory for every seed.
SEED_FREE_METHODS = ("bhl", "bll")

BASIS_ACTUAL = "actual-vs-planned"
BASIS_ESTIMATED = "estimated-vs-planned"

_EPS = 1e-9
# a finer tick spends the whole run on bookkeeping; the tests fly down to 0.0025 s
MIN_TICK = 1e-4
# Fleet rows x logged ticks up to the longest wall cap that one fleet may log.
# A row-tick takes 24 bytes of logged arrays and its record 88 bytes, so the
# limit stands for about 100 MB and 370 MB; each bundled scenario flown 13 times
# is at least 20 times below it, and all five flown as one fleet 7 times below.
MAX_LOG_RECORDS = 2**22


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
            if not (is_finite_number(v) and v > 0):
                raise ValueError(f"{name} must be a positive number, got {v!r}")
        for name in ("noise_sigma", "latency"):
            v = getattr(self, name)
            if not (is_finite_number(v) and v >= 0):
                raise ValueError(f"{name} must be a finite number >= 0, got {v!r}")
        if not (isinstance(self.seed, (int, np.integer)) and not isinstance(self.seed, bool) and self.seed >= 0):
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        object.__setattr__(self, "seed", int(self.seed))  # a numpy integer is not JSON-serialisable
        if self.tick < MIN_TICK:
            raise ValueError(f"tick must be at least {MIN_TICK} s, got {self.tick!r}")
        if self.log_period < self.tick - _EPS:
            raise ValueError("log_period must be at least one tick")
        if self.command_period < self.tick - _EPS:
            raise ValueError("command_period must be at least one tick")
        ratio = self.log_period / self.tick
        if abs(ratio - round(ratio)) > 1e-9:
            raise ValueError(
                f"log_period {self.log_period!r} must be an integer multiple of tick {self.tick!r}"
            )
        if abs(self.log_period - round(self.log_period, 3)) > _EPS:
            # the logs write t to the millisecond, so a finer period would repeat or shift times
            raise ValueError(f"log_period must be a whole number of milliseconds, got {self.log_period!r}")
        v = self.vll_cruise_speed
        if v is not None and not (is_finite_number(v) and v > 0):
            raise ValueError(f"vll_cruise_speed must be None or a finite number > 0, got {v!r}")
        for name in ("arena_min", "arena_max"):
            v = getattr(self, name)
            if not (isinstance(v, (tuple, list)) and len(v) == 3 and all(is_finite_number(c) for c in v)):
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
# length never changes a log. A run's pose logs redraw its streams in one block
# each, up to its end tick.
_NOISE_BLOCK = 64

# Logged ticks per pose-log block: a (block, rows, 3) array of true positions,
# logged tick by tick. Each run's records and error figures are cut from the
# blocks. A fixed block keeps every array far below the 4 MB from which numpy
# asks for huge pages, whatever the wall cap; over the bundled bench batches, 16
# left a lower peak RSS than 32 or 64.
_LOG_BLOCK = 16
# Logged ticks per positions_at call when the flight's (ticks, N, 3) planned
# positions are filled, so that each call's temporary arrays are bounded too.
_PLANNED_TICKS = 1024

# Records per row block of the CSV writers and of error_metrics' per-record
# hypot: the Python strings and floats of one block are all that is alive at
# once, so their memory is bounded by the block, not by the run length.
_ROW_BLOCK = 2048


# Setpoint components of at most this magnitude square and sum over three axes
# to a finite value: 3 x 2**1020 < 2**1024.
_SQUARE_SAFE = 2.0**510
# A feedback gain of at most this keeps gain * (target - pos) within
# _SQUARE_SAFE for every offset up to 2**200 m; `step` limits the feedback of a
# larger gain before squaring it.
_GAIN_SAFE = 2.0**310


def _at_speed(rows: np.ndarray, speed: float) -> np.ndarray:
    """Each nonzero row scaled to length `speed`, divided by its largest
    component first, so that no square overflows."""
    unit = rows / np.abs(rows).max(axis=1)[:, None]
    return unit * (speed / np.sqrt((unit * unit).sum(axis=1)))[:, None]


def _refine(anchor: np.ndarray, target: np.ndarray, duration: np.ndarray, elapsed: np.ndarray,
            rate: float) -> np.ndarray:
    """Row-wise goto refinement: anchor -> target, interpolated in steps of 1/rate."""
    s = np.minimum(np.floor(np.maximum(elapsed, 0.0) * rate) / rate, duration)
    return anchor + (target - anchor) * (s / duration)[:, None]


class _Fleet:
    """Positions, velocities and active commands of N vehicles as arrays.

    `step` is the one implementation of the vehicle dynamics: the simulation
    loop calls it once per tick for every vehicle of every run in a fleet.
    `activate` stores a tick's arrived commands as they were sent; `step`
    limits every commanded velocity, setpoint or feedback, to max_speed. A
    velocity whose squared speed overflows is the one exception, since `step`
    could not measure it: a setpoint is stored already limited (`_limit_huge`),
    and under a gain above _GAIN_SAFE such feedback is limited as it is made
    (`_huge_gain_feedback`).
    """

    def __init__(self, positions: Sequence[Vec3], velocities: Sequence[Vec3], config: SimConfig, dt: float):
        self.pos = np.array(positions, dtype=np.float64)
        self.vel = np.array(velocities, dtype=np.float64)
        n = len(self.pos)
        self.gain = config.gain
        self.huge_gain = config.gain > _GAIN_SAFE
        self.max_speed = config.max_speed
        self.rate = config.goto_refine_rate
        self.dt = dt
        self.decay = math.exp(-dt / config.tau)
        self.ramp = config.tau * (1.0 - self.decay)
        # velocity setpoint of idle and velocity-setpoint rows, as sent; position or goto target of the rest
        self.velocity = np.zeros((n, 3))
        self.target = np.zeros((n, 3))
        self.tracking = np.zeros(n, dtype=bool)
        self.goto = np.zeros(n, dtype=bool)
        self.n_tracking = 0  # rows set in `tracking` and in `goto`
        self.n_goto = 0
        self.anchor = np.zeros((n, 3))
        self.duration = np.ones(n)
        self.activated = np.zeros(n)

    def activate(self, arrivals: Sequence[tuple[int, Command]], activated: float) -> None:
        """Make each (row, command) of one tick its row's active command, one
        array update per command kind; a row appears at most once. A goto is
        refined from the row's position now, starting at time `activated`."""
        velocity, position, goto = [], [], []
        for arrival in arrivals:
            command = arrival[1]
            if isinstance(command, VelocitySetpoint):
                velocity.append(arrival)
            elif isinstance(command, HighLevelGoto):
                goto.append(arrival)
            else:
                position.append(arrival)
        if velocity:
            rows = [row for row, _ in velocity]
            self.tracking[rows] = False
            self.goto[rows] = False
            setpoints = np.array([command.velocity for _, command in velocity])
            if np.abs(setpoints).max() > _SQUARE_SAFE:
                self._limit_huge(setpoints)
            self.velocity[rows] = setpoints
        if position:
            rows = [row for row, _ in position]
            self.tracking[rows] = True
            self.goto[rows] = False
            self.target[rows] = [command.target for _, command in position]
        if goto:
            rows = [row for row, _ in goto]
            self.tracking[rows] = True
            self.goto[rows] = True
            self.target[rows] = [command.target for _, command in goto]
            self.anchor[rows] = self.pos[rows]
            self.duration[rows] = [command.duration for _, command in goto]
            self.activated[rows] = activated
        self.n_tracking = np.count_nonzero(self.tracking)
        self.n_goto = np.count_nonzero(self.goto)

    def _limit_huge(self, setpoints: np.ndarray) -> None:
        """Scale down to max_speed, in place, each setpoint whose squared speed
        overflows, dividing it by its largest component first; `step` would
        read its speed as inf and stop the vehicle. Every other row keeps its bits."""
        with np.errstate(over="ignore"):
            sq = setpoints * setpoints
            huge = np.isinf(sq[:, 0] + sq[:, 1] + sq[:, 2])
        setpoints[huge] = _at_speed(setpoints[huge], self.max_speed)

    def _huge_gain_feedback(self, target: np.ndarray) -> np.ndarray:
        """The position feedback under a gain above _GAIN_SAFE: each row whose
        squared speed overflows, or whose product overflows, is limited to
        max_speed toward its target, as the clamp would limit it; every other
        row keeps the bits of `gain * (target - pos)`."""
        offset = target - self.pos
        with np.errstate(over="ignore"):
            feedback = self.gain * offset
            sq = feedback * feedback
            huge = np.isinf(sq[:, 0] + sq[:, 1] + sq[:, 2])
        feedback[huge] = _at_speed(offset[huge], self.max_speed)
        return feedback

    def step(self, now: float) -> None:
        """Advance every row one tick with the exact flow of the first-order velocity lag.

        The commanded velocity (the setpoint, or a tracking row's position
        feedback) is limited to max_speed row by row, so a setpoint gives the
        same bits on every tick it is active. pos and vel are rebound to new
        arrays, never written in place, so callers may keep references to
        earlier states.
        """
        n = len(self.pos)
        commanded = self.velocity
        if self.n_tracking:
            target = self.target
            if self.n_goto:
                target = _refine(self.anchor, self.target, self.duration, now - self.activated, self.rate)
                if self.n_goto < n:
                    target = np.where(self.goto[:, None], target, self.target)
            feedback = self._huge_gain_feedback(target) if self.huge_gain else self.gain * (target - self.pos)
            commanded = feedback if self.n_tracking == n else np.where(self.tracking[:, None], feedback, commanded)
        sq = commanded * commanded
        norm = np.sqrt(sq[:, 0] + sq[:, 1] + sq[:, 2])
        over = norm > self.max_speed
        if np.count_nonzero(over):
            commanded = commanded.copy()  # the stored setpoints stay as sent
            commanded[over] *= (self.max_speed / norm[over])[:, None]
        lag = self.vel - commanded
        self.pos = self.pos + commanded * self.dt + lag * self.ramp
        self.vel = commanded + lag * self.decay


POSE_DTYPE = np.dtype([("t", "f8"), ("agent", "i8"), ("actual", "f8", (3,)), ("estimated", "f8", (3,)),
                       ("planned", "f8", (3,))])
ERROR_DTYPE = np.dtype([("t", "f8"), ("agent", "i8"), ("error", "f8")])


class _BlockCsv:
    """A CSV file written as `_csv_chunks` yields it: the header, then one chunk per row block."""

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(self._csv_chunks())


@dataclass(frozen=True)
class PoseLog(_BlockCsv):
    records: np.ndarray  # POSE_DTYPE rows, tick-major, then agent
    method: str
    seed: int
    completed: bool
    end_time: float

    def _csv_chunks(self) -> Iterator[str]:
        """poses.csv as text chunks: the header, then one chunk per row block."""
        yield "t,agent,ax,ay,az,ex,ey,ez,px,py,pz\n"
        for b in _row_blocks(self.records):
            # floats go through tolist() so that repr prints 0.1, not np.float64(0.1)
            a = map(repr, b["actual"].ravel().tolist())
            e = map(repr, b["estimated"].ravel().tolist())
            p = iter(_distinct_reprs(b["planned"]))
            yield "".join([f"{prefix}{ax},{ay},{az},{ex},{ey},{ez},{px},{py},{pz}\n"
                           for prefix, ax, ay, az, ex, ey, ez, px, py, pz
                           in zip(_row_prefixes(b), a, a, a, e, e, e, p, p, p)])

    def to_csv(self) -> str:
        """poses.csv as one string: a header, then one line per record, every float as its repr."""
        return "".join(self._csv_chunks())


def _row_blocks(records: np.ndarray) -> Iterator[np.ndarray]:
    """Consecutive slices of at most _ROW_BLOCK records."""
    return (records[lo : lo + _ROW_BLOCK] for lo in range(0, len(records), _ROW_BLOCK))


def _row_prefixes(block: np.ndarray) -> list[str]:
    """The `t,agent,` prefix of each record of a block, t to the millisecond;
    each distinct t (told apart by its bits) and agent id is formatted once."""
    t_bits, t_index = np.unique(block["t"].view(np.int64), return_inverse=True)
    agents, agent_index = np.unique(block["agent"], return_inverse=True)
    ts = np.array([f"{t:.3f}," for t in t_bits.view(np.float64).tolist()], dtype=object)
    ids = np.array([f"{agent}," for agent in agents.tolist()], dtype=object)
    return (ts[t_index.ravel()] + ids[agent_index.ravel()]).tolist()


def _distinct_reprs(x: np.ndarray) -> list[str]:
    """repr of each float of x, flattened in C order; each distinct value is
    formatted once, told apart by its bits, so -0.0 stays -0.0."""
    bits, index = np.unique(x.view(np.int64), return_inverse=True)
    strings = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
    return strings[index.ravel()].tolist()


@dataclass
class _Vehicle(VehicleEndpoint):
    """One fleet row as its executor sees it, and that executor's schedule.

    `now` and `estimates` (every row's estimated position, an (rows, 3)
    array) are set before each resume. A sent command is due `latency` after `now`; `now`
    never decreases, so `pending` is in due order as well as in send order.
    """

    row: int
    agent: int
    latency: float
    command_sink: Optional[list]
    rng: np.random.Generator  # this vehicle's noise stream
    gen: Optional[Iterator[float]] = None  # the executor, made on this endpoint
    next_resume: float = 0.0
    done: bool = False
    now: float = 0.0
    estimates: Optional[np.ndarray] = None
    pending: list[tuple[float, Command]] = field(default_factory=list)  # (due, command)

    def send(self, command: Command) -> None:
        self.pending.append((self.now + self.latency, command))
        if self.command_sink is not None:
            self.command_sink.append((self.agent, command))

    def estimated_position(self) -> Vec3:
        return tuple(self.estimates[self.row].tolist())  # type: ignore[index,return-value]

    def clock(self) -> float:
        return self.now


def _wall_cap(plans: Iterable[TimedPlan]) -> float:
    """Simulated time at which a run that has not finished is marked failed: 2 x makespan + 10 s."""
    return 2.0 * max(p.end_time for p in plans) + 10.0


def check_fleet_size(flights: Iterable[tuple[Sequence[TimedPlan], int]], config: SimConfig) -> None:
    """Raise InputError if (plans, runs) flights, flown as one fleet, could log
    more than MAX_LOG_RECORDS pose records: fleet rows x logged ticks up to the
    longest wall cap, since every row is logged until the last run ends.
    run_fleet checks this before its first tick, and `mapflight bench` for each
    fleet it packs."""
    flights = list(flights)
    cap = max(_wall_cap(plans) for plans, _ in flights)
    rows = sum(runs * len(plans) for plans, runs in flights)
    size = rows * (cap / config.log_period + 2)  # the ticks at 0 and past the cap are logged too
    if size > MAX_LOG_RECORDS:
        raise InputError(
            f"a flight of {rows} vehicle rows up to its wall cap of {cap:.6g} s would log up to "
            f"{size:.3g} pose records, more than MAX_LOG_RECORDS = {MAX_LOG_RECORDS}"
        )


def check_flight_size(plans: Sequence[TimedPlan], config: SimConfig, runs: int) -> None:
    """check_fleet_size of `runs` seeded runs of the plans: `mapflight simulate`
    checks it before it makes --out, and `mapflight bench` for all of a batch's
    repetitions, which also bounds the per-seed lists it reports."""
    check_fleet_size([(plans, runs)], config)


def _plan_speed(plan: TimedPlan) -> float:
    for m in plan.motions:
        if not m.is_wait:
            return math.dist(m.p0, m.p1) / (m.t1 - m.t0)
    return DEFAULT_SPEED


# (plans, method, runs, speeds): the plans flown `runs` times, run r at seed config.seed + r
Flight = tuple[Iterable[TimedPlan], str, int, Optional[Mapping[int, float]]]


@dataclass
class _Run:
    """One seeded run of a flight: its vehicles, their fleet rows, its wall cap
    and, once ended, its end tick; `plans` (by agent id) and `method` are its flight's."""

    seed: int
    rows: slice
    vehicles: list[_Vehicle]
    cap: float
    plans: list[TimedPlan]
    method: str
    n_done: int = 0
    completed: bool = False
    ended: bool = False
    end_tick: int = 0


def run_execution(
    plans: Iterable[TimedPlan],
    method: str,
    config: SimConfig = SimConfig(),
    speeds: Optional[Mapping[int, float]] = None,
    command_sink: Optional[list] = None,
) -> PoseLog:
    """Lockstep execution of all plans under one method.

    Per tick: resume due executors on the shared clock (on such a tick only,
    every vehicle is localized first), activate each vehicle's newest arrived
    command (all of the tick's arrivals in one `_Fleet.activate`), then step
    the vehicle dynamics. A command
    arrives `latency` after it is sent and replaces the active one;
    `_Fleet.step` limits every commanded velocity to max_speed. Poses are
    logged every log_period. The run terminates when every executor has
    finished and every vehicle sits inside the VLL box of its goal, or is
    marked failed at the wall cap of 2 x makespan + 10 s.

    Vehicle state lives in (N, 3) float64 arrays stepped together by one
    kernel (`_Fleet.step`); only the executors, which wake once per command
    period, run per agent. Each vehicle's noise comes from its own SeedSequence
    child, drawn _NOISE_BLOCK ticks at a time. The logs are byte-identical to
    stepping each vehicle alone: every array operation is the scalar float
    operation of the one-vehicle update, in the same order, on each element,
    and a block draw equals the same number of single-tick draws.

    This is the one-run case of `run_fleet`; `command_sink`, if given,
    receives every (agent, command) the executors send.
    """
    return next(run_fleet([(plans, method, 1, speeds)], config, command_sink))


def run_executions(
    plans: Iterable[TimedPlan],
    method: str,
    config: SimConfig,
    runs: int,
    speeds: Optional[Mapping[int, float]] = None,
    command_sink: Optional[list] = None,
) -> Iterator[PoseLog]:
    """Fly the same plans `runs` times, all runs in one fleet; yields one
    PoseLog per run, in order. Run r has seed config.seed + r, and its log is
    byte-identical to `run_execution(plans, method, replace(config,
    seed=config.seed + r), speeds)`. This is the one-flight case of `run_fleet`.
    """
    return run_fleet([(plans, method, runs, speeds)], config, command_sink)


def run_fleet(flights: Iterable[Flight], config: SimConfig, command_sink: Optional[list] = None) -> Iterator[PoseLog]:
    """Fly every (plans, method, runs, speeds) flight as one fleet on one clock;
    yields one PoseLog per run, flight by flight and run by run.

    Each run keeps its own contiguous fleet rows, plan set, executors, seed
    (config.seed + r for run r of its flight), wall cap and end tick. Steps are
    elementwise, and a wake tick resumes only the vehicles that are due, so
    each log is byte-identical to `run_execution(plans, method,
    replace(config, seed=config.seed + r), speeds)`, whatever else flies
    beside it. The simulation runs when this is called; a run's record array
    is filled from the logged arrays only when the iterator reaches it.
    """
    by_flight, times, blocks = _fly(flights, config, command_sink)
    return (_pose_log(run, config, times, blocks, planned)
            for flight_runs, planned in _planned_positions(by_flight, config, times) for run in flight_runs)


def run_fleet_errors(flights: Iterable[Flight], config: SimConfig) -> Iterator[tuple[bool, float, float]]:
    """Fly the flights as `run_fleet` does; yields (completed, max_error,
    avg_error) per run, in the same order: the `error_metrics(log).aggregate`
    of its log, bit for bit, read from the logged true positions and the
    flight's planned array without building the log."""
    by_flight, times, blocks = _fly(flights, config, None)
    for flight_runs, planned in _planned_positions(by_flight, config, times):
        for run in flight_runs:
            ticks = run.end_tick // config.log_every_ticks + 1
            planned_run = planned[:ticks]
            diffs = ((actual[: ticks - lo, run.rows] - planned_run[lo : lo + _LOG_BLOCK]).reshape(-1, 3)
                     for lo, actual in zip(range(0, ticks, _LOG_BLOCK), blocks))
            aggregate = _error_figures(np.empty(ticks * len(run.plans)), diffs)
            yield run.completed, aggregate.max_error, aggregate.avg_error


def _noise_streams(seed: int, n: int) -> list[np.random.Generator]:
    """The localization noise streams of a run's n vehicles, in agent order."""
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n)]


def _fly(flights: Iterable[Flight], config: SimConfig,
         command_sink: Optional[list]) -> tuple[list[list[_Run]], list[float], list[np.ndarray]]:
    """The one tick loop, which `run_fleet` and `run_fleet_errors` read: checks
    the flights, flies them as one fleet and returns the runs by flight, each
    ended, the logged ticks and the (_LOG_BLOCK, rows, 3) blocks of true
    positions logged at them."""
    checked = []
    for plans, method, runs, speeds in flights:
        name = method.lower()
        if name not in METHODS:
            raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
        plan_list = sorted(plans, key=lambda p: p.agent)
        if not plan_list:
            raise ValueError("no plans to execute")
        agent_ids = [p.agent for p in plan_list]
        if len(set(agent_ids)) != len(agent_ids):
            raise ValueError(f"duplicate plan agent ids: {agent_ids}")
        if isinstance(runs, bool) or not isinstance(runs, int) or runs < 1:
            raise ValueError(f"runs must be a positive int, got {runs!r}")
        checked.append((plan_list, name, runs, speeds))
    if not checked:
        raise ValueError("no flights to fly")
    check_fleet_size([(plan_list, runs) for plan_list, _, runs, _ in checked], config)

    by_flight: list[list[_Run]] = []
    rows = 0
    for plan_list, name, runs, speeds in checked:
        flight_runs = []
        for r in range(runs):
            vehicles = []
            for plan, rng in zip(plan_list, _noise_streams(config.seed + r, len(plan_list))):
                vehicle = _Vehicle(rows + len(vehicles), plan.agent, config.latency, command_sink, rng)
                cruise = config.vll_cruise_speed
                if cruise is None:
                    cruise = speeds[plan.agent] if speeds and plan.agent in speeds else _plan_speed(plan)
                vehicle.gen = make_executor(
                    name,
                    plan,
                    vehicle,
                    period=config.command_period,
                    box_half_width=config.vll_box_half_width,
                    cruise_speed=cruise,
                )
                vehicles.append(vehicle)
            flight_runs.append(_Run(config.seed + r, slice(rows, rows + len(vehicles)), vehicles, _wall_cap(plan_list),
                                    plan_list, name))
            rows += len(vehicles)
        by_flight.append(flight_runs)

    fleet_runs = [run for flight_runs in by_flight for run in flight_runs]
    fleet = _Fleet([p.start_position for run in fleet_runs for p in run.plans], [(0.0, 0.0, 0.0)] * rows, config,
                   config.tick)
    goals = np.array([p.goal_position for run in fleet_runs for p in run.plans], dtype=np.float64)
    steps_per_log = config.log_every_ticks
    box = config.vll_box_half_width
    noise = np.empty((rows, _NOISE_BLOCK, 3))  # one contiguous block per vehicle stream
    offsets = np.empty((_NOISE_BLOCK, rows, 3))  # noise_sigma * noise, one (rows, 3) slab per tick

    times: list[float] = []  # the logged ticks
    blocks: list[np.ndarray] = []  # true positions, one (_LOG_BLOCK, rows, 3) array per _LOG_BLOCK logged ticks
    active = fleet_runs  # runs still flying
    ready: list[_Run] = []  # active runs whose executors have all finished
    cap = min(run.cap for run in active)  # the earliest wall cap of the active runs
    n = 0
    wake = 0.0  # earliest next resume or command arrival of the active runs' vehicles
    while True:
        t = n * config.tick
        k = n % _NOISE_BLOCK
        if k == 0:
            # an ended run's rows are never read again, so its streams stop here
            for run in active:
                for v in run.vehicles:
                    v.rng.standard_normal(out=noise[v.row])
            np.multiply(noise.transpose(1, 0, 2), config.noise_sigma, out=offsets)
        if n % steps_per_log == 0:
            j = len(times) % _LOG_BLOCK
            if j == 0:
                blocks.append(np.empty((_LOG_BLOCK, rows, 3)))
            blocks[-1][j] = fleet.pos
            times.append(t)
        ended = False
        if ready:
            inside = (np.abs(fleet.pos - goals) <= box).all(axis=1)
            for run in ready:
                if inside[run.rows].all():
                    run.completed = run.ended = ended = True
                    run.end_tick = n
        if t > cap:
            for run in active:
                if t > run.cap and not run.ended:
                    run.ended = ended = True
                    run.end_tick = n
        if ended:
            active = [run for run in active if not run.ended]
            if not active:
                break
            ready = [run for run in ready if not run.ended]
            cap = min(run.cap for run in active)

        due_by = t + _EPS
        if wake <= due_by:
            wake = math.inf
            estimated = fleet.pos + offsets[k]
            arrivals: list[tuple[int, Command]] = []
            for run in active:
                for v in run.vehicles:
                    guard = 0
                    v.now, v.estimates = t, estimated
                    while not v.done and v.next_resume <= due_by:
                        try:
                            delay = next(v.gen)
                        except StopIteration:
                            v.done = True
                            run.n_done += 1
                            if run.n_done == len(run.vehicles):
                                ready.append(run)
                            break
                        v.next_resume = t + max(delay, 1e-9)
                        guard += 1
                        if guard > 100000:
                            raise RuntimeError(f"agent {v.agent}: executor yields no forward progress")
                    # the due commands are a prefix of pending; its last one is the newest
                    arrived = bisect_right(v.pending, due_by, key=itemgetter(0))
                    if arrived:
                        arrivals.append((v.row, v.pending[arrived - 1][1]))
                        del v.pending[:arrived]
                    if v.pending and v.pending[0][0] < wake:
                        wake = v.pending[0][0]
                    if not v.done and v.next_resume < wake:
                        wake = v.next_resume
            if arrivals:
                fleet.activate(arrivals, t)
        fleet.step(t)
        n += 1
    return by_flight, times, blocks


def _planned_positions(by_flight: list[list[_Run]], config: SimConfig,
                       times: list[float]) -> Iterator[tuple[list[_Run], np.ndarray]]:
    """Each flight's runs and its planned positions, the same for each of its
    runs: one (logged ticks, N, 3) array up to its last run's end, filled
    _PLANNED_TICKS logged ticks per positions_at call, made as it is reached."""
    for flight_runs in by_flight:
        plans = flight_runs[0].plans
        ticks = max(run.end_tick for run in flight_runs) // config.log_every_ticks + 1
        planned = np.empty((ticks, len(plans), 3))
        for lo in range(0, ticks, _PLANNED_TICKS):
            for i, plan in enumerate(plans):
                planned[lo : lo + _PLANNED_TICKS, i] = plan.positions_at(times[lo : min(lo + _PLANNED_TICKS, ticks)])
        yield flight_runs, planned


def _pose_log(run: _Run, config: SimConfig, times: list[float], blocks: list[np.ndarray],
              planned: np.ndarray) -> PoseLog:
    """The run's POSE_DTYPE records, one row per agent per logged tick up to
    its end tick: actual positions cut block by block from its rows of the
    logged arrays, planned ones from its flight's planned array. The estimated
    ones are rebuilt: each vehicle's stream is redrawn up to the end tick in one
    block, and the logged ticks' noise is scaled and added as in flight."""
    agents = [p.agent for p in run.plans]
    ticks = run.end_tick // config.log_every_ticks + 1
    records = np.empty(ticks * len(agents), dtype=POSE_DTYPE)
    records["t"] = np.repeat(times[:ticks], len(agents))
    records["agent"] = np.tile(agents, ticks)
    grid = records.reshape(ticks, len(agents))  # a view, one row per logged tick
    grid["planned"] = planned[:ticks]
    actual_out, estimated_out = grid["actual"], grid["estimated"]
    for lo, actual in zip(range(0, ticks, _LOG_BLOCK), blocks):
        actual_out[lo : lo + _LOG_BLOCK] = actual[: ticks - lo, run.rows]
    for i, rng in enumerate(_noise_streams(run.seed, len(agents))):
        noise = rng.standard_normal((run.end_tick + 1, 3))[:: config.log_every_ticks]
        estimated_out[:, i] = actual_out[:, i] + noise * config.noise_sigma
    return PoseLog(
        records=records,
        method=run.method,
        seed=run.seed,
        completed=run.completed,
        end_time=run.end_tick * config.tick,
    )


# ---------------------------------------------------------------------------
# error metrics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AgentError:
    max_error: float
    avg_error: float


@dataclass(frozen=True)
class ErrorReport(_BlockCsv):
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

    def _csv_chunks(self) -> Iterator[str]:
        """error_series.csv as text chunks: the header, then one chunk per row block."""
        yield "t,agent,error\n"
        for b in _row_blocks(self.series):
            yield "".join([f"{prefix}{error!r}\n" for prefix, error in zip(_row_prefixes(b), b["error"].tolist())])

    def series_csv(self) -> str:
        """error_series.csv as one string: a header, then one line per record, every error as its repr."""
        return "".join(self._csv_chunks())


def _mean(values) -> float:
    # A running sum adds left to right. From Python 3.12 on sum() of floats is
    # compensated, and np.sum is pairwise; either would change errors.json.
    return np.cumsum(values)[-1].item() / len(values)


def error_metrics(log: PoseLog, basis: str = BASIS_ACTUAL) -> ErrorReport:
    """Per-record Euclidean error between the basis position and the planned one.

    The records must be tick-major, then agent, with the same agents in the
    same order at every logged tick (as `run_execution` writes them); the
    per-agent figures are then the columns of the (ticks, N) errors, and a log
    laid out otherwise raises ValueError. Each error is math.hypot of the
    record's offsets, one row block at a time, so the Python floats it needs
    are bounded by the block.
    """
    if basis not in (BASIS_ACTUAL, BASIS_ESTIMATED):
        raise ValueError(f"unknown basis {basis!r}")
    r = log.records
    if not len(r):
        raise ValueError("empty pose log")
    agents = r["agent"]
    ticks = np.count_nonzero(agents == agents[0])  # the first agent is logged once per tick
    n_agents = len(r) // ticks
    first = agents[:n_agents]
    if (ticks * n_agents != len(r) or len(set(first.tolist())) < n_agents
            or not (agents.reshape(ticks, n_agents) == first).all()):
        raise ValueError("pose log records must be tick-major, then agent, with the same agents at every tick")
    column = "actual" if basis == BASIS_ACTUAL else "estimated"
    series = np.empty(len(r), dtype=ERROR_DTYPE)
    series["t"], series["agent"] = r["t"], agents
    errors = series["error"]
    aggregate = _error_figures(errors, (b[column] - b["planned"] for b in _row_blocks(r)))
    columns = errors.reshape(ticks, n_agents)
    # a running sum down each column adds left to right, as _mean does
    means = (np.cumsum(columns, axis=0)[-1] / ticks).tolist()
    per_agent = {agent: AgentError(hi, mean)
                 for agent, hi, mean in sorted(zip(first.tolist(), columns.max(axis=0).tolist(), means))}
    return ErrorReport(basis, log.method, log.seed, per_agent, aggregate, series)


def _error_figures(errors: np.ndarray, diffs: Iterable[np.ndarray]) -> AgentError:
    """Fill `errors`, in order, with the Euclidean length of each row of each
    (k, 3) block of position differences, and return their maximum and mean.

    This is the one error rule of the metrics. Each error is math.hypot of the
    row, one block at a time, so the Python floats it needs are bounded by the
    block; the mean is a running sum, left to right (`_mean`).
    """
    lo = 0
    for d in diffs:
        # math.hypot of the differences is math.dist bit for bit (one CPython routine);
        # a numpy norm differs from both by an ulp on some poses
        errors[lo : lo + len(d)] = list(map(math.hypot, *d.T.tolist()))
        lo += len(d)
    return AgentError(errors.max().item(), _mean(errors))
