"""Boundary tracing: wrappers around the public entry points of each mapflight layer.

`Tracer.install` rebinds each traced function at every module that calls it
(for example `mapflight.ccbs.sipp_plan`, which `ccbs_solve` looks up in its
own module), and `uninstall` puts the originals back. Spans are aggregated
when they close, per span name and per (parent, child) edge, instead of being
stored one by one: a `fly-swarm` pass closes about half a million spans. A
span's self time is its duration minus the time of the traced spans nested
directly inside it.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

# (span name, defining module or class, attribute, modules that call it by that name)
BOUNDARIES = (
    ("world.load_instance", "world", "load_instance", ("world", "cli")),
    ("sipp.sipp_plan", "sipp", "sipp_plan", ("ccbs",)),
    ("sipp.table_adding", "sipp.SafeIntervalTable", "adding", ()),
    ("ccbs.ccbs_solve", "ccbs", "ccbs_solve", ("ccbs", "cli")),
    ("ccbs.branch", "ccbs", "branch", ("ccbs",)),
    ("geometry3d.first_conflict", "geometry3d", "first_conflict", ("ccbs",)),
    ("geometry3d.move_clear_delay", "geometry3d", "move_clear_delay", ("ccbs",)),
    ("geometry3d.cylinder_unsafe_interval", "geometry3d", "cylinder_unsafe_interval",
     ("geometry3d", "ccbs")),
    ("plan.validate", "plan", "validate", ("plan", "cli")),
    ("plan.save_plans", "plan", "save_plans", ("plan", "cli")),
    ("plan.load_plans", "plan", "load_plans", ("plan", "cli")),
    ("flightsim.run_execution", "flightsim", "run_execution", ("flightsim", "cli")),
    ("flightsim.vehicle_step", "flightsim", "vehicle_step", ("flightsim",)),
    ("flightsim.localize", "flightsim", "localize", ("flightsim",)),
    ("flightsim.error_metrics", "flightsim", "error_metrics", ("flightsim", "cli")),
    ("flightsim.pose_csv", "flightsim.PoseLog", "write_csv", ()),
    ("cli.cmd_plan", "cli", "cmd_plan", ("cli",)),
    ("cli.cmd_validate", "cli", "cmd_validate", ("cli",)),
    ("cli.cmd_simulate", "cli", "cmd_simulate", ("cli",)),
    ("cli.cmd_bench", "cli", "cmd_bench", ("cli",)),
)


class _TracedExecutor:
    """Iterator over an executor generator that records each resume as a span."""

    def __init__(self, step):
        self._step = step

    def __iter__(self):
        return self

    def __next__(self):
        return self._step()


class Tracer:
    def __init__(self, mods: dict):
        self.mods = mods
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        self._reset()

    def _reset(self) -> None:
        self.incl: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.calls: Counter = Counter()
        self.edge_s: defaultdict = defaultdict(float)
        self.edge_n: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list] = []
        self._root_cost = None
        self._node_sets: set = set()

    def _resolve(self, path: str):
        mod, _, cls = path.partition(".")
        owner = self.mods[mod]
        return getattr(owner, cls) if cls else owner

    def _span(self, name: str, fn):
        tracer = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = tracer._stack
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                tracer.incl[name] += dt
                tracer.self_s[name] += dt - frame[1]
                tracer.calls[name] += 1
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += dt
                edge = (parent[0] if parent is not None else "", name)
                tracer.edge_s[edge] += dt
                tracer.edge_n[edge] += 1

        return traced

    # hooks: count at the boundary what the span alone cannot see

    def _hook_solve(self, fn):
        def solve(*args, **kwargs):
            self._root_cost = None
            self._node_sets = set()
            result = fn(*args, **kwargs)
            self.counts["ccbs.expansions"] += result.stats.expansions
            self.counts["ccbs.generated"] += result.stats.generated
            self.counts["ccbs.distinct_nodes"] += len(self._node_sets)
            self._node_sets = set()
            return result
        return solve

    def _hook_first_conflict(self, fn):
        def first_conflict(plans, bodies):
            plans = tuple(plans)
            cost = sum(p.end_time for p in plans)
            if self._root_cost is None:
                self._root_cost = cost
            self.counts["ccbs.nodes_checked"] += 1
            if abs(cost - self._root_cost) <= 1e-9:
                self.counts["ccbs.plateau_nodes"] += 1
            self._node_sets.add(tuple(sorted(plans, key=lambda p: p.agent)))
            return fn(plans, bodies)
        return first_conflict

    def _hook_sipp(self, fn):
        def sipp_plan(*args, **kwargs):
            plan = fn(*args, **kwargs)
            if plan is None:
                self.counts["sipp.unreachable"] += 1
            return plan
        return sipp_plan

    def _hook_run_execution(self, fn):
        def run_execution(plans, method, *args, **kwargs):
            sink = kwargs.setdefault("command_sink", [])
            log = fn(plans, method, *args, **kwargs)
            self.counts[f"executor.commands.{method.lower()}"] += len(sink)
            return log
        return run_execution

    def _hook_make_executor(self, fn):
        def make_executor(*args, **kwargs):
            gen = fn(*args, **kwargs)
            return _TracedExecutor(self._span("executor.resume", gen.__next__))
        return make_executor

    def install(self) -> None:
        """Reset the aggregates and rebind every boundary to its traced wrapper."""
        self.uninstall()
        self._reset()
        self.missing = []
        hooks = {
            "ccbs.ccbs_solve": self._hook_solve,
            "geometry3d.first_conflict": self._hook_first_conflict,
            "sipp.sipp_plan": self._hook_sipp,
            "flightsim.run_execution": self._hook_run_execution,
        }
        for name, home, attr, callers in BOUNDARIES:
            owner = self._resolve(home)
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(name)
                continue
            hook = hooks.get(name)
            wrapped = self._span(name, hook(original) if hook else original)
            targets = [owner] if not callers else [self.mods[c] for c in callers]
            targets = [t for t in targets if hasattr(t, attr)]
            if not targets:  # no caller looks the name up where we can rebind it
                self.missing.append(name)
            for target in targets:
                self._patches.append((target, attr, getattr(target, attr)))
                setattr(target, attr, wrapped)
        # executor generators are traced per resume, through the factory that makes them
        flightsim = self.mods["flightsim"]
        self._patches.append((flightsim, "make_executor", flightsim.make_executor))
        flightsim.make_executor = self._hook_make_executor(flightsim.make_executor)

    def uninstall(self) -> None:
        while self._patches:
            target, attr, original = self._patches.pop()
            setattr(target, attr, original)

    def take(self) -> dict:
        """The aggregate since `install`, as plain picklable dicts."""
        return {
            "incl": dict(self.incl),
            "self": dict(self.self_s),
            "calls": dict(self.calls),
            "edge_s": {f"{p}>{c}": v for (p, c), v in self.edge_s.items()},
            "edge_n": {f"{p}>{c}": v for (p, c), v in self.edge_n.items()},
            "counts": dict(self.counts),
        }


LAYERS = ("world", "sipp", "ccbs", "geometry3d", "plan", "executor", "flightsim", "cli")
VALIDATE_PAIR_TESTS = "plan.validate>geometry3d.cylinder_unsafe_interval"


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(agg: dict) -> dict:
    """Per-layer metrics of one traced pass."""
    incl, self_s, calls, counts = agg["incl"], agg["self"], agg["calls"], agg["counts"]

    def t(name):
        return incl.get(name, 0.0)

    def n(name):
        return calls.get(name, 0)

    expansions = counts.get("ccbs.expansions", 0)
    nodes = counts.get("ccbs.nodes_checked", 0)
    ticks = n("flightsim.vehicle_step")
    m = {
        "world.load_instance.s": t("world.load_instance"),
        "sipp.sipp_plan.calls": n("sipp.sipp_plan"),
        "sipp.sipp_plan.s": t("sipp.sipp_plan"),
        "sipp.sipp_plan.s_per_call": _ratio(t("sipp.sipp_plan"), n("sipp.sipp_plan")),
        "sipp.unreachable_ratio": _ratio(counts.get("sipp.unreachable", 0), n("sipp.sipp_plan")),
        "sipp.table_adding.s": t("sipp.table_adding"),
        "ccbs.expansions": expansions,
        "ccbs.generated": counts.get("ccbs.generated", 0),
        "ccbs.s_per_expansion": _ratio(t("ccbs.ccbs_solve"), expansions),
        "ccbs.branch.s": t("ccbs.branch"),
        "ccbs.plateau_ratio": _ratio(counts.get("ccbs.plateau_nodes", 0), nodes),
        "ccbs.distinct_node_ratio": _ratio(counts.get("ccbs.distinct_nodes", 0), nodes),
        "geometry3d.first_conflict.calls": n("geometry3d.first_conflict"),
        "geometry3d.first_conflict.s": t("geometry3d.first_conflict"),
        "geometry3d.move_clear_delay.calls": n("geometry3d.move_clear_delay"),
        "geometry3d.move_clear_delay.s": t("geometry3d.move_clear_delay"),
        "geometry3d.pair_tests": n("geometry3d.cylinder_unsafe_interval")
        - agg["edge_n"].get(VALIDATE_PAIR_TESTS, 0),
        "plan.validate.s": t("plan.validate"),
        "plan.validate.analytic_s": agg["edge_s"].get(VALIDATE_PAIR_TESTS, 0.0),
        "plan.save_load.s": t("plan.save_plans") + t("plan.load_plans"),
        "executor.resumes": n("executor.resume"),
        "executor.s": t("executor.resume"),
        "executor.commands.bhl": counts.get("executor.commands.bhl", 0),
        "executor.commands.bll": counts.get("executor.commands.bll", 0),
        "executor.commands.vll": counts.get("executor.commands.vll", 0),
        "flightsim.agent_ticks": ticks,
        "flightsim.s_per_agent_tick": _ratio(t("flightsim.run_execution"), ticks),
        "flightsim.vehicle_step.s": t("flightsim.vehicle_step"),
        "flightsim.localize.s": t("flightsim.localize"),
        "flightsim.loop_self_s": self_s.get("flightsim.run_execution", 0.0),
        "flightsim.error_metrics.s": t("flightsim.error_metrics"),
        "flightsim.pose_csv.s": t("flightsim.pose_csv"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum((v for k, v in self_s.items() if k.split(".")[0] == layer), 0.0)
    return m
