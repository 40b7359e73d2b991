"""Worker process: runs one workload's operations against `mapflight`.

The client sends one request at a time over a pipe and waits for the reply,
so the worker never holds more than one operation. Every operation starts
from the cache state a fresh `mapflight` process sees: all module-level
`functools` caches are cleared and garbage is collected before it, outside
the timed region.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import importlib
import io
import json
import resource
import shutil
import sys
import time
import traceback
from multiprocessing.connection import Connection
from pathlib import Path

MODULES = ("world", "geometry3d", "sipp", "plan", "ccbs", "executor", "flightsim", "cli")


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def import_mapflight(root: Path) -> dict:
    """The mapflight modules, imported from the checkout's source tree."""
    src = str(root / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    return {name: importlib.import_module(f"mapflight.{name}") for name in MODULES}


class Runner:
    """Executes operations; returns each one's timed seconds and its outputs."""

    def __init__(self, mods: dict, workload: str, ops: list[dict], work_dir: Path):
        self.m = mods
        self.workload = workload
        self.ops = ops
        self.work_dir = work_dir
        caches = {
            id(obj): obj for mod in mods.values() for obj in vars(mod).values()
            if callable(getattr(obj, "cache_clear", None))
        }
        self.caches = list(caches.values())

    def run(self, index: int) -> dict:
        op = self.ops[index]
        for cache in self.caches:
            cache.cache_clear()
        gc.collect()
        try:
            if self.workload in ("plan-dense", "plan-grid"):
                return self._solve(op)
            if self.workload == "fly-swarm":
                return self._fly(op)
            return self._bench(op)
        except Exception as exc:  # a crash is a failed operation; the loop goes on
            return {"s": None, "error": f"{type(exc).__name__}: {exc}",
                    "traceback": traceback.format_exc(), "outputs": {}}

    def _solve(self, op: dict) -> dict:
        ccbs = self.m["ccbs"]
        world, agents = self.m["world"].load_instance(op["instance"])
        limits = ccbs.SolveLimits(max_wall_time=op["max_wall_time"], max_expansions=op["max_expansions"])
        t0 = time.perf_counter()
        result = ccbs.ccbs_solve(world, agents, limits)
        elapsed = time.perf_counter() - t0
        outputs = {"status": result.status, "expansions": result.stats.expansions,
                   "generated": result.stats.generated}
        if result.solution is not None:
            outputs["cost"] = result.solution.cost
            outputs["valid"] = self.m["plan"].validate(result.solution.plans, agents, world).ok
        return {"s": elapsed, "error": None, "outputs": outputs}

    def _fly(self, op: dict) -> dict:
        flightsim, cli = self.m["flightsim"], self.m["cli"]
        planset = self.m["plan"].load_plans(op["plans"])
        config = flightsim.SimConfig(seed=op["seed"])
        out = self.work_dir / op["key"].replace("/", "-")
        out.mkdir(parents=True, exist_ok=True)
        # the `mapflight simulate` path, minus loading and the manifest
        t0 = time.perf_counter()
        log = flightsim.run_execution(planset.plans, op["method"], config, speeds=planset.speeds)
        report = flightsim.error_metrics(log)
        log.write_csv(out / "poses.csv")
        (out / "error_series.csv").write_text(report.series_csv(), encoding="utf-8")
        cli._write_json(out / "errors.json", report.to_json_dict(config_hash=cli._config_hash(config)))
        elapsed = time.perf_counter() - t0
        outputs = {"completed": log.completed, "records": len(log.records),
                   "poses.csv": sha256(out / "poses.csv"), "errors.json": sha256(out / "errors.json")}
        return {"s": elapsed, "error": None, "outputs": outputs}

    def _bench(self, op: dict) -> dict:
        out = self.work_dir / "bench"
        shutil.rmtree(out, ignore_errors=True)
        argv = ["bench", "--scenarios", op["scenarios"], "--out", str(out),
                "--repetitions", str(op["repetitions"])]
        printed = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(printed):
            code = self.m["cli"].main(argv)
        elapsed = time.perf_counter() - t0
        summary = json.loads((out / "bench.json").read_text(encoding="utf-8"))
        rows = summary["rows"]
        outputs = {
            "exit": code,
            "failures": summary["failures"],
            "rows": len(rows),
            "min_success_rate": min((r["success_rate"] for r in rows), default=0.0),
            "costs": {r["scenario"]: r["cost"] for r in rows},
        }
        return {"s": elapsed, "error": None, "outputs": outputs}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def serve(requests, conn, root: str, workload: str, ops: list[dict], work_dir: str) -> None:
    """Answer requests read from `requests` on `conn` until told to stop.

    Requests: ("op", index) -> result dict; ("trace", on) -> None, installing
    or removing the boundary wrappers; ("take",) -> the trace aggregate since
    the last ("trace", True); ("rss",) -> peak resident memory in MB;
    ("stop",) or the end of input ends the worker.
    """
    try:
        mods = import_mapflight(Path(root))
        import numpy
        from tracing import Tracer

        runner = Runner(mods, workload, ops, Path(work_dir))
        tracer = Tracer(mods)
    except Exception:
        conn.send(("error", traceback.format_exc()))
        return
    conn.send(("ready", {"numpy": numpy.__version__, "caches": len(runner.caches)}))
    while True:
        try:
            request = requests.recv()
        except EOFError:
            return
        kind = request[0]
        if kind == "op":
            conn.send(runner.run(request[1]))
        elif kind == "trace":
            if request[1]:
                tracer.install()
            else:
                tracer.uninstall()
            conn.send(tracer.missing)
        elif kind == "take":
            conn.send(tracer.take())
        elif kind == "rss":
            conn.send(peak_rss_mb())
        elif kind == "stop":
            return


def main(argv: list[str]) -> int:
    """Entry point of the worker process started by run.py.

        python3 perfbench/worker.py <read fd> <write fd>

    The first message on the read pipe is (root, workload, ops, work_dir).
    """
    requests = Connection(int(argv[0]), writable=False)
    conn = Connection(int(argv[1]), readable=False)
    try:
        serve(requests, conn, *requests.recv())
    except EOFError:
        pass
    finally:
        conn.close()
        requests.close()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
