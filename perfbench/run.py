"""mapflight benchmark: one workload, closed loop, output checks, one JSON result line.

    python3 perfbench/run.py --workload plan-grid --seed 1 --seconds 20 --trace 0

This process is the client. It times `setup_s` with fresh set-up probes, then
starts one worker process (worker.py) and sends it one operation at a time,
waiting for each reply (a closed loop with one client). It runs whole passes over the
workload's operations, each pass in an order drawn from --seed, until
--seconds have elapsed. Every output is checked against the references
recorded in inputs/references.json.

--trace 0 reports the end-to-end metrics. --trace 1 alternates traced and
untraced passes in the same worker (at least traced, untraced, traced) and
reports per-layer metrics of the traced passes, plus their overhead over the
untraced ones. The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from multiprocessing.connection import Connection
from pathlib import Path

import tracing
import workloads

SETUP_PROBES = 9
REPLY_TIMEOUT_S = 150.0
MIN_TRACED_PASSES = 2


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "platform": platform.platform()}


def code_fingerprint() -> str:
    """sha256 over the package sources, so results can be paired by code version."""
    digest = hashlib.sha256()
    for path in sorted((workloads.ROOT / "src" / "mapflight").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def measure_setup(workload: str) -> list[float]:
    """Wall time of fresh interpreters that import mapflight and load the inputs."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        # no timeout: with one, the wait polls in sleeps of up to 50 ms
        subprocess.run([sys.executable, str(workloads.BENCH_DIR / "probe.py"), workload],
                       check=True, stdin=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def percentile(samples: list[float], level: float) -> float:
    """Linear interpolation between order statistics; level 1.0 is the maximum."""
    ordered = sorted(samples)
    pos = level * (len(ordered) - 1)
    lo = int(pos)
    if lo + 1 >= len(ordered):
        return ordered[-1]
    return ordered[lo] + (ordered[lo + 1] - ordered[lo]) * (pos - lo)


class Client:
    def __init__(self, workload: str, seed: int, work_dir: Path):
        self.workload = workload
        self.ops = workloads.operations(workload)
        self.refs = workloads.load_references()[workload]
        self.order_rng = random.Random(seed)
        # a plain child over two OS pipes: multiprocessing's spawn would also
        # start a resource-tracker process that outlives this one
        to_worker_r, to_worker_w = os.pipe()
        from_worker_r, from_worker_w = os.pipe()
        try:
            self.proc = subprocess.Popen(
                [sys.executable, str(workloads.BENCH_DIR / "worker.py"),
                 str(to_worker_r), str(from_worker_w)],
                pass_fds=(to_worker_r, from_worker_w), stdin=subprocess.DEVNULL)
        except BaseException:
            for fd in (to_worker_r, to_worker_w, from_worker_r, from_worker_w):
                os.close(fd)
            raise
        os.close(to_worker_r)
        os.close(from_worker_w)
        self.send_conn = Connection(to_worker_w, readable=False)
        self.conn = Connection(from_worker_r, writable=False)
        try:
            self.send_conn.send((str(workloads.ROOT), workload, self.ops, str(work_dir)))
            kind, info = self.ask(None)
            if kind != "ready":
                raise RuntimeError(f"worker failed to start:\n{info}")
        except BaseException:
            self.close()
            raise
        self.worker_info = info
        self.samples: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed: list[str] = []
        self.wrong: list[str] = []
        self.reached = 0
        self.seen: dict[str, dict] = {}

    def ask(self, request):
        if request is not None:
            self.send_conn.send(request)
        if not self.conn.poll(REPLY_TIMEOUT_S):
            raise RuntimeError(f"worker sent no reply to {request!r} within {REPLY_TIMEOUT_S} s")
        return self.conn.recv()

    def run_pass(self, keep_samples: bool) -> float:
        """One pass in a fresh seeded order; returns the summed operation time."""
        order = list(range(len(self.ops)))
        self.order_rng.shuffle(order)
        total = 0.0
        for index in order:
            op = self.ops[index]
            result = self.ask(("op", index))
            self.attempted += 1
            label = f"{self.workload} {op['key']}"
            if result["error"] is not None:
                self.failed.append(f"{label}: {result['error']}")
                print(result["traceback"], file=sys.stderr)
                continue
            outputs = result["outputs"]
            problems = workloads.check(self.workload, outputs, self.refs[op["key"]])
            first = self.seen.setdefault(op["key"], outputs)
            if outputs != first:
                problems.append(f"outputs differ between repeats: {first} then {outputs}")
            if problems:
                self.failed.append(f"{label}: {'; '.join(problems)}")
                self.wrong.extend(f"{label}: {p}" for p in problems)
                continue
            self.reached += workloads.reached_goal(self.workload, outputs)
            total += result["s"]
            if keep_samples:
                self.samples.setdefault(op["key"], []).append(result["s"])
        return total

    def close(self) -> None:
        """Stop the worker and wait until it has ended."""
        with contextlib.suppress(OSError):
            if self.proc.poll() is None:
                self.send_conn.send(("stop",))
        self.send_conn.close()  # the worker also stops at end of input
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.conn.close()


def untraced_run(client: Client, seconds: float) -> dict:
    start = time.perf_counter()
    passes = 0
    while passes < 1 or time.perf_counter() - start < seconds:
        client.run_pass(keep_samples=True)
        passes += 1
    return {"passes": passes}


def traced_run(client: Client, seconds: float) -> tuple[dict, list[dict], dict]:
    """Traced and untraced passes alternate, traced first, in one worker."""
    start = time.perf_counter()
    traced_s: list[float] = []
    untraced_s: list[float] = []
    per_pass: list[dict] = []
    missing: list[str] = []
    while (len(traced_s) < MIN_TRACED_PASSES or not untraced_s
           or time.perf_counter() - start < seconds):
        if len(traced_s) <= len(untraced_s):
            missing = client.ask(("trace", True))
            traced_s.append(client.run_pass(keep_samples=False))
            per_pass.append(tracing.layer_metrics(client.ask(("take",))))
            client.ask(("trace", False))
        else:
            untraced_s.append(client.run_pass(keep_samples=False))
    pairing = {"traced_pass_s": traced_s, "untraced_pass_s": untraced_s,
               "missing_boundaries": missing}
    return {"passes": len(traced_s) + len(untraced_s)}, per_pass, pairing


def combine_traced(per_pass: list[dict], pairing: dict, wrong: list[str]) -> dict:
    """Counts from the first traced pass (all must agree), times as medians over passes."""
    metrics: dict = {}
    for name, first in per_pass[0].items():
        values = [p[name] for p in per_pass]
        if isinstance(first, int):
            if any(v != first for v in values):
                wrong.append(f"count {name} differs between traced passes: {values}")
            metrics[name] = first
        else:
            metrics[name] = statistics.median(values)
    untraced = statistics.median(pairing["untraced_pass_s"])
    traced = statistics.median(pairing["traced_pass_s"])
    metrics["trace_overhead"] = traced / untraced - 1.0 if untraced > 0 else 0.0
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="mapflight benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",),
                        help="one workload, or all four one after another")
    parser.add_argument("--seed", type=int, required=True, help="draws the operation order")
    parser.add_argument("--seconds", type=float, required=True, help="how long to keep starting passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind through the finally blocks that stop the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (workloads.ROOT / "src" / "mapflight" / "__init__.py").is_file():
        print(f"error: no mapflight sources under {workloads.ROOT / 'src'}", file=sys.stderr)
        return 2
    if not workloads.REFERENCES.is_file():
        print(f"error: missing {workloads.REFERENCES}", file=sys.stderr)
        return 2
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]
    units = {m["name"]: m["unit"] for m in declared}
    if args.workload == "all":
        return max(run_workload(w, args, units) for w in workloads.WORKLOADS)
    return run_workload(args.workload, args, units)


def run_workload(workload: str, args: argparse.Namespace, units: dict) -> int:
    """Measure one workload and print its metrics; the last line printed is the JSON result."""
    info = {"workload": workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "code": code_fingerprint(), "machine": machine()}
    metrics: dict = {}
    setup = measure_setup(workload) if args.trace == 0 else []
    work_dir = workloads.BENCH_DIR / ".work" / str(os.getpid())
    work_dir.mkdir(parents=True, exist_ok=True)
    client = None
    try:
        client = Client(workload, args.seed, work_dir)
        info["machine"]["numpy"] = client.worker_info["numpy"]
        info["caches_cleared_per_op"] = client.worker_info["caches"]
        if args.trace == 0:
            info.update(untraced_run(client, args.seconds))
            peak_rss = client.ask(("rss",))
        else:
            loop, per_pass, pairing = traced_run(client, args.seconds)
            info.update(loop)
            info["pairing"] = pairing
            metrics = combine_traced(per_pass, pairing, client.wrong)
    finally:
        if client is not None:
            client.close()
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            work_dir.parent.rmdir()

    op_name = workloads.OP_NAMES[workload]
    info["samples"] = client.samples
    info["setup_samples"] = setup
    print(f"# run {json.dumps(info, sort_keys=True)}")
    if args.trace == 0:
        samples = [s for times in client.samples.values() for s in times]
        if not samples:
            print("error: no operation succeeded", file=sys.stderr)
            for line in client.failed:
                print(f"  {line}", file=sys.stderr)
            return 1
        level = workloads.TAIL_LEVEL[workload]
        tail_value = percentile(samples, level)
        above = sum(s > tail_value for s in samples)
        metrics = {
            "setup_s": statistics.median(setup),
            "op_s.mean": statistics.fmean(samples),
            "solved_ratio": client.reached / client.attempted,
            "peak_rss_mb": peak_rss,
        }
        print(f"setup_s = {metrics['setup_s']:.4f} s (median of {len(setup)} fresh processes)")
        print(f"{op_name}.mean = {metrics['op_s.mean']:.4f} s (op_s.mean, n={len(samples)})")
        # printed, not declared: too unsteady between runs on a shared host to gate
        print(f"{op_name}.p50 = {statistics.median(samples):.4f} s (n={len(samples)})")
        print(f"{op_name}.tail = {tail_value:.4f} s (p{100 * level:.0f} of n={len(samples)}, "
              f"{above} above)")
        print(f"solved_ratio = {metrics['solved_ratio']:.4f} ({client.reached}/{client.attempted})")
        print(f"peak_rss_mb = {peak_rss:.1f} MB")
    else:
        for name, value in metrics.items():
            print(f"{name} = {value} {units[name]}")
    print(f"fail_ratio = {len(client.failed) / client.attempted:.4f} "
          f"({len(client.failed)}/{client.attempted})")
    for line in client.failed:
        print(f"# failed {line}")
    for name in info.get("pairing", {}).get("missing_boundaries", []):
        print(f"# warning: boundary {name} no longer exists and was not traced")
    if set(metrics) != set(units):
        raise RuntimeError(f"measured metrics {sorted(metrics)} differ from the declared {sorted(units)}")
    result = {
        "correct": not client.wrong,
        "attempted": client.attempted,
        "failed": len(client.failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
