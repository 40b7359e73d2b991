"""Set-up probe: start, import mapflight, load one workload's input files, exit.

`run.py` times whole runs of this script in a fresh interpreter to measure
`setup_s`: what a user pays before the first operation of the workload.

    python3 perfbench/probe.py plan-grid
"""

import sys

import workloads
from worker import import_mapflight


def main(workload: str) -> int:
    mods = import_mapflight(workloads.ROOT)
    kind, paths = workloads.input_files(workload)
    load = mods["world"].load_instance if kind == "instance" else mods["plan"].load_plans
    for path in paths:
        load(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
