"""Shared fixtures: repository paths, bundled scenario files, acceptance summary."""

import sys
from pathlib import Path

import pytest

from acceptance_report import LINES as ACCEPTANCE_LINES

REPO_ROOT = Path(__file__).resolve().parents[1]
SCENARIO_DIR = REPO_ROOT / "scenarios"

# The wait-free demo scenarios; every command method must track these tightly.
DEMO_SCENARIOS = ("method_comparison", "swarm_2", "swarm_4", "swarm_6")


@pytest.fixture(scope="session")
def scenario_dir() -> Path:
    return SCENARIO_DIR


@pytest.fixture(scope="session")
def demo_scenario_paths() -> list[Path]:
    paths = [SCENARIO_DIR / f"{name}.json" for name in DEMO_SCENARIOS]
    missing = [p.name for p in paths if not p.is_file()]
    assert not missing, f"missing scenario files: {missing}"
    return paths


@pytest.fixture
def cold_caches() -> None:
    """Clear every module-level functools cache of mapflight, as the benchmark
    worker does before each operation, so counts and digests start cold."""
    for name, module in list(sys.modules.items()):
        if name == "mapflight" or name.startswith("mapflight."):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One [PASS]/[FAIL] line per acceptance criterion, after the test run."""
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
