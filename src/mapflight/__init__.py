"""Continuous-time multi-agent path finding on 3D grids with quadcopter
execution simulation.

Planning side: safe-interval path planning for single agents plus a
conflict-based search over analytic cylinder-overlap conflicts, producing
collision-free timed waypoint plans for cylindrical agents moving at constant
speed on a grid.

Execution side: three command methods (high-level gotos, streamed position
setpoints, velocity steering) replay those plans on simulated first-order
vehicles under Gaussian localization noise, with deterministic pose logs and
tracking-error reports.
"""

__version__ = "0.1.0"

from .ccbs import SolveLimits, SolveResult, Solution, ccbs_solve
from .flightsim import ErrorReport, PoseLog, SimConfig, error_metrics, run_execution, run_executions, run_fleet
from .geometry3d import CylinderBody, LinearMotion, cylinder_unsafe_interval
from .plan import TimedPlan, ValidationReport, load_plans, save_plans, validate
from .sipp import Constraint, sipp_plan
from .world import AgentSpec, GridWorld, load_instance, move_duration, neighbors, save_instance

__all__ = [
    "__version__",
    "AgentSpec",
    "Constraint",
    "CylinderBody",
    "ErrorReport",
    "GridWorld",
    "LinearMotion",
    "PoseLog",
    "SimConfig",
    "SolveLimits",
    "SolveResult",
    "Solution",
    "TimedPlan",
    "ValidationReport",
    "ccbs_solve",
    "cylinder_unsafe_interval",
    "error_metrics",
    "load_instance",
    "load_plans",
    "move_duration",
    "neighbors",
    "run_execution",
    "run_executions",
    "run_fleet",
    "save_instance",
    "save_plans",
    "sipp_plan",
    "validate",
]
