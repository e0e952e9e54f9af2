"""Multi-cell content scheduling: solvers, baselines, and benchmark tools."""

from .baselines import export_ilp, run_pba, solve_exact
from .columns import Column, ColumnPool, enumerate_columns
from .driver import SolveReport, naive_round, run_cga, run_lower_bound, run_rcga
from .costs import (
    AssignmentPlan,
    CostBreakdown,
    Schedule,
    check_feasibility,
    derive_aoi,
    derive_assignment,
    evaluate,
)
from .generator import GeneratorConfig, generate_instance
from .instance import (
    AoiCost,
    ContentSpec,
    CostParams,
    Instance,
    Request,
    RequestIndex,
    ServerSpec,
    Topology,
    build_request_index,
    load_instance,
    save_instance,
    validate_instance,
)

__all__ = [
    "AoiCost",
    "AssignmentPlan",
    "Column",
    "ColumnPool",
    "ContentSpec",
    "CostBreakdown",
    "CostParams",
    "GeneratorConfig",
    "Instance",
    "Request",
    "RequestIndex",
    "Schedule",
    "ServerSpec",
    "SolveReport",
    "Topology",
    "build_request_index",
    "check_feasibility",
    "derive_aoi",
    "derive_assignment",
    "enumerate_columns",
    "evaluate",
    "export_ilp",
    "generate_instance",
    "load_instance",
    "naive_round",
    "run_cga",
    "run_lower_bound",
    "run_pba",
    "run_rcga",
    "save_instance",
    "solve_exact",
    "validate_instance",
]
