"""Branch-and-reduce vertex cover solver with LP-surplus branching rules
and an audit engine for the accompanying measure analysis."""

from .graph import Graph, PatternMatch, PreconditionError
from .lp import (
    HalfIntegralSolution,
    Instance,
    SurplusCert,
    find_blocker,
    lp_basic_solution,
    minsurp,
    shadow,
)
from .reduce import (
    ReductionStep,
    ReductionTrace,
    lift_cover,
    simplify,
)
from .branching import (
    BranchDecision,
    MeasureParams,
    SIMPLE_LEVEL_PARAMS,
    rule_b,
    select_branch,
    split_indset,
    split_vertex,
    val,
)
from .solver import (
    BudgetExhausted,
    SolveResult,
    SolveStats,
    SolverConfig,
    base_agvc,
    base_maxis,
    solve_decision,
    solve_optimum,
)
from .verify import (
    AuditRecord,
    audit_trace,
    brute_force_vc,
    make_audit_record,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
