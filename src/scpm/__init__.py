"""Convex pari-mutuel market maker with a pluggable concave-utility catalog."""

from .utilities import (
    KINDS,
    DomainError,
    LMSR,
    LogSCPM,
    MinSCPM,
    ExponentialSCPM,
    PenaltyUnsupportedError,
    PenaltyValue,
    QuadraticScore,
    QuadSCPM,
    Utility,
    make_utility,
    utility_from_dict,
)
from .cost import CostSolveResult, SolverError, charge, cost, prices, solve_t
from .market import (
    FillResult,
    MarketConfig,
    MarketState,
    Order,
    SettlementReport,
    StaleFillError,
    UnboundedFillError,
    converge,
    fill,
    new_market,
    quote,
    run_orders,
    settle,
)
from .market import apply as apply_fill
from .analysis import (
    LossBound,
    MSREquivalenceReport,
    PropernessReport,
    RiskEvaluation,
    ScoringRuleView,
    check_properness,
    identify_penalty_family,
    implicit_scoring_rule,
    msr_equivalence_check,
    risk_dual_check,
    risk_measure,
    table1,
    worst_case_loss,
)

__version__ = "0.1.0"
