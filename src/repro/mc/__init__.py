"""Model checking: reachability engines, goals, results (the SAL stand-in).

Since the query-engine refactor every reachability question goes through
:mod:`repro.mc.query`: a budgeted, relevance-sliced portfolio of
the explicit and symbolic engines.  :class:`ModelChecker` is the facade the
tool chain talks to.
"""

from __future__ import annotations

from .checker import ModelChecker, ModelCheckerOptions
from .explicit import ExplicitEngineOptions, ExplicitStateEngine, StateSpaceTooLarge
from .property import GoalBuilder, ReachabilityGoal
from .query import (
    EngineKind,
    QueryBudget,
    QueryEngine,
    QueryEngineOptions,
    QueryEngineStats,
)
from .result import (
    BudgetExhausted,
    CheckResult,
    CheckStatistics,
    Counterexample,
    Verdict,
)
from .slicing import GoalSlice, slice_for_goal, system_fingerprint
from .store import QueryStore, active_query_store, goal_fingerprint, using_query_store
from .symbolic import SymbolicEngine, SymbolicEngineOptions

__all__ = [
    "EngineKind",
    "ModelChecker",
    "ModelCheckerOptions",
    "ExplicitEngineOptions",
    "ExplicitStateEngine",
    "StateSpaceTooLarge",
    "GoalBuilder",
    "ReachabilityGoal",
    "BudgetExhausted",
    "CheckResult",
    "CheckStatistics",
    "Counterexample",
    "Verdict",
    "GoalSlice",
    "slice_for_goal",
    "system_fingerprint",
    "QueryStore",
    "active_query_store",
    "goal_fingerprint",
    "using_query_store",
    "QueryBudget",
    "QueryEngine",
    "QueryEngineOptions",
    "QueryEngineStats",
    "SymbolicEngine",
    "SymbolicEngineOptions",
]
