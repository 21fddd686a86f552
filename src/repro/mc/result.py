"""Model-checking results and cost statistics.

The statistics mirror the three columns of the paper's Table 2 -- simulation
time, memory use and steps -- plus the lower-level counters (explored states /
solver nodes) that explain them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..solver.search import SolverStatistics
from ..transsys.system import Transition


class Verdict(enum.Enum):
    """Outcome of a reachability check."""

    #: the goal is reachable; a counterexample (test vector) was produced
    REACHABLE = "reachable"
    #: the goal is unreachable -- the search space was exhausted
    UNREACHABLE = "unreachable"
    #: the engine gave up (depth/node/time budget) without an answer
    UNKNOWN = "unknown"
    #: the *query budget* ran out before any engine could answer; the WCET
    #: layer treats this as "unreached, pessimise" (the segment keeps its
    #: pessimistic charge) instead of hanging on an unbounded search
    BUDGET_EXHAUSTED = "budget-exhausted"
    #: every engine stage died on an (injected) solver fault; like budget
    #: exhaustion the WCET layer degrades to "unreached, pessimise" -- a
    #: crashing solver must never crash the analysis or shrink a bound
    ENGINE_FAULT = "engine-fault"


@dataclass(frozen=True)
class BudgetExhausted:
    """Which limit of a :class:`~repro.mc.query.QueryBudget` tripped.

    Attached to a :class:`CheckResult` whose verdict is
    :attr:`Verdict.BUDGET_EXHAUSTED` so diagnostics can say *why* the query
    gave up (deadline hit mid-search, step cap, solver-call cap).
    """

    limit: str  # "steps" | "solver_calls" | "deadline"
    spent_steps: int = 0
    spent_solver_calls: int = 0
    spent_seconds: float = 0.0

    def describe(self) -> str:
        return (
            f"budget exhausted ({self.limit}): {self.spent_steps} steps, "
            f"{self.spent_solver_calls} solver calls, "
            f"{self.spent_seconds:.3f}s"
        )


@dataclass
class Counterexample:
    """A concrete run witnessing reachability.

    ``inputs`` restricts the witness initial state to the declared analysis
    input variables -- exactly the test data the measurement subsystem needs;
    ``initial_state`` is the full witness initial state (including values the
    checker picked for uninitialised non-input variables); ``steps`` is the
    number of transitions, the paper's "steps" column.
    """

    inputs: dict[str, int]
    initial_state: dict[str, int]
    trace: list[Transition] = field(default_factory=list)

    @property
    def steps(self) -> int:
        return len(self.trace)

    def labels(self) -> list[str]:
        collected: list[str] = []
        for transition in self.trace:
            collected.extend(transition.labels)
        return collected


@dataclass
class CheckStatistics:
    """Cost of one model-checking run (Table 2 columns + detail counters)."""

    time_seconds: float = 0.0
    memory_bytes: int = 0
    steps: int = 0
    explored_states: int = 0
    stored_states: int = 0
    solver: SolverStatistics = field(default_factory=SolverStatistics)
    state_bits: int = 0
    transitions_in_model: int = 0
    #: bits / transitions of the (possibly sliced) model the search actually
    #: ran on; equal to ``state_bits`` / ``transitions_in_model`` without
    #: slicing.  ``state_bits`` always describes the caller's full model so
    #: the Table 2 metrics stay comparable across configurations.
    sliced_state_bits: int = 0
    sliced_transitions: int = 0
    #: why an inexhaustive search stopped ("deadline", "paths", "steps",
    #: "solver_calls", "depth", "states"); None for complete searches
    stop_reason: str | None = None
    #: engine stages the query went through ("explicit", "symbolic:sliced",
    #: "symbolic:full"); filled by the query engine
    engines_tried: tuple[str, ...] = ()

    @property
    def memory_kib(self) -> float:
        return self.memory_bytes / 1024.0


@dataclass
class CheckResult:
    """Verdict + witness + statistics of one reachability check."""

    verdict: Verdict
    counterexample: Counterexample | None = None
    statistics: CheckStatistics = field(default_factory=CheckStatistics)
    goal_description: str = ""
    #: which query-budget limit tripped (verdict BUDGET_EXHAUSTED only)
    exhaustion: BudgetExhausted | None = None

    @property
    def reachable(self) -> bool:
        return self.verdict is Verdict.REACHABLE

    @property
    def proven_unreachable(self) -> bool:
        return self.verdict is Verdict.UNREACHABLE

    @property
    def budget_exhausted(self) -> bool:
        return self.verdict is Verdict.BUDGET_EXHAUSTED
