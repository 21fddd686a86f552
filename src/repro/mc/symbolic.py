"""Symbolic reachability engine (bounded path-wise symbolic execution).

This is the workhorse engine -- the stand-in for SAL's symbolic algorithms.
It explores the transition system's control locations depth-first while
keeping the data state *symbolic*: every variable's value is an expression
over the free initial variables (or a constant).  Guard transitions add path
constraints, whose satisfiability the finite-domain solver
(:mod:`repro.solver`) decides; a satisfiable path that fulfils the goal yields
the witness initial state (= test data) by solving the accumulated path
condition.

Cost model (what the Table 2 benchmark measures):

* **time** -- wall-clock time of the search, dominated by solver queries whose
  difficulty scales with the number of free variables and their domain sizes;
* **memory** -- a deterministic estimate: the peak depth of the search stack
  times the state-vector width, plus the stored symbolic expressions and the
  solver's own peak (see :meth:`CheckStatistics.memory_bytes`);
* **steps** -- the length (number of transitions) of the counterexample.

All six optimisations of the paper influence at least one of these quantities
in the same direction they influence SAL.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..minic.ast_nodes import BoolLiteral, Expr, IntLiteral
from ..solver.constraints import Constraint
from ..solver.domain import Domain
from ..solver.expression import expression_node_count, substitute
from ..solver.search import ConstraintSolver, SolverLimitReached
from ..transsys.system import TransitionSystem
from .property import ReachabilityGoal
from .result import CheckResult, CheckStatistics, Counterexample, Verdict


@dataclass
class SymbolicEngineOptions:
    """Budget knobs of the symbolic engine."""

    #: maximum number of transitions along one explored path
    max_depth: int = 2_000
    #: maximum number of explored path prefixes
    max_paths: int = 200_000
    #: overall time budget in seconds (None = unlimited)
    time_limit: float | None = 120.0
    #: per-query node budget of the constraint solver
    solver_max_nodes: int = 100_000
    #: total solver invocations allowed for this check (None = unlimited);
    #: the query engine maps a :class:`~repro.mc.query.QueryBudget`'s
    #: solver-call limit onto this knob
    max_solver_calls: int | None = None
    #: skip solver calls for guards while exploring and only solve at the goal
    #: (faster for huge models, may explore some infeasible prefixes)
    eager_guard_checks: bool = True


@dataclass
class _PathState:
    """One entry of the DFS stack."""

    location: int
    environment: dict[str, Expr | int]
    constraints: list[Constraint]
    trace: list[int] = field(default_factory=list)
    progress: int = 0
    visits: dict[int, int] = field(default_factory=dict)


class SymbolicEngine:
    """Bounded symbolic reachability over a transition system."""

    def __init__(
        self, system: TransitionSystem, options: SymbolicEngineOptions | None = None
    ):
        self._system = system
        self._options = options or SymbolicEngineOptions()
        self._free_domains: dict[str, Domain] = {
            variable.name: Domain.from_range(variable.domain)
            for variable in system.free_variables()
        }

    # ------------------------------------------------------------------ #
    def check(self, goal: ReachabilityGoal) -> CheckResult:
        started = time.perf_counter()
        deadline = (
            started + self._options.time_limit
            if self._options.time_limit is not None
            else None
        )
        stats = CheckStatistics(
            state_bits=self._system.total_state_bits(),
            transitions_in_model=len(self._system.transitions),
            sliced_state_bits=self._system.total_state_bits(),
            sliced_transitions=len(self._system.transitions),
        )
        solver_stats_peak = 0
        state_bytes = max(1, self._system.total_state_bits() // 8)

        initial_env: dict[str, Expr | int] = {}
        for name, variable in self._system.variables.items():
            if variable.is_free:
                initial_env[name] = _symbol(name)
            else:
                initial_env[name] = int(variable.initial or 0)

        outgoing = {loc: self._system.outgoing(loc) for loc in self._system.locations()}
        transition_index = {id(t): i for i, t in enumerate(self._system.transitions)}

        root = _PathState(
            location=self._system.initial_location,
            environment=initial_env,
            constraints=[],
        )
        if goal.is_trivially_reached_at(root.location):
            witness = self._solve_witness(root, stats)
            if witness is not None:
                stats.time_seconds = time.perf_counter() - started
                return witness

        stack: list[_PathState] = [root]
        exhausted_completely = True
        peak_stack = 1
        while stack:
            if deadline is not None and time.perf_counter() > deadline:
                exhausted_completely = False
                stats.stop_reason = "deadline"
                break
            if (
                self._options.max_solver_calls is not None
                and stats.solver.solve_calls >= self._options.max_solver_calls
            ):
                exhausted_completely = False
                stats.stop_reason = "solver_calls"
                break
            state = stack.pop()
            stats.explored_states += 1
            if stats.explored_states > self._options.max_paths:
                exhausted_completely = False
                stats.stop_reason = "paths"
                break
            peak_stack = max(peak_stack, len(stack) + 1)
            symbolic_bytes = sum(
                expression_node_count(value) * 24
                for value in state.environment.values()
                if not isinstance(value, int)
            )
            constraint_bytes = sum(
                expression_node_count(c.expr) * 24 for c in state.constraints
            )
            stats.memory_bytes = max(
                stats.memory_bytes,
                peak_stack * state_bytes + symbolic_bytes + constraint_bytes + solver_stats_peak,
            )

            if len(state.trace) >= self._options.max_depth:
                exhausted_completely = False
                if stats.stop_reason is None:
                    stats.stop_reason = "depth"
                continue

            for transition in reversed(outgoing.get(state.location, ())):
                guard_value = self._evaluate_guard(transition.guard, state.environment)
                if guard_value is False:
                    continue
                new_constraints = state.constraints
                if guard_value is None:
                    symbolic_guard = substitute(transition.guard, state.environment)
                    new_constraints = state.constraints + [Constraint(symbolic_guard)]
                    if self._options.eager_guard_checks:
                        feasible, solver_peak = self._satisfiable(new_constraints, stats)
                        solver_stats_peak = max(solver_stats_peak, solver_peak)
                        if not feasible:
                            continue
                new_env = dict(state.environment)
                if transition.updates:
                    snapshot = state.environment
                    for name, expr in transition.updates:
                        new_env[name] = self._apply_update(expr, snapshot)
                new_progress = goal.progress_after(transition, state.progress)
                new_trace = state.trace + [transition_index[id(transition)]]
                successor = _PathState(
                    location=transition.target,
                    environment=new_env,
                    constraints=new_constraints,
                    trace=new_trace,
                    progress=new_progress,
                    visits=dict(state.visits),
                )
                successor.visits[transition.target] = (
                    successor.visits.get(transition.target, 0) + 1
                )
                if successor.visits[transition.target] > 64:
                    # crude loop bound: stop unrolling after 64 visits of one
                    # location on a single path
                    exhausted_completely = False
                    if stats.stop_reason is None:
                        stats.stop_reason = "depth"
                    continue
                if goal.satisfied(transition.target, transition, new_progress):
                    witness = self._solve_witness(successor, stats)
                    if witness is not None:
                        stats.time_seconds = time.perf_counter() - started
                        stats.stored_states = peak_stack
                        return witness
                    # path condition unsatisfiable after all: prune
                    continue
                stack.append(successor)

        stats.time_seconds = time.perf_counter() - started
        stats.stored_states = peak_stack
        verdict = Verdict.UNREACHABLE if exhausted_completely else Verdict.UNKNOWN
        return CheckResult(verdict=verdict, statistics=stats, goal_description=goal.description)

    # ------------------------------------------------------------------ #
    def _apply_update(self, expr: Expr, environment: dict[str, Expr | int]) -> Expr | int:
        substituted = substitute(expr, environment)
        if isinstance(substituted, IntLiteral):
            return substituted.value
        if isinstance(substituted, BoolLiteral):
            return int(substituted.value)
        return substituted

    @staticmethod
    def _evaluate_guard(
        guard: Expr | None, environment: dict[str, Expr | int]
    ) -> bool | None:
        """Concrete guard value if determinable, else ``None`` (symbolic)."""
        if guard is None:
            return True
        folded = substitute(guard, environment)
        if isinstance(folded, IntLiteral):
            return folded.value != 0
        if isinstance(folded, BoolLiteral):
            return bool(folded.value)
        return None

    def _satisfiable(
        self, constraints: list[Constraint], stats: CheckStatistics
    ) -> tuple[bool, int]:
        solver = ConstraintSolver(
            dict(self._free_domains),
            constraints,
            max_nodes=self._options.solver_max_nodes,
        )
        try:
            satisfiable = solver.is_satisfiable()
        except SolverLimitReached:
            satisfiable = True  # assume feasible; the final witness solve decides
        stats.solver.merge(solver.statistics)
        return satisfiable, solver.statistics.peak_memory_bytes

    def _solve_witness(self, state: _PathState, stats: CheckStatistics) -> CheckResult | None:
        solver = ConstraintSolver(
            dict(self._free_domains),
            state.constraints,
            max_nodes=self._options.solver_max_nodes,
        )
        try:
            solution = solver.solve()
        except SolverLimitReached:
            solution = None
        stats.solver.merge(solver.statistics)
        if solution is None:
            return None
        initial_state = dict(solution.assignment)
        for name, variable in self._system.variables.items():
            if not variable.is_free:
                initial_state[name] = int(variable.initial or 0)
            initial_state.setdefault(name, variable.domain.lo)
        inputs = {
            name: initial_state[name]
            for name, variable in self._system.variables.items()
            if variable.is_input
        }
        trace = [self._system.transitions[i] for i in state.trace]
        counterexample = Counterexample(
            inputs=inputs, initial_state=initial_state, trace=trace
        )
        stats.steps = counterexample.steps
        stats.stop_reason = None  # the search succeeded; earlier pruning is moot
        return CheckResult(
            verdict=Verdict.REACHABLE, counterexample=counterexample, statistics=stats
        )


def _symbol(name: str) -> Expr:
    """A symbolic occurrence of an initial-state variable."""
    from ..minic.ast_nodes import Identifier

    return Identifier(name=name)
