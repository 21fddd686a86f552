"""Cycle-accurate mini-C interpreter -- the simulated evaluation board CPU.

The interpreter executes a function over its CFG, charging cycles from a
:class:`~repro.hw.cost_model.CostModel` for every operation, exactly like the
HCS12 on the paper's evaluation board accumulates cycles in its counter
register.  Besides the final cycle count it records everything the
surrounding tooling needs:

* a *block trace* -- ``(block id, cycle count at block entry)`` events, which
  the measurement subsystem converts into per-segment execution times using
  the instrumentation plan;
* the *edge trace* -- which CFG edges were taken, used for path-coverage
  accounting by the test-data generators; and
* *branch events* with objective branch distances (Tracey-style), which the
  genetic algorithm uses as its fitness signal.

Defined functions can call each other (arguments by value, globals shared);
external functions only consume cycles.  Execution is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from ..cfg.builder import build_all_cfgs
from ..cfg.graph import ControlFlowGraph, Edge, EdgeKind, TerminatorKind
from ..minic.ast_nodes import (
    AssignExpr,
    BinaryOp,
    BoolLiteral,
    CallExpr,
    CastExpr,
    Conditional,
    DeclStmt,
    Expr,
    ExprStmt,
    Identifier,
    IntLiteral,
    ReturnStmt,
    Stmt,
    UnaryOp,
    RELATIONAL_OPERATORS,
)
from ..minic.folding import apply_binary, apply_unary
from ..minic.semantic import AnalyzedProgram
from ..minic.types import BOOL, CType, INT16
from ..resilience import faults as _resilience
from .cost_model import CostModel, HCS12_COST_MODEL


def _poll_resilience() -> None:
    """Deadline poll + ``interp.step`` fault site (no-op on clean paths)."""
    if _resilience.current() is None:
        return
    _resilience.poll_deadline()
    _resilience.maybe_fault("interp.step")


class ExecutionError(Exception):
    """Raised for runtime errors (division by zero, step-limit exceeded, ...)."""


@dataclass
class BlockEvent:
    """One block-entry event of the executed trace."""

    block_id: int
    cycles: int


@dataclass
class BranchEvent:
    """Outcome and branch distances of one executed two-way branch.

    ``distance_true``/``distance_false`` are objective distances ("how far was
    the condition from evaluating to true/false"); the outcome that occurred
    has distance 0.  Distances follow Tracey et al. (the paper's reference
    [11]): ``|a-b|`` style measures combined with min over ``||`` and sum over
    ``&&``.
    """

    block_id: int
    outcome: bool
    distance_true: float
    distance_false: float


@dataclass
class SwitchEvent:
    """Outcome of one executed switch dispatch."""

    block_id: int
    value: int
    taken_edge: Edge


@dataclass
class RunResult:
    """Everything observed during one run of the top-level function."""

    function_name: str
    inputs: dict[str, int]
    total_cycles: int
    return_value: int | None
    block_trace: list[BlockEvent] = field(default_factory=list)
    edge_trace: list[Edge] = field(default_factory=list)
    branch_events: list[BranchEvent] = field(default_factory=list)
    switch_events: list[SwitchEvent] = field(default_factory=list)
    final_environment: dict[str, int] = field(default_factory=dict)

    @property
    def executed_blocks(self) -> list[int]:
        return [event.block_id for event in self.block_trace]

    @property
    def executed_edge_keys(self) -> list[tuple[int, int, str]]:
        return [(edge.source, edge.target, edge.kind.value) for edge in self.edge_trace]


class Interpreter:
    """Executes functions of one analysed program with cycle accounting."""

    def __init__(
        self,
        analyzed: AnalyzedProgram,
        cost_model: CostModel = HCS12_COST_MODEL,
        cfgs: dict[str, ControlFlowGraph] | None = None,
        max_steps: int = 1_000_000,
        stub_functions: "Iterable[str]" = (),
    ):
        self._analyzed = analyzed
        self._program = analyzed.program
        self._cost = cost_model
        self._cfgs = cfgs if cfgs is not None else build_all_cfgs(analyzed.program)
        self._max_steps = max_steps
        self._defined = {func.name for func in analyzed.program.functions}
        #: defined functions treated as opaque external calls: their body is
        #: not executed and each call is charged the cost model's external
        #: cost for the name instead.  The interprocedural analysis uses this
        #: to replace already-summarised callees with their WCET bound.
        self._stubbed = set(stub_functions)

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def cfg(self, function_name: str) -> ControlFlowGraph:
        try:
            return self._cfgs[function_name]
        except KeyError as exc:
            raise ExecutionError(f"no CFG for function {function_name!r}") from exc

    def run(
        self,
        function_name: str,
        inputs: dict[str, int] | None = None,
    ) -> RunResult:
        """Execute *function_name* with the given input-variable values.

        ``inputs`` assigns values to the analysis input variables (and may
        override any global); unspecified globals start at their initialiser
        or zero.  Parameters of the top-level function may also be supplied
        through ``inputs`` by name.
        """
        inputs = dict(inputs or {})
        environment = self._initial_environment(inputs)
        state = _RunState(cost=self._cost, max_steps=self._max_steps)
        function = self._program.function(function_name)
        table = self._analyzed.table(function_name)

        # top-level parameters come from the inputs mapping (default 0)
        for param in function.params:
            value = inputs.get(param.name, 0)
            environment[param.name] = param.param_type.wrap(value)

        return_value = self._execute_function(
            function_name, environment, state, record=True
        )
        del table
        return RunResult(
            function_name=function_name,
            inputs=inputs,
            total_cycles=state.cycles,
            return_value=return_value,
            block_trace=state.block_trace,
            edge_trace=state.edge_trace,
            branch_events=state.branch_events,
            switch_events=state.switch_events,
            final_environment=dict(environment),
        )

    # ------------------------------------------------------------------ #
    # execution machinery
    # ------------------------------------------------------------------ #
    def _initial_environment(self, inputs: dict[str, int]) -> dict[str, int]:
        environment: dict[str, int] = {}
        for decl in self._program.globals:
            value = 0
            if decl.init is not None:
                value = self._evaluate_static(decl.init)
            environment[decl.name] = decl.var_type.wrap(value)
        for name, value in inputs.items():
            if name in environment:
                decl = self._program.global_decl(name)
                environment[name] = decl.var_type.wrap(value)
            else:
                environment[name] = value
        return environment

    def _evaluate_static(self, expr: Expr) -> int:
        """Evaluate a global initialiser (no variables allowed)."""
        if isinstance(expr, IntLiteral):
            return expr.value
        if isinstance(expr, BoolLiteral):
            return int(expr.value)
        if isinstance(expr, UnaryOp):
            return apply_unary(expr.op, self._evaluate_static(expr.operand))
        if isinstance(expr, BinaryOp):
            return apply_binary(
                expr.op,
                self._evaluate_static(expr.left),
                self._evaluate_static(expr.right),
            )
        raise ExecutionError("global initialisers must be constant expressions")

    def _execute_function(
        self,
        function_name: str,
        environment: dict[str, int],
        state: "_RunState",
        record: bool,
    ) -> int | None:
        cfg = self.cfg(function_name)
        block = cfg.entry
        return_value: int | None = None
        while True:
            state.step()
            if record:
                state.block_trace.append(BlockEvent(block.block_id, state.cycles))
            for stmt in block.statements:
                result = self._execute_statement(stmt, environment, state)
                if isinstance(stmt, ReturnStmt):
                    return_value = result

            terminator = block.terminator
            if terminator.kind is TerminatorKind.RETURN:
                state.cycles += self._cost.return_cost
                edge = self._single_edge(cfg, block)
                if record:
                    state.edge_trace.append(edge)
                return return_value
            if block is cfg.exit:
                return return_value
            if terminator.kind is TerminatorKind.JUMP or terminator.kind is TerminatorKind.NONE:
                edge = self._single_edge(cfg, block)
            elif terminator.kind is TerminatorKind.BRANCH:
                edge = self._execute_branch(cfg, block, environment, state, record)
            elif terminator.kind is TerminatorKind.SWITCH:
                edge = self._execute_switch(cfg, block, environment, state, record)
            else:  # pragma: no cover - defensive
                raise ExecutionError(f"unknown terminator {terminator.kind}")
            if record:
                state.edge_trace.append(edge)
            next_block = cfg.block(edge.target)
            if next_block is cfg.exit:
                if record:
                    state.block_trace.append(BlockEvent(next_block.block_id, state.cycles))
                return return_value
            block = next_block

    def _single_edge(self, cfg: ControlFlowGraph, block) -> Edge:
        edges = cfg.out_edges(block)
        if len(edges) != 1:
            raise ExecutionError(
                f"block {block.block_id} of {cfg.function_name} has {len(edges)} successors"
            )
        return edges[0]

    def _execute_branch(
        self, cfg: ControlFlowGraph, block, environment, state: "_RunState", record: bool
    ) -> Edge:
        condition = block.terminator.condition
        assert condition is not None
        value = self._evaluate(condition, environment, state)
        outcome = value != 0
        state.cycles += self._cost.branch_taken if outcome else self._cost.branch_not_taken
        if record:
            distance_true, distance_false = self._branch_distances(condition, environment)
            state.branch_events.append(
                BranchEvent(
                    block_id=block.block_id,
                    outcome=outcome,
                    distance_true=distance_true,
                    distance_false=distance_false,
                )
            )
        wanted = EdgeKind.TRUE if outcome else EdgeKind.FALSE
        for edge in cfg.out_edges(block):
            if edge.kind is wanted or (edge.kind is EdgeKind.BACK and outcome):
                return edge
        # loop back-edges may carry the TRUE direction for do-while loops
        for edge in cfg.out_edges(block):
            if outcome and edge.kind is EdgeKind.BACK:
                return edge
        raise ExecutionError(
            f"branch block {block.block_id} has no {wanted.value} successor"
        )

    def _execute_switch(
        self, cfg: ControlFlowGraph, block, environment, state: "_RunState", record: bool
    ) -> Edge:
        condition = block.terminator.condition
        assert condition is not None
        value = self._evaluate(condition, environment, state)
        edges = cfg.out_edges(block)
        default_edge: Edge | None = None
        chosen: Edge | None = None
        comparisons = 0
        for edge in edges:
            if edge.kind is EdgeKind.CASE:
                comparisons += 1
                if value in edge.case_values:
                    chosen = edge
                    break
            elif edge.kind is EdgeKind.DEFAULT:
                default_edge = edge
        state.cycles += self._cost.switch_dispatch_per_case * max(1, comparisons)
        if chosen is None:
            chosen = default_edge
        if chosen is None:
            raise ExecutionError(
                f"switch block {block.block_id}: no case matches value {value} and no default"
            )
        if record:
            state.switch_events.append(
                SwitchEvent(block_id=block.block_id, value=value, taken_edge=chosen)
            )
        return chosen

    # ------------------------------------------------------------------ #
    # statements and expressions
    # ------------------------------------------------------------------ #
    def _execute_statement(
        self, stmt: Stmt, environment: dict[str, int], state: "_RunState"
    ) -> int | None:
        state.step()
        if isinstance(stmt, DeclStmt):
            state.cycles += self._cost.declaration_cost
            value = 0
            if stmt.init is not None:
                value = self._evaluate(stmt.init, environment, state)
                state.cycles += self._cost.store_cost(stmt.var_type)
            environment[stmt.name] = stmt.var_type.wrap(value)
            return None
        if isinstance(stmt, ExprStmt):
            self._evaluate(stmt.expr, environment, state)
            return None
        if isinstance(stmt, ReturnStmt):
            if stmt.value is not None:
                return self._evaluate(stmt.value, environment, state)
            return None
        raise ExecutionError(f"cannot execute statement {type(stmt).__name__}")

    def _evaluate(self, expr: Expr, environment: dict[str, int], state: "_RunState") -> int:
        state.step()
        if isinstance(expr, IntLiteral):
            state.cycles += self._cost.load_literal
            return expr.value
        if isinstance(expr, BoolLiteral):
            state.cycles += self._cost.load_literal
            return int(expr.value)
        if isinstance(expr, Identifier):
            state.cycles += self._cost.load_cost(expr.ctype)
            if expr.name not in environment:
                raise ExecutionError(f"read of unbound variable {expr.name!r}")
            return environment[expr.name]
        if isinstance(expr, UnaryOp):
            operand = self._evaluate(expr.operand, environment, state)
            width = expr.ctype.bits if expr.ctype else 16
            state.cycles += self._cost.unary_cost(expr.op, width)
            return self._wrap(expr.ctype, apply_unary(expr.op, operand))
        if isinstance(expr, BinaryOp):
            return self._evaluate_binary(expr, environment, state)
        if isinstance(expr, Conditional):
            condition = self._evaluate(expr.cond, environment, state)
            state.cycles += self._cost.branch_taken
            if condition != 0:
                return self._evaluate(expr.then, environment, state)
            return self._evaluate(expr.otherwise, environment, state)
        if isinstance(expr, AssignExpr):
            value = self._evaluate(expr.value, environment, state)
            target_type = expr.target.ctype or expr.ctype
            state.cycles += self._cost.store_cost(target_type)
            wrapped = self._wrap(target_type, value)
            environment[expr.target.name] = wrapped
            return wrapped
        if isinstance(expr, CastExpr):
            value = self._evaluate(expr.operand, environment, state)
            state.cycles += self._cost.cast_op
            return expr.target_type.wrap(value)
        if isinstance(expr, CallExpr):
            return self._evaluate_call(expr, environment, state)
        raise ExecutionError(f"cannot evaluate expression {type(expr).__name__}")

    def _evaluate_binary(
        self, expr: BinaryOp, environment: dict[str, int], state: "_RunState"
    ) -> int:
        # short-circuit evaluation for && and ||
        if expr.op in ("&&", "||"):
            left = self._evaluate(expr.left, environment, state)
            state.cycles += self._cost.logic_op
            if expr.op == "&&" and left == 0:
                return 0
            if expr.op == "||" and left != 0:
                return 1
            right = self._evaluate(expr.right, environment, state)
            return int(right != 0)
        left = self._evaluate(expr.left, environment, state)
        right = self._evaluate(expr.right, environment, state)
        width = expr.ctype.bits if expr.ctype else 16
        state.cycles += self._cost.binary_cost(expr.op, width)
        try:
            raw = apply_binary(expr.op, left, right)
        except ZeroDivisionError as exc:
            raise ExecutionError(f"division by zero at line {expr.location.line}") from exc
        if expr.op in RELATIONAL_OPERATORS:
            return int(raw != 0)
        return self._wrap(expr.ctype, raw)

    def _evaluate_call(
        self, expr: CallExpr, environment: dict[str, int], state: "_RunState"
    ) -> int:
        state.cycles += self._cost.call_overhead
        argument_values = [self._evaluate(arg, environment, state) for arg in expr.args]
        if expr.name not in self._defined or expr.name in self._stubbed:
            state.cycles += self._cost.external_call_cost(expr.name)
            return 0
        callee = self._program.function(expr.name)
        # callee environment: globals are shared, parameters are local copies
        for param, value in zip(callee.params, argument_values):
            environment[param.name] = param.param_type.wrap(value)
        result = self._execute_function(expr.name, environment, state, record=False)
        return result if result is not None else 0

    # ------------------------------------------------------------------ #
    # branch distances (Tracey-style objective functions)
    # ------------------------------------------------------------------ #
    _FAILURE_CONSTANT = 1.0

    def _branch_distances(
        self, condition: Expr, environment: dict[str, int]
    ) -> tuple[float, float]:
        """Distances to making *condition* true and false respectively."""
        return (
            self._distance_true(condition, environment),
            self._distance_false(condition, environment),
        )

    def _value_of(self, expr: Expr, environment: dict[str, int]) -> int:
        """Side-effect-free re-evaluation for distance computation.

        Results wrap exactly as :meth:`_evaluate` wraps them, so a distance
        measures the value the board actually branched on.
        """
        if isinstance(expr, IntLiteral):
            return expr.value
        if isinstance(expr, BoolLiteral):
            return int(expr.value)
        if isinstance(expr, Identifier):
            return environment.get(expr.name, 0)
        if isinstance(expr, UnaryOp):
            operand = self._value_of(expr.operand, environment)
            return self._wrap(expr.ctype, apply_unary(expr.op, operand))
        if isinstance(expr, BinaryOp):
            try:
                raw = apply_binary(
                    expr.op,
                    self._value_of(expr.left, environment),
                    self._value_of(expr.right, environment),
                )
            except ZeroDivisionError:
                return 0
            if expr.op in RELATIONAL_OPERATORS:
                return raw
            return self._wrap(expr.ctype, raw)
        if isinstance(expr, Conditional):
            if self._value_of(expr.cond, environment) != 0:
                return self._value_of(expr.then, environment)
            return self._value_of(expr.otherwise, environment)
        if isinstance(expr, CastExpr):
            return expr.target_type.wrap(self._value_of(expr.operand, environment))
        if isinstance(expr, AssignExpr):
            return self._wrap(
                expr.target.ctype or expr.ctype,
                self._value_of(expr.value, environment),
            )
        if isinstance(expr, CallExpr):
            return 0
        return 0

    def _distance_true(self, condition: Expr, env: dict[str, int]) -> float:
        K = self._FAILURE_CONSTANT
        if isinstance(condition, BinaryOp):
            op = condition.op
            if op == "&&":
                return self._distance_true(condition.left, env) + self._distance_true(
                    condition.right, env
                )
            if op == "||":
                return min(
                    self._distance_true(condition.left, env),
                    self._distance_true(condition.right, env),
                )
            if op in ("==", "!=", "<", "<=", ">", ">="):
                a = self._value_of(condition.left, env)
                b = self._value_of(condition.right, env)
                if op == "==":
                    return float(abs(a - b))
                if op == "!=":
                    return 0.0 if a != b else K
                if op == "<":
                    return 0.0 if a < b else float(a - b) + K
                if op == "<=":
                    return 0.0 if a <= b else float(a - b)
                if op == ">":
                    return 0.0 if a > b else float(b - a) + K
                if op == ">=":
                    return 0.0 if a >= b else float(b - a)
        if isinstance(condition, UnaryOp) and condition.op == "!":
            return self._distance_false(condition.operand, env)
        value = self._value_of(condition, env)
        return 0.0 if value != 0 else K

    def _distance_false(self, condition: Expr, env: dict[str, int]) -> float:
        K = self._FAILURE_CONSTANT
        if isinstance(condition, BinaryOp):
            op = condition.op
            if op == "&&":
                return min(
                    self._distance_false(condition.left, env),
                    self._distance_false(condition.right, env),
                )
            if op == "||":
                return self._distance_false(condition.left, env) + self._distance_false(
                    condition.right, env
                )
            if op in ("==", "!=", "<", "<=", ">", ">="):
                a = self._value_of(condition.left, env)
                b = self._value_of(condition.right, env)
                if op == "==":
                    return 0.0 if a != b else K
                if op == "!=":
                    return float(abs(a - b))
                if op == "<":
                    return 0.0 if a >= b else float(b - a)
                if op == "<=":
                    return 0.0 if a > b else float(b - a) + K
                if op == ">":
                    return 0.0 if a <= b else float(a - b)
                if op == ">=":
                    return 0.0 if a < b else float(a - b) + K
        if isinstance(condition, UnaryOp) and condition.op == "!":
            return self._distance_true(condition.operand, env)
        value = self._value_of(condition, env)
        return 0.0 if value == 0 else K

    @staticmethod
    def _wrap(ctype: CType | None, value: int) -> int:
        if ctype is None or ctype.is_void:
            return INT16.wrap(value)
        if ctype.is_bool:
            return BOOL.wrap(value)
        return ctype.wrap(value)


@dataclass
class _RunState:
    """Mutable execution state shared across nested function calls."""

    cost: CostModel
    max_steps: int
    cycles: int = 0
    steps: int = 0
    block_trace: list[BlockEvent] = field(default_factory=list)
    edge_trace: list[Edge] = field(default_factory=list)
    branch_events: list[BranchEvent] = field(default_factory=list)
    switch_events: list[SwitchEvent] = field(default_factory=list)

    def step(self) -> None:
        self.steps += 1
        if self.steps > self.max_steps:
            raise ExecutionError(
                f"execution exceeded {self.max_steps} steps (possible unbounded loop)"
            )
        if not self.steps & 1023:
            # every 1024 steps: cooperative per-job deadline + fault site.
            # Outside chaos runs the ambient context is None and this costs
            # one mask, one call and one global read per 1024 steps.
            _poll_resilience()
