"""Interval (value-range) analysis.

The paper's "Variable Range Analysis" optimisation (Section 3.2.4) shrinks the
number of bits used to represent a variable in the model: a C ``int`` that
only ever holds 0/1 needs one bit, a state variable ranging over nine chart
states needs four.  The analysis here is a straightforward forward interval
analysis over the CFG with widening at loop heads:

* declared input ranges (``#pragma range x lo hi``) and type ranges seed the
  environment,
* assignments propagate intervals through expressions with interval
  arithmetic,
* joins take the interval hull, and widening jumps to the type range after a
  bounded number of updates to keep termination trivial.

The product of the analysis is :class:`RangeAnalysisResult`, whose
``global_ranges`` map (the hull over all program points) is what the
transition-system translator uses to size state variables.

Like liveness and reaching definitions, the fixpoint runs on the CFG's
cached adjacency (:meth:`~repro.cfg.graph.ControlFlowGraph.successor_map`)
with the worklist seeded in cached reverse postorder and O(1) membership --
the dict-environment *facts* are unchanged, only the iteration strategy is
the engineered one.  The seed-era loop (entry-seeded FIFO over
``out_edges``) is preserved as
:func:`repro.analysis.reference.analyze_ranges_reference` and cross-checked
in the tests.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .. import obs
from ..cfg.graph import ControlFlowGraph
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
    Stmt,
    UnaryOp,
    RELATIONAL_OPERATORS,
)
from ..minic.folding import apply_binary
from ..minic.symbols import FunctionSymbolTable
from ..minic.types import IntRange

#: number of interval updates of one variable in one block before widening
_WIDENING_THRESHOLD = 3


def variable_defaults(table: FunctionSymbolTable) -> dict[str, IntRange]:
    """Default interval of every variable: declared (pragma) range or type range.

    Shared between the range analyzer here and the sound feasibility analysis
    in :mod:`repro.sa` so both start from the same environment.
    """
    defaults: dict[str, IntRange] = {}
    for name, symbol in table.variables.items():
        declared = symbol.declared_range
        defaults[name] = declared if declared is not None else symbol.ctype.value_range()
    return defaults


@dataclass
class RangeEnvironment:
    """A mapping from variable names to intervals (missing = type range)."""

    ranges: dict[str, IntRange] = field(default_factory=dict)

    def copy(self) -> "RangeEnvironment":
        return RangeEnvironment(ranges=dict(self.ranges))

    def get(self, name: str, default: IntRange) -> IntRange:
        return self.ranges.get(name, default)

    def join(self, other: "RangeEnvironment", keys: set[str],
             defaults: dict[str, IntRange]) -> "RangeEnvironment":
        joined: dict[str, IntRange] = {}
        for key in keys:
            mine = self.ranges.get(key, defaults[key])
            theirs = other.ranges.get(key, defaults[key])
            joined[key] = mine.union(theirs)
        return RangeEnvironment(ranges=joined)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RangeEnvironment):
            return NotImplemented
        return self.ranges == other.ranges


@dataclass
class RangeAnalysisResult:
    """Result of the interval analysis for one function."""

    #: hull of every variable's interval over all program points
    global_ranges: dict[str, IntRange]
    #: interval environment at the entry of every block
    block_entry: dict[int, RangeEnvironment]

    def bits_for(self, name: str, default_bits: int = 16) -> int:
        rng = self.global_ranges.get(name)
        if rng is None:
            return default_bits
        return rng.bits()

    def total_state_bits(self, names: list[str] | None = None) -> int:
        names = names if names is not None else sorted(self.global_ranges)
        return sum(self.bits_for(name) for name in names)


class RangeAnalyzer:
    """Forward interval analysis over a function CFG."""

    def __init__(self, cfg: ControlFlowGraph, table: FunctionSymbolTable):
        self._cfg = cfg
        self._table = table
        self._defaults: dict[str, IntRange] = variable_defaults(table)
        #: hull of the values every variable is ever *assigned* (flow-sensitive)
        self._assigned_hull: dict[str, IntRange] = {}

    # ------------------------------------------------------------------ #
    def run(self) -> RangeAnalysisResult:
        with obs.stage("ranges.solve"):
            names = set(self._defaults)
            entry_env: dict[int, RangeEnvironment] = {}
            # initial environment: inputs get their declared range, other
            # variables start at their initialiser (handled per statement) or the
            # full type range
            initial = RangeEnvironment(ranges=dict(self._defaults))
            entry_env[self._cfg.entry.block_id] = initial

            # cached adjacency + reverse postorder: seeding the worklist in RPO
            # means (back edges aside) a block's predecessors are transferred
            # before the block itself, so the first sweep already propagates the
            # entry environment through the whole graph; blocks seeded before
            # their environment arrives simply skip and are re-queued by their
            # predecessors
            successors = self._cfg.successor_map()
            seed_order = self._cfg.reverse_postorder()

            update_counts: dict[tuple[int, str], int] = {}
            worklist = deque(seed_order)
            pending = set(seed_order)
            out_env: dict[int, RangeEnvironment] = {}
            iterations = 0
            while worklist:
                iterations += 1
                if iterations > 50 * max(1, len(self._cfg)):
                    break  # widening guarantees this is unreachable, but be safe
                block_id = worklist.popleft()
                pending.discard(block_id)
                env_in = entry_env.get(block_id)
                if env_in is None:
                    continue
                env_out = self._transfer(block_id, env_in.copy())
                if block_id in out_env and out_env[block_id] == env_out:
                    continue
                out_env[block_id] = env_out
                for successor in successors.get(block_id, ()):
                    if successor in entry_env:
                        joined = entry_env[successor].join(env_out, names, self._defaults)
                        joined = self._widen(successor, entry_env[successor], joined, update_counts)
                        if joined == entry_env[successor]:
                            continue
                        entry_env[successor] = joined
                    else:
                        entry_env[successor] = env_out.copy()
                    if successor not in pending:
                        pending.add(successor)
                        worklist.append(successor)

            global_ranges = self._global_ranges(names)
        obs.count("ranges.solve_calls")
        obs.count("ranges.iterations", iterations)
        return RangeAnalysisResult(global_ranges=global_ranges, block_entry=entry_env)

    def _global_ranges(self, names: set[str]) -> dict[str, IntRange]:
        """Per-variable hull used to size the model's state variables.

        * analysis inputs keep their declared (pragma) range or type range;
        * variables that may be read before being written (live at function
          entry) keep the full type range -- their uninitialised value is part
          of the state space;
        * every other variable gets the hull of the values it is assigned
          (plus its static initialiser), which is exactly the information the
          paper's variable range analysis feeds back into the model.
        """
        from .liveness import block_liveness

        liveness = block_liveness(self._cfg)
        entry_successors = self._cfg.successors(self._cfg.entry)
        live_at_entry: frozenset[str] = frozenset()
        if entry_successors:
            live_at_entry = liveness.live_in.get(
                entry_successors[0].block_id, frozenset()
            )

        global_ranges: dict[str, IntRange] = {}
        for name in names:
            symbol = self._table.variables.get(name)
            is_input = bool(symbol is not None and symbol.is_input)
            if is_input:
                global_ranges[name] = self._defaults[name]
                continue
            if name in live_at_entry:
                # may be read before written: its junk initial value is state
                global_ranges[name] = self._defaults[name]
                continue
            hull = self._assigned_hull.get(name)
            initial = self._static_initial(name)
            if initial is not None:
                hull = initial if hull is None else hull.union(initial)
            if hull is None:
                # never assigned and never read before written: one value is
                # enough to represent it
                hull = IntRange(0, 0)
            clamped = hull.intersect(self._defaults[name])
            global_ranges[name] = clamped if clamped is not None else self._defaults[name]
        return global_ranges

    def _static_initial(self, name: str) -> IntRange | None:
        symbol = self._table.variables.get(name)
        if symbol is None or symbol.decl is None:
            return None
        init = getattr(symbol.decl, "init", None)
        if init is None:
            return IntRange(0, 0) if getattr(symbol, "kind", None) is not None else None
        from ..minic.ast_nodes import BoolLiteral, IntLiteral
        from ..minic.folding import fold_expr

        folded = fold_expr(init)
        if isinstance(folded, IntLiteral):
            return IntRange(folded.value, folded.value)
        if isinstance(folded, BoolLiteral):
            value = int(folded.value)
            return IntRange(value, value)
        return None

    # ------------------------------------------------------------------ #
    def _widen(
        self,
        block_id: int,
        old: RangeEnvironment,
        new: RangeEnvironment,
        counts: dict[tuple[int, str], int],
    ) -> RangeEnvironment:
        widened = dict(new.ranges)
        for name, new_range in new.ranges.items():
            old_range = old.ranges.get(name, self._defaults[name])
            if new_range != old_range:
                key = (block_id, name)
                counts[key] = counts.get(key, 0) + 1
                if counts[key] > _WIDENING_THRESHOLD:
                    widened[name] = self._defaults[name]
        return RangeEnvironment(ranges=widened)

    def _transfer(self, block_id: int, env: RangeEnvironment) -> RangeEnvironment:
        block = self._cfg.block(block_id)
        for stmt in block.statements:
            self._transfer_stmt(stmt, env)
        return env

    def _transfer_stmt(self, stmt: Stmt, env: RangeEnvironment) -> None:
        if isinstance(stmt, DeclStmt):
            if stmt.init is not None:
                value = self._clamp(stmt.name, self.evaluate(stmt.init, env))
                env.ranges[stmt.name] = value
                self._record_assignment(stmt.name, value)
            return
        if isinstance(stmt, ExprStmt):
            self._transfer_expr(stmt.expr, env)

    def _transfer_expr(self, expr: Expr, env: RangeEnvironment) -> None:
        if isinstance(expr, AssignExpr):
            self._transfer_expr(expr.value, env)
            value = self._clamp(expr.target.name, self.evaluate(expr.value, env))
            env.ranges[expr.target.name] = value
            self._record_assignment(expr.target.name, value)
            return
        for child in expr.children():
            if isinstance(child, Expr):
                self._transfer_expr(child, env)

    def _record_assignment(self, name: str, value: IntRange) -> None:
        if name in self._assigned_hull:
            self._assigned_hull[name] = self._assigned_hull[name].union(value)
        else:
            self._assigned_hull[name] = value

    def _clamp(self, name: str, rng: IntRange) -> IntRange:
        default = self._defaults.get(name)
        if default is None:
            return rng
        clamped = rng.intersect(default)
        return clamped if clamped is not None else default

    # ------------------------------------------------------------------ #
    # interval evaluation of expressions
    # ------------------------------------------------------------------ #
    def evaluate(self, expr: Expr, env: RangeEnvironment) -> IntRange:
        """Interval of the possible values of *expr* under *env*."""
        if isinstance(expr, IntLiteral):
            return IntRange(expr.value, expr.value)
        if isinstance(expr, BoolLiteral):
            value = int(expr.value)
            return IntRange(value, value)
        if isinstance(expr, Identifier):
            default = self._defaults.get(expr.name, IntRange(-(2 ** 15), 2 ** 15 - 1))
            return env.get(expr.name, default)
        if isinstance(expr, UnaryOp):
            operand = self.evaluate(expr.operand, env)
            if expr.op == "-":
                return IntRange(-operand.hi, -operand.lo)
            if expr.op == "+":
                return operand
            if expr.op == "!":
                if operand.lo > 0 or operand.hi < 0:
                    return IntRange(0, 0)
                if operand.lo == 0 and operand.hi == 0:
                    return IntRange(1, 1)
                return IntRange(0, 1)
            return self._type_range(expr)
        if isinstance(expr, BinaryOp):
            return self._evaluate_binary(expr, env)
        if isinstance(expr, Conditional):
            then = self.evaluate(expr.then, env)
            otherwise = self.evaluate(expr.otherwise, env)
            return then.union(otherwise)
        if isinstance(expr, CastExpr):
            operand = self.evaluate(expr.operand, env)
            target = expr.target_type.value_range()
            clamped = operand.intersect(target)
            return clamped if clamped is not None else target
        if isinstance(expr, AssignExpr):
            return self.evaluate(expr.value, env)
        if isinstance(expr, CallExpr):
            return self._type_range(expr)
        return self._type_range(expr)

    def _evaluate_binary(self, expr: BinaryOp, env: RangeEnvironment) -> IntRange:
        if expr.op in RELATIONAL_OPERATORS:
            return IntRange(0, 1)
        left = self.evaluate(expr.left, env)
        right = self.evaluate(expr.right, env)
        if expr.op in ("+", "-", "*"):
            candidates = []
            for a in (left.lo, left.hi):
                for b in (right.lo, right.hi):
                    candidates.append(apply_binary(expr.op, a, b))
            return IntRange(min(candidates), max(candidates))
        if expr.op == "/":
            if right.lo <= 0 <= right.hi:
                return self._type_range(expr)
            candidates = []
            for a in (left.lo, left.hi):
                for b in (right.lo, right.hi):
                    candidates.append(apply_binary("/", a, b))
            return IntRange(min(candidates), max(candidates))
        if expr.op == "%":
            if right.lo <= 0 <= right.hi:
                return self._type_range(expr)
            magnitude = max(abs(right.lo), abs(right.hi)) - 1
            lo = -magnitude if left.lo < 0 else 0
            return IntRange(lo, magnitude)
        if expr.op in ("&",):
            if left.lo >= 0 and right.lo >= 0:
                return IntRange(0, min(left.hi, right.hi))
            return self._type_range(expr)
        if expr.op in ("|", "^"):
            if left.lo >= 0 and right.lo >= 0:
                bits = max(left.hi, right.hi).bit_length()
                return IntRange(0, (1 << bits) - 1)
            return self._type_range(expr)
        return self._type_range(expr)

    def _type_range(self, expr: Expr) -> IntRange:
        if expr.ctype is not None and not expr.ctype.is_void:
            return expr.ctype.value_range()
        return IntRange(-(2 ** 15), 2 ** 15 - 1)


def analyze_ranges(cfg: ControlFlowGraph, table: FunctionSymbolTable) -> RangeAnalysisResult:
    """Run the interval analysis on *cfg* and return the result."""
    return RangeAnalyzer(cfg, table).run()
