"""Timing-schema WCET computation from per-segment measurements.

The paper combines the measured worst-case times of the program segments into
a WCET bound for the whole function "using the measured execution times and a
simple timing schema approach" (Section 4).  The schema used here works on the
*segment graph*: collapse every program segment into a single node whose
weight is the worst execution time observed for that segment, connect the
nodes along the CFG edges between segments, and take the longest weighted path
from the entry segment to the function exit.

For the structured, loop-free code the paper analyses this is exactly the
textbook timing schema (sequence = sum, branch = max over alternatives) --
the longest path through the segment DAG visits one alternative of every
branch and sums everything on the way.  Loops are supported through iteration
factors: a segment nested inside loops contributes ``weight × Π(loop bounds)``,
a standard (conservative) extension.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Mapping

from ..cfg.dominators import natural_loops
from ..cfg.graph import ControlFlowGraph, EdgeKind, TerminatorKind
from ..cfg.paths import DEFAULT_LOOP_BOUND
from ..measurement.database import MeasurementDatabase
from ..minic.ast_nodes import CallExpr, DoWhileStmt, ForStmt, WhileStmt
from ..minic.calls import call_sites
from ..partition.segment import PartitionResult, ProgramSegment


class WcetComputationError(Exception):
    """Raised when the WCET bound cannot be computed (e.g. unmeasured segment)."""


def static_segment_pessimisation(
    cfg: ControlFlowGraph, segment: ProgramSegment, cost_model
) -> int:
    """Conservative static cycle estimate for an *unmeasured* segment.

    When every path of a segment escaped measurement -- typically because the
    model-checking queries for it ran out of their
    :class:`~repro.mc.query.QueryBudget` -- the schema needs a weight that is
    guaranteed to dominate anything one execution of the segment could cost.
    The estimate charges every AST node of every block in the segment at the
    cost model's most expensive operation (calls at their external-call
    charge), and sums over *all* blocks: a superset of any single path, so
    the resulting bound stays safe ("unreached, pessimise").  Within-segment
    loop repetition is covered by the schema's iteration factors, which
    multiply this per-execution estimate like any measured weight.
    """
    # every per-operation cycle field of the model: the estimate must
    # dominate the dearest operation even under custom cost models
    worst_op = max(
        cost_model.load_variable,
        cost_model.load_literal,
        cost_model.store_variable,
        cost_model.alu_op,
        cost_model.compare_op,
        cost_model.logic_op,
        cost_model.shift_op,
        cost_model.multiply_op,
        cost_model.divide_op,
        cost_model.unary_op,
        cost_model.cast_op,
        cost_model.branch_taken,
        cost_model.branch_not_taken,
        cost_model.switch_dispatch_per_case,
        cost_model.return_cost,
        cost_model.declaration_cost,
    )
    worst_node = max(1, round(worst_op * cost_model.wide_factor))

    def node_cost(root) -> int:
        cost = 0
        for node in root.walk():
            if isinstance(node, CallExpr):
                cost += cost_model.call_overhead + cost_model.external_call_cost(
                    node.name
                )
            cost += worst_node
        return cost

    total = 0
    for block_id in segment.block_ids:
        block = cfg.block(block_id)
        for stmt in block.statements:
            total += node_cost(stmt)
        terminator = block.terminator
        if terminator.condition is not None:
            total += node_cost(terminator.condition) + cost_model.branch_taken
        if terminator.kind is TerminatorKind.SWITCH:
            total += cost_model.switch_dispatch_per_case * max(
                1, len(cfg.out_edges(block))
            )
    return total


@dataclass
class SegmentContribution:
    """How one segment enters the WCET bound."""

    segment_id: int
    max_cycles: int
    iteration_factor: int
    on_critical_path: bool = False
    #: static per-execution floor from summarised call sites in the segment
    #: (``call overhead + callee WCET bound`` per site); the segment weight is
    #: never below this, even when measurement under-covered the call
    summarised_call_cycles: int = 0
    #: True when the weight is the static pessimisation of a segment with a
    #: path neither measured nor proven infeasible (e.g. its query exhausted
    #: its budget), because the estimate exceeds every measurement
    pessimised: bool = False

    @property
    def weighted_cycles(self) -> int:
        return self.max_cycles * self.iteration_factor


@dataclass
class WcetBound:
    """Result of the timing-schema computation."""

    function_name: str
    bound_cycles: int
    critical_segments: list[int] = field(default_factory=list)
    contributions: dict[int, SegmentContribution] = field(default_factory=dict)

    def contribution(self, segment_id: int) -> SegmentContribution:
        return self.contributions[segment_id]

    @property
    def pessimised_segments(self) -> list[int]:
        """Segments whose weight is a static estimate, not a measurement."""
        return sorted(
            segment_id
            for segment_id, contribution in self.contributions.items()
            if contribution.pessimised
        )


class TimingSchema:
    """Computes a WCET bound from a partition and its measurement database."""

    def __init__(
        self,
        cfg: ControlFlowGraph,
        partition: PartitionResult,
        default_loop_bound: int = DEFAULT_LOOP_BOUND,
        callee_bounds: Mapping[str, int] | None = None,
        call_overhead: int = 0,
        inferred_loop_bounds: Mapping[int, int] | None = None,
    ):
        """``callee_bounds`` maps summarised callee names to their WCET bound.

        When given, every segment's weight is floored at the sum of
        ``call_overhead + bound`` over its call sites to summarised callees:
        the measurement campaign charges those calls through the board's
        stubbed cost model, but if the worst call-bearing path of a segment
        escaped measurement the static floor keeps the schema conservative.

        ``inferred_loop_bounds`` maps loop-header block ids to iteration
        counts *proven* by :func:`repro.sa.loopbounds.infer_loop_bounds`.
        Precedence per loop: an explicit ``#pragma loopbound`` wins, then an
        inferred bound, then ``default_loop_bound``.
        """
        self._cfg = cfg
        self._partition = partition
        self._default_loop_bound = default_loop_bound
        self._callee_bounds = dict(callee_bounds or {})
        self._call_overhead = call_overhead
        self._inferred_loop_bounds = dict(inferred_loop_bounds or {})

    # ------------------------------------------------------------------ #
    def compute(
        self,
        database: MeasurementDatabase,
        unreachable_segments: set[int] | None = None,
        pessimised_segments: Mapping[int, int] | None = None,
    ) -> WcetBound:
        """Combine per-segment maxima into the WCET bound.

        ``unreachable_segments`` lists segments that are known to be
        infeasible (every path through them was proven unreachable by the
        model checker); they contribute zero cycles instead of raising a
        missing-measurement error.  ``pessimised_segments`` maps segments
        whose measurement may miss a feasible path to a static worst-case
        estimate (:func:`static_segment_pessimisation`); their weight is
        ``max(measured, estimate)``, or the estimate alone when nothing was
        measured.  The analyzer passes every segment with a target that is
        neither covered nor proven infeasible (uncovered, exhausted query
        budget) -- a partially measured segment's maximum says nothing about
        its unmeasured paths -- and, after an injected fault that may have
        cost observations, every feasible segment.
        """
        weights = self._segment_weights(
            database, unreachable_segments or set(), pessimised_segments or {}
        )
        clusters = self._loop_clusters()
        cluster_of: dict[int, int] = {}
        for index, members in enumerate(clusters):
            for segment_id in members:
                cluster_of[segment_id] = index

        # node = cluster index; weight of a loop cluster is the *sum* of its
        # members (every member may execute on every iteration -- a safe
        # over-approximation), weight of a singleton is its own contribution
        node_weight: dict[int, int] = {}
        for index, members in enumerate(clusters):
            node_weight[index] = sum(weights[s].weighted_cycles for s in members)

        graph: dict[int, set[int]] = {index: set() for index in range(len(clusters))}
        segment_graph = self._segment_graph()
        for source, targets in segment_graph.items():
            for target in targets:
                a, b = cluster_of[source], cluster_of[target]
                if a != b:
                    graph[a].add(b)

        order = self._topological_order({k: sorted(v) for k, v in graph.items()})
        entry_cluster = cluster_of[self._entry_segment()]

        best: dict[int, int] = {index: 0 for index in node_weight}
        predecessor: dict[int, int | None] = {index: None for index in node_weight}
        best[entry_cluster] = node_weight[entry_cluster]
        for node in order:
            for successor in graph.get(node, ()):
                candidate = best[node] + node_weight[successor]
                if candidate > best[successor]:
                    best[successor] = candidate
                    predecessor[successor] = node

        bound = max(best.values()) if best else 0
        critical: list[int] = []
        if best:
            current: int | None = max(best, key=lambda index: best[index])
            while current is not None:
                for segment_id in clusters[current]:
                    critical.append(segment_id)
                    weights[segment_id].on_critical_path = True
                current = predecessor[current]
            critical.reverse()
        return WcetBound(
            function_name=self._partition.function_name,
            bound_cycles=bound,
            critical_segments=critical,
            contributions=weights,
        )

    def _loop_clusters(self) -> list[list[int]]:
        """Group segments into loop clusters (segments sharing a natural loop).

        Segments that intersect the same loop body (or transitively overlap
        through nested loops) form one cluster; every other segment is a
        singleton cluster.  Clusters make the collapsed segment graph acyclic
        so the longest-path computation is well defined even for programs with
        loops.
        """
        loops = natural_loops(self._cfg)
        parent: dict[int, int] = {s.segment_id: s.segment_id for s in self._partition.segments}

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(a: int, b: int) -> None:
            parent[find(a)] = find(b)

        for _, body in loops:
            members = [
                s.segment_id for s in self._partition.segments if s.block_ids & body
            ]
            for segment_id in members[1:]:
                union(members[0], segment_id)

        groups: dict[int, list[int]] = {}
        for segment in self._partition.segments:
            groups.setdefault(find(segment.segment_id), []).append(segment.segment_id)
        return [sorted(members) for _, members in sorted(groups.items())]

    # ------------------------------------------------------------------ #
    def _segment_weights(
        self,
        database: MeasurementDatabase,
        unreachable: set[int],
        pessimised: Mapping[int, int],
    ) -> dict[int, SegmentContribution]:
        iteration = self._iteration_factors()
        weights: dict[int, SegmentContribution] = {}
        for segment in self._partition.segments:
            max_cycles = database.max_cycles(segment.segment_id)
            statically_pessimised = False
            if max_cycles is None and segment.segment_id in unreachable:
                max_cycles = 0
            estimate = pessimised.get(segment.segment_id)
            if (
                estimate is not None
                and segment.segment_id not in unreachable
                and (max_cycles is None or estimate > max_cycles)
            ):
                max_cycles = estimate
                statically_pessimised = True
            if max_cycles is None:
                raise WcetComputationError(
                    f"segment {segment.segment_id} has no measurements; "
                    "run the measurement campaign first"
                )
            call_floor = self._summarised_call_floor(segment.block_ids)
            if segment.segment_id not in unreachable:
                max_cycles = max(max_cycles, call_floor)
            weights[segment.segment_id] = SegmentContribution(
                segment_id=segment.segment_id,
                max_cycles=max_cycles,
                iteration_factor=iteration.get(segment.segment_id, 1),
                summarised_call_cycles=call_floor,
                pessimised=statically_pessimised,
            )
        return weights

    def _summarised_call_floor(self, block_ids: set[int]) -> int:
        """Charge of the summarised call sites inside the given blocks."""
        if not self._callee_bounds:
            return 0
        floor = 0
        for block_id in block_ids:
            block = self._cfg.block(block_id)
            roots = list(block.statements)
            if block.terminator.condition is not None:
                roots.append(block.terminator.condition)
            for root in roots:
                for site in call_sites(root):
                    bound = self._callee_bounds.get(site.name)
                    if bound is not None:
                        floor += self._call_overhead + bound
        return floor

    def _iteration_factors(self) -> dict[int, int]:
        """Product of enclosing-loop bounds for every segment."""
        factors: dict[int, int] = {}
        loops = natural_loops(self._cfg)
        loop_bounds: list[tuple[int, set[int], int]] = []
        for header, body in loops:
            bound = self._loop_bound_of_header(header)
            loop_bounds.append((header, body, bound))
        for segment in self._partition.segments:
            factor = 1
            for header, body, bound in loop_bounds:
                if segment.block_ids & body:
                    if header in segment.block_ids:
                        # the loop condition executes bound+1 times (the final
                        # evaluation leaves the loop)
                        factor *= max(1, bound) + 1
                    else:
                        factor *= max(1, bound)
            factors[segment.segment_id] = factor
        return factors

    def _loop_bound_of_header(self, header_block_id: int) -> int:
        block = self._cfg.block(header_block_id)
        anchor = block.terminator.ast_node
        if isinstance(anchor, (WhileStmt, DoWhileStmt, ForStmt)) and anchor.loop_bound:
            return anchor.loop_bound
        inferred = self._inferred_loop_bounds.get(header_block_id)
        if inferred is not None:
            return inferred
        return self._default_loop_bound

    def _segment_graph(self) -> dict[int, list[int]]:
        """Forward edges between segments (back edges ignored)."""
        owner: dict[int, int] = {}
        for segment in self._partition.segments:
            for block_id in segment.block_ids:
                owner[block_id] = segment.segment_id
        graph: dict[int, set[int]] = {s.segment_id: set() for s in self._partition.segments}
        for edge in self._cfg.edges():
            if edge.kind is EdgeKind.BACK:
                continue
            source = owner.get(edge.source)
            target = owner.get(edge.target)
            if source is None or target is None or source == target:
                continue
            graph[source].add(target)
        return {segment_id: sorted(targets) for segment_id, targets in graph.items()}

    def _topological_order(self, graph: dict[int, list[int]]) -> list[int]:
        indegree: dict[int, int] = {segment_id: 0 for segment_id in graph}
        for targets in graph.values():
            for target in targets:
                indegree[target] += 1
        worklist = deque(sorted(sid for sid, degree in indegree.items() if degree == 0))
        order: list[int] = []
        while worklist:
            segment_id = worklist.popleft()
            order.append(segment_id)
            for target in graph.get(segment_id, ()):
                indegree[target] -= 1
                if indegree[target] == 0:
                    worklist.append(target)
        if len(order) != len(graph):
            raise WcetComputationError(
                "segment graph is cyclic even after removing back edges; "
                "the partition does not respect loop structure"
            )
        return order

    def _entry_segment(self) -> int:
        entry_successors = self._cfg.successors(self._cfg.entry)
        if not entry_successors:
            raise WcetComputationError("empty CFG")
        first_block = entry_successors[0].block_id
        segment = self._partition.segment_of_block(first_block)
        if segment is None:
            raise WcetComputationError("entry block is not covered by any segment")
        return segment.segment_id
