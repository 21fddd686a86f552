"""A small generic dataflow framework.

All analyses in this package (liveness, reaching definitions, value ranges)
are instances of the classic iterative worklist algorithm over a CFG.  The
framework is deliberately tiny: an analysis provides

* the direction (forward/backward),
* the initial value of every node,
* a ``join`` of incoming facts, and
* a ``transfer`` function per node,

and :func:`solve` iterates to a fixed point.  Facts can be any value with a
well-defined equality; analyses over infinite-height lattices (the interval
analysis) bound iteration through widening inside their transfer function.

The solver is engineered, not textbook: the worklist is a deque with an O(1)
membership set, nodes are seeded in reverse postorder of the flow graph (so
that, ignoring back edges, every flow predecessor is processed before its
successors), and a node's transfer runs for the first time when it is popped
instead of once more at initialisation.  Callers that already know a good
order (the CFG caches its reverse postorder) pass it via
``DataflowProblem.order``; likewise ``predecessors`` avoids re-deriving the
predecessor map from the successor function on every call.  Liveness and
reaching definitions additionally bypass the generic fact representation
entirely through :mod:`repro.analysis.bitset`.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import Callable, Generic, Hashable, Iterable, Sequence, TypeVar

from .. import obs
from ..cfg.graph import depth_first_postorder

NodeT = TypeVar("NodeT", bound=Hashable)
FactT = TypeVar("FactT")


class Direction(enum.Enum):
    FORWARD = "forward"
    BACKWARD = "backward"


@dataclass
class DataflowProblem(Generic[NodeT, FactT]):
    """Description of one dataflow analysis instance.

    Attributes
    ----------
    nodes:
        All graph nodes.
    successors:
        Forward successor function (the framework inverts it for backward
        problems).
    direction:
        Forward or backward.
    boundary:
        Fact at the entry (forward) or exit (backward) node(s).
    initial:
        Initial fact of every other node.
    join:
        Combine the facts flowing into a node.
    transfer:
        Per-node transfer function: ``transfer(node, in_fact) -> out_fact``.
    equals:
        Fact equality (defaults to ``==``).
    predecessors:
        Optional forward predecessor function.  When omitted the solver
        derives predecessors by inverting ``successors`` (one pass per call);
        the CFG-backed problem builders in :mod:`repro.analysis.reference`
        pass the graph's cached adjacency instead.
    order:
        Optional preferred processing order in *flow* direction (reverse
        postorder of the flow graph).  When omitted the solver computes it
        from the boundary nodes via depth-first search.
    """

    nodes: list[NodeT]
    successors: Callable[[NodeT], Iterable[NodeT]]
    direction: Direction
    boundary_nodes: list[NodeT]
    boundary: FactT
    initial: FactT
    join: Callable[[list[FactT]], FactT]
    transfer: Callable[[NodeT, FactT], FactT]
    equals: Callable[[FactT, FactT], bool] = lambda a, b: a == b
    max_iterations: int = 10_000
    predecessors: Callable[[NodeT], Iterable[NodeT]] | None = None
    order: Sequence[NodeT] | None = None


@dataclass
class DataflowResult(Generic[NodeT, FactT]):
    """Fixed-point facts: value *entering* and *leaving* each node.

    For backward problems ``in_facts`` is the fact at node entry in program
    order (i.e. the analysis result usually reported as ``live-in``).
    """

    in_facts: dict[NodeT, FactT]
    out_facts: dict[NodeT, FactT]
    iterations: int


def _flow_reverse_postorder(
    nodes: list[NodeT],
    flow_succ: dict[NodeT, list[NodeT]],
    roots: Iterable[NodeT],
) -> list[NodeT]:
    """Reverse postorder of the flow graph, covering every node.

    Depth-first from *roots*; nodes unreachable from the roots are appended
    afterwards in their given order so the worklist always seeds the whole
    graph.
    """
    order = list(reversed(depth_first_postorder(roots, flow_succ)))
    if len(order) != len(nodes):
        reached = set(order)
        order.extend(node for node in nodes if node not in reached)
    return order


def solve(problem: DataflowProblem[NodeT, FactT]) -> DataflowResult[NodeT, FactT]:
    """Run the iterative worklist algorithm until a fixed point is reached."""
    with obs.stage("dataflow.solve"):
        nodes = list(problem.nodes)
        node_set = set(nodes)
        if problem.direction is Direction.FORWARD:
            flow_succ = {
                n: [s for s in problem.successors(n) if s in node_set] for n in nodes
            }
            if problem.predecessors is not None:
                flow_pred = {
                    n: [p for p in problem.predecessors(n) if p in node_set]
                    for n in nodes
                }
            else:
                flow_pred = {n: [] for n in nodes}
                for node in nodes:
                    for succ in flow_succ[node]:
                        flow_pred[succ].append(node)
        else:
            # invert the graph: "predecessors" in flow order are CFG successors
            flow_pred = {
                n: [s for s in problem.successors(n) if s in node_set] for n in nodes
            }
            if problem.predecessors is not None:
                flow_succ = {
                    n: [p for p in problem.predecessors(n) if p in node_set]
                    for n in nodes
                }
            else:
                flow_succ = {n: [] for n in nodes}
                for node in nodes:
                    for succ in flow_pred[node]:
                        flow_succ[succ].append(node)

        boundary = set(problem.boundary_nodes)
        in_facts: dict[NodeT, FactT] = {
            node: problem.boundary if node in boundary else problem.initial
            for node in nodes
        }
        out_facts: dict[NodeT, FactT] = {}

        if problem.order is not None:
            seed_order = [n for n in problem.order if n in node_set]
            if len(seed_order) != len(nodes):
                present = set(seed_order)
                seed_order.extend(n for n in nodes if n not in present)
        else:
            seed_order = _flow_reverse_postorder(nodes, flow_succ, problem.boundary_nodes)

        worklist: deque[NodeT] = deque(seed_order)
        pending = set(seed_order)
        join = problem.join
        transfer = problem.transfer
        equals = problem.equals
        iterations = 0
        while worklist:
            iterations += 1
            if iterations > problem.max_iterations:
                raise RuntimeError(
                    f"dataflow analysis did not converge after {problem.max_iterations} steps"
                )
            node = worklist.popleft()
            pending.discard(node)
            incoming = [out_facts[p] for p in flow_pred.get(node, ()) if p in out_facts]
            if node in boundary:
                new_in = problem.boundary if not incoming else join(
                    incoming + [problem.boundary]
                )
            elif incoming:
                new_in = join(incoming)
            else:
                new_in = problem.initial
            new_out = transfer(node, new_in)
            if node in out_facts:
                changed = not equals(new_out, out_facts[node]) or not equals(
                    new_in, in_facts[node]
                )
            else:
                # first visit: the node's out fact did not exist yet
                changed = True
            in_facts[node] = new_in
            out_facts[node] = new_out
            if changed:
                for succ in flow_succ.get(node, ()):
                    if succ not in pending:
                        pending.add(succ)
                        worklist.append(succ)
        # every node was seeded, so every node has been popped at least once;
        # re-key in node order for deterministic result iteration
        out_facts = {node: out_facts[node] for node in nodes}
    obs.count("dataflow.solve_calls")
    obs.count("dataflow.iterations", iterations)
    return DataflowResult(in_facts=in_facts, out_facts=out_facts, iterations=iterations)


def set_union(facts: list[frozenset]) -> frozenset:
    """Join for may-analyses over sets."""
    result: frozenset = frozenset()
    for fact in facts:
        result |= fact
    return result


def set_intersection(facts: list[frozenset]) -> frozenset:
    """Join for must-analyses over sets."""
    if not facts:
        return frozenset()
    result = facts[0]
    for fact in facts[1:]:
        result &= fact
    return result
