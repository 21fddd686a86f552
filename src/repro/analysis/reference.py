"""Frozenset reference implementations of the hot dataflow analyses.

These are verbatim preservations of the original (pre-bitset) algorithms:
a textbook list worklist with ``pop(0)`` and linear membership scans, facts
as frozensets of names / :class:`Definition` sites, and use/def sets
recomputed per call.  They exist for two reasons:

* **ground truth** -- the property tests cross-check the bitset engine
  against these implementations bit-for-bit on randomized CFGs;
* **speed floor** -- ``tests/test_perf_bitset.py`` times them against the
  optimised implementations on the synthetic industrial application and
  gates the speedup.

Nothing in the production pipeline should import this module for analysis
results; use :mod:`repro.analysis.liveness` / :mod:`repro.analysis.reaching`.
"""

from __future__ import annotations

from collections import deque

from .dataflow import DataflowProblem, DataflowResult, Direction, set_union
from ..cfg.graph import ControlFlowGraph
from ..minic.symbols import FunctionSymbolTable
from .liveness import LivenessResult
from .ranges import RangeAnalysisResult, RangeAnalyzer, RangeEnvironment
from .reaching import Definition, ReachingResult
from .usedef import block_condition_uses, block_use_def, statement_use_def


def solve_reference(problem: DataflowProblem) -> DataflowResult:
    """The original textbook worklist solver (list ``pop(0)``, double init).

    Kept byte-for-byte equivalent to the seed implementation so the
    "versus seed" speed floor stays honest.
    """
    nodes = list(problem.nodes)
    if problem.direction is Direction.FORWARD:
        flow_pred: dict = {n: [] for n in nodes}
        for node in nodes:
            for succ in problem.successors(node):
                flow_pred.setdefault(succ, []).append(node)
        flow_succ = {n: list(problem.successors(n)) for n in nodes}
    else:
        flow_pred = {n: list(problem.successors(n)) for n in nodes}
        flow_succ = {n: [] for n in nodes}
        for node in nodes:
            for succ in problem.successors(node):
                flow_succ.setdefault(succ, []).append(node)

    in_facts: dict = {}
    out_facts: dict = {}
    boundary = set(problem.boundary_nodes)
    for node in nodes:
        in_facts[node] = problem.boundary if node in boundary else problem.initial
        out_facts[node] = problem.transfer(node, in_facts[node])

    worklist = list(nodes)
    iterations = 0
    while worklist:
        iterations += 1
        if iterations > problem.max_iterations:
            raise RuntimeError(
                f"dataflow analysis did not converge after {problem.max_iterations} steps"
            )
        node = worklist.pop(0)
        incoming = [out_facts[p] for p in flow_pred.get(node, ()) if p in out_facts]
        if node in boundary:
            new_in = problem.boundary if not incoming else problem.join(
                incoming + [problem.boundary]
            )
        elif incoming:
            new_in = problem.join(incoming)
        else:
            new_in = problem.initial
        new_out = problem.transfer(node, new_in)
        changed = not problem.equals(new_out, out_facts[node]) or not problem.equals(
            new_in, in_facts[node]
        )
        in_facts[node] = new_in
        out_facts[node] = new_out
        if changed:
            for succ in flow_succ.get(node, ()):
                if succ not in worklist:
                    worklist.append(succ)
    return DataflowResult(in_facts=in_facts, out_facts=out_facts, iterations=iterations)


def liveness_problem(cfg: ControlFlowGraph) -> DataflowProblem:
    """The liveness instance as a generic frozenset dataflow problem.

    ``predecessors``/``order`` come from the CFG's cached accessors; the
    seed solver (:func:`solve_reference`) never reads those fields, so the
    speed-floor comparison is unaffected, while the engineered solver uses
    them to skip map inversion and seed the worklist in flow order.
    """
    use_defs = {block.block_id: block_use_def(block) for block in cfg.blocks()}
    successor_map = cfg.successor_map()
    predecessor_map = cfg.predecessor_map()

    def successors(block_id: int) -> tuple[int, ...]:
        return successor_map[block_id]

    def transfer(block_id: int, live_out: frozenset[str]) -> frozenset[str]:
        use_def = use_defs[block_id]
        return use_def.uses | (live_out - use_def.defs)

    return DataflowProblem(
        nodes=[block.block_id for block in cfg.blocks()],
        successors=successors,
        direction=Direction.BACKWARD,
        boundary_nodes=[cfg.exit.block_id],
        boundary=frozenset(),
        initial=frozenset(),
        join=set_union,
        transfer=transfer,
        predecessors=lambda block_id: predecessor_map[block_id],
        order=cfg.backward_reverse_postorder(),
    )


def block_liveness_reference(cfg: ControlFlowGraph) -> LivenessResult:
    """Seed implementation of :func:`repro.analysis.liveness.block_liveness`."""
    result = solve_reference(liveness_problem(cfg))
    # for a backward problem: in_facts = fact flowing into the node in flow
    # order = live-out; out_facts = transfer result = live-in
    live_out = {node: result.in_facts[node] for node in result.in_facts}
    live_in = {node: result.out_facts[node] for node in result.out_facts}
    return LivenessResult(live_in=live_in, live_out=live_out)


def reaching_problem(cfg: ControlFlowGraph) -> tuple[DataflowProblem, list[Definition]]:
    """The reaching-definitions instance as a generic frozenset problem."""
    definitions: list[Definition] = []
    defs_in_block: dict[int, list[Definition]] = {}
    for block in cfg.blocks():
        for index, stmt in enumerate(block.statements):
            for variable in statement_use_def(stmt).defs:
                definition = Definition(variable, block.block_id, index)
                definitions.append(definition)
                defs_in_block.setdefault(block.block_id, []).append(definition)

    defs_by_variable: dict[str, set[Definition]] = {}
    for definition in definitions:
        defs_by_variable.setdefault(definition.variable, set()).add(definition)

    gen_kill: dict[int, tuple[frozenset[Definition], frozenset[Definition]]] = {}
    for block in cfg.blocks():
        gen: dict[str, Definition] = {}
        kill: set[Definition] = set()
        for definition in defs_in_block.get(block.block_id, ()):  # in statement order
            kill |= defs_by_variable[definition.variable]
            gen[definition.variable] = definition  # later defs shadow earlier ones
        gen_kill[block.block_id] = (frozenset(gen.values()), frozenset(kill))

    successor_map = cfg.successor_map()
    predecessor_map = cfg.predecessor_map()

    def successors(block_id: int) -> tuple[int, ...]:
        return successor_map[block_id]

    def transfer(block_id: int, reach_in: frozenset[Definition]) -> frozenset[Definition]:
        gen, kill = gen_kill[block_id]
        return gen | (reach_in - kill)

    problem = DataflowProblem(
        nodes=[block.block_id for block in cfg.blocks()],
        successors=successors,
        direction=Direction.FORWARD,
        boundary_nodes=[cfg.entry.block_id],
        boundary=frozenset(),
        initial=frozenset(),
        join=set_union,
        transfer=transfer,
        predecessors=lambda block_id: predecessor_map[block_id],
        order=cfg.reverse_postorder(),
    )
    return problem, definitions


def reaching_definitions_reference(cfg: ControlFlowGraph) -> ReachingResult:
    """Seed implementation of :func:`repro.analysis.reaching.reaching_definitions`."""
    problem, definitions = reaching_problem(cfg)
    result = solve_reference(problem)
    reach_in = dict(result.in_facts)
    reach_out = dict(result.out_facts)

    # def-use chains by walking each block with its reach-in set
    uses: dict[Definition, set[tuple[int, int]]] = {d: set() for d in definitions}
    for block in cfg.blocks():
        current: dict[str, set[Definition]] = {}
        for definition in reach_in[block.block_id]:
            current.setdefault(definition.variable, set()).add(definition)
        for index, stmt in enumerate(block.statements):
            use_def = statement_use_def(stmt)
            for variable in use_def.uses:
                for definition in current.get(variable, ()):
                    uses[definition].add((block.block_id, index))
            for variable in use_def.defs:
                current[variable] = {Definition(variable, block.block_id, index)}
        for variable in block_condition_uses(block):
            for definition in current.get(variable, ()):
                uses[definition].add((block.block_id, -1))

    return ReachingResult(
        reach_in=reach_in, reach_out=reach_out, definitions=definitions, uses=uses
    )


# ---------------------------------------------------------------------- #
# interval (value-range) analysis
# ---------------------------------------------------------------------- #
class _ReferenceRangeAnalyzer(RangeAnalyzer):
    """Seed-era interval fixpoint: entry-seeded FIFO over ``out_edges``.

    The transfer functions, joins and widening are shared with the production
    :class:`~repro.analysis.ranges.RangeAnalyzer`; only the iteration
    strategy is the original one (worklist seeded with the entry block only,
    adjacency re-derived from the edge objects on every visit).
    """

    def run(self) -> RangeAnalysisResult:
        names = set(self._defaults)
        entry_env: dict[int, RangeEnvironment] = {}
        initial = RangeEnvironment(ranges=dict(self._defaults))
        entry_env[self._cfg.entry.block_id] = initial

        update_counts: dict[tuple[int, str], int] = {}
        worklist = deque([self._cfg.entry.block_id])
        pending = {self._cfg.entry.block_id}
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
            for edge in self._cfg.out_edges(block_id):
                successor = edge.target
                incoming = env_out
                if successor in entry_env:
                    joined = entry_env[successor].join(incoming, names, self._defaults)
                    joined = self._widen(successor, entry_env[successor], joined, update_counts)
                    if joined == entry_env[successor]:
                        continue
                    entry_env[successor] = joined
                else:
                    entry_env[successor] = incoming.copy()
                if successor not in pending:
                    pending.add(successor)
                    worklist.append(successor)

        global_ranges = self._global_ranges(names)
        return RangeAnalysisResult(global_ranges=global_ranges, block_entry=entry_env)


def analyze_ranges_reference(
    cfg: ControlFlowGraph, table: FunctionSymbolTable
) -> RangeAnalysisResult:
    """Seed implementation of :func:`repro.analysis.ranges.analyze_ranges`."""
    return _ReferenceRangeAnalyzer(cfg, table).run()
