"""Tests of the perf subsystem and the indexed-bitset dataflow engine.

The heart of this module is the property-style cross-check: randomized CFGs
are generated from a small statement grammar and the bitset implementations
of liveness and reaching definitions are compared bit-for-bit against the
frozenset reference implementations preserved in
:mod:`repro.analysis.reference`.  A regression test additionally pins down
that the reverse-postorder worklist never takes more fixpoint iterations
than the seed's textbook ordering, and a speed floor (marker ``perf``)
times both on the synthetic industrial application.
"""

from __future__ import annotations

import random as stdlib_random
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis import (
    analyze_ranges,
    analyze_ranges_reference,
    bitset_block_liveness,
    bitset_reaching_definitions,
    block_liveness,
    block_liveness_reference,
    cfg_bitset_index,
    cfg_use_defs,
    iter_bits,
    reaching_definitions,
    reaching_definitions_reference,
    solve,
    solve_reference,
)
from repro.analysis.bitset import VariableInterner
from repro.analysis.reference import liveness_problem, reaching_problem
from repro.cfg import build_cfg
from repro.minic import parse_and_analyze
from repro import obs


# --------------------------------------------------------------------------- #
# random structured program generator (mirrors tests/test_properties.py)
# --------------------------------------------------------------------------- #
_VARIABLES = ["a", "b", "c", "d", "e"]
_INPUTS = ["u", "v"]


def _gen_expr(rng: stdlib_random.Random, depth: int) -> str:
    if depth <= 0 or rng.random() < 0.4:
        if rng.random() < 0.4:
            return str(rng.randint(0, 20))
        return rng.choice(_VARIABLES + _INPUTS)
    op = rng.choice(["+", "-", "*"])
    return f"({_gen_expr(rng, depth - 1)} {op} {_gen_expr(rng, depth - 1)})"


def _gen_condition(rng: stdlib_random.Random) -> str:
    op = rng.choice(["<", "<=", ">", ">=", "==", "!="])
    return f"{rng.choice(_VARIABLES + _INPUTS)} {op} {rng.randint(0, 20)}"


def _gen_statement(rng: stdlib_random.Random, depth: int) -> str:
    choice = rng.random()
    if depth <= 0 or choice < 0.5:
        return f"{rng.choice(_VARIABLES)} = {_gen_expr(rng, 2)};"
    if choice < 0.85:
        body = " ".join(_gen_statement(rng, depth - 1) for _ in range(rng.randint(1, 3)))
        if rng.random() < 0.5:
            other = " ".join(_gen_statement(rng, depth - 1) for _ in range(rng.randint(1, 2)))
            return f"if ({_gen_condition(rng)}) {{ {body} }} else {{ {other} }}"
        return f"if ({_gen_condition(rng)}) {{ {body} }}"
    cases = []
    for value in range(rng.randint(2, 4)):
        case_body = " ".join(_gen_statement(rng, depth - 1) for _ in range(rng.randint(1, 2)))
        cases.append(f"case {value}: {case_body} break;")
    return f"switch ({rng.choice(_INPUTS)}) {{ {' '.join(cases)} default: break; }}"


def random_cfg(seed: int):
    rng = stdlib_random.Random(seed)
    body = " ".join(_gen_statement(rng, 2) for _ in range(rng.randint(2, 6)))
    decls = "\n".join(f"int {name};" for name in _VARIABLES)
    inputs = "\n".join(f"int {name};" for name in _INPUTS)
    source = f"{inputs}\n{decls}\nvoid f(void) {{ {body} }}\n"
    analyzed = parse_and_analyze(source)
    return build_cfg(analyzed.program.function("f"))


# --------------------------------------------------------------------------- #
# cross-check: bitset engine equals the frozenset reference bit-for-bit
# --------------------------------------------------------------------------- #
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_bitset_liveness_equals_reference(seed: int):
    cfg = random_cfg(seed)
    optimised = block_liveness(cfg)
    reference = block_liveness_reference(cfg)
    assert optimised.live_in == reference.live_in
    assert optimised.live_out == reference.live_out


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_bitset_reaching_equals_reference(seed: int):
    cfg = random_cfg(seed)
    optimised = reaching_definitions(cfg)
    reference = reaching_definitions_reference(cfg)
    assert optimised.reach_in == reference.reach_in
    assert optimised.reach_out == reference.reach_out
    assert set(optimised.definitions) == set(reference.definitions)
    assert optimised.uses == reference.uses


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_rpo_worklist_iterations_do_not_grow(seed: int):
    """The engineered solver must never iterate more than the seed solver."""
    cfg = random_cfg(seed)
    for problem in (liveness_problem(cfg), reaching_problem(cfg)[0]):
        reference = solve_reference(problem)
        optimised = solve(problem)
        assert optimised.in_facts == reference.in_facts
        assert optimised.out_facts == reference.out_facts
        assert optimised.iterations <= reference.iterations


def test_bitset_fixpoint_visits_each_block_once_on_acyclic_cfg():
    # loop-free CFG in reverse postorder: one visit per block suffices
    cfg = random_cfg(4711)
    assert bitset_block_liveness(cfg).iterations == len(cfg)
    assert bitset_reaching_definitions(cfg).iterations == len(cfg)


def test_solver_honours_explicit_order_and_predecessors():
    # diamond 1 -> {2, 3} -> 4 with explicit adjacency in both directions
    from repro.analysis import DataflowProblem, Direction, set_union

    edges = {1: [2, 3], 2: [4], 3: [4], 4: []}
    reverse = {1: [], 2: [1], 3: [1], 4: [2, 3]}
    problem = DataflowProblem(
        nodes=[4, 3, 2, 1],  # deliberately not in flow order
        successors=lambda n: edges[n],
        direction=Direction.FORWARD,
        boundary_nodes=[1],
        boundary=frozenset({"start"}),
        initial=frozenset(),
        join=set_union,
        transfer=lambda node, fact: fact | {f"n{node}"},
        predecessors=lambda n: reverse[n],
        order=[1, 2, 3, 4],
    )
    result = solve(problem)
    assert result.out_facts[4] == frozenset({"start", "n1", "n2", "n3", "n4"})
    # acyclic graph seeded in RPO: one visit per node
    assert result.iterations == 4


def test_stale_statement_append_is_caught_by_fingerprint():
    from repro.minic.ast_nodes import DeclStmt, IntLiteral

    cfg = random_cfg(21)
    before = block_liveness(cfg)  # populate use/def + bitset caches
    target = next(b for b in cfg.real_blocks() if b.statements)
    fresh = "zz_fresh"
    target.statements.append(DeclStmt(name=fresh, init=IntLiteral(value=1)))
    after = block_liveness(cfg)  # must rebuild, not serve stale masks
    reference = block_liveness_reference(cfg)
    assert after.live_in == reference.live_in
    assert after.live_out == reference.live_out
    del before


def test_statement_liveness_honours_detached_block():
    from repro.analysis import statement_liveness
    from repro.cfg.graph import BasicBlock

    cfg = random_cfg(33)
    original = next(b for b in cfg.real_blocks() if b.statements)
    block_liveness(cfg)  # warm the per-CFG caches
    detached = BasicBlock(
        block_id=original.block_id,
        statements=list(original.statements[:1]),
        terminator=original.terminator,
        kind=original.kind,
    )
    live_after = statement_liveness(cfg, detached, frozenset())
    assert len(live_after) == len(detached.statements) == 1


# --------------------------------------------------------------------------- #
# speed floor: the optimised engines against the seed reference
# --------------------------------------------------------------------------- #
#: liveness + reaching definitions must beat the seed solvers by this factor
MIN_COMBINED_SPEEDUP = 3.0


def _best_of_3(run):
    """(best wall-clock seconds of three calls of *run*, last result)"""
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        result = run()
        best = min(best, time.perf_counter() - started)
    return best, result


@pytest.mark.perf
def test_bitset_dataflow_speedup_over_reference(industrial_app):
    cfg = industrial_app.cfg
    table = industrial_app.analyzed.table(industrial_app.function_name)
    reference_liveness_s, reference_liveness = _best_of_3(
        lambda: block_liveness_reference(cfg)
    )
    reference_reaching_s, reference_reaching = _best_of_3(
        lambda: reaching_definitions_reference(cfg)
    )
    # time the steady state the pipeline runs in: interning and use/def
    # extraction are paid once per CFG, on its first analysis
    block_liveness(cfg)
    reaching_definitions(cfg)
    liveness_s, liveness = _best_of_3(lambda: block_liveness(cfg))
    reaching_s, reaching = _best_of_3(lambda: reaching_definitions(cfg))
    ranges_reference_s, ranges_reference = _best_of_3(
        lambda: analyze_ranges_reference(cfg, table)
    )
    ranges_s, ranges = _best_of_3(lambda: analyze_ranges(cfg, table))

    # the optimisations must not change a single analysis fact
    assert liveness.live_in == reference_liveness.live_in
    assert liveness.live_out == reference_liveness.live_out
    assert reaching.reach_in == reference_reaching.reach_in
    assert reaching.reach_out == reference_reaching.reach_out
    assert set(reaching.definitions) == set(reference_reaching.definitions)
    assert reaching.uses == reference_reaching.uses
    assert ranges.global_ranges == ranges_reference.global_ranges
    assert ranges.block_entry == ranges_reference.block_entry

    combined = (reference_liveness_s + reference_reaching_s) / (liveness_s + reaching_s)
    assert combined >= MIN_COMBINED_SPEEDUP, (
        f"liveness+reaching speedup {combined:.1f}x "
        f"below the {MIN_COMBINED_SPEEDUP}x floor"
    )
    # the interval analysis rides the same cached-RPO machinery: it must not
    # be slower than the seed-era iteration order
    assert ranges_reference_s / ranges_s >= 1.0


# --------------------------------------------------------------------------- #
# interner and cached accessors
# --------------------------------------------------------------------------- #
def test_iter_bits_round_trip():
    mask = (1 << 0) | (1 << 5) | (1 << 63) | (1 << 200)
    assert list(iter_bits(mask)) == [0, 5, 63, 200]
    assert list(iter_bits(0)) == []


def test_variable_interner_round_trip():
    interner = VariableInterner(["beta", "alpha", "gamma", "alpha"])
    assert interner.names == ("alpha", "beta", "gamma")
    mask = interner.mask_of({"gamma", "alpha"})
    assert interner.names_of(mask) == frozenset({"alpha", "gamma"})
    # memoised conversion returns the identical object
    assert interner.names_of(mask) is interner.names_of(mask)


def test_block_use_def_masks_match_frozenset_use_defs():
    cfg = random_cfg(99)
    index = cfg_bitset_index(cfg)
    use_defs = cfg_use_defs(cfg)
    names_of = index.interner.names_of
    for block in cfg.blocks():
        use_def = use_defs.block(block.block_id)
        assert names_of(index.block_use[block.block_id]) == use_def.uses
        assert names_of(index.block_def[block.block_id]) == use_def.defs


def test_cfg_adjacency_and_rpo_are_cached_and_invalidated():
    cfg = random_cfg(7)
    succ = cfg.successor_map()
    rpo = cfg.reverse_postorder()
    assert cfg.successor_map() is succ  # cached
    assert cfg.reverse_postorder() is rpo
    # RPO covers every block exactly once and starts at the entry
    assert sorted(rpo) == sorted(block.block_id for block in cfg.blocks())
    assert rpo[0] == cfg.entry.block_id
    # forward RPO: ignoring back edges, predecessors come first
    position = {block_id: i for i, block_id in enumerate(rpo)}
    for edge in cfg.edges():
        if edge.kind.value != "back":
            assert position[edge.source] < position[edge.target]
    # structural mutation drops the caches
    extra = cfg.new_block()
    cfg.add_edge(cfg.entry, extra)
    cfg.add_edge(extra, cfg.exit)
    assert cfg.successor_map() is not succ
    assert extra.block_id in cfg.reverse_postorder()


def test_backward_rpo_orders_successors_first():
    cfg = random_cfg(12)
    order = cfg.backward_reverse_postorder()
    assert sorted(order) == sorted(block.block_id for block in cfg.blocks())
    assert order[0] == cfg.exit.block_id
    position = {block_id: i for i, block_id in enumerate(order)}
    for edge in cfg.edges():
        if edge.kind.value != "back":
            assert position[edge.target] < position[edge.source]


# --------------------------------------------------------------------------- #
# the obs registry (counters and stage timers)
# --------------------------------------------------------------------------- #
class TestPerfRegistry:
    def test_counters_accumulate(self):
        registry = obs.Registry()
        registry.add("work")
        registry.add("work", 41)
        assert registry.counter("work") == 42
        assert registry.counter("missing") == 0

    def test_timed_context_manager_records(self):
        registry = obs.Registry()
        with obs.using_registry(registry), obs.stage("phase"):
            pass
        stat = registry.timer("phase")
        assert stat is not None and stat.calls == 1
        assert stat.total_seconds >= 0.0

    def test_reset_clears_everything(self):
        registry = obs.Registry()
        registry.add("work")
        registry.record_time("phase", 0.5)
        registry.reset()
        assert registry.report()["counters"] == {}
        assert registry.report()["timers"] == {}

    def test_solver_records_into_global_registry(self):
        obs.reset()
        cfg = random_cfg(3)
        block_liveness(cfg)
        reaching_definitions(cfg)
        report = obs.report()
        assert report["counters"]["liveness.bitset_runs"] >= 1
        assert report["counters"]["reaching.bitset_runs"] >= 1
        assert "liveness.bitset" in report["timers"]
