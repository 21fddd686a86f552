"""Path counting and path enumeration.

The partitioning algorithm of the paper decides whether a program segment is
measured as a whole by comparing "the number of paths within a PS" against the
path bound *b*.  Two complementary implementations are provided:

* :func:`count_ast_paths` -- structural counting on the abstract syntax tree
  (sequences multiply, branches add, loops use their ``#pragma loopbound``
  annotation).  This is what the hierarchical partitioner uses.
* :class:`CfgPathCounter` / :func:`enumerate_paths` -- counting and explicit
  enumeration on acyclic CFG regions, used by the general partitioner, the
  measurement planner (which needs the concrete block sequence of every path)
  and the tests that cross-check both implementations.

Counts saturate at :data:`PATH_COUNT_CAP` so that industrial-size programs
(the paper quotes 10^something paths for end-to-end measurement) do not
overflow into meaninglessly huge integers; the partitioner only ever compares
against small bounds, so saturation is harmless.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

from .. import obs
from ..minic.ast_nodes import (
    BreakStmt,
    CompoundStmt,
    ContinueStmt,
    DeclStmt,
    DoWhileStmt,
    EmptyStmt,
    ExprStmt,
    ForStmt,
    FunctionDef,
    IfStmt,
    ReturnStmt,
    Stmt,
    SwitchStmt,
    WhileStmt,
)
from .graph import BasicBlock, ControlFlowGraph, Edge, EdgeKind

#: Saturation value for path counts ("computationally intractable" territory).
PATH_COUNT_CAP = 10**18

#: Loop-iteration count assumed when a loop carries no ``#pragma loopbound``.
DEFAULT_LOOP_BOUND = 1


class PathCountError(Exception):
    """Raised when a path count cannot be computed (e.g. unbounded loop)."""


def _saturating_mul(a: int, b: int) -> int:
    result = a * b
    return min(result, PATH_COUNT_CAP)


def _saturating_add(a: int, b: int) -> int:
    result = a + b
    return min(result, PATH_COUNT_CAP)


def _saturating_pow(base: int, exponent: int) -> int:
    result = 1
    for _ in range(exponent):
        result = _saturating_mul(result, base)
        if result >= PATH_COUNT_CAP:
            return PATH_COUNT_CAP
    return result


# --------------------------------------------------------------------------- #
# AST-structural path counting
# --------------------------------------------------------------------------- #
def count_ast_paths(
    stmt: Stmt | FunctionDef,
    *,
    default_loop_bound: int | None = DEFAULT_LOOP_BOUND,
) -> int:
    """Count the execution paths through *stmt* (or a whole function body).

    ``default_loop_bound`` is used for loops without an explicit
    ``#pragma loopbound`` annotation; passing ``None`` makes unannotated loops
    an error instead.

    The count treats ``return`` as terminating the local path (a sequence
    ending in ``return`` contributes the paths accumulated so far) and assumes
    the structured, fall-through-free switch statements produced by the
    parser.  ``break``/``continue`` inside loop bodies are counted
    conservatively as ordinary path ends of the body.
    """
    if isinstance(stmt, FunctionDef):
        return count_ast_paths(stmt.body, default_loop_bound=default_loop_bound)
    return _count_stmt(stmt, default_loop_bound)


def _count_stmt(stmt: Stmt, default_bound: int | None) -> int:
    if isinstance(stmt, CompoundStmt):
        total = 1
        for child in stmt.statements:
            total = _saturating_mul(total, _count_stmt(child, default_bound))
            if isinstance(child, ReturnStmt):
                break
        return total
    if isinstance(stmt, (DeclStmt, ExprStmt, EmptyStmt, ReturnStmt, BreakStmt, ContinueStmt)):
        return 1
    if isinstance(stmt, IfStmt):
        then_paths = _count_stmt(stmt.then_branch, default_bound)
        else_paths = (
            _count_stmt(stmt.else_branch, default_bound) if stmt.else_branch is not None else 1
        )
        return _saturating_add(then_paths, else_paths)
    if isinstance(stmt, SwitchStmt):
        total = 0
        for case in stmt.cases:
            total = _saturating_add(total, _count_stmt(case.body, default_bound))
        if stmt.default_case is None:
            total = _saturating_add(total, 1)  # implicit empty default path
        return total
    if isinstance(stmt, WhileStmt):
        bound = _resolve_bound(stmt.loop_bound, default_bound)
        body_paths = _count_stmt(stmt.body, default_bound)
        total = 0
        for iterations in range(bound + 1):
            total = _saturating_add(total, _saturating_pow(body_paths, iterations))
        return total
    if isinstance(stmt, DoWhileStmt):
        bound = max(1, _resolve_bound(stmt.loop_bound, default_bound))
        body_paths = _count_stmt(stmt.body, default_bound)
        total = 0
        for iterations in range(1, bound + 1):
            total = _saturating_add(total, _saturating_pow(body_paths, iterations))
        return total
    if isinstance(stmt, ForStmt):
        bound = _resolve_bound(stmt.loop_bound, default_bound)
        body_paths = _count_stmt(stmt.body, default_bound)
        init_paths = _count_stmt(stmt.init, default_bound) if stmt.init is not None else 1
        total = 0
        for iterations in range(bound + 1):
            total = _saturating_add(total, _saturating_pow(body_paths, iterations))
        return _saturating_mul(init_paths, total)
    raise PathCountError(f"cannot count paths of {type(stmt).__name__}")


def _resolve_bound(annotated: int | None, default: int | None) -> int:
    if annotated is not None:
        return annotated
    if default is not None:
        return default
    raise PathCountError(
        "loop without a #pragma loopbound annotation and no default bound given"
    )


# --------------------------------------------------------------------------- #
# CFG-level path counting and enumeration
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class CfgPath:
    """A concrete path through a CFG region.

    ``blocks`` is the block-id sequence, ``edges`` the traversed edges (one
    fewer than blocks when the path ends inside the region, equal when the
    last edge leaves the region).
    """

    blocks: tuple[int, ...]
    edges: tuple[Edge, ...] = field(default_factory=tuple)

    def __len__(self) -> int:
        return len(self.blocks)

    def contains_block(self, block_id: int) -> bool:
        return block_id in self.blocks


class CfgPathCounter:
    """Counts acyclic paths between blocks of a CFG (ignoring back edges)."""

    def __init__(self, cfg: ControlFlowGraph):
        self._cfg = cfg
        self._memo: dict[tuple[int, frozenset[int] | None], int] = {}

    def count_paths(
        self,
        source: BasicBlock | int,
        targets: Sequence[BasicBlock | int] | None = None,
        region: set[int] | None = None,
    ) -> int:
        """Number of acyclic paths from *source* to any of *targets*.

        ``targets`` defaults to the exit block.  ``region`` restricts the
        traversal to a block-id subset (paths leave the region as soon as they
        step outside it, which counts as reaching a target when *targets* is
        ``None``).
        """
        source_id = source.block_id if isinstance(source, BasicBlock) else source
        target_ids = self._target_ids(targets)
        region_key = frozenset(region) if region is not None else None
        obs.count("paths.count_calls")
        return self._count(source_id, target_ids, region, region_key)

    def _target_ids(self, targets: Sequence[BasicBlock | int] | None) -> set[int]:
        if targets is None:
            return {self._cfg.exit.block_id}
        return {t.block_id if isinstance(t, BasicBlock) else t for t in targets}

    def _count(
        self,
        block_id: int,
        targets: set[int],
        region: set[int] | None,
        region_key: frozenset[int] | None,
    ) -> int:
        if block_id in targets:
            return 1
        if region is not None and block_id not in region:
            return 1
        key = (block_id, region_key)
        if key in self._memo:
            return self._memo[key]
        total = 0
        out_edges = [e for e in self._cfg.out_edges(block_id) if e.kind is not EdgeKind.BACK]
        if not out_edges:
            total = 1
        for edge in out_edges:
            total = _saturating_add(total, self._count(edge.target, targets, region, region_key))
        self._memo[key] = total
        return total


def count_cfg_paths(cfg: ControlFlowGraph) -> int:
    """Acyclic path count from entry to exit of the whole CFG."""
    return CfgPathCounter(cfg).count_paths(cfg.entry)


def enumerate_paths(
    cfg: ControlFlowGraph,
    source: BasicBlock | int | None = None,
    targets: Sequence[BasicBlock | int] | None = None,
    region: set[int] | None = None,
    limit: int = 100_000,
) -> Iterator[CfgPath]:
    """Enumerate acyclic paths (back edges excluded) through a CFG region.

    Enumeration starts at *source* (default: entry block) and stops a path at
    any block in *targets* (default: the exit block), at a block outside
    *region*, or at a block with no forward successors.  At most *limit* paths
    are produced; exceeding the limit raises :class:`PathCountError` because a
    caller that enumerates paths (the measurement planner) must never silently
    miss one.
    """
    source_id = (
        cfg.entry.block_id
        if source is None
        else source.block_id if isinstance(source, BasicBlock) else source
    )
    if targets is None:
        target_ids = {cfg.exit.block_id}
    else:
        target_ids = {t.block_id if isinstance(t, BasicBlock) else t for t in targets}

    produced = 0
    stack: list[tuple[int, tuple[int, ...], tuple[Edge, ...]]] = [(source_id, (source_id,), ())]
    try:
        while stack:
            block_id, blocks, edges = stack.pop()
            is_terminal = (
                block_id in target_ids
                or (region is not None and block_id not in region and len(blocks) > 1)
            )
            out_edges = [e for e in cfg.out_edges(block_id) if e.kind is not EdgeKind.BACK]
            if is_terminal or not out_edges:
                produced += 1
                if produced > limit:
                    raise PathCountError(f"more than {limit} paths in region")
                yield CfgPath(blocks=blocks, edges=edges)
                continue
            for edge in reversed(out_edges):
                stack.append((edge.target, blocks + (edge.target,), edges + (edge,)))
    finally:
        if produced:
            obs.count("paths.enumerated", produced)
