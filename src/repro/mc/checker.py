"""Model-checker facade.

:class:`ModelChecker` is what the rest of the tool chain talks to.  Since
the query-engine refactor it is a thin facade over
:class:`repro.mc.query.QueryEngine`: every check -- the two queries
test-data generation needs ("give me test data reaching this block" /
"drive execution along this exact edge sequence"), whole batches
(:meth:`ModelChecker.check_all`), and the raw :meth:`check` entry point
used by the Table 2 benchmark -- is optionally sliced and budgeted by the
query engine.

By default the facade keeps the historical full-model behaviour (no
slicing, no external budget) so the paper-reproduction benchmarks stay
comparable; the test-data generation layer turns slicing and budgets on.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..transsys.translate import TranslationResult, edge_label
from .explicit import ExplicitEngineOptions
from .property import GoalBuilder, ReachabilityGoal
from .query import EngineKind, QueryBudget, QueryEngine, QueryEngineOptions
from .result import CheckResult, Verdict
from .symbolic import SymbolicEngineOptions


@dataclass
class ModelCheckerOptions:
    engine: EngineKind = EngineKind.AUTO
    symbolic: SymbolicEngineOptions | None = None
    explicit: ExplicitEngineOptions | None = None
    #: query budget (None = no external budget, engine defaults apply)
    budget: QueryBudget | None = None
    #: per-goal cone-of-influence slicing (off by default: the raw facade
    #: keeps full-model semantics for the optimisation benchmarks)
    slicing: bool = False
    #: optional sound static prefilter (see
    #: :class:`repro.sa.feasibility.StaticPrefilter`) answering goals as
    #: UNREACHABLE before any solver work
    prefilter: object | None = None


class ModelChecker:
    """Reachability checking against one translated function."""

    def __init__(
        self, translation: TranslationResult, options: ModelCheckerOptions | None = None
    ):
        self._translation = translation
        self._options = options or ModelCheckerOptions()
        self._goal_builder = GoalBuilder(block_location=translation.block_location)
        self._engine = QueryEngine(
            translation,
            QueryEngineOptions(
                engine=self._options.engine,
                budget=self._options.budget,
                slicing=self._options.slicing,
                symbolic=self._options.symbolic,
                explicit=self._options.explicit,
                prefilter=self._options.prefilter,
            ),
        )

    # ------------------------------------------------------------------ #
    @property
    def system(self):
        return self._translation.system

    @property
    def goals(self) -> GoalBuilder:
        return self._goal_builder

    @property
    def query_engine(self) -> QueryEngine:
        """The underlying query engine (budget/slice/store statistics live here)."""
        return self._engine

    def check(self, goal: ReachabilityGoal) -> CheckResult:
        """Run the budgeted engine portfolio on *goal*."""
        return self._engine.check(goal)

    def check_all(
        self, goals: list[tuple[object, ReachabilityGoal]]
    ) -> dict[object, CheckResult]:
        """Answer a batch of ``(key, goal)`` pairs (witnesses reused)."""
        return self._engine.check_all(goals)

    # ------------------------------------------------------------------ #
    # the two queries test-data generation needs
    # ------------------------------------------------------------------ #
    def find_test_data_for_block(self, block_id: int) -> CheckResult:
        """Test data that makes execution reach the given CFG block."""
        return self.check(self._goal_builder.reach_block(block_id))

    def goal_for_edge_sequence(
        self, edges: list[tuple[int, int, str]]
    ) -> ReachabilityGoal:
        """The path-precise goal for a CFG edge sequence.

        ``edges`` are ``(source block, target block, edge kind value)``
        triples as produced by :mod:`repro.cfg`.
        """
        from ..cfg.graph import EdgeKind

        labels = [
            edge_label(source, target, EdgeKind(kind)) for source, target, kind in edges
        ]
        return self._goal_builder.follow_edges(labels)

    def find_test_data_for_edge_sequence(
        self, edges: list[tuple[int, int, str]]
    ) -> CheckResult:
        """Test data that drives execution along the given CFG edges in order."""
        return self.check(self.goal_for_edge_sequence(edges))

    def is_path_infeasible(self, edges: list[tuple[int, int, str]]) -> bool:
        """True when the engine *proved* that no input follows this path.

        "If no data pattern is found for a selected path the path is deemed
        infeasible." (Section 3) -- only a completed, exhaustive search counts
        as proof; an exhausted budget keeps the path in the unknown bucket.
        """
        result = self.find_test_data_for_edge_sequence(edges)
        return result.verdict is Verdict.UNREACHABLE
