"""Interprocedural call-graph layer of the WCET reproduction.

The paper's measurement-based pipeline analyses one function at a time; this
package lifts it to whole programs:

* :mod:`repro.callgraph.extract` walks every analyzable function's AST
  (:mod:`repro.minic.calls`) and records its call sites.
* :mod:`repro.callgraph.graph` resolves callee names project-wide, detects
  recursion cycles (Tarjan SCCs, reported as diagnostics), orders functions
  into dependency waves with callees before callers, and computes the
  *transitive fingerprints* the persistent result cache keys on -- editing a
  leaf callee invalidates exactly the leaf plus its transitive callers.
* :meth:`CallGraph.charges <repro.callgraph.graph.CallGraph.charges>` is
  the one charge map: a caller's board charges every summarised call site
  ``call_overhead + callee bound`` instead of inlining the callee or
  guessing, and falls back to the pessimistic
  :data:`DEFAULT_UNKNOWN_CALL_CYCLES` when no bound exists (recursion
  cycles, ambiguous names).  Same-unit callees whose stubbing would be
  unsound -- the caller uses their return value, or reads a global they
  (transitively) write -- are inlined on the caller's board instead, with
  an ``inlined-callee`` diagnostic.

:class:`~repro.project.scheduler.ProjectScheduler` drives the whole flow:
``repro-wcet project --call-graph`` prints the resolved graph, waves and
diagnostics for a project.
"""

from __future__ import annotations

from .extract import FunctionCalls, extract_project_calls
from .graph import (
    DEFAULT_UNKNOWN_CALL_CYCLES,
    CallEdge,
    CallGraph,
    CallGraphDiagnostic,
    CallGraphError,
    CallGraphNode,
)

__all__ = [
    "CallEdge",
    "CallGraph",
    "CallGraphDiagnostic",
    "CallGraphError",
    "CallGraphNode",
    "DEFAULT_UNKNOWN_CALL_CYCLES",
    "FunctionCalls",
    "extract_project_calls",
]
