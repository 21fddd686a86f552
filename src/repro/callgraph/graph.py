"""Project-wide call graph: resolution, cycles, waves, transitive fingerprints.

The call graph is the backbone of the interprocedural WCET analysis:

* **Resolution** maps every syntactic callee name to the project function it
  denotes.  A name resolves to a definition in the caller's own unit first
  (static C linkage intuition); otherwise to the unique definition elsewhere
  in the project; a name defined in several *other* units is ambiguous and
  is left unresolved with a diagnostic, and a name defined nowhere is an
  external (library/runnable) call.
* **Cycles** -- direct recursion and mutual-recursion SCCs -- are detected
  with Tarjan's algorithm and reported as diagnostics; the dependency edges
  inside a cycle are dropped so scheduling stays well defined (calls along a
  cycle are charged the pessimistic unknown-call cost instead of a summary).
* **Dependency waves** order callees before callers; the project scheduler
  runs one wave at a time and feeds completed callee bounds into the next.
* **Charges** decide, per function, what each call site costs on its
  measurement board: a summarised callee's bound, the pessimistic
  :data:`DEFAULT_UNKNOWN_CALL_CYCLES`, or nothing (the body is inlined).
* **Transitive fingerprints** extend each function's content fingerprint
  with the fingerprints of everything it can reach through resolved calls:
  the persistent result cache keys on them, so editing a leaf invalidates
  exactly the leaf and its transitive callers -- nothing else.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from ..project.model import Project, ProjectError, ProjectFunction
from .extract import FunctionCalls, extract_project_calls


#: pessimistic per-call charge for a project-defined callee without a usable
#: bound (recursion cycle, ambiguous name or failed analysis); deliberately
#: far above any leaf bound of the bundled workloads so the summary-based
#: bound is strictly tighter than this fallback -- the interprocedural bound
#: must only ever get *tighter* than the calls-unknown fallback
DEFAULT_UNKNOWN_CALL_CYCLES = 4096


class CallGraphError(ProjectError):
    """Raised when the call graph cannot be assembled."""


@dataclass(frozen=True)
class CallGraphDiagnostic:
    """One resolution or recursion finding (informational, never fatal)."""

    #: "ambiguous-callee", "direct-recursion" or "call-cycle"
    kind: str
    #: qualified name of the function the diagnostic is anchored to
    function: str
    message: str

    def to_dict(self) -> dict[str, str]:
        return {"kind": self.kind, "function": self.function, "message": self.message}


@dataclass(frozen=True)
class CallEdge:
    """One resolved caller -> callee edge of the project call graph."""

    caller: str
    callee: str
    #: the syntactic name at the call sites (the callee's plain name)
    call_name: str
    #: number of syntactic call sites in the caller's body
    sites: int


@dataclass
class CallGraphNode:
    """One project function and its outgoing calls."""

    function: ProjectFunction
    calls: FunctionCalls
    #: call name -> qualified name of the resolved project callee
    resolved: dict[str, str] = field(default_factory=dict)
    #: callee names that resolve to no project definition (external calls)
    external: tuple[str, ...] = ()
    #: callee names defined in several other units (unresolvable, diagnosed)
    ambiguous: tuple[str, ...] = ()
    #: resolved same-unit callees that must be inlined rather than stubbed
    #: with a summary: the caller uses their return value, or they write a
    #: global the caller reads (set during graph construction, diagnosed)
    unsummarisable: tuple[str, ...] = ()

    @property
    def qualified_name(self) -> str:
        return self.function.qualified_name


class CallGraph:
    """The resolved call graph of a project's analyzable functions."""

    def __init__(self, nodes: list[CallGraphNode]):
        self._nodes: dict[str, CallGraphNode] = {
            node.qualified_name: node for node in nodes
        }
        self.diagnostics: list[CallGraphDiagnostic] = []
        self._sccs: list[list[str]] | None = None
        self._components: dict[str, int] | None = None
        self._collect_cycle_diagnostics()
        self._mark_unsummarisable_edges()

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_project(
        cls, project: Project, functions: list[ProjectFunction] | None = None
    ) -> "CallGraph":
        """Build and resolve the call graph of *project*.

        ``functions`` defaults to every analyzable function; passing a subset
        restricts the graph (callees outside the subset become external).
        """
        extracted = extract_project_calls(project, functions)
        by_name: dict[str, list[str]] = {}
        for calls in extracted:
            by_name.setdefault(calls.name, []).append(calls.qualified_name)
        by_unit: dict[tuple[str, str], str] = {
            (calls.unit, calls.name): calls.qualified_name for calls in extracted
        }

        nodes: list[CallGraphNode] = []
        ambiguous_diags: list[CallGraphDiagnostic] = []
        for calls in extracted:
            resolved: dict[str, str] = {}
            external: list[str] = []
            ambiguous: list[str] = []
            for callee_name in calls.sites:
                same_unit = by_unit.get((calls.unit, callee_name))
                if same_unit is not None:
                    resolved[callee_name] = same_unit
                    continue
                candidates = by_name.get(callee_name, [])
                if len(candidates) == 1:
                    resolved[callee_name] = candidates[0]
                elif len(candidates) > 1:
                    ambiguous.append(callee_name)
                    ambiguous_diags.append(
                        CallGraphDiagnostic(
                            kind="ambiguous-callee",
                            function=calls.qualified_name,
                            message=(
                                f"call to {callee_name!r} matches several units "
                                f"({', '.join(sorted(candidates))}); treated as "
                                "an external call"
                            ),
                        )
                    )
                else:
                    external.append(callee_name)
            nodes.append(
                CallGraphNode(
                    function=calls.function,
                    calls=calls,
                    resolved=resolved,
                    external=tuple(external),
                    ambiguous=tuple(ambiguous),
                )
            )
        graph = cls(nodes)
        graph.diagnostics.extend(ambiguous_diags)
        return graph

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #
    def node(self, qualified_name: str) -> CallGraphNode:
        try:
            return self._nodes[qualified_name]
        except KeyError as exc:
            raise CallGraphError(
                f"call graph has no function {qualified_name!r}"
            ) from exc

    def nodes(self) -> list[CallGraphNode]:
        return [self._nodes[name] for name in sorted(self._nodes)]

    def functions(self) -> list[ProjectFunction]:
        """Every function, in the project's canonical (unit, name) order."""
        return sorted(
            (node.function for node in self._nodes.values()),
            key=lambda f: (f.unit, f.name),
        )

    def edges(self) -> list[CallEdge]:
        """Every resolved edge, sorted by (caller, callee)."""
        edges = [
            CallEdge(
                caller=node.qualified_name,
                callee=callee,
                call_name=call_name,
                sites=node.calls.sites[call_name],
            )
            for node in self._nodes.values()
            for call_name, callee in node.resolved.items()
        ]
        return sorted(edges, key=lambda e: (e.caller, e.callee))

    def callees_of(self, qualified_name: str) -> list[str]:
        """Resolved callee qualified names, sorted and deduplicated."""
        return sorted(set(self.node(qualified_name).resolved.values()))

    # ------------------------------------------------------------------ #
    # strongly connected components and cycles
    # ------------------------------------------------------------------ #
    def sccs(self) -> list[list[str]]:
        """SCCs of the resolved graph, callees-first (reverse topological).

        Tarjan completes a component only after every component it can reach,
        so the emission order already has callee SCCs before caller SCCs --
        exactly the order transitive fingerprints and summary propagation
        need.  Members inside one SCC are sorted by qualified name.
        """
        if self._sccs is not None:
            return self._sccs
        index: dict[str, int] = {}
        lowlink: dict[str, int] = {}
        on_stack: set[str] = set()
        stack: list[str] = []
        sccs: list[list[str]] = []
        counter = 0

        for root in sorted(self._nodes):
            if root in index:
                continue
            work: list[tuple[str, list[str], int]] = [
                (root, self._successors(root), 0)
            ]
            while work:
                name, successors, pos = work.pop()
                if pos == 0:
                    index[name] = lowlink[name] = counter
                    counter += 1
                    stack.append(name)
                    on_stack.add(name)
                advanced = False
                for child_pos in range(pos, len(successors)):
                    child = successors[child_pos]
                    if child not in index:
                        work.append((name, successors, child_pos + 1))
                        work.append((child, self._successors(child), 0))
                        advanced = True
                        break
                    if child in on_stack:
                        lowlink[name] = min(lowlink[name], index[child])
                if advanced:
                    continue
                if lowlink[name] == index[name]:
                    component: list[str] = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == name:
                            break
                    sccs.append(sorted(component))
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[name])
        self._sccs = sccs
        return sccs

    def _successors(self, qualified_name: str) -> list[str]:
        return self.callees_of(qualified_name)

    def _component_of(self) -> dict[str, int]:
        """Cached qualified name -> SCC index mapping."""
        if self._components is None:
            self._components = {
                member: index
                for index, component in enumerate(self.sccs())
                for member in component
            }
        return self._components

    def _is_cyclic_component(self, component: list[str]) -> bool:
        if len(component) > 1:
            return True
        only = component[0]
        return only in self.node(only).resolved.values()

    def cycles(self) -> list[list[str]]:
        """Call cycles: multi-member SCCs and direct self-recursion."""
        return [scc for scc in self.sccs() if self._is_cyclic_component(scc)]

    def _collect_cycle_diagnostics(self) -> None:
        for component in self.cycles():
            if len(component) == 1:
                self.diagnostics.append(
                    CallGraphDiagnostic(
                        kind="direct-recursion",
                        function=component[0],
                        message=(
                            f"{component[0]} calls itself; recursive calls are "
                            "charged the pessimistic unknown-call cost instead "
                            "of a summary"
                        ),
                    )
                )
            else:
                chain = " -> ".join(component + [component[0]])
                for member in component:
                    self.diagnostics.append(
                        CallGraphDiagnostic(
                            kind="call-cycle",
                            function=member,
                            message=(
                                f"call cycle {chain}; calls inside the cycle "
                                "are charged the pessimistic unknown-call cost "
                                "instead of a summary"
                            ),
                        )
                    )

    def _mark_unsummarisable_edges(self) -> None:
        """Flag resolved same-unit callees that cannot be stubbed soundly.

        A summarised callee is replaced by a ``call_overhead + bound`` charge
        during the caller's measurement: its body does not run and its call
        sites evaluate to 0.  That is only sound when neither side can
        observe the difference, so an edge is kept *inline* (analysed in
        dependency order for caching, but executed for real on the caller's
        board) when the caller uses the callee's return value, when the
        callee -- transitively -- writes a unit global that the caller or
        one of its other callees reads (the stub would hide the write), or
        when the callee -- transitively -- reads a unit global that the
        caller or one of its other callees writes (the callee's standalone
        summary was measured without that state, so its bound need not
        cover the call-time behaviour).  Including the *sibling* callees'
        footprints catches ``setter(); reader();`` pairs coupled through a
        global the caller itself never mentions.  Cross-unit callees have
        disjoint global environments in this per-unit analysis model and
        cannot be value-used (the caller's unit types them ``void``), so
        only same-unit edges are checked; calls into the caller's own
        recursion cycle are excluded (they are charged the pessimistic
        unknown-call stub, as inlining would not terminate) -- but a
        recursive call whose *return value* is used gets an
        ``unsound-recursion`` diagnostic, since the stub's 0 result can
        corrupt the measured control flow and no sound treatment exists on
        this interpreter.
        """
        component_of = self._component_of()
        reaching_cycle = self.reaches_cycle()
        # footprint entries are (owning unit, global name): units have
        # disjoint global environments, so a bare-name match across units
        # (every generated unit calls its inputs in0/in1/...) is not coupling
        transitive_writes: dict[str, frozenset[tuple[str, str]]] = {}
        transitive_reads: dict[str, frozenset[tuple[str, str]]] = {}
        for component in self.sccs():  # callees first
            writes: set[tuple[str, str]] = set()
            reads: set[tuple[str, str]] = set()
            for member in component:
                unit = self._nodes[member].function.unit
                writes |= {
                    (unit, g) for g in self._nodes[member].calls.global_writes
                }
                reads |= {
                    (unit, g) for g in self._nodes[member].calls.global_reads
                }
                for callee in self.callees_of(member):
                    if component_of[callee] != component_of[member]:
                        writes |= transitive_writes[callee]
                        reads |= transitive_reads[callee]
            shared_writes = frozenset(writes)
            shared_reads = frozenset(reads)
            for member in component:
                transitive_writes[member] = shared_writes
                transitive_reads[member] = shared_reads

        for name in sorted(self._nodes):
            node = self._nodes[name]
            same_unit_callees = {
                callee
                for callee in node.resolved.values()
                if self._nodes[callee].function.unit == node.function.unit
            }
            unsafe: list[str] = []
            for call_name, callee in sorted(node.resolved.items()):
                if component_of[callee] == component_of[name]:
                    if call_name in node.calls.value_used:
                        self.diagnostics.append(
                            CallGraphDiagnostic(
                                kind="unsound-recursion",
                                function=name,
                                message=(
                                    f"recursive call to {call_name!r} in {name} "
                                    "uses its return value; the stub returns 0, "
                                    "so measured control flow may diverge from "
                                    "real execution and the bound is unreliable"
                                ),
                            )
                        )
                    continue
                if self._nodes[callee].function.unit != node.function.unit:
                    continue
                # the caller-side footprint: its own accesses plus whatever
                # its other callees touch transitively (sibling coupling)
                caller_unit = node.function.unit
                footprint_reads = {
                    (caller_unit, g) for g in node.calls.global_reads
                }
                footprint_writes = {
                    (caller_unit, g) for g in node.calls.global_writes
                }
                for sibling in same_unit_callees - {callee}:
                    footprint_reads |= transitive_reads[sibling]
                    footprint_writes |= transitive_writes[sibling]
                value_used = call_name in node.calls.value_used
                writes_read = transitive_writes[callee] & footprint_reads
                reads_written = transitive_reads[callee] & footprint_writes
                if not value_used and not writes_read and not reads_written:
                    continue
                if callee in reaching_cycle:
                    # inlining would execute real (non-terminating)
                    # recursion; keep the summary stub and warn instead
                    self.diagnostics.append(
                        CallGraphDiagnostic(
                            kind="unsound-recursion",
                            function=name,
                            message=(
                                f"call to {call_name!r} from {name} couples "
                                "with the caller but reaches a recursion "
                                "cycle, so it cannot be inlined; the summary "
                                "charge stays and the bound is unreliable"
                            ),
                        )
                    )
                    continue
                unsafe.append(call_name)
                if value_used:
                    reason = "its return value is used"
                elif writes_read:
                    reason = (
                        "it writes global(s) the caller or a sibling callee "
                        "reads: "
                        + ", ".join(sorted(g for _, g in writes_read))
                    )
                else:
                    reason = (
                        "it reads global(s) the caller or a sibling callee "
                        "writes: "
                        + ", ".join(sorted(g for _, g in reads_written))
                    )
                self.diagnostics.append(
                    CallGraphDiagnostic(
                        kind="inlined-callee",
                        function=name,
                        message=(
                            f"call to {call_name!r} from {name} cannot be "
                            f"summarised ({reason}); the callee is inlined "
                            "during measurement instead"
                        ),
                    )
                )
            node.unsummarisable = tuple(unsafe)

    # ------------------------------------------------------------------ #
    # scheduling support
    # ------------------------------------------------------------------ #
    def dependencies(self) -> dict[str, tuple[str, ...]]:
        """Acyclic caller -> callee dependency map (intra-SCC edges dropped)."""
        component_of = self._component_of()
        deps: dict[str, tuple[str, ...]] = {}
        for node in self.nodes():
            name = node.qualified_name
            deps[name] = tuple(
                callee
                for callee in self.callees_of(name)
                if component_of[callee] != component_of[name]
            )
        return deps

    def waves(self) -> list[list[str]]:
        """Topological waves: wave 0 is leaves, later waves their callers.

        Wave numbers are the dependency depth over :meth:`dependencies`
        (intra-cycle edges dropped).  The project scheduler runs exactly
        these waves, restricted to the run's functions, so this report
        always matches the executed schedule.
        """
        deps = self.dependencies()
        wave_of: dict[str, int] = {}
        for component in self.sccs():  # callees first
            for member in component:
                wave_of[member] = max(
                    (wave_of[callee] + 1 for callee in deps[member]), default=0
                )
        if not wave_of:
            return []
        waves: list[list[str]] = [[] for _ in range(max(wave_of.values()) + 1)]
        for name in sorted(wave_of):
            waves[wave_of[name]].append(name)
        return waves

    def reaches_cycle(self) -> frozenset[str]:
        """Functions whose resolved call closure contains a recursion cycle.

        Includes the cycle members themselves and every transitive caller;
        the scheduler disables the exhaustive end-to-end comparison for all
        of them, since its unstubbed verification board would execute the
        real (non-terminating) recursion.
        """
        component_of = self._component_of()
        reaches: dict[str, bool] = {}
        for component in self.sccs():  # callees first
            hit = self._is_cyclic_component(component) or any(
                reaches[callee]
                for member in component
                for callee in self.callees_of(member)
                if component_of[callee] != component_of[member]
            )
            for member in component:
                reaches[member] = hit
        return frozenset(name for name, flag in reaches.items() if flag)

    def cyclic_callee_names(self, qualified_name: str) -> tuple[str, ...]:
        """Call names of *qualified_name* that resolve into its own SCC."""
        component_of = self._component_of()
        node = self.node(qualified_name)
        return tuple(
            sorted(
                call_name
                for call_name, callee in node.resolved.items()
                if component_of[callee] == component_of[qualified_name]
            )
        )

    def charges(
        self,
        qualified_name: str,
        bounds: Mapping[str, int],
        unknown_call_cycles: int = DEFAULT_UNKNOWN_CALL_CYCLES,
    ) -> tuple[dict[str, int], int]:
        """Per-call-name charges of one function, and its summarised sites.

        ``bounds`` maps qualified names to completed WCET bounds.  A
        summarisable resolved callee is charged its bound; a call into the
        function's own recursion cycle, a callee without a bound and an
        ambiguous name are charged ``unknown_call_cycles``; an unsummarisable
        callee is left out, so the board inlines its real body.  The map is
        closed over those inlined bodies: the calls *they* make keep the
        charges they have in the callee's own analysis (set only where the
        function has none), and a name an inlined body needs executed for
        real is not stubbed either -- except a call into the function's own
        cycle, whose inlining would not terminate.

        The second value counts the function's own call sites charged with a
        genuine bound (pessimistic charges excluded).
        """
        own_cycle = self.cyclic_callee_names(qualified_name)
        charged: dict[str, int] = {}
        demanded_inline: set[str] = set()
        visited: set[str] = set()
        # the function itself first, then every body inlined on its board
        frontier = [qualified_name]
        while frontier:
            name = frontier.pop()
            if name in visited:
                continue
            visited.add(name)
            node = self.node(name)
            cyclic = self.cyclic_callee_names(name)
            for call_name, callee in sorted(node.resolved.items()):
                if call_name in node.unsummarisable:
                    continue
                if call_name in cyclic or callee not in bounds:
                    charged.setdefault(call_name, unknown_call_cycles)
                else:
                    charged.setdefault(call_name, bounds[callee])
            for call_name in node.ambiguous:
                charged.setdefault(call_name, unknown_call_cycles)
            demanded_inline.update(node.unsummarisable)
            frontier.extend(node.resolved[call] for call in node.unsummarisable)
        for call_name in demanded_inline - set(own_cycle):
            charged.pop(call_name, None)
        node = self.node(qualified_name)
        summarised_sites = sum(
            node.calls.sites[call_name]
            for call_name in charged
            if call_name in node.resolved
            and call_name not in own_cycle
            and node.resolved[call_name] in bounds
        )
        return charged, summarised_sites

    def closure(self, selected: Iterable[str]) -> list[ProjectFunction]:
        """The selected functions plus their transitive resolved callees.

        ``selected`` holds plain function names (matched across every
        unit); unknown names raise
        :class:`ProjectError`.  The result is sorted by (unit, name), the
        project's canonical function order.
        """
        wanted = set(selected)
        found = {node.function.name for node in self._nodes.values()}
        missing = wanted - found
        if missing:
            raise ProjectError(
                f"no function named {', '.join(sorted(missing))} in the project"
            )
        frontier = [
            name
            for name, node in self._nodes.items()
            if node.function.name in wanted
        ]
        included: set[str] = set()
        while frontier:
            name = frontier.pop()
            if name in included:
                continue
            included.add(name)
            frontier.extend(self.callees_of(name))
        return sorted(
            (self._nodes[name].function for name in included),
            key=lambda f: (f.unit, f.name),
        )

    # ------------------------------------------------------------------ #
    # transitive fingerprints
    # ------------------------------------------------------------------ #
    def transitive_fingerprints(
        self, unknown_call_cycles: int | None = None
    ) -> dict[str, str]:
        """SHA-256 fingerprints closed over resolved calls.

        A function's transitive fingerprint hashes its own content
        fingerprint, the transitive fingerprints of its out-of-cycle resolved
        callees, the content fingerprints of every member of its call cycle
        (when it is on one), and the *names* of its external and ambiguous
        callees (so a previously-external name that gains a project
        definition re-keys the caller).  Editing a leaf therefore changes the
        transitive fingerprint of exactly the leaf and its transitive
        callers.

        ``unknown_call_cycles`` is the pessimistic charge used for calls
        inside recursion cycles and for ambiguous callee names; it enters
        the fingerprint of every function whose bound depends on it --
        cyclic functions and functions with ambiguous callees (and,
        transitively, their callers) -- so re-running with a different
        charge cannot return stale cached bounds.  Projects without cycles
        or ambiguity are unaffected.
        """
        fingerprints: dict[str, str] = {}
        deps = self.dependencies()
        for component in self.sccs():  # callees first: deps already resolved
            cyclic = self._is_cyclic_component(component)
            for member in component:
                node = self._nodes[member]
                parts = [f"self:{node.function.fingerprint}"]
                if cyclic or node.ambiguous:
                    parts.append(f"unknown-call:{unknown_call_cycles}")
                if cyclic:
                    parts.extend(
                        f"cycle:{self._nodes[other].function.fingerprint}"
                        for other in component
                    )
                parts.extend(
                    f"callee:{fingerprints[callee]}"
                    for callee in deps[member]
                )
                parts.extend(f"external:{name}" for name in sorted(node.external))
                parts.extend(f"ambiguous:{name}" for name in sorted(node.ambiguous))
                digest = hashlib.sha256("\n".join(parts).encode("utf-8"))
                fingerprints[member] = digest.hexdigest()
        return fingerprints

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict[str, Any]:
        waves = self.waves()
        return {
            "functions": [
                {
                    "function": node.qualified_name,
                    "calls": {
                        call_name: {
                            "resolved": node.resolved.get(call_name),
                            "sites": sites,
                        }
                        for call_name, sites in sorted(node.calls.sites.items())
                    },
                    "external": sorted(node.external),
                    "inlined": sorted(node.unsummarisable),
                }
                for node in self.nodes()
            ],
            "edges": [
                {"caller": e.caller, "callee": e.callee, "sites": e.sites}
                for e in self.edges()
            ],
            "waves": waves,
            "cycles": self.cycles(),
            "diagnostics": [diag.to_dict() for diag in self.diagnostics],
        }

    def to_text(self) -> str:
        waves = self.waves()
        lines = [
            f"Call graph: {len(self._nodes)} function(s), "
            f"{len(self.edges())} resolved edge(s), {len(waves)} wave(s)"
        ]
        for index, wave in enumerate(waves):
            lines.append(f"  wave {index}:")
            for name in wave:
                node = self.node(name)
                callees = self.callees_of(name)
                called = ", ".join(callees) if callees else "-"
                lines.append(f"    {name:<28} calls: {called}")
                if node.external:
                    lines.append(
                        f"    {'':<28} external: {', '.join(sorted(node.external))}"
                    )
        for diag in self.diagnostics:
            lines.append(f"  [{diag.kind}] {diag.message}")
        return "\n".join(lines)
