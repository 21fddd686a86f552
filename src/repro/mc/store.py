"""Persistent per-``(slice fingerprint, goal)`` verdict store.

Without it every ``project`` run and every service job re-solves
reachability queries whose sliced transition systems have not changed.
This module persists verdicts *and witnesses* through the crash-safe
:class:`~repro.project.cache.ResultCache` (query namespace, see
:meth:`ResultCache.get_query`) keyed by the *content* fingerprint of
the sliced system (:func:`repro.mc.slicing.system_fingerprint`) and a
content fingerprint of the goal -- both independent of function names and
source locations, so hits survive edits outside the cone and transfer
across structurally identical functions.

Trust model: **nothing loaded from disk is believed without evidence.**

* REACHABLE entries carry the witness (initial state + trace step
  signatures); on load the witness is *replayed* against the current
  sliced system with the explicit engine's concrete semantics
  (:func:`~repro.mc.explicit.concrete_step`).  The verdict served is
  the replay's outcome, so a poisoned or stale entry can fail (a counted,
  flight-recorded miss) but can never change a verdict.
* UNREACHABLE entries are proofs over the sliced system; they carry a
  checksum over the canonical entry JSON and the fingerprints they claim
  to answer, so bit-rot and cross-key splicing are detected structurally.
* Before *writing*, the witness is replayed once as a self-check --
  everything in the store replays by construction, which is what makes a
  load-time replay failure hard evidence of tampering or corruption.

The store is handed to query engines ambiently (a ``contextvars`` context
manager, like :func:`repro.obs.using_registry`) so pool workers, service
jobs and the CLI all share one wiring idiom.
"""

from __future__ import annotations

import contextlib
import contextvars
import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Any

from ..solver.expression import EvaluationError
from .explicit import concrete_step
from .property import ReachabilityGoal
from .result import Counterexample, Verdict

#: format tag of one store entry (inside the cache's own schema envelope)
STORE_FORMAT = "repro-query-store/1"

#: verdicts worth persisting -- proofs and replayable witnesses only;
#: UNKNOWN / BUDGET_EXHAUSTED / ENGINE_FAULT are properties of one run's
#: budget or fault plan, not of the sliced system
_PERSISTENT_VERDICTS = (Verdict.REACHABLE, Verdict.UNREACHABLE)


def goal_fingerprint(goal: ReachabilityGoal) -> str:
    """Content hash of a goal's semantics (its ``description`` is ignored)."""
    digest = hashlib.sha256()
    digest.update(
        repr(
            (
                tuple(sorted(goal.target_locations)),
                tuple(sorted(goal.target_labels)),
                tuple(goal.ordered_labels),
            )
        ).encode("utf-8")
    )
    return digest.hexdigest()[:16]


def _entry_checksum(core: dict[str, Any]) -> str:
    canonical = json.dumps(core, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


# ---------------------------------------------------------------------- #
# witness (de)serialisation and replay
# ---------------------------------------------------------------------- #
def serialize_witness(system, witness: Counterexample) -> dict[str, Any] | None:
    """Serialise *witness* relative to *system* as plain JSON data.

    The initial state must cover every variable of the (sliced) *system* --
    those drive the replay -- and additionally keeps any other integer
    values the witness carried (off-cone variables of the producing
    function): loaders re-use them when their own full model knows the
    name, so a same-function warm hit reconstructs the cold result
    bit-for-bit, and sanitise or re-complete them otherwise.  Trace steps
    are ``(source, target, labels)`` signatures resolved against the
    *current* system on replay -- the stored step never carries semantics
    of its own.
    """
    initial_state: dict[str, int] = {}
    for name in sorted(system.variables):
        value = witness.initial_state.get(name)
        if not isinstance(value, int) or isinstance(value, bool):
            return None
        initial_state[name] = value
    for name in sorted(witness.initial_state):
        value = witness.initial_state[name]
        if name not in initial_state and isinstance(value, int) \
                and not isinstance(value, bool):
            initial_state[name] = value
    trace = [
        {
            "source": transition.source,
            "target": transition.target,
            "labels": list(transition.labels),
        }
        for transition in witness.trace
    ]
    return {"initial_state": initial_state, "trace": trace}


def replay_witness(
    system, goal: ReachabilityGoal, payload: Any
) -> Counterexample | None:
    """Re-execute a stored witness on *system*; ``None`` on any mismatch.

    Each step uses the explicit engine's concrete semantics
    (:func:`~repro.mc.explicit.concrete_step`); a step whose guard or
    update cannot be evaluated is a miss.  A successful replay is a
    genuine execution of the *current* system, so the REACHABLE verdict it
    supports is sound regardless of what the entry claimed.
    """
    if not isinstance(payload, dict):
        return None
    initial_state = payload.get("initial_state")
    trace_steps = payload.get("trace")
    if not isinstance(initial_state, dict) or not isinstance(trace_steps, list):
        return None
    # the replay needs (and validates) exactly the system's variables; any
    # extra stored values are the producer's off-cone state -- irrelevant
    # here, sanitised by the consumer before serving
    for name, variable in system.variables.items():
        value = initial_state.get(name)
        if not isinstance(value, int) or isinstance(value, bool):
            return None
        if not (variable.domain.lo <= value <= variable.domain.hi):
            return None
        if variable.initial is not None and value != variable.initial:
            return None

    by_signature: dict[tuple[int, int, tuple[str, ...]], list] = {}
    for transition in system.transitions:
        signature = (transition.source, transition.target, tuple(transition.labels))
        by_signature.setdefault(signature, []).append(transition)

    location = system.initial_location
    if not trace_steps:
        if not goal.is_trivially_reached_at(location):
            return None
        return _replayed_counterexample(system, initial_state, [])

    assignment = {name: initial_state[name] for name in system.variables}
    progress = 0
    trace = []
    for step in trace_steps:
        if not isinstance(step, dict):
            return None
        source = step.get("source")
        target = step.get("target")
        labels = step.get("labels")
        if (
            not isinstance(source, int)
            or not isinstance(target, int)
            or not isinstance(labels, list)
            or not all(isinstance(label, str) for label in labels)
        ):
            return None
        if source != location:
            return None
        candidates = by_signature.get((source, target, tuple(labels)), ())
        taken = None
        for transition in candidates:
            try:
                post = concrete_step(system, transition, assignment)
            except EvaluationError:
                return None
            if post is not None:
                taken, assignment = transition, post
                break
        if taken is None:
            return None
        location = taken.target
        progress = goal.progress_after(taken, progress)
        trace.append(taken)
    if not goal.satisfied(location, trace[-1], progress):
        return None
    return _replayed_counterexample(system, initial_state, trace)


def _replayed_counterexample(system, initial_state, trace) -> Counterexample:
    inputs = {
        name: initial_state[name]
        for name, variable in system.variables.items()
        if variable.is_input
    }
    return Counterexample(
        inputs=inputs, initial_state=dict(initial_state), trace=list(trace)
    )


# ---------------------------------------------------------------------- #
# entry packing / structural validation
# ---------------------------------------------------------------------- #
def pack_entry(
    slice_fingerprint: str,
    goal_fp: str,
    verdict: Verdict,
    witness: dict[str, Any] | None,
) -> dict[str, Any]:
    core = {
        "format": STORE_FORMAT,
        "slice_fingerprint": slice_fingerprint,
        "goal_fingerprint": goal_fp,
        "verdict": verdict.value,
        "witness": witness,
    }
    return {**core, "checksum": _entry_checksum(core)}


def structural_error(
    entry: Any,
    slice_fingerprint: str | None = None,
    goal_fp: str | None = None,
) -> str | None:
    """Offline validity check of one store entry (no system needed).

    Used both on the load path (before replay) and by the ``cache-verify``
    sweep; returns a human-readable reason or ``None`` when the entry is
    structurally sound.
    """
    if not isinstance(entry, dict):
        return "entry is not an object"
    if entry.get("format") != STORE_FORMAT:
        return f"unknown store format {entry.get('format')!r}"
    core = {key: value for key, value in entry.items() if key != "checksum"}
    if entry.get("checksum") != _entry_checksum(core):
        return "checksum mismatch"
    if slice_fingerprint is not None and entry.get("slice_fingerprint") != slice_fingerprint:
        return "slice fingerprint mismatch"
    if goal_fp is not None and entry.get("goal_fingerprint") != goal_fp:
        return "goal fingerprint mismatch"
    verdict = entry.get("verdict")
    if verdict == Verdict.UNREACHABLE.value:
        if entry.get("witness") is not None:
            return "unreachable entry carries a witness"
        return None
    if verdict != Verdict.REACHABLE.value:
        return f"non-persistable verdict {verdict!r}"
    witness = entry.get("witness")
    if not isinstance(witness, dict):
        return "reachable entry without witness"
    trace = witness.get("trace")
    if not isinstance(witness.get("initial_state"), dict) or not isinstance(trace, list):
        return "malformed witness"
    location = None
    for step in trace:
        if not isinstance(step, dict):
            return "malformed trace step"
        if location is not None and step.get("source") != location:
            return "trace steps do not chain"
        location = step.get("target")
    return None


# ---------------------------------------------------------------------- #
# the store
# ---------------------------------------------------------------------- #
@dataclass
class QueryStoreStats:
    """Counters of one store handle (engines count their share per batch)."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    replay_failures: int = 0

    def as_dict(self) -> dict[str, int]:
        return dataclasses.asdict(self)


class QueryStore:
    """Persistent verdict/witness store over a result cache's query namespace.

    ``cache`` is duck-typed (anything exposing ``query_key_for`` /
    ``get_query`` / ``put_query`` / ``quarantine_query``); in practice it is
    the scheduler's :class:`~repro.project.cache.ResultCache`, so query
    entries inherit its crash-safety, fault-injection sites and
    quarantine machinery.
    """

    def __init__(self, cache):
        self._cache = cache
        self.stats = QueryStoreStats()
        #: diagnostics of load-time replay failures (flight-dumped by the
        #: scheduler: replay failure means a poisoned or stale entry)
        self.replay_failures: list[dict[str, Any]] = []

    # ------------------------------------------------------------------ #
    def load(
        self, slice_fingerprint: str, goal: ReachabilityGoal, system
    ) -> tuple[Verdict, Counterexample | None] | None:
        """Look up a persisted verdict; replay-validate witnesses.

        Returns ``(verdict, counterexample)`` or ``None`` for a miss.  Any
        structural or replay problem is a miss -- never a wrong verdict.
        """
        goal_fp = goal_fingerprint(goal)
        key = self._cache.query_key_for(slice_fingerprint, goal_fp)
        entry = self._cache.get_query(key)
        if entry is None:
            return self._miss()
        reason = structural_error(entry, slice_fingerprint, goal_fp)
        if reason is not None:
            self._reject(key, goal, reason)
            return self._miss()
        if entry["verdict"] == Verdict.UNREACHABLE.value:
            self.stats.hits += 1
            return Verdict.UNREACHABLE, None
        witness = replay_witness(system, goal, entry["witness"])
        if witness is None:
            self._reject(key, goal, "witness replay failed")
            return self._miss()
        self.stats.hits += 1
        return Verdict.REACHABLE, witness

    def save(
        self,
        slice_fingerprint: str,
        goal: ReachabilityGoal,
        system,
        verdict: Verdict,
        counterexample: Counterexample | None,
    ) -> bool:
        """Persist a proof or witness; self-validate by replay before writing."""
        if verdict not in _PERSISTENT_VERDICTS:
            return False
        witness_payload = None
        if verdict is Verdict.REACHABLE:
            if counterexample is None:
                return False
            witness_payload = serialize_witness(system, counterexample)
            if witness_payload is None:
                return False
            # the write-side self-check: only entries that replay on the
            # system they are keyed by enter the store
            if replay_witness(system, goal, witness_payload) is None:
                return False
        goal_fp = goal_fingerprint(goal)
        key = self._cache.query_key_for(slice_fingerprint, goal_fp)
        entry = pack_entry(slice_fingerprint, goal_fp, verdict, witness_payload)
        if not self._cache.put_query(key, entry):
            return False
        self.stats.writes += 1
        return True

    # ------------------------------------------------------------------ #
    def _miss(self) -> None:
        self.stats.misses += 1
        return None

    def _reject(self, key: str, goal: ReachabilityGoal, reason: str) -> None:
        self.stats.replay_failures += 1
        self.replay_failures.append(
            {"key": key, "goal": goal.description, "reason": reason}
        )
        quarantine = getattr(self._cache, "quarantine_query", None)
        if quarantine is not None:
            quarantine(key, reason)


# ---------------------------------------------------------------------- #
# ambient wiring (mirrors repro.obs.using_registry)
# ---------------------------------------------------------------------- #
_ACTIVE_STORE: contextvars.ContextVar[QueryStore | None] = contextvars.ContextVar(
    "repro_query_store", default=None
)


def active_query_store() -> QueryStore | None:
    """The store query engines in this context persist through (if any)."""
    return _ACTIVE_STORE.get()


@contextlib.contextmanager
def using_query_store(store: QueryStore | None):
    """Make *store* the ambient query store within the ``with`` block."""
    token = _ACTIVE_STORE.set(store)
    try:
        yield store
    finally:
        _ACTIVE_STORE.reset(token)
