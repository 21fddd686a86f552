"""Persistent on-disk cache of per-function analysis results.

Results are keyed by a SHA-256 over three components:

* the cache schema version (bumping :data:`CACHE_SCHEMA` invalidates
  everything after an incompatible format change),
* the function's *transitive* fingerprint -- its content fingerprint
  (file-scope environment + pretty-printed body, see
  :func:`repro.project.model.function_fingerprint`) closed over the content
  of every resolved callee (see
  :meth:`repro.callgraph.graph.CallGraph.transitive_fingerprints`), so
  editing a leaf callee invalidates exactly the leaf plus its transitive
  callers -- and
* the fingerprint of the :class:`~repro.pipeline.analyzer.AnalyzerConfig`.

Each entry is one small JSON file ``<root>/<key[:2]>/<key>.json`` holding a
:class:`~repro.project.report.FunctionSummary` payload; the two-character
shard keeps directories small for big projects.

Crash safety
------------
Writes are atomic (temp file + ``os.replace``) and serialised against other
writers of the same cache directory by an advisory ``flock`` on
``<root>/.lock``, so parallel runs sharing a cache never observe torn
entries.  Entries that are nevertheless unreadable -- a torn write from a
killed process, bit rot, a hostile edit -- are *quarantined*: moved to the
``corrupt/`` sibling directory next to a ``*.diag.json`` note, and counted
(``project.cache.quarantined``), so a bad entry can never poison a run twice
and the evidence survives for inspection.  Schema-mismatched entries are a
plain miss and are left in place (they belong to another code version).

Write failures are never silent: they are swallowed (the cache is an
optimization; an unwritable directory must not discard results), but counted
per instance (:attr:`ResultCache.write_failures`) and globally
(``project.cache.write_failures``), and the first failure records a
warn-once diagnostic the scheduler copies onto the project report.  No
``.tmp`` file is left behind on any failure path.  :meth:`ResultCache.verify`
sweeps the whole store on demand (CLI ``cache-verify``).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

from .. import obs
from ..pipeline.analyzer import AnalyzerConfig
from ..resilience import FaultInjector, FaultKind, InjectedFault
from .model import config_fingerprint
from .report import FunctionSummary

try:  # advisory locking is POSIX-only; the cache degrades to lockless
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

#: schema tag stored in (and required of) every cache entry; /2 added the
#: interprocedural summary fields and switched keys to transitive
#: fingerprints; /3 added budget-exhaustion counts to generator statistics;
#: /4 added the resilience fields (degraded/quarantined/retries) to
#: :class:`FunctionSummary` payloads; /5 added the ``kind`` discriminator
#: and the model-checking query namespace (persisted per-(slice, goal)
#: verdicts + witnesses, see :mod:`repro.mc.store`); /6 added the
#: static-analysis fields (sa_diagnostics/sa_edges_pruned/
#: sa_loop_bounds_inferred) to :class:`FunctionSummary` payloads; /7 marks
#: results of the random -> model checking -> genetic phase order (generator
#: statistics and partially-covered-segment pessimisation differ from /6)
CACHE_SCHEMA = "repro-project-cache/7"

#: sibling directory quarantined (corrupt) entries are moved into
CORRUPT_DIR = "corrupt"


#: the per-instance I/O counters :meth:`ResultCache.absorb` folds together
_IO_COUNTERS = (
    "hits",
    "misses",
    "query_hits",
    "query_misses",
    "write_failures",
    "read_failures",
    "quarantined",
    "schema_mismatches",
)


class ResultCache:
    """Content-addressed store of :class:`FunctionSummary` results."""

    def __init__(self, root: str | Path | None, enabled: bool = True):
        self._root = Path(root) if root is not None else None
        self.enabled = enabled and self._root is not None
        self.hits = 0
        self.misses = 0
        #: query-namespace lookups (kept apart from the function-level
        #: ``hits``/``misses``, which feed the project report's cache stats)
        self.query_hits = 0
        self.query_misses = 0
        self.write_failures = 0
        self.read_failures = 0
        self.quarantined = 0
        #: entries skipped because they carry another code version's schema
        #: (a plain miss, counted separately from corruption for operators)
        self.schema_mismatches = 0
        #: warn-once diagnostics (first write failure, quarantines, ...)
        self.diagnostics: list[str] = []
        #: the warn-once diagnostic of the first write failure (None = none)
        self._write_warning: str | None = None
        #: injector for the ``cache.read`` / ``cache.write`` fault sites
        #: (attached by the scheduler or CLI in chaos runs)
        self.fault_injector: FaultInjector | None = None

    # ------------------------------------------------------------------ #
    @classmethod
    def disabled(cls) -> "ResultCache":
        return cls(root=None, enabled=False)

    @property
    def root(self) -> Path | None:
        return self._root

    # ------------------------------------------------------------------ #
    def key_for(self, function_fingerprint: str, config: AnalyzerConfig) -> str:
        """Cache key of one (function content, analyzer config) pair."""
        digest = hashlib.sha256(
            "\n".join(
                [CACHE_SCHEMA, function_fingerprint, config_fingerprint(config)]
            ).encode("utf-8")
        )
        return digest.hexdigest()

    def query_key_for(self, slice_fingerprint: str, goal_fingerprint: str) -> str:
        """Cache key of one (sliced system, goal) model-checking query.

        The ``"query"`` component namespaces these keys away from the
        function-level ones, so both kinds share one directory, lock and
        quarantine machinery without ever colliding.
        """
        digest = hashlib.sha256(
            "\n".join(
                [CACHE_SCHEMA, "query", slice_fingerprint, goal_fingerprint]
            ).encode("utf-8")
        )
        return digest.hexdigest()

    def path_for(self, key: str) -> Path:
        if self._root is None:
            raise ValueError("cache has no root directory")
        return self._root / key[:2] / f"{key}.json"

    # ------------------------------------------------------------------ #
    def _maybe_fault(self, site: str, key: str):
        if self.fault_injector is None:
            return None
        return self.fault_injector.check(site, key)

    def _lock(self):
        """Advisory exclusive lock on ``<root>/.lock`` (context manager)."""
        return _CacheLock(self._root)

    # ------------------------------------------------------------------ #
    def get(self, key: str) -> FunctionSummary | None:
        """Load the summary stored under *key*, or ``None`` on a miss.

        Unreadable I/O (real or injected) counts ``read_failures`` and reads
        as a miss; a corrupt entry is quarantined and reads as a miss.
        """
        if not self.enabled:
            return None
        summary = self._fetch(key, "function")
        if summary is None:
            self.misses += 1
            obs.count("project.cache.misses")
            return None
        self.hits += 1
        obs.count("project.cache.hits")
        summary.from_cache = True
        return summary

    def _fetch(self, key: str, kind: str):
        """:meth:`_read` behind the ``cache.read`` fault site and span."""
        try:
            spec = self._maybe_fault("cache.read", key)
            corrupt = spec is not None and spec.kind is FaultKind.CORRUPT
            with obs.stage("cache.read", key=key[:12]):
                return self._read(key, kind, force_corrupt=corrupt)
        except InjectedFault as fault:
            self._read_failed(key, fault)
            return None

    def _read(self, key: str, kind: str, force_corrupt: bool = False):
        """Decode the *kind* entry under *key*: the one read path.

        Returns a :class:`FunctionSummary` (``"function"``) or the raw entry
        object (``"query"``), or ``None`` on a miss.  An entry without a
        ``kind`` is a function entry.
        """
        path = self.path_for(key)
        try:
            text = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return None
        except OSError as error:
            self._read_failed(key, error)
            return None
        if force_corrupt:
            # a CORRUPT fault at cache.read simulates a torn entry being
            # discovered at read time: garble the bytes we just read
            text = text[: max(1, len(text) // 2)]
        try:
            payload = json.loads(text)
        except ValueError as error:
            self._quarantine(path, key, f"unparsable JSON: {error}")
            return None
        if not isinstance(payload, dict):
            self._quarantine(path, key, "payload is not a JSON object")
            return None
        if (
            payload.get("schema") != CACHE_SCHEMA
            or payload.get("kind", "function") != kind
        ):
            # a different (older/newer) code version's entry, or the other
            # namespace's under this key (impossible by construction): a
            # miss, not corruption
            self.schema_mismatches += 1
            obs.count("project.cache.schema_mismatches")
            return None
        if kind == "query":
            entry = payload.get("entry")
            if not isinstance(entry, dict):
                self._quarantine(path, key, "query entry has no entry object")
                return None
            return entry
        summary = payload.get("summary")
        if not isinstance(summary, dict):
            self._quarantine(path, key, "entry has no summary object")
            return None
        try:
            return FunctionSummary.from_dict(summary)
        except TypeError as error:
            self._quarantine(path, key, f"summary payload malformed: {error}")
            return None

    def _read_failed(self, key: str, error: Exception) -> None:
        self.read_failures += 1
        obs.count("project.cache.read_failures")
        self.diagnostics.append(f"cache read failed for {key[:12]}…: {error}")

    # ------------------------------------------------------------------ #
    def put(self, key: str, summary: FunctionSummary) -> None:
        """Store *summary* under *key* (atomic; no-op when disabled).

        The cache is an optimization: an unwritable directory must not
        discard the analysis results it was asked to remember, so storage
        failures are swallowed -- but counted (``write_failures`` /
        ``project.cache.write_failures``) and surfaced once as a diagnostic,
        and no temp file survives the failure.
        """
        if not self.enabled:
            return
        text = json.dumps(
            {
                "schema": CACHE_SCHEMA,
                "key": key,
                "kind": "function",
                "summary": summary.result_payload(),
            },
            indent=2,
        )
        self._store_text(key, text)

    def _store_text(self, key: str, text: str) -> bool:
        """Atomically persist one entry's JSON text (shared by both kinds)."""
        path = self.path_for(key)
        try:
            with obs.stage("cache.write", key=key[:12]), self._lock():
                path.parent.mkdir(parents=True, exist_ok=True)
                handle = tempfile.NamedTemporaryFile(
                    "w",
                    dir=path.parent,
                    prefix=f".{key[:8]}-",
                    suffix=".tmp",
                    delete=False,
                    encoding="utf-8",
                )
                try:
                    spec = self._maybe_fault("cache.write", key)
                    if spec is not None and spec.kind is FaultKind.CORRUPT:
                        # simulate a torn write: persist a truncated entry
                        text = text[: max(1, len(text) // 2)]
                    with handle:
                        handle.write(text)
                        handle.write("\n")
                    os.replace(handle.name, path)
                except BaseException:
                    os.unlink(handle.name)
                    raise
        except (OSError, InjectedFault) as error:
            self.write_failures += 1
            obs.count("project.cache.write_failures")
            if self._write_warning is None:
                self._write_warning = (
                    f"cache writes are failing (first: {key[:12]}…: {error}); "
                    "results are kept in memory but will not be reused"
                )
                self.diagnostics.append(self._write_warning)
            return False
        obs.count("project.cache.stores")
        return True

    # ------------------------------------------------------------------ #
    # the model-checking query namespace (see repro.mc.store)
    # ------------------------------------------------------------------ #
    def get_query(self, key: str) -> dict | None:
        """Load the raw query-store entry under *key*, or ``None`` on a miss.

        Mirrors :meth:`get` (fault site, span, quarantine on corruption) but
        hands back the raw entry object: *semantic* validation -- checksum,
        fingerprint echo, witness replay -- belongs to
        :class:`repro.mc.store.QueryStore`, which treats anything invalid
        as a miss and quarantines it via :meth:`quarantine_query`.
        """
        if not self.enabled:
            return None
        entry = self._fetch(key, "query")
        if entry is None:
            self.query_misses += 1
            obs.count("project.cache.query_misses")
            return None
        self.query_hits += 1
        obs.count("project.cache.query_hits")
        return entry

    def put_query(self, key: str, entry: dict) -> bool:
        """Store one query-store entry (atomic; ``False`` when not stored)."""
        if not self.enabled:
            return False
        text = json.dumps(
            {"schema": CACHE_SCHEMA, "key": key, "kind": "query", "entry": entry},
            indent=2,
        )
        return self._store_text(key, text)

    def quarantine_query(self, key: str, reason: str) -> None:
        """Quarantine the query entry under *key* (e.g. failed witness replay)."""
        if not self.enabled:
            return
        path = self.path_for(key)
        if path.is_file():
            self._quarantine(path, key, reason)

    # ------------------------------------------------------------------ #
    def etag(self, key: str) -> str | None:
        """The HTTP entity tag of the entry stored under *key*, if any.

        The store is content-addressed -- the key already commits to the
        schema version, the function's transitive fingerprint and the
        analyzer config -- so the key *is* the strong validator: an entry
        can never change behind an unchanged key, only appear or vanish.
        Returns ``None`` when no entry exists (or caching is disabled).
        """
        if not self.enabled:
            return None
        return key if self.path_for(key).is_file() else None

    def stats(self) -> dict[str, object]:
        """Operational snapshot: store size on disk plus per-instance counts.

        ``entries``/``bytes`` walk the shard directories (cheap for the
        store sizes one daemon accumulates); the remaining fields are the
        counters this instance accumulated since it was opened, with
        schema-mismatched reads reported distinctly from corrupt ones.
        """
        entries = 0
        total_bytes = 0
        if self.enabled and self._root is not None and self._root.is_dir():
            for shard in self._root.iterdir():
                if not shard.is_dir() or shard.name == CORRUPT_DIR:
                    continue
                for path in shard.glob("*.json"):
                    try:
                        total_bytes += path.stat().st_size
                    except OSError:
                        continue
                    entries += 1
        return {
            "enabled": self.enabled,
            "directory": str(self._root) if self._root else None,
            "entries": entries,
            "bytes": total_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "query_hits": self.query_hits,
            "query_misses": self.query_misses,
            "write_failures": self.write_failures,
            "read_failures": self.read_failures,
            "schema_mismatches": self.schema_mismatches,
            "quarantined": self.quarantined,
        }

    def io_counts(self) -> dict[str, object]:
        """This instance's I/O counters and diagnostics, for :meth:`absorb`."""
        counts: dict[str, object] = {
            name: getattr(self, name) for name in _IO_COUNTERS
        }
        counts["diagnostics"] = list(self.diagnostics)
        counts["write_warning"] = self._write_warning
        return counts

    def absorb(self, counts: dict[str, object]) -> None:
        """Fold another instance's :meth:`io_counts` over the same store in.

        Scheduler attempts open their own instance on this cache's root;
        their counts land here, and the write-failure warning stays
        warn-once across all of them.
        """
        for name in _IO_COUNTERS:
            setattr(self, name, getattr(self, name) + counts[name])
        for line in counts["diagnostics"]:
            if line == counts["write_warning"]:
                if self._write_warning is not None:
                    continue
                self._write_warning = line
            self.diagnostics.append(line)

    # ------------------------------------------------------------------ #
    def _quarantine(self, path: Path, key: str, reason: str) -> None:
        """Move a corrupt entry to ``corrupt/`` with a diagnostic note."""
        assert self._root is not None
        target_dir = self._root / CORRUPT_DIR
        try:
            with self._lock():
                target_dir.mkdir(parents=True, exist_ok=True)
                target = target_dir / path.name
                os.replace(path, target)
                diag = target_dir / f"{path.stem}.diag.json"
                diag.write_text(
                    json.dumps({"key": key, "reason": reason}, indent=2) + "\n",
                    encoding="utf-8",
                )
        except OSError:
            # quarantine is best-effort; the entry still reads as a miss
            pass
        self.quarantined += 1
        obs.count("project.cache.quarantined")
        self.diagnostics.append(
            f"quarantined corrupt cache entry {key[:12]}…: {reason}"
        )

    def verify(self) -> dict[str, object]:
        """Sweep every entry of both kinds, quarantining corrupt ones.

        Function entries are checked by re-reading them; query entries get
        the offline structural validation of :mod:`repro.mc.store`
        (checksum over the canonical entry, verdict/witness shape, trace
        chaining) -- witness *replay* needs the sliced system and happens
        on the load path instead.  Returns ``{"checked": n, "ok": n,
        "quarantined": n, "schema_mismatch": n, "query_checked": n,
        "query_ok": n, "query_quarantined": n, "entries": [...]}``.
        """
        report: dict[str, object] = {
            "checked": 0,
            "ok": 0,
            "quarantined": 0,
            "schema_mismatch": 0,
            "query_checked": 0,
            "query_ok": 0,
            "query_quarantined": 0,
            "entries": [],
        }
        if not self.enabled or self._root is None or not self._root.is_dir():
            return report
        from ..mc.store import structural_error

        notes: list[str] = report["entries"]  # type: ignore[assignment]
        for shard in sorted(self._root.iterdir()):
            if not shard.is_dir() or shard.name == CORRUPT_DIR:
                continue
            for path in sorted(shard.glob("*.json")):
                key = path.stem
                report["checked"] = int(report["checked"]) + 1
                is_query = self._entry_kind(path) == "query"
                if is_query:
                    report["query_checked"] = int(report["query_checked"]) + 1
                quarantined_before = self.quarantined
                entry = self._read(key, "query" if is_query else "function")
                if is_query and entry is not None:
                    reason = structural_error(entry)
                    if reason is not None:
                        self._quarantine(
                            path, key, f"query entry invalid: {reason}"
                        )
                        entry = None
                ok = entry is not None
                if ok and is_query:
                    report["query_ok"] = int(report["query_ok"]) + 1
                if ok:
                    report["ok"] = int(report["ok"]) + 1
                elif self.quarantined > quarantined_before:
                    report["quarantined"] = int(report["quarantined"]) + 1
                    if is_query:
                        report["query_quarantined"] = (
                            int(report["query_quarantined"]) + 1
                        )
                    notes.append(self.diagnostics[-1])
                else:
                    report["schema_mismatch"] = int(report["schema_mismatch"]) + 1
                    notes.append(f"schema mismatch (stale version): {key[:12]}…")
        obs.count("project.cache.verified_entries", int(report["checked"]))
        return report

    def _entry_kind(self, path: Path) -> str | None:
        """Best-effort ``kind`` discriminator of one entry file."""
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        if not isinstance(payload, dict):
            return None
        kind = payload.get("kind", "function")
        return kind if isinstance(kind, str) else None


class _CacheLock:
    """Advisory exclusive ``flock`` on ``<root>/.lock`` (best-effort)."""

    def __init__(self, root: Path | None):
        self._root = root
        self._handle = None

    def __enter__(self):
        if fcntl is None or self._root is None:
            return self
        try:
            self._root.mkdir(parents=True, exist_ok=True)
            self._handle = open(self._root / ".lock", "a+")
            fcntl.flock(self._handle.fileno(), fcntl.LOCK_EX)
        except OSError:
            # lockless operation beats failing the write outright
            if self._handle is not None:
                self._handle.close()
                self._handle = None
        return self

    def __exit__(self, *exc_info):
        if self._handle is not None:
            try:
                fcntl.flock(self._handle.fileno(), fcntl.LOCK_UN)
            except OSError:  # pragma: no cover - unlock cannot really fail
                pass
            self._handle.close()
            self._handle = None
        return False
