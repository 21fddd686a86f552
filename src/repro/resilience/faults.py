"""Deterministic fault injection for the whole-project pipeline.

Chaos testing a WCET analyzer only proves something if every injected fault
is *reproducible*: the same :class:`FaultPlan` (seed + specs) must trip the
same faults at the same places regardless of worker count or pool
scheduling.  Three design rules make that true:

* **Site-addressed injection points.**  Faults fire at named sites --
  :data:`SITES` lists the supported ones (``cache.read``, ``cache.write``,
  ``pool.submit``, ``job.execute``, ``mc.solve``, ``interp.step``,
  ``service.request``) -- and a spec only ever fires at its own site.
* **Deterministic hit selection.**  ``@N`` specs count *hits of the owning
  injector*; the scheduler counts scheduler-side sites (cache, pool, job
  dispatch) in job order, and ships a per-job sub-plan into each job so
  job-internal sites (``mc.solve``, ``interp.step``) count hits of that
  job's own deterministic execution.  ``rate=P`` specs do not consume a
  shared random stream: the decision is a pure hash of
  ``(plan seed, site, key, hit index)``, so it is identical whether jobs
  run serially, on two workers or on twenty.
* **Typed failures.**  A firing ``raise`` spec raises :class:`InjectedFault`
  -- its own exception type, so product code can treat injected faults as
  the transient infrastructure failures they simulate without ever masking
  a genuine bug, and tests can assert on exactly what fired.

Spec syntax (the CLI's ``--inject-fault SITE:SPEC``)::

    cache.write:raise@2        raise on the 2nd hit of the site
    cache.write:raise@2x3      raise on hits 2, 3 and 4
    job.execute:raise@3+       raise on every hit from the 3rd on
    job.execute:rate=0.1       raise on ~10% of hits (seeded, deterministic)
    interp.step:delay=5@1      sleep 5 ms on the 1st hit
    cache.write:corrupt@1      corrupt the payload of the 1st hit
    mc.solve:raise             raise on every hit
"""

from __future__ import annotations

import contextlib
import enum
import hashlib
import time
from dataclasses import dataclass, field

from .. import obs

#: the injection points the pipeline exposes; ``service.request`` fires in
#: the analysis daemon's request dispatch (:mod:`repro.service`) and must
#: surface as a well-formed retryable HTTP error, never a hung connection
SITES = frozenset(
    {
        "cache.read",
        "cache.write",
        "pool.submit",
        "job.execute",
        "mc.solve",
        "interp.step",
        "service.request",
    }
)

#: sites whose hits happen *inside* a job's own execution (counted per job)
JOB_SITES = frozenset({"job.execute", "mc.solve", "interp.step"})


class FaultPlanError(ValueError):
    """Raised for an unparsable or unknown ``--inject-fault`` spec."""


class InjectedFault(Exception):
    """A deliberately injected failure (never raised by real logic)."""

    def __init__(self, site: str, description: str, hit: int):
        super().__init__(f"injected fault at {site} (hit {hit}): {description}")
        self.site = site
        self.description = description
        self.hit = hit

    def __reduce__(self):
        # the default Exception reduction replays ``args`` (the formatted
        # message) into ``__init__``, which takes three arguments -- an
        # injected fault crossing a process-pool boundary must unpickle
        return (InjectedFault, (self.site, self.description, self.hit))


class FaultKind(enum.Enum):
    RAISE = "raise"
    DELAY = "delay"
    CORRUPT = "corrupt"


@dataclass(frozen=True)
class FaultSpec:
    """One parsed ``SITE:SPEC`` injection rule."""

    site: str
    kind: FaultKind
    #: 1-based first hit the spec fires on (None with ``rate``)
    nth: int | None = 1
    #: number of consecutive hits affected from ``nth`` on (0 = unbounded)
    times: int = 0
    #: independent per-hit firing probability (replaces nth/times)
    rate: float | None = None
    #: sleep duration of DELAY faults
    delay_ms: int = 0

    # ------------------------------------------------------------------ #
    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        """Parse ``SITE:KIND[=ARG][@N[xT|+]]`` (see the module docstring)."""
        site, sep, spec = text.partition(":")
        if not sep or not spec:
            raise FaultPlanError(
                f"fault spec {text!r} is not of the form SITE:SPEC"
            )
        if site not in SITES:
            raise FaultPlanError(
                f"unknown fault site {site!r} (expected one of "
                f"{', '.join(sorted(SITES))})"
            )
        body, _, hits = spec.partition("@")
        kind_text, _, arg = body.partition("=")
        try:
            kind = FaultKind(kind_text)
        except ValueError as exc:
            raise FaultPlanError(
                f"unknown fault kind {kind_text!r} in {text!r} "
                "(expected raise, delay or corrupt)"
            ) from exc

        delay_ms = 0
        if kind is FaultKind.DELAY:
            try:
                delay_ms = int(arg)
            except ValueError as exc:
                raise FaultPlanError(
                    f"delay fault {text!r} needs delay=MILLISECONDS"
                ) from exc
        elif arg:
            raise FaultPlanError(
                f"{kind.value} faults take no argument ({text!r})"
            )

        nth: int | None = 1
        times = 0
        if hits:
            if hits.endswith("+"):
                hits, times = hits[:-1], 0
            elif "x" in hits:
                hits, _, count = hits.partition("x")
                try:
                    times = int(count)
                except ValueError as exc:
                    raise FaultPlanError(f"bad repeat count in {text!r}") from exc
            else:
                times = 1
            try:
                nth = int(hits)
            except ValueError as exc:
                raise FaultPlanError(f"bad hit index in {text!r}") from exc
            if nth < 1:
                raise FaultPlanError(f"hit index must be >= 1 in {text!r}")
        return cls(
            site=site, kind=kind, nth=nth, times=times, rate=None, delay_ms=delay_ms
        )

    @classmethod
    def parse_any(cls, text: str) -> "FaultSpec":
        """Parse either the positional grammar or the ``rate=P`` form."""
        site, _, spec = text.partition(":")
        body = spec.partition("@")[0]
        if body.startswith("rate="):
            if site not in SITES:
                raise FaultPlanError(
                    f"unknown fault site {site!r} (expected one of "
                    f"{', '.join(sorted(SITES))})"
                )
            try:
                rate = float(body[len("rate="):])
            except ValueError as exc:
                raise FaultPlanError(f"bad rate in {text!r}") from exc
            if not 0.0 <= rate <= 1.0:
                raise FaultPlanError(f"rate must be in [0, 1] in {text!r}")
            return cls(site=site, kind=FaultKind.RAISE, nth=None, rate=rate)
        return cls.parse(text)

    # ------------------------------------------------------------------ #
    def describe(self) -> str:
        if self.rate is not None:
            return f"{self.site}:rate={self.rate}"
        suffix = ""
        if self.nth is not None:
            if self.times == 1:
                suffix = f"@{self.nth}"
            elif self.times == 0:
                suffix = f"@{self.nth}+" if self.nth > 1 else ""
            else:
                suffix = f"@{self.nth}x{self.times}"
        arg = f"={self.delay_ms}" if self.kind is FaultKind.DELAY else ""
        return f"{self.site}:{self.kind.value}{arg}{suffix}"

    def fires_on(self, hit: int, seed: int, key: str) -> bool:
        """Whether this spec fires on *hit* (1-based) of its site."""
        if self.rate is not None:
            digest = hashlib.sha256(
                f"{seed}|{self.site}|{key}|{hit}".encode("utf-8")
            ).digest()
            draw = int.from_bytes(digest[:8], "big") / float(1 << 64)
            return draw < self.rate
        if self.nth is None:
            return False
        if hit < self.nth:
            return False
        return self.times == 0 or hit < self.nth + self.times


@dataclass(frozen=True)
class FaultPlan:
    """A seed plus the full set of injection rules of one run."""

    seed: int = 0
    specs: tuple[FaultSpec, ...] = ()

    @classmethod
    def from_args(cls, args: list[str] | None, seed: int = 0) -> "FaultPlan":
        """Build a plan from CLI ``--inject-fault`` values."""
        return cls(
            seed=seed,
            specs=tuple(FaultSpec.parse_any(text) for text in (args or [])),
        )

    @property
    def is_empty(self) -> bool:
        return not self.specs

    def for_sites(self, *sites: str) -> "FaultPlan":
        """The sub-plan containing only specs of the given sites."""
        return FaultPlan(
            seed=self.seed,
            specs=tuple(spec for spec in self.specs if spec.site in sites),
        )

    def job_plan(self) -> "FaultPlan":
        """The sub-plan a job carries into its own (possibly remote) process."""
        return self.for_sites(*(JOB_SITES - {"job.execute"}))

    def describe(self) -> list[str]:
        return [spec.describe() for spec in self.specs]


class FaultInjector:
    """Evaluates a :class:`FaultPlan` against per-site hit counters.

    One injector's counters belong to one deterministic execution scope: the
    scheduler owns one for scheduler-side sites, and every job execution gets
    a fresh one for its internal sites, so hit counts never depend on how
    jobs interleave.
    """

    def __init__(self, plan: FaultPlan | None):
        self._plan = plan or FaultPlan()
        self._by_site: dict[str, list[FaultSpec]] = {}
        for spec in self._plan.specs:
            self._by_site.setdefault(spec.site, []).append(spec)
        self._hits: dict[str, int] = {}
        #: descriptions of every fault that actually fired (diagnostics)
        self.fired: list[str] = []

    # ------------------------------------------------------------------ #
    @property
    def plan(self) -> FaultPlan:
        return self._plan

    @property
    def fired_count(self) -> int:
        return len(self.fired)

    def hits(self, site: str) -> int:
        return self._hits.get(site, 0)

    def fire(self, site: str, key: str = "") -> FaultSpec | None:
        """Count one hit of *site*; return the spec that fires, if any."""
        specs = self._by_site.get(site)
        if not specs:
            return None
        hit = self._hits.get(site, 0) + 1
        self._hits[site] = hit
        for spec in specs:
            if spec.fires_on(hit, self._plan.seed, key):
                self.fired.append(f"{spec.describe()} (hit {hit}, key {key!r})")
                obs.count(f"resilience.injected.{site}")
                return spec
        return None

    def check(self, site: str, key: str = "") -> FaultSpec | None:
        """Count a hit and *act* on a firing spec.

        RAISE specs raise :class:`InjectedFault`, DELAY specs sleep, CORRUPT
        specs are returned to the caller (only the cache knows how to corrupt
        its own payloads).  Returns the fired spec (or None) so call sites
        can record diagnostics.
        """
        spec = self.fire(site, key)
        if spec is None:
            return None
        if spec.kind is FaultKind.RAISE:
            raise InjectedFault(site, spec.describe(), self._hits[site])
        if spec.kind is FaultKind.DELAY:
            time.sleep(spec.delay_ms / 1000.0)
        return spec


# ---------------------------------------------------------------------- #
# per-job deadline (cooperative wall-clock timeout)
# ---------------------------------------------------------------------- #
class JobTimeout(Exception):
    """A job overran its wall-clock allowance (quarantine, do not retry)."""


class Deadline:
    """Cooperative wall-clock deadline polled at cheap pipeline points.

    The analysis is single-threaded and deterministic, so preemption is
    neither possible nor wanted; instead the interpreter (every 1024 steps)
    and the query engine (per portfolio stage) poll the active deadline and
    raise :class:`JobTimeout` once it has passed -- the same mechanism in
    serial, pooled and worker execution.
    """

    __slots__ = ("seconds", "_expires")

    def __init__(self, seconds: float):
        self.seconds = seconds
        self._expires = time.perf_counter() + seconds

    def expired(self) -> bool:
        return time.perf_counter() >= self._expires

    def poll(self) -> None:
        if self.expired():
            raise JobTimeout(
                f"job exceeded its wall-clock allowance of {self.seconds:.3f}s"
            )


# ---------------------------------------------------------------------- #
# ambient context
# ---------------------------------------------------------------------- #
@dataclass
class ResilienceContext:
    """The injector and deadline active for the currently executing job."""

    injector: FaultInjector | None = None
    deadline: Deadline | None = None
    #: diagnostics of degradations observed while this context was active
    events: list[str] = field(default_factory=list)

    def note(self, message: str) -> None:
        self.events.append(message)

    @property
    def fired(self) -> list[str]:
        return list(self.injector.fired) if self.injector is not None else []


#: process-wide active context (set per job execution; None on clean paths)
_ACTIVE: ResilienceContext | None = None


def current() -> ResilienceContext | None:
    """The context of the currently executing job (None outside chaos runs)."""
    return _ACTIVE


@contextlib.contextmanager
def activate(context: ResilienceContext):
    """Install *context* as the ambient resilience context for the body."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = context
    try:
        yield context
    finally:
        _ACTIVE = previous


def maybe_fault(site: str, key: str = "") -> FaultSpec | None:
    """Fire *site* on the ambient injector, if any (no-op on clean paths)."""
    context = _ACTIVE
    if context is None or context.injector is None:
        return None
    return context.injector.check(site, key)


def poll_deadline() -> None:
    """Poll the ambient deadline, if any (raises :class:`JobTimeout`)."""
    context = _ACTIVE
    if context is not None and context.deadline is not None:
        context.deadline.poll()
