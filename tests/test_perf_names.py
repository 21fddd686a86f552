"""Instrumentation name-drift lint.

Sweeps ``src/`` for the literal names passed to ``obs.stage(...)`` and
``obs.count(...)`` and compares them — in both directions — against the
checked-in vocabulary in ``src/repro/obs/NAMES.md``.  A new instrumentation
site must be listed there; a listed name whose last call site disappeared
must be removed.

A counter name built by an f-string is swept as its literal template (for
example ``mc.query.{field}``), so NAMES.md lists the template itself.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
NAMES_MD = SRC / "repro" / "obs" / "NAMES.md"

#: literal first argument of a counter call (an f-string keeps its template)
COUNT_CALL = re.compile(r'\bobs\.count\(\s*f?"([^"]+)"')

#: literal first argument of a stage context manager
STAGE_CALL = re.compile(r'\bobs\.stage\(\s*"([^"]+)"')

COUNTER_SECTION = "Counters"
STAGE_SECTION = "Stages"


def _swept_names() -> tuple[dict[str, set[str]], dict[str, set[str]]]:
    """(counter, stage) name -> set of emitting modules, swept from ``src/``."""
    counter_names: dict[str, set[str]] = {}
    stage_names: dict[str, set[str]] = {}
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        module = str(path.relative_to(SRC))
        for match in COUNT_CALL.finditer(text):
            counter_names.setdefault(match.group(1), set()).add(module)
        for match in STAGE_CALL.finditer(text):
            stage_names.setdefault(match.group(1), set()).add(module)
    return counter_names, stage_names


def _registered_names() -> dict[str, set[str]]:
    """Section title -> backticked names listed in ``NAMES.md``."""
    sections: dict[str, set[str]] = {}
    current: str | None = None
    for line in NAMES_MD.read_text(encoding="utf-8").splitlines():
        if line.startswith("## "):
            current = line[3:].strip()
            sections[current] = set()
        elif current is not None and line.startswith("- `"):
            sections[current].add(line.split("`")[1])
    return sections


def _assert_match(swept: dict[str, set[str]], section: str) -> None:
    registered = _registered_names()[section]
    unregistered = {
        name: sorted(modules)
        for name, modules in swept.items()
        if name not in registered
    }
    assert not unregistered, (
        "names emitted by src/ but missing from NAMES.md "
        f"(add them to the '{section}' section): {unregistered}"
    )
    stale = registered - set(swept)
    assert not stale, (
        f"'{section}' names listed in NAMES.md with no remaining literal "
        f"call site in src/ (remove them): {sorted(stale)}"
    )


@pytest.mark.obs
def test_names_md_exists_with_both_sections():
    sections = _registered_names()
    for section in (STAGE_SECTION, COUNTER_SECTION):
        assert section in sections, f"NAMES.md lost its '{section}' section"
        assert sections[section], f"'{section}' section of NAMES.md is empty"


@pytest.mark.obs
def test_perf_names_match_registry():
    """Every ``obs.count`` name is a listed counter, and vice versa."""
    swept, _ = _swept_names()
    _assert_match(swept, COUNTER_SECTION)


@pytest.mark.obs
def test_span_names_match_registry():
    """Every ``obs.stage`` name is a listed stage, and vice versa."""
    _, swept = _swept_names()
    _assert_match(swept, STAGE_SECTION)


@pytest.mark.obs
def test_names_follow_convention():
    """Dot-separated, lower-case, subsystem-prefixed; ``{field}`` templates."""
    sections = _registered_names()
    for section in (STAGE_SECTION, COUNTER_SECTION):
        for name in sections[section]:
            assert re.fullmatch(
                r"[a-z0-9_]+(\.([a-z0-9_]+|\{[a-z_]+\}))+", name
            ), f"{section}: {name!r} violates the dotted lower-case convention"
