"""Tier-1 guard for the benchmark's traced mode (``perfbench/layers.py``).

The benchmark's own self-test (``perfbench/selftest.py``) is not part of
the default collection, so this file checks the two contracts of the
traced mode that the program under test can break: every entry point the
benchmark wraps still exists and is restored after the run, and process
pool workers still ship back the spans the benchmark maps onto its layers.
"""

from __future__ import annotations

import importlib
import importlib.util
import os
import sys
import time
from pathlib import Path

import pytest

from repro import obs
from repro.project import Project, ResultCache, analyze_project
from repro.workloads.multi import generate_call_chain_workload

LAYERS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


@pytest.fixture(scope="module")
def layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def wrapped_bindings(layers) -> dict:
    """Every binding ``layers.install`` replaces, by where it lives."""
    seen = {}
    for module_name, attr, _ in layers.FUNCTIONS:
        original = getattr(importlib.import_module(module_name), attr)
        for module in list(sys.modules.values()):
            if getattr(module, "__dict__", {}).get(attr) is original:
                seen[(module.__name__, attr)] = original
    for module_name, class_name, attr, _ in layers.METHODS:
        owner = getattr(importlib.import_module(module_name), class_name)
        seen[(module_name, class_name, attr)] = owner.__dict__[attr]
    return seen


def test_install_resolves_and_restores_every_entry_point(layers):
    before = wrapped_bindings(layers)
    for module_name, attr, _ in layers.FUNCTIONS:
        assert (module_name, attr) in before, f"{module_name}.{attr} is gone"
    uninstall = layers.install(layers.Recorder())
    try:
        for key, original in before.items():
            if len(key) == 2:
                current = sys.modules[key[0]].__dict__[key[1]]
            else:
                owner = getattr(sys.modules[key[0]], key[1])
                current = owner.__dict__[key[2]]
            assert current is not original, f"{key} was not wrapped"
    finally:
        uninstall()
    after = wrapped_bindings(layers)
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


@pytest.mark.project
@pytest.mark.obs
def test_pool_workers_ship_the_spans_the_benchmark_maps(layers, tmp_path):
    project = Project.from_sources(generate_call_chain_workload(seed=2005).sources)
    recorder = layers.Recorder()
    tracer = obs.Tracer()
    offset = time.time() - time.perf_counter()
    uninstall = layers.install(recorder)
    try:
        with obs.using_tracer(tracer):
            report = analyze_project(
                project, cache=ResultCache(tmp_path / "cache"), workers=2
            )
    finally:
        uninstall()
    assert report.mode == "process-pool"
    events = tracer.events()
    shipped = {event["name"] for event in events if event["pid"] != os.getpid()}
    assert set(layers.WORKER_LAYERS) <= shipped
    layers.worker_spans(events, recorder, offset)
    worker_layers = {span.layer for span in recorder.spans if span.worker}
    assert worker_layers == set(layers.WORKER_LAYERS.values())
    assert recorder.counters["mc.solver_runs"] > 0
