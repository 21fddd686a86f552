"""Self-test of the benchmark at reduced size.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of the default test collection; every run of
the benchmark it starts uses ``--small`` inputs.
"""

from __future__ import annotations

import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "3", "--seconds", "0.1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def result_line(completed: subprocess.CompletedProcess) -> dict:
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    return result


def snapshot() -> dict[str, tuple[int, int]]:
    """(mtime, size) of every file outside the benchmark's output."""
    files = {}
    for path in ROOT.rglob("*"):
        parts = path.relative_to(ROOT).parts
        if not path.is_file() or ".git" in parts or "__pycache__" in parts:
            continue
        if parts[:2] == ("perfbench", "out") or parts[0] in (".bench_build", ".pytest_cache"):
            continue
        stat = path.stat()
        files[str(path.relative_to(ROOT))] = (stat.st_mtime_ns, stat.st_size)
    return files


# ---------------------------------------------------------------------- #
def test_benchmark_json_matches_the_code():
    # single_cold runs by name but is too noisy to gate (see README.md)
    gated = [name for name in workloads.WORKLOADS if name != "single_cold"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == gated
    declared = {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]}
    assert declared == run.END_TO_END
    emitted = set(layers.layer_metrics(layers.Recorder(), 1.0)) | {"trace.overhead_ratio"}
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]}
    assert set(per_layer) == emitted
    for name, unit_better in per_layer.items():
        assert unit_better == layers.per_layer_units(name)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result = result_line(bench("--workload", workload, "--trace", str(trace), "--small"))
        assert result["correct"] and result["failed"] == 0
        declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
        assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
        if trace == 0:
            assert all(m["value"] > 0 for m in result["metrics"].values())
        else:
            metrics = {name: m["value"] for name, m in result["metrics"].items()}
            self_total = sum(metrics[f"{layer}.self_share"] for layer in layers.LAYERS)
            assert self_total + metrics["unattributed"] / metrics["trace.wall_s"] == (
                pytest.approx(1.0, rel=1e-6)
            )


def test_wrappers_are_restored():
    def bindings():
        seen = {}
        for module_name, attr, _ in layers.FUNCTIONS:
            for module in list(sys.modules.values()):
                value = getattr(module, "__dict__", {}).get(attr)
                if value is not None:
                    seen[(module.__name__, attr)] = value
        for module_name, class_name, attr, _ in layers.METHODS:
            owner = getattr(importlib.import_module(module_name), class_name)
            seen[(class_name, attr)] = owner.__dict__[attr]
        return seen

    before = bindings()
    recorder = layers.Recorder()
    uninstall = layers.install(recorder)
    try:
        from repro.pipeline.analyzer import analyze_source
        from repro.workloads import FIGURE1_SOURCE

        assert bindings() != before
        analyze_source(FIGURE1_SOURCE, "main")
    finally:
        uninstall()
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert recorder.spans and any(s.layer == "hw.board_run" for s in recorder.spans)


def test_self_times_split_concurrent_work():
    root = layers.Span("project.run", 0.0, None)
    root.end = 10.0
    first = layers.Span("project.job", 1.0, root, worker=True)
    first.end = 9.0
    second = layers.Span("project.job", 2.0, root, worker=True)
    second.end = 4.0
    own = layers.self_times([root, first, second])
    assert sum(own) == pytest.approx(10.0)
    assert own == pytest.approx([2.0, 7.0, 1.0])


def test_wrong_reference_is_counted_not_raised(tmp_path):
    workload = workloads.SingleCold(seed=3, small=True, workdir=tmp_path)
    workload.prepare()
    rows = workload.run(0)
    wrong = {0: (rows[0]["bound"] + 1, [])}
    workload.verify(rows, references=wrong)
    assert rows[0]["ok"] is False
    assert "reference WCET" in rows[0]["failures"][0]


def test_project_reference_failure_is_counted(tmp_path, monkeypatch):
    workload = workloads.ProjectCold(seed=3, small=True, workdir=tmp_path)
    workload.prepare()
    rows = workload.run(0)
    bounds = {row["item"]: row["bound"] for row in rows}
    monkeypatch.setattr(
        workloads,
        "exhaustive_references",
        lambda sources, functions: {f: bounds[f] + 1 for f in functions},
    )
    workload.verify(rows)
    assert all(row["ok"] is False for row in rows)


def test_writes_no_tracked_file():
    before = snapshot()
    result_line(bench("--workload", "project_cold", "--trace", "1", "--small"))
    after = snapshot()
    assert after == before
    assert "BENCH_perf.json" in before


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "single_cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, env=env,
    )
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout
