"""Shared fixtures and result collection for the benchmark suite.

Each benchmark regenerates one table or figure of the paper.  Besides the
pytest-benchmark timings, every benchmark writes the reproduced numbers as a
plain-text file into a temporary ``results`` directory, so a test run never
rewrites the committed tables in ``benchmarks/results/``.  To refresh those,
run ``pytest benchmarks --basetemp DIR`` and copy the files from
``DIR/results0/`` by hand.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.workloads.figure1 import figure1_analyzed
from repro.workloads.optimisation_eval import optimisation_eval_program
from repro.workloads.targetlink import generate_synthetic_application
from repro.workloads.wiper import wiper_case_study

@pytest.fixture(scope="session")
def results_dir(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("results")


@pytest.fixture(scope="session")
def figure1():
    return figure1_analyzed()


@pytest.fixture(scope="session")
def eval_program():
    return optimisation_eval_program()


@pytest.fixture(scope="session")
def wiper_code():
    return wiper_case_study()


@pytest.fixture(scope="session")
def industrial_app():
    """The synthetic stand-in for the paper's ~857-block industrial function."""
    return generate_synthetic_application(seed=2005)


def write_result(results_dir: Path, name: str, lines: list[str]) -> None:
    (results_dir / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
