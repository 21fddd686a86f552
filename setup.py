"""Packaging metadata for the ``repro`` WCET-analysis package.

All metadata lives here (there is no ``pyproject.toml``).  The package has
no required third-party dependencies; ``networkx`` is needed only by
``ControlFlowGraph.to_networkx()`` and ships as the ``graph`` extra.
``pip install -e .`` installs the ``repro-wcet`` command; on a machine
without the ``wheel`` package add ``--no-use-pep517`` so pip falls back to
``setup.py develop``.
"""
import re
from pathlib import Path

from setuptools import find_packages, setup

VERSION = re.search(
    r'^__version__ = "([^"]+)"',
    (Path(__file__).parent / "src" / "repro" / "__init__.py").read_text(),
    re.MULTILINE,
).group(1)

setup(
    name="repro-wcet",
    version=VERSION,
    description=(
        "Automatic timing model generation by CFG partitioning and model checking"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    entry_points={"console_scripts": ["repro-wcet = repro.cli:main"]},
    extras_require={"graph": ["networkx"]},
)
