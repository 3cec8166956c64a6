"""Shared fixtures for the benchmark harness.

Each ``bench_figNN`` module regenerates one of the paper's figures:
the timed body produces the figure's data, the figure's entry in
:data:`repro.harness.figures.FIGURES` renders it, and the text is
written to ``results/<name>.txt`` (and echoed to stdout when running
with ``-s``).  The ablation and sensitivity scripts write their own
tables through :func:`publish`.

Full-size suites are session-scoped so the 6-workload x 4-config run
matrix is executed once per arithmetic system per session.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.harness import figures
from repro.harness.figures import publish  # noqa: F401  (bench-only tables)

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def boxed_suite() -> figures.Suite:
    return figures.make_suite("boxed")


@pytest.fixture(scope="session")
def mpfr_suite() -> figures.Suite:
    return figures.make_suite("mpfr")


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def publish_figure(results_dir: pathlib.Path, name: str, data) -> None:
    """Render ``data`` through the figure's registry entry and write it."""
    publish(results_dir, name, figures.FIGURES[name].render(data))
