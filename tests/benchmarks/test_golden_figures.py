"""Golden-file tests for the figure pipeline.

Every entry of :data:`repro.harness.figures.FIGURES` is regenerated
exactly as ``python -m repro figures`` and the bench suite produce it
and compared byte for byte against its committed text under
``benchmarks/results/``.  The cycle model is deterministic, so there is
no tolerance: a moved cycle count is a behaviour change and must be
explained, not absorbed.

The figures without a run matrix are fast and run in tier-1; the
suite-backed ones (a 6-workload x 4-config matrix each) are marked
``slow``.
"""

import pathlib

import pytest

from repro.harness import figures

RESULTS = pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "results"

#: tables the ablation and sensitivity bench scripts write inline; they
#: are sweeps, not renders of a figure generator.
BENCH_ONLY = {
    "ablation_cache_size",
    "ablation_fma",
    "ablation_gc",
    "ablation_lazy_save",
    "ablation_move_support",
    "ablation_seq_rules",
    "ablation_unroll",
    "corr_share",
    "sensitivity_signal_cost",
}


def _marks(fig: figures.Figure) -> list:
    marks = [pytest.mark.slow] if fig.suite else []
    if fig.name == "trap_heatmap":
        marks.append(pytest.mark.flow)
    return marks


@pytest.fixture(scope="module")
def suites():
    return {kind: figures.make_suite(kind) for kind in ("boxed", "mpfr")}


@pytest.mark.parametrize("fig", [
    pytest.param(fig, id=fig.name, marks=_marks(fig))
    for fig in figures.FIGURES.values()
])
def test_matches_golden(fig, suites):
    golden = (RESULTS / f"{fig.name}.txt").read_text()
    assert fig.generate(suites) + "\n" == golden


def test_every_golden_has_a_registry_entry():
    """No golden is orphaned and no registered figure lacks a golden."""
    on_disk = {p.stem for p in RESULTS.glob("*.txt")}
    assert set(figures.FIGURES) | BENCH_ONLY == on_disk
    assert not set(figures.FIGURES) & BENCH_ONLY
