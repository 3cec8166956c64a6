"""Figure 3: magic traps vs int3 traps for memory-escape correctness.

Paper: the int3 path costs a hardware trap + SIGTRAP delivery +
sigreturn (~5980 cycles); the magic path is a double-indirect call
(~100 cycles incl. the trampoline's register save): 14-120x cheaper."""

from conftest import publish_figure
from repro.harness import figures


def test_figure3(benchmark, results_dir):
    costs = benchmark.pedantic(figures.figure3, rounds=1, iterations=1)
    publish_figure(results_dir, "fig03", costs)
    assert costs.reduction > 10
