"""Figure 7: an example instruction trace (the paper prints the 3rd
most popular Lorenz trace, 15 instructions, terminated by an
unsupported movhpd partial-vector move)."""

from conftest import publish_figure
from repro.harness import figures


def test_figure7(benchmark, boxed_suite, results_dir):
    text = benchmark.pedantic(
        figures.figure7, args=(boxed_suite, "lorenz", 2), rounds=1, iterations=1
    )
    publish_figure(results_dir, "fig07", text)
    assert "addsd" in text or "mulsd" in text or "subsd" in text
    assert "terminator" in text
