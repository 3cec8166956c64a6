"""FPVM end-to-end benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Workloads (boxed_ieee throughout; why each exists is in ``jobs.WORKLOADS``):
``lorenz_seq_short``, ``enzo_sweep`` (all four configs per sample) and
``mixed_mt_seq_short`` (the only Process workload).  The seed moves the
problem size by up to 2%; the programs get only the generated inputs.

Rules: one client in a closed loop.  This single process runs one job
at a time, each job (build + FPVM construction and attach, which runs
the patch-site profiling pass, + run) to completion before the next, and
one sample (every job of the workload) after another until ``--seconds``
have passed.  Samples are cold (see :func:`jobs.cold_reset`).  The first
sample fixes the simulated fingerprint (cycles, ledger, traps, emulated
count) every later sample must repeat; every job's guest stdout and
guest-instruction count are checked against a native run.  Each
workload also has vacuity guards (:func:`jobs.vacuity_errors`).

``--trace 0`` prints the end-to-end metrics, measured untraced, each
the median over the run's samples: ``total_s``, ``setup_s``,
``guest_ips``, ``sim_slowdown``, ``peak_rss_mb`` and the share of failed
jobs.  Host times are the thread CPU time of the job phases, so time
other tenants of a shared host take is left out, scaled to a reference
host speed by a fixed probe run after every job
(:func:`jobs.host_speed_probe`), so their slowing of this CPU is left
out too.  ``--trace 1``
alternates untraced and traced samples; it prints the per-layer
metrics of the traced ones with the end-to-end metric each should move
(``layers.LAYERS``), host time
next to simulated cycles per guest instruction (``layers.SIDE_BY_SIDE``),
the tracing overhead (traced minus untraced ``total_s``), and writes a
Chrome trace of the first traced sample under ``perfbench/out/``.

The cycle model uses the paper's cost constants but is not validated
against hardware, so no simulator error figure is given.
``core.correctness`` and ``core.wrappers`` carry little work on these
workloads (their ledger categories, corr and fcall, matter only on
three_body and fbench), so they have no spans of their own; their host
time falls into ``machine.run``.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` (jobs) and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: a run takes the median of at least this many samples, even when one
#: sample outlasts ``--seconds``; a traced run needs one traced sample
#: (its counts repeat exactly).
MIN_SAMPLES = 3
MIN_TRACED = 1

END_TO_END = {"total_s": "s", "setup_s": "s", "guest_ips": "instr/s",
              "sim_slowdown": "x", "peak_rss_mb": "MB"}


def medians(rows: list[dict]) -> dict[str, float]:
    if not rows:
        return {}
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def result_line(correct: bool, tally, metrics: dict, units) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units(k)}
                    for k, v in metrics.items()},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"error: the repro package is not at {SRC}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Pin every FPVM_* knob to its default so runs compare like for like.
    for key in [k for k in os.environ if k.startswith("FPVM_")]:
        del os.environ[key]

    import jobs as J
    import layers as L
    import spans

    if args.workload not in J.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"known: {', '.join(J.WORKLOADS)}")
    name = args.workload
    wl = J.WORKLOADS[name]
    scale = wl.scale(args.seed)
    print(f"workload {name}: {wl.program} scale {scale} (seed {args.seed}) "
          f"under {', '.join(wl.configs)}; boxed_ieee; closed loop, "
          f"1 client, 1 job at a time")

    tally = J.Tally()
    null = spans.NullTracer()
    native = J.run_reference(wl, scale)
    expected, problems = None, []
    untraced, traced = [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        sample = J.run_sample(wl, scale, native, expected, tally, null)
        if sample is not None:
            if expected is None:
                expected = {j.config: j.fingerprint() for j in sample[0]}
                problems += J.vacuity_errors(name, sample[0])
            untraced.append(sample)
        if args.trace:
            tracer = spans.Tracer(keep=not traced)
            with spans.instrument(tracer):
                sample = J.run_sample(wl, scale, native, expected, tally,
                                      tracer)
            if sample is not None:
                traced.append((sample, tracer))
        count, need = ((len(traced), MIN_TRACED) if args.trace
                       else (len(untraced), MIN_SAMPLES))
        if time.perf_counter() >= deadline and count >= need:
            break
        if tally.failed and not count:
            break
    if expected is None:
        problems.append("no sample completed")
    for problem in problems:
        print(f"VACUITY/CHECK: {problem}", file=sys.stderr)

    correct = not problems and tally.failed == 0
    print(f"jobs: {tally.attempted} attempted, {tally.failed} failed; "
          f"fail_share {tally.failed / tally.attempted:.6g} ratio")
    if not args.trace:
        e2e = medians([J.sample_metrics(s, native) for s in untraced])
        probe_s = (statistics.median(s[2] for s in untraced) if untraced
                   else float("nan"))
        print(f"end-to-end metrics: median of {len(untraced)} samples; "
              f"host times scaled by the probe's reference "
              f"{J.PROBE_REFERENCE_S * 1e3:g} ms / median "
              f"{probe_s * 1e3:.4g} ms")
        for key, unit in END_TO_END.items():
            print(f"{key:<14} {e2e.get(key, 0.0):>16.6g} {unit}")
        print(result_line(correct, tally, e2e, END_TO_END.get))
        return 0 if correct else 1

    per_layer = {}
    if traced:
        rows = [L.layer_metrics(s[0], tr, native) for s, tr in traced]
        per_layer = medians(rows)
        total_traced = medians([J.sample_metrics(s, native)
                                for s, _ in traced])["total_s"]
        total_untraced = medians([J.sample_metrics(s, native)
                                  for s in untraced]).get("total_s",
                                                          total_traced)
        per_layer["tracing.overhead_s"] = total_traced - total_untraced
        per_layer = {k: per_layer[k] for k in L.PER_LAYER}
        print(f"per-layer metrics: median of {len(traced)} traced samples "
              f"(counts repeat exactly)")
        print("\n".join(L.layer_table(per_layer)))
        print(f"tracing overhead: traced total_s {total_traced:.4f} s - "
              f"untraced total_s {total_untraced:.4f} s = "
              f"{per_layer['tracing.overhead_s']:.4f} s")
        (sample, tracer) = traced[0]
        print("host versus simulated time per guest instruction "
              "(first traced sample):")
        print("\n".join(L.side_table(L.side_by_side(sample[0], tracer))))
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"trace-{name}-seed{args.seed}.json"
        written = spans.write_chrome_trace(path, tracer, {
            "workload": name, "seed": args.seed, "scale": scale})
        print(f"chrome trace: {path.relative_to(HERE.parent)} "
              f"({written} events, {tracer.dropped} dropped)")
    print(result_line(correct, tally, per_layer, L.unit_of))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
