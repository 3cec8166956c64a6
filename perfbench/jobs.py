"""Workloads, jobs and their checks for the FPVM end-to-end benchmark.

A *job* is what one user of ``run_fpvm`` waits for: build the program,
construct the FPVM and attach it (which runs the patch-site profiling
pass), then run the guest to completion.  A *sample* is every job of a
workload, run one after another in this process.  Samples are cold:
:func:`cold_reset` drops every process-wide cache an earlier sample
filled, so each sample pays the costs a one-off run pays.
"""

from __future__ import annotations

import gc
import random
import re
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

from repro.core import correctness
from repro.core.vm import FPVM
from repro.fpu import softfloat
from repro.harness.configs import CONFIG_ORDER, named_configs
from repro.harness.runner import run_native, run_native_process
from repro.kernel.kernel import LinuxKernel
from repro.machine import tracejit
from repro.machine.costs import LEDGER_CATEGORIES
from repro.machine.cpu import CPU
from repro.machine.process import Process
from repro.workloads import build_program

#: a seed moves each workload's problem size by at most this share, so
#: a claim can be re-checked on inputs nobody tuned against.
SIZE_JITTER = 0.02

#: scheduler quantum of the Process workload (the runner's default).
QUANTUM = 64


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a registry program under some configs."""

    program: str
    base_scale: int
    configs: tuple[str, ...]
    process: bool = False
    build_kw: dict = field(default_factory=dict)
    why: str = ""

    def scale(self, seed: int) -> int:
        jitter = random.Random(seed).uniform(-SIZE_JITTER, SIZE_JITTER)
        return max(1, round(self.base_scale * (1.0 + jitter)))


WORKLOADS = {
    "lorenz_seq_short": Workload(
        "lorenz", 400, ("SEQ_SHORT",),
        why="long-sequence best case: ~38 emulated instructions per trap; "
            "sequence emulator, emulator and binding do most of the work",
    ),
    "enzo_sweep": Workload(
        "enzo", 32, CONFIG_ORDER,
        why="Fig. 4's column for one app: one trap per FP instruction under "
            "NONE/SHORT via both delivery paths, many short sequences, real "
            "GC, four profiler passes",
    ),
    "mixed_mt_seq_short": Workload(
        "mixed_mt", 400, ("SEQ_SHORT",), process=True,
        build_kw={"threads": 6, "fp_threads": 1},
        why="the only Process/scheduler workload: one FP worker among five "
            "integer workers; native tiers and set-up dominate, little "
            "emulation",
    ),
}


@dataclass
class Job:
    """One finished (program, config) run: host phase times and what
    the program's own telemetry reported."""

    config: str
    build_s: float
    attach_s: float
    run_s: float
    output: list
    cycles: int
    ledger: dict
    telemetry: object
    native_retired: int
    kernel_traps: int
    uop_stats: list
    sched: object

    @property
    def setup_s(self) -> float:
        return self.build_s + self.attach_s

    @property
    def total_s(self) -> float:
        return self.build_s + self.attach_s + self.run_s

    @property
    def guest_instr(self) -> int:
        return self.native_retired + self.telemetry.emulated_instructions

    def fingerprint(self) -> tuple:
        t = self.telemetry
        return (self.config, self.cycles, tuple(sorted(self.ledger.items())),
                t.traps, t.emulated_instructions)


def run_job(wl: Workload, config: str, scale: int, tracer) -> Job:
    """Build, attach and run one job; ``tracer`` opens the benchmark's
    spans around the three phases (a no-op when tracing is off).  The
    phases run on this thread alone and do no I/O, so they are timed in
    thread CPU time: time other tenants of the host take is not counted."""
    t0 = time.thread_time()
    with tracer.span("workloads.build_program"):
        program = build_program(wl.program, scale, **wl.build_kw)
    t1 = time.thread_time()
    kernel = LinuxKernel()
    with tracer.span("core.vm.attach"):
        vm = FPVM(named_configs()[config])
        if wl.process:
            machine = Process(program)
            vm.attach_process(machine, kernel)
        else:
            machine = CPU(program)
            machine.kernel = kernel
            vm.attach(machine, kernel)
    t2 = time.thread_time()
    with tracer.span("machine.run"):
        if wl.process:
            machine.run(quantum=QUANTUM)
        else:
            machine.run()
    t3 = time.thread_time()
    threads = machine.threads if wl.process else [machine]
    return Job(
        config=config,
        build_s=t1 - t0,
        attach_s=t2 - t1,
        run_s=t3 - t2,
        output=list(threads[0].output),
        cycles=machine.total_cycles if wl.process else machine.cycles,
        ledger=vm.ledger.snapshot(),
        telemetry=vm.telemetry,
        native_retired=sum(t.instruction_count for t in threads),
        kernel_traps=sum(kernel.trap_counts.values()),
        uop_stats=[t.uop_stats for t in threads if t.uop_stats is not None],
        sched=machine.sched if wl.process else None,
    )


@dataclass
class Native:
    """The same program run natively: the reference every job's output
    and guest-instruction count are checked against."""

    output: list
    cycles: int
    instructions: int


def run_reference(wl: Workload, scale: int) -> Native:
    runner = run_native_process if wl.process else run_native
    result = runner(wl.program, scale, **wl.build_kw)
    return Native(result.output, result.cycles, result.instructions)


def job_errors(job: Job, native: Native, expected: tuple | None) -> list[str]:
    """Why ``job`` failed, or ``[]``: its guest stdout must equal the
    native stdout, its guest instructions (retired + emulated) must add
    up to the native count, and its simulated fingerprint must repeat
    the workload's first sample exactly."""
    errors = []
    if job.output != native.output:
        errors.append(f"{job.config}: guest stdout differs from native")
    if job.guest_instr != native.instructions:
        errors.append(f"{job.config}: {job.guest_instr} guest instructions, "
                      f"native ran {native.instructions}")
    if expected is not None and job.fingerprint() != expected:
        errors.append(f"{job.config}: simulated fingerprint changed")
    return errors


def vacuity_errors(name: str, jobs: list[Job]) -> list[str]:
    """Each workload's mechanism must actually run; a silently disabled
    one fails the benchmark instead of measuring something else."""
    by = {j.config: j.telemetry for j in jobs}
    errors = []
    if name == "lorenz_seq_short":
        t = by["SEQ_SHORT"]
        if t.avg_sequence_length < 8:
            errors.append(f"sequence length collapsed to "
                          f"{t.avg_sequence_length:.2f} per trap")
        if t.compiled_trace_hits == 0:
            errors.append("zero compiled-trace hits")
    elif name == "enzo_sweep":
        if sum(t.signal_traps for t in by.values()) == 0:
            errors.append("zero signal deliveries")
        if sum(t.short_circuit_traps for t in by.values()) == 0:
            errors.append("zero short-circuit deliveries")
        none = by["NONE"]
        if none.emulated_instructions != none.traps:
            errors.append(f"NONE emulated {none.emulated_instructions} "
                          f"instructions in {none.traps} traps")
        for config, t in by.items():
            if t.gc_runs == 0:
                errors.append(f"{config}: zero GC runs")
    elif name == "mixed_mt_seq_short":
        job = jobs[0]
        emulated = job.telemetry.emulated_instructions
        if job.native_retired < 4 * emulated:
            errors.append(f"native retired {job.native_retired} is not well "
                          f"above emulated {emulated}")
        if job.sched.fp_saves_elided == 0:
            errors.append("zero fp_saves_elided")
    return errors


def ledger_totals(jobs: list[Job]) -> dict[str, int]:
    return {c: sum(j.ledger[c] for j in jobs) for c in LEDGER_CATEGORIES}


# ------------------------------------------------------ cold samples
_BASE_HANDLERS = set(correctness._HANDLER_REGISTRY)


def cold_reset() -> None:
    """Drop what earlier samples left in process-wide state: compiled
    trace code, cached constants, and the magic-trap handlers (which
    keep every earlier FPVM and its heap alive)."""
    tracejit._CODE_CACHE.clear()
    softfloat._PI_CACHE.clear()
    for hid in set(correctness._HANDLER_REGISTRY) - _BASE_HANDLERS:
        del correctness._HANDLER_REGISTRY[hid]
    gc.collect()


def reset_peak_rss() -> None:
    """Restart the peak-RSS high-water mark so the next reading covers
    one sample only (Linux ``clear_refs``); where that is unavailable the
    reading falls back to the process lifetime peak."""
    try:
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
    except OSError:
        pass


def peak_rss_mb() -> float:
    try:
        with open("/proc/self/status") as f:
            match = re.search(r"VmHWM:\s+(\d+)", f.read())
    except OSError:
        match = None
    if match is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return int(match.group(1)) / 1024.0


# -------------------------------------------------------- host speed
#: the probe's iteration count and its thread CPU seconds at the
#: reference host speed that reported host times are scaled to.
PROBE_ITERATIONS = 30_000
PROBE_REFERENCE_S = 0.010


def host_speed_probe() -> float:
    """Thread CPU seconds of a fixed pure-Python loop.  Other tenants of
    a shared host slow this interpreter by up to ~1.5x in phases of tens
    of seconds, which moves a run's median far more than a change worth
    measuring; the probe, run after every job, slows with it.  It runs
    no code of the repository, so a change to the program cannot move
    it."""
    t0 = time.thread_time()
    table, acc = {}, 0
    for i in range(PROBE_ITERATIONS):
        table[i & 1023] = acc
        acc = (acc * 31 + i) & 0xFFFFFFFF
        acc ^= table.get((i * 7) & 1023, 0)
    return time.thread_time() - t0


# ----------------------------------------------------------- samples
class Tally:
    """Jobs attempted and failed; failures are reported, never dropped."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def fail(self, errors) -> None:
        self.failed += 1
        for error in errors:
            print(f"FAILED: {error}", file=sys.stderr)


def run_sample(wl: Workload, scale, native, expected, tally, tracer):
    """Run every job of the workload once, cold, each followed by the
    host-speed probe.  Returns the jobs, the sample's peak RSS and the
    median probe time, or None when any job failed.  ``expected``
    maps each config to the fingerprint its job must repeat (None for
    the first sample, which sets them)."""
    cold_reset()
    reset_peak_rss()
    done, probes = [], []
    for config in wl.configs:
        tally.attempted += 1
        tracer.new_job()
        try:
            with tracer.span("job"):
                job = run_job(wl, config, scale, tracer)
        except Exception as exc:  # count it and keep measuring
            traceback.print_exc()
            tally.fail([f"{config}: raised {exc!r}"])
            continue
        probes.append(host_speed_probe())
        errors = job_errors(job, native,
                            expected.get(config) if expected else None)
        if errors:
            tally.fail(errors)
            continue
        done.append(job)
    if len(done) != len(wl.configs):
        return None
    return done, peak_rss_mb(), statistics.median(probes)


def sample_metrics(sample, native) -> dict[str, float]:
    """The end-to-end metrics of one sample; host times are thread CPU
    seconds scaled to the reference host speed."""
    done, rss, probe_s = sample
    to_reference = PROBE_REFERENCE_S / probe_s
    return {
        "total_s": to_reference * sum(j.total_s for j in done),
        "setup_s": to_reference * sum(j.setup_s for j in done),
        "guest_ips": (sum(j.guest_instr for j in done)
                      / (to_reference * sum(j.run_s for j in done))),
        "sim_slowdown": sum(j.cycles for j in done) / (len(done) * native.cycles),
        "peak_rss_mb": rss,
    }

