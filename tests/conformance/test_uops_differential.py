"""Differential conformance: the fuzz grammar executed with the uop
pipeline forced ON vs. forced OFF must be indistinguishable in every
observable — stdout, memory digests, cycle/instruction counts, trap
counts, and the attached-mode accounting invariants."""

import pytest

from repro.conformance import oracle
from repro.conformance.generators import fuzz_program
from repro.core.vm import FPVMConfig
from repro.kernel.kernel import LinuxKernel
from repro.machine.cpu import CPU
from repro.workloads import build_program

SEEDS = [0, 1, 3, 5, 9, 11, 17, 23, 31, 47]


def _native_fingerprint(seed: int, uops: bool):
    cpu = CPU(fuzz_program(seed), uops=uops)
    cpu.kernel = LinuxKernel()
    cpu.run(max_steps=oracle.DEFAULT_MAX_STEPS)
    return {
        "output": tuple(cpu.output),
        "digest": oracle.memory_digest(cpu),
        "cycles": cpu.cycles,
        "work_cycles": cpu.work_cycles,
        "instructions": cpu.instruction_count,
        "fp_traps": cpu.fp_trap_count,
        "bp_traps": cpu.bp_trap_count,
        "retired": dict(cpu.retired_by_class),
    }


@pytest.mark.parametrize("seed", SEEDS)
def test_native_differential(seed):
    """Raw machine, no FPVM: superblocks vs. single-step."""
    assert _native_fingerprint(seed, uops=False) == _native_fingerprint(seed, uops=True)


def _cell_fingerprint(run: oracle.CellRun):
    t = run.telemetry
    return {
        "output": run.output,
        "digest": run.memory_digest,
        "cycles": run.cycles,
        "instructions": run.instructions,
        "ledger": run.ledger,
        "traps": t.traps,
        "sequences": t.sequences,
        "emulated": t.emulated_instructions,
        "decode_hits": t.decode_hits,
        "decode_misses": t.decode_misses,
    }


#: a real workload whose compiled traces fall through their recorded
#: terminator (its sources turn boxed), under the default threshold.
ENZO_CELLS = ["enzo16-seq", "enzo16-seq_short"]


@pytest.mark.parametrize("case", SEEDS + ENZO_CELLS)
def test_attached_differential(case):
    """Full FPVM attach: the uop pipeline *and* the compiled-trace tier
    against the seed interpreter.  Fuzz seeds force traces hot with a
    low threshold; the enzo cells run at the default threshold."""
    if isinstance(case, int):
        make_program = lambda: fuzz_program(case)
        preset, fast_cfg = FPVMConfig.seq_short, dict(trace_compile_threshold=2)
    else:
        make_program = lambda: build_program("enzo", scale=16)
        preset, fast_cfg = getattr(FPVMConfig, case.split("-")[1]), {}
    base = oracle.run_cell(make_program(), preset(uops=False), "interp")
    fast = oracle.run_cell(make_program(), preset(uops=True, **fast_cfg), "uops")
    assert base.invariant_failures == []
    assert fast.invariant_failures == []
    assert _cell_fingerprint(base) == _cell_fingerprint(fast)
    if case in ENZO_CELLS:
        assert fast.telemetry.compiled_trace_hits > 0


def test_compiled_tier_exercised_somewhere():
    """Guard against the attached differential silently testing nothing:
    at least one fuzz seed must actually promote and replay a trace."""
    total_hits = 0
    for seed in SEEDS:
        run = oracle.run_cell(
            fuzz_program(seed),
            FPVMConfig.seq_short(uops=True, trace_compile_threshold=2),
            "uops",
        )
        total_hits += run.telemetry.compiled_trace_hits
    assert total_hits > 0
