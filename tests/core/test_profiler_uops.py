"""The §5.1 patch-site profiler on bound micro-op runs.

The profiler retires straight-line runs of bound closures and falls
back to the seed single step everywhere else.  Its reference is the
same profiler with every thread's ``uops_enabled`` off (the
``FPVM_UOPS=0`` escape hatch), which single-steps every instruction:
the :class:`ProfileResult`, the step count and every thread's retire
counters must match it exactly.  The vacuity guard checks that the fast
path actually carries the work.
"""

import functools
import os
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import For, IBin, IBits, INum, IVar, Num, PrintI, Store
from repro.conformance.generators import gen_program
from repro.core.profiler import MemoryEscapeProfiler
from repro.machine.cpu import CPU
from repro.machine.hostlib import install_host_library
from repro.machine.uops import UopEngine, build_superblock
from repro.workloads import build_program
from repro.workloads.registry import WORKLOAD_NAMES
from tests.core.test_correctness import ESCAPE_SRC, build

FULL = 50_000_000


def _profile(program, uops: bool, max_steps: int = FULL):
    with mock.patch.dict(os.environ, {"FPVM_UOPS": "1" if uops else "0"}):
        prof = MemoryEscapeProfiler(program)
        result = prof.run(max_steps)
    threads = prof.process.threads
    assert all(t.uops_enabled is uops for t in threads)
    counters = [
        (t.tid, t.instruction_count, t.cycles, t.work_cycles,
         dict(t.retired_by_class), t.regs.fp_dirty, t.regs.rip, t.halted)
        for t in threads
    ]
    return prof, result, counters


def assert_matches_step_path(program, max_steps: int = FULL):
    """Profile ``program`` both ways; return the fast profiler."""
    fast, fast_result, fast_threads = _profile(program, True, max_steps)
    seed, seed_result, seed_threads = _profile(program, False, max_steps)
    assert fast_result == seed_result
    assert fast.steps == seed.steps
    assert fast_threads == seed_threads
    assert seed.batched_steps == 0
    return fast, fast_result


@functools.lru_cache(maxsize=None)
def _registry_steps(name: str) -> tuple[int, int]:
    """(steps, batched steps) of a registry workload, checked once."""
    prof, _ = assert_matches_step_path(build_program(name))
    return prof.steps, prof.batched_steps


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_registry_workload_matches_step_path(name):
    _registry_steps(name)


def test_mixed_mt_one_fp_worker_matches_step_path():
    prof, _ = assert_matches_step_path(
        build_program("mixed_mt", threads=6, fp_threads=1))
    assert len(prof.process.threads) == 7


@pytest.mark.parametrize("name", ["lorenz", "enzo", "mixed_mt"])
def test_most_steps_retire_in_runs(name):
    """Non-vacuity: the fast path is not ``step()`` in disguise."""
    steps, batched = _registry_steps(name)
    assert batched >= 0.9 * steps


def test_escape_program_matches_step_path():
    _, result = assert_matches_step_path(build(ESCAPE_SRC))
    assert result.patch_sites


#: an FP value spilled to a stack slot, then read back as an integer.
#: ``{release}`` may free and re-reserve the slot in between, which
#: unmarks it: the integer load must then not be a patch site.
STACK_SRC = """
.data
a: .double 0.1
.text
main:
  movsd xmm0, [rip + a]
  sub rsp, 8
  movsd [rsp], xmm0
  {release}
  mov rax, [rsp]
  add rsp, 8
  mov rdi, rax
  call print_i64
  hlt
"""


@pytest.mark.parametrize("release", ["", "add rsp, 8\n  sub rsp, 8"],
                         ids=["kept", "released"])
def test_stack_release_ends_a_run(release):
    """RSP-moving instructions end runs, so a slot released between
    the FP store and the integer load is unmarked before the load."""
    _, result = assert_matches_step_path(
        build(STACK_SRC.format(release=release)))
    assert bool(result.patch_sites) == (not release)


@pytest.mark.parametrize("name", ["lorenz", "mixed_mt"])
@pytest.mark.parametrize("max_steps", [1, 45, 1000, 2500])
def test_max_steps_cut_matches_step_path(name, max_steps):
    program = build_program(name, 60)
    prof, _ = assert_matches_step_path(program, max_steps)
    full = _profile(program, True)[0].steps
    assert max_steps <= prof.steps < full


def test_max_steps_cut_lands_mid_run():
    """Round-robin turns end inside runs, and the next turn resumes
    at an offset into the same run rather than building a new one."""
    program = build_program("lorenz", 60)
    prof, _ = assert_matches_step_path(program, 1000)
    main = prof.process.main
    hit = prof._runs[main].get(main.regs.rip)
    assert hit is not None and hit[1] > 0
    run, at = hit
    assert prof._runs[main][run.entry] == (run, 0)


@given(seed=st.integers(0, 2**32 - 1), index=st.integers(0, 7))
@settings(max_examples=40, deadline=None)
def test_fuzz_programs_with_escapes_match_step_path(seed, index):
    """Conformance-generator programs plus the escape idiom of
    ``ESCAPE_SRC`` (an FP value read back through an integer load):
    one straight-line escape and one inside a loop."""
    module = gen_program(seed)
    main = module.functions["main"]
    main.emit(PrintI(IBin(">>", IBits("arr", INum(index)), INum(63))))
    main.emit(For("j", INum(0), INum(3), [
        Store("arr", IVar("j"), Num(0.5)),
        PrintI(IBits("arr", IVar("j"))),
    ]))
    program = module.compile()
    install_host_library(program)
    prof, result = assert_matches_step_path(program)
    assert len(result.patch_sites) >= 2
    assert prof.batched_steps > 0


_SLOTS = st.integers(0, 80).map(lambda i: 0x7F000 + 8 * i)


@given(marked=st.sets(_SLOTS, max_size=40),
       floor=st.integers(0x7F000 - 20, 0x7F000 + 660),
       released=st.integers(-20, 660))
def test_unwind_unmarks_exactly_the_released_slots(marked, floor, released):
    """Whichever side the unwind walks (released slots or the marked
    set), it unmarks exactly the marked blocks in ``[floor, rsp)``."""
    prof = MemoryEscapeProfiler(build(ESCAPE_SRC))
    prof._marked = set(marked)
    rsp = floor + released
    prof._unwind_stack(floor, rsp)
    assert prof._marked == {b for b in marked if not floor <= b < rsp}


#: six body uops touching GPR and FP state, then a SYS stop.
SLICE_SRC = """
.data
a: .double 1.5
.text
main:
  movsd xmm1, [rip + a]
  mov rax, 3
  addsd xmm1, xmm1
  add rax, 4
  movsd xmm2, [rip + a]
  mulsd xmm2, xmm1
  hlt
"""


def _core_state(cpu):
    return (cpu.regs.rip, cpu.cycles, cpu.work_cycles, cpu.instruction_count,
            dict(cpu.retired_by_class), cpu.regs.fp_dirty,
            cpu.fp_quantum_touched, list(cpu.regs.gpr),
            [list(x) for x in cpu.regs.xmm])


@pytest.mark.parametrize("start", range(6))
@pytest.mark.parametrize("k", [1, 2, 6])
def test_run_body_slice_accounts_like_steps(start, k):
    """The shared body runner retires a slice from an offset with the
    seed's accounting, FP dirty lanes included."""
    program = build(SLICE_SRC)
    k = min(k, 6 - start)

    def at_start():
        cpu = CPU(program, uops=False)
        for _ in range(start):
            cpu.step()
        cpu.regs.fp_dirty = 0
        cpu.fp_quantum_touched = False
        return cpu

    ref = at_start()
    for _ in range(k):
        ref.step()
    cpu = at_start()
    block = build_superblock(cpu, program.entry)
    assert block.n_body == 6
    assert UopEngine._run_body(cpu, block, k, start) == k
    assert _core_state(cpu) == _core_state(ref)
