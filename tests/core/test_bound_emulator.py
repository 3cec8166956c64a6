"""The bound emulator against the seed's per-kind interpreter.

:mod:`tests.core.emulator_oracle` keeps the interpreter the bound
closures of :mod:`repro.core.emulator` replaced.  Unit rows emulate one
instruction of every supported mnemonic in a live (short-circuit) and a
frame (signal) context under both emulators, from identical machine
states, and compare everything the emulation can touch.  The run-level
differential runs random compiled programs through both under every
paper configuration.
"""

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.conformance.generators import gen_program
from repro.core import correctness
from repro.core import emulator as emulator_module
from repro.core import nanbox
from repro.core.emulator import DEFAULT_SUPPORTED
from repro.core.vm import FPVM, FPVMConfig
from repro.fpu import bits as B
from repro.kernel.kernel import LinuxKernel
from repro.kernel.signals import SignalContext
from repro.machine.assembler import assemble
from repro.machine.cpu import CPU
from repro.machine.hostlib import install_host_library
from repro.machine.uops import lower
from repro.workloads import build_program

from tests.core.emulator_oracle import OracleEmulator

f2b = B.float_to_bits
SIGN = B.F64_SIGN_MASK
QNAN = 0x7FF8_0000_0000_0001

DATA = """
.data
v: .double 1.5, -0.0
w: .double 2.25, 7.0
neg: .double -4.0, 9.0
q: .quad 42, -3
slot: .quad 0, 0
.text
main:
  {instr}
  hlt
"""

#: mnemonic -> instruction forms; the named cases of the bound
#: emulator's contract are marked.
ROWS = {
    "addsd": ["addsd xmm0, xmm1", "addsd xmm1, [rip + slot]"],
    "subsd": ["subsd xmm2, xmm0"],
    "mulsd": ["mulsd xmm0, [rip + v]"],
    "divsd": ["divsd xmm1, xmm6", "divsd xmm0, xmm1"],  # zero divisor first
    "sqrtsd": ["sqrtsd xmm1, xmm0", "sqrtsd xmm0, xmm2"],
    "minsd": ["minsd xmm0, xmm3"],
    "maxsd": ["maxsd xmm0, xmm1"],
    "vfmadd213sd": ["vfmadd213sd xmm0, xmm1, xmm2",
                    "vfmadd213sd xmm1, xmm0, [rip + slot]"],
    "addpd": ["addpd xmm0, xmm1"],
    "subpd": ["subpd xmm1, [rip + w]"],
    "mulpd": ["mulpd xmm2, xmm0"],
    "divpd": ["divpd xmm0, [rip + neg]"],
    "sqrtpd": ["sqrtpd xmm1, [rip + v]",  # sqrtpd from memory
               "sqrtpd xmm0, xmm2"],
    "minpd": ["minpd xmm1, xmm0"],
    "maxpd": ["maxpd xmm0, xmm3"],
    "ucomisd": ["ucomisd xmm0, xmm3", "ucomisd xmm0, [rip + v]"],
    "comisd": ["comisd xmm1, xmm0"],
    # a cmp predicate on an unordered pair: xmm3's low lane is a NaN.
    **{f"cmp{p}sd": [f"cmp{p}sd xmm3, xmm0", f"cmp{p}sd xmm0, xmm1"]
       for p in ("eq", "lt", "le", "neq", "nlt", "nle", "ord", "unord")},
    "cvtsi2sd": ["cvtsi2sd xmm0, rdx", "cvtsi2sd xmm1, [rip + q]"],
    "cvttsd2si": ["cvttsd2si rax, xmm0", "cvttsd2si rax, [rip + neg]"],
    "cvtsd2si": ["cvtsd2si rbx, xmm1"],
    "movsd": ["movsd xmm0, [rip + v]",  # mem -> xmm zeroes the high lane
              "movsd xmm1, xmm0", "movsd [rip + slot], xmm2"],
    "movapd": ["movapd xmm1, xmm0", "movapd [rbx], xmm1"],
    "movupd": ["movupd xmm2, [rip + w]"],
    "movq": ["movq xmm1, rax", "movq rax, xmm0", "movq xmm2, xmm0",
             "movq xmm0, [rip + q]", "movq [rip + slot], xmm1"],
    "xorpd": ["xorpd xmm0, xmm4",  # sign mask over a boxed operand
              "xorpd xmm0, xmm5",  # a non-sign mask over a boxed operand
              "xorpd xmm5, xmm0", "xorpd xmm1, [rip + v]"],
    "mov": ["mov rax, [rip + q]", "mov [rip + slot], rdx", "mov rcx, rdx",
            "mov rax, [rbx + rcx*8]", "mov dword [rip + slot], rdx"],
    "lea": ["lea rax, [rbx + rcx*8 + 4]", "lea rbx, [rbx + 8]"],
    "push": ["push rdx", "push [rip + q]", "push 5", "push rsp"],
    "pop": ["pop rax", "pop [rip + slot]", "pop rsp"],
}

#: partial moves the default set leaves out (the Figure 7 terminator);
#: configurations may add them back.
EXTRA_ROWS = {
    "movhpd": ["movhpd xmm0, [rip + w]", "movhpd [rip + slot], xmm1"],
    "movlpd": ["movlpd xmm1, [rip + w]", "movlpd [rip + slot], xmm0"],
}


def _rows():
    for mnemonic, forms in {**ROWS, **EXTRA_ROWS}.items():
        for form in forms:
            yield pytest.param(form, id=form)


def test_rows_cover_every_supported_mnemonic():
    assert set(ROWS) == set(DEFAULT_SUPPORTED)


def _boxed(vm, value: float, negated: bool = False) -> int:
    ptr = vm.alloc_box(f2b(value))
    vm.flow.note_birth(ptr)
    return nanbox.box_bits(ptr, negated)


def _machine(instr: str, oracle: bool):
    """A CPU with ``instr`` at the entry and a VM (flow on) whose
    registers and memory hold plain, boxed and negated-boxed values."""
    prog = assemble(DATA.format(instr=instr))
    install_host_library(prog)
    cpu = CPU(prog)
    kernel = LinuxKernel()
    cpu.kernel = kernel
    vm = FPVM(FPVMConfig(patch_site_source="none", flow=True,
                         supported_instructions=DEFAULT_SUPPORTED | set(EXTRA_ROWS)))
    vm.attach(cpu, kernel)
    if oracle:
        vm.emulator = OracleEmulator(vm)
    xmm = cpu.regs.xmm
    xmm[0] = [_boxed(vm, 1.25), f2b(-3.0)]
    xmm[1] = [f2b(2.5), _boxed(vm, 0.75)]
    xmm[2] = [_boxed(vm, 4.0, negated=True), f2b(6.5)]
    xmm[3] = [QNAN, f2b(1.0)]
    xmm[4] = [SIGN, SIGN]
    xmm[5] = [0x7FF0_0000_0000_0000, 0x0000_0000_FFFF_FFFF]
    xmm[6] = [0, 0]
    data = prog.symbols["v"]
    cpu.regs.write_gpr(0, 7)                       # rax
    cpu.regs.write_gpr(3, data)                    # rbx
    cpu.regs.write_gpr(1, 1)                       # rcx
    cpu.regs.write_gpr(2, -5)                      # rdx
    cpu.mem.write_u64(prog.symbols["slot"], _boxed(vm, -0.5))
    cpu.mem.write_u64(prog.symbols["slot"] + 8, _boxed(vm, 3.0))
    return cpu, vm


def _memory_digest(cpu) -> str:
    """Address-space digest with the magic page's handler id (a
    process-wide registry counter) pinned to 0."""
    correctness.map_magic_page(cpu, 0)
    return cpu.mem.digest()


def _state(cpu, vm, ctx, results):
    snap = cpu.regs.snapshot()
    return {
        "results": results,
        "gpr": snap["gpr"], "xmm": snap["xmm"], "flags": snap["flags"],
        "fp_dirty": snap["fp_dirty"], "written_xmm": ctx.written_xmm,
        "fp_touched": cpu.fp_quantum_touched,
        "memory": _memory_digest(cpu),
        "boxes": dict(vm.allocator._boxes),
        "ledger": dict(vm.ledger.by_category),
        "counters": dict(vm.ledger.counters),
        "telemetry": dataclasses.asdict(vm.telemetry),
        "flow": vm.flow.fingerprint(),
        "cycles": cpu.cycles,
    }


def _emulate_row(instr: str, live: bool, oracle: bool):
    cpu, vm = _machine(instr, oracle)
    uop = lower(cpu.program.by_addr[cpu.program.entry])
    results = []
    # Twice: the second call runs the bound op from the table, against
    # the state the first one left.
    for _ in range(2):
        ctx = SignalContext(cpu, live=live)
        results.append(vm.emulator.emulate(uop, ctx))
        results.append(vm.emulator.any_source_boxed(uop, ctx))
        ctx.apply()
    return _state(cpu, vm, ctx, results)


@pytest.mark.parametrize("live", [True, False], ids=["live", "frame"])
@pytest.mark.parametrize("instr", list(_rows()))
def test_row_matches_oracle(instr, live):
    got = _emulate_row(instr, live, oracle=False)
    want = _emulate_row(instr, live, oracle=True)
    assert got["results"][0] is True
    for key in want:
        assert got[key] == want[key], key


def test_movsd_from_memory_zeroes_the_high_lane():
    state = _emulate_row("movsd xmm0, [rip + v]", True, oracle=False)
    assert state["xmm"][0] == [f2b(1.5), 0]


def test_unsupported_op_is_refused_and_never_bound(monkeypatch):
    calls = []
    real = emulator_module.bind
    monkeypatch.setattr(emulator_module, "bind",
                        lambda uop, vm: calls.append(uop) or real(uop, vm))
    cpu, vm = _machine("andpd xmm0, xmm1", oracle=False)
    uop = lower(cpu.program.by_addr[cpu.program.entry])
    ctx = SignalContext(cpu, live=True)
    assert vm.emulator.emulate(uop, ctx) is False
    assert vm.emulator.any_source_boxed(uop, ctx) is False
    assert calls == []


def test_lorenz_binds_once_per_emulated_address(monkeypatch):
    """On the long-sequence workload every emulated address is bound
    exactly once, however many traps and compiled replays re-run it."""
    bound = []
    real = emulator_module.bind
    monkeypatch.setattr(emulator_module, "bind",
                        lambda uop, vm: bound.append(uop.addr) or real(uop, vm))
    prog = build_program("lorenz", 400)
    cpu = CPU(prog)
    kernel = LinuxKernel()
    cpu.kernel = kernel
    vm = FPVM(FPVMConfig.seq_short()).attach(cpu, kernel)
    cpu.run()
    emulated = {a for addrs in vm.trace_stats.traces for a in addrs}
    assert vm.telemetry.compiled_trace_hits > 0
    assert vm.telemetry.emulated_instructions > 10 * len(emulated)
    assert sorted(bound) == sorted(emulated)


# --------------------------------------------- run-level differential
CONFIGS = {
    "NONE": FPVMConfig.none, "SEQ": FPVMConfig.seq,
    "SHORT": FPVMConfig.short, "SEQ_SHORT": FPVMConfig.seq_short,
}


def _run(seed: int, config: FPVMConfig, oracle: bool):
    prog = gen_program(seed).compile()
    install_host_library(prog)
    cpu = CPU(prog)
    kernel = LinuxKernel()
    cpu.kernel = kernel
    vm = FPVM(config)
    if oracle:
        vm.emulator = OracleEmulator(vm)
    vm.attach(cpu, kernel)
    cpu.run(max_steps=2_000_000)
    traces = {k: (r.count, r.terminator, r.reason)
              for k, r in vm.trace_stats.traces.items()}
    return {
        "output": cpu.output, "cycles": cpu.cycles, "regs": cpu.regs.snapshot(),
        "ledger": vm.ledger.snapshot(), "counters": dict(vm.ledger.counters),
        "telemetry": dataclasses.asdict(vm.telemetry), "traces": traces,
        "memory": _memory_digest(cpu),
        "flow": vm.flow.fingerprint() if vm.flow is not None else None,
    }


@settings(max_examples=24, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 10_000),
       config=st.sampled_from(sorted(CONFIGS)),
       altmath=st.sampled_from(["boxed_ieee", "posit"]),
       flow=st.booleans(),
       threshold=st.sampled_from([2, 8]))
def test_runs_match_oracle(seed, config, altmath, flow, threshold):
    cfg = CONFIGS[config](altmath=altmath, flow=flow,
                          trace_compile_threshold=threshold)
    got = _run(seed, cfg, oracle=False)
    want = _run(seed, cfg, oracle=True)
    for key in want:
        assert got[key] == want[key], key
