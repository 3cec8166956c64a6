"""The micro-op pipeline: bit-exact fast FP helpers, on/off execution
differentials, the FPVM_UOPS escape hatch, and superblock invalidation
on patch-state epoch changes."""

import random
import struct

import pytest

from repro.kernel.kernel import LinuxKernel
from repro.machine import hostfp, uops
from repro.machine.cpu import CPU, MachineError
from repro.machine.program import PatchKind
from repro.conformance.generators import fuzz_program
from repro.workloads import build_program


def _interesting_bits(rng: random.Random, n: int) -> list[int]:
    """Random binary64 patterns biased toward the edge cases."""
    specials = [
        0x0000_0000_0000_0000,  # +0
        0x8000_0000_0000_0000,  # -0
        0x7FF0_0000_0000_0000,  # +inf
        0xFFF0_0000_0000_0000,  # -inf
        0x7FF8_0000_0000_0000,  # qNaN
        0x7FF0_0000_0000_0001,  # sNaN
        0xFFF8_DEAD_BEEF_0123,  # NaN with payload
        0x0000_0000_0000_0001,  # min subnormal
        0x000F_FFFF_FFFF_FFFF,  # max subnormal
        0x7FEF_FFFF_FFFF_FFFF,  # max normal
        0x3FF0_0000_0000_0000,  # 1.0
        0xBFF0_0000_0000_0000,  # -1.0
        0x4000_0000_0000_0000,  # 2.0
        0x43E0_0000_0000_0000,  # 2^63
        0xC3E0_0000_0000_0000,  # -2^63
    ]
    out = list(specials)
    while len(out) < n:
        out.append(rng.getrandbits(64))
    return out


class TestFastScalarBitExactness:
    """The struct-based fast helpers must agree bit-for-bit with
    hostfp.native_fp — the function the seed interpreter's native FP
    path uses — on every input class."""

    def test_binary_ops(self):
        rng = random.Random(0xF9)
        vals = _interesting_bits(rng, 400)
        for op in ("add", "sub", "mul", "div", "min", "max"):
            fast = uops.FAST_SCALAR[op]
            for i in range(0, len(vals) - 1, 2):
                a, b = vals[i], vals[i + 1]
                assert fast(a, b) == hostfp.native_fp(op, a, b), (
                    f"{op}({a:#x}, {b:#x})"
                )

    def test_binary_ops_cross_pairs(self):
        rng = random.Random(0x51)
        vals = _interesting_bits(rng, 24)
        for op in ("add", "sub", "mul", "div", "min", "max"):
            fast = uops.FAST_SCALAR[op]
            for a in vals:
                for b in vals:
                    assert fast(a, b) == hostfp.native_fp(op, a, b)

    def test_sqrt(self):
        rng = random.Random(0xB2)
        for a in _interesting_bits(rng, 300):
            assert uops.FAST_SCALAR["sqrt"](a) == hostfp.native_fp("sqrt", a)

    def test_cmp_predicates_match_native(self):
        rng = random.Random(0xC3)
        vals = _interesting_bits(rng, 20)
        for mn, pred in uops.CMP_PREDS.items():
            fast = uops._CMP_FAST[pred]
            for a in vals:
                for b in vals:
                    fa = struct.unpack("<d", struct.pack("<Q", a))[0]
                    fb = struct.unpack("<d", struct.pack("<Q", b))[0]
                    want = hostfp.native_fp(f"cmp_{pred}", a, b)
                    got = 0xFFFF_FFFF_FFFF_FFFF if fast(fa, fb) else 0
                    assert got == want, f"{mn}/{pred}({a:#x}, {b:#x})"


class TestUopsOnOffDifferential:
    """Full-machine equality between the superblock engine and the seed
    single-step interpreter."""

    @pytest.mark.parametrize("seed", [1, 2, 7, 19, 42])
    def test_fuzz_programs_native(self, seed):
        results = {}
        for flag in (False, True):
            cpu = CPU(fuzz_program(seed), uops=flag)
            cpu.kernel = LinuxKernel()
            cpu.run()
            results[flag] = (
                cpu.cycles, cpu.work_cycles, cpu.instruction_count,
                tuple(cpu.output), dict(cpu.retired_by_class),
                cpu.fp_trap_count, cpu.bp_trap_count,
                cpu.regs.gpr, [list(x) for x in cpu.regs.xmm],
            )
        assert results[False] == results[True]

    def test_workload_native(self):
        prog = build_program("lorenz", 40)
        results = {}
        for flag in (False, True):
            cpu = CPU(prog.copy(), uops=flag)
            cpu.kernel = LinuxKernel()
            cpu.run()
            results[flag] = (cpu.cycles, cpu.instruction_count, tuple(cpu.output))
        assert results[False] == results[True]

    @pytest.mark.parametrize("chain,trace", [(False, False), (True, False),
                                             (True, True)],
                             ids=["uops", "chained", "traced"])
    def test_runaway_limit_matches_interpreter(self, chain, trace):
        """The runaway edge of every tier sits where the interpreter's
        does, including the halt edge: a limit equal to the seed's step
        count ``n`` raises although its last step halts, and ``n + 1``
        runs to completion."""
        prog = build_program("lorenz", 40)

        def make(uops_on):
            cpu = CPU(prog.copy(), uops=uops_on, chain=chain, trace=trace)
            cpu.kernel = LinuxKernel()
            cpu.trace_stabilize_threshold = 1
            return cpu

        seed = make(False)
        n = seed.run_quantum(10**9)
        assert seed.halted
        for limit in (1, 7, 100, n - 1, n):
            messages = {}
            for flag in (False, True):
                cpu = make(flag)
                with pytest.raises(MachineError) as exc:
                    cpu.run(max_steps=limit)
                messages[flag] = (str(exc.value), cpu.cycles,
                                  cpu.instruction_count, cpu.regs.rip)
            assert messages[False] == messages[True]
        cpu = make(True)
        cpu.run(max_steps=n + 1)
        assert cpu.halted
        assert (cpu.cycles, cpu.instruction_count) == (seed.cycles,
                                                       seed.instruction_count)
        if trace:
            assert cpu.uop_stats.trace_compiles > 0

    def test_uop_stats_populated(self):
        cpu = CPU(build_program("lorenz", 20), uops=True)
        cpu.kernel = LinuxKernel()
        cpu.run()
        stats = cpu.uop_stats
        assert stats is not None
        assert stats.uops_retired > 0
        assert stats.blocks_built > 0
        assert 0.0 < stats.uop_hit_rate <= 1.0


class TestEscapeHatch:
    def test_env_knob(self, monkeypatch):
        for value, expect in (("0", False), ("false", False), ("off", False),
                              ("no", False), ("1", True), ("", True), ("yes", True)):
            monkeypatch.setenv("FPVM_UOPS", value)
            assert uops.uops_enabled_default() is expect
        monkeypatch.delenv("FPVM_UOPS")
        assert uops.uops_enabled_default() is True

    def test_cpu_honours_env_default(self, monkeypatch):
        prog = fuzz_program(3)
        monkeypatch.setenv("FPVM_UOPS", "0")
        assert CPU(prog).uops_enabled is False
        monkeypatch.setenv("FPVM_UOPS", "1")
        assert CPU(prog).uops_enabled is True
        # Explicit kwarg wins over the environment.
        assert CPU(prog, uops=False).uops_enabled is False


class _CountingTrampoline:
    def __init__(self):
        self.call_count = 0

    def __call__(self, cpu, addr):
        self.call_count += 1


class TestSuperblockInvalidation:
    def test_patch_bumps_epoch(self):
        prog = fuzz_program(11)
        addr = prog.instructions[0].addr
        e0 = prog.patch_epoch
        prog.patch_int3(addr)
        assert prog.patch_epoch == e0 + 1
        prog.unpatch(addr)
        assert prog.patch_epoch == e0 + 2
        prog.unpatch(addr)  # no-op: nothing there
        assert prog.patch_epoch == e0 + 2
        prog.patch_call(addr, _CountingTrampoline())
        prog.clear_patches()
        assert prog.patch_epoch == e0 + 4
        prog.clear_patches()  # no-op when already empty
        assert prog.patch_epoch == e0 + 4

    def test_copy_carries_epoch(self):
        prog = fuzz_program(11)
        prog.patch_int3(prog.instructions[0].addr)
        assert prog.copy().patch_epoch == prog.patch_epoch

    def test_stale_superblock_regression(self):
        """A patch applied between runs of the *same* CPU must fire even
        though the addresses around it were already compiled into cached
        superblocks — the epoch bump flushes the block cache."""
        prog = build_program("lorenz", 30)
        cpu = CPU(prog, uops=True)
        cpu.kernel = LinuxKernel()
        cpu.run()
        assert cpu.uop_stats.blocks_built > 0

        # Patch an instruction in the *body* of the cached entry block.
        # (Block entries are patch-checked by the engine loop itself, so
        # only a body address truly exercises the epoch flush.)
        engine = cpu._uop_engine
        entry_block = engine._blocks.get(prog.entry)
        assert entry_block is not None and entry_block.n_body >= 2
        first = prog.by_addr[prog.entry]
        target = first.addr + first.size  # second instruction
        tramp = _CountingTrampoline()
        prog.patch_call(target, tramp)
        assert prog.patches[target].kind is PatchKind.MAGIC_CALL

        cpu.halted = False
        cpu.resume_at(prog.entry)
        try:
            # The finished stack frame is gone, so the re-run cannot
            # terminate cleanly; a few steps past the patch site suffice.
            cpu.run(max_steps=50)
        except MachineError:
            pass
        assert tramp.call_count > 0, (
            "magic pre-hook never fired: a stale superblock executed "
            "through the patch site"
        )
