"""Test-only oracle: the seed's per-kind instruction emulator.

This is the interpreter :mod:`repro.core.emulator` replaced with
once-per-op bound closures, kept verbatim (operand binding on every
call, dispatch on the op kind, the probe binding a second time) so the
differential tests can check the bound emulator against it: install it
with ``vm.emulator = OracleEmulator(vm)``.  Nothing in ``src/`` imports
it.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

from repro.core import nanbox
from repro.fpu import bits as B
from repro.fpu.ieee import UCOMI_EQUAL, UCOMI_GREATER, UCOMI_LESS, UCOMI_UNORDERED
from repro.machine.isa import GPR_IDS, Imm, Instruction, Label, Mem, OpClass, Reg, Xmm
from repro.machine.uops import CMP_TABLES, MicroOp, lower

U64 = 0xFFFF_FFFF_FFFF_FFFF
RSP = 7
_CMP_TABLES = CMP_TABLES


# ------------------------------------------------------------ binding
@dataclass
class BoundOperand:
    """One resolved operand."""

    kind: str                  # "gpr" | "xmm" | "imm" | "mem"
    index: int = 0             # register id, or 0
    address: int = 0           # effective address for "mem"
    size: int = 8
    immediate: int = 0

    def read64(self, context, lane: int = 0, fp: bool = False) -> int:
        if self.kind == "gpr":
            return context.read_gpr(self.index)
        if self.kind == "xmm":
            return context.read_xmm(self.index, lane)
        if self.kind == "imm":
            return self.immediate & U64
        if self.kind == "mem":
            return context.memory.observed_load(self.address + 8 * lane, self.size, fp)
        raise ValueError(self.kind)

    def write64(self, context, value: int, lane: int = 0, fp: bool = False) -> None:
        if self.kind == "gpr":
            context.write_gpr(self.index, value)
        elif self.kind == "xmm":
            context.write_xmm(self.index, value, lane)
        elif self.kind == "mem":
            context.memory.observed_store(self.address + 8 * lane, value, self.size, fp)
        else:
            raise ValueError(f"cannot write {self.kind} operand")


@dataclass
class Binding:
    """All operands of one instruction, resolved against one ucontext."""

    instruction: Instruction
    operands: list
    #: cycles this binding cost (per-operand), charged by the caller.
    cost_units: int = 0


def effective_address(mem: Mem, context) -> int:
    ea = mem.disp
    if mem.base is not None:
        ea += context.read_gpr(GPR_IDS[mem.base])
    if mem.index is not None:
        ea += context.read_gpr(GPR_IDS[mem.index]) * mem.scale
    return ea & U64


def bind(instr: Instruction, context) -> Binding:
    bound = []
    for op in instr.operands:
        if isinstance(op, Reg):
            bound.append(BoundOperand("gpr", index=op.id))
        elif isinstance(op, Xmm):
            bound.append(BoundOperand("xmm", index=op.id))
        elif isinstance(op, Imm):
            bound.append(BoundOperand("imm", immediate=op.value))
        elif isinstance(op, Mem):
            bound.append(
                BoundOperand("mem", address=effective_address(op, context), size=op.size)
            )
        elif isinstance(op, Label):
            bound.append(BoundOperand("imm", immediate=op.addr or 0))
        else:
            raise TypeError(f"unbindable operand {op!r}")
    return Binding(instr, bound, cost_units=max(len(bound), 1))


# ---------------------------------------------------------- emulator
class OracleEmulator:
    """The seed's stateless per-VM emulator; all state lives in the VM
    (allocator, altmath, ledger, telemetry)."""

    def __init__(self, vm) -> None:
        self.vm = vm
        self.supported_set = set(vm.config.supported_instructions)
        self._seen: dict = {}

    # ----------------------------------------------------------- queries
    def supported(self, instr: Instruction) -> bool:
        return instr.mnemonic in self.supported_set

    def bound_at(self, addr: int):
        """What the sequence emulator's compiled tier keeps per step: the
        seed decided only whether the boxed-source probe applies."""
        uop = self._seen.get(addr)
        if uop is None:
            return None
        return SimpleNamespace(
            probes=uop.fp_trap_capable and uop.mnemonic != "cvtsi2sd")

    def any_source_boxed(self, instr: Instruction, context) -> bool:
        """Termination rule (2) probe: does any FP source operand hold a
        NaN-boxed value owned by our allocator?"""
        alloc = self.vm.allocator
        for bits in self._fp_source_bits(instr, context):
            if nanbox.is_boxed(bits) and alloc.owns(bits & nanbox.NANBOX_PTR_MASK):
                return True
        return False

    def _fp_source_bits(self, instr: Instruction, context):
        mn = instr.mnemonic
        info = instr.info
        if info.opclass not in (OpClass.FP_ARITH, OpClass.FP_CVT):
            return
        binding = bind(instr, context)
        ops = binding.operands
        if mn == "vfmadd213sd":
            yield ops[0].read64(context, 0, fp=True)
            yield ops[1].read64(context, 0, fp=True)
            yield ops[2].read64(context, 0, fp=True)
            return
        if mn == "cvtsi2sd":
            return  # integer source; never boxed
        if mn in ("cvttsd2si", "cvtsd2si", "sqrtsd"):
            yield ops[1].read64(context, 0, fp=True)
            return
        if mn == "sqrtpd":
            yield ops[1].read64(context, 0, fp=True)
            yield ops[1].read64(context, 1, fp=True)
            return
        lanes = info.lanes
        for lane in range(lanes):
            yield ops[0].read64(context, lane, fp=True)
            yield ops[1].read64(context, lane, fp=True)

    # --------------------------------------------------------- emulation
    def emulate(self, instr: Instruction | MicroOp, context) -> bool:
        """Emulate one instruction; returns False if unsupported.
        Charges bind/emul/altmath and advances nothing — the caller
        owns RIP.

        Accepts a raw :class:`Instruction` or a lowered
        :class:`MicroOp`; raw instructions are lowered (cached on the
        instruction) so the dispatch decision is resolved once.
        """
        uop = instr if isinstance(instr, MicroOp) else lower(instr)
        if uop.mnemonic not in self.supported_set:
            return False
        self._seen[uop.addr] = uop
        vm = self.vm
        binding = bind(uop, context)
        vm.charge("bind", vm.costs.bind_per_operand * binding.cost_units)
        vm.charge("emul", vm.costs.emul_dispatch)

        flow = vm.flow
        if flow is not None:
            flow.begin_op(uop.addr)
        kind = uop.emu_kind
        if uop.fp_trap_capable:
            self._emulate_fp(kind, uop, binding, context)
        elif kind == "xorpd":
            self._emulate_xorpd(binding, context)
        elif kind == "fpmov":
            self._emulate_fp_move(uop.mnemonic, binding, context)
        else:
            self._emulate_int_move(uop.mnemonic, binding, context)
        if flow is not None:
            flow.end_op()
        vm.telemetry.emulated_instructions += 1
        vm.ledger.count("emulated_instructions")
        return True

    # ------------------------------------------------------- value flow
    def _resolve(self, bits: int):
        """Bits -> alt value (unbox ours, promote everything else)."""
        vm = self.vm
        if nanbox.is_boxed(bits):
            ptr, negated = nanbox.unbox(bits)
            if vm.allocator.owns(ptr):
                if vm.flow is not None:
                    vm.flow.note_source(ptr)
                vm.charge("altmath", vm.altmath.costs.load)
                value = vm.allocator.load(ptr)
                if negated:
                    vm.charge_alt("neg")
                    value = vm.altmath.unary("neg", value)
                return value
        vm.charge("altmath", vm.altmath.costs.promote)
        vm.telemetry.promotions += 1
        return vm.altmath.promote(bits)

    def _produce(self, value, context=None) -> int:
        """Alt value -> bits: canonical NaN for real NaNs, else a fresh
        box (``context`` provides GC roots for emergency collection)."""
        vm = self.vm
        if vm.altmath.is_nan_value(value):
            if vm.flow is not None:
                vm.flow.note_clamp()
            return B.CANONICAL_QNAN
        vm.charge("altmath", vm.altmath.costs.box)
        ptr = vm.alloc_box(value, context)
        vm.telemetry.boxes_allocated += 1
        if vm.flow is not None:
            vm.flow.note_birth(ptr)
        return nanbox.box_bits(ptr)

    def demote_bits(self, bits: int) -> int:
        """Public helper for wrappers/correctness: collapse a boxed
        pattern to plain binary64 (identity on everything else)."""
        vm = self.vm
        if nanbox.is_boxed(bits):
            ptr, negated = nanbox.unbox(bits)
            if vm.allocator.owns(ptr):
                if vm.flow is not None:
                    vm.flow.record_demote(ptr)
                vm.charge("altmath", vm.altmath.costs.demote)
                vm.telemetry.demotions += 1
                out = vm.altmath.demote(vm.allocator.load(ptr))
                if negated:
                    out ^= B.F64_SIGN_MASK
                return out
        return bits

    # ------------------------------------------------------ FP semantics
    def _emulate_fp(self, kind: str, uop, binding: Binding, context):
        """Dispatch on the micro-op's pre-resolved emulation kind (the
        lowering pass already classified the mnemonic)."""
        vm = self.vm
        ops = binding.operands
        if kind == "cvtsi2sd":
            vm.charge_alt_convert()
            value = vm.altmath.from_i64(ops[1].read64(context, 0, fp=False))
            ops[0].write64(context, self._produce(value, context), 0, fp=True)
            return
        if kind == "cvt2si":
            vm.charge_alt_convert()
            value = self._resolve(ops[1].read64(context, 0, fp=True))
            out = vm.altmath.to_i64(value, truncate=uop.emu_arg)
            ops[0].write64(context, out, 0, fp=False)
            return
        if kind == "ucomi":
            a = self._resolve(ops[0].read64(context, 0, fp=True))
            b = self._resolve(ops[1].read64(context, 0, fp=True))
            vm.charge("altmath", vm.altmath.costs.compare)
            c = vm.altmath.compare(a, b)
            packed = (
                UCOMI_UNORDERED if c is None
                else UCOMI_EQUAL if c == 0
                else UCOMI_LESS if c < 0
                else UCOMI_GREATER
            )
            flags = context.flags
            flags.zf = bool(packed & 1)
            flags.pf = bool(packed & 2)
            flags.cf = bool(packed & 4)
            flags.sf = False
            flags.of = False
            return
        if kind == "cmp":
            a = self._resolve(ops[0].read64(context, 0, fp=True))
            b = self._resolve(ops[1].read64(context, 0, fp=True))
            vm.charge("altmath", vm.altmath.costs.compare)
            c = vm.altmath.compare(a, b)
            if_unord, fn = _CMP_TABLES[uop.emu_arg]
            hit = if_unord if c is None else fn(c)
            ops[0].write64(context, U64 if hit else 0, 0, fp=True)
            return
        if kind == "fma":
            # dst = src2 * dst + src3 (the 213 operand order).
            mul2 = self._resolve(ops[1].read64(context, 0, fp=True))
            mul1 = self._resolve(ops[0].read64(context, 0, fp=True))
            addend = self._resolve(ops[2].read64(context, 0, fp=True))
            vm.charge_alt("fma")
            vm.telemetry.altmath_ops["fma"] += 1
            result = vm.altmath.fma(mul2, mul1, addend)
            ops[0].write64(context, self._produce(result, context), 0, fp=True)
            return
        if kind == "sqrt":
            for lane in range(uop.emu_arg):
                vm.charge_alt("sqrt")
                value = self._resolve(ops[1].read64(context, lane, fp=True))
                ops[0].write64(context,
                               self._produce(vm.altmath.unary("sqrt", value), context),
                               lane, fp=True)
            return
        # Binary arithmetic: addsd/addpd families.
        base = uop.ieee
        for lane in range(uop.lanes):
            a = self._resolve(ops[0].read64(context, lane, fp=True))
            b = self._resolve(ops[1].read64(context, lane, fp=True))
            vm.charge_alt(base)
            vm.telemetry.altmath_ops[base] += 1
            result = vm.altmath.binary(base, a, b)
            ops[0].write64(context, self._produce(result, context), lane, fp=True)

    def _emulate_xorpd(self, binding: Binding, context):
        ops = binding.operands
        for lane in range(2):
            a = ops[0].read64(context, lane, fp=True)
            b = ops[1].read64(context, lane, fp=True)
            # Raw xor: correct for plain doubles, and correct for boxed
            # values when the mask only touches the sign bit (the
            # compiler idiom) thanks to the negation convention.
            if nanbox.is_boxed(a) and (b & ~B.F64_SIGN_MASK):
                # A non-sign mask over a boxed value: demote first.
                a = self.demote_bits(a)
            if nanbox.is_boxed(b) and (a & ~B.F64_SIGN_MASK) and not nanbox.is_boxed(a):
                b = self.demote_bits(b)
            ops[0].write64(context, (a ^ b) & U64, lane, fp=True)

    def _emulate_fp_move(self, mn: str, binding: Binding, context):
        ops = binding.operands
        dst, src = ops
        if mn == "movsd":
            if dst.kind == "xmm" and src.kind == "xmm":
                dst.write64(context, src.read64(context, 0, fp=True), 0, fp=True)
            elif dst.kind == "xmm":
                dst.write64(context, src.read64(context, 0, fp=True), 0, fp=True)
                context.write_xmm(dst.index, 0, 1)  # zero high lane
            else:
                dst.write64(context, src.read64(context, 0, fp=True), 0, fp=True)
        elif mn in ("movapd", "movupd"):
            lo = src.read64(context, 0, fp=True)
            hi = src.read64(context, 1, fp=True)
            dst.write64(context, lo, 0, fp=True)
            dst.write64(context, hi, 1, fp=True)
        elif mn == "movq":
            value = src.read64(context, 0, fp=True)
            dst.write64(context, value, 0, fp=True)
            if dst.kind == "xmm":
                context.write_xmm(dst.index, 0, 1)
        elif mn == "movhpd":
            if dst.kind == "xmm":
                dst.write64(context, src.read64(context, 0, fp=True), 1, fp=True)
            else:
                dst.write64(context, src.read64(context, 1, fp=True), 0, fp=True)
        elif mn == "movlpd":
            if dst.kind == "xmm":
                dst.write64(context, src.read64(context, 0, fp=True), 0, fp=True)
            else:
                dst.write64(context, src.read64(context, 0, fp=True), 0, fp=True)
        else:  # pragma: no cover
            raise KeyError(mn)

    def _emulate_int_move(self, mn: str, binding: Binding, context):
        ops = binding.operands
        if mn == "mov":
            ops[0].write64(context, ops[1].read64(context, 0, fp=False), 0, fp=False)
        elif mn == "lea":
            ops[0].write64(context, ops[1].address, 0, fp=False)
        elif mn == "push":
            rsp = (context.read_gpr(RSP) - 8) & U64
            context.write_gpr(RSP, rsp)
            context.memory.write_u64(rsp, ops[0].read64(context, 0, fp=False))
        elif mn == "pop":
            rsp = context.read_gpr(RSP)
            ops[0].write64(context, context.memory.read_u64(rsp), 0, fp=False)
            context.write_gpr(RSP, (rsp + 8) & U64)
        else:  # pragma: no cover
            raise KeyError(mn)
