"""The instruction emulator (§2.4).

Emulates one decoded instruction against the alternative arithmetic
system:

- FP arithmetic promotes (or unboxes) sources, computes in altmath,
  and NaN-boxes the result;
- results that are genuine NaNs ("real NaNs") are stored as the
  canonical quiet NaN rather than boxed (§2.3);
- supported moves (the ~40-opcode subset of §4.2) shuttle raw bit
  patterns — boxed values travel as bits;
- everything else is unsupported and terminates emulation sequences.

Binding is once per op: :func:`bind` turns a lowered
:class:`~repro.machine.uops.MicroOp` into a :class:`BoundOp` — a shared
per-kind runner plus the arguments binding resolved (operand
addressing, lane count, altmath op, static ``bind``/``emul`` charge) —
that reads and writes machine state through the trap-time ucontext it
is handed.  Each VM keeps its bound ops in one table keyed by address,
so a trap re-binds nothing it has seen before; the ledger is still
charged the modelled bind cost on every emulation.

The default supported-move set deliberately excludes ``movhpd`` /
``movlpd`` (partial vector moves), reproducing the Figure 7 sequence
terminator, and excludes ``andpd``/``orpd`` masks while *supporting*
``xorpd`` (negation) via the sign-bit convention of
:mod:`repro.core.nanbox`.
"""

from __future__ import annotations

from functools import partial

from repro.core import nanbox
from repro.fpu import bits as B
from repro.fpu.ieee import UCOMI_EQUAL, UCOMI_GREATER, UCOMI_LESS, UCOMI_UNORDERED
from repro.machine.isa import GPR_IDS, Imm, Instruction, Label, Mem, Reg, Xmm
from repro.machine.uops import CMP_TABLES, MicroOp

U64 = 0xFFFF_FFFF_FFFF_FFFF
RSP = GPR_IDS["rsp"]
_SIGN = B.F64_SIGN_MASK
_BOX_MASK = nanbox._PATTERN_MASK
_BOX = nanbox._PATTERN
_PTR = nanbox.NANBOX_PTR_MASK

#: Instructions the emulator can decode, bind and emulate (§4.2's
#: "about 40 move opcodes" plus the arithmetic core and cmpxx family).
DEFAULT_SUPPORTED = frozenset(
    {
        # scalar arithmetic
        "addsd", "subsd", "mulsd", "divsd", "sqrtsd", "minsd", "maxsd",
        "vfmadd213sd",
        # packed arithmetic
        "addpd", "subpd", "mulpd", "divpd", "sqrtpd", "minpd", "maxpd",
        # compares (the family the baseline FPVM omitted; §4.2)
        "ucomisd", "comisd",
        "cmpeqsd", "cmpltsd", "cmplesd", "cmpneqsd", "cmpnltsd",
        "cmpnlesd", "cmpordsd", "cmpunordsd",
        # conversions
        "cvtsi2sd", "cvttsd2si", "cvtsd2si",
        # FP moves (partial-vector movhpd/movlpd intentionally absent)
        "movsd", "movapd", "movupd", "movq",
        # negation via sign-mask xor composes with the box convention
        "xorpd",
        # integer moves (the §4.2 extension)
        "mov", "lea", "push", "pop",
    }
)


class BoundOp:
    """One micro-op bound for one VM: a closure by hand.

    ``runner(em, context, args)`` is the shared module-level runner of
    the op's emulation kind; ``args`` holds what binding resolved — the
    operand accessors, lane count, altmath op and its cycle cost — so a
    bound op is two small objects, with no function object or closure
    cells of its own.  The first ``probes`` accessors in ``args`` are
    the FP sources termination rule (2) probes, over ``probe_lanes``
    lanes (0 for ops it never probes: non-FP ops and ``cvtsi2sd``).
    ``bind_cycles`` and ``emul_cycles`` are its static ledger charge.
    """

    __slots__ = ("uop", "runner", "args", "probes", "probe_lanes",
                 "bind_cycles", "emul_cycles")

    def __init__(self, uop, runner, args, probes, probe_lanes, bind_cycles,
                 emul_cycles) -> None:
        self.uop = uop
        self.runner = runner
        self.args = args
        self.probes = probes
        self.probe_lanes = probe_lanes
        self.bind_cycles = bind_cycles
        self.emul_cycles = emul_cycles


# ------------------------------------------------------ operand access
# Accessors are ``read(ctx, lane)`` / ``write(ctx, value, lane)``.
# Registers ignore ``lane`` except XMM; memory lane ``k`` lives at
# ``ea + 8k`` and is accessed with the operand's declared size.  The
# register accessors are shared tables; memory ones belong to a
# :class:`_MemOperand` bound per op.

class _MemOperand:
    """A memory operand with its addressing pre-resolved; ``read`` and
    ``write`` are its accessors.  The effective address is computed
    from the context's registers at run time."""

    __slots__ = ("bid", "iid", "scale", "disp", "size", "fp")

    def __init__(self, m: Mem, fp: bool = False) -> None:
        self.bid = GPR_IDS[m.base] if m.base is not None else None
        self.iid = GPR_IDS[m.index] if m.index is not None else None
        self.scale, self.disp, self.size, self.fp = m.scale, m.disp, m.size, fp

    def ea(self, ctx) -> int:
        ea = self.disp
        if self.bid is not None:
            ea += ctx.read_gpr(self.bid)
        if self.iid is not None:
            ea += ctx.read_gpr(self.iid) * self.scale
        return ea & U64

    def read(self, ctx, lane):
        return ctx.memory.observed_load(self.ea(ctx) + 8 * lane, self.size, self.fp)

    def write(self, ctx, value, lane):
        ctx.memory.observed_store(self.ea(ctx) + 8 * lane, value, self.size, self.fp)


def _read_xmm(xid, ctx, lane):
    return ctx.read_xmm(xid, lane)


def _write_xmm(xid, ctx, value, lane):
    ctx.write_xmm(xid, value, lane)


def _read_gpr(rid, ctx, lane):
    return ctx.read_gpr(rid)


def _write_gpr(rid, ctx, value, lane):
    ctx.write_gpr(rid, value)


def _read_const(value, ctx, lane):
    return value


def _cannot_write(ctx, value, lane):
    raise ValueError("cannot write an immediate operand")


#: lane iterators for one- and two-lane ops, shared by every bound op.
_LANES = (range(0), range(1), range(2))
_XMM_READ = tuple(partial(_read_xmm, i) for i in range(16))
_XMM_WRITE = tuple(partial(_write_xmm, i) for i in range(16))
_GPR_READ = tuple(partial(_read_gpr, i) for i in range(16))
_GPR_WRITE = tuple(partial(_write_gpr, i) for i in range(16))


def _reader(op, fp: bool):
    if isinstance(op, Xmm):
        return _XMM_READ[op.id]
    if isinstance(op, Mem):
        return _MemOperand(op, fp).read
    if isinstance(op, Reg):
        return _GPR_READ[op.id]
    if isinstance(op, Imm):
        return partial(_read_const, op.value & U64)
    if isinstance(op, Label):
        return partial(_read_const, (op.addr or 0) & U64)
    raise TypeError(f"unbindable operand {op!r}")


def _writer(op, fp: bool):
    if isinstance(op, Xmm):
        return _XMM_WRITE[op.id]
    if isinstance(op, Mem):
        return _MemOperand(op, fp).write
    if isinstance(op, Reg):
        return _GPR_WRITE[op.id]
    return _cannot_write


# ------------------------------------------------------------ runners
# ``_run_<kind>(em, ctx, args)``; :func:`_runner` picks one and its
# bound arguments per op.  Reads, writes, charges and box allocations
# happen in the seed emulator's order: allocation order fixes box
# addresses, and an emergency collection scans whatever the registers
# hold at that moment.

def _run_bin(em, ctx, args):
    ra, rb, wd, base, lanes, cost = args
    resolve, alt = em.resolve, em.altmath
    for lane in lanes:
        a = resolve(ra(ctx, lane))
        b = resolve(rb(ctx, lane))
        em.ledger.charge("altmath", cost)
        em.telemetry.altmath_ops[base] += 1
        wd(ctx, em.produce(alt.binary(base, a, b), ctx), lane)


def _run_sqrt(em, ctx, args):
    rs, wd, lanes, cost = args
    for lane in lanes:
        em.ledger.charge("altmath", cost)
        value = em.resolve(rs(ctx, lane))
        wd(ctx, em.produce(em.altmath.unary("sqrt", value), ctx), lane)


def _run_fma(em, ctx, args):
    r0, r1, r2, wd, cost = args
    # dst = src2 * dst + src3 (the 213 operand order).
    resolve = em.resolve
    mul2 = resolve(r1(ctx, 0))
    mul1 = resolve(r0(ctx, 0))
    addend = resolve(r2(ctx, 0))
    em.ledger.charge("altmath", cost)
    em.telemetry.altmath_ops["fma"] += 1
    wd(ctx, em.produce(em.altmath.fma(mul2, mul1, addend), ctx), 0)


def _compare(em, ctx, ra, rb, cost):
    a = em.resolve(ra(ctx, 0))
    b = em.resolve(rb(ctx, 0))
    em.ledger.charge("altmath", cost)
    return em.altmath.compare(a, b)


def _run_cmp(em, ctx, args):
    ra, rb, wd, if_unord, pred, cost = args
    c = _compare(em, ctx, ra, rb, cost)
    hit = if_unord if c is None else pred(c)
    wd(ctx, U64 if hit else 0, 0)


def _run_ucomi(em, ctx, args):
    ra, rb, cost = args
    c = _compare(em, ctx, ra, rb, cost)
    packed = (
        UCOMI_UNORDERED if c is None
        else UCOMI_EQUAL if c == 0
        else UCOMI_LESS if c < 0
        else UCOMI_GREATER
    )
    flags = ctx.flags
    flags.zf = bool(packed & 1)
    flags.pf = bool(packed & 2)
    flags.cf = bool(packed & 4)
    flags.sf = False
    flags.of = False


def _run_cvtsi2sd(em, ctx, args):
    rs, wd, cost = args
    em.ledger.charge("altmath", cost)
    wd(ctx, em.produce(em.altmath.from_i64(rs(ctx, 0)), ctx), 0)


def _run_cvt2si(em, ctx, args):
    rs, wd, truncate, cost = args
    em.ledger.charge("altmath", cost)
    value = em.resolve(rs(ctx, 0))
    wd(ctx, em.altmath.to_i64(value, truncate=truncate), 0)


def _run_xorpd(em, ctx, args):
    ra, rb, wd = args
    for lane in (0, 1):
        a = ra(ctx, lane)
        b = rb(ctx, lane)
        # Raw xor: correct for plain doubles, and correct for boxed
        # values when the mask only touches the sign bit (the compiler
        # idiom) thanks to the negation convention.
        if (a & _BOX_MASK) == _BOX and (b & ~_SIGN):
            # A non-sign mask over a boxed value: demote first.
            a = em.demote_bits(a)
        if (b & _BOX_MASK) == _BOX and (a & ~_SIGN) and (a & _BOX_MASK) != _BOX:
            b = em.demote_bits(b)
        wd(ctx, (a ^ b) & U64, lane)


def _run_move(em, ctx, args):
    rs, wd, src_lane, dst_lane = args
    wd(ctx, rs(ctx, src_lane), dst_lane)


def _run_move_zero_high(em, ctx, args):
    rs, wd = args
    wd(ctx, rs(ctx, 0), 0)
    wd(ctx, 0, 1)


def _run_move128(em, ctx, args):
    rs, wd = args
    lo = rs(ctx, 0)
    hi = rs(ctx, 1)
    wd(ctx, lo, 0)
    wd(ctx, hi, 1)


def _run_push(em, ctx, args):
    rs, = args
    rsp = (ctx.read_gpr(RSP) - 8) & U64
    ctx.write_gpr(RSP, rsp)
    ctx.memory.write_u64(rsp, rs(ctx, 0))


def _run_push_mem(em, ctx, args):
    src, = args
    addr = src.ea(ctx)  # taken before RSP moves
    rsp = (ctx.read_gpr(RSP) - 8) & U64
    ctx.write_gpr(RSP, rsp)
    mem = ctx.memory
    mem.write_u64(rsp, mem.observed_load(addr, src.size, False))


def _run_pop(em, ctx, args):
    wd, = args
    rsp = ctx.read_gpr(RSP)
    wd(ctx, ctx.memory.read_u64(rsp), 0)
    ctx.write_gpr(RSP, (rsp + 8) & U64)


def _run_lea(em, ctx, args):
    src, wd = args
    wd(ctx, src.ea(ctx) if src is not None else 0, 0)


def _runner(uop, ops, alt_costs) -> tuple:
    """The runner for ``uop``'s emulation kind and its bound arguments."""
    kind, mn = uop.emu_kind, uop.mnemonic
    if uop.fp_trap_capable:
        src = _reader(ops[1], kind != "cvtsi2sd")
        if kind == "bin":
            return _run_bin, (_reader(ops[0], True), src, _writer(ops[0], True),
                              uop.ieee, _LANES[uop.lanes], alt_costs.op(uop.ieee))
        if kind == "sqrt":
            return _run_sqrt, (src, _writer(ops[0], True), _LANES[uop.emu_arg],
                               alt_costs.op("sqrt"))
        if kind == "fma":
            return _run_fma, (_reader(ops[0], True), src, _reader(ops[2], True),
                              _writer(ops[0], True), alt_costs.op("fma"))
        if kind == "cmp":
            if_unord, pred = CMP_TABLES[uop.emu_arg]
            return _run_cmp, (_reader(ops[0], True), src, _writer(ops[0], True),
                              if_unord, pred, alt_costs.compare)
        if kind == "ucomi":
            return _run_ucomi, (_reader(ops[0], True), src, alt_costs.compare)
        if kind == "cvtsi2sd":
            return _run_cvtsi2sd, (src, _writer(ops[0], True), alt_costs.convert)
        return _run_cvt2si, (src, _writer(ops[0], False), uop.emu_arg,
                             alt_costs.convert)
    if kind == "xorpd":
        return _run_xorpd, (_reader(ops[0], True), _reader(ops[1], True),
                            _writer(ops[0], True))
    if kind == "fpmov":
        dst, src = ops
        rs, wd = _reader(src, True), _writer(dst, True)
        if mn in ("movapd", "movupd"):
            return _run_move128, (rs, wd)
        if mn == "movhpd":
            # xmm <- mem fills the high lane; mem <- xmm stores it.
            return _run_move, (rs, wd) + ((0, 1) if isinstance(dst, Xmm) else (1, 0))
        if mn not in ("movsd", "movq", "movlpd"):
            raise KeyError(mn)
        # movsd from memory and movq into an XMM register zero the high lane.
        if isinstance(dst, Xmm) and (mn == "movq" or (mn == "movsd" and not isinstance(src, Xmm))):
            return _run_move_zero_high, (rs, wd)
        return _run_move, (rs, wd, 0, 0)
    if kind == "intmov":
        if mn == "push":
            if isinstance(ops[0], Mem):
                return _run_push_mem, (_MemOperand(ops[0]),)
            return _run_push, (_reader(ops[0], False),)
        wd = _writer(ops[0], False)
        if mn == "pop":
            return _run_pop, (wd,)
        if mn == "lea":
            src = _MemOperand(ops[1]) if isinstance(ops[1], Mem) else None
            return _run_lea, (src, wd)
        if mn == "mov":
            return _run_move, (_reader(ops[1], False), wd, 0, 0)
    raise KeyError(mn)


def _probes(uop) -> tuple[int, int]:
    """How many leading accessors of the op's ``args`` termination rule
    (2) probes, and over how many lanes — the seed's order: lane-major,
    operands in order."""
    kind = uop.emu_kind
    if not uop.fp_trap_capable or kind == "cvtsi2sd":
        return 0, 0
    if kind == "fma":
        return 3, 1
    if kind == "sqrt":
        return 1, uop.emu_arg
    if kind == "cvt2si":
        return 1, 1
    return 2, uop.lanes


def bind(uop: MicroOp, vm) -> BoundOp:
    """Bind ``uop`` for ``vm``: resolve everything static about emulating
    it, once.  The ``bind`` ledger charge stays per operand, as the
    modelled pipeline pays it on every emulation."""
    ops = uop.operands
    runner, args = _runner(uop, ops, vm.altmath.costs)
    costs = vm.costs
    return BoundOp(uop, runner, args, *_probes(uop),
                   costs.bind_per_operand * max(len(ops), 1),
                   costs.emul_dispatch)


class Emulator:
    """Per-VM emulator: the table of bound ops plus the value-flow
    helpers they share; all other state lives in the VM (allocator,
    altmath, ledger, telemetry)."""

    def __init__(self, vm) -> None:
        self.vm = vm
        self.supported_set = set(vm.config.supported_instructions)
        self.ledger = vm.ledger
        self.telemetry = vm.telemetry
        self.altmath = vm.altmath
        self.allocator = vm.allocator
        #: address -> the op bound for the micro-op decoded there.
        self._ops: dict[int, BoundOp] = {}

    # ----------------------------------------------------------- queries
    def supported(self, instr: Instruction) -> bool:
        return instr.mnemonic in self.supported_set

    def bound_at(self, addr: int) -> BoundOp | None:
        """The op bound for ``addr`` (None before its first use)."""
        return self._ops.get(addr)

    def _bind(self, uop: MicroOp) -> BoundOp | None:
        """The op for ``uop`` when the table has none for it: bind it on
        first use (a re-decoded instruction — a new MicroOp at a known
        address — is bound afresh); None when it is unsupported."""
        if uop.mnemonic not in self.supported_set:
            return None
        op = self._ops[uop.addr] = bind(uop, self.vm)
        return op

    def any_source_boxed(self, uop: MicroOp, context) -> bool:
        """Termination rule (2) probe: does any FP source operand hold a
        NaN-boxed value owned by our allocator?"""
        op = self._ops.get(uop.addr)
        if op is None or op.uop is not uop:
            op = self._bind(uop)
            if op is None:
                return False
        if op.probes:
            owns = self.allocator.owns
            sources = op.args[:op.probes]
            for lane in range(op.probe_lanes):
                for read in sources:
                    bits = read(context, lane)
                    if (bits & _BOX_MASK) == _BOX and owns(bits & _PTR):
                        return True
        return False

    # --------------------------------------------------------- emulation
    def emulate(self, uop: MicroOp, context) -> bool:
        """Emulate one instruction; returns False if unsupported.
        Charges bind/emul/altmath and advances nothing — the caller
        owns RIP."""
        op = self._ops.get(uop.addr)
        if op is None or op.uop is not uop:
            op = self._bind(uop)
            if op is None:
                return False
        ledger = self.ledger
        ledger.charge("bind", op.bind_cycles)
        ledger.charge("emul", op.emul_cycles)
        flow = self.vm.flow
        if flow is None:
            op.runner(self, context, op.args)
        else:
            flow.begin_op(op.uop.addr)
            op.runner(self, context, op.args)
            flow.end_op()
        self.telemetry.emulated_instructions += 1
        ledger.counters["emulated_instructions"] += 1
        return True

    # ------------------------------------------------------- value flow
    def resolve(self, bits: int):
        """Bits -> alt value (unbox ours, promote everything else)."""
        vm = self.vm
        if (bits & _BOX_MASK) == _BOX:
            ptr = bits & _PTR
            if self.allocator.owns(ptr):
                if vm.flow is not None:
                    vm.flow.note_source(ptr)
                self.ledger.charge("altmath", self.altmath.costs.load)
                value = self.allocator.load(ptr)
                if bits & _SIGN:
                    vm.charge_alt("neg")
                    value = self.altmath.unary("neg", value)
                return value
        self.ledger.charge("altmath", self.altmath.costs.promote)
        self.telemetry.promotions += 1
        return self.altmath.promote(bits)

    def produce(self, value, context=None) -> int:
        """Alt value -> bits: canonical NaN for real NaNs, else a fresh
        box (``context`` provides GC roots for emergency collection)."""
        vm = self.vm
        if self.altmath.is_nan_value(value):
            if vm.flow is not None:
                vm.flow.note_clamp()
            return B.CANONICAL_QNAN
        self.ledger.charge("altmath", self.altmath.costs.box)
        ptr = vm.alloc_box(value, context)
        self.telemetry.boxes_allocated += 1
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
