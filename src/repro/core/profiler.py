"""The PIN-like memory-escape profiler (§5.1).

Instruments every memory operation of a *native* profiling run with
shadow memory:

- an FP-typed store marks its 8-byte block "contains a float";
- an integer store (or stack release) unmarks the block;
- an integer load from a marked block records the loading instruction
  as a patch site.

Developers "patch their application for FPVM by simply profiling it
with the same workload" — the harness does exactly that before an
instrumented run.  The profiler finds a subset of the static
analysis's sites because it observes one concrete execution.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.machine.isa import RSP, Reg
from repro.machine.program import Program
from repro.machine.uops import UopEngine, build_superblock

#: steps each thread runs per round-robin turn.
SLICE = 32

#: ``runs`` marker for an address nothing has been built at yet.
_UNSEEN = object()


@dataclass
class ProfileResult:
    patch_sites: set[int] = field(default_factory=set)
    fp_stores: int = 0
    int_loads_of_floats: int = 0
    #: addresses of memory blocks that ever held a float (diagnostics).
    ever_marked: set[int] = field(default_factory=set)


def _ends_run(uop) -> bool:
    """Instructions a run stops before: anything that can move RSP
    (``push``, ``pop``, ``call``, ``ret`` or an RSP operand), so RSP is
    constant across a run.  ``call`` may also run host code.  A
    ``jmp``/``jcc`` is kept as the run's tail; SYS ends it anyway."""
    if uop.mnemonic in ("push", "pop", "call", "ret"):
        return True
    return any(isinstance(op, Reg) and op.id == RSP for op in uop.operands)


class MemoryEscapeProfiler:
    """Owns a profiling run over an uninstrumented program.

    Threads take turns of :data:`SLICE` steps.  Within a turn the
    profiler retires straight-line *runs* of bound micro-op closures,
    each optionally ended by a ``jmp``/``jcc`` tail
    (:func:`~repro.machine.uops.build_superblock` with :func:`_ends_run`
    as the stop rule), and single-steps everything else through the
    seed interpreter: ``call``/``ret``, SYS and RSP-moving
    instructions, SLOW closures, and every step of a thread whose
    ``uops_enabled`` is off (the ``FPVM_UOPS=0`` reference path).
    Each run is indexed by every address it covers, tail included, so
    a turn that ends mid-run resumes at an offset into it.  The
    profiled copy carries no patches and its host functions add none,
    so a run never goes stale."""

    def __init__(self, program: Program):
        # Never instrument the caller's program object.
        self.program = program.copy()
        self.program.clear_patches()
        self.result = ProfileResult()
        self._marked: set[int] = set()
        #: address of the executing instruction, for the observer: a
        #: one-slot list, so run closures can hold it without holding
        #: the profiler (no reference cycle outlives the pass).
        self._current_rip = [0]
        #: thread -> {address: (run, offset) or None}; None = step there.
        self._runs: dict = {}
        #: the profiled process, once :meth:`run` has built it.
        self.process = None
        #: guest steps taken, and how many of them retired in runs.
        self.steps = 0
        self.batched_steps = 0

    # ---------------------------------------------------------- observer
    def _observe(self, addr: int, size: int, kind: str, value: int) -> None:
        block = addr & ~7
        if kind == "fp_store":
            self._marked.add(block)
            if size == 16:
                self._marked.add(block + 8)
            self.result.fp_stores += 1
            self.result.ever_marked.add(block)
        elif kind == "int_store":
            self._marked.discard(block)
        elif kind == "int_load":
            if block in self._marked:
                self.result.patch_sites.add(self._current_rip[0])
                self.result.int_loads_of_floats += 1
        # fp_load: no shadow change.

    def _unwind_stack(self, floor: int, rsp: int) -> None:
        """Stack unwinding unmarks the released slots ``[floor, rsp)``
        (§5.1's unmark list), walking whichever is smaller: the
        released 8-byte slots or the marked set."""
        if rsp <= floor:
            return
        marked = self._marked
        lo = (floor + 7) & ~7
        if (rsp - lo) >> 3 < len(marked):
            for b in range(lo, rsp, 8):
                marked.discard(b)
        else:
            marked.difference_update(
                [b for b in marked if floor <= b < rsp])

    # -------------------------------------------------------------- runs
    def _at_rip(self, uop, fn):
        """Bind-time wrapper: only uops with a memory operand reach the
        observer, so only they need to publish their address."""
        if uop.instr.memory_operand() is None:
            return fn
        addr = uop.addr
        current = self._current_rip

        def at_rip():
            current[0] = addr
            return fn()
        return at_rip

    def _index_run(self, thread, runs: dict, rip: int):
        run = build_superblock(thread, rip, stop=_ends_run, wrap=self._at_rip)
        if not run.n_body and run.tail is None:
            runs[rip] = None
            return None
        for at, uop in enumerate(run.uops):
            runs.setdefault(uop.addr, (run, at))
        if run.tail is not None:
            runs.setdefault(run.tail_addr, (run, run.n_body))
        return runs[rip]

    def _slice(self, thread) -> int:
        """One round-robin turn of ``thread``; returns the steps taken.
        The stack floor is RSP as the last step left it, and only the
        thread's own steps move its RSP, so a turn starts from the
        current RSP.  Runs cannot move RSP, so only steps can release
        stack slots."""
        regs = thread.regs
        floor = regs.gpr[7]
        runs = None
        if thread.uops_enabled:
            runs = self._runs.setdefault(thread, {})
        taken = 0
        while taken < SLICE and not (thread.halted or thread.blocked):
            rip = regs.rip
            if runs is not None:
                hit = runs.get(rip, _UNSEEN)
                if hit is _UNSEEN:
                    hit = self._index_run(thread, runs, rip)
                if hit is not None:
                    run, at = hit
                    left = run.n_body - at
                    k = min(SLICE - taken, left)
                    done = UopEngine._run_body(thread, run, k, at) if k else 0
                    taken += done
                    self.batched_steps += done
                    if done == k:
                        if done == left and run.tail and taken < SLICE:
                            run.tail()
                            taken += 1
                            self.batched_steps += 1
                        continue
                    rip = regs.rip  # SLOW: the seed step re-executes it
            self._current_rip[0] = rip
            thread.step()
            rsp = regs.gpr[7]
            if rsp != floor:
                self._unwind_stack(floor, rsp)
                floor = rsp
            taken += 1
        return taken

    # --------------------------------------------------------------- run
    def run(self, max_steps: int = 50_000_000) -> ProfileResult:
        """Drive a fresh, isolated process under instrumentation — PIN
        instruments the whole process, spawned threads included, and
        profiling must never have side effects on the process being
        virtualized.  ``max_steps`` is checked between rounds."""
        from repro.machine.process import Process

        process = self.process = Process(self.program)
        process.mem.observers.append(self._observe)
        steps = 0
        try:
            while steps < max_steps:
                runnable = process.alive()
                if not runnable:
                    break
                for thread in runnable:
                    steps += self._slice(thread)
        finally:
            process.mem.observers.remove(self._observe)
        self.steps = steps
        return self.result


def profile_patch_sites(program: Program, max_steps: int = 50_000_000) -> set[int]:
    """Convenience wrapper: the set of instruction addresses needing
    correctness patches, per one profiled execution."""
    return MemoryEscapeProfiler(program).run(max_steps).patch_sites
