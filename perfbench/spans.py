"""Host-time spans around calls into the simulator's layers.

The benchmark does not change the program to trace it.  For a traced
sample, :func:`instrument` swaps each layer's public entry point (a
class method or a module-level name that callers look up at call time)
for a wrapper that opens a span, calls the original and closes the
span; on exit every original is put back.  A span has a name (the
layer's module plus the function), a start, an end and a parent, and
carries the id of the job it belongs to.  Self time is a span's
duration minus the time covered by its child spans.  Spans read the
wall clock, which is cheap enough to read around every trap; the job
phase times in :mod:`jobs` are thread CPU time.
"""

from __future__ import annotations

import contextlib
import functools
import json
from collections import Counter
from time import perf_counter_ns

from repro.altmath.boxed_ieee import BoxedIEEE
from repro.core import emulator as emulator_module
from repro.core import vm as vm_module
from repro.core.alloc import BoxAllocator
from repro.core.decode_cache import DecodeCache
from repro.core.emulator import Emulator
from repro.core.sequences import SequenceEmulator
from repro.core.vm import FPVM
from repro.kernel.kernel import LinuxKernel

#: (span name, owner, attribute) for every wrapped entry point.  The
#: owner is a class (methods resolve through it on every call) or the
#: module whose global the caller reads.
TARGETS = [
    ("kernel.deliver_trap", LinuxKernel, "deliver_trap"),
    ("core.vm.handle_fp", FPVM, "_handle_fp"),
    ("core.profiler.profile_patch_sites", vm_module, "profile_patch_sites"),
    ("core.sequences.handle_fp_trap", SequenceEmulator, "handle_fp_trap"),
    ("core.emulator.emulate", Emulator, "emulate"),
    ("core.emulator.any_source_boxed", Emulator, "any_source_boxed"),
    ("core.binding.bind", emulator_module, "bind"),
    ("core.decode_cache.lookup", DecodeCache, "lookup"),
    ("core.decode_cache.decode_miss", DecodeCache, "decode_miss"),
    ("core.alloc.needs_gc", BoxAllocator, "needs_gc"),
    ("core.alloc.collect", BoxAllocator, "collect"),
] + [
    (f"altmath.{name}", BoxedIEEE, name)
    for name in ("promote", "demote", "from_i64", "to_i64", "binary",
                 "unary", "fma", "compare", "is_nan_value", "libm")
]

DELIVER = "kernel.deliver_trap"

#: Chrome-trace budget: spans at most three deep (job; build, attach,
#: run; the profiling pass and trap deliveries) are always kept, deeper
#: ones only until this many spans are kept.
MAX_EVENTS = 100_000


class NullTracer:
    """Tracing off: the benchmark's own spans cost nothing."""

    def span(self, name: str):
        return contextlib.nullcontext()

    def new_job(self) -> None:
        pass


class Tracer:
    """Span recorder for one traced sample.  Self time, call counts and
    trap-delivery latencies aggregate as spans close; full span records
    are kept only when ``keep`` is set (the sample exported as a Chrome
    trace)."""

    def __init__(self, keep: bool = False) -> None:
        self.self_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.deliver_ns: list[int] = []
        self.events: list | None = [] if keep else None
        self.dropped = 0
        self.job = 0
        self._stack: list[list] = []  # [name, start, child_ns, span id]
        self._next_id = 1

    def new_job(self) -> None:
        self.job += 1

    def enter(self, name: str) -> None:
        self._stack.append([name, perf_counter_ns(), 0, self._next_id])
        self._next_id += 1

    def exit(self) -> None:
        end = perf_counter_ns()
        stack = self._stack
        name, start, child_ns, span_id = stack.pop()
        duration = end - start
        self.self_ns[name] += duration - child_ns
        self.calls[name] += 1
        if stack:
            stack[-1][2] += duration
        if name == DELIVER:
            self.deliver_ns.append(duration)
        if self.events is not None:
            if len(stack) <= 2 or len(self.events) < MAX_EVENTS:
                parent = stack[-1][3] if stack else 0
                self.events.append((span_id, parent, name, start, end, self.job))
            else:
                self.dropped += 1

    @contextlib.contextmanager
    def span(self, name: str):
        self.enter(name)
        try:
            yield
        finally:
            self.exit()


def _traced(tracer: Tracer, name: str, fn):
    enter, exit_ = tracer.enter, tracer.exit

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            exit_()

    return traced


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route every :data:`TARGETS` entry point through ``tracer`` for
    the duration of the ``with`` block."""
    saved = []
    try:
        for name, owner, attr in TARGETS:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, _traced(tracer, name, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def write_chrome_trace(path, tracer: Tracer, meta: dict) -> int:
    """Write the kept spans as Chrome trace-event JSON (opens in
    Perfetto); returns the number of events written."""
    events = sorted(tracer.events, key=lambda e: e[3])
    t0 = events[0][3] if events else 0
    out = [
        {"name": name, "cat": name.rsplit(".", 1)[0], "ph": "X",
         "ts": (start - t0) / 1000.0, "dur": (end - start) / 1000.0,
         "pid": 1, "tid": 1,
         "args": {"span": span_id, "parent": parent, "job": job}}
        for span_id, parent, name, start, end, job in events
    ]
    meta = dict(meta, dropped_events=tracer.dropped)
    with open(path, "w") as f:
        json.dump({"traceEvents": out, "displayTimeUnit": "ms",
                   "otherData": meta}, f)
    return len(out)
