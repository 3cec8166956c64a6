"""Per-layer metrics of a traced sample, and the tables that print them.

Layers are named by the program's modules.  Times are self times of the
benchmark's spans (see :mod:`spans`); counts come from the telemetry the
program already keeps (``Telemetry``, ``UopStats``, ``SchedulerStats``,
the kernel's trap counters and the cycle ledger).
"""

from __future__ import annotations

from repro.core.telemetry import percentile
from repro.machine.costs import LEDGER_CATEGORIES

from jobs import ledger_totals

#: layer -> (its metrics, the end-to-end metrics it should move, the
#: workloads where it does most work, where it does little).
LAYERS = [
    ("workloads", ["workloads.build_s"], "setup_s", "all", "-"),
    ("core.profiler", ["core.profiler.self_s", "core.profiler.calls",
                       "core.profiler.guest_instr"],
     "setup_s, total_s", "mixed_mt_seq_short, enzo_sweep (4 calls)",
     "lorenz_seq_short"),
    ("core.vm", ["core.vm.attach_self_s", "core.vm.handler_self_s"],
     "setup_s", "all", "-"),
    ("kernel", ["kernel.deliveries", "kernel.signal_deliveries",
                "kernel.short_deliveries", "kernel.deliver_self_s",
                "kernel.deliver_us_p50", "kernel.deliver_us_p99"],
     "guest_ips, total_s", "enzo_sweep", "lorenz_seq_short"),
    ("core.sequences", ["core.sequences.self_s",
                        "core.sequences.instr_per_trap",
                        "core.sequences.compiled_hit_ratio"],
     "guest_ips", "lorenz_seq_short", "mixed_mt_seq_short"),
    ("core.emulator", ["core.emulator.calls", "core.emulator.self_s",
                       "core.emulator.us_per_instr"],
     "guest_ips", "lorenz_seq_short, enzo_sweep", "mixed_mt_seq_short"),
    ("core.binding", ["core.binding.binds_per_emulated",
                      "core.binding.self_s"],
     "guest_ips", "lorenz_seq_short", "mixed_mt_seq_short"),
    ("core.decode_cache", ["core.decode_cache.hit_ratio",
                           "core.decode_cache.self_s"],
     "guest_ips", "enzo_sweep", "lorenz_seq_short"),
    ("altmath", ["altmath.ops", "altmath.self_s"],
     "guest_ips", "(light everywhere under boxed_ieee)", "all"),
    ("core.alloc", ["core.alloc.boxes", "core.alloc.gc_runs",
                    "core.alloc.gc_self_s"],
     "guest_ips, peak_rss_mb", "enzo_sweep", "mixed_mt_seq_short"),
    ("machine", ["machine.native_instr", "machine.run_self_s",
                 "machine.uop_share", "machine.slow_fallbacks",
                 "machine.trace_compiles"],
     "guest_ips", "mixed_mt_seq_short", "lorenz_seq_short"),
    ("machine.process", ["machine.process.dispatches",
                         "machine.process.fp_switches",
                         "machine.process.fp_saves_elided"],
     "guest_ips", "mixed_mt_seq_short", "others (no Process)"),
    ("sim ledger", [f"sim.{c}_cpi" for c in LEDGER_CATEGORIES],
     "sim_slowdown", "all", "-"),
]

#: host layer group <-> simulated ledger categories it models.  Host
#: groups select spans by name prefix; the machine row's simulated side
#: is the native work (cycles outside the ledger) plus the categories
#: whose host code runs inside the machine's own span (correctness
#: demotions and foreign-call wrappers).
SIDE_BY_SIDE = [
    ("kernel", ("kernel.",), ("hw", "kernel", "ret")),
    ("seq_decode_bind", ("core.sequences.", "core.decode_cache.",
                         "core.binding."), ("decache", "decode", "bind")),
    ("emulator", ("core.emulator.", "core.vm.handle_fp"), ("emul",)),
    ("altmath", ("altmath.",), ("altmath",)),
    ("alloc", ("core.alloc.",), ("gc",)),
    ("machine", ("machine.",), ("native", "corr", "fcall")),
]

UNITS = {"_s": "s", "_us_p50": "us", "_us_p99": "us", "us_per_instr": "us",
         "_cpi": "cycles/instr", "_ratio": "ratio", "_share": "ratio",
         "binds_per_emulated": "ratio", "instr_per_trap": "instr/trap"}

TRACE_METRICS = ["tracing.overhead_s"]
SIDE_METRICS = [f"host_ns_pi.{group}" for group, _, _ in SIDE_BY_SIDE]
PER_LAYER = ([m for _, names, _, _, _ in LAYERS for m in names]
             + SIDE_METRICS + TRACE_METRICS)


def unit_of(metric: str) -> str:
    for suffix, unit in UNITS.items():
        if metric.endswith(suffix):
            return unit
    if metric.startswith("host_ns_pi."):
        return "ns/instr"
    return "count"


def _ns_matching(tracer, prefixes) -> int:
    return sum(ns for name, ns in tracer.self_ns.items()
               if name.startswith(prefixes))


def side_by_side(jobs, tracer) -> list[tuple[str, float, float]]:
    """(group, host ns per guest instruction, simulated cycles per guest
    instruction) for every :data:`SIDE_BY_SIDE` row."""
    guest = sum(j.guest_instr for j in jobs)
    ledger = ledger_totals(jobs)
    ledger["native"] = sum(j.cycles for j in jobs) - sum(ledger.values())
    return [
        (group, _ns_matching(tracer, prefixes) / guest,
         sum(ledger[c] for c in cats) / guest)
        for group, prefixes, cats in SIDE_BY_SIDE
    ]


def layer_metrics(jobs, tracer, native) -> dict[str, float]:
    """Every per-layer metric of one traced sample (tracing overhead is
    added by the caller, which also ran the untraced samples)."""
    self_s = {name: ns / 1e9 for name, ns in tracer.self_ns.items()}

    def layer_s(prefix: str) -> float:
        return _ns_matching(tracer, (prefix,)) / 1e9

    tel = [j.telemetry for j in jobs]
    emulated = sum(t.emulated_instructions for t in tel)
    sequences = sum(t.sequences for t in tel)
    decodes = sum(t.decode_hits + t.decode_misses for t in tel)
    uops = [s for j in jobs for s in j.uop_stats]
    retired = sum(s.uops_retired for s in uops)
    stepped = retired + sum(s.single_steps + s.slow_fallbacks for s in uops)
    scheds = [j.sched for j in jobs if j.sched is not None]
    guest = sum(j.guest_instr for j in jobs)
    ledger = ledger_totals(jobs)

    m = {
        "workloads.build_s": layer_s("workloads."),
        "core.profiler.self_s": layer_s("core.profiler."),
        "core.profiler.calls": tracer.calls["core.profiler.profile_patch_sites"],
        # the profiling pass runs the unpatched program to completion.
        "core.profiler.guest_instr": (
            tracer.calls["core.profiler.profile_patch_sites"]
            * native.instructions),
        "core.vm.attach_self_s": self_s.get("core.vm.attach", 0.0),
        "core.vm.handler_self_s": self_s.get("core.vm.handle_fp", 0.0),
        "kernel.deliveries": sum(j.kernel_traps for j in jobs),
        "kernel.signal_deliveries": sum(t.signal_traps for t in tel),
        "kernel.short_deliveries": sum(t.short_circuit_traps for t in tel),
        "kernel.deliver_self_s": layer_s("kernel."),
        "kernel.deliver_us_p50": percentile(tracer.deliver_ns, 50) / 1e3,
        "kernel.deliver_us_p99": percentile(tracer.deliver_ns, 99) / 1e3,
        "core.sequences.self_s": layer_s("core.sequences."),
        "core.sequences.instr_per_trap": emulated / max(sequences, 1),
        "core.sequences.compiled_hit_ratio": (
            sum(t.compiled_trace_hits for t in tel) / max(sequences, 1)),
        "core.emulator.calls": tracer.calls["core.emulator.emulate"],
        "core.emulator.self_s": layer_s("core.emulator."),
        "core.emulator.us_per_instr": (
            layer_s("core.emulator.") * 1e6 / max(emulated, 1)),
        "core.binding.binds_per_emulated": (
            tracer.calls["core.binding.bind"] / max(emulated, 1)),
        "core.binding.self_s": layer_s("core.binding."),
        "core.decode_cache.hit_ratio": (
            sum(t.decode_hits for t in tel) / max(decodes, 1)),
        "core.decode_cache.self_s": layer_s("core.decode_cache."),
        "altmath.ops": sum(sum(t.altmath_ops.values()) for t in tel),
        "altmath.self_s": layer_s("altmath."),
        "core.alloc.boxes": sum(t.boxes_allocated for t in tel),
        "core.alloc.gc_runs": sum(t.gc_runs for t in tel),
        "core.alloc.gc_self_s": layer_s("core.alloc."),
        "machine.native_instr": sum(j.native_retired for j in jobs),
        "machine.run_self_s": layer_s("machine."),
        "machine.uop_share": retired / max(stepped, 1),
        "machine.slow_fallbacks": sum(s.slow_fallbacks for s in uops),
        "machine.trace_compiles": sum(s.trace_compiles for s in uops),
        "machine.process.dispatches": sum(s.dispatches for s in scheds),
        "machine.process.fp_switches": sum(s.fp_switches for s in scheds),
        "machine.process.fp_saves_elided": sum(s.fp_saves_elided
                                               for s in scheds),
    }
    for c in LEDGER_CATEGORIES:
        m[f"sim.{c}_cpi"] = ledger[c] / guest
    for group, host_ns, _ in side_by_side(jobs, tracer):
        m[f"host_ns_pi.{group}"] = host_ns
    return m


def layer_table(values: dict[str, float]) -> list[str]:
    lines = [f"{'layer':<18} {'metric':<36} {'value':>14} {'unit':<12} "
             f"should move / most work in / little in"]
    for layer, names, moves, most, little in LAYERS:
        for i, name in enumerate(names):
            note = f"{moves} / {most} / {little}" if i == 0 else ""
            lines.append(f"{layer if i == 0 else '':<18} {name:<36} "
                         f"{values[name]:>14.6g} {unit_of(name):<12} {note}")
    return lines


def side_table(rows) -> list[str]:
    lines = [f"{'host layer group':<18} {'host ns/instr':>14}   "
             f"{'sim cycles/instr':>16}  ledger categories"]
    for (group, host_ns, sim_cpi), (_, _, cats) in zip(rows, SIDE_BY_SIDE):
        lines.append(f"{group:<18} {host_ns:>14.2f}   {sim_cpi:>16.2f}  "
                     f"{'+'.join(cats)}")
    return lines
