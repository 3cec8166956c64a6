"""FPVM — the floating point virtual machine (the paper's primary
contribution, plus this paper's three accelerations).

Composition, bottom-up:

- :mod:`repro.core.nanbox` / :mod:`repro.core.alloc` — NaN-boxed value
  representation, the allocator, and the conservative mark-and-sweep GC
  (§2.2, §2.5);
- :mod:`repro.core.decode_cache` / :mod:`repro.core.emulator` —
  decode/bind/emulate, the per-trap pipeline (§2.4); each instruction
  is bound once per VM into a closure the emulator reruns;
- :mod:`repro.core.sequences` — instruction sequence emulation and the
  trace statistics used for §6.3;
- :mod:`repro.core.analysis` / :mod:`repro.core.profiler` — the static
  and profiling-based patch-site finders (§2.6, §5.1);
- :mod:`repro.core.correctness` / :mod:`repro.core.wrappers` — magic
  traps and magic wraps (§5.2, §5.3);
- :mod:`repro.core.vm` — the FPVM runtime tying it together
  (LD_PRELOAD-style attach, signal or /dev registration, telemetry).
"""

from repro.core.telemetry import CycleLedger, Telemetry
from repro.core.nanbox import (
    box_bits,
    is_boxed,
    unbox,
    NANBOX_PTR_BITS,
)
from repro.core.alloc import BoxAllocator
from repro.core.decode_cache import DecodeCache
from repro.core.vm import FPVM, FPVMConfig

__all__ = [
    "CycleLedger",
    "Telemetry",
    "box_bits",
    "is_boxed",
    "unbox",
    "NANBOX_PTR_BITS",
    "BoxAllocator",
    "DecodeCache",
    "FPVM",
    "FPVMConfig",
]
