"""THOR-lite: a simulated microprocessor substrate for fault injection.

The paper injects faults into a Thor RD — a radiation-hardened CPU with
parity-protected instruction and data caches and IEEE-1149.1 scan chains.
Neither the chip nor its test card is available, so this package provides a
from-scratch simulator with the properties fault injection actually needs:

* a real ISA executed instruction-by-instruction (``isa``, ``cpu``, with
  the fused run loop's per-opcode exec entries in ``dispatch``),
* an assembler for writing workloads (``assembler``),
* architectural state elements faults can land in — register file, PSR,
  PC, pipeline latches (``registers``, ``pipeline``),
* parity-protected I/D caches whose parity bits are genuine stored state
  (``cache``),
* error-detection mechanisms that fire on corrupted state (``traps``),
* boundary and internal scan chains giving serialized access to almost all
  state elements, with read-only cells (``scanchain``),
* a test card wrapping the chip with download, run-control, breakpoints and
  debug events (``testcard``).
"""

from repro.thor.isa import Instruction, Opcode, assemble_word, decode
from repro.thor.assembler import assemble
from repro.thor.cpu import Cpu, CpuConfig
from repro.thor.testcard import TestCard, DebugEvent, DebugEventKind

__all__ = [
    "Instruction",
    "Opcode",
    "assemble_word",
    "decode",
    "assemble",
    "Cpu",
    "CpuConfig",
    "TestCard",
    "DebugEvent",
    "DebugEventKind",
]
