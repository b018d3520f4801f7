"""THOR-lite CPU core: functional execution with cycle accounting.

The core executes one instruction per :meth:`Cpu.step`, charging base
cycle costs plus cache-miss penalties, and raising traps through the
error-detection mechanisms in :mod:`repro.thor.traps`. A trap halts the
CPU (the experiment terminates with a *detected error*, per the paper's
termination conditions); ``SYNC`` emits an iteration-boundary event used
by the environment-simulator exchange; ``HALT`` terminates the workload
normally.

Two implementations share the architectural semantics:

* the **fast path** (default) is one fused run loop,
  :meth:`Cpu._run_fast`, that runs until a cycle limit or a
  halt/sync/trap event with the limit check, the I-cache hit path, the
  exec-entry lookup and the ``last_exec`` bookkeeping inlined. Its exec
  entries are memoized per instruction word: closures that bind their
  register indices and immediates, built by the per-opcode specialisers
  of :mod:`repro.thor.dispatch` (validated against
  :data:`repro.thor.isa.SEMANTICS`).
  :meth:`Cpu._step_fast` is a one-instruction call into the same loop,
  so there is one copy of the fast semantics;
* the **reference path** (:meth:`Cpu._step_reference`) keeps the
  original straight-line decode + if-chain execute. It is not dead
  code: the core-equivalence and lockstep property suites and the E18
  benchmark run both dispatchers and require identical state and rows.

Selection (``step`` and ``run_until``) is per-instance at construction
from the :attr:`Cpu.fast_dispatch` class attribute.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.thor import isa
from repro.thor.cache import Cache, CacheParityError
from repro.thor.dispatch import (
    _COST,
    _HANDLERS,
    _M32,
    _MEMORY_OPS,
    _RECORDS_MEMORY,
    _Completed,
    _ExecEntry,
    _Specialiser,
    _TrapSignal,
)
from repro.thor.isa import IllegalOpcode, Instruction, Opcode
from repro.thor.memory import IllegalAddress, Memory, MemoryBus
from repro.thor.pipeline import PipelineLatches
from repro.thor.registers import Psr, RegisterFile
from repro.thor.traps import Trap, TrapEvent
from repro.util.bits import _WORD16_PARITY, to_signed, to_unsigned


@dataclass(frozen=True)
class CpuConfig:
    """Static configuration of one THOR-lite chip."""

    memory_size: int = 65536
    icache_lines: int = 16
    dcache_lines: int = 16
    words_per_line: int = 4
    miss_penalty: int = 8
    parity_checking: bool = True
    overflow_trap: bool = False
    # Memory-mapped I/O window (the environment-simulator exchange area):
    # loads/stores at or above this address bypass the D-cache, as real
    # MMIO regions must — the environment simulator writes this window
    # from outside the cache hierarchy.
    uncached_base: int = 0xFF00
    # CPU-internal watchdog: traps when a single run exceeds this many
    # cycles. None disables it (the test card still enforces its own
    # experiment timeout).
    watchdog_cycles: Optional[int] = None

    @property
    def address_bits(self) -> int:
        return max(1, (self.memory_size - 1).bit_length())


@dataclass
class LastExec:
    """What the last executed instruction did — consumed by fault triggers
    (branch / call / data-access triggers of the paper's Section 4)."""

    pc: int = 0
    opcode: Optional[Opcode] = None
    branch_taken: bool = False
    mem_address: Optional[int] = None
    mem_value: Optional[int] = None
    mem_is_write: bool = False
    reg_reads: Tuple[int, ...] = ()
    reg_writes: Tuple[int, ...] = ()


@dataclass(frozen=True)
class CpuEvent:
    """Event surfaced by one step: "halt", "trap" or "sync"."""

    kind: str
    trap: Optional[TrapEvent] = None
    iteration: int = 0


class CpuHalted(Exception):
    """step() was called on a halted CPU."""


@dataclass
class _Next:
    """Control-flow decision of the executing instruction."""

    pc: int
    taken: bool = False


class Cpu:
    """One THOR-lite chip: registers, PSR, PC, pipeline latches, caches,
    memory, cycle/instruction counters."""

    #: Class-level dispatcher selection, read once at construction.
    #: Tests flip this to compare the handler-table fast path against
    #: the reference decode/if-chain path on whole campaigns.
    fast_dispatch: bool = True

    def __init__(self, config: Optional[CpuConfig] = None):
        self.config = config or CpuConfig()
        self.memory = Memory(self.config.memory_size)
        self.bus = MemoryBus(self.memory)
        self.regs = RegisterFile()
        self.psr = Psr()
        self.pipeline = PipelineLatches()
        self.icache = Cache(
            "icache",
            n_lines=self.config.icache_lines,
            words_per_line=self.config.words_per_line,
            miss_penalty=self.config.miss_penalty,
            check_parity=self.config.parity_checking,
            address_bits=self.config.address_bits,
        )
        self.dcache = Cache(
            "dcache",
            n_lines=self.config.dcache_lines,
            words_per_line=self.config.words_per_line,
            miss_penalty=self.config.miss_penalty,
            check_parity=self.config.parity_checking,
            address_bits=self.config.address_bits,
        )
        self.pc = 0
        self.cycles = 0
        self.instret = 0
        self.iterations = 0
        self.halted = False
        self.trap_event: Optional[TrapEvent] = None
        self.last_exec = LastExec()
        # Hot-loop invariants, hoisted out of the per-step attribute
        # chains. ``_regs`` aliases the register file's backing list —
        # sound because RegisterFile mutates it strictly in place.
        self._memory_size = self.config.memory_size
        self._uncached_base = self.config.uncached_base
        self._watchdog = self.config.watchdog_cycles
        self._regs = self.regs._regs
        # Everything the fused run loop reads that no reset, restore or
        # scan write replaces (they all mutate these objects in place).
        icache = self.icache
        self._loop_invariants = (
            self._regs, self.psr, self.pipeline, self.bus, icache,
            self._memory_size, icache._offset_bits, icache._index_mask,
            icache._tag_shift, icache._offset_mask, icache.check_parity,
        )
        # Per-instance dispatcher binding (shadows nothing: ``step`` and
        # ``run_until`` have no class-level def; both implementations
        # stay addressable).
        fast = type(self).fast_dispatch
        self.step: Callable[[], Optional[CpuEvent]] = (
            self._step_fast if fast else self._step_reference
        )
        #: ``run_until(limit)``: run until ``cycles >= limit`` (returns
        #: None) or until an instruction halts, syncs or traps (returns
        #: its event).
        self.run_until: Callable[[int], Optional[CpuEvent]] = (
            self._run_fast if fast else self._run_reference
        )

    # -- lifecycle -----------------------------------------------------------

    def reset(self, entry: int = 0) -> None:
        """Power-on reset: clears all state except main memory contents
        (memory is loaded separately by the test card download port)."""
        overflow = self.config.overflow_trap
        self.regs.reset()
        self.psr.reset()
        self.psr.overflow_enable = overflow
        self.pipeline.reset()
        self.icache.reset()
        self.dcache.reset()
        self.bus.reset_force()
        self.pc = entry
        self.cycles = 0
        self.instret = 0
        self.iterations = 0
        self.halted = False
        self.trap_event = None
        self.last_exec = LastExec()

    def clear_trap(self) -> None:
        """Un-halt after a trap without touching any other state.

        Used by the test card's trap-hook path (runtime SWIFI resumes the
        workload after servicing the software trap it planted)."""
        self.halted = False
        self.trap_event = None

    # -- checkpoint support (golden-run warm starts) ---------------------------

    def snapshot(self) -> dict:
        """Everything but main memory, as plain picklable data.

        Captured at instruction boundaries along the trap-free reference
        run, so ``halted`` is False and no trap is latched; ``last_exec``
        is included because fault triggers consume it."""
        last = self.last_exec
        return {
            "regs": self.regs.snapshot(),
            "psr": self.psr.to_word(),
            "pipeline": self.pipeline.snapshot(),
            "icache": self.icache.snapshot_state(),
            "dcache": self.dcache.snapshot_state(),
            "bus": (
                self.bus.force_mask,
                self.bus.force_value,
                self.bus.force_reads,
            ),
            "pc": self.pc,
            "cycles": self.cycles,
            "instret": self.instret,
            "iterations": self.iterations,
            "last_exec": (
                last.pc,
                None if last.opcode is None else last.opcode.name,
                last.branch_taken,
                last.mem_address,
                last.mem_value,
                last.mem_is_write,
                tuple(last.reg_reads),
                tuple(last.reg_writes),
            ),
        }

    def restore(self, state: dict) -> None:
        """Inverse of :meth:`snapshot` (memory is restored separately by
        the test card's page loads). Leaves the CPU running (not halted,
        no trap latched) exactly as it was at the capture boundary."""
        self.regs.restore(state["regs"])
        self.psr.from_word(state["psr"])
        self.pipeline.restore(state["pipeline"])
        self.icache.restore_state(state["icache"])
        self.dcache.restore_state(state["dcache"])
        force_mask, force_value, force_reads = state["bus"]
        self.bus.force_mask = force_mask
        self.bus.force_value = force_value
        self.bus.force_reads = force_reads
        self.pc = state["pc"]
        self.cycles = state["cycles"]
        self.instret = state["instret"]
        self.iterations = state["iterations"]
        self.halted = False
        self.trap_event = None
        (
            pc,
            opcode_name,
            branch_taken,
            mem_address,
            mem_value,
            mem_is_write,
            reg_reads,
            reg_writes,
        ) = state["last_exec"]
        self.last_exec = LastExec(
            pc=pc,
            opcode=None if opcode_name is None else Opcode[opcode_name],
            branch_taken=branch_taken,
            mem_address=mem_address,
            mem_value=mem_value,
            mem_is_write=mem_is_write,
            reg_reads=tuple(reg_reads),
            reg_writes=tuple(reg_writes),
        )

    # -- trap path -------------------------------------------------------------

    def _raise_trap(self, trap: Trap, detail: str = "", code: int = 0) -> CpuEvent:
        event = TrapEvent(
            trap=trap, pc=self.pc, cycle=self.cycles, detail=detail, code=code
        )
        self.trap_event = event
        self.halted = True
        return CpuEvent(kind="trap", trap=event)

    # -- execution ----------------------------------------------------------------

    def _step_fast(self) -> Optional[CpuEvent]:
        """Execute one instruction (fast path). Returns an event or None.

        A one-instruction call into :meth:`_run_fast`: every opcode costs
        at least one cycle, so ``limit = cycles + 1`` stops the loop after
        exactly one instruction."""
        return self._run_fast(self.cycles + 1)

    def _run_reference(self, limit: int) -> Optional[CpuEvent]:
        """:meth:`run_until` over the reference step."""
        while self.cycles < limit:
            event = self._step_reference()
            if event is not None:
                return event
        return None

    def _run_fast(self, limit: int) -> Optional[CpuEvent]:
        """Run until ``cycles >= limit`` (returns None) or until an
        instruction halts, syncs or traps (returns its event).

        The fused run loop: the limit check, the I-cache hit path, the
        exec-entry lookup and the ``last_exec`` bookkeeping are inlined,
        and the run counters, the PC and the fetch latch live in locals
        that are written back once on exit. Semantically identical to
        repeated :meth:`_step_reference` calls — trap ordering, partial
        state of faulting instructions, cycle/counter accounting and the
        ``last_exec`` record — which the lockstep property suite pins at
        every instruction boundary.
        """
        if self.halted:
            raise CpuHalted("CPU is halted")
        (
            regs, psr, pipeline, bus, icache,
            memory_size, offset_bits, index_mask, tag_shift, offset_mask,
            check_parity,
        ) = self._loop_invariants
        pc = self.pc
        cycles = self.cycles
        instret = self.instret
        watchdog = self._watchdog
        # The watchdog folds into the loop bound: the instruction that
        # leaves ``cycles > watchdog`` is the last one this call runs.
        stop = limit if watchdog is None else min(
            limit, max(watchdog + 1, cycles + 1)
        )
        ir = pipeline.ir
        forced = pipeline.ir_forced
        lines = icache.lines
        parity16 = _WORD16_PARITY
        exec_cache = _EXEC_CACHE
        hits = 0
        last_entry: Optional[_ExecEntry] = None  # last completed instruction
        last_pc = 0
        taken = False
        trap: Optional[Tuple[Trap, str, int]] = None
        aborted = False  # the trapping instruction got past decode
        event: Optional[CpuEvent] = None
        while cycles < stop:
            # Fetch: the forced IR, an inline clean I-cache hit, or
            # Cache.read (misses and parity failures).
            if forced:
                forced = False
                pipeline.ir_forced = False
                word = ir
            elif 0 <= pc < memory_size:
                line = lines[(pc >> offset_bits) & index_mask]
                offset = pc & offset_mask
                word = line.data[offset]
                tag = line.tag
                if line.valid and tag == pc >> tag_shift and (
                    not check_parity
                    or (
                        parity16[tag & 0xFFFF] ^ parity16[tag >> 16]
                        == line.tag_parity
                        and parity16[word & 0xFFFF] ^ parity16[word >> 16]
                        == line.data_parity[offset]
                    )
                ):
                    hits += 1
                else:
                    try:
                        word, extra = icache.read(pc, bus)
                    except CacheParityError as exc:
                        trap = (Trap.ICACHE_PARITY, str(exc), 0)
                        break
                    cycles += extra
                ir = word
            else:
                trap = (Trap.ILLEGAL_ADDRESS, f"fetch from {pc:#x}", 0)
                break
            # Decode: one memoized lookup per instruction word.
            entry = exec_cache.get(word)
            if entry is None:
                entry = _fused_entry(word)
                if entry is None:
                    trap = (Trap.ILLEGAL_OPCODE, f"word {word:#010x}", 0)
                    break
            # Execute.
            execute, cost, memory_access, _ = entry
            cycles += cost
            try:
                if memory_access:
                    cycles += execute(self, regs, psr, pc)
                    npc = pc + 1
                else:
                    npc = execute(self, regs, psr, pc)
            except _Completed as done:  # HALT, SYNC
                event = CpuEvent(kind=done.kind, iteration=done.iteration)
                last_entry = entry
                last_pc = pc
                taken = False
                pc = (pc + 1) & _M32
                instret += 1
                break
            except _TrapSignal as signal:
                trap = (signal.trap, "", signal.code)
                aborted = True
                break
            except CacheParityError as exc:
                trap = (Trap.DCACHE_PARITY, str(exc), 0)
                aborted = True
                break
            except IllegalAddress as exc:
                trap = (Trap.ILLEGAL_ADDRESS, str(exc), 0)
                aborted = True
                break
            if npc < 0:  # a taken transfer returns ~target
                npc = ~npc
                cycles += 1
                taken = True
            else:
                taken = False
            last_entry = entry
            last_pc = pc
            pc = npc & _M32
            instret += 1

        self.pc = pc
        self.cycles = cycles
        self.instret = instret
        pipeline.ir = ir
        if hits:
            icache.stats.hits += hits
        last = self.last_exec
        if aborted:
            # A trapping instruction leaves a fresh record, like the
            # reference path's ``LastExec()`` before execute.
            last.pc = 0
            last.opcode = None
            last.branch_taken = False
            last.mem_address = None
            last.mem_value = None
            last.mem_is_write = False
            last.reg_reads = ()
            last.reg_writes = ()
        elif last_entry is not None:
            opcode = last_entry[3]
            last.pc = last_pc
            last.opcode = opcode
            last.branch_taken = taken
            if opcode not in _RECORDS_MEMORY:
                last.mem_address = None
                last.mem_value = None
                last.mem_is_write = False
            last.reg_reads = ()
            last.reg_writes = ()
            if trap is None and watchdog is not None and cycles > watchdog:
                trap = (Trap.WATCHDOG, f"cycle budget {watchdog}", 0)
        if trap is not None:
            kind, detail, code = trap
            return self._raise_trap(kind, detail=detail, code=code)
        return event

    def _step_reference(self) -> Optional[CpuEvent]:
        """Execute one instruction (reference path). Returns an event or
        None. This is the seed implementation, kept as the semantic
        oracle the fast path is property-tested against."""
        if self.halted:
            raise CpuHalted("CPU is halted")

        start_pc = self.pc

        # Fetch (through the I-cache, unless the scan chain forced the IR).
        if self.pipeline.ir_forced:
            word = self.pipeline.consume_forced_ir()
            self.cycles += 0  # forced IR models an already-latched fetch
        else:
            if not 0 <= self.pc < self.config.memory_size:
                return self._raise_trap(
                    Trap.ILLEGAL_ADDRESS, detail=f"fetch from {self.pc:#x}"
                )
            try:
                word, extra = self.icache.read(self.pc, self.bus)
            except CacheParityError as exc:
                return self._raise_trap(Trap.ICACHE_PARITY, detail=str(exc))
            self.cycles += extra
            self.pipeline.latch_fetch(word)

        # Decode.
        try:
            instr = isa.decode(word)
        except IllegalOpcode:
            return self._raise_trap(
                Trap.ILLEGAL_OPCODE, detail=f"word {word:#010x}"
            )

        # Execute.
        self.cycles += isa.CYCLE_COST[instr.opcode]
        try:
            event, nxt = self._execute(instr)
        except CacheParityError as exc:
            return self._raise_trap(Trap.DCACHE_PARITY, detail=str(exc))
        except IllegalAddress as exc:
            return self._raise_trap(Trap.ILLEGAL_ADDRESS, detail=str(exc))

        if event is not None and event.kind == "trap":
            return event

        if nxt.taken:
            self.cycles += 1
        self.pc = nxt.pc & isa.WORD_MASK
        self.instret += 1
        self.last_exec.pc = start_pc
        self.last_exec.opcode = instr.opcode
        self.last_exec.branch_taken = nxt.taken

        if (
            self.config.watchdog_cycles is not None
            and self.cycles > self.config.watchdog_cycles
        ):
            return self._raise_trap(
                Trap.WATCHDOG, detail=f"cycle budget {self.config.watchdog_cycles}"
            )
        return event

    # -- per-opcode semantics -----------------------------------------------------

    def _execute(self, instr: Instruction) -> Tuple[Optional[CpuEvent], _Next]:
        op = instr.opcode
        regs = self.regs
        seq = _Next(pc=self.pc + 1)
        self.last_exec = LastExec()

        if op is Opcode.NOP:
            return None, seq
        if op is Opcode.HALT:
            self.halted = True
            return CpuEvent(kind="halt"), seq
        if op is Opcode.SYNC:
            self.iterations += 1
            return CpuEvent(kind="sync", iteration=self.iterations), seq

        if op in (Opcode.ADD, Opcode.SUB, Opcode.ADDI, Opcode.SUBI):
            a = regs[instr.rs1]
            if op in (Opcode.ADD, Opcode.SUB):
                b = regs[instr.rs2]
            else:
                b = to_unsigned(instr.imm)
            subtract = op in (Opcode.SUB, Opcode.SUBI)
            result, carry, overflow = _add_sub(a, b, subtract)
            regs[instr.rd] = result
            self.psr.set_nz(result)
            self.psr.c = carry
            self.psr.v = overflow
            if overflow and self.psr.overflow_enable:
                return self._raise_trap(Trap.OVERFLOW), seq
            return None, seq

        if op in (Opcode.MUL, Opcode.MULI):
            a = to_signed(regs[instr.rs1])
            b = to_signed(regs[instr.rs2]) if op is Opcode.MUL else instr.imm
            result = to_unsigned(a * b)
            regs[instr.rd] = result
            self.psr.set_nz(result)
            return None, seq

        if op in (Opcode.DIV, Opcode.MOD):
            a = to_signed(regs[instr.rs1])
            b = to_signed(regs[instr.rs2])
            if b == 0:
                return self._raise_trap(Trap.DIV_ZERO), seq
            quotient = int(a / b)  # truncate toward zero
            result = quotient if op is Opcode.DIV else a - quotient * b
            regs[instr.rd] = to_unsigned(result)
            self.psr.set_nz(regs[instr.rd])
            return None, seq

        if op in (Opcode.AND, Opcode.OR, Opcode.XOR,
                  Opcode.ANDI, Opcode.ORI, Opcode.XORI):
            a = regs[instr.rs1]
            if op in (Opcode.AND, Opcode.OR, Opcode.XOR):
                b = regs[instr.rs2]
            else:
                b = to_unsigned(instr.imm)
            if op in (Opcode.AND, Opcode.ANDI):
                result = a & b
            elif op in (Opcode.OR, Opcode.ORI):
                result = a | b
            else:
                result = a ^ b
            regs[instr.rd] = result
            self.psr.set_nz(result)
            return None, seq

        if op in (Opcode.SHL, Opcode.SHR, Opcode.SRA,
                  Opcode.SHLI, Opcode.SHRI):
            a = regs[instr.rs1]
            if op in (Opcode.SHL, Opcode.SHR, Opcode.SRA):
                amount = regs[instr.rs2] & 31
            else:
                amount = instr.imm & 31
            if op in (Opcode.SHL, Opcode.SHLI):
                result = to_unsigned(a << amount)
            elif op in (Opcode.SHR, Opcode.SHRI):
                result = a >> amount
            else:  # SRA
                result = to_unsigned(to_signed(a) >> amount)
            regs[instr.rd] = result
            self.psr.set_nz(result)
            return None, seq

        if op is Opcode.NOT:
            result = to_unsigned(~regs[instr.rs1])
            regs[instr.rd] = result
            self.psr.set_nz(result)
            return None, seq
        if op is Opcode.MOV:
            regs[instr.rd] = regs[instr.rs1]
            self.psr.set_nz(regs[instr.rd])
            return None, seq
        if op is Opcode.LDI:
            regs[instr.rd] = to_unsigned(instr.imm)
            return None, seq
        if op is Opcode.LUI:
            regs[instr.rd] = to_unsigned(instr.imm << 14)
            return None, seq

        if op in (Opcode.CMP, Opcode.CMPI):
            a = regs[instr.rs1]
            b = regs[instr.rs2] if op is Opcode.CMP else to_unsigned(instr.imm)
            result, carry, overflow = _add_sub(a, b, subtract=True)
            self.psr.set_nz(result)
            self.psr.c = carry
            self.psr.v = overflow
            return None, seq

        if op is Opcode.LD:
            address = to_unsigned(regs[instr.rs1] + instr.imm)
            if address >= self.config.memory_size:
                raise IllegalAddress(address, "load")
            if address >= self.config.uncached_base:
                value = self.bus.read(address)
                self.cycles += 2  # uncached MMIO access
            else:
                value, extra = self.dcache.read(address, self.bus)
                self.cycles += extra
            regs[instr.rd] = value
            self.pipeline.latch_memory(address, value)
            self.last_exec.mem_address = address
            self.last_exec.mem_value = value
            return None, seq
        if op is Opcode.ST:
            address = to_unsigned(regs[instr.rs1] + instr.imm)
            if address >= self.config.memory_size:
                raise IllegalAddress(address, "store")
            value = regs[instr.rd]
            if address >= self.config.uncached_base:
                self.bus.write(address, value)
                self.cycles += 2  # uncached MMIO access
            else:
                self.cycles += self.dcache.write(address, value, self.bus)
            self.pipeline.latch_memory(address, value)
            self.last_exec.mem_address = address
            self.last_exec.mem_value = value
            self.last_exec.mem_is_write = True
            return None, seq

        if op is Opcode.PUSH:
            sp = to_unsigned(regs[isa.REG_SP] - 1)
            if sp >= self.config.memory_size:
                raise IllegalAddress(sp, "push")
            regs[isa.REG_SP] = sp
            self.cycles += self.dcache.write(sp, regs[instr.rd], self.bus)
            self.pipeline.latch_memory(sp, regs[instr.rd])
            return None, seq
        if op is Opcode.POP:
            sp = regs[isa.REG_SP]
            if sp >= self.config.memory_size:
                raise IllegalAddress(sp, "pop")
            value, extra = self.dcache.read(sp, self.bus)
            self.cycles += extra
            regs[instr.rd] = value
            regs[isa.REG_SP] = to_unsigned(sp + 1)
            self.pipeline.latch_memory(sp, value)
            return None, seq

        if op is Opcode.JMP:
            return None, _Next(pc=instr.imm, taken=True)
        if op is Opcode.JR:
            return None, _Next(pc=regs[instr.rs1], taken=True)
        if op is Opcode.CALL:
            regs[isa.REG_LR] = to_unsigned(self.pc + 1)
            return None, _Next(pc=instr.imm, taken=True)
        if op is Opcode.RET:
            return None, _Next(pc=regs[isa.REG_LR], taken=True)

        if op in isa.BRANCHES:
            taken = self._branch_taken(op)
            if taken:
                return None, _Next(pc=self.pc + 1 + instr.imm, taken=True)
            return None, seq

        if op is Opcode.TRAP:
            return self._raise_trap(Trap.SOFTWARE, code=instr.imm), seq

        raise AssertionError(f"unhandled opcode {op!r}")  # pragma: no cover

    def _branch_taken(self, op: Opcode) -> bool:
        psr = self.psr
        if op is Opcode.BEQ:
            return psr.z
        if op is Opcode.BNE:
            return not psr.z
        if op is Opcode.BLT:
            return psr.n != psr.v
        if op is Opcode.BGE:
            return psr.n == psr.v
        if op is Opcode.BGT:
            return (not psr.z) and psr.n == psr.v
        if op is Opcode.BLE:
            return psr.z or psr.n != psr.v
        raise AssertionError(op)  # pragma: no cover


def _add_sub(a: int, b: int, subtract: bool) -> Tuple[int, bool, bool]:
    """32-bit add/subtract with carry and signed-overflow flags."""
    if subtract:
        wide = a + (to_unsigned(~b)) + 1
        signed = to_signed(a) - to_signed(b)
    else:
        wide = a + b
        signed = to_signed(a) + to_signed(b)
    result = to_unsigned(wide)
    carry = wide > isa.WORD_MASK
    overflow = not (-(1 << 31) <= signed <= (1 << 31) - 1)
    return result, carry, overflow


# ---------------------------------------------------------------------------
# Exec-entry memo of the fused run loop (entries: repro.thor.dispatch)
# ---------------------------------------------------------------------------

#: Memoized exec entries of the fused loop: instruction word ->
#: :data:`_ExecEntry`. Illegal words never get an entry (no poisoning),
#: and the table is cleared when full, like the decode memo.
_EXEC_CACHE: Dict[int, _ExecEntry] = {}
_EXEC_CACHE_MAX = 1 << 16


def _exec_entry(word: int) -> Optional[Tuple[Instruction, _Specialiser, int]]:
    """Decode half of an exec entry: ``(instruction, specialiser, base
    cycle cost)``, or None for an illegal word."""
    instr = isa.try_decode(word)
    if instr is None:
        return None
    return instr, _HANDLERS[instr.opcode], _COST[instr.opcode]


def _fused_entry(word: int) -> Optional[_ExecEntry]:
    """Build and memoize the fused loop's entry for ``word``."""
    decoded = _exec_entry(word)
    if decoded is None:
        return None
    instr, specialise, cost = decoded
    entry = (specialise(instr), cost, instr.opcode in _MEMORY_OPS, instr.opcode)
    if len(_EXEC_CACHE) >= _EXEC_CACHE_MAX:
        _EXEC_CACHE.clear()
    _EXEC_CACHE[word] = entry
    return entry
