"""Exec entries of THOR-lite's fused run loop (:meth:`repro.thor.cpu.
Cpu._run_fast`).

One specialiser per opcode turns a decoded instruction into a closure
that binds its register indices and immediates, so the hot path loads
no ``Instruction`` attributes. Each closure is a transcription of the
corresponding branch of ``Cpu._execute`` (the reference oracle) and is
called as ``execute(cpu, regs, psr, pc)``:

* a memory-access entry (LD, ST, PUSH, POP) returns its extra cycles
  and always falls through to ``pc + 1``;
* every other entry returns the next PC, or ``~target`` (a negative
  number) for a taken transfer, which costs one more cycle;
* HALT and SYNC raise :class:`_Completed` (the instruction completes
  and the loop returns its event); traps raised by an instruction
  (DIV_ZERO, OVERFLOW, SOFTWARE) raise :class:`_TrapSignal`.

State-mutation *order* is preserved exactly — e.g. PUSH updates SP
before the D-cache write that may raise on a protected page, so a
trapping PUSH leaves the same partial state under both dispatchers.
``repro.thor.cpu`` memoizes one entry per instruction word.
"""

from __future__ import annotations

import operator
from typing import TYPE_CHECKING, Callable, Dict, List, Tuple

from repro.thor import isa
from repro.thor.isa import Instruction, Opcode
from repro.thor.memory import IllegalAddress
from repro.thor.registers import Psr
from repro.thor.traps import Trap

if TYPE_CHECKING:
    from repro.thor.cpu import Cpu

_M32 = 0xFFFFFFFF
_SIGN = 0x80000000
_SP = isa.REG_SP
_LR = isa.REG_LR

_Execute = Callable[["Cpu", List[int], Psr, int], int]
_Specialiser = Callable[[Instruction], _Execute]
#: (execute, base cycle cost, memory access?, opcode)
_ExecEntry = Tuple[_Execute, int, bool, Opcode]


class _Completed(Exception):
    """HALT or SYNC executed: the loop completes the instruction and
    returns its event (``kind``, and the SYNC iteration count)."""

    def __init__(self, kind: str, iteration: int = 0):
        super().__init__(kind)
        self.kind = kind
        self.iteration = iteration


class _TrapSignal(Exception):
    """An executing instruction trapped (the loop raises the trap with
    the instruction's PC and cycle count)."""

    def __init__(self, trap: Trap, code: int = 0):
        super().__init__(trap.value)
        self.trap = trap
        self.code = code


def _signed(value: int) -> int:
    return value - 0x100000000 if value & _SIGN else value


def _x_nop(instr: Instruction) -> _Execute:
    def nop(cpu: Cpu, regs: List[int], psr: Psr, pc: int) -> int:
        return pc + 1

    return nop


def _x_halt(instr: Instruction) -> _Execute:
    def halt(cpu: Cpu, regs: List[int], psr: Psr, pc: int) -> int:
        cpu.halted = True
        raise _Completed("halt")

    return halt


def _x_sync(instr: Instruction) -> _Execute:
    def sync(cpu: Cpu, regs: List[int], psr: Psr, pc: int) -> int:
        cpu.iterations += 1
        raise _Completed("sync", cpu.iterations)

    return sync


def _x_trap(instr: Instruction) -> _Execute:
    code = instr.imm

    def software_trap(cpu: Cpu, regs: List[int], psr: Psr, pc: int) -> int:
        raise _TrapSignal(Trap.SOFTWARE, code)

    return software_trap


def _x_add(instr: Instruction) -> _Execute:
    rd, rs1, rs2 = instr.rd, instr.rs1, instr.rs2

    def add(cpu: Cpu, regs: List[int], psr: Psr, pc: int) -> int:
        a = regs[rs1]
        b = regs[rs2]
        wide = a + b
        result = wide & _M32
        regs[rd] = result
        psr.z = result == 0
        psr.n = result >= _SIGN
        psr.c = wide > _M32
        overflow = psr.v = (~(a ^ b) & (a ^ result)) >= _SIGN
        if overflow and psr.overflow_enable:
            raise _TrapSignal(Trap.OVERFLOW)
        return pc + 1

    return add


def _x_addi(instr: Instruction) -> _Execute:
    rd, rs1, b = instr.rd, instr.rs1, instr.imm & _M32

    def addi(cpu: Cpu, regs: List[int], psr: Psr, pc: int) -> int:
        a = regs[rs1]
        wide = a + b
        result = wide & _M32
        regs[rd] = result
        psr.z = result == 0
        psr.n = result >= _SIGN
        psr.c = wide > _M32
        overflow = psr.v = (~(a ^ b) & (a ^ result)) >= _SIGN
        if overflow and psr.overflow_enable:
            raise _TrapSignal(Trap.OVERFLOW)
        return pc + 1

    return addi


def _x_sub(instr: Instruction) -> _Execute:
    rd, rs1, rs2 = instr.rd, instr.rs1, instr.rs2

    def sub(cpu: Cpu, regs: List[int], psr: Psr, pc: int) -> int:
        a = regs[rs1]
        b = regs[rs2]
        result = (a - b) & _M32
        regs[rd] = result
        psr.z = result == 0
        psr.n = result >= _SIGN
        psr.c = a >= b
        overflow = psr.v = ((a ^ b) & (a ^ result)) >= _SIGN
        if overflow and psr.overflow_enable:
            raise _TrapSignal(Trap.OVERFLOW)
        return pc + 1

    return sub


def _x_subi(instr: Instruction) -> _Execute:
    rd, rs1, b = instr.rd, instr.rs1, instr.imm & _M32

    def subi(cpu: Cpu, regs: List[int], psr: Psr, pc: int) -> int:
        a = regs[rs1]
        result = (a - b) & _M32
        regs[rd] = result
        psr.z = result == 0
        psr.n = result >= _SIGN
        psr.c = a >= b
        overflow = psr.v = ((a ^ b) & (a ^ result)) >= _SIGN
        if overflow and psr.overflow_enable:
            raise _TrapSignal(Trap.OVERFLOW)
        return pc + 1

    return subi


def _x_cmp(instr: Instruction) -> _Execute:
    rs1, rs2 = instr.rs1, instr.rs2

    def cmp(cpu: Cpu, regs: List[int], psr: Psr, pc: int) -> int:
        a = regs[rs1]
        b = regs[rs2]
        result = (a - b) & _M32
        psr.z = result == 0
        psr.n = result >= _SIGN
        psr.c = a >= b
        psr.v = ((a ^ b) & (a ^ result)) >= _SIGN
        return pc + 1

    return cmp


def _x_cmpi(instr: Instruction) -> _Execute:
    rs1, b = instr.rs1, instr.imm & _M32

    def cmpi(cpu: Cpu, regs: List[int], psr: Psr, pc: int) -> int:
        a = regs[rs1]
        result = (a - b) & _M32
        psr.z = result == 0
        psr.n = result >= _SIGN
        psr.c = a >= b
        psr.v = ((a ^ b) & (a ^ result)) >= _SIGN
        return pc + 1

    return cmpi


def _x_mul(instr: Instruction) -> _Execute:
    rd, rs1, rs2 = instr.rd, instr.rs1, instr.rs2

    def mul(cpu: Cpu, regs: List[int], psr: Psr, pc: int) -> int:
        result = (_signed(regs[rs1]) * _signed(regs[rs2])) & _M32
        regs[rd] = result
        psr.z = result == 0
        psr.n = result >= _SIGN
        return pc + 1

    return mul


def _x_muli(instr: Instruction) -> _Execute:
    rd, rs1, b = instr.rd, instr.rs1, instr.imm

    def muli(cpu: Cpu, regs: List[int], psr: Psr, pc: int) -> int:
        a = regs[rs1]
        result = ((a - 0x100000000 if a & _SIGN else a) * b) & _M32
        regs[rd] = result
        psr.z = result == 0
        psr.n = result >= _SIGN
        return pc + 1

    return muli


def _divmod_specialiser(is_div: bool) -> _Specialiser:
    def specialise(instr: Instruction) -> _Execute:
        rd, rs1, rs2 = instr.rd, instr.rs1, instr.rs2

        def divmod_(cpu: Cpu, regs: List[int], psr: Psr, pc: int) -> int:
            sa = _signed(regs[rs1])
            sb = _signed(regs[rs2])
            if sb == 0:
                raise _TrapSignal(Trap.DIV_ZERO)
            quotient = int(sa / sb)  # truncate toward zero (reference idiom)
            result = (quotient if is_div else sa - quotient * sb) & _M32
            regs[rd] = result
            psr.z = result == 0
            psr.n = result >= _SIGN
            return pc + 1

        return divmod_

    return specialise


def _binary_specialiser(
    combine: Callable[[int, int], int], immediate: bool
) -> _Specialiser:
    """Logic and shift ops: ``result = combine(a, b) & M32`` with Z/N
    flags (``b`` is rs2 or the immediate; shifts mask it to 5 bits)."""

    def specialise(instr: Instruction) -> _Execute:
        rd, rs1, rs2, imm = instr.rd, instr.rs1, instr.rs2, instr.imm & _M32
        if immediate:
            def binary_imm(cpu: Cpu, regs: List[int], psr: Psr, pc: int) -> int:
                result = combine(regs[rs1], imm) & _M32
                regs[rd] = result
                psr.z = result == 0
                psr.n = result >= _SIGN
                return pc + 1

            return binary_imm

        def binary(cpu: Cpu, regs: List[int], psr: Psr, pc: int) -> int:
            result = combine(regs[rs1], regs[rs2]) & _M32
            regs[rd] = result
            psr.z = result == 0
            psr.n = result >= _SIGN
            return pc + 1

        return binary

    return specialise


def _shl(a: int, b: int) -> int:
    return a << (b & 31)


def _shr(a: int, b: int) -> int:
    return a >> (b & 31)


def _sra(a: int, b: int) -> int:
    return _signed(a) >> (b & 31)


def _x_not(instr: Instruction) -> _Execute:
    rd, rs1 = instr.rd, instr.rs1

    def not_(cpu: Cpu, regs: List[int], psr: Psr, pc: int) -> int:
        result = (~regs[rs1]) & _M32
        regs[rd] = result
        psr.z = result == 0
        psr.n = result >= _SIGN
        return pc + 1

    return not_


def _x_mov(instr: Instruction) -> _Execute:
    rd, rs1 = instr.rd, instr.rs1

    def mov(cpu: Cpu, regs: List[int], psr: Psr, pc: int) -> int:
        result = regs[rd] = regs[rs1]
        psr.z = result == 0
        psr.n = result >= _SIGN
        return pc + 1

    return mov


def _constant_specialiser(shift: int) -> _Specialiser:
    """LDI (shift 0) and LUI (shift 14): rd := imm << shift, no flags."""

    def specialise(instr: Instruction) -> _Execute:
        rd, value = instr.rd, (instr.imm << shift) & _M32

        def load_constant(
            cpu: Cpu, regs: List[int], psr: Psr, pc: int
        ) -> int:
            regs[rd] = value
            return pc + 1

        return load_constant

    return specialise


def _x_ld(instr: Instruction) -> _Execute:
    rd, rs1, imm = instr.rd, instr.rs1, instr.imm

    def ld(cpu: Cpu, regs: List[int], psr: Psr, pc: int) -> int:
        address = (regs[rs1] + imm) & _M32
        if address >= cpu._memory_size:
            raise IllegalAddress(address, "load")
        if address >= cpu._uncached_base:
            value = cpu.bus.read(address)
            extra = 2  # uncached MMIO access
        else:
            value, extra = cpu.dcache.read(address, cpu.bus)
        regs[rd] = value
        pipeline = cpu.pipeline
        pipeline.mar = address
        pipeline.mdr = value
        last = cpu.last_exec
        last.mem_address = address
        last.mem_value = value
        last.mem_is_write = False
        return extra

    return ld


def _x_st(instr: Instruction) -> _Execute:
    rd, rs1, imm = instr.rd, instr.rs1, instr.imm

    def st(cpu: Cpu, regs: List[int], psr: Psr, pc: int) -> int:
        address = (regs[rs1] + imm) & _M32
        if address >= cpu._memory_size:
            raise IllegalAddress(address, "store")
        value = regs[rd]
        if address >= cpu._uncached_base:
            cpu.bus.write(address, value)
            extra = 2  # uncached MMIO access
        else:
            cpu.dcache.write(address, value, cpu.bus)  # write buffer: 0 cycles
            extra = 0
        pipeline = cpu.pipeline
        pipeline.mar = address
        pipeline.mdr = value
        last = cpu.last_exec
        last.mem_address = address
        last.mem_value = value
        last.mem_is_write = True
        return extra

    return st


def _x_push(instr: Instruction) -> _Execute:
    rd = instr.rd

    def push(cpu: Cpu, regs: List[int], psr: Psr, pc: int) -> int:
        sp = (regs[_SP] - 1) & _M32
        if sp >= cpu._memory_size:
            raise IllegalAddress(sp, "push")
        regs[_SP] = sp  # SP moves before a (possibly trapping) store
        value = regs[rd]
        cpu.dcache.write(sp, value, cpu.bus)
        pipeline = cpu.pipeline
        pipeline.mar = sp
        pipeline.mdr = value
        return 0

    return push


def _x_pop(instr: Instruction) -> _Execute:
    rd = instr.rd

    def pop(cpu: Cpu, regs: List[int], psr: Psr, pc: int) -> int:
        sp = regs[_SP]
        if sp >= cpu._memory_size:
            raise IllegalAddress(sp, "pop")
        value, extra = cpu.dcache.read(sp, cpu.bus)
        regs[rd] = value
        regs[_SP] = (sp + 1) & _M32
        pipeline = cpu.pipeline
        pipeline.mar = sp
        pipeline.mdr = value
        return extra

    return pop


def _x_jmp(instr: Instruction) -> _Execute:
    taken = ~(instr.imm & _M32)

    def jmp(cpu: Cpu, regs: List[int], psr: Psr, pc: int) -> int:
        return taken

    return jmp


def _x_jr(instr: Instruction) -> _Execute:
    rs1 = instr.rs1

    def jr(cpu: Cpu, regs: List[int], psr: Psr, pc: int) -> int:
        return ~regs[rs1]

    return jr


def _x_call(instr: Instruction) -> _Execute:
    taken = ~(instr.imm & _M32)

    def call(cpu: Cpu, regs: List[int], psr: Psr, pc: int) -> int:
        regs[_LR] = (pc + 1) & _M32
        return taken

    return call


def _x_ret(instr: Instruction) -> _Execute:
    def ret(cpu: Cpu, regs: List[int], psr: Psr, pc: int) -> int:
        return ~regs[_LR]

    return ret


# Branch predicates over the PSR, one specialiser per conditional
# branch; coverage is derived from isa.SEMANTICS below.
_BRANCH_PREDICATES: Dict[Opcode, Callable[[Psr], bool]] = {
    Opcode.BEQ: lambda psr: psr.z,
    Opcode.BNE: lambda psr: not psr.z,
    Opcode.BLT: lambda psr: psr.n != psr.v,
    Opcode.BGE: lambda psr: psr.n == psr.v,
    Opcode.BGT: lambda psr: (not psr.z) and psr.n == psr.v,
    Opcode.BLE: lambda psr: psr.z or psr.n != psr.v,
}


def _branch_specialiser(predicate: Callable[[Psr], bool]) -> _Specialiser:
    def specialise(instr: Instruction) -> _Execute:
        displacement = 1 + instr.imm

        def branch(cpu: Cpu, regs: List[int], psr: Psr, pc: int) -> int:
            if predicate(psr):
                return ~((pc + displacement) & _M32)
            return pc + 1

        return branch

    return specialise


def _build_specialisers() -> Dict[Opcode, _Specialiser]:
    specialisers: Dict[Opcode, _Specialiser] = {
        Opcode.NOP: _x_nop,
        Opcode.HALT: _x_halt,
        Opcode.SYNC: _x_sync,
        Opcode.ADD: _x_add,
        Opcode.SUB: _x_sub,
        Opcode.ADDI: _x_addi,
        Opcode.SUBI: _x_subi,
        Opcode.MUL: _x_mul,
        Opcode.MULI: _x_muli,
        Opcode.DIV: _divmod_specialiser(is_div=True),
        Opcode.MOD: _divmod_specialiser(is_div=False),
        Opcode.AND: _binary_specialiser(operator.and_, immediate=False),
        Opcode.OR: _binary_specialiser(operator.or_, immediate=False),
        Opcode.XOR: _binary_specialiser(operator.xor, immediate=False),
        Opcode.ANDI: _binary_specialiser(operator.and_, immediate=True),
        Opcode.ORI: _binary_specialiser(operator.or_, immediate=True),
        Opcode.XORI: _binary_specialiser(operator.xor, immediate=True),
        Opcode.SHL: _binary_specialiser(_shl, immediate=False),
        Opcode.SHR: _binary_specialiser(_shr, immediate=False),
        Opcode.SRA: _binary_specialiser(_sra, immediate=False),
        Opcode.SHLI: _binary_specialiser(_shl, immediate=True),
        Opcode.SHRI: _binary_specialiser(_shr, immediate=True),
        Opcode.NOT: _x_not,
        Opcode.MOV: _x_mov,
        Opcode.LDI: _constant_specialiser(0),
        Opcode.LUI: _constant_specialiser(14),
        Opcode.CMP: _x_cmp,
        Opcode.CMPI: _x_cmpi,
        Opcode.LD: _x_ld,
        Opcode.ST: _x_st,
        Opcode.PUSH: _x_push,
        Opcode.POP: _x_pop,
        Opcode.JMP: _x_jmp,
        Opcode.JR: _x_jr,
        Opcode.CALL: _x_call,
        Opcode.RET: _x_ret,
        Opcode.TRAP: _x_trap,
    }
    specialisers.update(
        {
            op: _branch_specialiser(predicate)
            for op, predicate in _BRANCH_PREDICATES.items()
        }
    )
    # Derive coverage and control-flow agreement from the shared
    # semantics table rather than trusting the literals above.
    assert set(specialisers) == set(isa.SEMANTICS), (
        "fast-dispatch specialiser table must cover every opcode"
    )
    branch_ops = {
        op for op, sem in isa.SEMANTICS.items()
        if sem.flow == isa.FLOW_BRANCH
    }
    assert branch_ops == set(_BRANCH_PREDICATES), (
        "branch predicates out of sync with isa.SEMANTICS"
    )
    # ``limit = cycles + 1`` runs exactly one instruction only because
    # no opcode is free.
    assert min(isa.CYCLE_COST.values()) >= 1, "every opcode costs a cycle"
    return specialisers


#: Opcode -> specialiser (decoded instruction -> exec closure).
_HANDLERS: Dict[Opcode, _Specialiser] = _build_specialisers()
_COST: Dict[Opcode, int] = dict(isa.CYCLE_COST)
_MEMORY_OPS = frozenset(
    op for op, sem in isa.SEMANTICS.items() if sem.mem != isa.MEM_NONE
)
#: Opcodes whose completion leaves a memory access in ``last_exec``.
_RECORDS_MEMORY = frozenset((Opcode.LD, Opcode.ST))
