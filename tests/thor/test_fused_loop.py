"""Unit pins of the fused run loop (``Cpu._run_fast``) and its tables.

The lockstep property suite
(``tests/properties/test_prop_fused_lockstep.py``) proves the loop
equal to the reference step; these tests pin the structural rules it
relies on: one copy of the fast semantics, exec entries that never hold
an illegal word, closures specialised per instruction word, and an
exact 16-bit parity table.
"""

import random

from repro.thor import cpu as cpu_mod
from repro.thor.assembler import assemble
from repro.thor.cpu import Cpu
from repro.thor.isa import Instruction, Opcode, assemble_word, try_decode
from repro.thor.testcard import TestCard
from repro.util.bits import _WORD16_PARITY, parity


def _card(source):
    card = TestCard()
    card.init()
    card.load_program(assemble(source))
    return card


def test_step_fast_is_one_instruction_of_the_fused_loop(monkeypatch):
    card = _card(".org 0x100\nldi r1, 1\nldi r2, 2\nhalt\n")
    cpu = card.cpu
    limits = []
    run_fast = Cpu._run_fast

    def spy(self, limit):
        limits.append((self.cycles, limit))
        return run_fast(self, limit)

    monkeypatch.setattr(Cpu, "_run_fast", spy)
    assert cpu.step() is None
    assert cpu.instret == 1
    assert limits == [(0, 1)]


def test_run_until_stops_at_the_limit_without_consuming_forced_ir():
    card = _card(".org 0x100\nloop:\naddi r1, r1, 1\njmp loop\n")
    cpu = card.cpu
    word = assemble_word(Instruction(Opcode.LDI, rd=3, imm=9))
    cpu.pipeline.force_ir(word)
    assert cpu.run_until(cpu.cycles) is None
    assert cpu.instret == 0 and cpu.pipeline.ir_forced
    assert cpu.run_until(cpu.cycles + 1) is None
    assert cpu.regs.read(3) == 9 and not cpu.pipeline.ir_forced
    assert cpu.run_until(50) is None
    assert cpu.cycles >= 50
    assert cpu.last_exec.opcode in (Opcode.ADDI, Opcode.JMP)


def test_illegal_words_never_enter_the_fused_table():
    rng = random.Random(7)
    cpu_mod._EXEC_CACHE.clear()
    illegal = []
    while len(illegal) < 50:
        word = rng.getrandbits(32)
        if try_decode(word) is None:
            illegal.append(word)
    for word in illegal:
        assert cpu_mod._fused_entry(word) is None
    assert not cpu_mod._EXEC_CACHE


def test_entries_bind_operands_per_word():
    cpu_mod._EXEC_CACHE.clear()
    first = assemble_word(Instruction(Opcode.ADDI, rd=1, rs1=2, imm=3))
    second = assemble_word(Instruction(Opcode.ADDI, rd=4, rs1=5, imm=-6))
    entry_a = cpu_mod._fused_entry(first)
    entry_b = cpu_mod._fused_entry(second)
    assert entry_a[0] is not entry_b[0]
    assert entry_a[1:] == (1, False, Opcode.ADDI)
    assert cpu_mod._EXEC_CACHE[first] is entry_a
    regs = [0] * 16
    regs[2] = 10
    regs[5] = 10
    psr = Cpu().psr
    assert entry_a[0](None, regs, psr, 0x100) == 0x101
    assert entry_b[0](None, regs, psr, 0x100) == 0x101
    assert regs[1] == 13 and regs[4] == 4


def test_memory_entries_are_exactly_the_memory_opcodes():
    for opcode in Opcode:
        instr = Instruction(opcode)
        entry = cpu_mod._fused_entry(assemble_word(instr))
        assert entry is not None
        memory = opcode in (Opcode.LD, Opcode.ST, Opcode.PUSH, Opcode.POP)
        assert entry[2] is memory, opcode


def test_word16_parity_table_is_exact():
    assert len(_WORD16_PARITY) == 1 << 16
    for value in range(1 << 16):
        assert _WORD16_PARITY[value] == bin(value).count("1") & 1
    rng = random.Random(3)
    for _ in range(2000):
        word = rng.getrandbits(32)
        assert parity(word) == bin(word).count("1") & 1
