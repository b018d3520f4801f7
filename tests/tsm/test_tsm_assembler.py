"""Unit tests for the TSM mini-assembler and board."""

import pytest

from repro.thor.testcard import DebugEventKind
from repro.tsm.assembler import assemble_tsm
from repro.tsm.board import TsmBoard
from repro.tsm.machine import TsmOp, decode
from repro.util.errors import AssemblerError, TargetError


class TestAssembler:
    def test_labels_and_jumps(self):
        program = assemble_tsm("start:\n jmp end\n nop\nend: halt\n")
        op, operand = decode(program.words[program.entry])
        assert op is TsmOp.JMP
        assert operand == program.symbols["end"]

    def test_word_directive(self):
        program = assemble_tsm("v: word 0x123\n")
        assert program.words[program.symbols["v"]] == 0x123
        assert program.kinds[program.symbols["v"]] == "data"

    def test_negative_pushi(self):
        program = assemble_tsm("start: pushi -1\nhalt\n")
        op, operand = decode(program.words[program.entry])
        assert op is TsmOp.PUSHI
        assert operand == 0x3FF  # sign-extended -1 in 10 bits

    def test_pushi_range_checked(self):
        with pytest.raises(AssemblerError):
            assemble_tsm("start: pushi 512\n")
        assemble_tsm("start: pushi 511\n")
        assemble_tsm("start: pushi -512\n")

    def test_operand_range_checked(self):
        with pytest.raises(AssemblerError):
            assemble_tsm("start: jmp 1024\n")

    def test_unknown_mnemonic_rejected(self):
        with pytest.raises(AssemblerError):
            assemble_tsm("start: fly\n")

    def test_duplicate_label_rejected(self):
        with pytest.raises(AssemblerError):
            assemble_tsm("a: nop\na: nop\n")

    def test_undefined_symbol_rejected(self):
        with pytest.raises(AssemblerError):
            assemble_tsm("start: jmp void\n")

    def test_stray_operand_rejected(self):
        with pytest.raises(AssemblerError):
            assemble_tsm("start: dup 3\n")

    def test_comments_and_blank_lines(self):
        program = assemble_tsm("; header\n\nstart: halt ; done\n")
        assert len(program.words) == 1

    def test_entry_defaults_to_origin(self):
        program = assemble_tsm("nop\nhalt\n", origin=0x40)
        assert program.entry == 0x40


class TestBoard:
    def test_run_to_halt(self):
        board = TsmBoard()
        board.init()
        board.load_program(assemble_tsm("start:\n pushi 3\n storei v\n halt\nv: word 0\n"))
        event = board.run(timeout_cycles=1000)
        assert event.kind is DebugEventKind.HALT
        assert board.read_memory(board.program.symbols["v"]) == 3

    def test_stop_cycle_breakpoint_and_resume(self):
        board = TsmBoard()
        board.init()
        board.load_program(assemble_tsm(
            "start:\n pushi 1\n pushi 2\n add\n storei v\n halt\nv: word 0\n"
        ))
        event = board.run(timeout_cycles=1000, stop_cycle=2)
        assert event.kind is DebugEventKind.BREAKPOINT
        event = board.run(timeout_cycles=1000)
        assert event.kind is DebugEventKind.HALT

    def test_timeout(self):
        board = TsmBoard()
        board.init()
        board.load_program(assemble_tsm("start:\nloop: jmp loop\n"))
        event = board.run(timeout_cycles=100)
        assert event.kind is DebugEventKind.TIMEOUT

    def test_scan_chain_round_trip(self):
        board = TsmBoard()
        board.init()
        board.load_program(assemble_tsm("start:\n pushi 5\n halt\n"))
        board.run(timeout_cycles=100, stop_cycle=1)
        image = board.read_chain("internal")
        board.write_chain("internal", image)
        assert board.read_chain("internal") == image

    def test_scan_write_changes_stack_cell(self):
        board = TsmBoard()
        board.init()
        board.load_program(assemble_tsm("start:\n pushi 5\n storei v\n halt\nv: word 0\n"))
        board.run(timeout_cycles=100, stop_cycle=1)  # after pushi
        chain = board.chain("internal")
        image = board.read_chain("internal")
        offset = chain.bit_offset("tsm.dstack.s0", 1)
        image ^= 1 << offset
        board.write_chain("internal", image)
        board.run(timeout_cycles=1000)
        assert board.read_memory(board.program.symbols["v"]) == 5 ^ 2

    def test_unknown_chain_rejected(self):
        board = TsmBoard()
        with pytest.raises(TargetError):
            board.read_chain("boundary")

    def test_run_after_halt_rejected(self):
        board = TsmBoard()
        board.init()
        board.load_program(assemble_tsm("start: halt\n"))
        board.run(timeout_cycles=100)
        with pytest.raises(TargetError):
            board.run(timeout_cycles=100)
