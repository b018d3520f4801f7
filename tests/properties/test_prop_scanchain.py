"""Property-based tests for scan-chain invariants."""

from hypothesis import given, settings, strategies as st

from repro.thor.assembler import assemble
from repro.thor.cpu import Cpu
from repro.thor.scanchain import build_scan_chains
from repro.tsm.board import TsmBoard
from repro.tsm.workloads import get_tsm_workload


def make_cpu(steps: int) -> Cpu:
    cpu = Cpu()
    program = assemble(
        "start:\n"
        "  ldi r1, 10\n"
        "  ldi r2, buf\n"
        "loop:\n"
        "  st  r1, [r2+0]\n"
        "  ld  r3, [r2+0]\n"
        "  addi r2, r2, 1\n"
        "  subi r1, r1, 1\n"
        "  cmpi r1, 0\n"
        "  bne loop\n"
        "  halt\n"
        "buf: .space 16\n"
    )
    cpu.memory.load_image(program.words)
    cpu.reset(entry=program.entry)
    for _ in range(steps):
        if cpu.halted:
            break
        cpu.step()
    return cpu


def make_tsm_board(cycles: int) -> TsmBoard:
    board = TsmBoard()
    board.init()
    board.load_program(get_tsm_workload("factorial").program)
    if cycles:
        board.run(timeout_cycles=10_000, stop_cycle=cycles)
    return board


class TestScanInvariants:
    @given(
        st.sampled_from(["thor:internal", "thor:boundary", "tsm:internal"]),
        st.integers(min_value=0, max_value=60),
    )
    @settings(max_examples=30, deadline=None)
    def test_image_layout(self, which, steps):
        """Bit *i* of an image is chain bit *i*: every cell's value sits
        at its offset, LSB first."""
        target, name = which.split(":")
        if target == "thor":
            chain = build_scan_chains(make_cpu(steps))[name]
        else:
            chain = make_tsm_board(steps).chain(name)
        image = chain.read()
        for cell in chain.cells():
            offset = chain.bit_offset(cell.path, 0)
            mask = (1 << cell.width) - 1
            assert (image >> offset) & mask == cell.reader()


    @given(st.integers(min_value=0, max_value=60))
    @settings(max_examples=20, deadline=None)
    def test_read_is_stable(self, steps):
        """Reading the chain twice without stepping yields identical bits
        (observation does not disturb state)."""
        cpu = make_cpu(steps)
        chain = build_scan_chains(cpu)["internal"]
        assert chain.read() == chain.read()

    @given(st.integers(min_value=0, max_value=60))
    @settings(max_examples=20, deadline=None)
    def test_read_write_read_is_identity(self, steps):
        """A full read-modify-nothing-write cycle is state-preserving at
        any stop point — required for Figure 2's read/inject/write flow
        to only change the injected bits."""
        cpu = make_cpu(steps)
        chain = build_scan_chains(cpu)["internal"]
        image = chain.read()
        chain.write(image)
        assert chain.read() == image

    @given(
        st.integers(min_value=0, max_value=60),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=30, deadline=None)
    def test_single_flip_touches_exactly_one_writable_cell(self, steps, seed):
        import random

        cpu = make_cpu(steps)
        chain = build_scan_chains(cpu)["internal"]
        image = chain.read()
        rng = random.Random(seed)
        writable_offsets = [
            chain.bit_offset(cell.path, bit)
            for cell in chain.cells()
            if not cell.read_only
            for bit in range(cell.width)
        ]
        offset = rng.choice(writable_offsets)
        image ^= 1 << offset
        chain.write(image)
        after = chain.read()
        diff = [
            i for i in range(chain.total_bits) if ((after ^ image) >> i) & 1
        ]
        # Everything we wrote must now read back exactly (no hidden
        # coupling between cells).
        assert diff == []
