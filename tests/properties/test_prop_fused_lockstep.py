"""Property test: the fused run loop in lockstep with the reference step.

Two test cards run the same program from the same state: one on the
fused loop (:meth:`repro.thor.cpu.Cpu._run_fast`, reached through
``TestCard.run``; with no step hook it runs many instructions per call),
one on the reference path (:meth:`Cpu._step_reference`, one instruction
per ``run``). The reference card stops at every instruction boundary;
the fused card runs to the reference card's cycle in one call per chunk
of 1..60 instructions (or up to the watchdog budget). At each stop the
debug events, ``cpu.snapshot()``, the ``last_exec`` record and the full
``state_fingerprint`` must be equal.

Between chunks hypothesis perturbs both cards identically, which covers
the states the fused loop's inline paths must hand back to the shared
slow paths exactly:

* forced IR (a scan write to ``cpu.pipeline.ir``) and illegal words
  (bit flips in the code image, arbitrary forced words);
* scan writes to I-cache and D-cache valid, tag, data and parity bits;
* stores and pushes into a write-protected page;
* MMIO loads and stores (the program exchanges through 0xFF00/0xFF40);
* a CPU watchdog budget, and the overflow trap enabled;
* SYNC with an ``on_sync`` hook that writes the MMIO input window;
* a runtime-SWIFI trap planted in the code that the trap hook services
  (restore the word, flip a register bit) and resumes;
* bus forcing armed through the boundary chain.
"""

import dataclasses

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.scifi.interface import state_fingerprint
from repro.swifi.instrument import _invalidate_cached_word
from repro.thor.assembler import assemble
from repro.thor.cpu import Cpu, CpuConfig
from repro.thor.isa import Instruction, Opcode, assemble_word
from repro.thor.testcard import DebugEventKind, TestCard

_SOURCE = """
    .org 0x100
start:
    ldi  sp, 0x1000
    ldi  r1, 20
    ldi  r2, buf
    ldi  r9, 0xFF00
    lui  r0, 3
loop:
    ld   r3, [r2+0]
    addi r3, r3, 7
    st   r3, [r2+1]
    mul  r4, r3, r1
    muli r4, r4, -3
    div  r5, r4, r1
    mod  r6, r4, r1
    xor  r7, r5, r6
    shli r7, r7, 3
    sra  r8, r7, r1
    shr  r8, r8, r1
    shl  r0, r0, r1
    andi r8, r8, 0x7FF
    ori  r8, r8, 1
    xori r8, r8, 2
    and  r7, r7, r8
    or   r7, r7, r4
    not  r6, r7
    sub  r6, r6, r5
    subi r6, r6, 3
    add  r6, r6, r3
    sub  r13, r3, r3
    ldi  r13, 5
    subi r13, r13, 5
    ldi  r13, -1
    addi r13, r13, 1
    li   r13, 0x7FFFFFFF
    addi r13, r13, 1
    push r8
    pop  r10
    ld   r11, [r9+0]
    st   r11, [r9+0x40]
    call sub
    cmp  r10, r8
    beq  same
    nop
same:
    cmpi r11, 0
    bne  skip
    blt  skip
    ble  skip
skip:
    bge  on
    nop
on:
    mov  r2, r2
    sync
    subi r1, r1, 1
    cmpi r1, 0
    bgt  loop
    ldi  r13, done
    jr   r13
    jmp  start
done:
    halt
sub:
    addi r12, r12, 1
    ret
buf:
    .word 5, 0, 0, 0
"""
_PROGRAM = assemble(_SOURCE)
_CODE = sorted(_PROGRAM.code_addresses())
_ALL_WORDS = sorted(_PROGRAM.words)
_SWIFI_CODE = 63
_TRAP_WORD = assemble_word(Instruction(Opcode.TRAP, imm=_SWIFI_CODE))
_TIMEOUT = 6000
_MASK32 = 0xFFFFFFFF


class _Harness:
    """One card plus the host-side state its hooks keep."""

    def __init__(self, fast, watchdog, overflow_trap, protect, hooked):
        previous = Cpu.fast_dispatch
        Cpu.fast_dispatch = fast
        try:
            self.card = TestCard(
                CpuConfig(watchdog_cycles=watchdog, overflow_trap=overflow_trap)
            )
        finally:
            Cpu.fast_dispatch = previous
        card = self.card
        card.init()
        card.load_program(_PROGRAM)
        if protect is not None:
            card.cpu.memory.protect(*protect)
        self.planted = {}
        self.outputs = []
        card.on_sync = self._on_sync
        card.trap_hook = self._on_trap
        if hooked:
            card.on_step = lambda _card: None

    def _on_sync(self, card, iteration):
        card.write_memory(0xFF00, (iteration * 0x9E3779B1) & _MASK32)
        self.outputs.append(card.read_memory(0xFF40))

    def _on_trap(self, card, trap):
        pc = card.cpu.pc
        if trap.code != _SWIFI_CODE or pc not in self.planted:
            return False
        original, register, bit = self.planted.pop(pc)
        card.write_memory(pc, original)
        _invalidate_cached_word(card.cpu.icache, pc)
        regs = card.cpu.regs
        regs.write(register, regs.read(register) ^ (1 << bit))
        return True

    def perturb(self, kind, a, b, c):
        card = self.card
        if kind == "scan":
            cells = [
                cell for cell in card.chain("internal").cells()
                if not cell.read_only
            ]
            cell = cells[a % len(cells)]
            cell.writer(b & ((1 << cell.width) - 1))
        elif kind == "cache":
            # Flip one stored bit (valid, tag, tag parity, a data word or
            # its parity) through its scan cell: of the line the next
            # fetch or the last data access uses, or of any live line.
            which = ("icache", "dcache")[a % 2]
            cpu = card.cpu
            cache = getattr(cpu, which)
            live = [i for i, line in enumerate(cache.lines) if line.valid]
            if b % 2:
                index = (live or [0])[b % max(1, len(live))]
            else:
                address = cpu.pc if which == "icache" else cpu.pipeline.mar
                index = cache.split(address)[1]
            fields = ["valid", "tag", "tag_parity"] + [
                f"{name}{w}"
                for w in range(cache.words_per_line)
                for name in ("word", "parity")
            ]
            cell = card.chain("internal").cell(
                f"{which}.line{index}.{fields[c % len(fields)]}"
            )
            cell.writer(cell.reader() ^ (1 << ((c >> 8) % cell.width)))
        elif kind == "flip":
            address = _ALL_WORDS[a % len(_ALL_WORDS)]
            word = card.read_memory(address) ^ (1 << (b % 32))
            card.write_memory(address, word)
        elif kind == "force_ir":
            card.cpu.pipeline.force_ir(b & _MASK32)
        elif kind == "plant":
            address = _CODE[a % len(_CODE)]
            if address not in self.planted:
                self.planted[address] = (
                    card.read_memory(address), b % 16, c % 32
                )
                card.write_memory(address, _TRAP_WORD)
                _invalidate_cached_word(card.cpu.icache, address)
        elif kind == "trap":
            # A software trap the hook does not service.
            address = _CODE[a % len(_CODE)]
            code = c % _SWIFI_CODE
            word = assemble_word(Instruction(Opcode.TRAP, imm=code))
            card.write_memory(address, word)
            _invalidate_cached_word(card.cpu.icache, address)
        elif kind == "bus":
            card.cpu.bus.arm_force(1 << (a % 32), b & _MASK32, 1 + c % 4)


def _state(harness, pages):
    cpu = harness.card.cpu
    return (
        cpu.snapshot(),
        dataclasses.astuple(cpu.last_exec),
        cpu.halted,
        cpu.trap_event,
        state_fingerprint(cpu, pages, b""),
        harness.outputs,
    )


def _assert_lockstep(fast, ref):
    pages = sorted(
        fast.card.cpu.memory.nonzero_pages()
        | ref.card.cpu.memory.nonzero_pages()
    )
    assert _state(fast, pages) == _state(ref, pages)


perturbations = st.one_of(
    st.none(),
    st.tuples(
        st.sampled_from(
            ["scan", "cache", "flip", "force_ir", "plant", "trap", "bus"]
        ),
        st.integers(min_value=0, max_value=1 << 16),
        st.integers(min_value=0, max_value=_MASK32),
        st.integers(min_value=0, max_value=1 << 16),
    ),
)

scenarios = st.fixed_dictionaries(
    {
        "watchdog": st.none() | st.integers(min_value=1, max_value=1500),
        "overflow_trap": st.booleans(),
        "protect": st.sampled_from(
            [
                None,
                (_PROGRAM.symbols["buf"], _PROGRAM.symbols["buf"] + 1),
                (0x0F00, 0x0FFF),  # the stack page
                (min(_CODE), max(_CODE)),
            ]
        ),
        "max_iterations": st.sampled_from([None, 3, 12]),
        "hooked": st.booleans(),
        "rounds": st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=6)
                | st.integers(min_value=7, max_value=60),
                perturbations,
            ),
            min_size=5,
            max_size=40,
        ),
    }
)


class TestFusedLoopLockstep:
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(scenario=scenarios)
    def test_fused_loop_matches_reference_at_every_stop(self, scenario):
        config = (
            scenario["watchdog"], scenario["overflow_trap"], scenario["protect"]
        )
        fast = _Harness(True, *config, hooked=scenario["hooked"])
        ref = _Harness(False, *config, hooked=False)
        max_iterations = scenario["max_iterations"]
        _assert_lockstep(fast, ref)
        watchdog = scenario["watchdog"]
        for chunk, perturbation in scenario["rounds"]:
            # Chunk 0 runs to the first boundary at or past the watchdog
            # budget, so some stops land exactly on it.
            steps = 0
            while True:
                ref_event = ref.card.run(
                    _TIMEOUT,
                    max_iterations=max_iterations,
                    stop_cycle=ref.card.cpu.cycles + 1,
                )
                steps += 1
                if ref_event.kind is not DebugEventKind.BREAKPOINT:
                    break
                if chunk == 0:
                    if watchdog is None or ref.card.cpu.cycles >= watchdog:
                        break
                elif steps >= chunk:
                    break
            stop = (
                ref.card.cpu.cycles
                if ref_event.kind is DebugEventKind.BREAKPOINT
                else None
            )
            fast_event = fast.card.run(
                _TIMEOUT, max_iterations=max_iterations, stop_cycle=stop
            )
            # A stop's ``reason`` names the requested stop cycle, which
            # differs by design; everything else must match.
            assert dataclasses.replace(fast_event, reason="") == (
                dataclasses.replace(ref_event, reason="")
            )
            _assert_lockstep(fast, ref)
            if ref_event.kind in (DebugEventKind.HALT, DebugEventKind.TIMEOUT):
                return
            if ref_event.kind is DebugEventKind.TRAP:
                # Step over the trapping instruction, as a debugger
                # would, so the run goes on past the detection.
                for harness in (fast, ref):
                    cpu = harness.card.cpu
                    cpu.clear_trap()
                    cpu.pc = (cpu.pc + 1) & _MASK32
            if perturbation is not None:
                fast.perturb(*perturbation)
                ref.perturb(*perturbation)
                _assert_lockstep(fast, ref)

    def test_scenarios_reach_the_interesting_states(self):
        """The fixed program reaches SYNC, MMIO, CALL/RET and HALT
        unperturbed, so the drawn perturbations start from a run that
        exercises every inline path."""
        harness = _Harness(True, None, False, None, hooked=False)
        event = harness.card.run(_TIMEOUT)
        cpu = harness.card.cpu
        assert event.kind is DebugEventKind.HALT
        assert cpu.iterations == 20
        assert len(harness.outputs) == 20
        assert cpu.regs.read(12) == 20  # the subroutine ran every turn
        assert cpu.icache.stats.hits > 0 and cpu.dcache.stats.hits > 0
