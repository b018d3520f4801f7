"""TargetSystemInterface for the (simulated) Thor RD test card.

This is the class the Framework template (Figure 3) exists to produce:
every abstract building block of the fault-injection algorithms, filled in
against the THOR-lite test card — scan chains for SCIFI, the download
port for pre-runtime SWIFI, trap-based instrumentation for runtime SWIFI
(delegated to :mod:`repro.swifi`), and direct simulator state access for
the simulation baseline.
"""

from __future__ import annotations

import hashlib
import pickle
import re
from array import array
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.campaign import CampaignData
from repro.core.checkpoint import (
    CheckpointMismatch,
    CheckpointTick,
    RestoreImage,
)
from repro.core.experiment import Injection, StateVector, Termination
from repro.core.faultmodels import InjectionAction, InjectionPlan, apply_op
from repro.core.framework import Framework, register_target
from repro.core.locations import FaultLocation, LocationCell, LocationSpace
from repro.core.trace import Trace, TraceStep
from repro.environment.simulator import build_environment
from repro.swifi.instrument import TrapInstrumenter, _invalidate_cached_word
from repro.swifi.preruntime import flip_image_bit
from repro.thor import isa
from repro.thor.cpu import Cpu, CpuConfig
from repro.thor.isa import Opcode, try_decode
from repro.thor.effects import register_effects
from repro.thor.testcard import DebugEvent, DebugEventKind, TestCard
from repro.thor.traps import Trap
from repro.util.bits import bit_get, bit_set
from repro.util.errors import CampaignError, TargetError
from repro.workloads import WorkloadDefinition, get_workload

_MEM_PATH_RE = re.compile(r"^word\.0x([0-9a-fA-F]+)$")
_SWREG_RE = re.compile(r"^cpu\.regfile\.r(\d+)$")

#: Stand-in for ``None`` in the fingerprint header. Every real field is
#: a non-negative machine value, so the sentinel cannot collide.
_NONE = -(1 << 63)
#: Latched trap -> header code (0 = no trap latched).
_TRAP_KINDS = {trap: index + 1 for index, trap in enumerate(Trap)}


def _optional(value: Optional[int]) -> int:
    return _NONE if value is None else value


def _core_header(cpu: Cpu) -> array:
    """The CPU's scalar state in one fixed-layout ``array("q")``: run
    counters, halt and trap-latched flags, PC, PSR, pipeline latches
    (force flag included), bus forcing, the ``last_exec`` record (with
    length prefixes for its register tuples), the register file, and
    per cache its access counters and every line's valid/tag/tag-parity
    fields. Cache data and parity words go to the hash as buffers."""
    last = cpu.last_exec
    trap = cpu.trap_event
    pipeline = cpu.pipeline
    bus = cpu.bus
    header = array(
        "q",
        (
            cpu.cycles,
            cpu.instret,
            cpu.iterations,
            cpu.halted,
            0 if trap is None else _TRAP_KINDS[trap.trap],
            cpu.pc,
            cpu.psr.to_word(),
            pipeline.ir,
            pipeline.mar,
            pipeline.mdr,
            pipeline.ir_forced,
            bus.force_mask,
            bus.force_value,
            bus.force_reads,
            last.pc,
            _optional(last.opcode),
            last.branch_taken,
            _optional(last.mem_address),
            _optional(last.mem_value),
            last.mem_is_write,
            len(last.reg_reads),
            *last.reg_reads,
            len(last.reg_writes),
            *last.reg_writes,
        ),
    )
    header.extend(cpu.regs.snapshot())
    for cache in (cpu.icache, cpu.dcache):
        stats = cache.stats
        header.extend((stats.hits, stats.misses, stats.parity_errors))
        for line in cache.lines:
            header.extend((line.valid, line.tag, line.tag_parity))
    return header


def state_fingerprint(
    cpu: Cpu, pages: Sequence[int], env_blob: bytes
) -> str:
    """Exact fingerprint of a stopped card's full state, hashed from one
    fixed layout: the :func:`_core_header`, extended by the protection
    range and the length-prefixed sorted page list; then the cache data
    and parity arrays, the listed memory pages and the pickled
    environment simulator as raw buffers. Every length is fixed by the
    CPU configuration or prefixed in the header, so the byte stream is
    unambiguous, and no field of ``cpu.snapshot()`` or scan-visible
    cell is left out (pinned by tests/scifi/test_fingerprint.py)."""
    memory = cpu.memory
    header = _core_header(cpu)
    header.extend(memory.protected_range())
    header.append(len(pages))
    header.extend(pages)
    digest = hashlib.sha256(header)
    update = digest.update
    for cache in (cpu.icache, cpu.dcache):
        for line in cache.lines:
            update(line.data)
            update(line.data_parity)
    memory.feed_pages(digest, pages)
    update(env_blob)
    return digest.hexdigest()


#: Instruction word -> the static part of its trace step: sorted
#: register reads and writes, flag read/write, branch and call flags.
#: Cleared when full, like the decode memo.
_TraceStatic = Tuple[Tuple[int, ...], Tuple[int, ...], bool, bool, bool, bool]
_TRACE_STATIC: Dict[int, _TraceStatic] = {}
_TRACE_STATIC_MAX = 1 << 16


def _trace_static(word: int) -> _TraceStatic:
    static = _TRACE_STATIC.get(word)
    if static is not None:
        return static
    instr = try_decode(word)
    if instr is None:
        static = ((), (), False, False, False, False)
    else:
        effects = register_effects(instr)
        static = (
            tuple(sorted(effects.reg_reads)),
            tuple(sorted(effects.reg_writes)),
            effects.reads_flags,
            effects.writes_flags,
            instr.opcode in isa.BRANCHES,
            instr.opcode is Opcode.CALL,
        )
    if len(_TRACE_STATIC) >= _TRACE_STATIC_MAX:
        _TRACE_STATIC.clear()
    _TRACE_STATIC[word] = static
    return static


def _termination_from_event(event: DebugEvent) -> Termination:
    if event.kind is DebugEventKind.HALT:
        return Termination(kind="halt", pc=event.pc, cycle=event.cycle,
                           iterations=event.iteration)
    if event.kind is DebugEventKind.TIMEOUT:
        return Termination(kind="timeout", pc=event.pc, cycle=event.cycle)
    if event.kind is DebugEventKind.MAX_ITERATIONS:
        return Termination(
            kind="max_iterations",
            pc=event.pc,
            cycle=event.cycle,
            iterations=event.iteration,
        )
    if event.kind is DebugEventKind.TRAP:
        trap = event.trap
        return Termination(
            kind="trap",
            pc=event.pc,
            cycle=event.cycle,
            trap_name=trap.trap.value,
            trap_detail=trap.detail,
            trap_code=trap.code,
        )
    raise TargetError(f"unexpected debug event {event.kind}")


@register_target("thor-rd")
class ThorRDInterface(Framework):
    """Port of GOOFI to the Thor RD test card (simulated)."""

    def __init__(self, config: Optional[CpuConfig] = None):
        super().__init__()
        self.card = TestCard(config)
        self._workload: Optional[WorkloadDefinition] = None
        self._environment = None
        # Tracing state.
        self._tracing = False
        self._trace = Trace()
        self._prev_cycles = 0
        # Detail-mode state.
        self._detail = False
        self._detail_states: List[StateVector] = []
        # Runtime-SWIFI instrumentation (one instrumenter per experiment).
        self._instrumenter: Optional[TrapInstrumenter] = None
        # Cached per-campaign structures.
        self._space: Optional[LocationSpace] = None
        self._observe_cells: List[LocationCell] = []
        # Golden-run checkpoint capture state (reference run only).
        self._checkpointing = False
        self._checkpoint_pages: Set[int] = set()
        # The per-instruction step hook is installed only while
        # something listens (see _update_step_hook): without it the card
        # runs the CPU's fused loop straight to the next limit or event.
        self.card.trap_hook = self._dispatch_trap

    # ------------------------------------------------------------------
    # Campaign binding
    # ------------------------------------------------------------------

    def read_campaign_data(self, campaign: CampaignData) -> None:
        # Build the workload first: the location space includes the
        # workload's memory image, and validation needs it.
        self._workload = get_workload(
            campaign.workload_name, campaign.workload_params
        )
        self._space = None
        if campaign.environment is None and self._workload.uses_environment:
            raise CampaignError(
                f"workload {campaign.workload_name!r} needs an environment "
                "simulator; set campaign.environment"
            )
        super().read_campaign_data(campaign)
        if campaign.trigger.kind == "task-switch":
            campaign.trigger.address = self._workload.label("task_switch")
        self._observe_cells = self.location_space().select_cells(
            campaign.observe_patterns, writable_only=False
        )
        if campaign.max_iterations is None:
            campaign.max_iterations = self._workload.default_max_iterations
        if self._workload.is_loop and campaign.max_iterations is None:
            raise CampaignError(
                "loop workloads need max_iterations as a termination condition"
            )

    def available_workloads(self):
        from repro.workloads import available_workloads

        return available_workloads()

    def workload_program(self):
        """The bound campaign's assembled THOR-lite program image —
        unlocks the static pre-injection oracle and the static lint
        checks (also inherited by the thor-rd-sim port)."""
        return self._workload.program if self._workload is not None else None

    # ------------------------------------------------------------------
    # Common building blocks
    # ------------------------------------------------------------------

    def init_test_card(self) -> None:
        self.card.init()
        self._detail_states = []
        self._instrumenter = None
        self._update_step_hook()
        self._environment = None
        # card.init() wipes memory (and with it the dirty-page set), but
        # the tracking flag lives here: make sure reference-run tracking
        # never leaks into experiment execution.
        self.card.cpu.memory.stop_dirty_tracking()
        self._checkpointing = False
        self._checkpoint_pages = set()

    def load_workload(self) -> None:
        workload = self._require_workload()
        self.card.load_program(workload.program)
        campaign = self.campaign
        if campaign is not None and campaign.protect_code:
            code = workload.program.code_addresses()
            if code:
                self.card.cpu.memory.protect(min(code), max(code))

    def write_memory(self) -> None:
        workload = self._require_workload()
        for address, value in workload.input_writes.items():
            self.card.write_memory(address, value)

    def read_memory(self) -> Dict[str, int]:
        workload = self._require_workload()
        outputs: Dict[str, int] = {}
        for name, (base, count) in workload.outputs.items():
            values = self.card.read_memory_block(base, count)
            if count == 1:
                outputs[name] = values[0]
            else:
                for i, value in enumerate(values):
                    outputs[f"{name}[{i}]"] = value
        if self._environment is not None:
            for key, value in self._environment.summary().items():
                outputs[f"env.{key}"] = int(round(value * 256))
        return outputs

    def run_workload(self) -> None:
        campaign = self._require_campaign()
        if campaign.environment is not None:
            self._environment = build_environment(
                campaign.environment.name, campaign.environment.params
            )
            self._environment.initialize(self.card)
            self.card.on_sync = self._environment.exchange
        else:
            self.card.on_sync = None

    def wait_for_breakpoint(self, stop_cycle: int) -> Optional[Termination]:
        event = self.card.run(
            timeout_cycles=self._experiment_budget(),
            max_iterations=self._require_campaign().max_iterations,
            stop_cycle=stop_cycle,
        )
        if event.kind is DebugEventKind.BREAKPOINT:
            return None
        return _termination_from_event(event)

    def wait_for_termination(
        self, timeout_cycles: int, max_iterations: Optional[int]
    ) -> Termination:
        event = self.card.run(
            timeout_cycles=timeout_cycles, max_iterations=max_iterations
        )
        return _termination_from_event(event)

    # ------------------------------------------------------------------
    # SCIFI blocks
    # ------------------------------------------------------------------

    def read_scan_chain(
        self, names: Optional[Sequence[str]] = None
    ) -> Dict[str, List[int]]:
        chain_names = self.card.chains if names is None else names
        return {name: self.card.read_chain(name) for name in chain_names}

    def write_scan_chain(self, chains: Dict[str, List[int]]) -> None:
        for name, bits in chains.items():
            self.card.write_chain(name, bits)

    def inject_fault(
        self, chains: Dict[str, List[int]], action: InjectionAction
    ) -> List[Injection]:
        injections = []
        for location in action.locations:
            if not location.space.startswith("scan:"):
                raise CampaignError(
                    f"SCIFI cannot inject into {location.key()}"
                )
            chain_name = location.space.split(":", 1)[1]
            chain = self.card.chain(chain_name)
            offset = chain.bit_offset(location.path, location.bit)
            before = chains[chain_name][offset]
            after = apply_op(before, action.op)
            chains[chain_name][offset] = after
            injections.append(
                Injection(
                    time=action.time,
                    location=location,
                    op=action.op,
                    bit_before=before,
                    bit_after=after,
                )
            )
        return injections

    # ------------------------------------------------------------------
    # Pre-runtime SWIFI block
    # ------------------------------------------------------------------

    def inject_fault_preruntime(self, action: InjectionAction) -> List[Injection]:
        injections = []
        for location in action.locations:
            address = self._memory_location_address(location)
            before, after = flip_image_bit(
                self.card, address, location.bit, action.op
            )
            injections.append(
                Injection(
                    time=0,  # pre-runtime: injected before execution starts
                    location=location,
                    op=action.op,
                    bit_before=before,
                    bit_after=after,
                )
            )
        return injections

    # ------------------------------------------------------------------
    # Runtime SWIFI blocks (delegated to repro.swifi.instrument)
    # ------------------------------------------------------------------

    def instrument_workload(self, plan: InjectionPlan) -> None:
        reference = self._reference
        if reference is None or reference.trace is None:
            raise CampaignError(
                "runtime SWIFI needs the reference trace to place traps"
            )
        self._instrumenter = TrapInstrumenter(self.card)
        self._instrumenter.instrument(plan, reference.trace)
        self._update_step_hook()

    def collect_runtime_injections(self) -> List[Injection]:
        if self._instrumenter is None:
            return []
        return list(self._instrumenter.injections)

    # ------------------------------------------------------------------
    # Pin-level block (EXTEST bus forcing through the boundary chain)
    # ------------------------------------------------------------------

    def force_pins(self, action: InjectionAction) -> List[Injection]:
        """Arm forcing of the selected data-bus lines via the boundary
        chain. The force duration follows the campaign's fault model:
        transient = 1 read transaction, intermittent = burst_length
        transactions, permanent = the pads' maximum (255)."""
        campaign = self._require_campaign()
        spec = campaign.fault_model
        reads = {
            "transient": 1,
            "intermittent": spec.burst_length,
            "permanent": 255,
        }[spec.kind]
        bus = self.card.cpu.bus
        mask = bus.force_mask
        value = bus.force_value
        injections = []
        for location in action.locations:
            if (
                location.space != "scan:boundary"
                or location.path != "pins.data_bus"
            ):
                raise CampaignError(
                    "pin-level forcing acts on the data-bus pads "
                    f"(scan:boundary/pins.data_bus), not {location.key()}"
                )
            before = bit_get(self.card.cpu.pipeline.mdr, location.bit)
            after = apply_op(before, action.op)
            mask |= 1 << location.bit
            value = bit_set(value, location.bit, after)
            injections.append(
                Injection(
                    time=action.time,
                    location=location,
                    op=action.op,
                    bit_before=before,
                    bit_after=after,
                )
            )
        # Shift the armed force state in through the boundary chain (the
        # injection pays real scan-access cost, like any SCIFI write).
        chain = self.card.chain("boundary")
        bits = self.card.read_chain("boundary")
        for path, field_value, width in (
            ("pins.force_mask", mask, 32),
            ("pins.force_value", value, 32),
            ("pins.force_reads", min(reads, 255), 8),
        ):
            offset = chain.bit_offset(path, 0)
            for i in range(width):
                bits[offset + i] = (field_value >> i) & 1
        self.card.write_chain("boundary", bits)
        return injections

    # ------------------------------------------------------------------
    # Simulation-based (direct access) block
    # ------------------------------------------------------------------

    def inject_fault_direct(self, action: InjectionAction) -> List[Injection]:
        injections = []
        for location in action.locations:
            if location.space.startswith("scan:"):
                chain_name = location.space.split(":", 1)[1]
                cell = self.card.chain(chain_name).cell(location.path)
                if cell.read_only:
                    raise CampaignError(
                        f"cannot inject into read-only cell {location.key()}"
                    )
                word = cell.reader()
                before = bit_get(word, location.bit)
                after = apply_op(before, action.op)
                cell.writer(bit_set(word, location.bit, after))
            elif location.space.startswith("memory:"):
                address = self._memory_location_address(location)
                word = self.card.read_memory(address)
                before = bit_get(word, location.bit)
                after = apply_op(before, action.op)
                self.card.write_memory(address, bit_set(word, location.bit, after))
                _invalidate_cached_word(self.card.cpu.dcache, address)
                _invalidate_cached_word(self.card.cpu.icache, address)
            elif location.space == "swreg":
                match = _SWREG_RE.match(location.path)
                if not match:
                    raise CampaignError(f"bad swreg location {location.key()}")
                index = int(match.group(1))
                word = self.card.cpu.regs.read(index)
                before = bit_get(word, location.bit)
                after = apply_op(before, action.op)
                self.card.cpu.regs.write(index, bit_set(word, location.bit, after))
            else:
                raise CampaignError(f"unknown location space {location.space!r}")
            injections.append(
                Injection(
                    time=action.time,
                    location=location,
                    op=action.op,
                    bit_before=before,
                    bit_after=after,
                )
            )
        return injections

    # ------------------------------------------------------------------
    # Observation / tracing / detail mode
    # ------------------------------------------------------------------

    def location_space(self) -> LocationSpace:
        if self._space is not None:
            return self._space
        cells: List[LocationCell] = []
        for chain_name, chain in self.card.chains.items():
            for info in chain.describe():
                cells.append(
                    LocationCell(
                        space=f"scan:{chain_name}",
                        path=str(info["path"]),
                        width=int(info["width"]),
                        read_only=bool(info["read_only"]),
                    )
                )
        workload = self._workload
        if workload is not None:
            for address in sorted(workload.program.words):
                kind = workload.program.kinds[address]
                cells.append(
                    LocationCell(
                        space=f"memory:{kind}",
                        path=f"word.0x{address:04x}",
                        width=32,
                    )
                )
            # Input data lives outside the assembled image.
            for address in sorted(workload.input_writes):
                if address not in workload.program.words:
                    cells.append(
                        LocationCell(
                            space="memory:data",
                            path=f"word.0x{address:04x}",
                            width=32,
                        )
                    )
        for index in range(isa.NUM_REGISTERS):
            cells.append(
                LocationCell(
                    space="swreg", path=f"cpu.regfile.r{index}", width=32
                )
            )
        self._space = LocationSpace(cells)
        return self._space

    def capture_state_vector(self) -> StateVector:
        vector: StateVector = {}
        chain_bits: Dict[str, List[int]] = {}
        for cell in self._observe_cells:
            if cell.space.startswith("scan:"):
                chain_name = cell.space.split(":", 1)[1]
                if chain_name not in chain_bits:
                    chain_bits[chain_name] = self.card.read_chain(chain_name)
                chain = self.card.chain(chain_name)
                offset = chain.bit_offset(cell.path, 0)
                bits = chain_bits[chain_name][offset : offset + cell.width]
                value = 0
                for i, bit in enumerate(bits):
                    value |= bit << i
                vector[cell.full_path] = value
            elif cell.space.startswith("memory:"):
                address = int(cell.path.split("0x", 1)[1], 16)
                vector[cell.full_path] = self.card.read_memory(address)
            elif cell.space == "swreg":
                match = _SWREG_RE.match(cell.path)
                if match:
                    vector[cell.full_path] = self.card.cpu.regs.read(
                        int(match.group(1))
                    )
        return vector

    def start_trace(self) -> None:
        self._tracing = True
        self._trace = Trace()
        self._prev_cycles = self.card.cpu.cycles
        self._update_step_hook()

    def stop_trace(self) -> Trace:
        self._tracing = False
        self._update_step_hook()
        return self._trace

    def set_detail_logging(self, enabled: bool) -> None:
        self._detail = enabled
        if enabled:
            self._detail_states = []
        self._update_step_hook()

    def drain_detail_states(self) -> List[StateVector]:
        states = self._detail_states
        self._detail_states = []
        return states

    def _dispatch_trap(self, card: TestCard, trap_event) -> bool:
        if self._instrumenter is None:
            return False
        return self._instrumenter.handle_trap(card, trap_event)

    def _update_step_hook(self) -> None:
        """Install the card's step hook exactly while tracing, detail
        logging or runtime-SWIFI instrumentation is active."""
        listening = (
            self._tracing or self._detail or self._instrumenter is not None
        )
        self.card.on_step = self._dispatch_step if listening else None

    def _dispatch_step(self, card: TestCard) -> None:
        if self._instrumenter is not None:
            self._instrumenter.on_step(card)
        if self._tracing:
            self._trace_step(card)
        if self._detail:
            self._detail_states.append(self.capture_state_vector())

    def _trace_step(self, card: TestCard) -> None:
        cpu = card.cpu
        last = cpu.last_exec
        (
            reg_reads,
            reg_writes,
            reads_flags,
            writes_flags,
            is_branch,
            is_call,
        ) = _trace_static(cpu.pipeline.ir)
        step = TraceStep(
            index=len(self._trace),
            pc=last.pc,
            cycle_before=self._prev_cycles,
            cycle_after=cpu.cycles,
            is_branch=is_branch,
            branch_taken=last.branch_taken,
            is_call=is_call,
            mem_address=last.mem_address,
            mem_value=last.mem_value,
            mem_is_write=last.mem_is_write,
            reg_reads=reg_reads,
            reg_writes=reg_writes,
            reads_flags=reads_flags,
            writes_flags=writes_flags,
        )
        self._trace.append(step)
        self._prev_cycles = cpu.cycles

    # ------------------------------------------------------------------
    # Target description (TargetSystemData)
    # ------------------------------------------------------------------

    def describe_target(self) -> dict:
        config = self.card.cpu.config
        return {
            "name": self.card.name,
            "memory_size": config.memory_size,
            "icache_lines": config.icache_lines,
            "dcache_lines": config.dcache_lines,
            "words_per_line": config.words_per_line,
            "parity_checking": config.parity_checking,
            "chains": {
                name: chain.describe()
                for name, chain in self.card.chains.items()
            },
        }

    # ------------------------------------------------------------------
    # Golden-run checkpointing (warm-start blocks)
    # ------------------------------------------------------------------

    def capture_checkpoint(self) -> CheckpointTick:
        """Snapshot the stopped card: full CPU state, the environment
        simulator (pickled), and the memory pages dirtied since the
        previous capture (the first capture seeds from every non-zero
        page, i.e. the whole downloaded image)."""
        memory = self.card.cpu.memory
        if not self._checkpointing:
            # First capture of this reference run: everything written
            # since reset is "dirty", then switch to incremental deltas.
            memory.start_dirty_tracking()
            self._checkpointing = True
            self._checkpoint_pages = set()
            dirty = memory.nonzero_pages()
        else:
            dirty = memory.drain_dirty_pages()
        self._checkpoint_pages |= dirty
        env_blob = pickle.dumps(
            self._environment, protocol=pickle.HIGHEST_PROTOCOL
        )
        payload = {
            "cpu": self.card.cpu.snapshot(),
            "protected": list(memory.protected_range()),
            "environment": env_blob,
        }
        pages = {page: memory.read_page(page) for page in sorted(dirty)}
        fingerprint = state_fingerprint(
            self.card.cpu, sorted(self._checkpoint_pages), env_blob
        )
        return CheckpointTick(
            cycle=self.card.cpu.cycles,
            payload=payload,
            dirty_pages=pages,
            fingerprint=fingerprint,
        )

    def restore_checkpoint(self, image: RestoreImage) -> None:
        """Load a reference-run checkpoint into the card and verify the
        restored state's fingerprint against the capture-time one."""
        memory = self.card.cpu.memory
        memory.stop_dirty_tracking()
        self._checkpointing = False
        self._checkpoint_pages = set(image.pages)
        # Memory: reset to all-zero (pages absent from the cumulative
        # image were all-zero at capture time by the reset contract),
        # then replay the page images.
        memory.reset()
        for page, words in image.pages.items():
            memory.load_page(page, words)
        # CPU core, caches, pipeline, bus-force state.
        self.card.cpu.restore(image.payload["cpu"])
        # Write protection (memory.reset() cleared it).
        lo, hi = image.payload["protected"]
        if lo <= hi:
            memory.protect(lo, hi)
        else:
            memory.unprotect()
        # Card-level state the cold prefix would have set.
        workload = self._require_workload()
        self.card.program = workload.program
        self.card.set_breakpoints([])
        # Environment simulator at its checkpoint-instant state.
        environment = pickle.loads(image.payload["environment"])
        self._environment = environment
        self.card.on_sync = (
            environment.exchange if environment is not None else None
        )
        # Host-side per-experiment state (same as init_test_card).
        self._detail_states = []
        self._instrumenter = None
        self._tracing = False
        self._detail = False
        self._update_step_hook()
        # Verify: recompute the fingerprint over the *live* restored
        # state and compare with the capture-time digest.
        restored_blob = pickle.dumps(
            self._environment, protocol=pickle.HIGHEST_PROTOCOL
        )
        fingerprint = state_fingerprint(
            self.card.cpu, sorted(image.pages), restored_blob
        )
        if fingerprint != image.fingerprint:
            raise CheckpointMismatch(
                f"restore fingerprint mismatch at cycle {image.cycle}: "
                f"{fingerprint[:12]} != {image.fingerprint[:12]}"
            )

    # ------------------------------------------------------------------
    # Divergence-window blocks (faulty-run digest probing)
    # ------------------------------------------------------------------

    def start_divergence_tracking(self) -> None:
        """Arm the faulty run for digest probing: establish the same
        cumulative dirty-page set the golden fingerprints cover (a warm
        restore already seeded it from the restore image; a cold start
        seeds it from every non-zero page, exactly like the reference
        run's first capture) and begin tracking writes."""
        memory = self.card.cpu.memory
        if not self._checkpoint_pages:
            self._checkpoint_pages = set(memory.nonzero_pages())
        memory.start_dirty_tracking()

    def capture_core_digest(self) -> str:
        """Digest of the CPU core alone (the fingerprint's fixed-layout
        header: no cache words, memory pages or environment). Nothing in
        the campaign engine calls it; it stays as a cheap diagnostic
        view of the core state."""
        return hashlib.sha256(_core_header(self.card.cpu)).hexdigest()

    def capture_state_digest(self) -> str:
        """Fingerprint of the stopped faulty card, computed exactly like
        a golden tick's: fold pages dirtied since the last probe into
        the cumulative set and digest. Purely observational — nothing is
        reset beyond draining the dirty set, so probing never perturbs
        the run it is probing."""
        memory = self.card.cpu.memory
        self._checkpoint_pages |= memory.drain_dirty_pages()
        env_blob = pickle.dumps(
            self._environment, protocol=pickle.HIGHEST_PROTOCOL
        )
        return state_fingerprint(
            self.card.cpu, sorted(self._checkpoint_pages), env_blob
        )

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _require_workload(self) -> WorkloadDefinition:
        if self._workload is None:
            raise CampaignError("no workload loaded; call read_campaign_data")
        return self._workload

    @staticmethod
    def _memory_location_address(location: FaultLocation) -> int:
        match = _MEM_PATH_RE.match(location.path)
        if not match:
            raise CampaignError(f"bad memory location {location.key()}")
        return int(match.group(1), 16)
