"""Scan chains: serialized access to the target's state elements.

The Thor RD exposes its internal state through IEEE-1149.1-style boundary
and internal scan chains; the SCIFI technique (the paper's main
implemented technique) reads the chains, flips bits, and writes them back.
This module models a chain as an ordered list of :class:`ScanCell` objects,
each mapping a contiguous bit range of the serialized chain onto one state
element. Some cells are read-only — "some locations in the scan-chain are
read-only and can therefore only be used to observe the state of the
microprocessor" (paper Section 3.1) — writes to them are silently dropped
by the hardware, and the campaign layer refuses to *target* them.

A chain image — what one shift moves out or in — is a single
non-negative ``int`` whose bit *i* is chain bit *i*; each cell occupies
``width`` bits from its offset, LSB first. This module is the only one
that knows that layout: callers look inside an image through
:meth:`ScanChain.cell_value`, :meth:`ScanChain.with_cell_value` and
:meth:`ScanChain.flip`.

Chain access is modelled with its real cost: shifting a chain in or out
takes one clock per bit, surfaced as :attr:`ScanChain.shift_cycles` and an
operation counter, which the E1/E2 benchmarks use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.thor.cpu import Cpu
from repro.thor.traps import Trap
from repro.util.errors import TargetError

# Fixed encoding of the trap-status scan cell (0 = no trap latched).
_TRAP_CODES = {trap: index + 1 for index, trap in enumerate(Trap)}


@dataclass
class ScanCell:
    """One state element on a chain.

    ``path`` is the hierarchical name shown in the GUI's location tree
    (Figure 6), e.g. ``cpu.regfile.r3`` or ``dcache.line2.word1``.
    """

    path: str
    width: int
    reader: Callable[[], int]
    writer: Optional[Callable[[int], None]] = None

    @property
    def read_only(self) -> bool:
        return self.writer is None


@dataclass
class _CellSlot:
    cell: ScanCell
    offset: int

    @property
    def mask(self) -> int:
        return (1 << self.cell.width) - 1


class ScanChain:
    """An ordered chain of scan cells with serialized read/write access."""

    def __init__(self, name: str, cells: List[ScanCell]):
        self.name = name
        self._slots: List[_CellSlot] = []
        self._by_path: Dict[str, _CellSlot] = {}
        offset = 0
        for cell in cells:
            if cell.path in self._by_path:
                raise TargetError(f"duplicate scan cell path {cell.path!r}")
            slot = _CellSlot(cell=cell, offset=offset)
            self._slots.append(slot)
            self._by_path[cell.path] = slot
            offset += cell.width
        self.total_bits = offset
        # Flat per-cell tuples for the shift loops.
        self._read_plan = [
            (slot.cell.reader, slot.cell.width, slot.offset)
            for slot in self._slots
        ]
        self._write_plan = [
            (slot.cell.reader, slot.cell.writer, slot.mask, slot.offset)
            for slot in self._slots
            if slot.cell.writer is not None
        ]
        self.reads = 0
        self.writes = 0

    # -- serialized access (what the TAP port really provides) ---------------

    @property
    def shift_cycles(self) -> int:
        """Clock cycles needed to shift the full chain in or out."""
        return self.total_bits

    def read(self) -> int:
        """Shift out the full chain as one image (bit *i* = chain bit
        *i*). A cell value that does not fit its width raises
        ``ValueError``."""
        self.reads += 1
        image = 0
        for reader, width, offset in self._read_plan:
            value = reader()
            if value < 0 or value >> width:
                raise ValueError(
                    f"value {value:#x} does not fit in {width} bits"
                )
            image |= value << offset
        return image

    def write(self, image: int) -> None:
        """Shift in a full chain image.

        Read-only cells ignore their bits, exactly as capture-only cells
        do in real scan logic. Cells whose value is unchanged are not
        re-written: a read-modify-write of the whole chain (the SCIFI
        injection pattern) must be state-preserving everywhere except the
        flipped bits — in particular it must not mark the IR latch as
        forced when the IR bits were not touched.
        """
        if image < 0 or image >> self.total_bits:
            raise TargetError(
                f"chain {self.name!r} takes a non-negative image of at "
                f"most {self.total_bits} bits"
            )
        self.writes += 1
        for reader, writer, mask, offset in self._write_plan:
            value = (image >> offset) & mask
            if value != reader():
                writer(value)

    # -- image access (host-side edits between a read and a write) ------------

    def cell_value(self, image: int, path: str) -> int:
        """Value of cell ``path`` inside chain image ``image``."""
        slot = self._slot(path)
        return (image >> slot.offset) & slot.mask

    def with_cell_value(self, image: int, path: str, value: int) -> int:
        """``image`` with cell ``path`` set to ``value``."""
        slot = self._slot(path)
        if value < 0 or value >> slot.cell.width:
            raise ValueError(
                f"value {value:#x} does not fit in {slot.cell.width} bits"
            )
        return (image & ~(slot.mask << slot.offset)) | (value << slot.offset)

    def flip(self, image: int, path: str, bit: int) -> Tuple[int, int]:
        """``image`` with bit ``bit`` of cell ``path`` inverted, and the
        value (0 or 1) that bit has in ``image``."""
        offset = self.bit_offset(path, bit)
        return image ^ (1 << offset), (image >> offset) & 1

    # -- structural queries (used by campaign set-up and the GUI) -------------

    def cells(self) -> List[ScanCell]:
        return [slot.cell for slot in self._slots]

    def _slot(self, path: str) -> _CellSlot:
        slot = self._by_path.get(path)
        if slot is None:
            raise TargetError(f"no scan cell {path!r} on chain {self.name!r}")
        return slot

    def cell(self, path: str) -> ScanCell:
        return self._slot(path).cell

    def bit_offset(self, path: str, bit: int) -> int:
        """Global chain-bit position of ``bit`` within cell ``path``."""
        slot = self._slot(path)
        if not 0 <= bit < slot.cell.width:
            raise TargetError(
                f"bit {bit} out of range for cell {path!r} "
                f"(width {slot.cell.width})"
            )
        return slot.offset + bit

    def locate(self, global_bit: int) -> Tuple[str, int]:
        """Inverse of :meth:`bit_offset`: map a chain bit to (path, bit)."""
        if not 0 <= global_bit < self.total_bits:
            raise TargetError(f"chain bit {global_bit} out of range")
        for slot in self._slots:
            if slot.offset <= global_bit < slot.offset + slot.cell.width:
                return slot.cell.path, global_bit - slot.offset
        raise TargetError(f"chain bit {global_bit} unmapped")  # pragma: no cover

    def describe(self) -> List[Dict[str, Any]]:
        """Structural description for the configuration window (Figure 5)
        and the TargetSystemData database table."""
        return [
            {
                "path": slot.cell.path,
                "offset": slot.offset,
                "width": slot.cell.width,
                "read_only": slot.cell.read_only,
            }
            for slot in self._slots
        ]


# ---------------------------------------------------------------------------
# THOR-lite chain factory
# ---------------------------------------------------------------------------


def _register_cells(cpu: Cpu) -> List[ScanCell]:
    cells = []
    for i in range(16):
        cells.append(
            ScanCell(
                path=f"cpu.regfile.r{i}",
                width=32,
                reader=(lambda i=i: cpu.regs.read(i)),
                writer=(lambda v, i=i: cpu.regs.write(i, v)),
            )
        )
    return cells


def _cache_cells(cpu: Cpu, which: str) -> List[ScanCell]:
    # Cells index through the cache object on every access because
    # cache.reset() (run at the start of each experiment) replaces the
    # CacheLine instances.
    cache = cpu.icache if which == "icache" else cpu.dcache
    cells: List[ScanCell] = []
    for index in range(cache.n_lines):
        prefix = f"{which}.line{index}"
        cells.append(
            ScanCell(
                path=f"{prefix}.valid",
                width=1,
                reader=(lambda c=cache, i=index: int(c.lines[i].valid)),
                writer=(
                    lambda v, c=cache, i=index: setattr(c.lines[i], "valid", bool(v))
                ),
            )
        )
        cells.append(
            ScanCell(
                path=f"{prefix}.tag",
                width=cache.tag_bits,
                reader=(lambda c=cache, i=index: c.lines[i].tag),
                writer=(lambda v, c=cache, i=index: setattr(c.lines[i], "tag", v)),
            )
        )
        cells.append(
            ScanCell(
                path=f"{prefix}.tag_parity",
                width=1,
                reader=(lambda c=cache, i=index: c.lines[i].tag_parity),
                writer=(
                    lambda v, c=cache, i=index: setattr(c.lines[i], "tag_parity", v)
                ),
            )
        )
        for w in range(cache.words_per_line):
            cells.append(
                ScanCell(
                    path=f"{prefix}.word{w}",
                    width=32,
                    reader=(lambda c=cache, i=index, w=w: c.lines[i].data[w]),
                    writer=(
                        lambda v, c=cache, i=index, w=w: c.lines[i].data.__setitem__(
                            w, v
                        )
                    ),
                )
            )
            cells.append(
                ScanCell(
                    path=f"{prefix}.parity{w}",
                    width=1,
                    reader=(lambda c=cache, i=index, w=w: c.lines[i].data_parity[w]),
                    writer=(
                        lambda v, c=cache, i=index, w=w: c.lines[
                            i
                        ].data_parity.__setitem__(w, v)
                    ),
                )
            )
    return cells


def build_internal_chain(cpu: Cpu) -> ScanChain:
    """Internal scan chain: PC, PSR, register file, pipeline latches and
    both cache arrays, plus read-only counters and trap status."""
    addr_bits = cpu.config.address_bits
    cells: List[ScanCell] = [
        ScanCell(
            path="cpu.pc",
            width=addr_bits,
            reader=(lambda: cpu.pc & ((1 << addr_bits) - 1)),
            writer=(lambda v: setattr(cpu, "pc", v)),
        ),
        ScanCell(
            path="cpu.psr",
            width=cpu.psr.WIDTH,
            reader=cpu.psr.to_word,
            writer=cpu.psr.from_word,
        ),
    ]
    cells.extend(_register_cells(cpu))
    cells.extend(
        [
            ScanCell(
                path="cpu.pipeline.ir",
                width=32,
                reader=(lambda: cpu.pipeline.ir),
                writer=cpu.pipeline.force_ir,
            ),
            ScanCell(
                path="cpu.pipeline.mar",
                width=32,
                reader=(lambda: cpu.pipeline.mar),
                writer=(lambda v: setattr(cpu.pipeline, "mar", v)),
            ),
            ScanCell(
                path="cpu.pipeline.mdr",
                width=32,
                reader=(lambda: cpu.pipeline.mdr),
                writer=(lambda v: setattr(cpu.pipeline, "mdr", v)),
            ),
        ]
    )
    cells.extend(_cache_cells(cpu, "icache"))
    cells.extend(_cache_cells(cpu, "dcache"))
    # Observation-only cells: counters and trap status.
    cells.extend(
        [
            ScanCell(
                path="cpu.cycle_counter",
                width=32,
                reader=(lambda: cpu.cycles & 0xFFFFFFFF),
            ),
            ScanCell(
                path="cpu.instret_counter",
                width=32,
                reader=(lambda: cpu.instret & 0xFFFFFFFF),
            ),
            ScanCell(
                path="cpu.trap_status",
                width=8,
                reader=(
                    lambda: 0
                    if cpu.trap_event is None
                    else _TRAP_CODES[cpu.trap_event.trap]
                ),
            ),
        ]
    )
    return ScanChain("internal", cells)


def build_boundary_chain(cpu: Cpu) -> ScanChain:
    """Boundary scan chain: the chip's pins.

    The address/data bus pads mirror the MAR/MDR latches (that is where
    the pads are driven from); writing the data-bus cell forces the latch,
    modelling pin-level injection through boundary scan. Control pins are
    capture-only.
    """
    addr_bits = cpu.config.address_bits
    cells = [
        ScanCell(
            path="pins.addr_bus",
            width=addr_bits,
            reader=(lambda: cpu.pipeline.mar & ((1 << addr_bits) - 1)),
            writer=(lambda v: setattr(cpu.pipeline, "mar", v)),
        ),
        ScanCell(
            path="pins.data_bus",
            width=32,
            reader=(lambda: cpu.pipeline.mdr),
            writer=(lambda v: setattr(cpu.pipeline, "mdr", v)),
        ),
        ScanCell(path="pins.halt", width=1, reader=(lambda: int(cpu.halted))),
        ScanCell(
            path="pins.sync_count",
            width=16,
            reader=(lambda: cpu.iterations & 0xFFFF),
        ),
        # EXTEST-style pin forcing: writing these cells arms the data-bus
        # pads to force the masked lines for the next N read transactions
        # (the pin-level fault-injection technique uses them).
        ScanCell(
            path="pins.force_mask",
            width=32,
            reader=(lambda: cpu.bus.force_mask),
            writer=(lambda v: setattr(cpu.bus, "force_mask", v)),
        ),
        ScanCell(
            path="pins.force_value",
            width=32,
            reader=(lambda: cpu.bus.force_value),
            writer=(lambda v: setattr(cpu.bus, "force_value", v)),
        ),
        ScanCell(
            path="pins.force_reads",
            width=8,
            reader=(lambda: min(cpu.bus.force_reads, 0xFF)),
            writer=(lambda v: setattr(cpu.bus, "force_reads", v)),
        ),
    ]
    return ScanChain("boundary", cells)


def build_scan_chains(cpu: Cpu) -> Dict[str, ScanChain]:
    return {
        "internal": build_internal_chain(cpu),
        "boundary": build_boundary_chain(cpu),
    }
