"""Totality of the Thor port's state fingerprint.

The fingerprint leaves the scan chains out: every scan cell reads state
the fixed-layout encoding already covers. These tests prove it. A
single scan write to any writable bit of any cell on the ``internal``
and ``boundary`` chains changes the fingerprint, and so does a change
to any field of ``cpu.snapshot()``, to the halt and trap flags, to a
memory page, to the page set, to the protection range and to the
environment simulator. Equal states must still fingerprint equally.
"""

import copy
import pickle

import pytest

from repro.core import create_target
from repro.scifi.interface import state_fingerprint
from repro.thor.isa import Opcode
from repro.thor.traps import Trap, TrapEvent
from tests.conftest import make_campaign


@pytest.fixture(scope="module")
def port():
    """A Thor port stopped mid-run on a warm checkpoint, armed for
    probing, with caches, pipeline and ``last_exec`` populated."""
    target = create_target("thor-rd")
    campaign = make_campaign(
        campaign_name="fingerprint",
        workload_name="bubblesort",
        workload_params={"n": 12},
        warm_start=True,
        checkpoint_interval=200,
        n_experiments=1,
    )
    target.prepare_run(campaign)
    store = target._checkpoints
    target.restore_checkpoint(store.restore_image(len(store) // 2))
    target.start_divergence_tracking()
    return target


def _fingerprint(port):
    return port.capture_state_digest()


def _writable_cells(port):
    for name in ("internal", "boundary"):
        chain = port.card.chain(name)
        for cell in chain.cells():
            if not cell.read_only:
                yield name, cell


def test_fingerprint_is_deterministic(port):
    before = _fingerprint(port)
    for name in ("internal", "boundary"):
        port.card.write_chain(name, port.card.read_chain(name))
    assert _fingerprint(port) == before


def test_every_writable_scan_bit_changes_the_fingerprint(port):
    cpu = port.card.cpu
    snapshot = cpu.snapshot()
    base = _fingerprint(port)
    checked = 0
    for name, cell in _writable_cells(port):
        original = cell.reader()
        for bit in range(cell.width):
            cell.writer(original ^ (1 << bit))
            assert _fingerprint(port) != base, (
                f"{name}:{cell.path} bit {bit} is invisible"
            )
            # Restore the whole snapshot, not just the cell: an ir write
            # also latches the pipeline's force flag.
            cpu.restore(snapshot)
            assert _fingerprint(port) == base
            checked += 1
    assert checked > 1000


def test_single_scan_write_through_the_chain(port):
    """The same property through the real shift path, for one bit of
    every writable cell (a full-chain shift per bit is slow)."""
    base = _fingerprint(port)
    snapshot = port.card.cpu.snapshot()
    for name, cell in _writable_cells(port):
        chain = port.card.chain(name)
        bits = port.card.read_chain(name)
        offset = chain.bit_offset(cell.path, cell.width - 1)
        bits[offset] ^= 1
        port.card.write_chain(name, bits)
        assert _fingerprint(port) != base, f"{name}:{cell.path}"
        port.card.cpu.restore(snapshot)
        assert _fingerprint(port) == base


def _leaves(obj, path=()):
    """Paths to every scalar or array element of a snapshot."""
    if isinstance(obj, dict):
        for key in sorted(obj):
            yield from _leaves(obj[key], path + (key,))
    elif isinstance(obj, (list, tuple)):
        yield path + ("len",)
        for index, item in enumerate(obj):
            yield from _leaves(item, path + (index,))
    elif hasattr(obj, "typecode"):  # array
        for index in range(len(obj)):
            yield path + (index,)
    else:
        yield path


def _changed(value):
    if value is None:
        return 0
    if isinstance(value, str):  # last_exec opcode name
        return Opcode.ADD.name if value != Opcode.ADD.name else "NOP"
    if isinstance(value, bool):
        return not value
    return value ^ 1


def _mutated(obj, path):
    """Copy of ``obj`` with the leaf at ``path`` changed (``"len"``
    grows the tuple it names by one element)."""
    if path == ("len",):
        return tuple(obj) + (1,)
    if not path:
        return _changed(obj)
    key, rest = path[0], path[1:]
    if isinstance(obj, dict):
        clone = dict(obj)
    elif isinstance(obj, tuple):
        clone = list(obj)
    else:  # list or array
        clone = obj[:]
    clone[key] = _mutated(obj[key], rest)
    return tuple(clone) if isinstance(obj, tuple) else clone


def test_every_snapshot_field_changes_the_fingerprint(port):
    cpu = port.card.cpu
    snapshot = cpu.snapshot()
    base = _fingerprint(port)
    paths = [
        path for path in _leaves(snapshot)
        # Only the last_exec register tuples are variable-length; the
        # other sequences have a length fixed by the CPU configuration.
        if path[-1] != "len" or path[:1] == ("last_exec",) and len(path) == 3
    ]
    assert ("last_exec", 6, "len") in paths and len(paths) > 300
    for path in paths:
        cpu.restore(_mutated(snapshot, path))
        assert _fingerprint(port) != base, f"snapshot field {path}"
    cpu.restore(snapshot)
    assert _fingerprint(port) == base


def test_none_fields_differ_from_zero(port):
    cpu = port.card.cpu
    snapshot = cpu.snapshot()
    seen = set()
    for mem_address, mem_value, opcode in (
        (None, None, None), (0, None, None), (None, 0, None),
        (None, None, Opcode.NOP.name),
    ):
        state = copy.deepcopy(snapshot)
        last = list(state["last_exec"])
        last[1], last[3], last[4] = opcode, mem_address, mem_value
        state["last_exec"] = tuple(last)
        cpu.restore(state)
        seen.add(_fingerprint(port))
    cpu.restore(snapshot)
    assert len(seen) == 4


def test_halt_and_trap_flags_change_the_fingerprint(port):
    cpu = port.card.cpu
    base = _fingerprint(port)
    cpu.halted = True
    halted = _fingerprint(port)
    cpu.trap_event = TrapEvent(trap=Trap.ILLEGAL_ADDRESS, pc=cpu.pc,
                               cycle=cpu.cycles)
    trapped = _fingerprint(port)
    cpu.halted = False
    cpu.trap_event = None
    assert len({base, halted, trapped}) == 3
    assert _fingerprint(port) == base


def test_memory_pages_protection_and_environment(port):
    cpu = port.card.cpu
    memory = cpu.memory
    pages = sorted(port._checkpoint_pages)
    blob = pickle.dumps(None)
    base = state_fingerprint(cpu, pages, blob)
    # A word inside a fingerprinted page.
    address = pages[0] * 256 + 3
    old = memory.peek(address)
    memory.poke(address, old ^ 1)
    assert state_fingerprint(cpu, pages, blob) != base
    memory.poke(address, old)
    assert state_fingerprint(cpu, pages, blob) == base
    # The page set itself, even when the extra page is all zero.
    spare = next(p for p in range(memory.n_pages) if p not in pages)
    assert state_fingerprint(cpu, sorted(pages + [spare]), blob) != base
    # Protection range.
    lo, hi = memory.protected_range()
    memory.protect(0, 7)
    assert state_fingerprint(cpu, pages, blob) != base
    if lo <= hi:
        memory.protect(lo, hi)
    else:
        memory.unprotect()
    # Environment simulator blob.
    assert state_fingerprint(cpu, pages, pickle.dumps(0)) != base
    assert state_fingerprint(cpu, pages, blob) == base
