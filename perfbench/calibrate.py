"""Host speed: how fast this host runs a fixed interpreter-bound loop.

The benchmark's hosts share their cores with other machines, and their
speed moves by up to 2x in phases of seconds to minutes, independently
on each core. A campaign's wall-clock figures move with it. The loop
below is fixed benchmark code (it never imports the program), and it
does what the Thor simulator does most: decode through a dict cache,
dispatch to bound methods, index lists and a word array, mask bits.

``Interleaved`` runs a short chunk of the loop after every experiment,
in the process and on the core that ran the experiment, so the loop's
speed follows the host's speed over the same seconds as the campaign.
``run.py`` scales the campaign's time figures by it to a host of speed
``NOMINAL_STEPS_PER_S``, and the chunks' own time is taken out of them.
"""

from __future__ import annotations

import glob
import os
import random
import struct
import time
from array import array
from typing import Any, Callable, List, Optional

#: The reference host speed that normalised figures are quoted at, in
#: loop steps per second (about a quiet core of a 2-core Xeon VM).
NOMINAL_STEPS_PER_S = 2.0e6

#: Steps per chunk: about 1 ms on the reference host, a tenth of a
#: scifi-warm experiment.
CHUNK = 2000


class _Machine:
    """A tiny register machine running a fixed random program."""

    def __init__(self) -> None:
        rng = random.Random(12345)
        self.mem = array("I", (rng.getrandbits(32) for _ in range(1 << 15)))
        self.prog = [rng.getrandbits(32) for _ in range(512)]
        self.regs = [0] * 16
        self.decoded: dict = {}
        self.table = [self.op_add, self.op_xor, self.op_ld, self.op_st,
                      self.op_shl, self.op_br, self.op_and, self.op_sub]
        self.pc = 0

    def decode(self, word: int) -> tuple:
        fields = self.decoded.get(word)
        if fields is None:
            fields = (word & 7, (word >> 3) & 15, (word >> 7) & 15,
                      (word >> 11) & 0x7FFF)
            self.decoded[word] = fields
        return fields

    def op_add(self, a: int, b: int, imm: int) -> None:
        r = self.regs
        r[a] = (r[a] + r[b] + imm) & 0xFFFFFFFF

    def op_sub(self, a: int, b: int, imm: int) -> None:
        r = self.regs
        r[a] = (r[a] - r[b]) & 0xFFFFFFFF

    def op_xor(self, a: int, b: int, imm: int) -> None:
        r = self.regs
        r[a] ^= r[b] ^ imm

    def op_and(self, a: int, b: int, imm: int) -> None:
        r = self.regs
        r[a] = r[b] & (imm | 0xFFFF0000)

    def op_shl(self, a: int, b: int, imm: int) -> None:
        r = self.regs
        r[a] = (r[b] << (imm & 7)) & 0xFFFFFFFF

    def op_ld(self, a: int, b: int, imm: int) -> None:
        r = self.regs
        r[a] = self.mem[(r[b] + imm) & 0x7FFF]

    def op_st(self, a: int, b: int, imm: int) -> None:
        self.mem[(self.regs[b] ^ imm) & 0x7FFF] = self.regs[a]

    def op_br(self, a: int, b: int, imm: int) -> None:
        if self.regs[a] & 1:
            self.pc = (self.pc + imm) & 511

    def run(self, steps: int) -> None:
        prog, decode, table = self.prog, self.decode, self.table
        for _ in range(steps):
            op, a, b, imm = decode(prog[self.pc])
            self.pc = (self.pc + 1) & 511
            table[op](a, b, imm)


_MACHINE: Optional[_Machine] = None


def _machine() -> _Machine:
    global _MACHINE
    if _MACHINE is None:
        _MACHINE = _Machine()
    return _MACHINE


class Interleaved:
    """A calibration chunk after every call of an installed method.

    Every process that runs chunks (forked campaign workers too) keeps
    its running totals in a file of its own, ``PREFIX.<pid>``: loop
    steps, seconds and CPU seconds spent in the loop, and the seconds
    and CPU seconds to leave out of the campaign's figures (the chunks
    and the loop's construction; not the file writes, about a
    microsecond each). The totals overwrite the file in place: truncating
    and rewriting it made ext4 flush it on every close, which cost 150 us
    a chunk and slowed the campaign's own database writes."""

    RECORD = struct.Struct("5d")

    def __init__(self, prefix: str) -> None:
        self.prefix = prefix
        self.pid = 0
        self.fd = -1
        self.totals: List[float] = []

    def install(self, owner: Any, method: str) -> None:
        original: Callable[..., Any] = getattr(owner, method)

        def calibrated(*args: Any, **kwargs: Any) -> Any:
            result = original(*args, **kwargs)
            self.chunk()
            return result

        setattr(owner, method, calibrated)

    def chunk(self) -> None:
        start, cpu = time.monotonic(), time.thread_time()
        if self.pid != os.getpid():
            # First chunk in this process: a fork inherits the
            # parent's totals, which are not its own.
            self.pid = os.getpid()
            self.fd = os.open(f"{self.prefix}.{self.pid}",
                              os.O_WRONLY | os.O_CREAT, 0o644)
            self.totals = [0.0] * 5
            _machine()
        totals = self.totals
        loop, loop_cpu = time.monotonic(), time.thread_time()
        _machine().run(CHUNK)
        totals[0] += CHUNK
        totals[1] += time.monotonic() - loop
        totals[2] += time.thread_time() - loop_cpu
        totals[3] += time.monotonic() - start
        totals[4] += time.thread_time() - cpu
        os.pwrite(self.fd, self.RECORD.pack(*totals), 0)

    def results(self) -> List[List[float]]:
        """Every process's totals: ``[steps, loop_s, loop_cpu_s,
        left_out_s, left_out_cpu_s]``."""
        results = []
        for path in sorted(glob.glob(glob.escape(self.prefix) + ".*")):
            with open(path, "rb") as handle:
                results.append(list(self.RECORD.unpack(handle.read())))
        return results
