"""Experiment records: what one fault-injection experiment produced.

These objects are what gets serialized into the ``LoggedSystemState``
database table — the "experimentData" attribute (where and when faults
were injected) and the "stateVector" attribute (the logged system state),
in the paper's terms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.core.locations import FaultLocation

if TYPE_CHECKING:
    from repro.core.trace import Trace


@dataclass(frozen=True)
class Injection:
    """One bit actually manipulated in the target."""

    time: int
    location: FaultLocation
    op: str
    bit_before: int
    bit_after: int

    def to_dict(self) -> dict:
        return {
            "time": self.time,
            "location": self.location.key(),
            "op": self.op,
            "bit_before": self.bit_before,
            "bit_after": self.bit_after,
        }

    @staticmethod
    def from_dict(data: dict) -> "Injection":
        return Injection(
            time=data["time"],
            location=FaultLocation.parse(data["location"]),
            op=data["op"],
            bit_before=data["bit_before"],
            bit_after=data["bit_after"],
        )


@dataclass
class Termination:
    """Why the experiment ended (the paper's termination conditions)."""

    kind: str  # "halt" | "trap" | "timeout" | "max_iterations"
    pc: int = 0
    cycle: int = 0
    iterations: int = 0
    trap_name: str = ""
    trap_detail: str = ""
    trap_code: int = 0

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "pc": self.pc,
            "cycle": self.cycle,
            "iterations": self.iterations,
            "trap_name": self.trap_name,
            "trap_detail": self.trap_detail,
            "trap_code": self.trap_code,
        }

    @staticmethod
    def from_dict(data: dict) -> "Termination":
        return Termination(**data)


# A state vector maps an observed location ("scan:internal/cpu.regfile.r3"
# or "memory/0x0123") to its value at logging time.
StateVector = Dict[str, int]


@dataclass
class ReferenceRun:
    """Result of the fault-free reference execution."""

    duration_cycles: int
    duration_instructions: int
    termination: Termination
    state_vector: StateVector
    outputs: Dict[str, int]
    trace: Optional[Trace] = None
    detail_states: List[StateVector] = field(default_factory=list)


@dataclass
class ExperimentResult:
    """One fault-injection experiment, ready for logging and analysis."""

    name: str
    index: int
    campaign_name: str
    parent_experiment: Optional[str] = None
    injections: List[Injection] = field(default_factory=list)
    termination: Optional[Termination] = None
    state_vector: StateVector = field(default_factory=dict)
    outputs: Dict[str, int] = field(default_factory=dict)
    detail_states: List[StateVector] = field(default_factory=list)
    wall_seconds: float = 0.0
    #: Name of the executed representative this outcome was statically
    #: derived from (equivalence collapsing); None for executed results.
    #: Deliberately NOT part of experiment_data(): derived rows must stay
    #: byte-identical to what executing the member would have logged.
    derived_from: Optional[str] = None

    def experiment_data(self) -> dict:
        """The "experimentData" payload of the LoggedSystemState row."""
        return {
            "index": self.index,
            "injections": [inj.to_dict() for inj in self.injections],
            "termination": (
                self.termination.to_dict() if self.termination else None
            ),
            "outputs": self.outputs,
            "wall_seconds": self.wall_seconds,
        }
