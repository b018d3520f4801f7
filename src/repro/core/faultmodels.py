"""Fault models and injection plans.

The shipped GOOFI supports "single or multiple transient bit-flip faults";
Section 4 announces intermittent and permanent faults as extensions. All
three are implemented here. A fault model does not touch the target
itself — it produces an :class:`InjectionPlan`, a schedule of
:class:`InjectionAction` items that the fault-injection algorithm realises
through the target interface's building blocks (stop at time t, read
state, apply operation, write state). That split keeps fault models
technique-agnostic: the same plan drives SCIFI, runtime SWIFI and the
simulation baseline.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Sequence

from repro.core.experiment import Injection
from repro.core.locations import FaultLocation
from repro.util.errors import CampaignError, ConfigurationError

OP_FLIP = "flip"
OP_STUCK0 = "stuck0"
OP_STUCK1 = "stuck1"
_VALID_OPS = (OP_FLIP, OP_STUCK0, OP_STUCK1)


@dataclass(frozen=True)
class InjectionAction:
    """Apply ``op`` to each location at (simulated) cycle ``time``."""

    time: int
    locations: tuple
    op: str = OP_FLIP

    def __post_init__(self):
        if self.op not in _VALID_OPS:
            raise ConfigurationError(f"unknown injection op {self.op!r}")
        if self.time < 0:
            raise ConfigurationError(f"injection time must be >= 0, got {self.time}")


@dataclass
class InjectionPlan:
    """The full schedule for one experiment, sorted by time."""

    actions: List[InjectionAction] = field(default_factory=list)

    def sorted_actions(self) -> List[InjectionAction]:
        return sorted(self.actions, key=lambda a: a.time)

    @property
    def times(self) -> List[int]:
        return [a.time for a in self.sorted_actions()]

    def all_locations(self) -> List[FaultLocation]:
        out: List[FaultLocation] = []
        for action in self.actions:
            out.extend(action.locations)
        return out


class FaultModel:
    """Base class: builds an injection plan for one experiment."""

    kind = "abstract"

    def plan(
        self,
        rng: random.Random,
        locations: Sequence[FaultLocation],
        times: Sequence[int],
        max_time: int,
    ) -> InjectionPlan:
        """Build the plan given the trigger-resolved candidate ``times``
        (usually a single injection instant) and the sampled ``locations``."""
        raise NotImplementedError

    def locations_per_experiment(self) -> int:
        """How many distinct locations one experiment needs sampled."""
        return 1


class TransientBitFlip(FaultModel):
    """Single or multiple simultaneous transient bit flips (the shipped
    GOOFI fault model)."""

    kind = "transient"

    def __init__(self, multiplicity: int = 1):
        if multiplicity < 1:
            raise ConfigurationError(
                f"multiplicity must be >= 1, got {multiplicity}"
            )
        self.multiplicity = multiplicity

    def locations_per_experiment(self) -> int:
        return self.multiplicity

    def plan(self, rng, locations, times, max_time):
        if not times:
            raise ConfigurationError("transient fault needs one injection time")
        chosen = tuple(locations[: self.multiplicity])
        return InjectionPlan([InjectionAction(time=times[0], locations=chosen)])


class IntermittentBitFlip(FaultModel):
    """A burst of transient flips in the same location (Section 4
    extension). ``burst_length`` flips separated by ``burst_spacing``
    cycles, starting at the trigger time."""

    kind = "intermittent"

    def __init__(self, burst_length: int = 3, burst_spacing: int = 50):
        if burst_length < 1:
            raise ConfigurationError(
                f"burst_length must be >= 1, got {burst_length}"
            )
        if burst_spacing < 1:
            raise ConfigurationError(
                f"burst_spacing must be >= 1, got {burst_spacing}"
            )
        self.burst_length = burst_length
        self.burst_spacing = burst_spacing

    def plan(self, rng, locations, times, max_time):
        if not times:
            raise ConfigurationError("intermittent fault needs a start time")
        location = (locations[0],)
        actions = []
        for i in range(self.burst_length):
            t = times[0] + i * self.burst_spacing
            if t > max_time:
                break
            actions.append(InjectionAction(time=t, locations=location))
        return InjectionPlan(actions)


class StuckAt(FaultModel):
    """Permanent stuck-at fault (Section 4 extension).

    A scan-chain injector cannot hold a node continuously, so the stuck
    value is re-asserted at every re-assertion interval — the standard
    SCIFI approximation of a permanent fault. The first assertion happens
    at the trigger time; re-assertions follow every ``reassert_interval``
    cycles until the experiment's time budget.
    """

    kind = "permanent"

    def __init__(self, stuck_value: int = 0, reassert_interval: int = 200):
        if stuck_value not in (0, 1):
            raise ConfigurationError(
                f"stuck_value must be 0 or 1, got {stuck_value}"
            )
        if reassert_interval < 1:
            raise ConfigurationError(
                f"reassert_interval must be >= 1, got {reassert_interval}"
            )
        self.stuck_value = stuck_value
        self.reassert_interval = reassert_interval

    def plan(self, rng, locations, times, max_time):
        if not times:
            raise ConfigurationError("stuck-at fault needs a start time")
        location = (locations[0],)
        op = OP_STUCK1 if self.stuck_value else OP_STUCK0
        actions = []
        t = times[0]
        while t <= max_time:
            actions.append(InjectionAction(time=t, locations=location, op=op))
            t += self.reassert_interval
        if not actions:
            actions.append(
                InjectionAction(time=times[0], locations=location, op=op)
            )
        return InjectionPlan(actions)


def build_fault_model(spec: "FaultModelSpec") -> FaultModel:  # noqa: F821
    """Instantiate a fault model from a campaign's declarative spec."""
    kind = spec.kind
    if kind == "transient":
        return TransientBitFlip(multiplicity=spec.multiplicity)
    if kind == "intermittent":
        return IntermittentBitFlip(
            burst_length=spec.burst_length, burst_spacing=spec.burst_spacing
        )
    if kind == "permanent":
        return StuckAt(
            stuck_value=spec.stuck_value,
            reassert_interval=spec.reassert_interval,
        )
    raise ConfigurationError(f"unknown fault model kind {kind!r}")


def apply_op(value_bit: int, op: str) -> int:
    """Apply one injection operation to a single bit value."""
    if op == OP_FLIP:
        return value_bit ^ 1
    if op == OP_STUCK0:
        return 0
    if op == OP_STUCK1:
        return 1
    raise ConfigurationError(f"unknown injection op {op!r}")


def inject_scan_images(
    chain_of: Callable[[str], Any],
    chains: Dict[str, int],
    action: InjectionAction,
) -> List[Injection]:
    """SCIFI's inject block over shifted-out chain images: apply
    ``action`` to ``chains`` (chain name -> image, each edited image
    replacing its entry) through the flip helper of the chain
    ``chain_of(name)`` returns."""
    injections = []
    for location in action.locations:
        if not location.space.startswith("scan:"):
            raise CampaignError(f"SCIFI cannot inject into {location.key()}")
        name = location.space.split(":", 1)[1]
        flipped, before = chain_of(name).flip(
            chains[name], location.path, location.bit
        )
        after = apply_op(before, action.op)
        if after != before:
            chains[name] = flipped
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
