"""The Framework template and the target/technique registries (Figures 1, 3).

:class:`Framework` is the template a programmer copies when adapting GOOFI
to a new target system: it subclasses
:class:`~repro.core.algorithms.FaultInjectionAlgorithms` and stubs *every*
abstract building block with a "Write your code here!" implementation that
raises :class:`~repro.util.errors.NotImplementedByPort`. A port only fills
in the blocks the fault-injection algorithms it wants to support actually
use — exactly the paper's contract.

The module also keeps the registry that the GUI's target-system menu is
built from, and utilities to check which techniques a port supports and to
generate a fresh port skeleton (the Figure 3 source template).
"""

from __future__ import annotations

from typing import Any, Callable, ClassVar, Dict, List, Optional, Type

from repro.core.algorithms import FaultInjectionAlgorithms
from repro.core.campaign import CampaignData
from repro.util.errors import (
    CampaignError,
    ConfigurationError,
    NotImplementedByPort,
)

# Building blocks shared by every fault-injection algorithm.
COMMON_BLOCKS = (
    "init_test_card",
    "load_workload",
    "write_memory",
    "read_memory",
    "run_workload",
    "wait_for_termination",
    "location_space",
    "capture_state_vector",
    "start_trace",
    "stop_trace",
    "set_detail_logging",
    "drain_detail_states",
    "describe_target",
)

# Technique-specific blocks (Section 2.1: "Many of the abstract methods
# used by one fault injection technique are reusable when defining the
# algorithm for another ... Other abstract methods need to be implemented
# specifically for each new fault injection technique").
TECHNIQUE_BLOCKS: Dict[str, tuple] = {
    "scifi": (
        "wait_for_breakpoint",
        "read_scan_chain",
        "inject_fault",
        "write_scan_chain",
    ),
    "swifi-pre": ("inject_fault_preruntime",),
    "swifi-runtime": ("instrument_workload", "collect_runtime_injections"),
    "simfi": ("wait_for_breakpoint", "inject_fault_direct"),
    "pinlevel": ("wait_for_breakpoint", "force_pins"),
}

# Optional acceleration blocks: golden-run checkpoint capture/restore
# (warm-start experiment execution). Deliberately *not* part of any
# technique's required set — a port that leaves them as stubs simply
# keeps the cold start-from-reset path, and ``supports_technique`` is
# unaffected.
CHECKPOINT_BLOCKS = ("capture_checkpoint", "restore_checkpoint")


def _stub(name: str) -> Callable:
    def method(self, *args, **kwargs):
        # Write your code here!   (Figure 3)
        raise NotImplementedByPort(type(self).__name__, name)

    stub: Any = method
    stub.__name__ = name
    stub.__doc__ = f"Template stub for {name}(). Write your code here!"
    stub._is_framework_stub = True
    return stub


class Framework(FaultInjectionAlgorithms):
    """``public class <FrameWork> extends FaultInjectionAlgorithms`` —
    every building block stubbed, ready to be filled in by a port."""

    #: The registry name (set by :func:`register_target`).
    target_name: ClassVar[str] = ""


# Install the stubs programmatically so the block lists above are the
# single source of truth; this also clears the ABC abstract-method set so
# a port can be instantiated before all blocks are filled in (unused
# blocks raise NotImplementedByPort only when an algorithm calls them).
_ALL_BLOCKS = tuple(
    dict.fromkeys(
        COMMON_BLOCKS
        + tuple(b for blocks in TECHNIQUE_BLOCKS.values() for b in blocks)
        + CHECKPOINT_BLOCKS
    )
)
for _name in _ALL_BLOCKS:
    setattr(Framework, _name, _stub(_name))
setattr(Framework, "__abstractmethods__", frozenset())  # noqa: B010


def implemented_blocks(port_class: Type[Framework]) -> List[str]:
    """Blocks the port actually filled in (overrode the stub)."""
    implemented = []
    for name in _ALL_BLOCKS:
        method = getattr(port_class, name, None)
        if method is not None and not getattr(method, "_is_framework_stub", False):
            implemented.append(name)
    return implemented


def required_blocks(technique: str) -> List[str]:
    if technique not in TECHNIQUE_BLOCKS:
        raise ConfigurationError(f"unknown technique {technique!r}")
    return list(COMMON_BLOCKS) + list(TECHNIQUE_BLOCKS[technique])


def supports_technique(port_class: Type[Framework], technique: str) -> bool:
    have = set(implemented_blocks(port_class))
    return all(block in have for block in required_blocks(technique))


def supported_techniques(port_class: Type[Framework]) -> List[str]:
    return [
        technique
        for technique in TECHNIQUE_BLOCKS
        if supports_technique(port_class, technique)
    ]


def missing_blocks(port_class: Type[Framework], technique: str) -> List[str]:
    have = set(implemented_blocks(port_class))
    return [b for b in required_blocks(technique) if b not in have]


# ---------------------------------------------------------------------------
# Set-up phase helper (Figure 5: create campaign data, then validate it)
# ---------------------------------------------------------------------------

def setup_campaign(
    port: FaultInjectionAlgorithms,
    campaign: CampaignData,
    strict: bool = True,
    reference_duration: Optional[int] = None,
):
    """Bind ``campaign`` to ``port`` and lint it before anything runs.

    Performs the set-up phase's validation step: ``read_campaign_data``
    followed by the static lint pass of
    :mod:`repro.staticanalysis.lint`. Returns the list of findings; with
    ``strict`` (the default), error-severity findings raise
    :class:`CampaignError` so a broken campaign never reaches the
    fault-injection phase and burns its experiment budget.
    """
    from repro.staticanalysis.lint import lint_errors

    port.read_campaign_data(campaign)
    findings = port.lint_campaign(reference_duration=reference_duration)
    errors = lint_errors(findings)
    if strict and errors:
        summary = "; ".join(str(f) for f in errors[:3])
        suffix = "; ..." if len(errors) > 3 else ""
        raise CampaignError(
            f"campaign {campaign.campaign_name!r} failed set-up lint with "
            f"{len(errors)} error(s): {summary}{suffix}"
        )
    return findings


# ---------------------------------------------------------------------------
# Target-system registry (feeds the GUI's target menu)
# ---------------------------------------------------------------------------

_TARGETS: Dict[str, Type[Framework]] = {}


def register_target(name: str):
    """Class decorator: make a TargetSystemInterface selectable by name."""

    def decorator(cls: Type[Framework]) -> Type[Framework]:
        if not issubclass(cls, FaultInjectionAlgorithms):
            raise ConfigurationError(
                f"{cls.__name__} must extend FaultInjectionAlgorithms"
            )
        if name in _TARGETS:
            raise ConfigurationError(f"target {name!r} already registered")
        _TARGETS[name] = cls
        cls.target_name = name
        return cls

    return decorator


def unregister_target(name: str) -> None:
    _TARGETS.pop(name, None)


def available_targets() -> List[str]:
    _ensure_builtin_targets()
    return sorted(_TARGETS)


def create_target(name: str, **options) -> Framework:
    """A fresh port for the registered target ``name``. ``options`` go
    to its constructor: the port's own (e.g. ``config``) and the speed
    options of :class:`~repro.core.algorithms.FaultInjectionAlgorithms`
    (``early_exit``, ``verify_equivalence``, ``golden_cache``)."""
    _ensure_builtin_targets()
    cls = _TARGETS.get(name)
    if cls is None:
        raise ConfigurationError(
            f"unknown target {name!r}; available: {sorted(_TARGETS)}"
        )
    return cls(**options)


def available_techniques() -> List[str]:
    return list(TECHNIQUE_BLOCKS)


def _ensure_builtin_targets() -> None:
    """Import the bundled target interfaces on first use (they
    self-register); keeps repro.core import-light."""
    if "thor-rd" not in _TARGETS:
        import repro.scifi.interface  # noqa: F401
    if "thor-rd-sim" not in _TARGETS:
        import repro.simfi.interface  # noqa: F401
    if "tsm-1" not in _TARGETS:
        import repro.tsm.interface  # noqa: F401


# ---------------------------------------------------------------------------
# Worker factory (parallel campaign execution)
# ---------------------------------------------------------------------------

class TargetFactory:
    """Picklable recipe for constructing a target interface by registry
    name — what the parallel campaign runner ships to worker processes so
    each worker can build its *own* isolated Framework/simulator instance
    (ports themselves hold live simulator state and are not picklable).

    Works under both ``fork`` and ``spawn`` start methods: the factory
    carries only the registry name and constructor kwargs, and target
    registration happens lazily inside :func:`create_target` when the
    worker first calls the factory."""

    def __init__(self, target_name: str, **kwargs):
        self.target_name = target_name
        self.kwargs = dict(kwargs)

    def __call__(self) -> Framework:
        return create_target(self.target_name, **self.kwargs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        extra = "".join(f", {k}={v!r}" for k, v in sorted(self.kwargs.items()))
        return f"TargetFactory({self.target_name!r}{extra})"


def worker_factory(target_name: str, **options) -> TargetFactory:
    """A picklable zero-argument callable building a fresh port for
    ``target_name`` with :func:`create_target` ``options`` — the
    ``factory`` argument of
    :class:`repro.core.parallel.ParallelCampaignController` and
    :func:`repro.core.parallel.run_parallel_campaign`. The parent port
    and every worker port are built from it, so they share the speed
    options, e.g. ``worker_factory("thor-rd", early_exit=False)``."""
    if target_name not in available_targets():
        raise ConfigurationError(
            f"unknown target {target_name!r}; available: {available_targets()}"
        )
    return TargetFactory(target_name, **options)


# ---------------------------------------------------------------------------
# Port skeleton generation (the Figure 3 artefact)
# ---------------------------------------------------------------------------

def generate_port_skeleton(class_name: str, techniques: List[str]) -> str:
    """Source text of a new TargetSystemInterface skeleton implementing
    the blocks needed for ``techniques`` — what a programmer starts from
    when adapting GOOFI to a new target system."""
    blocks: List[str] = list(COMMON_BLOCKS)
    for technique in techniques:
        for block in TECHNIQUE_BLOCKS.get(technique, ()):
            if block not in blocks:
                blocks.append(block)
    lines = [
        "from repro.core.framework import Framework, register_target",
        "",
        "",
        f'@register_target("{class_name.lower()}")',
        f"class {class_name}(Framework):",
        f'    """Target system interface for {class_name}."""',
        "",
    ]
    for block in blocks:
        lines.append(f"    def {block}(self, *args, **kwargs):")
        lines.append("        # Write your code here!")
        lines.append("        raise NotImplementedError")
        lines.append("")
    return "\n".join(lines)
