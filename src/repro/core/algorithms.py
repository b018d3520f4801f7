"""The FaultInjectionAlgorithms class (paper Figure 2).

Fault-injection algorithms are *compositions of abstract building blocks*:
``init_test_card``, ``load_workload``, ``run_workload``,
``wait_for_breakpoint``, ``read_scan_chain``, ``inject_fault``,
``write_scan_chain``, ``wait_for_termination`` and so on. The concrete
algorithms — the per-experiment compositions
``_experiment_stop_and_inject`` (SCIFI, simulation-based FI and
pin-level FI, which differ only in their inject block),
``_experiment_swifi_pre`` and ``_experiment_swifi_runtime`` — call only
these blocks, never target-specific code.
:meth:`FaultInjectionAlgorithms.run_campaign` repeats the campaign's
composition over its experiments on the one campaign loop of
:mod:`repro.core.parallel`. Porting the tool to a new target means
implementing the blocks in a subclass of
:class:`~repro.core.framework.Framework` (paper Figure 3); adding a new
technique means writing one more composition here and, when needed, adding
previously-undefined blocks (paper Section 2.1).
"""

from __future__ import annotations

import abc
import random
import time as _time
from typing import Any, Dict, List, Optional, Sequence

from repro.core.campaign import CampaignData
from repro.core.checkpoint import (
    DEFAULT_CHECKPOINT_INTERVAL,
    MAX_CHECKPOINTS,
    CheckpointMismatch,
    CheckpointStore,
    CheckpointTick,
    RestoreImage,
)
from repro.core.divergence import (
    MemoEntry,
    OutcomeMemo,
    StateOutcome,
    StateTable,
    in_plan_order,
    memo_key,
    run_window,
)
from repro.core.experiment import (
    ExperimentResult,
    Injection,
    ReferenceRun,
    StateVector,
    Termination,
)
from repro.core.faultmodels import FaultModel, InjectionPlan, build_fault_model
from repro.core.locations import FaultLocation, LocationSpace
from repro.core.preinjection import build_liveness_oracle
from repro.core.trace import Trace
from repro.observability import get_observability
from repro.util.errors import CampaignError, NotImplementedByPort
from repro.util.rng import CampaignRandom

# Reference-run cycle budget when the campaign does not set an explicit
# timeout (the reference run has no prior duration to derive one from).
_REFERENCE_BUDGET = 50_000_000

class StopCampaign(Exception):
    """Raised by a control hook to end the campaign early (the progress
    window's End button)."""


class _NullControl:
    """Default no-op control hooks (no GUI attached)."""

    def checkpoint(self, index: int) -> None:
        pass

    def report(self, index: int, result: ExperimentResult) -> None:
        pass


class _ListSink:
    """Default in-memory result sink."""

    def __init__(self) -> None:
        self.reference: Optional[ReferenceRun] = None
        self.results: List[ExperimentResult] = []

    def log_reference(self, campaign: CampaignData, ref: ReferenceRun) -> None:
        self.reference = ref

    def log_experiment(
        self, campaign: CampaignData, result: ExperimentResult
    ) -> None:
        self.results.append(result)


class FaultInjectionAlgorithms(abc.ABC):
    """Abstract algorithm layer: building blocks + their compositions."""

    # Which location spaces each technique can reach. SCIFI reaches what
    # the scan chains expose; pre-runtime SWIFI only the downloaded
    # program/data image; runtime SWIFI the software-visible state;
    # simulation-based FI everything.
    TECHNIQUE_SPACES = {
        "scifi": ("scan:",),
        "swifi-pre": ("memory:",),
        "swifi-runtime": ("memory:", "swreg"),
        "simfi": ("scan:", "memory:", "swreg"),
        "pinlevel": ("scan:boundary",),
    }

    def __init__(
        self,
        *,
        early_exit: bool = True,
        verify_equivalence: float = 0.0,
        golden_cache: Any = None,
    ) -> None:
        if not 0.0 <= verify_equivalence <= 1.0:
            raise CampaignError(
                "verify_equivalence must be in [0, 1], "
                f"got {verify_equivalence}"
            )
        # The speed options. They are not part of CampaignData: they
        # change how much is simulated or double-checked, never what the
        # campaign computes (byte-identity is property-tested), so they
        # must not perturb config hashes. ``create_target`` and
        # ``worker_factory`` forward them here, so a parallel run's
        # parent and workers carry the same values.
        #: Divergence-window execution and the outcome memo: probe the
        #: faulty run's state fingerprint at every golden tick after
        #: injection and replay the known outcome of a state seen before
        #: (the golden run's or an earlier experiment's), record the
        #: faulty states experiments pass through, and replay the
        #: recorded outcome of an earlier experiment with the same
        #: (restore checkpoint digest, canonical injection delta) key.
        #: Disabled by ``goofi run --no-early-exit``.
        self.early_exit = early_exit
        #: Fraction of statically-derived experiment outcomes that are
        #: re-executed for real and compared against the derivation
        #: (``goofi run --verify-equivalence P``). Any divergence is a
        #: hard failure.
        self.verify_equivalence = verify_equivalence
        #: Optional :class:`repro.core.goldencache.GoldenRunCache` —
        #: when set, :meth:`prepare_run` reuses a cached golden run
        #: (trace + fingerprint + checkpoint store) keyed by the
        #: campaign's config hash instead of re-executing it.
        self.golden_cache = golden_cache
        self.campaign: Optional[CampaignData] = None
        self._locations: List[FaultLocation] = []
        self._fault_model: Optional[FaultModel] = None
        self._rng: Optional[CampaignRandom] = None
        #: Liveness oracle (dynamic, static, or hybrid) when the campaign
        #: enables pre-injection analysis; any object with an
        #: ``is_live(location, time)`` method.
        self._liveness: Any = None
        #: :class:`repro.staticanalysis.equivalence.
        #: EquivalencePreInjectionAnalysis` when the campaign selects
        #: ``preinjection_mode="equivalence"`` — the campaign loop uses
        #: it to partition the planned fault list.
        self._equivalence: Any = None
        self._reference: Optional[ReferenceRun] = None
        #: Checkpoints captured along the reference run (warm starts);
        #: None when the campaign, technique or port rules them out.
        self._checkpoints: Optional[CheckpointStore] = None
        #: Per-campaign-binding memo and state tables (reset on rebind:
        #: a "cold" key or a state of another workload must never
        #: shortcut this one).
        self._memo: Optional[OutcomeMemo] = None
        self._states: Optional[StateTable] = None

    # ------------------------------------------------------------------
    # Abstract building blocks (Figure 2). A port implements the subset
    # needed by the techniques it supports; the Framework template provides
    # "Write your code here!" stubs for all of them.
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def init_test_card(self) -> None:
        """Power-cycle / reinitialise the target system."""

    @abc.abstractmethod
    def load_workload(self) -> None:
        """Download the campaign's workload image to the target."""

    @abc.abstractmethod
    def write_memory(self) -> None:
        """Download the workload's initial input data."""

    @abc.abstractmethod
    def read_memory(self) -> Dict[str, int]:
        """Read back the workload's output values."""

    @abc.abstractmethod
    def run_workload(self) -> None:
        """Start (arm) execution of the downloaded workload."""

    @abc.abstractmethod
    def wait_for_breakpoint(self, stop_cycle: int) -> Optional[Termination]:
        """Run until the injection point. Returns None when the breakpoint
        was reached, or a Termination if the experiment ended first."""

    @abc.abstractmethod
    def read_scan_chain(
        self, names: Optional[Sequence[str]] = None
    ) -> Dict[str, int]:
        """Shift out scan chains (chain name -> chain image, one int
        whose bit *i* is chain bit *i*). ``names``
        restricts the shift to the listed chains — the default SCIFI
        fast path only round-trips the chains an action touches; None
        (or ``campaign.full_scan_shift``) shifts every chain."""

    @abc.abstractmethod
    def inject_fault(self, chains: Dict[str, int], action) -> List[Injection]:
        """Apply one injection action to the chain images, replacing the
        edited entries of ``chains`` (chain name -> image)."""

    @abc.abstractmethod
    def write_scan_chain(self, chains: Dict[str, int]) -> None:
        """Shift the (possibly fault-injected) chain images back in."""

    @abc.abstractmethod
    def wait_for_termination(
        self, timeout_cycles: int, max_iterations: Optional[int]
    ) -> Termination:
        """Run until a termination condition: workload end, detected
        error, time-out or iteration limit — whichever comes first."""

    # Blocks added for the pre-runtime SWIFI technique (Section 2.1: the
    # previously-undefined abstract methods a new technique needs are
    # added to the Framework class).

    @abc.abstractmethod
    def inject_fault_preruntime(self, action) -> List[Injection]:
        """Flip bits of the downloaded program/data image before start."""

    # Blocks added for the runtime SWIFI extension.

    @abc.abstractmethod
    def instrument_workload(self, plan: InjectionPlan) -> None:
        """Instrument the workload with injection code (trap planting)."""

    @abc.abstractmethod
    def collect_runtime_injections(self) -> List[Injection]:
        """Injections the instrumentation actually performed at runtime."""

    # Block added for the simulation-based baseline.

    @abc.abstractmethod
    def inject_fault_direct(self, action) -> List[Injection]:
        """Inject via direct simulator state access (full observability)."""

    # Block added for the pin-level technique (Section 2.1 names pin-level
    # fault injection as a third family the building blocks can compose).

    @abc.abstractmethod
    def force_pins(self, action) -> List[Injection]:
        """Arm boundary-scan pin forcing for the action's bus lines."""

    # Support blocks used by every algorithm.

    @abc.abstractmethod
    def location_space(self) -> LocationSpace:
        """All injectable/observable state of the configured target."""

    @abc.abstractmethod
    def capture_state_vector(self) -> StateVector:
        """Observe the campaign's observe-pattern cells (plus outputs are
        read separately via read_memory)."""

    @abc.abstractmethod
    def start_trace(self) -> None:
        """Begin collecting the reference execution trace."""

    @abc.abstractmethod
    def stop_trace(self) -> Trace:
        """Finish trace collection and return the trace."""

    @abc.abstractmethod
    def set_detail_logging(self, enabled: bool) -> None:
        """Enable per-instruction state logging (detail mode)."""

    @abc.abstractmethod
    def drain_detail_states(self) -> List[StateVector]:
        """Per-instruction states collected since the last drain."""

    @abc.abstractmethod
    def describe_target(self) -> dict:
        """Structural description stored in TargetSystemData."""

    # Optional acceleration blocks (golden-run warm starts). These are
    # *not* abstract: a port that cannot snapshot its target simply keeps
    # the defaults, the first capture attempt raises NotImplementedByPort,
    # and every experiment takes the cold start-from-reset path.

    def capture_checkpoint(self) -> CheckpointTick:
        """Snapshot the stopped target's full state (CPU registers,
        pipeline latches, caches, scan-visible state, environment
        simulator) plus the memory pages dirtied since the previous
        capture. Called by the reference run at the checkpoint cadence."""
        raise NotImplementedByPort(type(self).__name__, "capture_checkpoint")

    def restore_checkpoint(self, image: RestoreImage) -> None:
        """Load a reference-run checkpoint into the target — the warm
        equivalent of ``init_test_card + load_workload + write_memory +
        run_workload + wait_for_breakpoint(cycle)``. Must raise
        :class:`repro.core.checkpoint.CheckpointMismatch` when the
        restored state's fingerprint disagrees with the image's."""
        raise NotImplementedByPort(type(self).__name__, "restore_checkpoint")

    def start_divergence_tracking(self) -> None:
        """Arm the faulty run for divergence probing: begin tracking the
        state (dirty memory pages) that ``capture_state_digest`` must
        fold in. Called once per experiment, after the restore/cold
        prefix and before the injection loop."""
        raise NotImplementedByPort(
            type(self).__name__, "start_divergence_tracking"
        )

    def capture_state_digest(self) -> str:
        """Exact fingerprint of the stopped faulty target, computed
        exactly the way ``capture_checkpoint`` fingerprints the golden
        run. It must cover everything future execution can read, the
        cycle counter included: equal fingerprints must imply equal
        futures, because the state table replays outcomes on equality.
        Unlike ``capture_checkpoint`` this must not perturb the target
        (no payload assembly, no dirty-tracking reset beyond draining)."""
        raise NotImplementedByPort(
            type(self).__name__, "capture_state_digest"
        )

    def capture_core_digest(self) -> str:
        """Optional diagnostic digest over part of the state (for Thor:
        the CPU core). The campaign engine does not call it."""
        raise NotImplementedByPort(
            type(self).__name__, "capture_core_digest"
        )

    def available_workloads(self):
        """Names of the workloads this target can run, or None when the
        port does not restrict them (optional override, used by the
        set-up window to validate workload selections per target)."""
        return None

    def workload_program(self):
        """The assembled program image of the bound campaign's workload,
        or None when the port cannot provide one (optional override).

        Ports that return a :class:`repro.thor.assembler.Program` here
        unlock the *static* pre-injection oracle and the static lint
        checks (dead registers, unreachable code, dead stores); ports
        that keep the default None degrade gracefully to the trace-based
        analysis only."""
        return None

    # ------------------------------------------------------------------
    # Campaign preparation (readCampaignData + set-up interpretation)
    # ------------------------------------------------------------------

    def read_campaign_data(self, campaign: CampaignData) -> None:
        """Bind this algorithm instance to one campaign."""
        campaign.validate()
        self._check_technique_spaces(campaign)
        self.campaign = campaign
        space = self.location_space()
        space.validate_selection(campaign.location_patterns)
        self._locations = space.expand(campaign.location_patterns)
        self._fault_model = build_fault_model(campaign.fault_model)
        self._rng = CampaignRandom(campaign.seed)
        self._liveness = None
        self._equivalence = None
        # A stale reference/checkpoint store/memo table from a
        # previously bound campaign must never leak into this one (the
        # reference-run budget and the warm-start eligibility depend on
        # the former; a cold-keyed memo entry of a different workload
        # would silently corrupt outcomes through the latter).
        self._reference = None
        self._checkpoints = None
        self._memo = None
        self._states = None

    def _check_technique_spaces(self, campaign: CampaignData) -> None:
        allowed = self.TECHNIQUE_SPACES[campaign.technique]
        for pattern in campaign.location_patterns:
            space_part = pattern.split("/", 1)[0]
            if not any(space_part.startswith(prefix) for prefix in allowed):
                raise CampaignError(
                    f"technique {campaign.technique!r} cannot reach locations "
                    f"in {pattern!r} (allowed spaces: {allowed})"
                )

    # ------------------------------------------------------------------
    # Reference run (makeReferenceRun in Figure 2)
    # ------------------------------------------------------------------

    def make_reference_run(self) -> ReferenceRun:
        campaign = self._require_campaign()
        detail = campaign.logging_mode == "detail"
        # Capture warm-start checkpoints along the reference run when the
        # campaign, logging mode and technique allow it. Detail mode is
        # excluded (detail runs log per-instruction states from cycle 0,
        # so a warm start would drop the prefix states).
        warm = (
            campaign.warm_start
            and not detail
            and campaign.technique in self.INJECT_BLOCKS
        )
        store: Optional[CheckpointStore] = None
        with get_observability().profile(
            "reference-run",
            campaign=campaign.campaign_name,
            workload=campaign.workload_name,
        ):
            self.init_test_card()
            self.load_workload()
            self.write_memory()
            self.start_trace()
            self.set_detail_logging(detail)
            self.run_workload()
            budget = campaign.timeout_cycles or _REFERENCE_BUDGET
            termination: Optional[Termination] = None
            if warm:
                store, termination = self._capture_checkpointed_reference(
                    budget
                )
            if termination is None:
                termination = self.wait_for_termination(
                    budget, campaign.max_iterations
                )
            trace = self.stop_trace()
            self.set_detail_logging(False)
            if termination.kind not in ("halt", "max_iterations"):
                raise CampaignError(
                    "reference run did not terminate normally: "
                    f"{termination.kind} ({termination.trap_name})"
                )
            reference = ReferenceRun(
                duration_cycles=termination.cycle,
                duration_instructions=len(trace),
                termination=termination,
                state_vector=self.capture_state_vector(),
                outputs=self.read_memory(),
                trace=trace,
                detail_states=self.drain_detail_states() if detail else [],
            )
            self._install_oracles(trace)
        self._checkpoints = store
        return reference

    def _install_oracles(self, trace: Optional[Trace]) -> None:
        """Build the pre-injection/equivalence oracles from a reference
        trace. ``preinjection_mode="equivalence"`` activates the
        partitioner even when liveness pruning itself is off."""
        campaign = self._require_campaign()
        equivalence = campaign.preinjection_mode == "equivalence"
        if not (campaign.use_preinjection or equivalence):
            return
        oracle = self.build_preinjection_analysis(trace)
        if campaign.use_preinjection:
            self._liveness = oracle
        if equivalence:
            self._equivalence = oracle

    def _capture_checkpointed_reference(self, budget: int):
        """Run the reference workload to termination, pausing at the
        checkpoint cadence to snapshot target state.

        Returns ``(store, termination)``; termination is None when the
        store filled up (MAX_CHECKPOINTS) before the workload ended, in
        which case the caller finishes the run with
        ``wait_for_termination``. Returns ``(None, None)`` when the port
        does not implement the checkpoint blocks — the reference run then
        proceeds exactly as it would without warm starts."""
        campaign = self._require_campaign()
        interval = campaign.checkpoint_interval or DEFAULT_CHECKPOINT_INTERVAL
        store = CheckpointStore(context=campaign.campaign_name)
        next_stop = 0
        while len(store) < MAX_CHECKPOINTS:
            termination = self.wait_for_breakpoint(next_stop)
            if termination is not None:
                return store, termination
            try:
                tick = self.capture_checkpoint()
            except NotImplementedByPort:
                # Port cannot snapshot its target: fall back to the plain
                # reference run. The first capture attempt happens at
                # cycle 0 before any stepping, so nothing was perturbed.
                return None, None
            store.append(tick)
            next_stop = tick.cycle + interval
        return store, None

    def build_preinjection_analysis(self, trace: Optional[Trace]):
        """Construct the campaign's liveness oracle (paper Section 4).

        Dispatches on ``campaign.preinjection_mode``: ``dynamic`` builds
        the trace-based :class:`~repro.core.preinjection
        .PreInjectionAnalysis`; ``static`` the trace-free
        :class:`~repro.staticanalysis.oracle.StaticPreInjectionAnalysis`
        over the port's ``workload_program``; ``hybrid`` intersects the
        two; ``equivalence`` wraps the static oracle in the fault-space
        partitioner (:class:`~repro.staticanalysis.equivalence
        .EquivalencePreInjectionAnalysis`)."""
        campaign = self._require_campaign()
        return build_liveness_oracle(
            campaign.preinjection_mode,
            trace,
            self.location_space(),
            program=self.workload_program(),
        )

    # ------------------------------------------------------------------
    # Campaign lint (set-up phase validation)
    # ------------------------------------------------------------------

    def lint_campaign(self, reference_duration: Optional[int] = None):
        """Static validation of the bound campaign before it runs.

        Returns the list of :class:`repro.staticanalysis.lint
        .LintFinding`; the framework's ``setup_campaign`` helper turns
        error-severity findings into a :class:`CampaignError`."""
        from repro.staticanalysis.lint import lint_campaign as _lint

        campaign = self._require_campaign()
        return _lint(
            campaign,
            self.location_space(),
            program=self.workload_program(),
            reference_duration=reference_duration,
        )

    # ------------------------------------------------------------------
    # Per-experiment planning
    # ------------------------------------------------------------------

    def plan_experiment(self, index: int, reference: ReferenceRun) -> InjectionPlan:
        """Sample the (time, location) fault for experiment ``index``.

        With pre-injection analysis enabled, the (location, time) pair is
        re-sampled until the location holds live data at the injection
        time (Section 4: "injecting a fault into a location that does not
        hold live data serves no purpose").
        """
        campaign = self._require_campaign()
        assert self._fault_model is not None and self._rng is not None
        rng = self._rng.substream(index)
        duration = max(1, reference.duration_cycles)
        k = self._fault_model.locations_per_experiment()

        attempts = 0
        while True:
            times = campaign.trigger.resolve(rng, reference.trace, duration)
            chosen = (
                rng.sample(self._locations, min(k, len(self._locations)))
                if k > 1
                else [rng.choice(self._locations)]
            )
            attempts += 1
            if self._liveness is None:
                break
            if all(self._liveness.is_live(loc, times[0]) for loc in chosen):
                break
            if attempts >= 1000:
                raise CampaignError(
                    "pre-injection analysis found no live (location, time) "
                    "pair in 1000 samples; widen the location selection"
                )
        if self._liveness is not None:
            metrics = get_observability().metrics
            if metrics.enabled:
                # Prune ratio = rejected / sampled candidate pairs.
                metrics.counter("preinjection.samples_total").inc(attempts)
                metrics.counter("preinjection.rejected_total").inc(
                    attempts - 1
                )
        return self._fault_model.plan(rng, chosen, times, max_time=duration)

    # ------------------------------------------------------------------
    # Concrete fault-injection algorithms (the Figure 2 compositions)
    #
    # Each technique's per-experiment procedure is a *reentrant* method
    # (``_experiment_<technique>``): it touches only the target state that
    # ``init_test_card`` resets, so any number of experiments can be run
    # in any order — by the campaign loop of :mod:`repro.core.parallel`,
    # in-process or sharded over worker processes, or one-off by
    # ``run_single_experiment``.
    # ------------------------------------------------------------------

    #: technique name -> bound per-experiment procedure name, used by
    #: ``run_single_experiment`` to dispatch a campaign's experiments.
    TECHNIQUE_EXPERIMENTS = {
        "scifi": "_experiment_stop_and_inject",
        "swifi-pre": "_experiment_swifi_pre",
        "swifi-runtime": "_experiment_swifi_runtime",
        "simfi": "_experiment_stop_and_inject",
        "pinlevel": "_experiment_stop_and_inject",
    }

    #: stop-and-inject technique -> its inject block: the one step in
    #: which SCIFI, simulation-based FI and pin-level FI differ. These
    #: are also the techniques eligible for warm starts and equivalence
    #: collapse: their experiment is golden execution from reset up to
    #: a stop-at-cycle breakpoint, then the injection. So restoring a
    #: reference-run checkpoint before the first injection is
    #: state-identical to re-simulating the prefix, and the soundness
    #: argument of :mod:`repro.staticanalysis.equivalence` holds. The
    #: SWIFI techniques mutate the image or instrument the workload
    #: before execution starts: they always start cold, and two
    #: injection times are different programs from cycle 0.
    INJECT_BLOCKS = {
        "scifi": "_inject_through_scan",
        "simfi": "inject_fault_direct",
        "pinlevel": "force_pins",
    }

    def _cold_prefix(self) -> None:
        """The cold pre-injection prefix: power-cycle, download, arm."""
        self.init_test_card()
        self.load_workload()
        self.write_memory()
        self._apply_detail_mode()
        self.run_workload()

    def _restore_point(self, plan: InjectionPlan) -> Optional[int]:
        """Index of the reference-run checkpoint this plan's experiment
        warm-starts from: the latest one *strictly before* the plan's
        first injection time, or None when the experiment starts cold.

        Strictly before, not at-or-before: a checkpoint captured exactly
        at the injection cycle would land the restored target on the
        injection instant and skip that cycle's trigger/pre-injection
        evaluation, so the first-injection hop must always approach the
        injection time from earlier state.

        A checkpoint store exists only when warm starts apply:
        :meth:`make_reference_run` captures one only for a ``warm_start``
        campaign of a stop-and-inject technique in summary logging, and
        an adopted golden run is keyed on the config hash, which covers
        all three. So no eligibility check is repeated here."""
        store = self._checkpoints
        actions = plan.sorted_actions()
        if store is None or not actions:
            return None
        return store.nearest_before(actions[0].time)

    def _try_restore(self, plan: InjectionPlan) -> bool:
        """Warm-start the experiment from its restore point.

        Returns True when the target is now in the restored state (the
        caller skips the cold prefix); False when no checkpoint applies
        or the restore failed its fingerprint check, in which case the
        target is untouched/garbage and the caller must take the cold
        path (which starts with ``init_test_card`` and is therefore
        always safe)."""
        index = self._restore_point(plan)
        if index is None:
            return False
        assert self._checkpoints is not None
        image = self._checkpoints.restore_image(index)
        obs = get_observability()
        try:
            with obs.profile("checkpoint.restore", cycle=image.cycle):
                self.restore_checkpoint(image)
        except (CheckpointMismatch, NotImplementedByPort):
            if obs.metrics.enabled:
                obs.metrics.counter("checkpoint.cold_falls").inc()
            return False
        if obs.metrics.enabled:
            obs.metrics.counter("checkpoint.hits").inc()
            obs.metrics.counter("checkpoint.cycles_saved").inc(image.cycle)
        return True

    @staticmethod
    def _action_chain_names(action) -> Optional[List[str]]:
        """Scan chains an injection action touches — the restricted
        read/write set for the SCIFI fast path. None when the action
        reaches outside the scan space (shift everything)."""
        names = set()
        for location in action.locations:
            if not location.space.startswith("scan:"):
                return None
            names.add(location.space.split(":", 1)[1])
        return sorted(names) or None

    def _experiment_stop_and_inject(
        self, index: int, plan: InjectionPlan
    ) -> ExperimentResult:
        """One SCIFI, simulation-based FI or pin-level experiment — the
        inner procedure of Figure 2: warm-restore or run the cold
        prefix, stop at each injection instant and run the technique's
        inject block (:attr:`INJECT_BLOCKS`), then finish the run."""
        campaign = self._require_campaign()
        inject = getattr(self, self.INJECT_BLOCKS[campaign.technique])
        result = self._new_result(index)
        if not self._try_restore(plan):
            self._cold_prefix()
        probe_from = self._begin_divergence(plan)
        termination: Optional[Termination] = None
        for action in plan.sorted_actions():
            termination = self.wait_for_breakpoint(action.time)
            if termination is not None:
                break
            result.injections.extend(inject(action))
        self._finish_tail(result, termination, probe_from)
        return result

    def _inject_through_scan(self, action) -> List[Injection]:
        """SCIFI's inject block: shift the scan chains out, flip the
        action's bits in the image, shift them back in. Only the chains
        the action touches are shifted unless ``full_scan_shift``."""
        campaign = self._require_campaign()
        obs = get_observability()
        names = (
            None if campaign.full_scan_shift
            else self._action_chain_names(action)
        )
        with obs.profile("scan.read"):
            chains = self.read_scan_chain(names)
        injections = self.inject_fault(chains, action)
        with obs.profile("scan.write"):
            self.write_scan_chain(chains)
        return injections

    def _experiment_swifi_pre(
        self, index: int, plan: InjectionPlan
    ) -> ExperimentResult:
        """One pre-runtime SWIFI experiment: faults are injected into the
        program and data areas of the target before it starts to execute."""
        campaign = self._require_campaign()
        result = self._new_result(index)
        self.init_test_card()
        self.load_workload()
        self.write_memory()
        # Inject after the full image (program + input data) is down
        # loaded — "before it starts to execute", not before download.
        for action in plan.sorted_actions():
            result.injections.extend(self.inject_fault_preruntime(action))
        self._apply_detail_mode()
        self.run_workload()
        termination = self.wait_for_termination(
            self._experiment_budget(), campaign.max_iterations
        )
        self._finish(result, termination)
        return result

    def _experiment_swifi_runtime(
        self, index: int, plan: InjectionPlan
    ) -> ExperimentResult:
        """One runtime SWIFI experiment (Section 4 extension): the workload
        is instrumented with additional software for injecting faults."""
        campaign = self._require_campaign()
        result = self._new_result(index)
        self.init_test_card()
        self.load_workload()
        self.write_memory()
        self.instrument_workload(plan)
        self._apply_detail_mode()
        self.run_workload()
        termination = self.wait_for_termination(
            self._experiment_budget(), campaign.max_iterations
        )
        result.injections.extend(self.collect_runtime_injections())
        self._finish(result, termination)
        return result

    # ------------------------------------------------------------------
    # Reentrant single-experiment building block
    # ------------------------------------------------------------------

    def prepare_run(self, campaign, golden=None) -> ReferenceRun:
        """Bind ``campaign`` and perform the reference run — everything a
        runner (campaign loop, parallel worker, re-run helper) needs before
        it can call :meth:`run_single_experiment`. Returns the reference
        run (also retained on the instance for budget derivation).

        ``golden`` optionally supplies a pre-computed
        :class:`repro.core.goldencache.GoldenRun` (reference run +
        checkpoint store) — the parallel runner hands workers the
        parent's golden run so each worker skips its own reference
        execution. When :attr:`golden_cache` is set, the golden run is
        also looked up/stored on disk keyed by the campaign's config
        hash, so repeated ``goofi run`` invocations of an unchanged
        campaign skip the reference run entirely."""
        self.read_campaign_data(campaign)
        cache = self.golden_cache
        key: Optional[str] = None
        if golden is not None or cache is not None:
            from repro.core.goldencache import campaign_golden_key

            # Key is computed after read_campaign_data: port bindings may
            # resolve symbolic trigger fields, and the key must reflect
            # what will actually run.
            key = campaign_golden_key(campaign)
        obs = get_observability()
        if golden is not None and self._adopt_golden(golden, key):
            if obs.metrics.enabled:
                obs.metrics.counter("goldencache.shared_hits").inc()
            return golden.reference
        if cache is not None:
            cached = cache.load(key)
            if cached is not None and self._adopt_golden(cached, key):
                if obs.metrics.enabled:
                    obs.metrics.counter("goldencache.hits").inc()
                return cached.reference
            if obs.metrics.enabled:
                obs.metrics.counter("goldencache.misses").inc()
        reference = self.make_reference_run()
        self._reference = reference
        if cache is not None and key is not None:
            from repro.core.goldencache import GoldenRun

            cache.store(
                GoldenRun(
                    config_hash=key,
                    target_name=campaign.target_name,
                    reference=reference,
                    checkpoints=self._checkpoints,
                )
            )
        return reference

    def _adopt_golden(self, golden, key: Optional[str]) -> bool:
        """Install a shared/cached golden run on this instance. Returns
        False (adopt nothing) when the golden run's config hash does not
        match this campaign's — a stale cache entry must never shortcut
        a different campaign."""
        campaign = self._require_campaign()
        if golden is None or key is None or golden.config_hash != key:
            return False
        if golden.target_name != campaign.target_name:
            return False
        self._reference = golden.reference
        self._checkpoints = golden.checkpoints
        self._install_oracles(golden.reference.trace)
        return True

    def run_single_experiment(
        self,
        index: int,
        plan: Optional[InjectionPlan] = None,
        reference: Optional[ReferenceRun] = None,
        use_memo: bool = True,
    ) -> ExperimentResult:
        """Plan and execute exactly one experiment of the bound campaign.

        This is the reentrant unit the campaign loop iterates and the
        parallel runner ships to worker processes: given the same campaign
        binding and reference run, experiment ``index`` produces the same
        result no matter which process runs it or in which order, because
        the injection plan is drawn from the index-keyed RNG substream and
        the target is reinitialised by the experiment procedure itself.

        That same determinism powers the outcome memo: two experiments of
        one campaign binding that would restore the same checkpoint (or
        both start cold) and inject the identical action list are the
        same computation, so the second replays the first's recorded
        outcome instead of executing. ``use_memo=False`` forces real
        execution (the equivalence verifier uses it — a verification that
        replays a memo would verify nothing).

        ``plan`` overrides the sampled plan (the re-run mechanism);
        ``reference`` defaults to the instance's retained reference run
        from :meth:`prepare_run`."""
        campaign = self._require_campaign()
        if reference is None:
            reference = self._reference
        if reference is None:
            raise CampaignError(
                "run_single_experiment needs a reference run; call "
                "prepare_run() first or pass reference="
            )
        if plan is None:
            plan = self.plan_experiment(index, reference)
        obs = get_observability()
        memo = self._memo_table() if use_memo else None
        key: Optional[str] = None
        if memo is not None:
            store, restore = self._checkpoints, self._restore_point(plan)
            key = memo_key(
                store.tick(restore).fingerprint
                if store is not None and restore is not None
                else None,
                plan,
            )
            entry = memo.lookup(key)
            if entry is not None:
                started = _time.perf_counter()
                result = self._new_result(index)
                entry.apply(result)
                result.injections = in_plan_order(result.injections, plan)
                result.wall_seconds = _time.perf_counter() - started
                if obs.metrics.enabled:
                    obs.metrics.counter("divergence.memo_hits").inc()
                obs.metrics.counter("experiments_total").inc()
                return result
        procedure = getattr(self, self.TECHNIQUE_EXPERIMENTS[campaign.technique])
        started = _time.perf_counter()
        with obs.profile(
            "experiment",
            campaign=campaign.campaign_name,
            index=index,
            technique=campaign.technique,
        ):
            result = procedure(index, plan)
        result.wall_seconds = _time.perf_counter() - started
        obs.metrics.counter("experiments_total").inc()
        if memo is not None and key is not None and result.termination is not None:
            memo.record(key, MemoEntry.from_result(result))
            if obs.metrics.enabled:
                obs.metrics.counter("divergence.memo_inserts").inc()
        return result

    def run_campaign(self, campaign, sink=None, control=None,
                     skip_indices=None):
        """Run ``campaign`` on this port, one experiment after another:
        the campaign loop of :mod:`repro.core.parallel` with a single
        in-process worker. Results land in ``sink`` (an in-memory list
        by default), which is returned; ``control`` receives the
        ``checkpoint``/``report`` hooks of the progress window.

        ``skip_indices`` supports resuming an interrupted campaign:
        experiments whose index is in the set are not re-run (their
        results are already in the sink); because every experiment draws
        its fault from an index-keyed RNG substream, the remaining
        experiments inject exactly what they would have in the original
        run."""
        from repro.core.parallel import ParallelConfig, _ParallelRun

        run = _ParallelRun(
            campaign, self, sink, control, ParallelConfig(), skip_indices
        )
        return run.execute()

    # ------------------------------------------------------------------
    # Fault-list preview (set-up phase aid)
    # ------------------------------------------------------------------

    def preview_fault_list(self, campaign: CampaignData, count: int = 10):
        """The first ``count`` experiments' planned faults, without
        injecting anything.

        Performs the reference run (plans are trigger- and
        liveness-dependent), then resolves each experiment's injection
        plan exactly as the campaign run would — the preview is
        guaranteed to match what ``run_campaign`` later injects, because
        both draw from the same index-keyed RNG substreams.
        """
        self.read_campaign_data(campaign)
        reference = self.make_reference_run()
        self._reference = reference
        previews = []
        for index in range(min(count, campaign.n_experiments)):
            plan = self.plan_experiment(index, reference)
            previews.append(
                {
                    "index": index,
                    "actions": [
                        {
                            "time": action.time,
                            "op": action.op,
                            "locations": [
                                location.key() for location in action.locations
                            ],
                        }
                        for action in plan.sorted_actions()
                    ],
                }
            )
        return previews

    # ------------------------------------------------------------------
    # Re-run with provenance (the parentExperiment mechanism of Figure 4)
    # ------------------------------------------------------------------

    def rerun_experiment(
        self,
        campaign: CampaignData,
        index: int,
        sink=None,
        logging_mode: str = "detail",
    ) -> ExperimentResult:
        """Re-run experiment ``index`` of ``campaign`` — typically in
        detail mode to analyse an interesting result — producing a new
        experiment whose ``parent_experiment`` names the original."""
        detail_campaign = campaign.modified(logging_mode=logging_mode)
        parent_name = self.experiment_name(campaign.campaign_name, index)
        sink = sink if sink is not None else _ListSink()
        reference = self.prepare_run(detail_campaign)
        sink.log_reference(detail_campaign, reference)
        # The original index's substream draws the same fault again.
        result = self.run_single_experiment(index)
        result.name = f"{parent_name}-rerun"
        result.parent_experiment = parent_name
        sink.log_experiment(detail_campaign, result)
        return result

    # ------------------------------------------------------------------
    # Shared plumbing
    # ------------------------------------------------------------------

    @staticmethod
    def experiment_name(campaign_name: str, index: int) -> str:
        return f"{campaign_name}-exp{index:05d}"

    def _require_campaign(self) -> CampaignData:
        if self.campaign is None:
            raise CampaignError("read_campaign_data() has not been called")
        return self.campaign

    def _new_result(self, index: int) -> ExperimentResult:
        campaign = self._require_campaign()
        return ExperimentResult(
            name=self.experiment_name(campaign.campaign_name, index),
            index=index,
            campaign_name=campaign.campaign_name,
        )

    def _apply_detail_mode(self) -> None:
        campaign = self._require_campaign()
        self.set_detail_logging(campaign.logging_mode == "detail")

    def _experiment_budget(self) -> int:
        campaign = self._require_campaign()
        if campaign.timeout_cycles is not None:
            return campaign.timeout_cycles
        reference = self._reference
        if reference is None:
            return _REFERENCE_BUDGET
        return int(reference.duration_cycles * campaign.timeout_factor) + 1

    def _finish(self, result: ExperimentResult, termination: Termination) -> None:
        campaign = self._require_campaign()
        result.termination = termination
        result.outputs = self.read_memory()
        result.state_vector = self.capture_state_vector()
        if campaign.logging_mode == "detail":
            result.detail_states = self.drain_detail_states()
            self.set_detail_logging(False)

    # ------------------------------------------------------------------
    # Divergence-window execution + outcome memoization
    # ------------------------------------------------------------------

    def _begin_divergence(self, plan: InjectionPlan) -> Optional[int]:
        """Arm divergence probing for one experiment, if it can pay off.

        Probing needs early-exit enabled, a checkpointed reference run
        (so summary logging: detail mode must observe every instruction
        of the real tail, and builds no store) with at least one golden
        tick strictly after the last injection action and strictly
        before the reference termination (otherwise there is no tail to
        skip), and a port that implements the tracking block. Returns
        the index of the first golden tick to probe, or None for "run
        the plain tail" — never an error."""
        store = self._checkpoints
        reference = self._reference
        actions = plan.sorted_actions()
        if not (self.early_exit and actions) or store is None or reference is None:
            return None
        start = store.first_after(actions[-1].time)
        if start is None:
            return None
        if store.tick(start).cycle >= reference.duration_cycles:
            return None
        try:
            self.start_divergence_tracking()
        except NotImplementedByPort:
            return None
        return start

    def _finish_tail(
        self,
        result: ExperimentResult,
        termination: Optional[Termination],
        probe_from: Optional[int],
    ) -> None:
        """Complete a stop-and-inject experiment after its injection
        loop: probe the divergence window from golden tick
        ``probe_from`` when armed (replaying the outcome of a state
        already seen), otherwise — or when probing stays inconclusive —
        run the plain tail to termination. The fingerprints the
        experiment missed on are recorded against the outcome it
        reached."""
        campaign = self._require_campaign()
        table: Optional[StateTable] = None
        probed: List[str] = []
        if termination is None and probe_from is not None:
            assert self._reference is not None
            table = self._state_table()
            window = run_window(self, probe_from, self._reference, table)
            probed = window.probed
            if window.replay is not None:
                window.replay.apply(result)
                self._record_states(table, probed, window.replay)
                return
            termination = window.termination
        if termination is None:
            termination = self.wait_for_termination(
                self._experiment_budget(), campaign.max_iterations
            )
        self._finish(result, termination)
        if table is not None and probed:
            self._record_states(
                table,
                probed,
                StateOutcome.of(
                    termination, result.outputs, result.state_vector
                ),
            )

    def _state_table(self) -> StateTable:
        """The campaign-scoped state table, seeded from the golden ticks
        of the bound campaign's checkpoint store on first use."""
        if self._states is None:
            assert self._reference is not None
            self._states = StateTable(self._reference, self._checkpoints)
        return self._states

    def _record_states(
        self, table: StateTable, probed: List[str], outcome: StateOutcome
    ) -> None:
        if not probed:
            return
        added = table.record(probed, outcome)
        obs = get_observability()
        if added and obs.metrics.enabled:
            obs.metrics.counter("divergence.state_entries").inc(added)

    def _memo_table(self) -> Optional[OutcomeMemo]:
        """The campaign-scoped outcome memo, or None when memoization
        does not apply (early exit off, or detail mode — a replayed
        outcome has no per-instruction states to drain)."""
        if not self.early_exit:
            return None
        campaign = self._require_campaign()
        if campaign.logging_mode == "detail":
            return None
        if self._memo is None:
            self._memo = OutcomeMemo()
        return self._memo

    # ------------------------------------------------------------------
    # Equivalence collapsing (preinjection_mode="equivalence")
    # ------------------------------------------------------------------

    def _collapse_enabled(self, campaign: CampaignData) -> bool:
        """May this campaign's experiments be collapsed?

        Detail mode is excluded: per-instruction state logs differ
        *inside* an unobserved def-use region (the flipped bit shows up
        in detail states before anything architectural reads it), so
        only terminal outcomes — not detail logs — are class-invariant.
        """
        return (
            self._equivalence is not None
            and campaign.technique in self.INJECT_BLOCKS
            and campaign.logging_mode != "detail"
        )

    def _record_partition_metrics(self, partition) -> None:
        stats = partition.stats()
        metrics = get_observability().metrics
        if metrics.enabled:
            metrics.counter("equivalence.classes").inc(stats.n_classes)
            metrics.counter("equivalence.executed").inc(stats.n_executed)
            metrics.counter("equivalence.collapsed").inc(stats.n_derived)

    def _derive_result(
        self,
        index: int,
        plan: InjectionPlan,
        rep_result: ExperimentResult,
    ) -> ExperimentResult:
        """Statically-derived outcome of a non-representative member.

        Everything observable at termination is copied from the executed
        representative — that is the equivalence theorem. The injection
        record keeps the *member's* own injection time (the flipped
        value is class-invariant: no write to the location happens
        between the two injection instants).
        """
        result = self._new_result(index)
        result.derived_from = rep_result.name
        times = [action.time for action in plan.sorted_actions()]
        for i, injection in enumerate(rep_result.injections):
            result.injections.append(
                Injection(
                    time=times[i] if i < len(times) else injection.time,
                    location=injection.location,
                    op=injection.op,
                    bit_before=injection.bit_before,
                    bit_after=injection.bit_after,
                )
            )
        assert rep_result.termination is not None
        result.termination = Termination.from_dict(
            rep_result.termination.to_dict()
        )
        result.outputs = dict(rep_result.outputs)
        result.state_vector = dict(rep_result.state_vector)
        result.wall_seconds = 0.0
        return result

    def _should_verify(self, index: int) -> bool:
        fraction = self.verify_equivalence
        if fraction <= 0.0:
            return False
        if fraction >= 1.0:
            return True
        campaign = self._require_campaign()
        # Index-keyed stream, disjoint from the planning substreams.
        return (
            random.Random(f"{campaign.seed}:verify:{index}").random()
            < fraction
        )

    def check_derived_outcome(
        self,
        index: int,
        actual: ExperimentResult,
        derived: ExperimentResult,
    ) -> None:
        """Compare a real execution against its static derivation and
        hard-fail the campaign on any divergence (the ``--verify-
        equivalence`` contract; also used by the parallel runner, which
        executes verify members on workers)."""
        mismatches = []
        if [i.to_dict() for i in actual.injections] != [
            i.to_dict() for i in derived.injections
        ]:
            mismatches.append("injections")
        actual_term = actual.termination.to_dict() if actual.termination else None
        derived_term = (
            derived.termination.to_dict() if derived.termination else None
        )
        if actual_term != derived_term:
            mismatches.append("termination")
        if actual.outputs != derived.outputs:
            mismatches.append("outputs")
        if actual.state_vector != derived.state_vector:
            mismatches.append("state_vector")
        if mismatches:
            raise CampaignError(
                f"equivalence verification failed for experiment {index} "
                f"(derived from {derived.derived_from}): "
                f"{', '.join(mismatches)} diverged — the static "
                "equivalence certificate is unsound for this class"
            )
        metrics = get_observability().metrics
        if metrics.enabled:
            metrics.counter("equivalence.verified").inc()
