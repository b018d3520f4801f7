"""Divergence-window execution and outcome memoization.

A fault-injection experiment differs from the golden (reference) run
only inside its *divergence window*: the fault-free prefix is identical
by construction (PR 5's warm starts exploit that end), and once the
faulty run reaches a state whose future is already known, simulating
the rest just recomputes a known outcome. ZOFI (Porpodas, 2019) builds
its whole speedup on this observation; this module provides the
target-independent half of it for GOOFI's building-block algorithms:

* :class:`StateTable` — a per-campaign table from exact state
  fingerprints to outcomes. The golden checkpoint ticks seed it with the
  golden outcome; every experiment that runs to termination while
  probing adds the fingerprints it passed through, all pointing at one
  shared :class:`StateOutcome`. The fingerprint is total over everything
  future execution can read (registers, pipeline latches incl. force
  flags, caches, bus forcing, run counters incl. the cycle, cumulative
  dirty memory pages, environment simulator), so two runs that reach
  the same fingerprint have the same future: the same termination,
  outputs and state vector.

* :func:`run_window` — after the last injection action, run the faulty
  target forward to every golden tick and look its fingerprint up in
  the table. A hit ends the experiment with the recorded outcome and
  skips the tail; a miss just means "keep simulating", so false
  negatives cost speed, never correctness.

* :class:`OutcomeMemo` — a per-campaign memo table keyed by
  ``(restore checkpoint digest, canonical injection delta)``. Two
  experiments that restore the same checkpoint (or both start cold) and
  inject the identical action list are the *same* deterministic
  computation, so the second one's outcome can be replayed from the
  first's record byte-for-byte. The parallel runner ships newly recorded
  entries to the parent with each shard's ``"done"`` message and
  forwards the merged table to workers on dispatch — the same
  parent-side merge topology as the golden-run cache. State-table
  entries stay in the process that recorded them.

Both features are observable through the ``divergence.*`` metrics
family (``early_exits`` for hits that replay the golden outcome,
``state_hits`` for hits that replay another experiment's outcome,
``cycles_skipped``, ``memo_hits``, plus ``probes``,
``full_digests``, ``state_entries`` and ``memo_inserts`` for rate
diagnostics) and are disabled by ``goofi run --no-early-exit``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.core.checkpoint import state_digest
from repro.core.experiment import (
    ExperimentResult,
    Injection,
    ReferenceRun,
    Termination,
)
from repro.observability import get_observability
from repro.util.errors import NotImplementedByPort

__all__ = [
    "COLD_RESTORE_KEY",
    "MAX_STATE_ENTRIES",
    "MemoEntry",
    "OutcomeMemo",
    "StateOutcome",
    "StateTable",
    "WindowOutcome",
    "memo_key",
    "plan_delta",
    "run_window",
]

#: Restore-digest sentinel for experiments that start from reset rather
#: than from a checkpoint (cold path, SWIFI techniques, empty stores).
COLD_RESTORE_KEY = "cold"

#: Hard cap on faulty-state fingerprints one campaign binding records,
#: so a long campaign cannot grow the table without bound. Past the cap
#: lookups go on and recording stops; golden ticks never count.
MAX_STATE_ENTRIES = 1 << 16


# ---------------------------------------------------------------------------
# Memo keys
# ---------------------------------------------------------------------------

def plan_delta(plan: Any) -> List[Dict[str, Any]]:
    """Canonical form of an injection plan's action list — the
    "injection delta" half of the memo key. Locations are reduced to
    their stable string keys and actions kept in execution order, so two
    plans that inject the same bits at the same instants canonicalise
    identically no matter how they were sampled."""
    return [
        {
            "time": action.time,
            "op": action.op,
            "locations": sorted(
                location.key() for location in action.locations
            ),
        }
        for action in plan.sorted_actions()
    ]


def in_plan_order(injections: List[Injection], plan: Any) -> List[Injection]:
    """``injections`` reordered to ``plan``'s action and location order.

    The memo key sorts the locations inside an action, so a replayed
    entry may come from a plan that listed them in another order.
    Injections are logged per action in location order; this gives the
    list executing ``plan`` itself would log. Repeats of one location
    keep their recorded sequence."""
    recorded: Dict[str, Deque[Injection]] = {}
    for injection in injections:
        recorded.setdefault(injection.location.key(), deque()).append(
            injection
        )
    ordered = []
    for action in plan.sorted_actions():
        for location in action.locations:
            pending = recorded.get(location.key())
            if pending:
                ordered.append(pending.popleft())
    return ordered


def memo_key(restore_digest: Optional[str], plan: Any) -> str:
    """Memo-table key for one experiment: the fingerprint of the
    checkpoint its warm restore would load (:data:`COLD_RESTORE_KEY`
    when it starts from reset) combined with the canonical injection
    delta. Everything else an outcome depends on — workload, fault
    model, budgets — is fixed per campaign binding, and the memo table
    never outlives one binding."""
    return state_digest(
        {
            "restore": restore_digest or COLD_RESTORE_KEY,
            "actions": plan_delta(plan),
        }
    )


# ---------------------------------------------------------------------------
# Outcomes and the memo table
# ---------------------------------------------------------------------------

@dataclass
class StateOutcome:
    """The outcome every run from one state reaches: termination,
    outputs and state vector. One instance is shared by all fingerprints
    an experiment recorded; :meth:`apply` hands out fresh copies and
    leaves the experiment's own injections alone."""

    termination: Dict[str, Any]
    outputs: Dict[str, int]
    state_vector: Dict[str, int]

    @classmethod
    def of(
        cls,
        termination: Termination,
        outputs: Dict[str, int],
        state_vector: Dict[str, int],
    ) -> "StateOutcome":
        return cls(termination.to_dict(), dict(outputs), dict(state_vector))

    def apply(self, result: ExperimentResult) -> None:
        result.termination = Termination.from_dict(dict(self.termination))
        result.outputs = dict(self.outputs)
        result.state_vector = dict(self.state_vector)


@dataclass
class MemoEntry(StateOutcome):
    """Everything needed to replay a completed experiment's outcome onto
    a fresh :class:`ExperimentResult` byte-for-byte (modulo the
    legitimately nondeterministic wall-clock field): its outcome plus
    the injections it logged."""

    injections: List[Dict[str, Any]] = field(default_factory=list)

    @classmethod
    def from_result(cls, result: ExperimentResult) -> "MemoEntry":
        assert result.termination is not None
        return cls(
            termination=result.termination.to_dict(),
            outputs=dict(result.outputs),
            state_vector=dict(result.state_vector),
            injections=[inj.to_dict() for inj in result.injections],
        )

    def apply(self, result: ExperimentResult) -> None:
        """Fill ``result`` with this entry's outcome and injections
        (fresh copies — a memo entry is shared across experiments and
        processes)."""
        super().apply(result)
        result.injections = [
            Injection.from_dict(row) for row in self.injections
        ]

    def to_row(self) -> Dict[str, Any]:
        return {
            "termination": dict(self.termination),
            "outputs": dict(self.outputs),
            "state_vector": dict(self.state_vector),
            "injections": [dict(row) for row in self.injections],
        }

    @classmethod
    def from_row(cls, row: Dict[str, Any]) -> "MemoEntry":
        return cls(
            termination=dict(row["termination"]),
            outputs=dict(row["outputs"]),
            state_vector=dict(row["state_vector"]),
            injections=[dict(item) for item in row["injections"]],
        )


class OutcomeMemo:
    """Insertion-ordered memo table of experiment outcomes.

    Serial campaigns use only :meth:`lookup` / :meth:`record`. The
    parallel runner additionally moves entries between processes as
    plain ``{"key": ..., "entry": ...}`` rows: workers
    :meth:`drain_new` their own recordings into each shard's ``"done"``
    message, the parent :meth:`merge`\\ s them (merged rows are *not*
    re-drained, so entries never echo back and forth), and
    :meth:`rows_since` gives the parent a per-worker forwarding cursor
    over the global insertion order."""

    def __init__(self) -> None:
        self._entries: Dict[str, MemoEntry] = {}
        self._order: List[str] = []
        self._new: List[str] = []
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key: str) -> Optional[MemoEntry]:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
        else:
            self.hits += 1
        return entry

    def record(self, key: str, entry: MemoEntry) -> None:
        """Insert a locally computed outcome (marked for draining)."""
        if key in self._entries:
            return
        self._entries[key] = entry
        self._order.append(key)
        self._new.append(key)

    def merge(self, rows: List[Dict[str, Any]]) -> int:
        """Adopt rows recorded elsewhere (parent or sibling workers);
        returns how many were new. Merged rows do not mark as new."""
        added = 0
        for row in rows:
            key = row["key"]
            if key in self._entries:
                continue
            self._entries[key] = MemoEntry.from_row(row["entry"])
            self._order.append(key)
            added += 1
        return added

    def drain_new(self) -> List[Dict[str, Any]]:
        """Rows recorded locally since the previous drain."""
        fresh = self._new
        self._new = []
        return [
            {"key": key, "entry": self._entries[key].to_row()}
            for key in fresh
        ]

    def rows_since(self, cursor: int) -> Tuple[List[Dict[str, Any]], int]:
        """Rows appended after ``cursor`` plus the advanced cursor —
        the parent's dispatch-time forwarding window for one worker."""
        rows = [
            {"key": key, "entry": self._entries[key].to_row()}
            for key in self._order[cursor:]
        ]
        return rows, len(self._order)


# ---------------------------------------------------------------------------
# State-convergence table
# ---------------------------------------------------------------------------

class StateTable:
    """Exact state fingerprints -> the outcome runs from there reach.

    Built for one reference run and its checkpoint store: each golden
    tick before the reference termination maps to the golden outcome.
    :meth:`record` adds a finished experiment's probed fingerprints.
    A fingerprint covers the cycle counter, so a key names one state at
    one instant and the tick it was probed at needs no separate key."""

    def __init__(self, reference: ReferenceRun, store: Any) -> None:
        self.store = store
        self.golden = StateOutcome.of(
            reference.termination, reference.outputs, reference.state_vector
        )
        self._outcomes: Dict[str, StateOutcome] = {}
        for index in range(len(store)):
            tick = store.tick(index)
            if tick.cycle >= reference.duration_cycles:
                break
            self._outcomes[tick.fingerprint] = self.golden
        #: Faulty-state fingerprints recorded so far (golden excluded).
        self.recorded = 0

    def lookup(self, digest: str) -> Optional[StateOutcome]:
        return self._outcomes.get(digest)

    def record(self, digests: List[str], outcome: StateOutcome) -> int:
        """Map each of ``digests`` to ``outcome``; returns how many were
        new. Stops at :data:`MAX_STATE_ENTRIES`."""
        added = 0
        outcomes = self._outcomes
        for digest in digests:
            if self.recorded >= MAX_STATE_ENTRIES:
                break
            if digest not in outcomes:
                outcomes[digest] = outcome
                self.recorded += 1
                added += 1
        return added


# ---------------------------------------------------------------------------
# Divergence-window execution
# ---------------------------------------------------------------------------

@dataclass
class WindowOutcome:
    """What probing the divergence window established.

    * ``replay`` set — the faulty run's fingerprint at a probed tick was
      in the table; the caller applies that outcome and skips the tail;
    * ``termination`` set — the experiment really ended (trap, halt,
      timeout, iteration limit) while running toward a probe cycle; the
      caller finishes normally with it;
    * neither — every tick missed (or the port cannot digest); the
      caller runs the plain tail to termination.

    ``probed`` lists the fingerprints that missed, in probe order — the
    caller records them against the outcome the experiment reaches."""

    replay: Optional[StateOutcome] = None
    termination: Optional[Termination] = None
    probed: List[str] = field(default_factory=list)


def run_window(
    port: Any,
    plan: Any,
    reference: ReferenceRun,
    table: StateTable,
) -> WindowOutcome:
    """Probe the post-injection window against the state table.

    ``port`` is the bound algorithm instance: probing composes its
    ``wait_for_breakpoint`` building block (the same stop-at-cycle hop
    the injection loop uses — stop checks precede timeout checks, so
    splitting the tail into hops perturbs nothing) with the
    ``capture_state_digest`` block. Every golden tick strictly after the
    last injection action and strictly before the reference termination
    is probed; the first fingerprint found in ``table`` wins."""
    outcome = WindowOutcome()
    actions = plan.sorted_actions()
    if not actions:
        return outcome
    store = table.store
    start = store.first_after(actions[-1].time)
    if start is None:
        return outcome
    obs = get_observability()
    metrics = obs.metrics
    for index in range(start, len(store)):
        cycle = store.tick(index).cycle
        if cycle >= reference.duration_cycles:
            break
        termination = port.wait_for_breakpoint(cycle)
        if termination is not None:
            outcome.termination = termination
            return outcome
        try:
            digest = port.capture_state_digest()
        except NotImplementedByPort:
            return outcome
        if metrics.enabled:
            metrics.counter("divergence.probes").inc()
            metrics.counter("divergence.full_digests").inc()
        replay = table.lookup(digest)
        if replay is None:
            outcome.probed.append(digest)
            continue
        skipped = replay.termination["cycle"] - cycle
        golden = replay is table.golden
        if metrics.enabled:
            metrics.counter(
                "divergence.early_exits" if golden
                else "divergence.state_hits"
            ).inc()
            metrics.counter("divergence.cycles_skipped").inc(skipped)
        obs.tracer.event(
            "divergence-exit",
            cycle=cycle,
            cycles_skipped=skipped,
            replay="golden" if golden else "state",
        )
        outcome.replay = replay
        return outcome
    return outcome
