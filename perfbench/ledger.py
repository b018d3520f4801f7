"""Outside-in per-layer cost ledger of one campaign run.

The ledger wraps calls into the program's public functions from the
benchmark's side: the port building blocks on the target instance, the
``GoofiDatabase`` sink, ``classify_campaign`` and the ``FabricClient``
calls. No code under ``src/`` is changed or traced from inside. Each
span records its name, start, end and parent; spans stay in memory and
are summarised once the run is over.

A span's *self time* is its duration minus the durations of its direct
children. Every self time lands in exactly one ``*_s`` metric, so the
self-time metrics plus ``ledger.unaccounted_s`` sum to the traced
wall-clock (spawn of the interpreter to the classified campaign).

Only spans opened on the thread that created the ledger are recorded:
the fabric's job threads run concurrently with the client's wait, and
their time is already inside it.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional

clock = time.monotonic

#: Port building block -> span name. The span name's prefix is the
#: module the block belongs to (``thor`` simulates, ``scifi`` is the
#: port's scan/inject/prefix/observe plumbing, ``core.*`` the engine).
PORT_SPANS = {
    "run_workload": "thor",
    "wait_for_breakpoint": "thor",
    "wait_for_termination": "thor",
    "read_scan_chain": "scifi.scan",
    "write_scan_chain": "scifi.scan",
    "inject_fault": "scifi.inject",
    "inject_fault_preruntime": "scifi.inject",
    "init_test_card": "scifi.prefix",
    "load_workload": "scifi.prefix",
    "write_memory": "scifi.prefix",
    "read_memory": "scifi.observe",
    "capture_state_vector": "scifi.observe",
    "restore_checkpoint": "checkpoint.restore",
    "capture_checkpoint": "checkpoint.capture",
    "start_divergence_tracking": "divergence.track",
    "capture_core_digest": "divergence.core",
    "capture_state_digest": "divergence.full",
    "run_single_experiment": "algorithms.experiment",
    "plan_experiment": "algorithms.plan",
    "prepare_run": "algorithms.prepare",
}

#: Span name -> the self-time metric it is charged to.
SELF_METRICS = {
    "startup.interpreter": "startup.interpreter_s",
    "startup.import": "startup.import_s",
    "startup.target": "startup.target_s",
    "thor": "thor.simulate_s",
    "scifi.scan": "scifi.scan_s",
    "scifi.inject": "scifi.inject_s",
    "scifi.prefix": "scifi.prefix_s",
    "scifi.observe": "scifi.observe_s",
    "checkpoint.restore": "checkpoint.restore_s",
    "checkpoint.capture": "checkpoint.capture_s",
    "divergence.track": "divergence.digest_s",
    "divergence.core": "divergence.digest_s",
    "divergence.full": "divergence.digest_s",
    "algorithms.experiment": "algorithms.engine_s",
    "algorithms.plan": "algorithms.plan_s",
    "algorithms.prepare": "algorithms.prepare_s",
    "controller.run": "controller.loop_s",
    "db.open": "db.open_s",
    "db.write": "db.write_s",
    "db.read": "db.read_s",
    "analysis.classify": "analysis.classify_s",
    "service.start": "service.start_s",
    "service.submit": "service.client_s",
    "service.status": "service.client_s",
    "service.wait": "service.client_s",
    "service.analysis": "service.analysis_s",
}

#: Counters that depend only on the campaign, never on the host: a
#: traced run must reproduce them bit for bit.
EXACT_COUNTERS = (
    "thor.cycles",
    "scifi.scan_calls",
    "scifi.scan_bits",
    "checkpoint.restores",
    "checkpoint.cycles_skipped",
    "checkpoint.cold_falls",
    "divergence.core_digests",
    "divergence.full_digests",
    "divergence.early_exits",
    "divergence.cycles_skipped",
    "algorithms.memo_hits",
    "algorithms.reference_cycles",
    "db.rows",
    "db.write_calls",
)

def _zero() -> int:
    return 0


class Ledger:
    """Span recorder for one campaign run (a no-op when disabled).

    A span is a list ``[name, start, end, parent, before, after, ok]``:
    ``before``/``after`` are a counter read on entry and exit (simulated
    cycles, scan bits), ``ok`` is False when the call raised."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._thread = threading.get_ident()

    def record(self, name: str, start: float, end: float) -> None:
        """Add a finished top-level span measured elsewhere."""
        if self.enabled:
            self.spans.append([name, start, end, -1, 0, 0, True])

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        span = self._open(name, 0)
        try:
            yield
            span[6] = True
        finally:
            self._close(span, 0)

    def _open(self, name: str, before: int) -> list:
        stack = self._stack
        span = [name, clock(), 0.0, stack[-1] if stack else -1, before, 0,
                False]
        stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list, after: int) -> None:
        span[5] = after
        self._stack.pop()
        span[2] = clock()

    def wrap(
        self,
        fn: Callable[..., Any],
        name: str,
        counter: Callable[[], int] = _zero,
    ) -> Callable[..., Any]:
        """``fn`` timed as span ``name`` on the ledger's thread."""
        if not self.enabled:
            return fn
        owner = self._thread
        get_ident = threading.get_ident

        def traced(*args: Any, **kwargs: Any) -> Any:
            if get_ident() != owner:
                return fn(*args, **kwargs)
            span = self._open(name, counter())
            try:
                result = fn(*args, **kwargs)
                span[6] = True
                return result
            finally:
                self._close(span, counter())

        return traced

    def instrument_port(self, port: Any) -> None:
        """Time the building blocks of one Thor port instance. Thor
        spans count simulated cycles, scan spans shifted bits."""
        if not self.enabled:
            return
        card = port.card
        cpu = card.cpu

        def cycles() -> int:
            return cpu.cycles

        def scan_bits() -> int:
            return card.total_scan_cycles

        for method, name in PORT_SPANS.items():
            counter = _zero
            if name in ("thor", "checkpoint.restore", "divergence.full"):
                counter = cycles
            elif name == "scifi.scan":
                counter = scan_bits
            setattr(port, method, self.wrap(getattr(port, method), name,
                                            counter))

    def summary(
        self, wall_start: float, wall_end: float, reference_cycles: int
    ) -> Dict[str, float]:
        """Per-layer metrics of the spans that ended by ``wall_end``."""
        spans = [s for s in self.spans if s[2] <= wall_end]
        child_time = [0.0] * len(self.spans)
        children: Dict[int, List[list]] = {}
        for span in spans:
            parent = span[3]
            if parent >= 0:
                child_time[parent] += span[2] - span[1]
                children.setdefault(parent, []).append(span)
        out: Dict[str, float] = {m: 0.0 for m in SELF_METRICS.values()}
        counts: Dict[str, int] = {}
        self_total = 0.0
        for index, span in enumerate(self.spans):
            if span[2] > wall_end:
                continue
            self_time = span[2] - span[1] - child_time[index]
            out[SELF_METRICS[span[0]]] += self_time
            self_total += self_time
            counts[span[0]] = counts.get(span[0], 0) + 1
        wall = wall_end - wall_start
        out["ledger.traced_wall_s"] = wall
        out["ledger.unaccounted_s"] = wall - self_total
        out["ledger.unaccounted_share"] = (wall - self_total) / wall

        def total(name: str, pick: Callable[[list], float]) -> float:
            return sum(pick(s) for s in spans if s[0] == name)

        out["thor.cycles"] = total("thor", lambda s: s[5] - s[4])
        out["thor.ns_per_cycle"] = (
            out["thor.simulate_s"] / out["thor.cycles"] * 1e9
            if out["thor.cycles"] else 0.0
        )
        out["scifi.scan_calls"] = counts.get("scifi.scan", 0)
        out["scifi.scan_bits"] = total("scifi.scan", lambda s: s[5] - s[4])
        restores = [s for s in spans if s[0] == "checkpoint.restore"]
        out["checkpoint.restores"] = sum(1 for s in restores if s[6])
        out["checkpoint.cold_falls"] = sum(1 for s in restores if not s[6])
        out["checkpoint.cycles_skipped"] = sum(s[5] for s in restores if s[6])
        out["divergence.core_digests"] = counts.get("divergence.core", 0)
        out["divergence.full_digests"] = counts.get("divergence.full", 0)
        out["algorithms.reference_s"] = total(
            "algorithms.prepare", lambda s: s[2] - s[1]
        )
        out["algorithms.reference_cycles"] = reference_cycles

        experiment_ms: List[float] = []
        memo_hits = early_exits = probed = exit_skipped = 0
        for index, span in enumerate(self.spans):
            if span[0] != "algorithms.experiment" or span[2] > wall_end:
                continue
            experiment_ms.append((span[2] - span[1]) * 1e3)
            kids = [k[0] for k in children.get(index, [])]
            if all(k == "algorithms.plan" for k in kids):
                # Nothing was restored, reset or simulated: the outcome
                # memo replayed an earlier experiment.
                memo_hits += 1
                continue
            if "divergence.track" in kids:
                probed += 1
            if "divergence.full" in kids:
                last = len(kids) - 1 - kids[::-1].index("divergence.full")
                if "thor" not in kids[last:]:
                    # The last full digest matched a golden tick: the
                    # experiment ended there without simulating its tail.
                    early_exits += 1
                    digest = children[index][last]
                    exit_skipped += reference_cycles - digest[5]
        n = len(experiment_ms)
        out["algorithms.memo_hits"] = memo_hits
        out["algorithms.memo_hit_ratio"] = memo_hits / n if n else 0.0
        out["divergence.early_exits"] = early_exits
        out["divergence.early_exit_ratio"] = (
            early_exits / probed if probed else 0.0
        )
        out["divergence.cycles_skipped"] = exit_skipped
        out["algorithms.experiment_ms.p50"] = percentile(experiment_ms, 50)
        out["algorithms.experiment_ms.p95"] = percentile(experiment_ms, 95)
        out["service.polls"] = counts.get("service.status", 0)
        # The results call fetches rows for the rows gate after the
        # campaign is classified, so it lies outside the traced wall.
        out["service.results_s"] = sum(
            s[2] - s[1] for s in self.spans if s[0] == "service.results"
        )
        return out


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


class SinkProbe:
    """Commit times and row counts of every ``GoofiDatabase`` write.

    Installed on the class, so it also sees the sinks the fabric's job
    threads open. Each event is ``(end, rows, duration, experiment)``;
    the calls on the ledger's own thread also become ``db.write`` spans."""

    def __init__(self, database_class: Any, ledger: Ledger) -> None:
        self.events: List[tuple] = []
        self.reference_at: Optional[float] = None
        for method in ("log_reference", "log_experiment", "log_experiments"):
            setattr(database_class, method,
                    self._probe(getattr(database_class, method), method,
                                ledger))

    def _probe(self, fn: Callable[..., Any], method: str,
               ledger: Ledger) -> Callable[..., Any]:
        traced = ledger.wrap(fn, "db.write")
        events = self.events
        experiment = method != "log_reference"
        batched = method == "log_experiments"

        def probed(db: Any, campaign: Any, payload: Any) -> Any:
            started = clock()
            result = traced(db, campaign, payload)
            ended = clock()
            if not experiment:
                self.reference_at = ended
            rows = len(payload) if batched else 1
            events.append((ended, rows, ended - started, experiment))
            return result

        return probed

    def experiment_commits(self) -> List[tuple]:
        """Events of calls that committed at least one experiment row."""
        return [e for e in self.events if e[3] and e[1]]
