"""Parallel campaign execution: shard experiments over worker processes.

The paper's fault-injection phase (Figure 7) is a serial loop of thousands
of experiments. With a simulated target the campaign is embarrassingly
parallel: every experiment reinitialises the target
(``init_test_card``) and draws its fault from an index-keyed RNG
substream, so experiment *i* produces the same result no matter which
process runs it or in which order. This module exploits that:

* each worker process builds its **own** Framework/simulator instance from
  a picklable factory (:func:`repro.core.framework.worker_factory`) and
  performs its own reference run — nothing mutable is shared;
* experiments are dispatched **by index** in shards; workers execute them
  through the reentrant
  :meth:`~repro.core.algorithms.FaultInjectionAlgorithms.run_single_experiment`
  building block, so parallel results are bit-identical to a serial run
  (asserted by a property test and canonicalised by
  :func:`canonical_experiment_rows`);
* a per-experiment **watchdog** with bounded retry handles hung or crashed
  workers; an experiment that exhausts its retries is logged with a
  ``worker-failure`` termination — never silently dropped;
* results stream back to the parent, which reorders them into index order
  and preserves the Figure-7 semantics: ordered progress snapshots,
  pause/resume/end, and resume-from-sink via ``completed_indices``;
* the parent lands results in the sink through the batched path
  (:meth:`repro.db.database.GoofiDatabase.log_experiments` — one
  ``executemany`` + one commit per batch, WAL mode for file databases);
* this is the only campaign loop: a serial campaign
  (:meth:`~repro.core.algorithms.FaultInjectionAlgorithms.run_campaign`)
  runs on it with one :class:`InProcessWorkerHandle` that executes each
  shard on the caller's own port.

Determinism contract: given the same campaign (name, seed, workload,
locations, fault model, trigger) and a deterministic port, the *set* of
logged experiment rows is byte-identical between serial and parallel runs
once the single nondeterministic field — per-experiment wall-clock time —
is canonicalised. The parent verifies each worker's reference-run
fingerprint against its own and refuses to proceed on mismatch.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing import connection as _mpc
from typing import Any, Container, Deque, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.algorithms import (
    FaultInjectionAlgorithms,
    StopCampaign,
    _ListSink,
    _NullControl,
)
from repro.core.campaign import CampaignData
from repro.core.controller import CampaignController
from repro.core.divergence import OutcomeMemo
from repro.core.experiment import ExperimentResult, Termination
from repro.observability import (
    Observability,
    ObservabilityConfig,
    configure_worker,
    current_config,
    get_observability,
)
from repro.observability.health import (
    NULL_HEALTH,
    CampaignHealthMonitor,
    set_health,
)
from repro.util.errors import CampaignError

__all__ = [
    "InProcessWorkerHandle",
    "LocalWorkerHandle",
    "ParallelConfig",
    "ParallelCampaignController",
    "WorkerHandle",
    "run_parallel_campaign",
    "canonical_experiment_rows",
]

#: Poll interval of the parent event loop (also the pause/stop latency).
_POLL_SECONDS = 0.05


@dataclass
class ParallelConfig:
    """Tuning knobs of the parallel campaign runner."""

    #: Worker processes to fan experiments out over.
    n_workers: int = max(1, os.cpu_count() or 1)
    #: Experiment indices dispatched to a worker per task message.
    shard_size: int = 8
    #: Watchdog: seconds a worker may spend on one experiment before it is
    #: presumed hung and killed. ``None`` disables the watchdog.
    timeout_seconds: Optional[float] = 120.0
    #: How often a failed (hung/crashed/raised) experiment is retried on a
    #: fresh worker before being logged as a ``worker-failure``.
    max_retries: int = 1
    #: Results accumulated before a batched sink flush.
    batch_size: int = 32
    #: multiprocessing start method; ``None`` picks ``fork`` when the
    #: platform offers it (cheap worker start) and ``spawn`` otherwise.
    start_method: Optional[str] = None
    #: Observability shipped to workers (sibling trace files, per-worker
    #: metric deltas). ``None`` inherits the process-global configuration
    #: (:func:`repro.observability.current_config`).
    observability: Optional[ObservabilityConfig] = None

    def validate(self) -> None:
        if self.n_workers < 1:
            raise CampaignError("ParallelConfig.n_workers must be >= 1")
        if self.shard_size < 1:
            raise CampaignError("ParallelConfig.shard_size must be >= 1")
        if self.batch_size < 1:
            raise CampaignError("ParallelConfig.batch_size must be >= 1")
        if self.max_retries < 0:
            raise CampaignError("ParallelConfig.max_retries must be >= 0")
        if self.timeout_seconds is not None and self.timeout_seconds <= 0:
            raise CampaignError(
                "ParallelConfig.timeout_seconds must be positive or None"
            )

    def context(self) -> Any:
        method = self.start_method
        if method is None:
            methods = multiprocessing.get_all_start_methods()
            method = "fork" if "fork" in methods else "spawn"
        return multiprocessing.get_context(method)


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------

def _reference_fingerprint(reference: Any) -> Tuple[int, int, str]:
    return (
        int(reference.duration_cycles),
        int(reference.duration_instructions),
        str(reference.termination.kind),
    )


def _run_experiment(
    port: FaultInjectionAlgorithms, index: int, verify: Container[int]
) -> ExperimentResult:
    """Run experiment ``index`` on ``port``. Members of ``verify``
    bypass the outcome memo: a replayed copy would verify nothing."""
    if index in verify:
        return port.run_single_experiment(index, use_memo=False)
    return port.run_single_experiment(index)


def _worker_main(
    conn: Any,
    factory: Any,
    campaign_json: str,
    worker_id: int = 0,
    obs_config: Optional[ObservabilityConfig] = None,
    golden: Any = None,
) -> None:
    """Worker process entry point.

    Builds an isolated port via ``factory``, binds the campaign, performs
    its own reference run (announced as a determinism fingerprint), then
    serves ``("run", [indices], memo_rows, [verify])`` task messages
    until ``("quit",)``; the ``verify`` indices run with the outcome
    memo bypassed (see :meth:`FaultInjectionAlgorithms.
    run_single_experiment`). The port's speed options come with the
    factory, the same ones the parent's port was built with.

    With observability enabled, the worker installs its *own* fresh
    instrumentation (a ``.workerN`` sibling trace file, an empty metrics
    registry — never the parent's inherited state) and ships a metrics
    *delta* — and any outcome-memo entries it recorded — alongside every
    shard's ``"done"`` message; the parent merges the deltas under a
    ``worker<N>.`` prefix so per-worker experiment counts stay
    attributable and sum to the campaign totals."""
    obs: Optional[Observability] = None
    if obs_config is not None and obs_config.enabled:
        obs = configure_worker(obs_config, worker_id)
    try:
        campaign = CampaignData.from_json(campaign_json)
        port = factory()
        reference = port.prepare_run(campaign, golden=golden)
        conn.send(("ready", _reference_fingerprint(reference)))
        while True:
            message = conn.recv()
            if message[0] == "quit":
                break
            assert message[0] == "run"
            _, indices, memo_rows, verify = message
            memo = port._memo_table()
            if memo is not None and memo_rows:
                memo.merge(memo_rows)
            for index in indices:
                try:
                    result = _run_experiment(port, index, verify)
                    conn.send(("result", index, result))
                except Exception as exc:  # reported upstream as an error
                    conn.send(
                        ("error", index, f"{type(exc).__name__}: {exc}")
                    )
            delta = (
                obs.metrics.drain()
                if obs is not None and obs.metrics.enabled
                else None
            )
            memo_delta = memo.drain_new() if memo is not None else []
            conn.send(("done", delta, memo_delta))
    except (EOFError, OSError, KeyboardInterrupt):  # parent went away
        pass
    except Exception as exc:  # init failure, reported upstream as fatal
        try:
            conn.send(("fatal", f"{type(exc).__name__}: {exc}"))
        except (OSError, ValueError):
            pass
    finally:
        if obs is not None:
            obs.close()
        try:
            conn.close()
        except OSError:
            pass


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------

class WorkerHandle:
    """Parent-side view of one fleet worker — the interface the event
    loop schedules shards against.

    The base class owns everything that is pure bookkeeping over a
    duplex message ``conn`` (dispatch, watchdog deadlines, shard
    tracking, quit requests); transports implement the three lifecycle
    hooks — :meth:`alive`, :meth:`join` and :meth:`_terminate` — plus a
    constructor that sets :attr:`conn`. :class:`LocalWorkerHandle`
    backs the handle with a forked/spawned process and a pipe;
    :class:`InProcessWorkerHandle` runs shards synchronously on the
    caller's own port (serial campaigns) — the event loop cannot tell
    the difference."""

    #: Duplex connection speaking the worker protocol (must support
    #: ``send``/``recv``/``poll``/``close`` and ``_mpc.wait``).
    conn: Any

    def __init__(self, worker_id: int = 0) -> None:
        self.worker_id = worker_id
        self.ready = False
        self.dead = False
        #: True from shard dispatch until the worker's "done" message —
        #: results alone do not make a worker idle, otherwise a stale
        #: "done" could race a fresh dispatch and disarm the watchdog.
        self.busy = False
        #: Indices of the current shard still awaiting a result; the
        #: leftmost entry is the experiment presumed in flight.
        self.shard: Deque[int] = deque()
        self.deadline: Optional[float] = None

    @property
    def idle(self) -> bool:
        return self.ready and not self.dead and not self.busy

    @staticmethod
    def wait(
        handles: List["WorkerHandle"], timeout: float
    ) -> List["WorkerHandle"]:
        """The handles with a message to receive, waiting up to
        ``timeout`` seconds for the first one."""
        ready = _mpc.wait([handle.conn for handle in handles], timeout)
        return [handle for handle in handles if handle.conn in ready]

    def dispatch(
        self,
        indices: Sequence[int],
        timeout: Optional[float],
        memo_rows: Optional[List[Dict[str, Any]]] = None,
        verify: Sequence[int] = (),
    ) -> None:
        """Send one shard; ``verify`` names its indices that must run
        with the outcome memo bypassed."""
        self.busy = True
        self.shard = deque(indices)
        self.conn.send(("run", list(indices), memo_rows or [], list(verify)))
        self.touch(timeout)

    def touch(self, timeout: Optional[float]) -> None:
        """Reset the watchdog deadline (on dispatch and on every result)."""
        self.deadline = (
            None if timeout is None else time.perf_counter() + timeout
        )

    def overdue(self) -> bool:
        return (
            bool(self.shard)
            and self.deadline is not None
            and time.perf_counter() > self.deadline
        )

    def kill(self) -> None:
        self.dead = True
        try:
            self.conn.close()
        except OSError:
            pass
        self._terminate()

    def request_quit(self) -> None:
        try:
            self.conn.send(("quit",))
        except (OSError, ValueError, BrokenPipeError):
            pass

    # -- transport hooks ---------------------------------------------------

    def alive(self) -> bool:
        """Is the underlying worker still there? (watchdog liveness)"""
        raise NotImplementedError

    def join(self, timeout: Optional[float] = None) -> None:
        """Wait for the worker to wind down after a quit request."""
        raise NotImplementedError

    def _terminate(self) -> None:
        """Forcibly stop the worker (called from :meth:`kill`)."""
        raise NotImplementedError


class LocalWorkerHandle(WorkerHandle):
    """A :class:`WorkerHandle` backed by a local worker process and a
    duplex pipe (the default transport)."""

    def __init__(
        self,
        context: Any,
        factory: Any,
        campaign_json: str,
        worker_id: int = 0,
        obs_config: Optional[ObservabilityConfig] = None,
        golden: Any = None,
    ):
        super().__init__(worker_id)
        parent_conn, child_conn = context.Pipe(duplex=True)
        self.conn = parent_conn
        self.process = context.Process(
            target=_worker_main,
            args=(
                child_conn,
                factory,
                campaign_json,
                worker_id,
                obs_config,
                golden,
            ),
            daemon=True,
        )
        self.process.start()
        child_conn.close()

    def alive(self) -> bool:
        return bool(self.process.is_alive())

    def join(self, timeout: Optional[float] = None) -> None:
        self.process.join(timeout=timeout)

    def _terminate(self) -> None:
        if self.process.is_alive():
            self.process.terminate()
        self.process.join(timeout=5.0)


class InProcessWorkerHandle(WorkerHandle):
    """A :class:`WorkerHandle` whose worker is the caller's own port:
    how serial campaigns run on the shared event loop.

    The handle is its own ``conn``. Each :meth:`recv` runs the shard's
    next experiment on the port and returns its result; an empty shard
    answers ``"done"``. Nothing is piped or pickled. The port is the
    parent's own, so there is no golden-run bundle, memo relay or
    fingerprint check, and there is no watchdog or retry: an exception
    raised by an experiment propagates out of the loop."""

    def __init__(self, port: FaultInjectionAlgorithms, worker_id: int = 0):
        super().__init__(worker_id)
        self.conn = self
        self.port = port
        self.ready = True
        self._verify: Set[int] = set()

    @staticmethod
    def wait(
        handles: List["WorkerHandle"], timeout: float
    ) -> List["WorkerHandle"]:
        # Never blocks: a busy handle makes its next message on receipt.
        return [handle for handle in handles if handle.busy]

    def send(self, message: Tuple) -> None:
        if message[0] == "run":
            self._verify = set(message[3])

    def recv(self) -> Tuple:
        if not self.shard:
            return ("done", None, [])
        index = self.shard[0]
        return ("result", index, _run_experiment(self.port, index, self._verify))

    def poll(self, timeout: float = 0.0) -> bool:
        # Nothing ever waits here: recv() runs the experiment it returns.
        return False

    def close(self) -> None:
        pass

    def touch(self, timeout: Optional[float]) -> None:
        pass  # no watchdog: the deadline stays None

    def alive(self) -> bool:
        return True

    def join(self, timeout: Optional[float] = None) -> None:
        pass

    def _terminate(self) -> None:
        pass


class _ParallelRun:
    """One campaign execution (the parent event loop) — the only
    campaign loop. Parallel and fabric runs drive it with worker
    processes built from ``factory``; serial runs pass no factory and
    drive it with one :class:`InProcessWorkerHandle` on ``port``."""

    def __init__(
        self,
        campaign: CampaignData,
        port: FaultInjectionAlgorithms,
        sink: Any,
        control: Any,
        config: ParallelConfig,
        skip_indices: Optional[Set[int]],
        factory: Any = None,
    ) -> None:
        self.campaign = campaign
        #: The parent's port: reference run, plan/derive/verify helpers
        #: and, for serial runs, every experiment.
        self.port = port
        self.factory = factory
        self.sink = sink if sink is not None else _ListSink()
        self.control = control if control is not None else _NullControl()
        self.config = config
        skip = frozenset(skip_indices or ())
        #: Index order in which results are reported and logged — the same
        #: order the serial loop would produce.
        self.order: List[int] = [
            i for i in range(campaign.n_experiments) if i not in skip
        ]
        #: Indices waiting for dispatch. With equivalence collapsing
        #: only class representatives are queued up front.
        self.queue: Deque[int] = deque(self.order)
        self.retry_queue: Deque[int] = deque()
        self.retries: Dict[int, int] = {}
        self.completed: Dict[int, ExperimentResult] = {}
        # -- equivalence collapsing (preinjection_mode="equivalence") --
        #: index -> InjectionPlan for every index in ``order``.
        self.plans: Optional[Dict[int, Any]] = None
        #: representative index -> the other members of its class,
        #: derived when the representative's result arrives.
        self.members: Dict[int, List[int]] = {}
        #: verify-sampled member -> its derivation, waiting for the
        #: member's real result (the member is queued behind its
        #: representative, so the derivation always exists first).
        self.pending: Dict[int, ExperimentResult] = {}
        self.reported = 0
        self.batch: List[ExperimentResult] = []
        self.workers: List[WorkerHandle] = []
        #: Builds the handle of a new worker id (chosen at run start).
        self._new_handle: Any = None
        self.fingerprint: Optional[Tuple[int, int, str]] = None
        self.campaign_json = ""
        #: Parent golden-run bundle shipped to worker processes.
        self.golden: Any = None
        #: Campaign-wide outcome memo relay: worker recordings merge in
        #: via "done" messages; :meth:`_memo_rows_for` forwards the
        #: global insertion order to each worker through a per-worker
        #: cursor, so every worker eventually sees every entry exactly
        #: once. None when early exit is off, and for
        #: serial runs (their port keeps its own memo).
        self.memo: Optional[OutcomeMemo] = None
        #: worker_id -> how far into the memo's insertion order that
        #: worker has been forwarded.
        self._memo_cursors: Dict[int, int] = {}
        self.failures = 0
        self.obs = get_observability()
        self.obs_config = (
            config.observability
            if config.observability is not None
            else current_config()
        )
        self._next_worker_id = 0
        #: Shards sent to each worker by id while the first workers are
        #: starting; None once each of them is ready or dead. Workers
        #: start together, but the first one ready would otherwise take
        #: every shard of a short campaign of fast experiments before the
        #: next one has finished starting, so until then a ready worker
        #: takes at most ``_fair_shards``. Replacements spawned later
        #: never hold the pool back.
        self._start_sent: Optional[Dict[int, int]] = None
        self._fair_shards = 0
        # Health monitoring: reuse the controller's monitor when running
        # under a CampaignController (it already called begin()); as a
        # bare run with observability on, install a fresh one so the
        # exporter's /healthz still has live state.
        health = getattr(self.control, "health", None)
        #: True when this run created the monitor itself (bare
        #: run_parallel_campaign); the run then also feeds results into
        #: it — under a controller, ``control.report`` already does.
        self._owns_health = False
        if isinstance(health, CampaignHealthMonitor) and health.enabled:
            self.health = health
        elif self.obs.enabled:
            self.health = CampaignHealthMonitor()
            self.health.begin(
                campaign.campaign_name,
                len(self.order),
                n_workers=config.n_workers,
            )
            set_health(self.health)
            self._owns_health = True
        else:
            self.health = NULL_HEALTH

    # -- lifecycle ---------------------------------------------------------

    def execute(self) -> Any:
        with self.obs.profile(
            "campaign",
            campaign=self.campaign.campaign_name,
            technique=self.campaign.technique,
            n_experiments=self.campaign.n_experiments,
            mode="serial" if self.factory is None else "parallel",
        ):
            self._execute_inner()
        self.obs.flush()
        return self.sink

    def _execute_inner(self) -> None:
        reference = self.port.prepare_run(self.campaign)
        self.sink.log_reference(self.campaign, reference)
        self._prepare_equivalence(reference)
        if not self.order:
            return
        if self.factory is None:
            # Serial: the caller's own port runs every shard in-process.
            n_workers = 1
            self._new_handle = functools.partial(
                InProcessWorkerHandle, self.port
            )
        else:
            n_workers = min(self.config.n_workers, len(self.order))
            self._share_with_workers(reference)
        self._set_progress_workers(n_workers)
        # Flush the parent's trace buffer before forking: a child must
        # not inherit (and later flush) buffered parent records.
        self.obs.flush()
        try:
            self.workers = [self._spawn_worker() for _ in range(n_workers)]
            self._start_sent = {worker.worker_id: 0 for worker in self.workers}
            n_shards = -(-len(self.queue) // self.config.shard_size)
            self._fair_shards = -(-n_shards // n_workers)
            try:
                self._event_loop()
                self._await_worker_done()
            except StopCampaign:
                self._drain_after_stop()
        finally:
            self._flush_ordered(final=True)
            self._shutdown()

    def _share_with_workers(self, reference: Any) -> None:
        """Set up what worker processes share with the parent: the
        golden run, the campaign, the memo relay and the reference
        fingerprint every worker must report."""
        from repro.core.goldencache import GoldenRun, campaign_golden_key

        self.fingerprint = _reference_fingerprint(reference)
        # Bundle the parent's golden run (reference + checkpoint store)
        # once; every worker adopts it instead of redoing the reference
        # execution. Built after prepare_run so a disk-cache hit is
        # forwarded too.
        self.golden = GoldenRun(
            config_hash=campaign_golden_key(self.campaign),
            target_name=self.campaign.target_name,
            reference=reference,
            checkpoints=self.port._checkpoints,
        )
        # Serialise *after* prepare_run: campaign binding resolves
        # trigger addresses and iteration limits that workers must share.
        self.campaign_json = self.campaign.to_json()
        if self.port.early_exit:
            self.memo = OutcomeMemo()
        self._new_handle = self._local_handle

    def _prepare_equivalence(self, reference: Any) -> None:
        """Partition the fault list and queue only the class
        representatives.

        The parent plans every experiment (index-keyed substreams: the
        workers re-derive identical plans) and partitions the plans. The
        other members' results are derived in the parent when their
        representative's result arrives (:meth:`_accept_result`)."""
        port = self.port
        if not port._collapse_enabled(self.campaign):
            return
        plans = {
            index: port.plan_experiment(index, reference)
            for index in self.order
        }
        partition = port._equivalence.partition(plans)
        port._record_partition_metrics(partition)
        self.plans = plans
        for cls in partition.classes:
            if len(cls.members) > 1:
                self.members[cls.representative] = list(cls.members[1:])
        self.queue = deque(cls.representative for cls in partition.classes)

    def _accept_result(self, index: int, result: ExperimentResult) -> None:
        """Fold one result into ``completed``.

        A verify member's real result is checked against its waiting
        derivation, which is what gets logged. A representative's
        result derives the other members of its class; the
        verify-sampled ones go to the front of the queue to execute for
        real, their derivations waiting in :attr:`pending`."""
        derived = self.pending.pop(index, None)
        if derived is not None:
            self.port.check_derived_outcome(index, result, derived)
            result = derived
        self.completed[index] = result
        members = self.members.pop(index, None)
        if members is None:
            return
        assert self.plans is not None
        verify: List[int] = []
        for member in members:
            derived = self.port._derive_result(
                member, self.plans[member], result
            )
            if self.port._should_verify(member):
                self.pending[member] = derived
                verify.append(member)
            else:
                self.completed[member] = derived
        self.queue.extendleft(reversed(verify))

    def _spawn_worker(self) -> WorkerHandle:
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        self.obs.tracer.event("worker-spawn", worker=worker_id)
        return self._new_handle(worker_id)

    def _local_handle(self, worker_id: int) -> LocalWorkerHandle:
        return LocalWorkerHandle(
            self.config.context(),
            self.factory,
            self.campaign_json,
            worker_id=worker_id,
            obs_config=self.obs_config,
            golden=self.golden,
        )

    # -- event loop --------------------------------------------------------

    def _event_loop(self) -> None:
        while self.reported < len(self.order):
            self._wait_while_paused()
            self._dispatch_ready()
            self._pump_messages()
            self._check_watchdog()
            self._replace_dead_workers()
            self._flush_ordered()
            if self.health.enabled:
                # The event loop keeps spinning even while every worker
                # is wedged, so stall alerts fire from here long before
                # the watchdog's (much larger) per-experiment timeout.
                self.health.check()

    def _await_worker_done(self, timeout: float = 2.0) -> None:
        """After the last result arrived, give still-busy workers a brief
        window to deliver their trailing ``"done"`` message — it carries
        the final per-worker metrics delta (skipped when metrics are off:
        the deltas would be empty)."""
        if not self.obs.metrics.enabled:
            return
        deadline = time.perf_counter() + timeout
        while (
            any(w.busy and not w.dead for w in self.workers)
            and time.perf_counter() < deadline
        ):
            self._pump_messages()

    def _wait_while_paused(self) -> None:
        """Cooperative pause: stop dispatching and reporting, but keep
        draining worker pipes so in-flight shards cannot back up. Only
        messages already sent are received, so an in-process worker
        runs nothing while paused. Pause time is credited back to the
        controller so it never pollutes the throughput figure."""
        if not bool(getattr(self.control, "paused", False)):
            self._checkpoint()
            return
        pause_started = time.perf_counter()
        try:
            while bool(getattr(self.control, "paused", False)):
                for worker in self.workers:
                    if not worker.dead and worker.conn.poll(0):
                        self._receive(worker)
                time.sleep(_POLL_SECONDS)
        finally:
            add_pause = getattr(self.control, "add_pause_time", None)
            if callable(add_pause):
                add_pause(time.perf_counter() - pause_started)
        self._checkpoint()

    def _checkpoint(self) -> None:
        next_index = (
            self.order[self.reported]
            if self.reported < len(self.order)
            else self.campaign.n_experiments
        )
        self.control.checkpoint(next_index)

    def _dispatch_ready(self) -> None:
        sent = self._start_sent
        if sent is not None and not any(
            worker.worker_id in sent and not worker.ready and not worker.dead
            for worker in self.workers
        ):
            sent = self._start_sent = None
        for worker in self.workers:
            if not worker.idle:
                continue
            if sent is not None:
                if sent.get(worker.worker_id, 0) >= self._fair_shards:
                    continue
                sent[worker.worker_id] = sent.get(worker.worker_id, 0) + 1
            shard = self._next_shard()
            if not shard:
                return
            worker.dispatch(
                shard,
                self.config.timeout_seconds,
                memo_rows=self._memo_rows_for(worker),
                verify=[i for i in shard if i in self.pending],
            )

    def _memo_rows_for(
        self, worker: WorkerHandle
    ) -> Optional[List[Dict[str, Any]]]:
        """Memo entries this worker has not been forwarded yet (its
        cursor over the parent table's global insertion order)."""
        if self.memo is None:
            return None
        cursor = self._memo_cursors.get(worker.worker_id, 0)
        rows, advanced = self.memo.rows_since(cursor)
        self._memo_cursors[worker.worker_id] = advanced
        return rows

    def _next_shard(self) -> List[int]:
        shard: List[int] = []
        while len(shard) < self.config.shard_size:
            if self.retry_queue:
                shard.append(self.retry_queue.popleft())
            elif self.queue:
                shard.append(self.queue.popleft())
            else:
                break
        return shard

    def _pump_messages(self) -> None:
        live = [worker for worker in self.workers if not worker.dead]
        if not live:
            time.sleep(_POLL_SECONDS)
            return
        # A run's handles share one transport, hence one wait.
        for worker in live[0].wait(live, _POLL_SECONDS):
            self._receive(worker)

    def _receive(self, worker: WorkerHandle) -> None:
        try:
            message = worker.conn.recv()
        except (EOFError, OSError):
            self._handle_worker_death(worker, "worker process crashed")
            return
        self._handle_message(worker, message)

    def _handle_message(self, worker: WorkerHandle, message: Tuple) -> None:
        kind = message[0]
        if self.health.enabled:
            # Any message is a sign of life, not just results — a worker
            # grinding through a slow shard still refreshes its heartbeat.
            self.health.heartbeat(worker.worker_id)
        if kind == "ready":
            worker.ready = True
            if message[1] != self.fingerprint:
                raise CampaignError(
                    "worker reference run diverged from the parent's "
                    f"({message[1]} != {self.fingerprint}); the port is not "
                    "deterministic — parallel execution would corrupt results"
                )
        elif kind == "result":
            index, result = message[1], message[2]
            self._discard_from_shard(worker, index)
            worker.touch(self.config.timeout_seconds)
            self._accept_result(index, result)
        elif kind == "error":
            index, reason = message[1], message[2]
            self._discard_from_shard(worker, index)
            worker.touch(self.config.timeout_seconds)
            self._record_failure(index, reason)
        elif kind == "done":
            worker.busy = False
            worker.shard.clear()
            worker.deadline = None
            delta = message[1] if len(message) > 1 else None
            memo_delta = message[2] if len(message) > 2 else None
            if self.memo is not None and memo_delta:
                self.memo.merge(memo_delta)
            if delta:
                # Per-worker metric shipping: the delta merges under a
                # worker-scoped prefix, so the per-worker experiment
                # counts remain attributable (and sum to the totals).
                self.obs.metrics.merge(
                    delta, prefix=f"worker{worker.worker_id}."
                )
        elif kind == "fatal":
            raise CampaignError(f"parallel worker failed to start: {message[1]}")

    @staticmethod
    def _discard_from_shard(worker: WorkerHandle, index: int) -> None:
        try:
            worker.shard.remove(index)
        except ValueError:
            pass

    # -- failure handling --------------------------------------------------

    def _check_watchdog(self) -> None:
        for worker in self.workers:
            if worker.dead:
                continue
            if worker.overdue():
                timeout = self.config.timeout_seconds or 0.0
                self.obs.metrics.counter("parallel.watchdog_total").inc()
                self._handle_worker_death(
                    worker, f"watchdog: experiment exceeded {timeout:.1f}s"
                )
            elif not worker.alive():
                self._handle_worker_death(worker, "worker process crashed")

    def _replace_dead_workers(self) -> None:
        """Respawn replacements for killed workers while undispatched work
        remains (a stopped pool with a non-empty queue would deadlock)."""
        work_remains = bool(self.queue or self.retry_queue)
        for position, worker in enumerate(self.workers):
            if worker.dead and work_remains:
                self.workers[position] = self._respawn()

    def _handle_worker_death(self, worker: WorkerHandle, reason: str) -> None:
        self.obs.tracer.event(
            "worker-death", worker=worker.worker_id, reason=reason
        )
        if self.obs.flightrec.enabled:
            # Post-mortem from the parent's vantage point: the worker's
            # own SIGTERM dump (configure_worker) covers the child side,
            # this dump preserves the parent's recent event ring.
            self.obs.flightrec.dump(
                "worker-death",
                campaign=self.campaign.campaign_name,
                worker=worker.worker_id,
                detail=reason,
            )
        worker.kill()
        self._fail_worker_shard(worker, reason)

    def _fail_worker_shard(self, worker: WorkerHandle, reason: str) -> None:
        """The leftmost shard entry was in flight when the worker died —
        charge the failure to it; later entries were never started and are
        requeued without a retry penalty."""
        if worker.shard:
            in_flight = worker.shard.popleft()
            self._record_failure(in_flight, reason)
        while worker.shard:
            self.retry_queue.appendleft(worker.shard.pop())
        worker.deadline = None

    def _respawn(self) -> WorkerHandle:
        self.obs.metrics.counter("parallel.respawns_total").inc()
        return self._spawn_worker()

    def _record_failure(self, index: int, reason: str) -> None:
        attempts = self.retries.get(index, 0)
        if attempts < self.config.max_retries:
            self.retries[index] = attempts + 1
            self.retry_queue.append(index)
            self.obs.metrics.counter("parallel.retries_total").inc()
            return
        self.failures += 1
        self.obs.metrics.counter("parallel.worker_failures_total").inc()
        if self.obs.flightrec.enabled:
            self.obs.flightrec.dump(
                "worker-failure",
                campaign=self.campaign.campaign_name,
                index=index,
                detail=reason,
                attempts=attempts + 1,
            )
        self.completed[index] = self._failure_result(index, reason, attempts)
        # A failed verify member cannot be compared: its failure
        # placeholder is logged instead of its derivation. A failed
        # representative derives nothing: the other members of its
        # class run as ordinary experiments.
        self.pending.pop(index, None)
        self.queue.extend(self.members.pop(index, ()))

    def _failure_result(
        self, index: int, reason: str, attempts: int
    ) -> ExperimentResult:
        """A logged placeholder for an experiment no worker could finish:
        failed experiments surface in the database and the progress
        breakdown instead of being silently dropped."""
        return ExperimentResult(
            name=FaultInjectionAlgorithms.experiment_name(
                self.campaign.campaign_name, index
            ),
            index=index,
            campaign_name=self.campaign.campaign_name,
            termination=Termination(
                kind="worker-failure",
                trap_detail=f"{reason} (after {attempts + 1} attempt(s))",
            ),
        )

    # -- ordered reporting and batched sink flushes ------------------------

    def _flush_ordered(self, final: bool = False) -> None:
        while (
            self.reported < len(self.order)
            and self.order[self.reported] in self.completed
        ):
            index = self.order[self.reported]
            result = self.completed.pop(index)
            self.batch.append(result)
            if len(self.batch) >= self.config.batch_size:
                self._flush_batch()
            self.reported += 1
            self.control.report(index, result)
            if self._owns_health:
                # Bare-run path: no controller feeds the monitor, so the
                # run does (controller.report covers the other path).
                termination = result.termination
                self.health.record_result(
                    termination.kind if termination is not None else None
                )
        if final:
            # A stop may leave non-contiguous completed results (later
            # indices finished while an earlier one was still running);
            # log them too so a resume can skip them.
            for index in sorted(self.completed):
                result = self.completed.pop(index)
                self.batch.append(result)
                self.reported += 1
                self.control.report(index, result)
            self._flush_batch()

    def _flush_batch(self) -> None:
        if not self.batch:
            return
        log_many = getattr(self.sink, "log_experiments", None)
        if callable(log_many):
            log_many(self.campaign, self.batch)
        else:
            for result in self.batch:
                self.sink.log_experiment(self.campaign, result)
        self.batch = []

    # -- teardown ----------------------------------------------------------

    def _drain_after_stop(self) -> None:
        """Best-effort pickup of results already in the pipes when the End
        button stopped the campaign (matches the serial guarantee that
        every completed experiment is logged)."""
        for worker in self.workers:
            while True:
                try:
                    if not worker.conn.poll(0):
                        break
                    message = worker.conn.recv()
                except (EOFError, OSError):
                    break
                if message[0] in ("result", "error", "done"):
                    if message[0] == "result":
                        self._accept_result(message[1], message[2])
                    self._discard_from_shard(
                        worker, message[1] if len(message) > 1 else -1
                    )
                else:  # pragma: no cover - ready/fatal during stop
                    break

    def _shutdown(self) -> None:
        for worker in self.workers:
            worker.request_quit()
        for worker in self.workers:
            worker.join(timeout=1.0)
            if worker.alive():
                worker.kill()
            else:
                try:
                    worker.conn.close()
                except OSError:
                    pass

    def _set_progress_workers(self, n_workers: int) -> None:
        progress = getattr(self.control, "progress", None)
        if progress is not None and hasattr(progress, "n_workers"):
            progress.n_workers = n_workers
        if self.health.enabled:
            self.health.set_workers(n_workers)


def run_parallel_campaign(
    campaign: CampaignData,
    factory: Any,
    sink: Any = None,
    control: Any = None,
    config: Optional[ParallelConfig] = None,
    skip_indices: Optional[Set[int]] = None,
) -> Any:
    """Run ``campaign`` sharded over a worker-process pool.

    Drop-in counterpart of
    :meth:`~repro.core.algorithms.FaultInjectionAlgorithms.run_campaign`:
    same sink protocol, same control hooks (``checkpoint`` / ``report``),
    same ``skip_indices`` resume contract, same return value. ``factory``
    must be a picklable zero-argument callable building a fresh port —
    use :func:`repro.core.framework.worker_factory`, which also carries
    the port's speed options. The parent builds one port from it too
    (reference run, planning, derivation), so the parent and every
    worker run with the same options."""
    config = config if config is not None else ParallelConfig()
    config.validate()
    port = factory()
    if not isinstance(port, FaultInjectionAlgorithms):
        raise CampaignError(
            "worker factory must build a FaultInjectionAlgorithms port"
        )
    run = _ParallelRun(
        campaign, port, sink, control, config, skip_indices, factory
    )
    return run.execute()


class ParallelCampaignController(CampaignController):
    """A :class:`~repro.core.controller.CampaignController` whose
    experiment loop runs on a multiprocessing pool.

    Inherits every Figure-7 affordance — progress listeners,
    pause/resume/end, resume-from-sink with counter rebuild, the
    ``"failed"`` state — and swaps only the executor. The progress
    window renders it unchanged."""

    def __init__(
        self,
        factory: Any,
        sink: Any = None,
        config: Optional[ParallelConfig] = None,
    ) -> None:
        super().__init__(algorithm=None, sink=sink)
        self.factory = factory
        self.config = config if config is not None else ParallelConfig()

    def _planned_workers(self) -> int:
        """The worker count the health monitor and RunMeta row start
        with (trimmed later if fewer experiments than workers)."""
        return self.config.n_workers

    def _execute(self, campaign: CampaignData, skip_indices: Any) -> Any:
        return run_parallel_campaign(
            campaign,
            self.factory,
            sink=self.sink,
            control=self,
            config=self.config,
            skip_indices=skip_indices,
        )


# ---------------------------------------------------------------------------
# Determinism canonicalisation
# ---------------------------------------------------------------------------

def canonical_experiment_rows(
    db: Any, campaign_name: str
) -> List[Tuple[str, bytes, bytes]]:
    """Byte-exact canonical form of a campaign's ``LoggedSystemState``
    experiment rows, for serial-vs-parallel comparison.

    The only legitimately nondeterministic field — per-experiment
    wall-clock time — is zeroed; everything else (injections, termination,
    outputs, state vector blob) must match bit for bit between a serial
    and a parallel run of the same campaign."""
    import json

    rows = db.query(
        "SELECT experimentName, experimentData, stateVector "
        "FROM LoggedSystemState "
        "WHERE campaignName = ? AND isReference = 0 "
        "ORDER BY experimentName",
        (campaign_name,),
    )
    canonical: List[Tuple[str, bytes, bytes]] = []
    for row in rows:
        data = json.loads(row["experimentData"])
        data["wall_seconds"] = 0.0
        canonical.append(
            (
                row["experimentName"],
                json.dumps(data, sort_keys=True).encode("utf-8"),
                bytes(row["stateVector"]),
            )
        )
    return canonical
