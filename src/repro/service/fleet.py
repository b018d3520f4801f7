"""The worker fleet: a slot budget shared by every concurrently
running job, plus the per-job execution glue.

The fabric does not own a private pool implementation — each job's
shards are scheduled by :mod:`repro.core.parallel`, whose
:class:`~repro.core.parallel.WorkerHandle` interface is where local
worker processes (and, later, socket-attached remote workers) plug in.
What the fleet adds on top is the *cross-job* resource arithmetic: a
fixed budget of worker slots that concurrent jobs draw allocations
from, so an oversubscribed box degrades to queueing instead of fork
bombs.

Allocation policy: a job asking for ``n`` workers is granted
``min(n, free)`` — a nearly-saturated fleet still starts the next job
with fewer workers rather than holding it hostage until ``n`` slots
free up at once (no starvation, no deadlock; the grant is never 0).
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, Optional

from repro.core.controller import CampaignController
from repro.core.parallel import ParallelCampaignController, ParallelConfig
from repro.service.schema import JobRecord, ServiceConfig
from repro.util.errors import ServiceError

__all__ = ["WorkerFleet", "execute_job"]


class WorkerFleet:
    """Thread-safe worker-slot accounting across concurrent jobs."""

    def __init__(self, total_workers: int) -> None:
        if total_workers < 1:
            raise ServiceError("fleet needs at least one worker slot")
        self.total = total_workers
        self._free = total_workers
        self._lock = threading.Lock()

    @property
    def free(self) -> int:
        with self._lock:
            return self._free

    def try_acquire(self, requested: int) -> int:
        """Grant up to ``requested`` worker slots; 0 when none are free
        (the scheduler then leaves the job queued)."""
        if requested < 1:
            raise ServiceError("jobs must request at least one worker")
        with self._lock:
            granted = min(requested, self._free)
            self._free -= granted
            return granted

    def release(self, granted: int) -> None:
        with self._lock:
            self._free = min(self.total, self._free + granted)

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            return {
                "total_workers": self.total,
                "free_workers": self._free,
                "busy_workers": self.total - self._free,
            }


def _progress_summary(controller: CampaignController) -> Dict[str, Any]:
    """JSON-safe snapshot of a controller's live progress (the per-job
    progress/ETA block of ``GET /jobs/<id>``)."""
    from repro.observability.health import analysis_metrics

    progress = controller.progress
    summary = {
        "state": progress.state,
        "n_total": progress.n_total,
        "n_done": progress.n_done,
        "percent_done": progress.percent_done,
        "n_injected_faults": progress.n_injected_faults,
        "n_derived": progress.n_derived,
        "n_worker_failures": progress.n_worker_failures,
        "terminations": dict(progress.terminations),
        "detections": dict(progress.detections),
        "elapsed_seconds": progress.elapsed_seconds,
        "experiments_per_second": progress.experiments_per_second,
        "eta_seconds": progress.eta_seconds,
        "n_workers": progress.n_workers,
    }
    analysis = analysis_metrics()
    if analysis:
        summary["analysis"] = analysis
    return summary


def build_controller(
    record: JobRecord, granted: int, config: ServiceConfig, sink: Any
) -> ParallelCampaignController:
    """The campaign controller one fabric job executes under.

    Always the parallel controller (a grant of 1 is a one-worker pool):
    every job gets the same watchdog/retry/batched-sink machinery, and
    the fabric's byte-identity guarantee rides on the serial-vs-parallel
    determinism contract that machinery is property-tested for."""
    from repro.core.framework import worker_factory
    from repro.core.goldencache import GoldenRunCache

    campaign = record.spec.campaign
    golden_cache = None
    if config.golden_cache_dir is not None and record.spec.use_golden_cache:
        golden_cache = GoldenRunCache(config.golden_cache_dir)
    parallel = ParallelConfig(
        n_workers=granted,
        shard_size=config.shard_size,
        start_method=config.start_method,
    )
    controller = ParallelCampaignController(
        worker_factory(campaign.target_name, golden_cache=golden_cache),
        sink=sink,
        config=parallel,
    )
    # RunMeta rows of fabric runs carry the job id and tenant, so the
    # provenance chain reaches from an experiment row through RunMeta to
    # the submitting tenant.
    controller.run_tags = {
        "job_id": record.job_id,
        "tenant": record.spec.tenant,
    }
    return controller


def execute_job(
    record: JobRecord,
    granted: int,
    config: ServiceConfig,
    open_sink: Callable[[], Any],
    on_controller: Optional[Callable[[JobRecord, Any], None]] = None,
) -> Dict[str, Any]:
    """Run one job to a terminal state; returns its progress summary.

    Opens its own sink connection via ``open_sink`` (concurrent jobs
    must not share one sqlite connection), publishes the live controller
    through ``on_controller`` so the server can route pause/cancel to
    it, and leaves queue/fleet bookkeeping to the caller. Raises
    whatever the campaign raised after recording the error on the
    record."""
    record.started_at = time.time()
    record.allocated_workers = granted
    sink = open_sink()
    try:
        controller = build_controller(record, granted, config, sink)
        if on_controller is not None:
            on_controller(record, controller)
        controller.run(record.spec.campaign)
        record.run_id = controller.run_id
        summary = _progress_summary(controller)
        record.result = summary
        return summary
    finally:
        if on_controller is not None:
            on_controller(record, None)
        close = getattr(sink, "close", None)
        if callable(close):
            close()
