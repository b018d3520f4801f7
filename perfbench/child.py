"""One campaign run of the benchmark, in a fresh interpreter.

    python3 perfbench/child.py --spec SPEC.json --out RESULT.json
        --spawn T [--trace]

``SPEC.json`` names the mode (``serial`` or ``fabric``),
the CampaignData document, the worker count and a database path that
must not exist yet. ``T`` is the parent's ``time.monotonic()`` just
before it started this interpreter, so interpreter start-up and imports
count towards set-up, as they do for a user's ``goofi run``. The run
writes its commit timestamps, resource usage, row digest and outcome
counts to ``RESULT.json``; with ``--trace`` also the per-layer ledger.
"""

import time

_FIRST = time.monotonic()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

from calibrate import Interleaved  # noqa: E402
from ledger import Ledger, SinkProbe  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--spec", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spawn", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--calibrate", action="store_true")
    args = parser.parse_args()
    with open(args.spec) as handle:
        spec = json.load(handle)
    ledger = Ledger(args.trace)
    ledger.record("startup.interpreter", args.spawn, _FIRST)
    sys.path.insert(0, os.path.join(spec["root"], "src"))
    with ledger.span("startup.import"):
        from repro.analysis import classify_campaign
        from repro.core import CampaignData
        from repro.db import GoofiDatabase
        from repro.service.schema import canonical_rows_payload
    probe = SinkProbe(GoofiDatabase, ledger)
    calibration = None
    if args.calibrate:
        # On the class, so the fabric's forked workers calibrate too.
        from repro.core.algorithms import FaultInjectionAlgorithms

        calibration = Interleaved(spec["db"] + ".calibration")
        calibration.install(FaultInjectionAlgorithms, "run_single_experiment")
    campaign = CampaignData.from_dict(spec["campaign"])
    name = campaign.campaign_name
    measured = RUNNERS[spec["mode"]](spec, campaign, ledger)

    # Outside the timed region: the rows gate and outcome counts, read
    # back from the campaign database.
    with GoofiDatabase(spec["db"]) as db:
        rows = db.load_experiments(name)
        reference = db.load_reference(name)
        summary = classify_campaign(rows, reference)
        payload = measured.pop("rows_payload", None)
        if payload is None:
            payload = canonical_rows_payload(db, name)
    commits = probe.experiment_commits()
    result = {
        "spawn": args.spawn,
        "reference_at": probe.reference_at,
        "first_row_at": commits[0][0] if commits else None,
        "last_row_at": commits[-1][0] if commits else None,
        "n_experiments": campaign.n_experiments,
        "committed": sum(e[1] for e in commits),
        "rows": len(rows),
        "worker_failures": sum(
            1 for r in rows
            if r.termination is not None
            and r.termination.kind == "worker-failure"
        ),
        "digest": hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode("utf-8")
        ).hexdigest(),
        "counts": {o.name: c for o, c in summary.counts.items()},
        "row_wall_s": sum(r.wall_seconds for r in rows),
        "db_write_s": sum(e[2] for e in probe.events),
        "db_write_calls": len(probe.events),
        "db_rows": sum(e[1] for e in probe.events),
        "db_bytes": _file_bytes(spec["db"]),
        "host_speed": None,
        **measured,
    }
    if calibration:
        _leave_out(calibration.results(), result)
    if args.trace:
        result["ledger"] = ledger.summary(
            args.spawn, measured["done"], reference.duration_cycles
        )
    with open(args.out, "w") as handle:
        json.dump(result, handle)
    return 0


def run_serial(spec, campaign, ledger):
    from repro.core import CampaignController, create_target
    from repro.db import GoofiDatabase

    with ledger.span("startup.target"):
        target = create_target(campaign.target_name)
    ledger.instrument_port(target)
    with ledger.span("db.open"):
        db = GoofiDatabase(spec["db"])
    with db:
        controller = CampaignController(target, sink=db)
        with ledger.span("controller.run"):
            controller.run(campaign)
        return _classify(db, campaign, ledger)


def run_fabric(spec, campaign, ledger):
    from repro.service import FabricClient, FabricServer, JobSpec
    from repro.service.schema import ServiceConfig

    config = ServiceConfig(
        db_path=spec["db"], total_workers=spec["workers"], tenant_quota=0
    )
    with ledger.span("service.start"):
        server = FabricServer(config).start()
    try:
        client = FabricClient(server.url())
        for method in ("submit", "status", "wait", "results", "analysis"):
            setattr(client, method,
                    ledger.wrap(getattr(client, method), f"service.{method}"))
        record = client.submit(
            JobSpec(campaign=campaign, n_workers=spec["workers"],
                    use_golden_cache=False)
        )
        job_id = record["job_id"]
        # The client's default poll interval, as `goofi submit --wait`
        # uses: the poll latency a user waits through is part of the
        # time to a classified campaign.
        status = client.wait(job_id, timeout=25.0)
        if status["state"] != "finished":
            raise RuntimeError(f"fabric job ended {status['state']}: "
                               f"{status.get('error')}")
        client.analysis(job_id)
        measured = mark_done()
        measured["rows_payload"] = client.results(job_id)["rows"]
    finally:
        server.stop()
    measured["queue_wait_s"] = status["started_at"] - status["submitted_at"]
    return measured


def _classify(db, campaign, ledger):
    """Read the campaign back and classify it: the end of the timed
    region."""
    from repro.analysis import classify_campaign

    name = campaign.campaign_name
    with ledger.span("db.read"):
        rows = db.load_experiments(name)
        reference = db.load_reference(name)
    with ledger.span("analysis.classify"):
        classify_campaign(rows, reference)
    return mark_done()


def mark_done():
    """The end of the timed region: its time, and the CPU and peak
    memory of this process and its (already joined) workers so far."""
    done = time.monotonic()
    own = resource.getrusage(resource.RUSAGE_SELF)
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)
    return {
        "done": done,
        "self_cpu_s": own.ru_utime + own.ru_stime,
        "cpu_s": own.ru_utime + own.ru_stime
        + workers.ru_utime + workers.ru_stime,
        "peak_rss_kb": max(own.ru_maxrss, workers.ru_maxrss),
    }


def _leave_out(totals, result) -> None:
    """Take the calibration chunks out of the timed figures and record
    the host's speed. The processes that ran experiments did so side by
    side, each delayed by its own left-out time: the mean of those comes
    off the end of the experiment phase and of the campaign. Every chunk
    ran after the reference row's commit."""
    delay = sum(t[3] for t in totals) / len(totals)
    result["last_row_at"] -= delay
    result["done"] -= delay
    result["cpu_s"] -= sum(t[4] for t in totals)
    result["host_speed"] = sum(t[0] for t in totals) / sum(
        t[1] for t in totals
    )


def _file_bytes(path: str) -> int:
    return sum(
        os.path.getsize(p) for p in (path, path + "-wal")
        if os.path.exists(p)
    )


RUNNERS = {"serial": run_serial, "fabric": run_fabric}


if __name__ == "__main__":
    sys.exit(main())
