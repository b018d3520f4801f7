"""GOOFI campaign benchmark: end-to-end metrics and a per-layer ledger.

    python3 perfbench/run.py --workload NAME --seed N --seconds S
        --trace 0|1 [--out RESULT.json]

Run from the root of a source checkout. Each measured run of a campaign
starts a fresh interpreter (``perfbench/child.py``) with a fresh
file-backed database and no on-disk golden cache, as a user's
``goofi run`` does; runs repeat until ``--seconds`` have passed, and
each end-to-end metric reports the median of the runs. Every measured
run calibrates the host's speed between its experiments
(``calibrate.py``), and its times, CPU time and throughput are scaled to
a host of nominal speed, so that the figures follow the code rather than
the load that other machines put on shared cores. Before timing, one
serial run of the workload's reference campaign sets the rows every
measured run must reproduce. Metric names and units come from
``BENCHMARK.json``.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced runs and prints the per-layer ledger of the traced
ones. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it is the host fingerprint. ``--out`` also writes every run's measured
and normalised figures and host speed, the fingerprint and the exact
counters, for ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from calibrate import NOMINAL_STEPS_PER_S
from ledger import EXACT_COUNTERS
from workloads import WORKERS, WORKLOADS, campaign_document

HERE = os.path.dirname(os.path.abspath(__file__))


#: End-to-end metric -> the power of the host-speed factor that brings
#: one run's figure to the nominal host: 1 for a time or a CPU time, -1
#: for a rate, 0 for memory, which the host's speed does not move.
#: ``ok_fraction`` is computed from the failed count instead.
SPEED_POWER = {
    "experiments_per_s": -1,
    "campaign_s": 1,
    "setup_s": 1,
    "cpu_ms_per_experiment": 1,
    "peak_rss_mb": 0,
}


def load_metrics(root: str) -> Tuple[Dict[str, str], Dict[str, str]]:
    """End-to-end and per-layer metrics of ``BENCHMARK.json``: name ->
    unit. Per-layer self times (``*_s`` of a span) plus
    ``ledger.unaccounted_s`` sum to ``ledger.traced_wall_s``."""
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    unknown = set(end_to_end) ^ (set(SPEED_POWER) | {"ok_fraction"})
    if unknown:
        raise KeyError(f"end-to-end metrics unknown to run.py or "
                       f"missing from BENCHMARK.json: {sorted(unknown)}")
    return end_to_end, per_layer


#: Fewest measured runs per invocation, whatever ``--seconds`` says
#: (per kind of run with ``--trace 1``).
MIN_RUNS = 3
#: A single campaign run that takes longer than this has hung (a normal
#: one takes a few seconds).
RUN_TIMEOUT = 30.0
#: No new run starts this long after ``--seconds`` have passed, even if
#: fewer than MIN_RUNS succeeded, so an invocation ends within 180 s.
GRACE_SECONDS = 60.0


class Failed(Exception):
    """A run that produced no result at all."""


def host_fingerprint() -> Dict[str, Any]:
    """What a wall-clock figure depends on besides the code."""
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count() or 1
    return {
        "nproc": usable,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_model": model,
    }


class Bench:
    """One invocation: a work directory, the gate and the measured runs."""

    def __init__(self, workload: str, seed: int, root: str) -> None:
        self.mode, self.rows_of = WORKLOADS[workload]
        self.root = root
        self.work = os.path.join(root, ".perfbench_work", str(os.getpid()))
        os.makedirs(self.work, exist_ok=True)
        self.seed = seed
        self._count = 0

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        parent = os.path.dirname(self.work)
        if os.path.isdir(parent) and not os.listdir(parent):
            os.rmdir(parent)

    def campaign_run(
        self, workload: str, mode: str, trace: bool, calibrate: bool
    ) -> Dict[str, Any]:
        """One campaign in a fresh interpreter; returns its result."""
        self._count += 1
        base = os.path.join(self.work, f"run{self._count}")
        spec = {
            "root": self.root,
            "mode": mode,
            "campaign": campaign_document(workload, self.seed),
            "workers": WORKERS,
            "db": base + ".db",
        }
        with open(base + ".spec.json", "w") as handle:
            json.dump(spec, handle)
        command = [
            sys.executable, os.path.join(HERE, "child.py"),
            "--spec", base + ".spec.json", "--out", base + ".out.json",
        ]
        if trace:
            command.append("--trace")
        if calibrate:
            command.append("--calibrate")
        spawn = time.monotonic()
        # A session of its own, so a hung run is killed with its workers.
        process = subprocess.Popen(
            command + ["--spawn", repr(spawn)], cwd=self.root,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            start_new_session=True,
        )
        try:
            _, stderr = process.communicate(timeout=RUN_TIMEOUT)
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, signal.SIGKILL)
            process.communicate()
            raise Failed(f"campaign run timed out after {RUN_TIMEOUT}s")
        if process.returncode != 0:
            tail = stderr.decode("utf-8", "replace")[-2000:]
            raise Failed(f"campaign run exited {process.returncode}:\n"
                         f"{tail}")
        with open(base + ".out.json") as handle:
            return json.load(handle)


def run_metrics(result: Dict[str, Any]) -> Dict[str, float]:
    """End-to-end figures of one measured run."""
    spawn = result["spawn"]
    phase = result["last_row_at"] - result["reference_at"]
    return {
        "experiments_per_s": result["committed"] / phase,
        "campaign_s": result["done"] - spawn,
        "setup_s": result["reference_at"] - spawn,
        "cpu_ms_per_experiment":
            result["cpu_s"] * 1e3 / result["n_experiments"],
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
    }


def normalise(raw: Dict[str, float], speed: float) -> Dict[str, float]:
    """End-to-end figures ``raw`` as they would read on a host of
    nominal speed, given the host's ``speed`` while they were taken."""
    factor = speed / NOMINAL_STEPS_PER_S
    return {name: value * factor ** SPEED_POWER[name]
            for name, value in raw.items()}


def layer_metrics(
    result: Dict[str, Any], mode: str, names: Dict[str, str]
) -> Dict[str, float]:
    """Per-layer figures ``names`` of one traced run: the ledger plus
    what the result records outside it (sink totals on every thread, the
    parallel phase, the job record's queue wait)."""
    out = {name: 0.0 for name in names}
    out.update({k: v for k, v in result["ledger"].items() if k in out})
    out["db.write_s"] = result["db_write_s"]
    out["db.write_calls"] = result["db_write_calls"]
    out["db.rows"] = result["db_rows"]
    out["db.bytes"] = result["db_bytes"]
    if mode == "fabric":
        phase = result["last_row_at"] - result["reference_at"]
        busy = result["row_wall_s"]
        out["parallel.worker_busy_s"] = busy
        out["parallel.utilisation"] = busy / (WORKERS * phase)
        out["parallel.overhead_s"] = WORKERS * phase - busy
        out["parallel.first_row_s"] = (
            result["first_row_at"] - result["reference_at"]
        )
        out["parallel.parent_cpu_s"] = result["self_cpu_s"]
        out["service.queue_wait_s"] = result["queue_wait_s"]
    return out


def check_rows(result: Dict[str, Any], gate: Dict[str, Any]) -> List[str]:
    """Why ``result`` fails the rows gate (empty when it passes)."""
    problems = []
    n = result["n_experiments"]
    if result["rows"] != n or result["committed"] != n:
        problems.append(f"{result['rows']} rows, {result['committed']} "
                        f"committed, {n} expected")
    if result["worker_failures"]:
        problems.append(f"{result['worker_failures']} worker failures")
    if result["digest"] != gate["digest"]:
        problems.append("row digest differs from the serial reference")
    if result["counts"] != gate["counts"]:
        problems.append(f"outcome counts {result['counts']} != "
                        f"{gate['counts']}")
    return problems


def measure(
    args: argparse.Namespace, root: str, per_layer: Dict[str, str]
) -> Dict[str, Any]:
    bench = Bench(args.workload, args.seed, root)
    try:
        # Outside the timed region: the serial reference campaign whose
        # rows every measured run must reproduce. It also warms the
        # bytecode cache, which users do not pay for on every run.
        gate = bench.campaign_run(bench.rows_of, "serial", False, False)
        size = campaign_document(args.workload, args.seed)["n_experiments"]
        runs: List[Dict[str, Any]] = []
        problems: List[str] = []
        attempted = failed = 0
        started = time.monotonic()
        while True:
            traced = [r for r in runs if r["traced"]]
            plain = [r for r in runs if not r["traced"]]
            enough = len(plain) >= MIN_RUNS and (
                not args.trace or len(traced) >= MIN_RUNS
            )
            elapsed = time.monotonic() - started
            if elapsed >= args.seconds and (
                enough or elapsed >= args.seconds + GRACE_SECONDS
            ):
                break
            trace = bool(args.trace) and len(traced) < len(plain)
            attempted += size
            try:
                result = bench.campaign_run(
                    args.workload, bench.mode, trace, not trace
                )
            except Failed as exc:
                failed += size
                problems.append(str(exc))
                runs.append({"traced": trace, "failed": True})
                continue
            bad = check_rows(result, gate)
            failed += size if bad else 0
            problems.extend(bad)
            entry = {"traced": trace, "failed": bool(bad)}
            if result["committed"]:
                entry["raw"] = run_metrics(result)
                if trace:
                    entry["layers"] = layer_metrics(
                        result, bench.mode, per_layer
                    )
                else:
                    entry["host_speed"] = result["host_speed"]
                    entry["e2e"] = normalise(
                        entry["raw"], result["host_speed"]
                    )
            runs.append(entry)
        return {"gate": gate, "runs": runs, "problems": problems,
                "attempted": attempted, "failed": failed}
    finally:
        bench.close()


def summarise(
    args: argparse.Namespace,
    data: Dict[str, Any],
    end_to_end: Dict[str, str],
    per_layer: Dict[str, str],
) -> Dict:
    # Runs that failed the rows gate still report their figures;
    # "correct" and "failed" say that they are not to be trusted.
    runs = [r for r in data["runs"] if "raw" in r]
    plain = [r["e2e"] for r in runs if not r["traced"]]
    traced = [r for r in runs if r["traced"]]
    problems = list(data["problems"])
    attempted, failed = data["attempted"], data["failed"]
    metrics: Dict[str, Dict[str, Any]] = {}
    if args.trace:
        layers = [r["layers"] for r in traced]
        if layers:
            for name, unit in per_layer.items():
                metrics[name] = {
                    "value": statistics.median(x[name] for x in layers),
                    "unit": unit,
                }
            counters = [{name: x[name] for name in EXACT_COUNTERS}
                        for x in layers]
            if any(c != counters[0] for c in counters):
                problems.append(f"exact counters differ between traced "
                                f"runs: {counters}")
            if min(x["ledger.unaccounted_s"] for x in layers) < 0:
                problems.append("ledger spans overlap: self times exceed "
                                "the traced wall-clock")
            # Each traced run follows an untraced one; pairing them
            # cancels most of the host's slow drift in speed.
            pairs = [
                (before["raw"]["campaign_s"], after["raw"]["campaign_s"])
                for before, after in zip(data["runs"], data["runs"][1:])
                if after["traced"] and not before["traced"]
                and not before["failed"] and not after["failed"]
            ]
            if pairs:
                metrics["ledger.trace_overhead_s"]["value"] = (
                    statistics.median(t - u for u, t in pairs)
                )
    elif plain:
        medians = {name: statistics.median(p[name] for p in plain)
                   for name in SPEED_POWER}
        medians["ok_fraction"] = 1.0 - failed / attempted
        for name, unit in end_to_end.items():
            metrics[name] = {"value": medians[name], "unit": unit}
    wanted = per_layer if args.trace else end_to_end
    if set(metrics) != set(wanted):
        problems.append("no successful measured run")
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "problems": problems,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full result here")
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: run from the root of a GOOFI source checkout "
              "(src/repro not found)", file=sys.stderr)
        return 2
    end_to_end, per_layer = load_metrics(root)
    try:
        data = measure(args, root, per_layer)
    except Failed as exc:
        print(f"perfbench: the reference campaign failed: {exc}",
              file=sys.stderr)
        return 1
    summary = summarise(args, data, end_to_end, per_layer)
    for problem in summary.pop("problems"):
        print(f"perfbench: {problem}", file=sys.stderr)
    fingerprint = host_fingerprint()
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "seconds": args.seconds, "trace": args.trace,
                       "host": fingerprint, "summary": summary,
                       "gate": data["gate"], "runs": data["runs"]},
                      handle, indent=1, sort_keys=True)
    print("host " + json.dumps(fingerprint, sort_keys=True))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
