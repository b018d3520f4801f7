#!/usr/bin/env python3
"""Campaign-phase cProfile harness: where do the host cycles go?

Profiles one SCIFI campaign split into its three host-side phases —
reference run (golden trajectory + checkpoint capture), experiment loop
(inject / run / classify per experiment) and analysis (outcome
classification over the logged rows) — and writes the top-N functions
by cumulative time per phase as JSON. The phases do not overlap: the
experiment loop adopts the reference phase's golden run through a
temporary golden-run cache instead of repeating the reference run.
The CI benchmarks job runs this and uploads the JSON as an artifact,
so a perf regression caught by ``check_regression.py`` comes with the
profile that explains it.

Usage::

    python benchmarks/profile_hotspots.py                  # defaults
    python benchmarks/profile_hotspots.py --workload matmul \
        --experiments 40 --top 25 --output profile-hotspots.json

The output schema::

    {
      "_meta": {"workload": ..., "n_experiments": ..., "top": ...},
      "phases": {
        "<phase>": {
          "total_seconds": ...,
          "total_calls": ...,
          "hotspots": [
            {"function": "file.py:123(name)", "ncalls": ...,
             "tottime": ..., "cumtime": ...},
            ...
          ]
        }
      }
    }
"""

from __future__ import annotations

import argparse
import cProfile
import json
import pathlib
import pstats
import sys
import tempfile

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis import classify_campaign  # noqa: E402
from repro.core import CampaignData, create_target  # noqa: E402
from repro.core.goldencache import GoldenRunCache  # noqa: E402


def _campaign(args: argparse.Namespace) -> CampaignData:
    return CampaignData(
        campaign_name="profile-hotspots",
        target_name="thor-rd",
        technique=args.technique,
        workload_name=args.workload,
        location_patterns=[
            "scan:internal/cpu.regfile.*",
            "scan:internal/cpu.psr",
            "scan:internal/dcache.*",
        ],
        n_experiments=args.experiments,
        seed=args.seed,
    )


def _profile(callable_, *call_args):
    profiler = cProfile.Profile()
    profiler.enable()
    result = callable_(*call_args)
    profiler.disable()
    return result, profiler


def _top_functions(profiler: cProfile.Profile, top: int) -> dict:
    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative")
    rows = []
    for func, (cc, nc, tottime, cumtime, _callers) in sorted(
        stats.stats.items(), key=lambda item: item[1][3], reverse=True
    ):
        filename, line, name = func
        # Skip interpreter plumbing rows; keep repo + stdlib frames that
        # actually name a code location.
        label = f"{pathlib.Path(filename).name}:{line}({name})"
        rows.append(
            {
                "function": label,
                "ncalls": nc,
                "primitive_calls": cc,
                "tottime": round(tottime, 6),
                "cumtime": round(cumtime, 6),
            }
        )
        if len(rows) >= top:
            break
    return {
        "total_seconds": round(stats.total_tt, 6),
        "total_calls": stats.total_calls,
        "hotspots": rows,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Profile one campaign per phase; write JSON hotspots."
    )
    parser.add_argument("--workload", default="bubblesort")
    parser.add_argument("--technique", default="scifi")
    parser.add_argument("--experiments", type=int, default=24)
    parser.add_argument("--seed", type=int, default=101)
    parser.add_argument("--top", type=int, default=20)
    parser.add_argument(
        "--output",
        default=str(REPO_ROOT / "profile-hotspots.json"),
        help="output JSON path (default: profile-hotspots.json)",
    )
    args = parser.parse_args(argv)

    phases: dict = {}

    with tempfile.TemporaryDirectory(prefix="profile-hotspots-") as root:
        golden_cache = GoldenRunCache(root)

        # Phase 1: reference run (golden trajectory, checkpoint capture),
        # stored in a golden-run cache.
        reference_target = create_target("thor-rd", golden_cache=golden_cache)
        _, profiler = _profile(
            reference_target.prepare_run, _campaign(args)
        )
        phases["reference_run"] = _top_functions(profiler, args.top)

        # Phase 2: the experiment loop, end to end on a fresh target that
        # adopts phase 1's golden run from the cache, so this phase does
        # not repeat the reference run.
        campaign_target = create_target("thor-rd", golden_cache=golden_cache)
        sink, profiler = _profile(
            campaign_target.run_campaign, _campaign(args)
        )
        phases["experiments"] = _top_functions(profiler, args.top)
        if golden_cache.hits != 1:
            raise RuntimeError(
                "the experiments phase did not adopt the reference "
                f"phase's golden run ({golden_cache.hits} cache hits)"
            )

    # Phase 3: outcome classification over the logged rows.
    summary, profiler = _profile(
        classify_campaign, sink.results, sink.reference
    )
    phases["analysis"] = _top_functions(profiler, args.top)

    payload = {
        "_meta": {
            "workload": args.workload,
            "technique": args.technique,
            "n_experiments": args.experiments,
            "seed": args.seed,
            "top": args.top,
        },
        "phases": phases,
    }
    output = pathlib.Path(args.output)
    output.write_text(json.dumps(payload, indent=2) + "\n")

    print(f"profiled {args.experiments} {args.technique} experiments on "
          f"{args.workload!r} -> {output}")
    for phase, data in phases.items():
        head = data["hotspots"][0] if data["hotspots"] else None
        top_line = head["function"] if head else "-"
        print(
            f"  {phase:14s} {data['total_seconds']:7.3f} s, "
            f"{data['total_calls']:>9} calls, top: {top_line}"
        )
    print(
        f"classified outcomes: "
        f"{summary.total if hasattr(summary, 'total') else 'n/a'}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
