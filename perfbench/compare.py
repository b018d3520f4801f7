"""Compare two benchmark results written by ``run.py --out``.

    python3 perfbench/compare.py BASE.json NEW.json

Run from the checkout root: bounds and directions come from
``BENCHMARK.json``. Refuses (exit 2) to compare results whose host
fingerprints, workloads, seeds, run lengths or trace modes differ: a
wall-clock figure from another host or setting says nothing about the
code. Otherwise prints each metric's change against its bound and exits
1 when an end-to-end metric got worse by more than its bound, when an
exact work counter changed (the campaign did different work), when
either result failed its own rows gate, or when the two results' rows
differ. ``run.py`` checks rows only against a reference run of the same
code; this is the one place two commits' rows meet.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Dict

from ledger import EXACT_COUNTERS

SAME = ("workload", "seed", "seconds", "trace", "host")


def load(path: str) -> Dict:
    with open(path) as handle:
        return json.load(handle)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    for key in SAME:
        if base[key] != new[key]:
            print(f"compare: refusing: {key} differs "
                  f"({base[key]!r} vs {new[key]!r})", file=sys.stderr)
            return 2
    with open(os.path.join(os.getcwd(), "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    worse = 0
    for label, result in (("BASE", base), ("NEW", new)):
        summary = result["summary"]
        if not summary["correct"] or summary["failed"]:
            worse += 1
            print(f"{label} failed its rows gate: correct="
                  f"{summary['correct']}, {summary['failed']} of "
                  f"{summary['attempted']} experiments failed")
    for key in ("digest", "counts"):
        if base["gate"][key] != new["gate"][key]:
            worse += 1
            print(f"rows differ between BASE and NEW: gate {key} "
                  f"{base['gate'][key]!r} -> {new['gate'][key]!r}")
    for name, before in base["summary"]["metrics"].items():
        after = new["summary"]["metrics"][name]["value"]
        before = before["value"]
        change = (after - before) / before if before else 0.0
        line = f"{name:34s} {before:14.6g} -> {after:14.6g} {change:+8.2%}"
        metric = bounds.get(name)
        if metric is not None:
            loss = change if metric["better"] == "lower" else -change
            if loss > metric["bound"]:
                worse += 1
                line += f"  WORSE than bound {metric['bound']:.0%}"
        elif name in EXACT_COUNTERS and after != before:
            worse += 1
            line += "  exact counter changed"
        print(line)
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
