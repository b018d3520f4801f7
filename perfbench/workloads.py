"""The campaign benchmark's workloads, each a pure function of a seed.

The program under test receives only the generated ``CampaignData``
document (and, for the fabric workload, a worker count).
The seed selects the campaign's fault list (``CampaignData.seed``); the
workload programs and their input data stay fixed, so two seeds do the
same kind and amount of work and differ only in which faults they draw.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

#: The hot scratch registers of ``bubblesort``: flips there are mostly
#: overwritten within a checkpoint interval, so SCIFI experiments restore,
#: shift scan chains and exit early through the divergence probe.
HOT_REGISTERS = [
    "scan:internal/cpu.regfile.r5",
    "scan:internal/cpu.regfile.r7",
]

#: Worker processes of the fabric workload. Two, because the load must
#: come from one process with no more workers than cores.
WORKERS = 2

#: Experiments per campaign. The seed changes how much work a SCIFI
#: campaign does (where its flips land, how early they exit), by about
#: ±4% of simulated cycles at 200 experiments; 400 halve that variance.
#: A scifi-warm run then lasts about four seconds, a swifi-cold run two.
N_WARM = 400
N_COLD = 200

#: Workload name -> (mode, rows_of). ``mode`` is ``serial``
#: (CampaignController) or ``fabric`` (FabricServer and FabricClient in
#: one process; the job runs on a ParallelCampaignController).
#: ``rows_of`` names the workload whose serial rows this one must
#: reproduce exactly. Seeds and rationale are in BENCHMARK.json.
WORKLOADS: Dict[str, Tuple[str, str]] = {
    "scifi-warm": ("serial", "scifi-warm"),
    "swifi-cold": ("serial", "swifi-cold"),
    "scifi-fabric-2w": ("fabric", "scifi-warm"),
}


def campaign_document(name: str, seed: int) -> Dict[str, Any]:
    """The CampaignData dictionary workload ``name`` runs for ``seed``."""
    if name in ("scifi-warm", "scifi-fabric-2w"):
        # One campaign name for both, so their rows compare byte for byte.
        return _document(
            campaign_name="perfbench-scifi-warm",
            technique="scifi",
            workload_name="bubblesort",
            workload_params={"n": 32, "seed": 7},
            location_patterns=list(HOT_REGISTERS),
            n_experiments=N_WARM,
            seed=seed,
            trigger={"kind": "time-uniform"},
        )
    if name == "swifi-cold":
        return _document(
            campaign_name="perfbench-swifi-cold",
            technique="swifi-pre",
            workload_name="matmul",
            workload_params={"dim": 4, "seed": 3},
            location_patterns=["memory:code/*", "memory:data/*"],
            n_experiments=N_COLD,
            seed=seed,
            trigger={"kind": "time-uniform"},
        )
    raise KeyError(name)


def _document(**fields: Any) -> Dict[str, Any]:
    """A CampaignData dictionary; fields it leaves out take the
    program's defaults."""
    return {"target_name": "thor-rd", "fault_model": {}, **fields}
