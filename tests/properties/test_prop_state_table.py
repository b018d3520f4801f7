"""Property test: the state-convergence table never changes a row.

With early exit and memoization on, an experiment probes its faulty
state at every golden tick after its last injection and replays the
outcome of any state the golden run or an earlier experiment already
reached. The logged rows must be exactly the rows of the plain path
(``early_exit=False``: every experiment simulated to termination, no
memo), as ``canonical_rows_payload`` serialises them.

Hypothesis drives the workload, the trigger (time-uniform or one fixed
instant, early enough to land before the first golden tick), the fault
model (single flips, two simultaneous flips, three-flip intermittent
bursts), the seed, and whether the accelerated leg runs serially or on
two fork workers.
"""

import multiprocessing

from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.core import create_target, worker_factory
from repro.core.campaign import FaultModelSpec
from repro.core.parallel import ParallelConfig, run_parallel_campaign
from repro.core.triggers import TriggerSpec
from repro.db import GoofiDatabase
from repro.observability import configure, disable, get_observability
from repro.service.schema import canonical_rows_payload
from tests.conftest import make_campaign

_WORKLOADS = {
    "bubblesort": {"n": 12},
    "matmul": {"dim": 3},
}

_FAULT_MODELS = {
    "single": FaultModelSpec(),
    "double": FaultModelSpec(multiplicity=2),
    "burst": FaultModelSpec(
        kind="intermittent", burst_length=3, burst_spacing=40
    ),
}

_HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()

shapes = st.fixed_dictionaries(
    {
        "workload": st.sampled_from(sorted(_WORKLOADS)),
        "fault_model": st.sampled_from(sorted(_FAULT_MODELS)),
        # None = time-uniform; an int = one fixed instant. Fixed
        # instants below the 64-cycle cadence inject before the first
        # golden tick, so the experiment starts cold.
        "fixed_time": st.one_of(
            st.none(), st.integers(min_value=1, max_value=600)
        ),
        "seed": st.integers(min_value=0, max_value=2**16),
        "parallel": st.booleans() if _HAVE_FORK else st.just(False),
    }
)


def _campaign(shape, n_experiments=10):
    if shape["fixed_time"] is None:
        trigger = TriggerSpec(kind="time-uniform")
    else:
        trigger = TriggerSpec(kind="time-fixed", time=shape["fixed_time"])
    return make_campaign(
        campaign_name="state-table-prop",
        workload_name=shape["workload"],
        workload_params=_WORKLOADS[shape["workload"]],
        location_patterns=[
            "scan:internal/cpu.regfile.r5",
            "scan:internal/cpu.regfile.r7",
        ],
        fault_model=_FAULT_MODELS[shape["fault_model"]],
        trigger=trigger,
        checkpoint_interval=64,
        warm_start=True,
        n_experiments=n_experiments,
        seed=shape["seed"],
    )


def _rows(campaign, accelerated, parallel=False):
    db = GoofiDatabase(":memory:")
    try:
        if parallel:
            run_parallel_campaign(
                campaign,
                worker_factory("thor-rd", early_exit=accelerated),
                sink=db,
                config=ParallelConfig(
                    n_workers=2,
                    shard_size=3,
                    start_method="fork",
                ),
            )
        else:
            target = create_target("thor-rd")
            target.early_exit = accelerated
            target.run_campaign(campaign, sink=db)
        return canonical_rows_payload(db, campaign.campaign_name)
    finally:
        db.close()


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(shape=shapes)
@example(
    shape={"workload": "bubblesort", "fault_model": "burst",
           "fixed_time": 5, "seed": 3, "parallel": False}
)
@example(
    shape={"workload": "matmul", "fault_model": "double",
           "fixed_time": None, "seed": 4, "parallel": _HAVE_FORK}
)
def test_state_table_rows_byte_identical_to_plain(shape):
    campaign = _campaign(shape)
    plain = _rows(campaign, accelerated=False)
    fast = _rows(campaign, accelerated=True, parallel=shape["parallel"])
    assert len(plain) == campaign.n_experiments
    assert fast == plain


def _counters(campaign):
    configure(metrics=True)
    try:
        rows = _rows(campaign, accelerated=True)
        snapshot = get_observability().metrics.snapshot()
    finally:
        disable()
    return rows, snapshot["counters"]


def test_state_hits_occur_and_stay_identical():
    """A fixed-shape campaign where faulty-state replays certainly
    happen: flips into the same hot register inside one checkpoint
    interval converge to the same state at the next tick. Without hits
    the property above would prove nothing about replays."""
    shape = {
        "workload": "bubblesort",
        "fault_model": "single",
        "fixed_time": None,
        "seed": 11,
    }
    campaign = _campaign(shape, n_experiments=60)
    fast, counters = _counters(campaign)
    assert counters.get("divergence.state_hits", 0) > 0
    assert counters.get("divergence.state_entries", 0) > 0
    assert fast == _rows(campaign, accelerated=False)

