"""Property test: every combination of the speed knobs gives the plain
path's rows.

The speed knobs are the whole space of ways a campaign may skip work
without changing what it computes:

* ``warm_start`` (CampaignData): restore a golden checkpoint instead of
  re-simulating the fault-free prefix;
* ``early_exit`` (port option): probe the divergence window, replay
  known states' outcomes and memoise whole experiments;
* the executor: the serial loop, or two fork workers;
* ``preinjection_mode`` (CampaignData): ``static`` runs every planned
  experiment, ``equivalence`` runs one per provable class and derives
  the rest.

Hypothesis draws one point of that cross-product for each
stop-and-inject technique and asserts its canonical rows equal those of
the plain path (``warm_start=False``, ``early_exit=False``, serial,
``static``). Rows are compared with the wall-clock field zeroed and the
``derived_from`` provenance masked, the one field equivalence mode adds.
"""

import dataclasses
import functools
import multiprocessing

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import create_target, worker_factory
from repro.core.parallel import ParallelConfig, run_parallel_campaign
from repro.core.triggers import TriggerSpec
from repro.observability import configure, disable, get_observability
from tests.conftest import make_campaign

_HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()

#: Narrow selections, so that equivalence classes and repeated faults
#: (memo replays) occur in a 12-experiment campaign.
_TECHNIQUE_PATTERNS = {
    "scifi": ["scan:internal/cpu.regfile.r5"],
    "simfi": ["scan:internal/cpu.regfile.r5"],
    "pinlevel": ["scan:boundary/pins.data_bus"],
}

#: None = time-uniform; an int = one fixed injection instant, which
#: makes identical faults (memo hits) likely.
_FIXED_TIMES = [None, 80]

knobs = st.fixed_dictionaries(
    {
        "technique": st.sampled_from(sorted(_TECHNIQUE_PATTERNS)),
        "warm_start": st.booleans(),
        "early_exit": st.booleans(),
        "parallel": st.booleans() if _HAVE_FORK else st.just(False),
        "preinjection_mode": st.sampled_from(["static", "equivalence"]),
        "fixed_time": st.sampled_from(_FIXED_TIMES),
        "seed": st.integers(min_value=0, max_value=3),
    }
)

_N_EXPERIMENTS = 12


def _campaign(knob):
    if knob["fixed_time"] is None:
        trigger = TriggerSpec(kind="time-uniform")
    else:
        trigger = TriggerSpec(kind="time-fixed", time=knob["fixed_time"])
    return make_campaign(
        campaign_name="speed-knobs",
        technique=knob["technique"],
        workload_name="vecsum",
        location_patterns=_TECHNIQUE_PATTERNS[knob["technique"]],
        trigger=trigger,
        use_preinjection=True,
        preinjection_mode=knob["preinjection_mode"],
        checkpoint_interval=32,
        warm_start=knob["warm_start"],
        n_experiments=_N_EXPERIMENTS,
        seed=knob["seed"],
    )


def _canonical(sink):
    rows = []
    for result in sink.results:
        data = dataclasses.asdict(result)
        data["wall_seconds"] = 0.0
        data["derived_from"] = None
        rows.append(data)
    return rows


def _rows(knob):
    campaign = _campaign(knob)
    if knob["parallel"]:
        sink = run_parallel_campaign(
            campaign,
            worker_factory("thor-rd", early_exit=knob["early_exit"]),
            config=ParallelConfig(
                n_workers=2, shard_size=3, start_method="fork"
            ),
        )
    else:
        target = create_target("thor-rd", early_exit=knob["early_exit"])
        sink = target.run_campaign(campaign)
    return _canonical(sink)


@functools.lru_cache(maxsize=None)
def _plain_rows(technique, fixed_time, seed):
    return _rows(
        {
            "technique": technique,
            "fixed_time": fixed_time,
            "seed": seed,
            "warm_start": False,
            "early_exit": False,
            "parallel": False,
            "preinjection_mode": "static",
        }
    )


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(knob=knobs)
def test_every_knob_combination_gives_the_plain_rows(knob):
    plain = _plain_rows(knob["technique"], knob["fixed_time"], knob["seed"])
    assert len(plain) == _N_EXPERIMENTS
    assert _rows(knob) == plain


@pytest.mark.parametrize("technique", sorted(_TECHNIQUE_PATTERNS))
def test_the_shortcuts_engage(technique):
    """With every knob on, the campaign shape above really takes warm
    restores, memo replays and equivalence collapses; otherwise the
    property would prove nothing about them."""
    knob = {
        "technique": technique,
        "fixed_time": 80,
        "seed": 0,
        "warm_start": True,
        "early_exit": True,
        "parallel": False,
    }
    counters = {}
    for mode in ("static", "equivalence"):
        configure(metrics=True)
        try:
            _rows(dict(knob, preinjection_mode=mode))
            counters[mode] = get_observability().metrics.snapshot()["counters"]
        finally:
            disable()
    assert counters["static"].get("checkpoint.hits", 0) > 0
    assert counters["static"].get("divergence.memo_hits", 0) > 0
    assert counters["equivalence"].get("equivalence.collapsed", 0) > 0
