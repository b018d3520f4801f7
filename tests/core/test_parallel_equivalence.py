"""Parallel execution of equivalence-collapsed campaigns.

The parallel engine partitions up front in the parent and dispatches
only representatives and singletons to workers. When a representative's
result arrives, the parent derives the other members of its class and
queues the verify-sampled ones for real execution, their derivations
waiting for the real results. A representative that fails for good
derives nothing: its members run as ordinary experiments. These tests
pin serial/parallel equality and that failure path.
"""

import dataclasses
import multiprocessing
import os
import threading

import pytest

from repro.core import ParallelConfig, create_target, worker_factory
from repro.core.framework import register_target, unregister_target
from repro.core.parallel import (
    canonical_experiment_rows,
    run_parallel_campaign,
)
from repro.db import GoofiDatabase
from repro.scifi.interface import ThorRDInterface
from repro.util.errors import CampaignError
from tests.conftest import make_campaign

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="parallel tests need the fork start method",
)

PATTERNS = [
    "scan:internal/cpu.regfile.r5",
    "scan:internal/cpu.regfile.r10",
]


def equivalence_campaign(**overrides):
    defaults = dict(
        campaign_name="equiv-parallel",
        preinjection_mode="equivalence",
        use_preinjection=True,
        location_patterns=PATTERNS,
        n_experiments=20,
    )
    defaults.update(overrides)
    return make_campaign(**defaults)


def _config(**overrides):
    defaults = dict(n_workers=2, start_method="fork", shard_size=3)
    defaults.update(overrides)
    return ParallelConfig(**defaults)


class CrashingPort(ThorRDInterface):
    """Kills its process whenever it runs experiment ``crash_index``;
    given a ``crash_flag`` path, only on the first attempt (the flag
    file marks it)."""

    def __init__(self, crash_index=-1, crash_flag=None, **options):
        super().__init__(**options)
        self.crash_index = crash_index
        self.crash_flag = crash_flag

    def run_single_experiment(self, index, *args, **kwargs):
        if index == self.crash_index:
            if self.crash_flag is None:
                os._exit(3)
            if not os.path.exists(self.crash_flag):
                with open(self.crash_flag, "w"):
                    pass
                os._exit(3)
        return super().run_single_experiment(index, *args, **kwargs)


@pytest.fixture(scope="module", autouse=True)
def _crashing_target():
    register_target("thor-rd-crash-rep")(CrashingPort)
    yield
    unregister_target("thor-rd-crash-rep")


def _rows_by_index(sink):
    rows = {}
    for result in sink.results:
        data = dataclasses.asdict(result)
        data["wall_seconds"] = 0.0
        rows[result.index] = data
    return rows


def _finishes(run, seconds=60.0):
    """``run()``'s return value; fails instead of hanging when it has
    not returned within ``seconds``."""
    outcome = []

    def target():
        try:
            outcome.append(run())
        except BaseException as exc:  # re-raised in the test's thread
            outcome.append(exc)

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"campaign still running after {seconds}s"
    if isinstance(outcome[0], BaseException):
        raise outcome[0]
    return outcome[0]


def _largest_class(campaign):
    """(representative, other members, serial sink) of the campaign's
    largest equivalence class, read off a serial run's provenance."""
    sink = create_target("thor-rd").run_campaign(campaign)
    index_of = {result.name: result.index for result in sink.results}
    classes = {}
    for result in sink.results:
        if result.derived_from is not None:
            rep = index_of[result.derived_from]
            classes.setdefault(rep, []).append(result.index)
    assert classes, "expected the campaign to collapse"
    rep = max(classes, key=lambda index: len(classes[index]))
    return rep, classes[rep], sink


class TestParallelCollapse:
    def test_parallel_equals_serial_byte_for_byte(self, tmp_path):
        campaign = equivalence_campaign()
        serial_db = GoofiDatabase(str(tmp_path / "serial.db"))
        parallel_db = GoofiDatabase(str(tmp_path / "parallel.db"))
        try:
            create_target("thor-rd").run_campaign(campaign, sink=serial_db)
            run_parallel_campaign(
                campaign,
                worker_factory("thor-rd"),
                sink=parallel_db,
                config=_config(),
            )
            serial_rows = canonical_experiment_rows(
                serial_db, campaign.campaign_name
            )
            parallel_rows = canonical_experiment_rows(
                parallel_db, campaign.campaign_name
            )
            assert serial_rows == parallel_rows
        finally:
            serial_db.close()
            parallel_db.close()

    def test_derived_members_synthesized_in_parent(self):
        campaign = equivalence_campaign()
        sink = run_parallel_campaign(
            campaign, worker_factory("thor-rd"), config=_config()
        )
        results = {r.index: r for r in sink.results}
        assert sorted(results) == list(range(campaign.n_experiments))
        derived = [r for r in sink.results if r.derived_from is not None]
        assert derived
        names = {r.name for r in sink.results}
        for result in derived:
            assert result.derived_from in names
            assert result.wall_seconds == 0.0

    def test_verify_equivalence_passes_end_to_end(self):
        campaign = equivalence_campaign(n_experiments=12)
        sink = run_parallel_campaign(
            campaign,
            worker_factory("thor-rd", verify_equivalence=1.0),
            config=_config(),
        )
        assert len(sink.results) == 12
        # Full verification force-executes every member, so the derived
        # results are still reported as derived (the derivation stands).
        assert any(r.derived_from is not None for r in sink.results)

    def test_verify_sampling_fraction(self):
        campaign = equivalence_campaign()
        sink = run_parallel_campaign(
            campaign,
            worker_factory("thor-rd", verify_equivalence=0.5),
            config=_config(),
        )
        assert len(sink.results) == campaign.n_experiments


class TestConfigValidation:
    """The fraction is checked once, when the port is built (the parent
    port of a parallel run is built from the same factory)."""

    def test_negative_fraction_rejected(self):
        with pytest.raises(CampaignError):
            create_target("thor-rd", verify_equivalence=-0.1)

    def test_fraction_above_one_rejected(self):
        with pytest.raises(CampaignError):
            create_target("thor-rd", verify_equivalence=1.5)

    def test_boundary_fractions_accepted(self):
        create_target("thor-rd", verify_equivalence=0.0)
        create_target("thor-rd", verify_equivalence=1.0)


class TestFailingRepresentative:
    @pytest.mark.parametrize("verify", [0.0, 1.0])
    def test_members_run_for_real_when_rep_fails(self, verify):
        # Seed 21: the largest class has a representative and two members.
        campaign = equivalence_campaign(campaign_name="equiv-rep-fails", seed=21)
        rep, members, _ = _largest_class(campaign)
        static = _rows_by_index(
            create_target("thor-rd").run_campaign(
                campaign.modified(preinjection_mode="static")
            )
        )
        sink = _finishes(
            lambda: run_parallel_campaign(
                campaign,
                worker_factory(
                    "thor-rd-crash-rep",
                    crash_index=rep,
                    verify_equivalence=verify,
                ),
                config=_config(max_retries=0, timeout_seconds=30.0),
            )
        )
        results = {result.index: result for result in sink.results}
        assert sorted(results) == list(range(campaign.n_experiments))
        assert results[rep].termination.kind == "worker-failure"
        rows = _rows_by_index(sink)
        for member in members:
            assert results[member].derived_from is None
            assert rows[member] == static[member]

    @pytest.mark.parametrize("verify", [0.0, 1.0])
    def test_rep_crashing_once_matches_serial(self, tmp_path, verify):
        campaign = equivalence_campaign(campaign_name="equiv-rep-retry", seed=21)
        rep, _, serial = _largest_class(campaign)
        flag = tmp_path / "crashed"
        sink = run_parallel_campaign(
            campaign,
            worker_factory(
                "thor-rd-crash-rep",
                crash_index=rep,
                crash_flag=str(flag),
                verify_equivalence=verify,
            ),
            config=_config(max_retries=1, timeout_seconds=30.0),
        )
        assert flag.exists(), "the representative never crashed"
        assert _rows_by_index(sink) == _rows_by_index(serial)
