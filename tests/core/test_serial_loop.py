"""Serial campaigns on the shared campaign loop.

A serial campaign runs on the loop of :mod:`repro.core.parallel` with
one in-process worker, so its rows reach the sink in ``batch_size``
batches rather than one commit per row. These tests pin what a failed
or stopped serial run leaves in the database, and that a resume then
completes it to exactly the rows of an uninterrupted run.
"""

import pytest

from repro.core import CampaignController, create_target
from repro.core.parallel import canonical_experiment_rows
from repro.db import GoofiDatabase
from repro.scifi.interface import ThorRDInterface
from tests.conftest import make_campaign

#: The experiment :class:`FailingPort` raises at.
FAIL_AT = 5


class FailingPort(ThorRDInterface):
    """A port whose experiment ``FAIL_AT`` raises."""

    def run_single_experiment(self, index, *args, **kwargs):
        if index == FAIL_AT:
            raise RuntimeError(f"experiment {index} failed")
        return super().run_single_experiment(index, *args, **kwargs)


def uninterrupted_rows(campaign):
    with GoofiDatabase(":memory:") as db:
        create_target("thor-rd").run_campaign(campaign, sink=db)
        return canonical_experiment_rows(db, campaign.campaign_name)


class TestSerialFailure:
    def test_failed_experiment_keeps_the_rows_before_it(self, db):
        campaign = make_campaign(n_experiments=12, seed=21)
        controller = CampaignController(FailingPort(), sink=db)
        with pytest.raises(RuntimeError):
            controller.run(campaign)
        assert controller.progress.state == "failed"
        assert db.count_experiments(campaign.campaign_name) == FAIL_AT
        assert db.completed_indices(campaign.campaign_name) == list(
            range(FAIL_AT)
        )

    def test_resume_after_failure_matches_uninterrupted_run(self, db):
        campaign = make_campaign(n_experiments=12, seed=21)
        with pytest.raises(RuntimeError):
            CampaignController(FailingPort(), sink=db).run(campaign)
        resumed = CampaignController(create_target("thor-rd"), sink=db)
        resumed.run(campaign, resume=True)
        assert resumed.progress.state == "finished"
        assert canonical_experiment_rows(
            db, campaign.campaign_name
        ) == uninterrupted_rows(campaign)


class TestSerialStopResume:
    def test_equivalence_stop_then_resume_matches_uninterrupted_run(
        self, db
    ):
        campaign = make_campaign(
            campaign_name="serial-equiv-stop",
            preinjection_mode="equivalence",
            use_preinjection=True,
            location_patterns=[
                "scan:internal/cpu.regfile.r5",
                "scan:internal/cpu.regfile.r10",
            ],
            n_experiments=20,
        )
        first = CampaignController(create_target("thor-rd"), sink=db)
        first.add_listener(
            lambda progress: first.stop() if progress.n_done >= 4 else None
        )
        first.run(campaign)
        assert first.progress.state == "stopped"
        logged = db.count_experiments(campaign.campaign_name)
        assert 0 < logged < campaign.n_experiments
        CampaignController(create_target("thor-rd"), sink=db).run(
            campaign, resume=True
        )
        rows = canonical_experiment_rows(db, campaign.campaign_name)
        assert len(rows) == campaign.n_experiments
        assert rows == uninterrupted_rows(campaign)
