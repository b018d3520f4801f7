"""Tests for the campaign controller (Figure 7 behaviour)."""

import threading
import time

import pytest

from repro.core import create_target
from repro.core.controller import CampaignController
from repro.util.errors import CampaignError
from tests.conftest import make_campaign


def make_controller(thor_target, **campaign_kw):
    campaign = make_campaign(**campaign_kw)
    controller = CampaignController(thor_target)
    return controller, campaign


class TestProgressReporting:
    def test_listener_called_per_experiment(self, thor_target):
        controller, campaign = make_controller(thor_target, n_experiments=5)
        snapshots = []
        controller.add_listener(lambda p: snapshots.append(p.n_done))
        controller.run(campaign)
        # initial + 5 experiments + final
        assert snapshots[-1] == 5
        assert controller.progress.state == "finished"

    def test_progress_counts_terminations(self, thor_target):
        controller, campaign = make_controller(thor_target, n_experiments=8)
        controller.run(campaign)
        assert sum(controller.progress.terminations.values()) == 8

    def test_faults_injected_counted(self, thor_target):
        controller, campaign = make_controller(thor_target, n_experiments=4)
        controller.run(campaign)
        assert controller.progress.n_injected_faults == 4

    def test_rate_and_percent(self, thor_target):
        controller, campaign = make_controller(thor_target, n_experiments=3)
        controller.run(campaign)
        assert controller.progress.percent_done == 100.0
        assert controller.progress.experiments_per_second > 0


class TestEndButton:
    def test_stop_from_listener_ends_early(self, thor_target):
        controller, campaign = make_controller(thor_target, n_experiments=50)

        def listener(progress):
            if progress.n_done == 3:
                controller.stop()

        controller.add_listener(listener)
        sink = controller.run(campaign)
        assert len(sink.results) == 3
        assert controller.progress.state == "stopped"

    def test_results_logged_before_stop_are_kept(self, thor_target):
        controller, campaign = make_controller(thor_target, n_experiments=50)
        controller.add_listener(
            lambda p: controller.stop() if p.n_done >= 2 else None
        )
        sink = controller.run(campaign)
        assert all(r.termination is not None for r in sink.results)


class TestPauseResume:
    def test_pause_resume_from_other_thread(self, thor_target):
        controller, campaign = make_controller(thor_target, n_experiments=20)
        paused_at = []

        def listener(progress):
            if progress.n_done == 2 and not paused_at:
                paused_at.append(progress.n_done)
                controller.pause()

        controller.add_listener(listener)

        def resumer():
            # Wait until the pause takes effect, then resume.
            while not controller.paused:
                time.sleep(0.01)
            time.sleep(0.1)
            controller.resume()

        thread = threading.Thread(target=resumer)
        thread.start()
        sink = controller.run(campaign)
        thread.join()
        assert len(sink.results) == 20
        assert controller.progress.state == "finished"

    def test_stop_while_paused(self, thor_target):
        controller, campaign = make_controller(thor_target, n_experiments=20)
        controller.add_listener(
            lambda p: controller.pause() if p.n_done == 1 else None
        )

        def stopper():
            while not controller.paused:
                time.sleep(0.01)
            controller.stop()

        thread = threading.Thread(target=stopper)
        thread.start()
        sink = controller.run(campaign)
        thread.join()
        assert len(sink.results) < 20
        assert controller.progress.state == "stopped"

    def test_run_in_thread(self, thor_target):
        controller, campaign = make_controller(thor_target, n_experiments=5)
        thread = controller.run_in_thread(campaign)
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert controller.progress.n_done == 5

    def test_double_run_rejected(self, thor_target):
        controller, campaign = make_controller(thor_target, n_experiments=1)
        controller.progress.state = "running"
        with pytest.raises(CampaignError):
            controller.run(campaign)


class TestFailureRecovery:
    """A crashed campaign must not brick the controller (regression:
    progress.state used to stay "running" forever after an exception,
    making every later run() fail with "already running a campaign")."""

    def test_failed_run_sets_failed_state(self, thor_target):
        controller, _ = make_controller(thor_target)
        bad = make_campaign(workload_name="no-such-workload")
        with pytest.raises(Exception):
            controller.run(bad)
        assert controller.progress.state == "failed"

    def test_controller_reusable_after_failure(self, thor_target):
        controller, good = make_controller(thor_target, n_experiments=3)
        bad = make_campaign(workload_name="no-such-workload")
        with pytest.raises(Exception):
            controller.run(bad)
        # The same controller must accept a new campaign afterwards.
        sink = controller.run(good)
        assert len(sink.results) == 3
        assert controller.progress.state == "finished"


class TestPauseTiming:
    """Paused time must not count as campaign time (regression: pause
    duration used to inflate elapsed_seconds and deflate the
    experiments_per_second figure)."""

    def test_pause_excluded_from_elapsed(self, thor_target):
        controller, campaign = make_controller(thor_target, n_experiments=6)
        pause_for = 0.5

        def listener(progress):
            if progress.n_done == 2 and not getattr(listener, "done", False):
                listener.done = True
                controller.pause()

        controller.add_listener(listener)

        def resumer():
            while not controller.paused:
                time.sleep(0.01)
            time.sleep(pause_for)
            controller.resume()

        thread = threading.Thread(target=resumer)
        thread.start()
        wall_start = time.perf_counter()
        controller.run(campaign)
        wall = time.perf_counter() - wall_start
        thread.join()
        # The run really did pause...
        assert wall >= pause_for
        # ...but the active campaign time excludes (almost all of) it.
        assert controller.progress.elapsed_seconds < wall - pause_for * 0.5
        assert controller.progress.experiments_per_second > 0

    def test_resume_is_noop_after_stop(self, thor_target):
        controller, _ = make_controller(thor_target)
        controller.stop()
        controller.resume()
        # resume() must not flip the state back to "running" once the
        # End button was pressed.
        assert controller.progress.state != "running"

    def test_pause_is_noop_after_stop(self, thor_target):
        controller, _ = make_controller(thor_target)
        state = controller.progress.state
        controller.stop()
        controller.pause()
        # pause() must not re-pause a campaign the End button is ending.
        assert not controller.paused
        assert controller.progress.state == state

    def test_resume_after_stop_still_stops_campaign(self, thor_target):
        controller, campaign = make_controller(thor_target, n_experiments=30)

        fired = []

        def listener(progress):
            if progress.n_done == 2 and not fired:
                fired.append(True)
                controller.pause()
                controller.stop()
                controller.resume()  # must not cancel the stop

        controller.add_listener(listener)
        sink = controller.run(campaign)
        assert controller.progress.state == "stopped"
        assert len(sink.results) < 30


class TestResumeCounters:
    """Resuming must rebuild the fault/termination/detection breakdown
    from the sink (regression: only n_done was restored; the breakdowns
    silently restarted from zero)."""

    def _partial_then_resume(self, db, n_experiments=10, stop_after=4):
        campaign = make_campaign(n_experiments=n_experiments)
        first = CampaignController(create_target("thor-rd"), sink=db)
        first.add_listener(
            lambda p: first.stop() if p.n_done >= stop_after else None
        )
        first.run(campaign)
        assert 0 < first.progress.n_done < n_experiments
        second = CampaignController(create_target("thor-rd"), sink=db)
        second.run(campaign, resume=True)
        return first, second, campaign

    def test_resume_counters_match_uninterrupted_run(self, db):
        _, resumed, campaign = self._partial_then_resume(db)
        # Ground truth: the same campaign run start-to-finish.
        full = CampaignController(create_target("thor-rd"))
        full.run(campaign)
        assert resumed.progress.n_done == full.progress.n_done
        assert (
            resumed.progress.n_injected_faults
            == full.progress.n_injected_faults
        )
        assert resumed.progress.terminations == full.progress.terminations
        assert resumed.progress.detections == full.progress.detections

    def test_resume_termination_totals_cover_all_experiments(self, db):
        _, resumed, campaign = self._partial_then_resume(db)
        assert (
            sum(resumed.progress.terminations.values())
            == campaign.n_experiments
        )

    def test_run_in_thread_passes_resume_through(self, db):
        first, _, campaign = self._partial_then_resume(db)
        already = db.count_experiments(campaign.campaign_name)
        assert already == campaign.n_experiments
        # A third resume pass skips everything that is already logged.
        third = CampaignController(create_target("thor-rd"), sink=db)
        thread = third.run_in_thread(campaign, resume=True)
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert third.progress.state == "finished"
        assert third.progress.n_done == campaign.n_experiments
        assert (
            sum(third.progress.terminations.values())
            == campaign.n_experiments
        )
