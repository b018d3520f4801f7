"""The Thor port installs the card's per-instruction step hook only
while something listens: tracing, detail logging or runtime-SWIFI
instrumentation. Without a hook the card runs the CPU's fused loop
straight to the next cycle limit or event, so a plain SCIFI or
pre-runtime SWIFI experiment must run with ``card.on_step`` unset."""

import dataclasses

import pytest

from repro.core import create_target
from repro.thor import isa
from repro.thor.cpu import Cpu
from repro.thor.effects import register_effects
from repro.thor.isa import Opcode, try_decode
from tests.conftest import make_campaign


def _spy_on_runs(target):
    """Record ``card.on_step`` at every ``card.run`` call."""
    seen = []
    card = target.card
    real_run = card.run

    def run(*args, **kwargs):
        seen.append(card.on_step)
        return real_run(*args, **kwargs)

    card.run = run
    return seen


@pytest.mark.parametrize(
    "technique, patterns",
    [
        ("scifi", ["scan:internal/cpu.regfile.*"]),
        ("swifi-pre", ["memory:data/*", "memory:code/*"]),
    ],
)
def test_plain_experiments_run_without_step_hook(technique, patterns):
    target = create_target("thor-rd")
    assert target.card.on_step is None
    seen = _spy_on_runs(target)
    campaign = make_campaign(
        technique=technique, location_patterns=patterns, n_experiments=4
    )
    target.prepare_run(campaign)
    # The reference run is traced, so it runs with the hook.
    assert seen and all(hook is not None for hook in seen)
    assert target.card.on_step is None
    del seen[:]
    for index in range(campaign.n_experiments):
        target.run_single_experiment(index, use_memo=False)
    assert seen and all(hook is None for hook in seen)


def test_hook_follows_each_listener():
    target = create_target("thor-rd")
    card = target.card
    assert card.on_step is None
    target.start_trace()
    assert card.on_step is not None
    target.stop_trace()
    assert card.on_step is None
    target.set_detail_logging(True)
    assert card.on_step is not None
    target.set_detail_logging(False)
    assert card.on_step is None


def test_runtime_swifi_experiments_run_with_step_hook():
    target = create_target("thor-rd")
    seen = _spy_on_runs(target)
    campaign = make_campaign(
        technique="swifi-runtime",
        location_patterns=["memory:data/*"],
        n_experiments=3,
    )
    target.prepare_run(campaign)
    del seen[:]
    for index in range(campaign.n_experiments):
        target.run_single_experiment(index, use_memo=False)
    # instrument_workload installs the hook for the faulty run ...
    assert any(hook is not None for hook in seen)
    # ... and the next init_test_card drops it again.
    target.init_test_card()
    assert target.card.on_step is None


def test_detail_mode_experiments_run_with_step_hook():
    target = create_target("thor-rd")
    seen = _spy_on_runs(target)
    campaign = make_campaign(logging_mode="detail", n_experiments=2)
    target.prepare_run(campaign)
    del seen[:]
    for index in range(campaign.n_experiments):
        result = target.run_single_experiment(index, use_memo=False)
        assert result.detail_states
    assert seen and all(hook is not None for hook in seen)


def _rows(campaign, fast):
    previous = Cpu.fast_dispatch
    Cpu.fast_dispatch = fast
    try:
        sink = create_target("thor-rd").run_campaign(campaign)
    finally:
        Cpu.fast_dispatch = previous
    rows = []
    for result in sink.results:
        data = dataclasses.asdict(result)
        data["wall_seconds"] = 0.0
        rows.append(data)
    return rows


def test_detail_campaign_rows_match_reference_core():
    """Detail mode runs the hook at every instruction of the faulty run
    (runtime SWIFI's hooked runs are pinned by the core-equivalence
    property suite)."""
    campaign = make_campaign(n_experiments=6, logging_mode="detail")
    assert _rows(campaign, fast=True) == _rows(campaign, fast=False)


def _reference_trace(fast):
    previous = Cpu.fast_dispatch
    Cpu.fast_dispatch = fast
    try:
        target = create_target("thor-rd")
        target.read_campaign_data(
            make_campaign(workload_name="bubblesort", workload_params={"n": 8})
        )
        return target.make_reference_run().trace, target
    finally:
        Cpu.fast_dispatch = previous


def test_reference_trace_matches_reference_core_and_decoded_effects():
    """The memoised static part of each trace step equals what decoding
    the executed word yields, and the whole trace equals the reference
    core's."""
    trace, target = _reference_trace(fast=True)
    reference_trace, _ = _reference_trace(fast=False)
    assert trace.steps == reference_trace.steps
    memory = target.card.cpu.memory
    for step in trace.steps:
        instr = try_decode(memory.peek(step.pc))
        effects = register_effects(instr)
        assert step.reg_reads == tuple(sorted(effects.reg_reads))
        assert step.reg_writes == tuple(sorted(effects.reg_writes))
        assert step.reads_flags == effects.reads_flags
        assert step.writes_flags == effects.writes_flags
        assert step.is_branch == (instr.opcode in isa.BRANCHES)
        assert step.is_call == (instr.opcode is Opcode.CALL)
