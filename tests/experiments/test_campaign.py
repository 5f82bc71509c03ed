"""The campaign plane: slicing, sharding, kill/resume, merged sketches.

A campaign is only trustworthy if the orchestration around the
simulator is invisible: sharding across a process pool, checkpointing
every slice, being killed and resumed -- none of it may change a single
byte of the deterministic report sections.
"""

import json

import pytest

from repro.__main__ import main
from repro.experiments.campaign import (
    CampaignSpec,
    campaign_to_json,
    run_campaign,
    run_campaign_shard,
)
from repro.experiments.parallel import derive_sweep_seed
from repro.experiments.runner import FaultSpec, MeasurementPolicy, Scenario

#: Fields of a shard summary that legitimately depend on *how* the shard
#: was driven (resume point, slice count, which process measured RSS) --
#: everything else must be byte-identical.
_DRIVE_DEPENDENT = ("resumed_from", "slices_run", "peak_rss_kb")


def _scenario(**overrides):
    base = dict(
        protocol="pbft",
        deployment="wonderproxy-4",
        workload="open-loop",
        workload_params=dict(rate=800.0, clients=2),
        duration=1e9,  # campaigns stop on the request target, not time
        seed=3,
    )
    base.update(overrides)
    return Scenario(**base)


def _spec(**overrides):
    base = dict(
        scenario=_scenario(),
        requests=3000,
        checkpoint_every=2.0,
        shards=2,
    )
    base.update(overrides)
    return CampaignSpec(**base)


def _point(spec, shard=0, **overrides):
    point = {
        "shard": shard,
        "scenario": spec.shard_scenario(shard),
        "target": spec.shard_target(shard),
        "checkpoint_every": spec.checkpoint_every,
        "compact_keep": spec.compact_keep,
        "max_slices": spec.max_slices,
        "checkpoint_path": spec.shard_checkpoint_path(shard),
    }
    point.update(overrides)
    return point


def _strip(summary):
    return {k: v for k, v in summary.items() if k not in _DRIVE_DEPENDENT}


# ----------------------------------------------------------------------
# Spec shape
# ----------------------------------------------------------------------
def test_spec_validates_inputs():
    with pytest.raises(ValueError, match="request target"):
        _spec(requests=0)
    with pytest.raises(ValueError, match="checkpoint_every"):
        _spec(checkpoint_every=0.0)
    with pytest.raises(ValueError, match="shards"):
        _spec(shards=0)


@pytest.mark.parametrize("never_ends", [float("nan"), float("inf")])
def test_spec_refuses_a_slice_that_never_ends(never_ends):
    # `<= 0` is false for both, and a slice this long never checkpoints.
    with pytest.raises(ValueError, match="checkpoint_every must be finite"):
        _spec(checkpoint_every=never_ends)


def test_negative_compact_keep_is_refused_before_anything_runs():
    # A negative keep stalled PBFT (the compaction floor passed the
    # executed seq) and the campaign spun toward max_slices.
    with pytest.raises(ValueError, match="compact_keep must be >= 0, got -5"):
        _spec(compact_keep=-5)
    with pytest.raises(SystemExit, match=r"^error: compact_keep must be >= 0"):
        main(["campaign", "--deployment", "wonderproxy-4", "--compact-keep", "-1"])


def test_shard_targets_split_with_remainder_up_front():
    spec = _spec(requests=10, shards=3)
    targets = [spec.shard_target(shard) for shard in range(3)]
    assert targets == [4, 3, 3]
    assert sum(targets) == 10


def test_shard_scenarios_get_derived_seeds_and_sketch_metrics():
    spec = _spec()
    shard0 = spec.shard_scenario(0)
    shard1 = spec.shard_scenario(1)
    assert shard0.seed == derive_sweep_seed(3, "campaign-shard-0")
    assert shard1.seed == derive_sweep_seed(3, "campaign-shard-1")
    assert shard0.seed != shard1.seed
    # Campaigns default to the O(1)-memory measurement plane.
    assert shard0.measurements.metrics == "sketch"
    assert shard0.name.endswith("/shard0")


def test_explicit_measurement_policy_is_honoured():
    policy = MeasurementPolicy(metrics="sketch", window=2.5)
    spec = _spec(scenario=_scenario(measurements=policy))
    assert spec.shard_scenario(0).measurements is policy


# ----------------------------------------------------------------------
# End-to-end report
# ----------------------------------------------------------------------
def test_campaign_reaches_target_and_merges_shards():
    report = run_campaign(_spec())
    merged = report["merged"]
    shards = report["shards"]
    assert len(shards) == 2
    assert merged["committed_requests"] >= report["campaign"]["requests"]
    assert merged["committed_requests"] == sum(
        s["committed_requests"] for s in shards
    )
    # The merged latency summaries come from folded shard sketches.
    assert set(merged["commit_latency"]) == {"mean", "p50", "p90", "p99"}
    assert set(merged["client_latency"]) == {"mean", "p50", "p90", "p99"}
    for summary in shards:
        assert summary["committed_requests"] >= summary["requests_target"]
        assert "underrun" not in summary
        # Sketch states are folded then dropped from the report.
        assert "commit_sketch" not in summary
        assert "peak_rss_kb" not in summary
    assert report["host"]["peak_rss_kb"] > 0
    assert len(report["host"]["shard_peak_rss_kb"]) == 2
    # The whole report is JSON-serialisable as produced.
    json.loads(campaign_to_json(report))


def test_default_workload_campaign_reports_client_latency():
    # The default (closed-loop) workload streams its client latency into
    # the shard sketch like the open loop does.
    default = Scenario(protocol="pbft", deployment="wonderproxy-4",
                       duration=1e9, seed=3)
    report = run_campaign(_spec(scenario=default, requests=400, shards=1))
    assert report["merged"]["committed_requests"] >= 400
    assert set(report["merged"]["client_latency"]) == {"mean", "p50", "p90", "p99"}


def test_campaign_jobs_identity_outside_host_section():
    serial = run_campaign(_spec(), jobs=1)
    pooled = run_campaign(_spec(), jobs=2)
    serial.pop("host")
    pooled.pop("host")
    assert json.dumps(serial, sort_keys=True) == json.dumps(pooled, sort_keys=True)


def test_campaign_underrun_is_loud_not_silent():
    # One slice of a tiny run cannot reach the target: the summary says so.
    spec = _spec(shards=1, max_slices=1)
    summary = run_campaign_shard(_point(spec))
    assert summary["underrun"] is True
    assert summary["committed_requests"] < summary["requests_target"]


# ----------------------------------------------------------------------
# Kill / resume
# ----------------------------------------------------------------------
def test_killed_shard_resumes_bit_identically(tmp_path):
    spec = _spec(shards=1, checkpoint_dir=str(tmp_path))

    # The uninterrupted reference (no checkpoint file involved).
    baseline = run_campaign_shard(_point(spec, checkpoint_path=None))

    # "Kill" after one slice: the checkpoint file is all that survives.
    partial = run_campaign_shard(_point(spec, max_slices=1))
    assert partial["underrun"] is True

    resumed = run_campaign_shard(_point(spec))
    assert resumed["resumed_from"] == spec.checkpoint_every
    assert "underrun" not in resumed
    assert _strip(resumed) == _strip(baseline)


def test_think_time_closed_loop_shard_resumes_bit_identically(tmp_path):
    # A pending think-time resubmission sits in the event heap at the
    # cut; it must pickle and fire after resume as it would have.
    scenario = _scenario(workload="closed-loop",
                         workload_params=dict(clients=2, think_time=0.02))
    spec = _spec(scenario=scenario, requests=300, checkpoint_every=0.5,
                 shards=1, checkpoint_dir=str(tmp_path))
    baseline = run_campaign_shard(_point(spec, checkpoint_path=None))
    assert run_campaign_shard(_point(spec, max_slices=1))["underrun"] is True
    resumed = run_campaign_shard(_point(spec))
    assert resumed["resumed_from"] == spec.checkpoint_every
    assert _strip(resumed) == _strip(baseline)


def test_synthesized_faults_resume_bit_identically(tmp_path):
    # A campaign slice carrying a *synthesized* fault schedule (compiled
    # from an AttackGenome, not hand-authored) must checkpoint/resume
    # exactly like a fault-free one: kill after one slice, resume, and
    # land byte-identical to the uninterrupted run.
    from repro.faults.genome import (
        AdversaryBudget,
        ArenaProfile,
        AttackGenome,
        AttackMove,
        compile_genome,
    )

    genome = AttackGenome(
        victims=(2, 3),
        moves=(
            AttackMove(kind="stealth", start=0, end=32),
            AttackMove(kind="crash", start=8, end=20, victim=1),
        ),
    )
    faults = compile_genome(
        genome,
        AdversaryBudget(max_faulty=2),
        ArenaProfile(n=4, family="pbft", duration=6.0),
    )
    spec = _spec(
        scenario=_scenario(faults=faults),
        shards=1,
        checkpoint_dir=str(tmp_path),
    )

    baseline = run_campaign_shard(_point(spec, checkpoint_path=None))

    partial = run_campaign_shard(_point(spec, max_slices=1))
    assert partial["underrun"] is True

    resumed = run_campaign_shard(_point(spec))
    assert resumed["resumed_from"] == spec.checkpoint_every
    assert _strip(resumed) == _strip(baseline)


def test_optiaware_shard_resumes_bit_identically(tmp_path):
    # The OptiLog pipeline in the loop: round plans are a memo that never
    # rides in a checkpoint, and compaction prunes the suspicion layer's
    # per-round maps at every slice -- neither may show in the report.
    scenario = _scenario(
        protocol="pbft-optiaware",
        deployment="wonderproxy-7",
        workload_params=dict(rate=300.0, clients=2),
        delta=1.25,
        measurements=MeasurementPolicy(
            probe_at=0.2, publish_at=0.6, first_search_at=1.5,
            search_period=2.0, horizon=8.0, metrics="sketch",
        ),
        faults=[
            FaultSpec(kind="delay", start=1.0, attacker="leader",
                      extra_delay=0.3, message_types=("PrePrepare",)),
        ],
    )
    spec = _spec(
        scenario=scenario, requests=1500, checkpoint_every=1.0, shards=1,
        compact_keep=4, checkpoint_dir=str(tmp_path),
    )

    baseline = run_campaign_shard(_point(spec, checkpoint_path=None))

    partial = run_campaign_shard(_point(spec, max_slices=3))
    assert partial["underrun"] is True

    resumed = run_campaign_shard(_point(spec))
    assert resumed["resumed_from"] == 3 * spec.checkpoint_every
    assert _strip(resumed) == _strip(baseline)


def test_resumed_campaign_report_matches_uninterrupted(tmp_path):
    # Same thing one level up: a full run_campaign killed mid-flight
    # (max_slices=1) and re-invoked lands on the uninterrupted report.
    uninterrupted = run_campaign(_spec())
    interrupted_spec = _spec(
        checkpoint_dir=str(tmp_path), max_slices=1
    )
    run_campaign(interrupted_spec)  # dies underrun, leaves checkpoints
    final = run_campaign(_spec(checkpoint_dir=str(tmp_path)))

    assert (
        json.dumps(uninterrupted["merged"], sort_keys=True)
        == json.dumps(final["merged"], sort_keys=True)
    )
    for before, after in zip(uninterrupted["shards"], final["shards"]):
        assert after["resumed_from"] == interrupted_spec.checkpoint_every
        assert _strip(after) == _strip(before)


def test_lazy_delay_provider_slice_resumes_bit_identically(tmp_path, monkeypatch):
    # Past EAGER_ROWS_MAX_N the delay provider serves rows from an LRU
    # instead of eager nested lists; it pickles only its model and
    # rebuilds the cache on load, which a resumed slice refills on
    # demand.  Force every deployment onto LRU rows and pin that a killed
    # campaign slice still resumes byte-identical to the uninterrupted
    # run -- the checkpoint gap would otherwise only show at n > 256.
    from repro.net import latency_model

    monkeypatch.setattr(latency_model, "EAGER_ROWS_MAX_N", 0)
    spec = _spec(shards=1, checkpoint_dir=str(tmp_path))
    assert isinstance(
        spec.shard_scenario(0), Scenario
    )  # sanity: scenario construction untouched by the patch

    baseline = run_campaign_shard(_point(spec, checkpoint_path=None))

    partial = run_campaign_shard(_point(spec, max_slices=1))
    assert partial["underrun"] is True

    resumed = run_campaign_shard(_point(spec))
    assert resumed["resumed_from"] == spec.checkpoint_every
    assert _strip(resumed) == _strip(baseline)

    # The patched threshold really did route through LRU rows.
    from repro.experiments.runner import resolve_deployment

    assert resolve_deployment("wonderproxy-4").one_way.rows is None
