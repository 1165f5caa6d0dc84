"""Tests for the fault-injection scenario engine (PR 7).

Covers, bottom-up:

* :mod:`repro.simnet.faults` — :class:`FaultPlan` (seeded churn draws,
  outage/partition windows, drop accounting, ``from_config`` staggering),
  :class:`ResiliencePolicy` and the :class:`CircuitBreaker` state machine;
* :class:`~repro.simnet.network.LinkScheduler` outage/partition windows —
  faulted paths wait for scheduled recovery, unrelated paths don't;
* :class:`~repro.sched.actors.NetworkActor` resilience — retry with
  exponential backoff + deterministic jitter, breaker fast-fail, failover to
  the next-best reachable replica, graceful degradation;
* end-to-end: seeded-determinism fuzz (same seed → identical event logs,
  summaries and CSV rows; different seeds → different plans), churn on the
  constant-cost path, and the acceptance scenario — failover measurably
  beats ``retry_max=0`` on a staggered two-replica outage.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import (
    ExperimentConfig,
    cifar10_workload,
    edge_cluster_configs,
    gpu_cluster_configs,
)
from repro.core.reporting import save_results_csv
from repro.core.results import format_comm_table
from repro.core.runner import ExperimentRunner
from repro.sched.actors import NetworkActor
from repro.simnet.faults import (
    CircuitBreaker,
    FaultPlan,
    ReplicaOutage,
    ResiliencePolicy,
    WanPartition,
    merge_windows,
)
from repro.simnet.network import LinkScheduler, NetworkLink, NetworkModel, Topology


def make_network(bandwidth_bytes_per_s: float = 1e6, latency_s: float = 0.0) -> NetworkModel:
    return NetworkModel(
        default_link=NetworkLink(latency_s=latency_s, bandwidth_bytes_per_s=bandwidth_bytes_per_s)
    )


def two_site_topology() -> Topology:
    topo = Topology(default_wan_link=NetworkLink(latency_s=0.05, bandwidth_bytes_per_s=50e6))
    topo.add_replica("storage-0", capacity=1).add_replica("storage-1", capacity=1)
    topo.add_cluster("agg1", "storage-0", NetworkLink(0.001, 100e6))
    topo.add_cluster("agg2", "storage-1", NetworkLink(0.001, 100e6))
    return topo


def fault_config(mode: str = "semi", **kwargs) -> ExperimentConfig:
    return ExperimentConfig(
        name=f"faults-{mode}",
        workload=cifar10_workload(rounds=2, samples_per_class=10, image_size=8, learning_rate=0.05),
        clusters=edge_cluster_configs(num_clients=2),
        mode=mode,
        rounds=3,
        seed=3,
        monitor_resources=False,
        **kwargs,
    )


# ------------------------------------------------------------------------ window helpers
class TestMergeWindows:
    def test_sorts_and_coalesces_overlaps(self):
        assert merge_windows([(5.0, 9.0), (0.0, 2.0), (1.0, 3.0), (9.0, 11.0)]) == [
            (0.0, 3.0),
            (5.0, 11.0),
        ]

    def test_rejects_invalid_windows(self):
        with pytest.raises(ValueError):
            merge_windows([(2.0, 1.0)])
        with pytest.raises(ValueError):
            merge_windows([(-1.0, 1.0)])


# ----------------------------------------------------------------------------- fault plan
class TestFaultPlan:
    def test_zero_plan(self):
        plan = FaultPlan(seed=4)
        assert plan.is_zero
        assert not plan.cluster_offline("agg1", 1)
        assert plan.dropped_clients == 0
        assert plan.outage_seconds == 0.0 and plan.partition_seconds == 0.0

    def test_churn_draws_are_deterministic_and_idempotent(self):
        plan = FaultPlan(seed=5, churn_rate=0.5)
        first = [plan.cluster_offline("agg1", r) for r in range(1, 11)]
        # Redrawing changes nothing and never double-counts drops.
        second = [plan.cluster_offline("agg1", r) for r in range(1, 11)]
        assert first == second
        assert plan.dropped_clients == sum(first)
        # The same draws replay on a fresh plan with the same seed, and are
        # call-order independent.
        replay = FaultPlan(seed=5, churn_rate=0.5)
        shuffled = {r: replay.cluster_offline("agg1", r) for r in reversed(range(1, 11))}
        assert [shuffled[r] for r in range(1, 11)] == first

    def test_churn_differs_across_seeds_and_clusters(self):
        a = FaultPlan(seed=1, churn_rate=0.5)
        b = FaultPlan(seed=2, churn_rate=0.5)
        rounds = range(1, 40)
        assert [a.cluster_offline("agg1", r) for r in rounds] != [
            b.cluster_offline("agg1", r) for r in rounds
        ]
        assert [a.cluster_offline("agg1", r) for r in rounds] != [
            a.cluster_offline("agg2", r) for r in rounds
        ]

    def test_outage_windows_and_recovery(self):
        plan = FaultPlan(
            seed=0,
            outages=[
                ReplicaOutage("storage-0", 10.0, 20.0),
                ReplicaOutage("storage-0", 15.0, 30.0),  # overlaps: merged
                ReplicaOutage("storage-1", 50.0, 60.0),
            ],
        )
        assert plan.replica_windows("storage-0") == [(10.0, 30.0)]
        assert plan.replica_down("storage-0", 10.0)
        assert not plan.replica_down("storage-0", 30.0)  # recovered exactly at end
        assert plan.recovery_time("storage-0", 12.0) == 30.0
        assert plan.recovery_time("storage-0", 40.0) == 40.0
        assert plan.outage_seconds == pytest.approx(30.0)

    def test_partitions_are_order_insensitive(self):
        plan = FaultPlan(seed=0, partitions=[WanPartition("b", "a", 5.0, 15.0)])
        assert plan.partitioned("a", "b", 10.0)
        assert plan.partitioned("b", "a", 10.0)
        assert not plan.partitioned("a", "b", 20.0)
        assert not plan.partitioned("a", "a", 10.0)
        assert plan.partition_windows("a", "b") == [(5.0, 15.0)]
        assert plan.partition_seconds == pytest.approx(10.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(churn_rate=1.0)
        with pytest.raises(ValueError):
            ReplicaOutage("r", 5.0, 5.0)
        with pytest.raises(ValueError):
            WanPartition("a", "a", 0.0, 1.0)

    def test_from_config_staggers_episodes(self):
        config = fault_config(
            replica_outages=4,
            storage_replicas=2,
            outage_duration_s=10.0,
            wan_partitions=2,
            partition_duration_s=5.0,
        )
        plan = FaultPlan.from_config(config, ["storage-0", "storage-1"], horizon_s=1000.0)
        starts = [o.start for o in plan.outages]
        # Round-robin over replicas, strictly increasing staggered starts
        # inside the 5-70% traffic window.
        assert [o.replica for o in plan.outages] == [
            "storage-0", "storage-1", "storage-0", "storage-1"
        ]
        assert starts == sorted(starts)
        assert all(50.0 <= s <= 700.0 for s in starts)
        assert all(o.end - o.start == pytest.approx(10.0) for o in plan.outages)
        assert len(plan.partitions) == 2
        assert {(p.site_a, p.site_b) for p in plan.partitions} == {("storage-0", "storage-1")}

    def test_from_config_uses_fault_seed_when_given(self):
        base = dict(replica_outages=1, storage_replicas=2)
        default_seed = FaultPlan.from_config(
            fault_config(**base), ["storage-0", "storage-1"], 1000.0
        )
        pinned = FaultPlan.from_config(
            fault_config(fault_seed=99, **base), ["storage-0", "storage-1"], 1000.0
        )
        assert default_seed.outages != pinned.outages


# ------------------------------------------------------------------------ circuit breaker
class TestCircuitBreaker:
    def test_trips_after_threshold_consecutive_failures(self):
        breaker = CircuitBreaker(threshold=3, cooldown_s=10.0)
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.record_failure(1.0)
        breaker.record_failure(2.0)
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.record_failure(3.0)
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.trips == 1
        assert breaker.open_seconds == pytest.approx(10.0)

    def test_success_resets_the_failure_streak(self):
        breaker = CircuitBreaker(threshold=2, cooldown_s=10.0)
        breaker.record_failure(1.0)
        breaker.record_success(2.0)
        breaker.record_failure(3.0)
        assert breaker.state == CircuitBreaker.CLOSED  # streak broken at 2.0

    def test_open_fails_fast_until_cooldown_then_half_opens(self):
        breaker = CircuitBreaker(threshold=1, cooldown_s=10.0)
        breaker.record_failure(5.0)
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow(14.9)
        assert breaker.would_allow(15.0)  # pure query: no transition
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.allow(15.0)  # admits the half-open trial
        assert breaker.state == CircuitBreaker.HALF_OPEN

    def test_half_open_trial_outcomes(self):
        breaker = CircuitBreaker(threshold=1, cooldown_s=10.0)
        breaker.record_failure(0.0)
        assert breaker.allow(10.0)
        breaker.record_success(10.0)
        assert breaker.state == CircuitBreaker.CLOSED
        # Failure in half-open re-trips for another full cooldown.
        breaker.record_failure(11.0)
        assert breaker.allow(21.0)
        breaker.record_failure(21.0)
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.trips == 3
        assert breaker.open_seconds == pytest.approx(30.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(threshold=0, cooldown_s=1.0)
        with pytest.raises(ValueError):
            CircuitBreaker(threshold=1, cooldown_s=0.0)


class TestResiliencePolicy:
    def test_backoff_is_exponential_with_jitter(self):
        policy = ResiliencePolicy(backoff_base_s=0.5, backoff_jitter=0.1)
        assert policy.backoff(0, 0.0) == pytest.approx(0.5)
        assert policy.backoff(1, 0.0) == pytest.approx(1.0)
        assert policy.backoff(2, 1.0) == pytest.approx(2.0 * 1.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            ResiliencePolicy(retry_max=-1)
        with pytest.raises(ValueError):
            ResiliencePolicy(backoff_base_s=0.0)
        with pytest.raises(ValueError):
            ResiliencePolicy(backoff_jitter=-0.1)
        with pytest.raises(ValueError):
            ResiliencePolicy(breaker_threshold=0)
        with pytest.raises(ValueError):
            ResiliencePolicy(breaker_cooldown_s=0.0)


# --------------------------------------------------------------- scheduler fault windows
class TestSchedulerFaultWindows:
    def test_outage_delays_transfers_touching_the_endpoint(self):
        scheduler = LinkScheduler(make_network())  # 1 MB/s
        scheduler.set_outages("storage", [(5.0, 20.0)])
        hit = scheduler.transfer("a", "storage", 1_000_000, at=6.0)
        assert hit.started_at == pytest.approx(20.0)  # waits out the outage
        assert hit.queued_time == pytest.approx(14.0)
        # An unrelated pair is untouched.
        clear = scheduler.transfer("b", "c", 1_000_000, at=6.0)
        assert clear.started_at == pytest.approx(6.0)

    def test_transfer_cannot_straddle_a_window(self):
        scheduler = LinkScheduler(make_network())
        scheduler.set_outages("storage", [(2.0, 10.0)])
        # Requested at 1.5 with a 1s duration: it would overlap 2.0, so it
        # starts after recovery instead.
        scheduled = scheduler.transfer("a", "storage", 1_000_000, at=1.5)
        assert scheduled.started_at == pytest.approx(10.0)

    def test_partition_blocks_cross_site_pairs_only(self):
        scheduler = LinkScheduler(make_network())
        scheduler.set_site("agg1", "site-a")
        scheduler.set_site("agg2", "site-b")
        scheduler.set_site("agg3", "site-a")
        scheduler.set_partition("site-b", "site-a", [(0.0, 30.0)])
        cross = scheduler.transfer("agg1", "agg2", 1_000_000, at=0.0)
        assert cross.started_at == pytest.approx(30.0)
        same_site = scheduler.transfer("agg1", "agg3", 1_000_000, at=0.0)
        assert same_site.started_at == pytest.approx(0.0)

    def test_setters_validate_merge_and_clear(self):
        scheduler = LinkScheduler(make_network())
        epoch = scheduler.epoch
        scheduler.set_outages("s", [(10.0, 20.0), (15.0, 25.0)])
        assert scheduler.outage_windows("s") == [(10.0, 25.0)]
        assert scheduler.epoch > epoch
        scheduler.set_outages("s", [])
        assert scheduler.outage_windows("s") == []
        with pytest.raises(ValueError):
            scheduler.set_partition("x", "x", [(0.0, 1.0)])

    def test_no_windows_keeps_planning_identical(self):
        plain = LinkScheduler(make_network())
        faulted = LinkScheduler(make_network())
        faulted.set_outages("elsewhere", [(0.0, 100.0)])
        for at in (0.0, 0.5, 3.0, 1.0):
            a = plain.transfer("a", "storage", 500_000, at=at)
            b = faulted.transfer("a", "storage", 500_000, at=at)
            assert (a.started_at, a.finished_at) == (b.started_at, b.finished_at)


# ------------------------------------------------------------------- actor resilience
class TestNetworkActorResilience:
    def make_actor(self, plan: FaultPlan, **kwargs) -> NetworkActor:
        return NetworkActor(
            topology=two_site_topology(),
            model_bytes=1_000_000,
            faults=plan,
            resilience=kwargs.pop("resilience", ResiliencePolicy()),
            resilience_seed=kwargs.pop("resilience_seed", 1),
            **kwargs,
        )

    def outage_plan(self) -> FaultPlan:
        return FaultPlan(seed=1, outages=[ReplicaOutage("storage-0", 10.0, 60.0)])

    def test_failover_avoids_the_recovery_wait(self):
        actor = self.make_actor(self.outage_plan())
        elapsed = actor.upload("agg1", 1, at=20.0, object_ids=["cid1"])
        # Retries burn backoff, the breaker trips, and the transfer lands on
        # the healthy replica — orders of magnitude below the 40s recovery.
        assert elapsed < 5.0
        assert actor.retries > 0
        assert actor.failovers == 1
        assert actor.transfers("upload")[0].destination == "storage-1"
        assert actor._breakers["storage-0"].state == CircuitBreaker.OPEN

    def test_retry_max_zero_waits_out_the_outage(self):
        actor = self.make_actor(self.outage_plan(), resilience=ResiliencePolicy(retry_max=0))
        elapsed = actor.upload("agg1", 1, at=20.0, object_ids=["cid1"])
        assert elapsed > 39.0  # waits for the scheduled recovery at 60.0
        assert actor.retries == 0 and actor.failovers == 0
        assert actor.transfers("upload")[0].destination == "storage-0"
        assert actor.transfers("upload")[0].started_at == pytest.approx(60.0)

    def test_short_outage_is_ridden_out_by_backoff(self):
        plan = FaultPlan(seed=1, outages=[ReplicaOutage("storage-0", 19.9, 20.4)])
        actor = self.make_actor(plan)
        actor.upload("agg1", 1, at=20.0, object_ids=["cid1"])
        # The first backoff (>= 0.5s) already clears the 0.5s outage: no
        # failover, the home replica serves after a short wait.
        assert actor.retries >= 1
        assert actor.failovers == 0
        assert actor.transfers("upload")[0].destination == "storage-0"

    def test_graceful_degradation_when_every_replica_is_down(self):
        plan = FaultPlan(
            seed=1,
            outages=[
                ReplicaOutage("storage-0", 10.0, 60.0),
                ReplicaOutage("storage-1", 10.0, 55.0),
            ],
        )
        actor = self.make_actor(plan)
        actor.upload("agg1", 1, at=20.0, object_ids=["cid1"])
        transfer = actor.transfers("upload")[0]
        # Nowhere to fail over: the transfer waits for its replica's
        # scheduled recovery instead of erroring out.
        assert actor.failovers == 0
        assert transfer.started_at >= 55.0

    def test_breaker_open_fast_fails_subsequent_attempts(self):
        actor = self.make_actor(self.outage_plan())
        actor.upload("agg1", 1, at=20.0, object_ids=["cid1"])  # trips storage-0
        fast_fails = actor.fast_fails
        retries = actor.retries
        actor.upload("agg1", 1, at=21.0, object_ids=["cid2"])
        # Second attempt inside the cooldown: no new retries, immediate
        # fast-fail + failover.
        assert actor.fast_fails == fast_fails + 1
        assert actor.retries == retries
        assert actor.failovers == 2

    def test_partition_triggers_failover_to_reachable_site(self):
        plan = FaultPlan(seed=1, partitions=[WanPartition("storage-0", "storage-1", 0.0, 50.0)])
        actor = self.make_actor(plan, selection="least-loaded")
        # agg1 lives at storage-0; the partition only severs the cross-site
        # path, so its home replica stays reachable.
        actor.upload("agg1", 1, at=5.0, object_ids=["cid1"])
        assert actor.transfers("upload")[0].destination == "storage-0"

    def test_resilience_is_seed_deterministic(self):
        def drive(seed: int) -> tuple:
            actor = self.make_actor(self.outage_plan(), resilience_seed=seed)
            actor.upload("agg1", 2, at=20.0, object_ids=["c1", "c2"])
            actor.download("agg2", 1, at=22.0, object_ids=["c1"])
            events = [
                (t.source, t.destination, t.started_at, t.finished_at)
                for t, _ in actor._events
            ]
            return events, actor.retries, actor.backoff_wait_s, actor.failovers

        assert drive(7) == drive(7)
        # A different jitter seed shifts the backoff waits.
        assert drive(7)[2] != drive(8)[2]

    def test_resilience_totals_schema(self):
        actor = self.make_actor(self.outage_plan())
        totals = actor.resilience_totals()
        assert set(totals) == {
            "retries",
            "backoff_wait_s",
            "failovers",
            "breaker_trips",
            "breaker_open_s",
            "breaker_fast_fails",
            "dropped_clients",
            "fault_outage_s",
            "fault_partition_s",
        }
        assert totals["fault_outage_s"] == pytest.approx(50.0)


# ------------------------------------------------------------------------- configuration
class TestFaultConfigValidation:
    def test_knob_bounds(self):
        with pytest.raises(ValueError):
            fault_config(churn_rate=1.0)
        with pytest.raises(ValueError):
            fault_config(churn_rate=-0.1)
        with pytest.raises(ValueError):
            fault_config(replica_outages=-1)
        with pytest.raises(ValueError):
            fault_config(replica_outages=1, storage_replicas=2, outage_duration_s=0.0)
        with pytest.raises(ValueError):
            fault_config(retry_max=-1)
        with pytest.raises(ValueError):
            fault_config(backoff_base_s=0.0)
        with pytest.raises(ValueError):
            fault_config(breaker_threshold=0)
        with pytest.raises(ValueError):
            fault_config(breaker_cooldown_s=0.0)

    def test_link_level_faults_require_event_streams(self):
        with pytest.raises(ValueError):
            fault_config(event_streams=False, replica_outages=1)
        with pytest.raises(ValueError):
            fault_config(event_streams=False, wan_partitions=1, storage_replicas=2)
        # Churn is policy-level and works on the constant path.
        assert fault_config(event_streams=False, churn_rate=0.2).has_faults

    def test_partitions_require_two_replicas(self):
        with pytest.raises(ValueError):
            fault_config(wan_partitions=1, storage_replicas=1)

    def test_has_faults(self):
        assert not fault_config().has_faults
        assert fault_config(churn_rate=0.1).has_faults
        assert fault_config(replica_outages=1, storage_replicas=2).has_faults

    def test_cli_flags_reach_the_config(self):
        from repro.cli import _build_config, build_parser

        args = build_parser().parse_args(
            [
                "run",
                "--churn-rate", "0.1",
                "--replica-outages", "2",
                "--outage-duration", "30",
                "--storage-replicas", "2",
                "--wan-partitions", "1",
                "--partition-duration", "15",
                "--fault-seed", "42",
                "--retry-max", "5",
                "--backoff-base", "0.25",
                "--backoff-jitter", "0.2",
                "--breaker-threshold", "2",
                "--breaker-cooldown", "45",
            ]
        )
        config = _build_config(args, "cli-faults")
        assert config.churn_rate == 0.1
        assert config.replica_outages == 2
        assert config.outage_duration_s == 30.0
        assert config.wan_partitions == 1
        assert config.partition_duration_s == 15.0
        assert config.fault_seed == 42
        assert config.retry_max == 5
        assert config.backoff_base_s == 0.25
        assert config.backoff_jitter == 0.2
        assert config.breaker_threshold == 2
        assert config.breaker_cooldown_s == 45.0
        assert config.has_faults


# --------------------------------------------------------------------------- end to end
class TestFaultExperiments:
    @pytest.mark.parametrize("scoring", ["multikrum", "cosine"])
    def test_round_wise_scoring_scores_every_assignment_under_churn(self, scoring):
        """A scorer back from churn still holds assignments from the rounds it
        missed.  Each is scored against the models of its own submission
        round, so every assigned model receives a score."""
        runner = ExperimentRunner(
            ExperimentConfig(
                name=f"churn-{scoring}",
                workload=cifar10_workload(rounds=3, samples_per_class=8, image_size=8),
                clusters=gpu_cluster_configs(num_clusters=3, num_clients=2),
                mode="sync",
                rounds=3,
                seed=0,
                scoring_algorithm=scoring,
                churn_rate=0.3,
            )
        )
        runner.build()
        contract = runner.chain.runtime.get("unifyfl")
        stale = []

        def checked(aggregator):
            score_assigned = aggregator.score_assigned

            def wrapper(*args, **kwargs):
                current = runner.chain.call("unifyfl", "getCurrentRound")
                stale.extend(
                    cid
                    for cid in contract.pending_assignments.get(aggregator.address, [])
                    if contract.submissions[cid].round_number < current
                )
                timing = score_assigned(*args, **kwargs)
                assert contract.pending_assignments.get(aggregator.address, []) == []
                return timing

            return wrapper

        for aggregator in runner.aggregators:
            aggregator.score_assigned = checked(aggregator)
        runner.run()
        assert stale, "seed 0 at churn 0.3 must leave a scorer with an earlier round's model"

    def test_churn_marks_offline_rounds_in_both_paths(self):
        for event_streams in (True, False):
            runner = ExperimentRunner(
                fault_config(mode="sync", churn_rate=0.4, event_streams=event_streams)
            )
            result = runner.run()
            offline = [
                (a.name, r.round_number)
                for a in result.aggregators
                for r in a.history
                if r.offline
            ]
            assert offline, "seed 3 at churn 0.4 must drop someone"
            assert runner.fault_plan is not None
            assert runner.fault_plan.dropped_clients >= len(set(offline))
            assert result.comm_metrics["dropped_clients"] == float(
                runner.fault_plan.dropped_clients
            )

    def test_churn_is_layered_on_availability(self):
        """Churn draws are independent of the availability stream: enabling
        churn on an availability<1 run keeps the availability draws as-is
        (same RNG stream) and only adds drops."""
        clusters = edge_cluster_configs(num_clients=2)
        for cluster in clusters:
            cluster.availability = 0.7
        base = dict(
            workload=cifar10_workload(rounds=2, samples_per_class=10, image_size=8),
            clusters=clusters,
            mode="sync",
            rounds=4,
            seed=51,
            monitor_resources=False,
        )
        plain = ExperimentRunner(ExperimentConfig(name="avail", **base)).run()
        churned = ExperimentRunner(
            ExperimentConfig(name="avail+churn", churn_rate=0.3, **base)
        ).run()
        offline = lambda result: {
            (a.name, r.round_number)
            for a in result.aggregators
            for r in a.history
            if r.offline
        }
        assert offline(plain) <= offline(churned)

    def test_outage_run_accounts_fault_activity(self):
        result = ExperimentRunner(
            fault_config(
                replica_outages=2,
                storage_replicas=2,
                replication_mode="lazy",
                outage_duration_s=80.0,
                replica_selection="least-loaded",
            )
        ).run()
        metrics = result.comm_metrics
        assert metrics["fault_outage_s"] == pytest.approx(160.0)
        assert metrics["retries"] > 0
        assert metrics["failovers"] > 0
        assert metrics["breaker_trips"] > 0
        assert metrics["breaker_open_s"] > 0
        table = format_comm_table(result)
        assert "faults:" in table and "failovers" in table

    def test_failover_beats_retry_max_zero_on_two_replica_outages(self):
        """The acceptance scenario: staggered outages on both replicas.

        With resilience on, transfers aimed at the down replica fail over to
        the healthy one; with ``retry_max=0`` they wait out each recovery on
        the link schedule.  Failover must measurably reduce the makespan.
        """
        knobs = dict(
            replica_outages=2,
            storage_replicas=2,
            replication_mode="lazy",
            outage_duration_s=80.0,
            replica_selection="least-loaded",
        )
        resilient = ExperimentRunner(fault_config(**knobs)).run()
        degraded = ExperimentRunner(fault_config(retry_max=0, **knobs)).run()
        resilient_makespan = max(a.total_time for a in resilient.aggregators)
        degraded_makespan = max(a.total_time for a in degraded.aggregators)
        assert resilient.comm_metrics["failovers"] > 0
        assert degraded.comm_metrics["failovers"] == 0
        assert resilient_makespan < degraded_makespan * 0.95

    def test_csv_exports_fault_columns(self, tmp_path):
        import csv

        result = ExperimentRunner(
            fault_config(
                churn_rate=0.3,
                replica_outages=1,
                storage_replicas=2,
                outage_duration_s=80.0,
            )
        ).run()
        path = save_results_csv([result], tmp_path / "faults.csv")
        with path.open() as handle:
            rows = list(csv.DictReader(handle))
        assert rows[0]["dropped_clients"] == f"{result.comm_metrics['dropped_clients']:.0f}"
        assert float(rows[0]["dropped_clients"]) > 0
        for column in ("retries", "breaker_open_s", "failovers"):
            assert rows[0][column] != ""


# --------------------------------------------------------------- seeded-determinism fuzz
class TestSeededDeterminismFuzz:
    """Randomized fault plans replay bit-identically under the same seed."""

    def fuzzed_knobs(self, fuzz_seed: int) -> dict:
        rng = np.random.default_rng(fuzz_seed)
        return dict(
            churn_rate=float(rng.uniform(0.05, 0.4)),
            replica_outages=int(rng.integers(1, 4)),
            outage_duration_s=float(rng.uniform(20.0, 90.0)),
            wan_partitions=int(rng.integers(0, 3)),
            partition_duration_s=float(rng.uniform(10.0, 60.0)),
            storage_replicas=2,
            replication_mode=("eager", "lazy")[int(rng.integers(0, 2))],
            replica_selection=("affinity", "least-loaded")[int(rng.integers(0, 2))],
            fault_seed=int(rng.integers(0, 2**31)),
        )

    def run_once(self, mode: str, knobs: dict, tmp_path, tag: str):
        runner = ExperimentRunner(fault_config(mode=mode, **knobs))
        result = runner.run()
        events = [
            (t.source, t.destination, t.num_bytes, t.requested_at, t.started_at, t.finished_at)
            for t in runner.comm.network.scheduler.log
        ]
        csv_path = save_results_csv([result], tmp_path / f"{tag}.csv")
        return result, events, csv_path.read_text()

    @pytest.mark.parametrize("fuzz_seed", [101, 202, 303])
    def test_same_seed_replays_identically(self, fuzz_seed, tmp_path):
        knobs = self.fuzzed_knobs(fuzz_seed)
        mode = ("sync", "semi", "gossip")[fuzz_seed % 3]
        first, first_events, first_csv = self.run_once(mode, knobs, tmp_path, "first")
        second, second_events, second_csv = self.run_once(mode, knobs, tmp_path, "second")
        assert first_events == second_events
        assert first.comm_metrics == second.comm_metrics
        assert first_csv == second_csv
        for a, b in zip(first.aggregators, second.aggregators):
            assert a.total_time == b.total_time
            assert a.global_accuracy == b.global_accuracy
            assert [r.sim_time for r in a.history] == [r.sim_time for r in b.history]
            assert [r.offline for r in a.history] == [r.offline for r in b.history]

    def test_different_fault_seeds_draw_different_plans(self):
        knobs = self.fuzzed_knobs(101)
        first = ExperimentRunner(fault_config(**knobs))
        first.build()
        second = ExperimentRunner(fault_config(**{**knobs, "fault_seed": knobs["fault_seed"] + 1}))
        second.build()
        assert first.fault_plan.outages != second.fault_plan.outages
        rounds = range(1, 30)
        assert [first.fault_plan.cluster_offline("agg1", r) for r in rounds] != [
            second.fault_plan.cluster_offline("agg1", r) for r in rounds
        ]
