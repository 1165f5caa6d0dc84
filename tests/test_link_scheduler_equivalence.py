"""Property test: the optimized LinkScheduler equals the from-scratch reference.

Every acceleration inside :class:`repro.simnet.network.LinkScheduler` — the
per-epoch plan memo, the local saturation walk over the sorted boundaries,
the running prefix-max behind the backlog query, the tail-append fast path,
the running totals — must be invisible: randomized transfer workloads (with
and without outages and WAN partitions) driven through the optimized
scheduler and through :class:`repro.simnet.reference.ReferenceLinkScheduler`
have to produce bit-identical placements, backlog readings and
queued/wire-time totals.  Hand-built schedules pin the boundary cases of the
saturation walk.  Exact ``==`` throughout; no tolerances.
"""

from __future__ import annotations

import random

import pytest

from repro.simnet.network import LinkScheduler, NetworkLink, NetworkModel
from repro.simnet.reference import ReferenceLinkScheduler


def _build_pair(seed: int, num_endpoints: int, max_capacity: int):
    rng = random.Random(seed)
    network = NetworkModel(
        default_link=NetworkLink(latency_s=0.002, bandwidth_bytes_per_s=50e6)
    )
    endpoints = [f"e{i}" for i in range(num_endpoints)]
    capacities = {name: rng.randint(1, max_capacity) for name in endpoints}
    fast = LinkScheduler(network, capacities=dict(capacities))
    slow = ReferenceLinkScheduler(network, capacities=dict(capacities))
    return rng, endpoints, fast, slow


SITES = ["north", "south", "east"]


def _random_fault(rng, endpoints, schedulers, now: float):
    """Declare one random outage, site move or partition on every scheduler."""
    kind = rng.choice(("outage", "site", "partition"))
    windows = []
    for _ in range(rng.randint(0, 3)):
        start = max(0.0, now + rng.uniform(-5.0, 25.0))
        windows.append((start, start + rng.uniform(0.1, 6.0)))
    if kind == "outage":
        endpoint = rng.choice(endpoints)
        for sched in schedulers:
            sched.set_outages(endpoint, windows)
    elif kind == "site":
        endpoint, site = rng.choice(endpoints), rng.choice(SITES)
        for sched in schedulers:
            sched.set_site(endpoint, site)
    else:
        site_a, site_b = rng.sample(SITES, 2)
        for sched in schedulers:
            sched.set_partition(site_a, site_b, windows)


def _random_workload(rng, endpoints, fast, slow, operations: int, faults: bool = False):
    """Drive both schedulers through one interleaved random op stream.

    With ``faults`` about one operation in ten first declares an outage, a
    site move or a WAN partition on both schedulers.
    """
    now = 0.0
    for _ in range(operations):
        if faults and rng.random() < 0.1:
            _random_fault(rng, endpoints, (fast, slow), now)
        op = rng.random()
        source = rng.choice(endpoints)
        destination = rng.choice(endpoints)
        num_bytes = rng.randint(1, 60_000_000)
        # Mostly forward-moving time with occasional jumps back, so both the
        # tail-append fast path and the into-the-schedule placements run.
        now = max(0.0, now + rng.uniform(-2.0, 6.0))
        floor = now + rng.uniform(0.0, 3.0) if rng.random() < 0.3 else None
        if op < 0.35:
            a = fast.estimate(source, destination, num_bytes, now)
            b = slow.estimate(source, destination, num_bytes, now)
            assert a == b
            # Repeat at the same epoch: the memoized answer must not drift.
            assert fast.estimate(source, destination, num_bytes, now) == a
        elif op < 0.5:
            a = fast.preview(source, destination, num_bytes, now, earliest_start=floor)
            b = slow.preview(source, destination, num_bytes, now, earliest_start=floor)
            assert a == b
        elif op < 0.65:
            probe = rng.choice(endpoints)
            at = max(0.0, now + rng.uniform(-4.0, 4.0))
            assert fast.outstanding_backlog(probe, at) == slow.outstanding_backlog(probe, at)
        else:
            a = fast.transfer(source, destination, num_bytes, now, earliest_start=floor)
            b = slow.transfer(source, destination, num_bytes, now, earliest_start=floor)
            assert a == b
        assert fast.total_queued_time == slow.total_queued_time
        assert fast.total_wire_time == slow.total_wire_time


@pytest.mark.parametrize("seed", range(8))
def test_randomized_equivalence(seed):
    rng, endpoints, fast, slow = _build_pair(seed, num_endpoints=5, max_capacity=4)
    _random_workload(rng, endpoints, fast, slow, operations=220)
    assert fast.log == slow.log
    for endpoint in endpoints:
        assert fast.busy_intervals(endpoint) == slow.busy_intervals(endpoint)


@pytest.mark.parametrize("seed", range(100, 106))
def test_randomized_equivalence_with_faults(seed):
    """Outages and partitions block placements identically in both schedulers."""
    rng, endpoints, fast, slow = _build_pair(seed, num_endpoints=5, max_capacity=3)
    _random_workload(rng, endpoints, fast, slow, operations=220, faults=True)
    assert fast.log == slow.log
    for endpoint in endpoints:
        assert fast.busy_intervals(endpoint) == slow.busy_intervals(endpoint)


def test_fault_windows_delay_the_oracle_too():
    """An outage then a partition push both schedulers past the windows."""
    network = NetworkModel(default_link=NetworkLink(latency_s=0.0, bandwidth_bytes_per_s=1e6))
    placements = []
    for sched in (LinkScheduler(network), ReferenceLinkScheduler(network)):
        sched.set_outages("replica", [(1.0, 5.0)])
        sched.set_site("replica", "north")
        sched.set_site("c0", "south")
        sched.set_partition("north", "south", [(6.0, 7.0)])
        first = sched.transfer("c0", "replica", 500_000, 0.95)
        second = sched.transfer("c0", "replica", 500_000, 5.95)
        placements.append((first, second))
    (first, second), oracle = placements
    assert (first.started_at, second.started_at) == (5.0, 7.0)
    assert (first, second) == oracle


def _unit_pair(capacity: int):
    """Both schedulers over 1 MB/s zero-latency links: ``seconds * 1e6`` bytes."""
    network = NetworkModel(default_link=NetworkLink(latency_s=0.0, bandwidth_bytes_per_s=1e6))
    return LinkScheduler(network, capacities={"s": capacity}), ReferenceLinkScheduler(
        network, capacities={"s": capacity}
    )


def _commit(pair, source: str, seconds: float, at: float):
    fast, slow = pair
    placed = fast.transfer(source, "s", int(seconds * 1e6), at)
    assert placed == slow.transfer(source, "s", int(seconds * 1e6), at)
    return placed


def _assert_queries_agree(pair, times, durations=(0.0, 0.5, 1.0, 2.0, 3.0)):
    """Every preview and backlog probe on ``s`` matches the oracle exactly."""
    fast, slow = pair
    for at in times:
        assert fast.outstanding_backlog("s", at) == slow.outstanding_backlog("s", at)
        # The self-transfer of 0 bytes is the zero-length window.
        assert fast.preview("s", "s", 0, at) == slow.preview("s", "s", 0, at)
        for seconds in durations:
            num_bytes = int(seconds * 1e6)
            assert fast.preview("q", "s", num_bytes, at) == slow.preview("q", "s", num_bytes, at)


def test_back_to_back_reservations_at_full_capacity():
    """A reservation ending exactly when another starts leaves no saturated instant."""
    pair = _unit_pair(capacity=2)
    _commit(pair, "a", 2.0, 0.0)
    _commit(pair, "b", 4.0, 0.0)
    assert _commit(pair, "c", 2.0, 0.0).started_at == 2.0
    _assert_queries_agree(pair, [0.0, 1.0, 1.5, 2.0, 2.5, 3.9, 4.0, 5.0])
    # [0, 2) and [2, 4) are both full; a 1 s request at 1.0 jumps to 4.0.
    assert pair[0].preview("q", "s", 1_000_000, 1.0).started_at == 4.0


def test_saturated_region_running_past_the_window():
    pair = _unit_pair(capacity=2)
    _commit(pair, "a", 10.0, 0.0)
    _commit(pair, "b", 10.0, 0.0)
    assert pair[0].preview("q", "s", 1_000_000, 2.0).started_at == 10.0
    _assert_queries_agree(pair, [0.0, 2.0, 9.5, 10.0, 11.0])


def test_region_starting_at_the_window_end_does_not_conflict():
    pair = _unit_pair(capacity=2)
    _commit(pair, "a", 3.0, 5.0)
    _commit(pair, "b", 3.0, 5.0)
    assert pair[0].preview("q", "s", 2_000_000, 3.0).started_at == 3.0
    assert pair[0].preview("q", "s", 2_000_001, 3.0).started_at == 8.0
    _assert_queries_agree(pair, [2.0, 3.0, 4.0, 5.0, 6.0])


@pytest.mark.parametrize("before, after, queued_start", [(2, 3, 4.0), (1, 2, 8.0)])
def test_capacity_raised_on_an_endpoint_with_traffic(before, after, queued_start):
    pair = _unit_pair(capacity=before)
    _commit(pair, "a", 4.0, 0.0)
    _commit(pair, "b", 4.0, 1.0)
    assert _commit(pair, "c", 1.0, 1.0).started_at == queued_start
    for sched in pair:
        sched.set_capacity("s", after)
    assert _commit(pair, "d", 1.0, 1.0).started_at == 1.0
    _assert_queries_agree(pair, [0.0, 1.0, 1.5, 2.0, 4.0, 4.5, 5.0, 8.0, 9.0])


def test_capacity_two_storm_with_backward_jumps():
    """Most commits land inside the existing schedule, not past its tail."""
    rng = random.Random(2024)
    pair = _unit_pair(capacity=2)
    inside = 0
    for i in range(300):
        latest = max(pair[1].busy_intervals("s"), key=lambda iv: iv[1], default=(0.0, 0.0))[1]
        at = rng.uniform(0.0, 40.0)
        placed = _commit(pair, f"c{i % 7}", rng.choice((0.25, 0.5, 1.0, 1.5)), at)
        inside += placed.started_at < latest
        probe = rng.uniform(0.0, 45.0)
        assert pair[0].outstanding_backlog("s", probe) == pair[1].outstanding_backlog("s", probe)
    assert inside > 150
    assert pair[0].log == pair[1].log


def test_serial_only_equivalence():
    """All-serial endpoints exercise the capacity-1 placement path."""
    rng, endpoints, fast, slow = _build_pair(seed=99, num_endpoints=4, max_capacity=1)
    _random_workload(rng, endpoints, fast, slow, operations=200)
    assert fast.log == slow.log


def test_estimate_then_commit_reuses_plan():
    """The estimate-then-transfer pattern commits exactly the previewed slot."""
    network = NetworkModel()
    fast = LinkScheduler(network, capacities={"storage": 2})
    planned = fast.preview("c0", "storage", 10_000_000, 5.0)
    epoch_before = fast.epoch
    committed = fast.transfer("c0", "storage", 10_000_000, 5.0)
    assert committed == planned
    assert fast.epoch == epoch_before + 1
    # A new query after the commit replans against the grown schedule.
    assert fast.preview("c1", "storage", 10_000_000, 5.0).started_at >= 5.0


def test_capacity_change_invalidates_placement_memo():
    fast = LinkScheduler(NetworkModel())
    slow = ReferenceLinkScheduler(NetworkModel())
    for sched in (fast, slow):
        sched.transfer("a", "b", 30_000_000, 0.0)
    before_fast = fast.estimate("a", "b", 30_000_000, 0.0)
    before_slow = slow.estimate("a", "b", 30_000_000, 0.0)
    assert before_fast == before_slow
    for sched in (fast, slow):
        sched.set_capacity("c", 3)
        sched.transfer("a", "c", 30_000_000, 0.0)
    assert fast.estimate("a", "b", 30_000_000, 0.0) == slow.estimate("a", "b", 30_000_000, 0.0)


def test_running_totals_match_log_sums():
    rng, endpoints, fast, _ = _build_pair(seed=7, num_endpoints=3, max_capacity=3)
    now = 0.0
    for _ in range(150):
        now += rng.uniform(0.0, 2.0)
        fast.transfer(rng.choice(endpoints), rng.choice(endpoints), rng.randint(1, 40_000_000), now)
    assert fast.total_queued_time == sum(t.queued_time for t in fast.log)
    assert fast.total_wire_time == sum(t.duration for t in fast.log)
