"""From-scratch reference scheduler: the oracle behind the fast one.

:class:`ReferenceLinkScheduler` recomputes every placement query from the
committed reservations and the declared faults alone: a full capacity sweep
instead of the local saturation walk, suffix sums instead of the running
prefix-max, fault windows re-merged from the raw outage and partition
declarations, no plan memo, no running totals, no tail fast path.  It is the
pre-acceleration behaviour kept alive for two jobs:

* the property test (``tests/test_link_scheduler_equivalence.py``) drives
  randomized workloads through both schedulers and asserts bit-identical
  placements and totals, so every shortcut in :class:`~repro.simnet.network.
  LinkScheduler` stays an acceleration rather than a semantic change;
* the perf harness (``repro bench``) replays the same workload through both
  and reports the measured speedup, pinning the trajectory in
  ``BENCH_sched.json``.

The numeric decompositions (suffix-sum-plus-straddle backlog, log-order
totals) deliberately mirror the optimized code term for term: floating-point
addition is not associative, so the oracle must add the same numbers in the
same order to be bit-exact, not just mathematically equal.
"""

from __future__ import annotations

import bisect
from itertools import accumulate
from typing import List, Optional, Tuple

from .faults import merge_windows
from .network import LinkScheduler, ScheduledTransfer


class ReferenceLinkScheduler(LinkScheduler):
    """A :class:`LinkScheduler` with every acceleration switched off."""

    def outstanding_backlog(self, endpoint: str, at: float) -> float:
        """Backlog recomputed from the raw reservations on every call."""
        intervals = self._busy.get(endpoint)
        if not intervals:
            return 0.0
        starts = [start for start, _ in intervals]
        suffix = list(accumulate(end - start for start, end in reversed(intervals)))
        suffix.reverse()
        prefix_max_end = list(accumulate((end for _, end in intervals), max))
        first = bisect.bisect_left(starts, at)
        total = suffix[first] if first < len(starts) else 0.0
        for i in range(first - 1, -1, -1):
            if prefix_max_end[i] <= at:
                break
            end = intervals[i][1]
            if end > at:
                total += end - at
        return total

    def _saturated_regions(self, endpoint: str) -> List[Tuple[float, float]]:
        """The capacity sweep, rerun on every call."""
        intervals = self._busy.get(endpoint)
        if not intervals:
            return []
        cap = self.capacity(endpoint)
        if cap == 1:
            return intervals
        boundaries = self._boundaries[endpoint]
        saturated: List[Tuple[float, float]] = []
        active = 0
        block_start: Optional[float] = None
        for time, delta in boundaries:
            active += delta
            if active >= cap and block_start is None:
                block_start = time
            elif active < cap and block_start is not None:
                if time > block_start:
                    saturated.append((block_start, time))
                block_start = None
        return saturated

    def _path_windows(self, source: str, destination: str) -> List[Tuple[float, float]]:
        """The path's outage and partition windows, merged from the raw declarations."""
        endpoints = [source] if source == destination else [source, destination]
        windows = [window for endpoint in endpoints for window in self._outages.get(endpoint, [])]
        site_a = self._sites.get(source, source)
        site_b = self._sites.get(destination, destination)
        if site_a != site_b:
            windows += self._partitions.get(tuple(sorted((site_a, site_b))), [])
        return merge_windows(windows)

    def _earliest_start(
        self,
        endpoints: List[str],
        at: float,
        duration: float,
        fault_windows: Optional[List[Tuple[float, float]]] = None,
    ) -> float:
        """The jump loop without the past-the-timeline fast path."""
        blocked = [self._saturated_regions(endpoint) for endpoint in endpoints]
        blocked.append(fault_windows or [])
        start = at
        moved = True
        while moved:
            moved = False
            for intervals in blocked:
                conflict_end = self._conflict_end(intervals, start, start + duration)
                if conflict_end is not None:
                    start = conflict_end
                    moved = True
                    break
        return start

    def _plan(
        self,
        source: str,
        destination: str,
        num_bytes: int,
        at: float,
        earliest_start: Optional[float] = None,
    ) -> ScheduledTransfer:
        """Every query replans from scratch — no per-epoch memo."""
        duration = self.network.transfer_time(source, destination, num_bytes)
        endpoints = [source] if source == destination else [source, destination]
        floor = at if earliest_start is None else max(at, earliest_start)
        start = self._earliest_start(
            endpoints, floor, duration, self._path_windows(source, destination)
        )
        return ScheduledTransfer(
            source=source,
            destination=destination,
            num_bytes=num_bytes,
            requested_at=at,
            started_at=start,
            finished_at=start + duration,
        )

    @property
    def total_queued_time(self) -> float:
        """Summed over the log on every read."""
        return sum(t.queued_time for t in self.log)

    @property
    def total_wire_time(self) -> float:
        """Summed over the log on every read."""
        return sum(t.duration for t in self.log)
