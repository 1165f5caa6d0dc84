"""One experiment run in a fresh interpreter; prints one JSON line.

Usage (from the repository root)::

    PYTHONPATH=src:. python3 perfbench/worker.py --workload krum_storm --seed 1 \
        --kind plain --out perfbench/out

``--kind`` is ``plain`` (timed, no wrappers), ``traced`` (every layer entry
point wrapped by :class:`perfbench.tracer.Tracer`; writes a Chrome trace
and a layer table next to the result) or ``sanitized``
(``ExperimentConfig.sanitize=True``).  Every kind saves the run's
``save_result_json`` document and reports its SHA-256, so the caller can
check that all kinds agree bit for bit.  An exception in the run is
reported as ``{"error": ...}`` instead of metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional

KINDS = ("plain", "traced", "sanitized")


def unaccounted_clusters(aggregators) -> int:
    """Clusters whose per-round ``timing.total_time`` do not sum to their clock."""
    return sum(
        1
        for aggregator in aggregators
        if not math.isclose(
            sum(r.timing.total_time for r in aggregator.history),
            aggregator.clock.now(),
            rel_tol=1e-9,
            abs_tol=1e-9,
        )
    )


def _digest(result, path: Path) -> str:
    from repro.core.reporting import save_result_json

    save_result_json(result, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class Observed:
    """Counters the traced run takes inside the tracer's own spans."""

    fingerprints: List[str] = field(default_factory=list)
    serialized_bytes: int = 0

    def attach(self, tracer) -> None:
        from repro.ml.serialization import weights_fingerprint

        def fingerprint(args, _value) -> None:
            self.fingerprints.append(weights_fingerprint(args[0].get_weights()))

        def serialized(_args, value) -> None:
            self.serialized_bytes += len(value)

        def deserialized(args, _value) -> None:
            self.serialized_bytes += len(args[0])

        tracer.observers["Model.evaluate"] = fingerprint
        tracer.observers["serialization.weights_to_bytes"] = serialized
        tracer.observers["serialization.weights_from_bytes"] = deserialized


def _layer_metrics(tracer, root: int, observed: Observed, runner, result) -> Dict[str, float]:
    """Per-layer calls and self time over the ``run()`` span, plus layer counters."""
    from perfbench.tracer import LAYER_ENTRY_POINTS, TRACER_LAYER, layer_table

    table = layer_table(tracer, root)
    metrics: Dict[str, float] = {}
    for layer in (*LAYER_ENTRY_POINTS, TRACER_LAYER):
        row = table.get(layer, {"calls": 0, "self_s": 0.0})
        if layer != "sched.policies":
            metrics[f"{layer}.calls"] = row["calls"]
        metrics[f"{layer}.self_s"] = row["self_s"]

    evaluations = metrics["ml.models.calls"]
    metrics["ml.models.distinct_ratio"] = (
        len(set(observed.fingerprints)) / evaluations if evaluations else 0.0
    )
    metrics["ml.serialization.bytes"] = observed.serialized_bytes

    fetches = sum(
        1 for i in tracer.subtree(root) if tracer.names[i] == "UnifyFLAggregator.fetch_weights"
    )
    hits = sum(a.weights_cache_hits for a in runner.aggregators)
    metrics["core.aggregator.weights_cache_hit_ratio"] = hits / fetches if fetches else 0.0
    metrics["core.aggregator.evictions"] = sum(a.weights_cache_evictions for a in runner.aggregators)
    metrics["core.aggregator.fetch_errors"] = tracer.errors.get(
        ("UnifyFLAggregator.fetch_weights", "UnifyFLAggregator.score_assigned"), 0
    )

    comm = result.comm_metrics
    metrics["chain.blockchain.wait_sim_s"] = comm.get("chain_wait", 0.0)
    metrics["sched.actors.queued_sim_s"] = comm.get("network_queued", 0.0)
    for key in ("retries", "failovers", "breaker_fast_fails"):
        metrics[f"sched.actors.{key}"] = comm.get(key, 0.0)
    metrics["core.runner.materialized_clusters"] = result.sampling.get("materialized_clusters", 0.0)
    metrics["core.timing.unaccounted_clusters"] = unaccounted_clusters(runner.aggregators)
    return metrics


def run_once(config, kind: str, out: Path, run_id: str) -> Dict[str, object]:
    """Build, run and check one experiment; return its measurements.

    Files go to ``out`` under the ``run_id`` prefix: the result document
    and, for a traced run, the Chrome trace and the layer table.
    """
    from repro.core.runner import ExperimentRunner

    if kind == "sanitized":
        config = replace(config, sanitize=True)
    tracer = None
    if kind == "traced":
        from perfbench.tracer import Tracer

        tracer = Tracer(run_id=run_id)
        observed = Observed()
        observed.attach(tracer)
        tracer.install()
    try:
        start = time.perf_counter()
        runner = ExperimentRunner(config)
        runner.build()
        built = time.perf_counter()
        root = len(tracer.names) if tracer is not None else -1
        result = runner.run()
        wall_s = time.perf_counter() - built
    finally:
        if tracer is not None:
            tracer.uninstall()

    chain = result.chain_metrics
    record: Dict[str, object] = {
        "kind": kind,
        "setup_s": built - start,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim_makespan_s": result.max_total_time,
        "tx_processed": chain.get("transactions_processed", 0.0),
        "tx_failed": chain.get("transactions_failed", 0.0),
        "unaccounted_clusters": unaccounted_clusters(runner.aggregators),
        "clusters": len(runner.aggregators),
        "digest": _digest(result, out / f"{run_id}-{kind}.result.json"),
    }
    if kind == "sanitized":
        record["sanitizer_checks"] = runner.sanitizer.total_checks if runner.sanitizer else 0
    if tracer is not None:
        metrics = _layer_metrics(tracer, root, observed, runner, result)
        record["layers"] = metrics
        record["self_sum_s"] = sum(
            value for key, value in metrics.items() if key.endswith(".self_s")
        )
        record["spans"] = len(tracer.names)
        trace_path = out / f"{run_id}.trace.json"
        trace_path.write_text(json.dumps(tracer.chrome_trace()))
        table_path = out / f"{run_id}.layers.txt"
        table_path.write_text(format_layer_table(metrics, wall_s))
        record["trace_path"] = str(trace_path)
        record["table_path"] = str(table_path)
    return record


def format_layer_table(metrics: Dict[str, float], wall_s: float) -> str:
    """Plain-text per-layer table: calls, self seconds and share of ``wall_s``."""
    layers = {key.rsplit(".", 1)[0] for key in metrics if key.endswith(".self_s")}
    lines = [f"{'layer':<26}{'calls':>10}{'self_s':>12}{'share':>9}"]
    for layer in sorted(layers, key=lambda name: -metrics[f"{name}.self_s"]):
        self_s = metrics[f"{layer}.self_s"]
        calls = metrics.get(f"{layer}.calls", "")
        lines.append(f"{layer:<26}{calls!s:>10}{self_s:>12.4f}{self_s / wall_s:>9.1%}")
    lines.append(f"{'(traced wall_s)':<26}{'':>10}{wall_s:>12.4f}")
    return "\n".join(lines) + "\n"


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--kind", choices=KINDS, default="plain")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    from perfbench.workloads import WORKLOADS

    try:
        config = WORKLOADS[args.workload](args.seed)
        record = run_once(config, args.kind, args.out, run_id=f"{args.workload}-s{args.seed}")
    except Exception:  # reported to the caller, which counts the failed run
        record = {"kind": args.kind, "error": traceback.format_exc(limit=4)}
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
