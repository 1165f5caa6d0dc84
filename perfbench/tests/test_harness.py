"""Tests of the benchmark harness itself (not of the simulator).

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

import json
from pathlib import Path

import pytest

from perfbench import run as bench_run
from perfbench import worker
from perfbench.tracer import Tracer, _resolve, layer_table, self_times
from perfbench.workloads import WORKLOADS
from repro.core.config import ExperimentConfig, cifar10_workload, gpu_cluster_configs

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def tiny_config(**overrides) -> ExperimentConfig:
    kwargs = dict(
        name="perfbench-tiny",
        workload=cifar10_workload(rounds=1, samples_per_class=4, image_size=8),
        clusters=gpu_cluster_configs(num_clusters=2, num_clients=1),
        mode="sync",
        rounds=1,
        seed=3,
        event_streams=True,
    )
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


def entry_points():
    """The current value of every attribute the tracer would patch."""
    return {(owner, name): vars(owner)[name] for owner, name, _, _ in _resolve()}


# ------------------------------------------------------------- self time
def test_self_times_of_a_nested_call_tree():
    # root [0, 10) calls a [1, 4) and b [5, 9); a calls c [2, 3); b calls
    # d [5, 6) and e [7, 9).
    starts = [0.0, 1.0, 2.0, 5.0, 5.0, 7.0]
    ends = [10.0, 4.0, 3.0, 9.0, 6.0, 9.0]
    parents = [-1, 0, 1, 0, 3, 3]
    own = self_times(starts, ends, parents)
    assert own == pytest.approx([3.0, 2.0, 1.0, 1.0, 1.0, 2.0])
    assert sum(own) == pytest.approx(ends[0] - starts[0])


def test_self_time_clips_children_and_merges_overlaps():
    # A child reaching past its parent only covers the parent's part; two
    # overlapping children cover their union once.
    starts = [0.0, 2.0, 3.0, 8.0]
    ends = [10.0, 5.0, 6.0, 12.0]
    parents = [-1, 0, 0, 0]
    own = self_times(starts, ends, parents)
    assert own[0] == pytest.approx(10.0 - (6.0 - 2.0) - (10.0 - 8.0))


def test_layer_table_sums_calls_and_self_time_per_layer():
    tracer = Tracer(run_id="synthetic")
    tracer.names = ["run", "fit", "evaluate", "fit"]
    tracer.layers = ["sched.policies", "fl.client", "ml.models", "fl.client"]
    tracer.starts = [0.0, 1.0, 1.5, 4.0]
    tracer.ends = [6.0, 2.0, 1.75, 5.0]
    tracer.parents = [-1, 0, 1, 0]
    table = layer_table(tracer, root=0)
    assert table["fl.client"] == {"calls": 2, "self_s": pytest.approx(1.75)}
    assert table["ml.models"] == {"calls": 1, "self_s": pytest.approx(0.25)}
    assert table["sched.policies"]["self_s"] == pytest.approx(4.0)


# ------------------------------------------------------ patching contract
def test_traced_run_restores_every_entry_point(tmp_path):
    before = entry_points()
    record = worker.run_once(tiny_config(), "traced", tmp_path, run_id="tiny")
    assert entry_points() == before
    assert all(after is before[key] for key, after in entry_points().items())
    layers = record["layers"]
    assert layers["fl.client.calls"] > 0 and layers["chain.blockchain.calls"] > 0
    assert record["self_sum_s"] == pytest.approx(record["wall_s"], rel=bench_run.SELF_SUM_TOLERANCE)
    trace = json.loads(Path(record["trace_path"]).read_text())
    assert trace["traceEvents"] and {e["ph"] for e in trace["traceEvents"]} == {"X"}


def test_entry_points_are_restored_when_the_run_raises(tmp_path, monkeypatch):
    from repro.core.runner import ExperimentRunner

    def boom(self, rounds=None):
        raise RuntimeError("boom")

    monkeypatch.setattr(ExperimentRunner, "run", boom)
    before = entry_points()
    with pytest.raises(RuntimeError):
        worker.run_once(tiny_config(), "traced", tmp_path, run_id="tiny")
    assert all(after is before[key] for key, after in entry_points().items())


def test_untraced_run_installs_no_wrappers(tmp_path, monkeypatch):
    def refuse(self):
        raise AssertionError("the untraced path must not install the tracer")

    monkeypatch.setattr(Tracer, "install", refuse)
    before = entry_points()
    record = worker.run_once(tiny_config(), "plain", tmp_path, run_id="tiny")
    assert all(after is before[key] for key, after in entry_points().items())
    assert not any(hasattr(value, "__wrapped__") for value in before.values())
    assert "layers" not in record


def test_traced_untraced_and_sanitized_runs_agree(tmp_path):
    digests = {
        kind: worker.run_once(tiny_config(), kind, tmp_path, run_id="tiny")["digest"]
        for kind in worker.KINDS
    }
    assert len(set(digests.values())) == 1, digests


# ------------------------------------------------------- BENCHMARK.json
def test_benchmark_json_names_every_metric_the_harness_reports(tmp_path):
    spec = json.loads(BENCHMARK.read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(bench_run.END_TO_END)
    for metric in spec["end_to_end"]:
        assert metric["unit"] == bench_run.END_TO_END[metric["name"]]
    record = worker.run_once(tiny_config(), "traced", tmp_path, run_id="tiny")
    reported = set(record["layers"]) | {"trace.wall_s", "trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == reported
    for metric in spec["per_layer"]:
        assert metric["unit"] == bench_run.per_layer_unit(metric["name"])


def test_digest_check_counts_raising_and_disagreeing_runs():
    records = [
        {"kind": "plain", "digest": "a"},
        {"kind": "plain", "digest": "a"},
        {"kind": "plain", "digest": "b"},
        {"kind": "plain", "error": "boom"},
    ]
    problems = bench_run.check_digests(records)
    assert [r["failed"] for r in records] == [False, False, True, True]
    assert len(problems) == 2
