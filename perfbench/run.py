"""Benchmark entry point: time whole experiments from outside, one interpreter each.

Usage (from the repository root)::

    python3 perfbench/run.py --workload krum_storm --seed 1 --seconds 37 --trace 0

``--trace 0`` starts untraced runs of the workload, each in a fresh
interpreter, until ``--seconds`` have passed, and reports the end-to-end
metrics as medians over the runs.  ``--trace 1`` makes one traced run, one
untraced run and one sanitized run, and reports per-layer calls, self time
and counters; its Chrome trace (open it in ui.perfetto.dev) and layer table
land in ``perfbench/out/``.

Every run saves its ``save_result_json`` document; a run counts as failed
when it raises or when its SHA-256 differs from the other runs of the same
seed.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
WORKER = ROOT / "perfbench" / "worker.py"

#: a worker still running this many seconds after the invocation started is
#: killed and counted as failed, so every invocation ends within three minutes.
DEADLINE_S = 170.0
#: the traced run's per-layer self times must sum to its wall time this closely.
SELF_SUM_TOLERANCE = 0.05

#: end-to-end metrics (``--trace 0``) and their units.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_makespan_s": "sim_s",
    "run_ok_ratio": "ratio",
    "tx_ok_ratio": "ratio",
}


def per_layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_sim_s"):
        return "sim_s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"


def _worker_env() -> Dict[str, str]:
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    # One BLAS thread per run: with one run at a time nothing exceeds two cores.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(workload: str, seed: int, kind: str, deadline: float) -> Dict[str, object]:
    """One experiment in a fresh interpreter; ``{"error": ...}`` if it failed.

    ``deadline`` is a ``time.monotonic()`` instant the worker must end by.
    """
    command = [
        sys.executable, str(WORKER),
        "--workload", workload, "--seed", str(seed), "--kind", kind, "--out", str(OUT),
    ]
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=_worker_env(), capture_output=True, text=True,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
    except subprocess.TimeoutExpired:
        return {"kind": kind, "error": "killed at the invocation deadline"}
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return {"kind": kind, "error": f"exit {done.returncode}: {done.stderr.strip()[-2000:]}"}
    return json.loads(lines[-1])


def check_digests(records: List[Dict[str, object]]) -> List[str]:
    """Mark runs that raised or disagree with the most common digest.

    Returns one message per failed run and sets ``record["failed"]``.
    """
    digests = collections.Counter(r["digest"] for r in records if "error" not in r)
    reference = digests.most_common(1)[0][0] if digests else None
    problems = []
    for record in records:
        if "error" in record:
            problems.append(f"{record['kind']} run raised: {record['error']}")
        elif record["digest"] != reference:
            problems.append(f"{record['kind']} run digest {record['digest'][:12]} != {reference[:12]}")
        else:
            record["failed"] = False
            continue
        record["failed"] = True
    return problems


def _median(records, key: str) -> float:
    return statistics.median(float(r[key]) for r in records)


def end_to_end(workload: str, seed: int, seconds: float) -> Tuple[Dict, List[str], List[str]]:
    """Untraced runs for ``seconds``; returns (result, report lines, problems).

    Another run starts only while one of median length still ends inside
    the window, so the invocation lasts about ``seconds`` however slow the
    host is, and always makes at least one run.
    """
    records: List[Dict[str, object]] = []
    durations: List[float] = []
    started = time.monotonic()
    window = min(seconds, DEADLINE_S / 2)
    while not durations or time.monotonic() - started + statistics.median(durations) <= window:
        before = time.monotonic()
        records.append(run_worker(workload, seed, "plain", started + DEADLINE_S))
        durations.append(time.monotonic() - before)
    problems = check_digests(records)
    ok = [r for r in records if not r["failed"]]
    failed = len(records) - len(ok)
    if not ok:
        return {}, [], problems
    tx_fail_ratio = statistics.median(
        float(r["tx_failed"]) / float(r["tx_processed"]) if float(r["tx_processed"]) else 0.0
        for r in ok
    )
    values = {
        "wall_s": _median(ok, "wall_s"),
        "setup_s": _median(ok, "setup_s"),
        "peak_rss_mb": _median(ok, "peak_rss_mb"),
        "sim_makespan_s": _median(ok, "sim_makespan_s"),
        "run_ok_ratio": len(ok) / len(records),
        "tx_ok_ratio": 1.0 - tx_fail_ratio,
    }
    report = [f"workload {workload} seed {seed}: {len(records)} untraced runs, {failed} failed"]
    for name in ("wall_s", "setup_s", "peak_rss_mb", "sim_makespan_s"):
        samples = sorted(float(r[name]) for r in ok)
        report.append(
            f"  {name:<16}{values[name]:>12.4f} {END_TO_END[name]:<6}"
            f" median of n={len(samples)} (min {samples[0]:.4f}, max {samples[-1]:.4f})"
        )
    report.append(f"  {'run_fail_ratio':<16}{failed / len(records):>12.4f} ratio")
    report.append(f"  {'tx_fail_ratio':<16}{tx_fail_ratio:>12.4f} ratio")
    report.append(
        f"  unaccounted_clusters {ok[0]['unaccounted_clusters']}/{ok[0]['clusters']}"
        f" (known defect, counted only); digest {ok[0]['digest'][:16]}"
    )
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()},
    }
    return result, report, problems


def per_layer(workload: str, seed: int) -> Tuple[Dict, List[str], List[str]]:
    """A traced, an untraced and a sanitized run of one seed."""
    deadline = time.monotonic() + DEADLINE_S
    records = [run_worker(workload, seed, kind, deadline) for kind in ("traced", "plain", "sanitized")]
    problems = check_digests(records)
    traced, plain, sanitized = records
    if not traced["failed"]:
        gap = abs(float(traced["self_sum_s"]) - float(traced["wall_s"])) / float(traced["wall_s"])
        if gap > SELF_SUM_TOLERANCE:
            traced["failed"] = True
            problems.append(f"layer self times miss traced wall_s by {gap:.1%}")
    if not sanitized["failed"] and not sanitized.get("sanitizer_checks"):
        sanitized["failed"] = True
        problems.append("sanitized run made no sanitizer checks")
    failed = sum(1 for r in records if r["failed"])
    if traced["failed"] or plain["failed"]:
        return {}, [], problems
    values: Dict[str, float] = dict(traced["layers"])
    values["trace.wall_s"] = float(traced["wall_s"])
    values["trace.overhead_s"] = float(traced["wall_s"]) - float(plain["wall_s"])
    report = [
        f"workload {workload} seed {seed}: traced wall_s {traced['wall_s']:.4f},"
        f" untraced {plain['wall_s']:.4f}, overhead {values['trace.overhead_s']:+.4f} s;"
        f" self times sum to {traced['self_sum_s']:.4f} s over {traced['spans']} spans",
        f"  chrome trace: {traced['trace_path']}",
    ]
    report.extend("  " + line for line in Path(traced["table_path"]).read_text().splitlines())
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": per_layer_unit(name)} for name, value in values.items()
        },
    }
    return result, report, problems


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=37.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    if args.trace:
        result, report, problems = per_layer(args.workload, args.seed)
    else:
        result, report, problems = end_to_end(args.workload, args.seed, args.seconds)
    for line in problems:
        print(f"perfbench: {line}", file=sys.stderr)
    if not result:
        print("perfbench: no run succeeded; no result", file=sys.stderr)
        return 1
    for line in report:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
