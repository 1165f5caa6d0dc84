"""In-memory span tracer that wraps the simulator's layer entry points.

The tracer patches public entry points of ``repro`` modules at class level
(plus the two serialization functions where ``repro.core.aggregator``
imports them by name), records one span per call and restores every
original on :meth:`Tracer.uninstall`.  Nothing under ``src/`` knows it
exists.  Spans live in flat lists until the run ends; :func:`self_times`
turns them into per-span self time and :meth:`Tracer.chrome_trace` into
Chrome trace-event JSON that Perfetto (ui.perfetto.dev) opens.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: layer name -> entry points, as ``(module, class, methods)``.  ``class`` of
#: ``"*"`` means every class defined in the module that defines one of the
#: methods itself; ``None`` means module-level functions.  ``methods`` of
#: ``("*",)`` means every public function the class defines itself.  The
#: comment above each layer is the end-to-end metric it should move, and on
#: which workload, written down before any change to it is measured.
LAYER_ENTRY_POINTS: Dict[str, Tuple[Tuple[str, Optional[str], Tuple[str, ...]], ...]] = {
    # wall_s on sampled_sync.
    "fl.client": (("repro.fl.client", "Client", ("fit",)),),
    # wall_s on sampled_sync and async_churn; peak_rss_mb on sampled_sync
    # (im2col cache).  ``distinct_ratio`` is the evaluation-memo target.
    "ml.models": (("repro.ml.models", "*", ("evaluate",)),),
    # wall_s on krum_storm only.
    "core.scorer": (("repro.core.scorer", "*", ("score",)),),
    # wall_s on every workload, in proportion to its self time.
    "fl.strategy": (("repro.fl.strategy", "*", ("aggregate", "aggregate_stream")),),
    # wall_s on krum_storm and async_churn (many pulls per round).
    "ml.serialization": (
        ("repro.core.aggregator", None, ("weights_to_bytes", "weights_from_bytes")),
    ),
    # wall_s on krum_storm and async_churn.
    "ipfs.node": (("repro.ipfs.node", "IPFSNode", ("add", "get")),),
    # wall_s on async_churn (weights cache hits and evictions).
    "core.aggregator": (
        (
            "repro.core.aggregator",
            "UnifyFLAggregator",
            (
                "register",
                "pull_candidates",
                "fetch_weights",
                "build_global_model",
                "local_training_round",
                "submit_local_model",
                "score_assigned",
                "evaluate_weights",
                "record_round",
            ),
        ),
    ),
    # wall_s on krum_storm; sim_makespan_s through the simulated wait.
    "chain.blockchain": (("repro.chain.blockchain", "Blockchain", ("send", "call", "mine_until_empty")),),
    # sim_makespan_s on krum_storm and async_churn (queueing, retries,
    # failovers, breaker fast-fails).
    "sched.actors": (("repro.sched.actors", "CommFabric", ("*",)),),
    # wall_s on krum_storm and async_churn; no change on sampled_sync.
    "simnet.network": (
        (
            "repro.simnet.network",
            "LinkScheduler",
            ("outstanding_backlog", "preview", "estimate", "transfer", "plan_and_commit"),
        ),
    ),
    # wall_s and peak_rss_mb on sampled_sync; zero calls on the dense workloads.
    "core.runner.materialise": (("repro.core.runner", "ClientPopulation", ("round_aggregators",)),),
    # The root: whatever ``run()`` spends outside every other layer is the
    # round policies, the kernel and the contract logic they drive.
    "sched.policies": (("repro.core.runner", "ExperimentRunner", ("run",)),),
}

#: the layer of spans the tracer opens around its own bookkeeping.
TRACER_LAYER = "trace"


def _resolve() -> List[Tuple[object, str, str, str]]:
    """``(owner, attribute, layer, span name)`` for every entry point."""
    targets = []
    for layer, entries in LAYER_ENTRY_POINTS.items():
        for module_name, class_name, methods in entries:
            module = importlib.import_module(module_name)
            if class_name is None:
                for name in methods:
                    home = getattr(module, name).__module__.rsplit(".", 1)[-1]
                    targets.append((module, name, layer, f"{home}.{name}"))
                continue
            if class_name == "*":
                owners = [
                    cls
                    for _, cls in inspect.getmembers(module, inspect.isclass)
                    if cls.__module__ == module_name
                ]
            else:
                owners = [getattr(module, class_name)]
            for cls in owners:
                if methods == ("*",):
                    names = [
                        name
                        for name, value in vars(cls).items()
                        if not name.startswith("_") and inspect.isfunction(value)
                    ]
                else:
                    names = [name for name in methods if name in vars(cls)]
                for name in names:
                    targets.append((cls, name, layer, f"{cls.__name__}.{name}"))
    return targets


class Tracer:
    """Records spans around the layer entry points while installed.

    Spans are parallel lists indexed by span id: ``names``, ``layers``,
    ``starts``, ``ends`` (``time.perf_counter`` seconds) and ``parents``
    (``-1`` for a root).  ``errors`` counts exceptions that left a span, per
    ``(span name, parent span name)``.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: List[str] = []
        self.layers: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.errors: Dict[Tuple[str, str], int] = {}
        #: span name -> callback ``(args, value) -> None`` run after the
        #: wrapped call returns, inside a span of the tracer's own layer so
        #: its cost is visible and never charged to the program's layers.
        self.observers: Dict[str, Callable] = {}
        self._stack: List[int] = []
        #: ``(owner, attribute, original value)`` of every patched attribute.
        self._patches: List[Tuple[object, str, object]] = []

    # ----------------------------------------------------------- recording
    def _open(self, name: str, layer: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.layers.append(layer)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, function: Callable, name: str, layer: str) -> Callable:
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            index = tracer._open(name, layer)
            try:
                value = function(*args, **kwargs)
            except BaseException:
                parent = tracer.parents[index]
                key = (name, tracer.names[parent] if parent >= 0 else "")
                tracer.errors[key] = tracer.errors.get(key, 0) + 1
                raise
            finally:
                tracer._close(index)
            observer = tracer.observers.get(name)
            if observer is not None:
                index = tracer._open(f"{name}:observe", TRACER_LAYER)
                try:
                    observer(args, value)
                finally:
                    tracer._close(index)
            return value

        return traced

    # ------------------------------------------------------ install / undo
    def install(self) -> None:
        """Patch every entry point of :data:`LAYER_ENTRY_POINTS`."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        try:
            for owner, attribute, layer, span_name in _resolve():
                original = vars(owner)[attribute]
                self._patches.append((owner, attribute, original))
                setattr(owner, attribute, self._wrap(original, span_name, layer))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        """Put every patched attribute back, last patched first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -------------------------------------------------------------- output
    def subtree(self, root: int) -> List[int]:
        """Span ids of ``root`` and all its descendants (ids are in open order)."""
        inside = {root}
        for index in range(root + 1, len(self.names)):
            if self.parents[index] in inside:
                inside.add(index)
        return sorted(inside)

    def chrome_trace(self) -> Dict[str, object]:
        """Chrome trace-event JSON (complete ``X`` events, microseconds)."""
        origin = min(self.starts) if self.starts else 0.0
        events = [
            {
                "name": self.names[i],
                "cat": self.layers[i],
                "ph": "X",
                "ts": (self.starts[i] - origin) * 1e6,
                "dur": (self.ends[i] - self.starts[i]) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"span": i, "parent": self.parents[i], "run_id": self.run_id},
            }
            for i in range(len(self.names))
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms", "otherData": {"run_id": self.run_id}}


def self_times(
    starts: Sequence[float], ends: Sequence[float], parents: Sequence[int]
) -> List[float]:
    """Each span's duration minus the part of it its child spans cover.

    Children are clipped to the parent's interval and overlapping children
    are merged, so the result never goes below zero and, for properly
    nested single-threaded spans, the self times of a tree sum to its root's
    duration.
    """
    children: Dict[int, List[int]] = {}
    for index, parent in enumerate(parents):
        if parent >= 0:
            children.setdefault(parent, []).append(index)
    out = []
    for index, (start, end) in enumerate(zip(starts, ends)):
        covered = 0.0
        cursor = start
        for child in sorted(children.get(index, ()), key=lambda c: starts[c]):
            lo = max(starts[child], cursor)
            hi = min(ends[child], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def layer_table(tracer: Tracer, root: int) -> Dict[str, Dict[str, float]]:
    """``{layer: {"calls", "self_s"}}`` over the subtree of span ``root``."""
    spans = tracer.subtree(root)
    own = self_times(tracer.starts, tracer.ends, tracer.parents)
    table: Dict[str, Dict[str, float]] = {}
    for index in spans:
        row = table.setdefault(tracer.layers[index], {"calls": 0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += own[index]
    return table
