"""The UnifyFL cluster aggregator.

Each participating organisation runs one :class:`UnifyFLAggregator`.  It plays
both roles described in Section 3.1 of the paper:

* **Trainer / aggregator** — pulls the other silos' models and scores from the
  smart contract, applies its own scoring + aggregation policies to build a
  new global model, runs one round of local FL with its clients, aggregates
  their updates into a local model, stores that model on IPFS and submits the
  CID to the contract.
* **Scorer** — when the contract assigns it models to score, it pulls the
  weights from IPFS, evaluates them with its scoring algorithm, and submits
  the scores.

All durations are tracked on the aggregator's simulated clock through the
:class:`~repro.core.timing.ClusterTimingModel`, and resource usage samples are
pushed to the shared :class:`~repro.simnet.resources.ResourceMonitor`.

When the experiment enables event streams, the aggregator charges its
pull/store/chain costs through the shared
:class:`~repro.sched.actors.CommFabric` instead of the constant-cost timing
model: uploads and downloads queue on contended links, and contract calls
wait for the next sealed block.  With no fabric attached (the default) the
constant-cost arithmetic is byte-for-byte the same as before.
"""

from __future__ import annotations

import bisect
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.chain.account import Account
from repro.chain.blockchain import Blockchain
from repro.core.attacks import ModelPoisoningAttack
from repro.core.config import ClusterConfig, WorkloadConfig
from repro.core.policies import (
    AggregationPolicy,
    CandidateModel,
    ScoringPolicy,
    build_aggregation_policy,
    build_scoring_policy,
)
from repro.core.scorer import Scorer
from repro.core.timing import ClusterTimingModel, RoundTiming
from repro.datasets.synthetic import Dataset
from repro.fl.client import Client
from repro.fl.strategy import Strategy, build_strategy
from repro.ipfs.node import IPFSNode
from repro.ml.models import Model
from repro.ml.serialization import weights_from_bytes, weights_to_bytes
from repro.sched.actors import CommFabric
from repro.simnet.clock import SimClock
from repro.simnet.faults import FaultPlan
from repro.simnet.resources import ResourceMonitor

Weights = List[np.ndarray]

#: deserialized models kept per aggregator; long gossip runs touch hundreds
#: of CIDs, so the cache is an LRU bounded to the working set of a few rounds
#: rather than the whole run's history.
WEIGHTS_CACHE_CAPACITY = 32


@dataclass
class AggregatorRoundRecord:
    """Per-round metrics for one aggregator (one row-slice of Tables 5/6)."""

    round_number: int
    global_accuracy: float
    global_loss: float
    local_accuracy: float
    local_loss: float
    models_pulled: int
    models_scored: int
    timing: RoundTiming
    sim_time: float
    straggled: bool = False
    #: True when the organisation was down for this round (fault injection).
    offline: bool = False


class UnifyFLAggregator:
    """One organisation's aggregator participating in UnifyFL."""

    def __init__(
        self,
        config: ClusterConfig,
        workload: WorkloadConfig,
        account: Account,
        chain: Blockchain,
        ipfs_node: IPFSNode,
        model_template: Model,
        clients: Sequence[Client],
        scorer: Scorer,
        eval_data: Dataset,
        timing_model: Optional[ClusterTimingModel] = None,
        strategy: Optional[Strategy] = None,
        aggregation_policy: Optional[AggregationPolicy] = None,
        scoring_policy: Optional[ScoringPolicy] = None,
        attack: Optional[ModelPoisoningAttack] = None,
        resource_monitor: Optional[ResourceMonitor] = None,
        comm: Optional["CommFabric"] = None,
        seed: int = 0,
        faults: Optional["FaultPlan"] = None,
        streaming_aggregation: bool = False,
    ):
        if not clients:
            raise ValueError("an aggregator needs at least one client")
        if config.malicious and attack is None:
            raise ValueError("a malicious cluster requires an attack instance")
        self.config = config
        self.workload = workload
        self.account = account
        self.chain = chain
        self.ipfs = ipfs_node
        self.model = model_template.clone()
        self.eval_model = model_template.clone()
        self.clients = list(clients)
        self.scorer = scorer
        self.eval_data = eval_data
        self.timing = timing_model or ClusterTimingModel(workload)
        self.strategy = strategy or build_strategy(
            config.strategy, streaming=streaming_aggregation
        )
        self.aggregation_policy = aggregation_policy or build_aggregation_policy(
            config.aggregation_policy, k=config.policy_k
        )
        self.scoring_policy = scoring_policy or build_scoring_policy(config.scoring_policy)
        self.attack = attack
        self.monitor = resource_monitor
        #: the shared event-stream communication fabric, or ``None`` for the
        #: constant-cost timing path (the default).
        self.comm = comm
        #: the run's fault plan; churn draws come from it (``None`` when the
        #: experiment injects no faults).
        self.faults = faults
        self.clock = SimClock()
        self._rng = np.random.default_rng(seed)

        self.global_weights: Weights = self.model.get_weights()
        self.local_weights: Weights = self.model.get_weights()
        self.history: List[AggregatorRoundRecord] = []
        self.own_cids: List[str] = []
        self._last_self_score: float = float("nan")
        self._weights_cache: "OrderedDict[str, Weights]" = OrderedDict()
        self.weights_cache_hits = 0
        self.weights_cache_evictions = 0

    # ------------------------------------------------------------------ identity
    @property
    def name(self) -> str:
        return self.config.name

    @property
    def address(self) -> str:
        return self.account.address

    # ------------------------------------------------------------------ setup
    def register(self, mine: bool = True) -> None:
        """Register this aggregator with the orchestrator contract."""
        self.chain.send(self.account, "unifyfl", "registerAggregator")
        if mine:
            self.chain.mine_until_empty()

    def is_available(self, round_number: Optional[int] = None) -> bool:
        """Draw whether the organisation is up for the coming round.

        Used by the orchestrators for fault injection: with
        ``config.availability < 1`` the organisation occasionally sits a whole
        round out (no training, no submission, no scoring).  When the run
        carries a :class:`~repro.simnet.faults.FaultPlan`, its seeded churn
        draw for ``(cluster, round_number)`` is consulted first — a churned
        round is offline regardless of the availability draw, and the drop
        is accounted in the plan.  The legacy availability stream is only
        advanced when it exists (``availability < 1``), so enabling churn
        does not perturb availability-driven runs and vice versa.
        """
        available = True
        if self.config.availability < 1.0:
            available = bool(self._rng.random() < self.config.availability)
        if (
            self.faults is not None
            and round_number is not None
            and self.faults.cluster_offline(self.name, round_number)
        ):
            return False
        return available

    # ------------------------------------------------------------- global model
    def pull_candidates(
        self,
        before_time: Optional[float] = None,
        max_rounds: int = 2,
        prefer_scored: bool = False,
    ) -> List[CandidateModel]:
        """Query the contract for available peer models and their score lists.

        Aggregators collaborate on "the latest set of models" (Algorithm 1's
        ``getLatestModelsWithScores``), so only the most recent submission of
        each peer is kept.  When ``prefer_scored`` is true — used by the
        performance-based policies — the most recent *scored* submission of a
        peer is preferred over a newer, not-yet-scored one, so a model that was
        submitted moments ago does not shadow the peer's evaluated model.
        """
        records = self.chain.call(
            "unifyfl",
            "getLatestModelsWithScores",
            {
                "max_rounds": max_rounds,
                "before_time": before_time,
                "exclude_submitter": self.address,
            },
            sender=self.address,
        )
        latest: Dict[str, Dict] = {}
        for record in records:
            existing = latest.get(record["submitter"])
            if existing is None:
                latest[record["submitter"]] = record
                continue
            if prefer_scored and bool(record["scores"]) != bool(existing["scores"]):
                # One of the two has scores and the other does not: keep the scored one.
                if record["scores"]:
                    latest[record["submitter"]] = record
                continue
            if (record["round"], record["timestamp"]) > (existing["round"], existing["timestamp"]):
                latest[record["submitter"]] = record
        # Candidates are kept CID-sorted incrementally — each one drops into
        # its slot via a bisect on the parallel key list — instead of a full
        # re-sort of the list on every merge call.  Equal CIDs stay in
        # insertion order, matching what a stable sort produced.
        candidates: List[CandidateModel] = []
        cids: List[str] = []
        for record in latest.values():
            candidate = CandidateModel(
                cid=record["cid"],
                submitter=record["submitter"],
                round_number=record["round"],
                scores=dict(record["scores"]),
            )
            index = bisect.bisect_right(cids, candidate.cid)
            cids.insert(index, candidate.cid)
            candidates.insert(index, candidate)
        return candidates

    def fetch_weights(self, cid: str) -> Weights:
        """Retrieve and deserialize a model from the storage swarm.

        Deserialized models sit in a CID-keyed LRU bounded to
        ``WEIGHTS_CACHE_CAPACITY`` entries; hit and eviction counts surface
        in the orchestration result's extras.
        """
        cached = self._weights_cache.get(cid)
        if cached is not None:
            self._weights_cache.move_to_end(cid)
            self.weights_cache_hits += 1
            return cached
        from repro.ipfs.cid import parse_cid

        payload = self.ipfs.get(parse_cid(cid))
        weights = weights_from_bytes(payload)
        self._cache_weights(cid, weights)
        return weights

    def _cache_weights(self, cid: str, weights: Weights) -> None:
        self._weights_cache[cid] = weights
        self._weights_cache.move_to_end(cid)
        while len(self._weights_cache) > WEIGHTS_CACHE_CAPACITY:
            self._weights_cache.popitem(last=False)
            self.weights_cache_evictions += 1

    def build_global_model(self, before_time: Optional[float] = None) -> RoundTiming:
        """Pull peer models, apply the policies, and merge into the global model.

        Returns the timing contribution of the pull + aggregate step and
        advances the aggregator's clock by it.
        """
        timing = RoundTiming()
        needs_scores = self.aggregation_policy.name not in ("all", "random_k", "self")
        candidates = self.pull_candidates(before_time=before_time, prefer_scored=needs_scores)
        scored = self.scoring_policy.apply(candidates)
        # Filter: only models that received at least one score are considered,
        # except under the trivially-sampling policies which ignore scores.
        usable = [c for c in scored if c.scores or self.aggregation_policy.name in ("all", "random_k", "self")]
        self_candidate = CandidateModel(
            cid="self",
            submitter=self.address,
            round_number=self.chain.call("unifyfl", "getCurrentRound"),
            scores={},
            resolved_score=self._last_self_score,
            is_self=True,
        )
        selected = self.aggregation_policy.select(usable, self_candidate=self_candidate, rng=self._rng)

        peer_candidates = [c for c in selected if not c.is_self]
        pulled_cids = [c.cid for c in peer_candidates]

        num_pulled = len(peer_candidates)
        if peer_candidates:
            # Stream the pulled models into the strategy one at a time: a
            # streaming-capable strategy folds each contributor in place, so
            # peak memory stays O(1) models instead of O(round).  The paper's
            # step (5) still applies — the local model always participates,
            # appended after the peers exactly as the stacked path did.
            def _contributions():
                for candidate in peer_candidates:
                    yield self.fetch_weights(candidate.cid), 1.0
                yield self.local_weights, 1.0

            self.global_weights = self.strategy.aggregate_stream(
                self.local_weights, _contributions()
            )
        else:
            self.global_weights = [np.array(w, copy=True) for w in self.local_weights]

        if self.comm is not None:
            # CIDs identify the artifacts so the fabric can gate each fetch
            # on the object's availability at the serving replica.
            timing.pull_time = self.comm.download(
                self.name, num_pulled, at=self.clock.now(), object_ids=pulled_cids
            )
        else:
            timing.pull_time = self.timing.transfer_time(self.config.aggregator_profile, num_pulled)
        timing.aggregation_time = self.timing.aggregation_time(self.config, num_pulled + 1)
        self.clock.advance(timing.pull_time + timing.aggregation_time)
        self._record_resources("agg", cpu=self.config.aggregator_profile.train_cpu_percent * 0.12)
        self._pulled_this_round = num_pulled
        return timing

    # ------------------------------------------------------------- local training
    def local_training_round(self) -> RoundTiming:
        """Run one round of FL with this cluster's clients on the global model."""
        timing = RoundTiming()
        results = [client.fit(self.global_weights) for client in self.clients]
        self.local_weights = self.strategy.aggregate(self.global_weights, results)
        timing.client_training_time = self.timing.client_training_time(self.config)
        timing.aggregation_time = self.timing.aggregation_time(self.config, len(results))
        self.clock.advance(timing.client_training_time + timing.aggregation_time)
        for _ in results:
            self._record_resources("client", cpu=self.config.client_profile.train_cpu_percent)
        self._record_resources("agg", cpu=self.config.aggregator_profile.train_cpu_percent * 0.1)
        return timing

    # --------------------------------------------------------------- submission
    def submit_local_model(self, mine: bool = True) -> tuple[str, RoundTiming]:
        """Serialize the local model, add it to IPFS, and register the CID."""
        timing = RoundTiming()
        weights = self.local_weights
        if self.config.malicious and self.attack is not None:
            weights = self.attack.poison(weights, rng=self._rng)
        payload = weights_to_bytes(weights)
        cid = self.ipfs.add(payload)
        if self.comm is not None:
            now = self.clock.now()
            timing.store_time = self.comm.upload(
                self.name, 1, at=now, object_ids=[str(cid)]
            )
            timing.chain_time = self.comm.chain_op(
                "submitModel", self.name, at=now + timing.store_time
            )
        else:
            timing.store_time = self.timing.transfer_time(self.config.aggregator_profile, 1)
            timing.chain_time = self.timing.chain_interaction_time(1)
        self.clock.advance(timing.store_time + timing.chain_time)
        self.chain.send(
            self.account,
            "unifyfl",
            "submitModel",
            {"cid": str(cid), "timestamp": self.clock.now()},
        )
        if mine:
            self.chain.mine_until_empty()
        self.own_cids.append(str(cid))
        self._cache_weights(str(cid), [np.array(w, copy=True) for w in weights])
        self._record_resources("agg", cpu=self.config.aggregator_profile.train_cpu_percent * 0.05)
        return str(cid), timing

    # ------------------------------------------------------------------ scoring
    def score_assigned(self, before_time: Optional[float] = None, mine: bool = True) -> RoundTiming:
        """Score every model the contract has assigned to this aggregator."""
        timing = RoundTiming()
        assigned: List[str] = self.chain.call(
            "unifyfl",
            "getAssignedModels",
            {"scorer": self.address, "before_time": before_time},
            sender=self.address,
        )
        if not assigned:
            return timing
        # Round-wise scorers (Multi-KRUM, cosine) compare a model with every
        # model of its own submission round.  The current round is fetched
        # first: fetch order drives the weights-cache LRU, whose counters are
        # part of the result.  A scorer back from churn also holds
        # assignments from rounds it missed; those are fetched on first use.
        round_contexts: Dict[int, Dict[str, Weights]] = {}
        if self.scorer.requires_full_round:
            records = self.chain.call(
                "unifyfl", "getLatestModelsWithScores", {}, sender=self.address
            )
            submitted_in = {record["cid"]: record["round"] for record in records}
            current_round = self.chain.call("unifyfl", "getCurrentRound")
            round_contexts[current_round] = self._round_weights(records, current_round)
        scored = 0
        scored_cids: List[str] = []
        for cid in assigned:
            try:
                weights = self.fetch_weights(cid)
            except Exception:
                continue
            scored_cids.append(cid)
            if self.scorer.requires_full_round:
                round_number = submitted_in[cid]
                if round_number not in round_contexts:
                    round_contexts[round_number] = self._round_weights(records, round_number)
                context = {"round_weights": round_contexts[round_number], "cid": cid}
                score = self.scorer.score(weights, context=context)
            else:
                score = self.scorer.score(weights)
            self.chain.send(
                self.account,
                "unifyfl",
                "submitScore",
                {"cid": cid, "score": float(score), "timestamp": self.clock.now()},
            )
            scored += 1
        if mine and scored:
            self.chain.mine_until_empty()
        timing.scoring_time = self.timing.scoring_time(self.config, scored, algorithm=self.scorer.name)
        if self.comm is not None:
            now = self.clock.now()
            timing.pull_time = self.comm.download(
                self.name, scored, at=now, object_ids=scored_cids
            )
            timing.chain_time = self.comm.chain_op(
                "submitScore", self.name, at=now + timing.pull_time + timing.scoring_time,
                num_transactions=scored,
            )
        else:
            timing.pull_time = self.timing.transfer_time(self.config.aggregator_profile, scored)
            timing.chain_time = self.timing.chain_interaction_time(scored) if scored else 0.0
        self.clock.advance(timing.total_time)
        self._record_resources("scorer", cpu=self.config.aggregator_profile.train_cpu_percent * 0.3)
        self._scored_this_round = scored
        return timing

    def _round_weights(self, records: List[Dict], round_number: int) -> Dict[str, Weights]:
        """The fetchable models among ``records`` submitted in ``round_number``."""
        round_weights: Dict[str, Weights] = {}
        for record in records:
            if record["round"] != round_number:
                continue
            try:
                round_weights[record["cid"]] = self.fetch_weights(record["cid"])
            except Exception:
                continue
        return round_weights

    # --------------------------------------------------------------- evaluation
    def evaluate_weights(self, weights: Weights) -> Dict[str, float]:
        """Loss and accuracy of a weight set on the shared evaluation dataset."""
        self.eval_model.set_weights(weights)
        loss, accuracy = self.eval_model.evaluate(self.eval_data.x, self.eval_data.y)
        return {"loss": loss, "accuracy": accuracy}

    def record_round(
        self,
        round_number: int,
        timing: RoundTiming,
        straggled: bool = False,
        offline: bool = False,
    ) -> AggregatorRoundRecord:
        """Evaluate both models and append a round record to the history."""
        global_metrics = self.evaluate_weights(self.global_weights)
        local_metrics = self.evaluate_weights(self.local_weights)
        self._last_self_score = local_metrics["accuracy"]
        record = AggregatorRoundRecord(
            round_number=round_number,
            global_accuracy=global_metrics["accuracy"],
            global_loss=global_metrics["loss"],
            local_accuracy=local_metrics["accuracy"],
            local_loss=local_metrics["loss"],
            models_pulled=getattr(self, "_pulled_this_round", 0) if not offline else 0,
            models_scored=getattr(self, "_scored_this_round", 0) if not offline else 0,
            timing=timing,
            sim_time=self.clock.now(),
            straggled=straggled,
            offline=offline,
        )
        self.history.append(record)
        self._scored_this_round = 0
        return record

    # ------------------------------------------------------------------ summary
    @property
    def final_record(self) -> Optional[AggregatorRoundRecord]:
        """The last recorded round, if any."""
        return self.history[-1] if self.history else None

    def total_time(self) -> float:
        """Total simulated time this aggregator has spent."""
        return self.clock.now()

    def _record_resources(self, process_type: str, cpu: float) -> None:
        if self.monitor is None:
            return
        if process_type == "client":
            memory = 0.20 * self.config.client_profile.memory_mb + self._rng.normal(0, 20)
        elif process_type == "scorer":
            memory = 900 + self._rng.normal(0, 60)
        else:
            memory = min(0.75 * self.config.aggregator_profile.memory_mb, 9000 + self._rng.normal(0, 2500))
        cpu_noisy = max(0.0, cpu + self._rng.normal(0, cpu * 0.35 + 1.0))
        self.monitor.record(process_type, cpu_noisy, max(10.0, memory), sim_time=self.clock.now())
