"""Orchestration of a UnifyFL federation (Sections 3.2 / 3.3).

The orchestrator in UnifyFL is logically the smart contract; each mode is
one protocol against it.  :class:`Orchestrator` drives any *round policy*
(:mod:`repro.sched.policies`) on a
:class:`~repro.sched.kernel.SimulationKernel` and manages the simulated time
of every cluster; the policy expresses its mode as an event stream (sync,
async, semi-sync, hierarchical and gossip are built in).

Every orchestration mode registers itself with the round-policy registry
(:mod:`repro.sched.registry`) at the bottom of this module; the runner, the
``ExperimentConfig`` validation, the CLI ``--mode`` choices and the
contract's behaviour profile are all derived from those registrations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.runner import ClientPopulation

from repro.chain.account import Account
from repro.chain.blockchain import Blockchain
from repro.core.aggregator import AggregatorRoundRecord, UnifyFLAggregator
from repro.core.timing import ClusterTimingModel
from repro.sched.actors import CommFabric
from repro.sched.kernel import SimulationKernel
from repro.core.config import ExperimentConfig
from repro.sched.policies import (
    AsyncRoundPolicy,
    FixedCohort,
    GossipRoundPolicy,
    HierarchicalRoundPolicy,
    OrchestrationContext,
    RoundPolicy,
    SemiSyncRoundPolicy,
    SyncRoundPolicy,
)
from repro.sched.registry import (
    ContractProfile,
    PolicySpec,
    register_policy,
)


@dataclass
class OrchestrationResult:
    """Outcome of driving a federation for a number of rounds."""

    mode: str
    rounds_completed: int
    #: per-aggregator history, keyed by cluster name.
    histories: Dict[str, List[AggregatorRoundRecord]] = field(default_factory=dict)
    #: per-aggregator total simulated time.
    total_times: Dict[str, float] = field(default_factory=dict)
    #: per-aggregator cumulative idle (barrier / quorum-wait) time — zero in async mode.
    idle_times: Dict[str, float] = field(default_factory=dict)
    #: count of straggler incidents per aggregator.
    straggler_counts: Dict[str, int] = field(default_factory=dict)
    #: policy-specific annotations (semi-sync quorum/staleness closures, ...).
    extras: Dict[str, object] = field(default_factory=dict)


class Orchestrator:
    """Drives one :class:`~repro.sched.policies.RoundPolicy` over a federation.

    Owns the contract registration, a fresh
    :class:`~repro.sched.kernel.SimulationKernel` per run, the shared idle
    and straggler accumulators, and the result document.  ``policy`` builds
    the mode's round policy from the run's
    :class:`~repro.sched.policies.OrchestrationContext` — a policy class
    itself, a ``functools.partial`` of one, or a registered spec's factory.
    A dense federation runs as the identity cohort (every cluster, every
    round); a sampled one passes its lazy ``population``.
    """

    def __init__(
        self,
        chain: Blockchain,
        driver: Account,
        aggregators: Sequence[UnifyFLAggregator],
        timing: ClusterTimingModel,
        policy: Callable[[OrchestrationContext], RoundPolicy],
        comm: Optional[CommFabric] = None,
        population: Optional["ClientPopulation"] = None,
    ):
        if not aggregators:
            raise ValueError("an orchestrator needs at least one aggregator")
        names = [a.name for a in aggregators]
        if len(set(names)) != len(names):
            raise ValueError("aggregator names must be unique")
        self.chain = chain
        self.driver = driver
        #: sampled federations keep the *live* list the population appends
        #: to, so clusters that materialise mid-run show up in the results;
        #: the dense shape copies, as the list is fixed for the whole run.
        self.aggregators = aggregators if population is not None else list(aggregators)
        self.cohort = population if population is not None else FixedCohort(self.aggregators)
        self.timing = timing
        self.build_policy = policy
        #: event-stream communication fabric shared with the aggregators, or
        #: ``None`` for the constant-cost timing path.
        self.comm = comm
        self._idle_totals: Dict[str, float] = {a.name: 0.0 for a in aggregators}
        self._straggles: Dict[str, int] = {a.name: 0 for a in aggregators}
        #: the kernel and round policy of the latest :meth:`run`.
        self.kernel: Optional[SimulationKernel] = None
        self.policy: Optional[RoundPolicy] = None
        #: optional simulation sanitizer, installed on every kernel this
        #: orchestrator creates (set by the runner before :meth:`run`).
        self.sanitizer = None

    def register_all(self) -> None:
        """Register every aggregator with the contract (idempotent per run)."""
        registered = set(self.chain.call("unifyfl", "getAggregators"))
        for aggregator in self.aggregators:
            if aggregator.address not in registered:
                aggregator.register(mine=False)
        self.chain.mine_until_empty()

    def run(self, num_rounds: int) -> OrchestrationResult:
        """Drive the federation until every cluster completed ``num_rounds``."""
        if num_rounds <= 0:
            raise ValueError("num_rounds must be positive")
        # The policy validates its parameters here, before anything is sent.
        policy = self.build_policy(OrchestrationContext(
            chain=self.chain,
            driver=self.driver,
            aggregators=self.aggregators,
            timing=self.timing,
            num_rounds=num_rounds,
            cohort=self.cohort,
            idle_totals=self._idle_totals,
            straggles=self._straggles,
            comm=self.comm,
        ))
        self.policy = policy
        self.register_all()
        self.kernel = SimulationKernel()
        self.kernel.sanitizer = self.sanitizer
        policy.install(self.kernel)
        self.kernel.run()
        policy.finalize()
        extras = dict(policy.extras())
        # Memory behaviour of the per-aggregator model caches: hit rate says
        # how much IPFS traffic the LRU absorbed, evictions say whether the
        # working set outgrew its bound.
        extras["weights_cache_hits"] = sum(a.weights_cache_hits for a in self.aggregators)
        extras["weights_cache_evictions"] = sum(
            a.weights_cache_evictions for a in self.aggregators
        )
        return OrchestrationResult(
            mode=policy.mode,
            rounds_completed=num_rounds,
            histories={a.name: list(a.history) for a in self.aggregators},
            total_times={a.name: a.total_time() for a in self.aggregators},
            idle_times=dict(self._idle_totals),
            straggler_counts=dict(self._straggles),
            extras=extras,
        )


# --------------------------------------------------------------------------
# Built-in registrations: every consumer of "what modes exist" (runner
# dispatch, ExperimentConfig validation, CLI --mode choices, contract
# behaviour) derives its view from these specs.
# --------------------------------------------------------------------------

def _reject_similarity_scoring(config: ExperimentConfig) -> None:
    """Free-running modes never see a whole round at once."""
    if config.scoring_algorithm in ("multikrum", "cosine"):
        raise ValueError(
            "similarity-based scoring needs all models of a round at once and is only "
            "supported in sync mode"
        )


def _sync_factory(ctx: OrchestrationContext, config: ExperimentConfig) -> RoundPolicy:
    return SyncRoundPolicy(
        ctx,
        training_window=config.phase_duration,
        scoring_window=config.phase_duration,
        scoring_algorithm=config.scoring_algorithm,
    )


def _semi_factory(ctx: OrchestrationContext, config: ExperimentConfig) -> RoundPolicy:
    return SemiSyncRoundPolicy(
        ctx, quorum_k=config.semi_quorum_k, max_staleness=config.max_staleness
    )


def _hierarchical_factory(ctx: OrchestrationContext, config: ExperimentConfig) -> RoundPolicy:
    # Site grouping mirrors the event-stream fabric's round-robin assignment
    # of clusters to storage replicas, so a "group" is exactly the set of
    # clusters sharing a storage site (one group when replicas are off); the
    # policy clamps the count to the federation size.
    return HierarchicalRoundPolicy(
        ctx,
        num_sites=config.storage_replicas,
        local_rounds_per_global=config.local_rounds_per_global,
        round_budget=config.round_budget,
    )


def _gossip_factory(ctx: OrchestrationContext, config: ExperimentConfig) -> RoundPolicy:
    return GossipRoundPolicy(ctx, fanout=config.gossip_fanout, seed=config.seed)


register_policy(PolicySpec(
    name="sync",
    factory=_sync_factory,
    description="lock-step phases with fixed training/scoring windows",
    contract=ContractProfile(phase_gated=True),
))
register_policy(PolicySpec(
    name="async",
    factory=lambda ctx, config: AsyncRoundPolicy(ctx),
    description="free-running clusters, scorers assigned at submission",
    validate=_reject_similarity_scoring,
    contract=ContractProfile(assigns_scorers_on_submit=True),
))
register_policy(PolicySpec(
    name="semi",
    factory=_semi_factory,
    description="buffered-async rounds closed by quorum or staleness expiry",
    # The quorum/staleness bounds check is mode-agnostic and already runs
    # unconditionally in ExperimentConfig.__post_init__ (the knobs can be
    # set, and are range-checked, on any config).
    validate=_reject_similarity_scoring,
    contract=ContractProfile(assigns_scorers_on_submit=True, buffered=True),
))
register_policy(PolicySpec(
    name="hierarchical",
    factory=_hierarchical_factory,
    description="per-site local rounds, one leader submission per site per global round",
    validate=_reject_similarity_scoring,
    contract=ContractProfile(assigns_scorers_on_submit=True),
))
register_policy(PolicySpec(
    name="gossip",
    factory=_gossip_factory,
    description="barrier-free seeded peer exchanges, per-cluster convergence",
    validate=_reject_similarity_scoring,
    contract=ContractProfile(),
))
