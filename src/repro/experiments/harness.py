"""Single-experiment harness.

A :class:`RunSpec` fully describes one simulation run (protocol variant,
buffer size, offered load, horizon); :func:`run_once` executes it and
distils a :class:`RunResult` with every quantity the paper's figures
plot. The distilling is :func:`summarise`, over a stopped run's
collector and the spec's window; the live drivers summarise their runs
through it too. Sweeps are then just comprehensions over specs —
serial, or fanned across cores by
:func:`repro.experiments.sweep.run_specs` — and benchmarks print rows
straight from results.

Specs and results are plain picklable dataclasses: that is what lets the
sweep runner ship them across process boundaries, and
:attr:`RunSpec.dispatch` selects the driver's round-dispatch mode
(``"batched"`` by default; ``"timers"`` is the reference path — results
are byte-identical either way).

Scenario runs are RunSpecs too: :func:`spec_for_scenario` lowers a
declarative :class:`~repro.scenarios.spec.ScenarioSpec` onto the same
dataclass (workload shape, fault/churn scripts, topology and baseline
loss ride along in the optional trailing fields), so the sweep runner
shards whole scenario matrices exactly like buffer sweeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Any, Optional, Sequence

from repro.core.config import AdaptiveConfig
from repro.driver import size_at
from repro.experiments.profiles import Profile
from repro.gossip.config import SystemConfig
from repro.membership.views import ViewConfig
from repro.metrics.collector import MetricsCollector
from repro.metrics.delivery import DeliveryStats, analyze_delivery
from repro.scenarios.spec import ScenarioSpec, SenderSpec, build_latency
from repro.sim.faults import CrashWindow
from repro.sim.vector import vector_ineligible_reason
from repro.workload.cluster import SimCluster
from repro.workload.dynamics import ResourceScript

__all__ = [
    "RunSpec",
    "RunResult",
    "run_once",
    "summarise",
    "spec_for_profile",
    "spec_for_scenario",
    "build_cluster",
    "vector_fallback_reason",
]


@dataclass(frozen=True)
class RunSpec:
    """Everything needed to reproduce one simulation run."""

    protocol: str  # "lpbcast" | "adaptive" | "static"
    system: SystemConfig
    n_nodes: int
    sender_ids: tuple[int, ...]
    offered_load: float  # total msg/s across all senders
    duration: float
    warmup: float
    drain: float
    seed: int = 0
    adaptive: Optional[AdaptiveConfig] = None
    rate_limit: Optional[float] = None  # per sender, for "static"
    script: Optional[ResourceScript] = None
    membership: str = "full"
    bucket_width: float = 1.0
    dispatch: str = "batched"  # "batched" | "timers" round dispatch
    # scenario-carrying fields (all default to "not present", so plain
    # experiment specs are unchanged): a declarative workload shape that
    # overrides the uniform sender_ids/offered_load split, fault and
    # churn scripts, a topology/latency spec, a baseline loss model,
    # partial-view sizing, an aggregation strategy, and the provenance
    # name of the scenario this spec was lowered from.
    senders: Optional[tuple[SenderSpec, ...]] = None
    faults: Optional[Any] = None  # FaultScript
    churn: Optional[Any] = None  # ChurnScript
    latency: Optional[Any] = None  # topology spec (has .build) or LatencyModel
    loss: Optional[Any] = None  # LossModel
    view_size: Optional[int] = None
    aggregate: Optional[Any] = None
    scenario: Optional[str] = None
    sample_gauges: bool = True
    # aggregate-only metrics: receiver counts instead of receiver sets,
    # no per-node gauges — the memory mode for 10k+-node runs
    aggregate_metrics: bool = False

    def __post_init__(self) -> None:
        if not self.sender_ids:
            raise ValueError("need at least one sender")
        if self.offered_load <= 0:
            raise ValueError("offered_load must be > 0")
        if not 0 <= self.warmup < self.duration:
            raise ValueError("warmup must fall inside the run")
        if not 0 <= self.drain < self.duration - self.warmup:
            raise ValueError("drain must leave a non-empty window")

    @property
    def rate_per_sender(self) -> float:
        return self.offered_load / len(self.sender_ids)

    @property
    def window(self) -> tuple[float, float]:
        return (self.warmup, self.duration - self.drain)

    def with_protocol(self, protocol: str) -> "RunSpec":
        return replace(self, protocol=protocol)

    def with_buffer(self, capacity: int) -> "RunSpec":
        return replace(self, system=self.system.with_buffer(capacity))


@dataclass(frozen=True)
class RunResult:
    """Steady-state measurements of one run (over the spec's window)."""

    spec: RunSpec
    delivery: DeliveryStats
    offered_rate: float  # msg/s offered by the application
    input_rate: float  # msg/s admitted (the paper's "input rate")
    output_rate: float  # unique deliveries per member per second
    drop_age_mean: float  # mean age of overflow-dropped events
    allowed_rate_total: float  # sum of senders' allowed rates (NaN for lpbcast)
    avg_age_mean: float  # mean avgAge estimate across nodes (NaN for lpbcast)
    min_buff_mean: float  # mean minBuff estimate across nodes (NaN for lpbcast)
    drops_overflow: float
    drops_age_out: float
    senders_total: int = 0  # senders configured in the spec
    senders_reached: int = 0  # senders with >=1 window message heard beyond them
    # gossip-level duplicate pressure over the whole run: summaries
    # received for events already seen, per unique protocol delivery —
    # the cost axis RedundancyAtMost expectations bound
    gossip_redundancy: float = math.nan
    # network-level fault accounting over the whole run, straight off the
    # wire: how much adversity the injected windows actually exercised.
    # Visible even in aggregate-only collector mode, where per-node
    # receiver sets (and thus most delivery detail) are unavailable.
    net_lost: int = 0
    net_partitioned: int = 0
    net_oneway_blocked: int = 0
    net_link_lost: int = 0
    net_capped: int = 0

    @property
    def loss_rate(self) -> float:
        """input − output (the gap Figure 7(b) visualises)."""
        return self.input_rate - self.output_rate


def spec_for_profile(
    profile: Profile,
    protocol: str,
    buffer_capacity: Optional[int] = None,
    offered_load: Optional[float] = None,
    adaptive: Optional[AdaptiveConfig] = None,
    **overrides,
) -> RunSpec:
    """Convenience: build a :class:`RunSpec` from a profile."""
    if adaptive is None and protocol == "adaptive":
        adaptive = AdaptiveConfig(age_critical=profile.tau_hint)
    return RunSpec(
        protocol=protocol,
        system=profile.system(buffer_capacity),
        n_nodes=profile.n_nodes,
        sender_ids=tuple(profile.sender_ids()),
        offered_load=(
            offered_load if offered_load is not None else profile.offered_load
        ),
        duration=profile.duration,
        warmup=profile.warmup,
        drain=profile.drain,
        seed=profile.seed,
        adaptive=adaptive,
        **overrides,
    )


def spec_for_scenario(
    scenario: ScenarioSpec,
    dispatch: str = "batched",
    horizon: Optional[float] = None,
    **overrides,
) -> RunSpec:
    """Lower a declarative scenario onto a :class:`RunSpec`.

    ``horizon`` shrinks the run (warmup/drain scale along) — the smoke
    and determinism harnesses use it to exercise every scenario in
    seconds. Further keyword ``overrides`` replace RunSpec fields.
    """
    if horizon is not None:
        scenario = scenario.with_horizon(horizon)
    params = dict(
        protocol=scenario.protocol,
        system=scenario.system,
        n_nodes=scenario.n_nodes,
        sender_ids=scenario.sender_ids,
        offered_load=scenario.offered_load,
        duration=scenario.duration,
        warmup=scenario.warmup,
        drain=scenario.drain,
        seed=scenario.seed,
        adaptive=scenario.adaptive,
        rate_limit=scenario.rate_limit,
        script=scenario.resources if len(scenario.resources) else None,
        membership=scenario.membership,
        bucket_width=scenario.bucket_width,
        dispatch=dispatch,
        senders=scenario.senders,
        faults=scenario.faults if len(scenario.faults) else None,
        churn=scenario.churn if len(scenario.churn) else None,
        latency=scenario.topology,
        loss=scenario.baseline_loss,
        view_size=scenario.view_size,
        aggregate=scenario.aggregate,
        scenario=scenario.name,
    )
    params.update(overrides)
    return RunSpec(**params)


def vector_fallback_reason(spec: RunSpec) -> Optional[str]:
    """Why ``dispatch="vector"`` would fall back to per-node protocols.

    ``None`` means the whole-population columnar lane engages for this
    spec; otherwise a human-readable sentence (the CLI prints it so users
    learn why they got the slow lane). Screens the full spec — including
    its fault/churn schedules and sender placement, which the cluster
    constructor cannot see.
    """
    sender_ids = set(spec.sender_ids)
    if spec.senders is not None:
        sender_ids.update(s.node for s in spec.senders)
    return vector_ineligible_reason(
        protocol=spec.protocol,
        membership=spec.membership,
        system=spec.system,
        latency=build_latency(spec.latency, spec.n_nodes),
        loss=spec.loss,
        aggregate=spec.aggregate,
        rate_limit=spec.rate_limit,
        n_nodes=spec.n_nodes,
        faults=spec.faults,
        churn=spec.churn,
        sender_ids=tuple(sender_ids),
    )


def build_cluster(spec: RunSpec) -> SimCluster:
    """Materialise the cluster, senders and schedules for a spec
    (without running)."""
    latency = build_latency(spec.latency, spec.n_nodes)
    cluster = SimCluster(
        n_nodes=spec.n_nodes,
        system=spec.system,
        protocol=spec.protocol,
        adaptive=spec.adaptive,
        rate_limit=spec.rate_limit,
        aggregate=spec.aggregate,
        seed=spec.seed,
        latency=latency,
        loss=spec.loss,
        membership=spec.membership,
        view_config=(
            ViewConfig(view_size=spec.view_size) if spec.view_size is not None else None
        ),
        bucket_width=spec.bucket_width,
        # the columnar mega lane honours loss/partition/cap/crash/churn
        # schedules it can prove equivalent; anything else (sender
        # crashes, off-tick restarts, brand-new identities) materialises
        # per-node protocols, which vector dispatch runs as batched
        dispatch=(
            "batched"
            if spec.dispatch == "vector" and vector_fallback_reason(spec) is not None
            else spec.dispatch
        ),
        sample_gauges=spec.sample_gauges,
        aggregate_metrics=spec.aggregate_metrics,
    )
    if spec.senders is not None:
        for sender in spec.senders:
            cluster.add_sender(
                sender.node,
                sender.rate,
                arrivals=sender.build_arrivals(),
                start=sender.start,
                stop=sender.stop,
                queue_limit=sender.queue_limit,
            )
    else:
        cluster.add_senders(list(spec.sender_ids), rate_each=spec.rate_per_sender)
    cluster.apply_faults(spec.faults, spec.churn, spec.script, spec.loss)
    return cluster


def run_once(spec: RunSpec) -> RunResult:
    """Execute a spec and summarise its steady-state window."""
    cluster = build_cluster(spec)
    cluster.run(until=spec.duration)
    stats = [node.protocol.stats for node in cluster.nodes.values()]
    duplicates = sum(getattr(s, "duplicates_seen", 0) for s in stats)
    delivered = sum(getattr(s, "events_delivered", 0) for s in stats)
    return summarise(
        spec, cluster.metrics, cluster.size_log, duplicates, delivered, cluster.network.stats
    )


def summarise(
    spec: RunSpec,
    metrics: MetricsCollector,
    size_log: Sequence[tuple[float, int]],
    duplicates_seen: int,
    delivered: int,
    net: Any = None,
) -> RunResult:
    """Summarise a stopped run over ``spec``'s window, whatever ran it:
    its collector, its driver's ``size_log``, every node's duplicate
    summaries and unique deliveries, and its wire rule set's counters
    (:class:`~repro.sim.network.NetworkStats`; ``None`` for a live host
    without rules: they read 0)."""
    since, until = spec.window
    m = metrics
    group_size = size_log[-1][1]
    # Under churn/crash schedules the group size moves mid-window; judge
    # each message against the group it was broadcast into, not the
    # end-of-run directory (see analyze_delivery's size_at). Loss/
    # partition/bandwidth fault windows never change membership, so they
    # keep the cheap fixed-denominator path.
    moving_membership = spec.churn is not None or (
        spec.faults is not None
        and any(isinstance(f, CrashWindow) for f in spec.faults.faults)
    )
    window_messages = m.messages_in_window(since, until)
    delivery = analyze_delivery(
        window_messages,
        group_size,
        size_at=partial(size_at, size_log) if moving_membership else None,
    )
    # a sender "reached the group" if any of its window messages was
    # delivered beyond the sender itself (NoDroppedSenders expectations)
    reached = {r.origin for r in window_messages if r.receiver_count >= 2}
    window_len = until - since
    senders = list(spec.sender_ids)
    allowed_each = m.gauge_mean_over("allowed_rate", senders, since, until)
    return RunResult(
        spec=spec,
        delivery=delivery,
        offered_rate=m.offered.rate(since, until),
        input_rate=m.admitted.rate(since, until),
        output_rate=m.deliveries.count(since, until) / (group_size * window_len),
        drop_age_mean=m.mean_drop_age(since, until),
        allowed_rate_total=(
            allowed_each * len(senders) if not math.isnan(allowed_each) else math.nan
        ),
        avg_age_mean=m.gauge_mean("avg_age", since, until),
        min_buff_mean=m.gauge_mean("min_buff", since, until),
        drops_overflow=m.drops_overflow.count(since, until),
        drops_age_out=m.drops_age_out.count(since, until),
        senders_total=len(senders),
        senders_reached=sum(1 for node in senders if node in reached),
        gossip_redundancy=duplicates_seen / delivered if delivered else math.nan,
        net_lost=0 if net is None else net.lost,
        net_partitioned=0 if net is None else net.partitioned,
        net_oneway_blocked=0 if net is None else net.oneway_blocked,
        net_link_lost=0 if net is None else net.link_lost,
        net_capped=0 if net is None else net.capped,
    )
