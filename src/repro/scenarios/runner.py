"""Run scenarios on either driver.

The simulator path lowers a :class:`~repro.scenarios.spec.ScenarioSpec`
to a :class:`~repro.experiments.harness.RunSpec` and reuses the whole
experiment harness (so scenario runs sweep, shard and serialise exactly
like figure runs). The threaded path drives the same spec on real
threads with *full condition parity*: workload offers are paced from
the spec's sender shapes, timed capacity changes are queued onto the
owning node threads, loss/partition/bandwidth windows and the
topology/latency environment are injected through the
:class:`~repro.runtime.transport.ChaosTransport` layer, crash windows
stop and restart real node threads, churn scripts join and leave
members through the live membership layer, and partial views gossip
over the actual wire. Conditions the threaded driver cannot lower
(unknown fault kinds) are still *reported as skipped* rather than
silently dropped; :func:`threaded_coverage` computes the injected/
skipped split without running anything, so the CLI and the parity tests
can audit coverage cheaply.

The process path pushes the same parity one deployment shape further:
:func:`run_scenario_process` drives the spec on
:class:`~repro.runtime.process_cluster.ProcessCluster` — shard worker
*processes* gossiping over real UDP sockets — with the identical
lowering vocabulary (chaos rules at the socket layer, crash/churn as
real worker-side node stops/restarts, feeders paced inside the owning
worker) and the same injected/skipped audit via
:func:`process_coverage`.

Virtual-to-wall time mapping: threaded and process runs use a short
gossip period (default 0.1 s vs the spec's 1 s), so one spec second
maps to ``gossip_period / spec.system.gossip_period`` wall seconds;
offer intervals, fault/churn offsets and link latencies shrink by the
same factor and bandwidth caps grow by its inverse — the load:capacity
regime of the scenario is preserved, only the clock changes.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from random import Random
from typing import Optional, Union

from repro.experiments.harness import run_once, spec_for_scenario
from repro.experiments.profiles import Profile, get_profile
from repro.experiments.sweep import run_scenario_matrix
from repro.runtime.cluster import ThreadedCluster
from repro.scenarios.registry import get_scenario
from repro.scenarios.spec import ScenarioSpec
from repro.sim.faults import (
    AsymmetricPartitionWindow,
    BandwidthCapWindow,
    CrashWindow,
    LinkLossWindow,
    LossWindow,
    PartitionWindow,
)
from repro.sim.network import BernoulliLoss
from repro.workload.dynamics import CapacityChange

__all__ = [
    "ProcessScenarioReport",
    "ThreadedScenarioReport",
    "smoke_profile",
    "run_scenario",
    "run_scenario_process",
    "run_scenario_threaded",
    "run_scenario_matrix",
    "process_coverage",
    "threaded_coverage",
]


def smoke_profile(profile: Optional[Profile] = None) -> Profile:
    """A shrunken copy of ``profile`` for smoke runs (CLI ``--quick``,
    CI, and the scenario-matrix determinism tests): small group, short
    horizon, light load — every scenario's schedule still fires, because
    builders place events at fractions of the profile duration."""
    base = profile if profile is not None else get_profile()
    return dataclasses.replace(
        base,
        name=f"{base.name}-smoke",
        n_nodes=min(16, base.n_nodes),
        n_senders=min(3, base.n_senders),
        duration=36.0,
        warmup=12.0,
        drain=6.0,
        offered_load=min(30.0, base.offered_load),
    )


# ----------------------------------------------------------------------
# simulator path
# ----------------------------------------------------------------------
def _resolve(spec_or_name: Union[str, ScenarioSpec], profile: Optional[Profile]) -> ScenarioSpec:
    if isinstance(spec_or_name, ScenarioSpec):
        return spec_or_name
    return get_scenario(spec_or_name, profile)


def run_scenario(
    spec_or_name: Union[str, ScenarioSpec],
    driver: str = "sim",
    profile: Optional[Profile] = None,
    dispatch: str = "batched",
    horizon: Optional[float] = None,
):
    """Run one scenario end to end on the chosen driver.

    Returns a :class:`~repro.experiments.harness.RunResult` for
    ``driver="sim"``, a :class:`ThreadedScenarioReport` for
    ``driver="threaded"`` and a :class:`ProcessScenarioReport` for
    ``driver="process"``.
    """
    spec = _resolve(spec_or_name, profile)
    if driver == "sim":
        return run_once(spec_for_scenario(spec, dispatch=dispatch, horizon=horizon))
    if driver == "threaded":
        if horizon is not None:
            spec = spec.with_horizon(horizon)
        return run_scenario_threaded(spec)
    if driver == "process":
        if horizon is not None:
            spec = spec.with_horizon(horizon)
        return run_scenario_process(spec)
    raise ValueError(
        f"unknown driver {driver!r}; choose 'sim', 'threaded' or 'process'"
    )


# ----------------------------------------------------------------------
# threaded path
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ThreadedScenarioReport:
    """What a threaded scenario run did, injected, and could not model."""

    scenario: str
    n_nodes: int
    wall_seconds: float
    time_scale: float  # wall seconds per spec second
    offers: int
    admitted: int
    delivered_total: int
    delivered_min: int
    delivered_max: int
    skipped: tuple[str, ...]  # conditions this driver could not lower
    # surfaced as a count so CLI output and JSON payloads can report
    # partial coverage without string-matching the skip reasons; a real
    # field (so it serialises) but always derived — see __post_init__
    skipped_count: int = 0
    duplicates_seen: int = 0  # gossip-level duplicate summaries, all nodes
    injected: tuple[str, ...] = ()  # conditions lowered onto the runtime
    injected_count: int = 0  # derived, like skipped_count
    chaos_eaten: int = 0  # datagrams the chaos layer dropped/capped/blocked
    chaos_delayed: int = 0  # datagrams forwarded late through the delay line
    chaos_oneway_dropped: int = 0  # datagrams eaten by a one-way (directed) cut

    def __post_init__(self) -> None:
        object.__setattr__(self, "skipped_count", len(self.skipped))
        object.__setattr__(self, "injected_count", len(self.injected))


class _Feeder:
    """Paces one sender's offers in scaled wall time."""

    def __init__(self, sender, scale: float, seed: int) -> None:
        self.node = sender.node
        self.arrivals = sender.build_arrivals()
        # sender nodes are ints by ScenarioSpec validation
        self.rng = Random(seed * 1_000_003 + sender.node)
        self.scale = scale
        self.stop = None if sender.stop is None else sender.stop * scale
        self.next = sender.start * scale + self.arrivals.next_interval(self.rng) * scale

    def due(self, now: float) -> bool:
        if self.stop is not None and self.next >= self.stop:
            return False
        return self.next <= now

    def advance(self) -> None:
        self.next += self.arrivals.next_interval(self.rng) * self.scale


# condition -> how each live driver lowers it; the key set is the shared
# classification, only the wording after ": " differs. Keeping the
# condition labels ("loss window", "crash window", ...) identical across
# drivers lets the parity tests match markers without caring which
# runtime produced the report.
_THREADED_LOWERING = {
    "chaos": "chaos transport",
    "crash": "real node stop/restart",
    "unknown": "no threaded lowering",
    "churn": "live join/leave",
    "topology": "chaos link delays",
    "partial": "live partial views on the wire",
}
_PROCESS_LOWERING = {
    "chaos": "socket-layer chaos rules",
    "crash": "real worker-side node stop/restart",
    "unknown": "no process lowering",
    "churn": "live join/leave across workers",
    "topology": "socket-layer chaos delays",
    "partial": "live partial views over UDP",
}


def _condition_coverage(
    spec: ScenarioSpec, lowering: dict
) -> tuple[tuple[str, ...], tuple[str, ...]]:
    injected: list[str] = []
    skipped: list[str] = []

    def count(kind) -> int:
        return sum(1 for f in spec.faults.faults if isinstance(f, kind))

    losses, partitions = count(LossWindow), count(PartitionWindow)
    caps, crashes = count(BandwidthCapWindow), count(CrashWindow)
    oneways, link_losses = count(AsymmetricPartitionWindow), count(LinkLossWindow)
    chaos, crash = lowering["chaos"], lowering["crash"]
    if losses:
        injected.append(f"{losses} loss window(s): {chaos}")
    if link_losses:
        injected.append(f"{link_losses} per-link loss window(s): {chaos}")
    if partitions:
        injected.append(f"{partitions} partition window(s): {chaos}")
    if oneways:
        injected.append(f"{oneways} one-way partition window(s): {chaos}")
    if caps:
        injected.append(f"{caps} bandwidth cap window(s): {chaos}")
    if crashes:
        injected.append(f"{crashes} crash window(s): {crash}")
    # nothing is fired, so the audit needs no target to lower against
    _, not_lowered = lower_timed_conditions(spec, None, 1.0, ())
    if not_lowered:
        skipped.append(
            f"{len(not_lowered)} unrecognised fault window(s): {lowering['unknown']}"
        )
    if len(spec.churn):
        injected.append(f"{len(spec.churn)} churn event(s): {lowering['churn']}")
    if spec.topology is not None:
        injected.append(f"topology/latency model: {lowering['topology']}")
    if spec.baseline_loss is not None:
        injected.append(f"baseline loss model: {chaos}")
    if spec.membership == "partial":
        injected.append(f"partial membership: {lowering['partial']}")
    return tuple(injected), tuple(skipped)


def threaded_coverage(spec: ScenarioSpec) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The ``(injected, skipped)`` condition split for the threaded driver.

    Pure classification — no cluster is built, so the CLI's coverage
    listing and the registry-wide parity test can audit every scenario
    in microseconds. ``run_scenario_threaded`` derives its report's
    ``injected``/``skipped`` tuples from this same function, so the
    audit can never drift from what a run actually does.
    """
    return _condition_coverage(spec, _THREADED_LOWERING)


def process_coverage(spec: ScenarioSpec) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The ``(injected, skipped)`` condition split for the process driver.

    Same pure classification as :func:`threaded_coverage` — the process
    workers lower the identical condition vocabulary (chaos rules sit at
    the UDP socket layer instead of the in-memory transport; crash and
    churn stop/restart real asyncio nodes inside the owning worker), so
    the condition labels match and only the lowering wording differs.
    """
    return _condition_coverage(spec, _PROCESS_LOWERING)


def lower_timed_conditions(spec: ScenarioSpec, target, scale: float, feeders):
    """Lower every timed condition onto ``(wall_time, seq, thunk)`` triples.

    The one lowering both live drivers share. ``target`` is duck-typed:
    ``chaos`` (the driver's :class:`~repro.runtime.transport.ChaosRules`,
    present whenever the spec has a wire fault — see
    ``ScenarioSpec.wire_conditions``), ``set_capacity(node, capacity)``
    (ignoring nodes the target does not host), ``crash_node``,
    ``join_node`` and ``leave_node``. :class:`ThreadedCluster` is one
    such target; each process-driver ``ShardWorker`` is another, acting
    on its own nodes, feeders and rule-set copy while every worker
    replays the same schedule. ``target`` is only touched when a thunk
    fires, never here.

    The complement of the t=0 work the drivers do pre-start (t=0
    capacity overrides, baseline loss/latency on the chaos rules):
    resource changes go to ``set_capacity`` and the ``feeders``, loss/
    partition/bandwidth windows mutate the chaos rule set, crash windows
    and churn events stop/start real nodes.

    Returns ``(actions, not_lowered)``: the triples in ``(time, seq)``
    order, and the faults of a kind this function has no lowering for —
    what the coverage audit reports as skipped.
    """
    actions: list[tuple[float, int, object]] = []
    not_lowered: list = []

    def add(spec_time: float, thunk) -> None:
        actions.append((spec_time * scale, len(actions), thunk))

    for change in spec.resources.changes:
        if change.time == 0.0 and isinstance(change, CapacityChange):
            continue  # applied pre-start by the driver
        if isinstance(change, CapacityChange):

            def apply_capacity(c=change):
                for node in c.nodes:
                    target.set_capacity(node, c.capacity)

            add(change.time, apply_capacity)
        else:  # OfferedRateChange — repace the affected feeders

            def repace(c=change):
                for feeder in feeders:
                    if feeder.node in c.nodes:
                        feeder.arrivals.rate = c.rate

            add(change.time, repace)

    baseline = spec.baseline_loss
    for fault in spec.faults.faults:
        if isinstance(fault, LossWindow):
            add(fault.time, lambda f=fault: target.chaos.set_loss(BernoulliLoss(f.p)))
            add(fault.time + fault.duration, lambda: target.chaos.set_loss(baseline))
        elif isinstance(fault, LinkLossWindow):
            add(fault.time, lambda f=fault: target.chaos.set_link_loss(f.matrix))
            add(fault.time + fault.duration, lambda: target.chaos.set_link_loss(None))
        elif isinstance(fault, PartitionWindow):
            add(
                fault.time,
                lambda f=fault: target.chaos.partition([list(g) for g in f.groups]),
            )
            add(fault.time + fault.duration, lambda: target.chaos.heal())
        elif isinstance(fault, AsymmetricPartitionWindow):
            add(
                fault.time,
                lambda f=fault: target.chaos.partition_oneway(
                    [list(g) for g in f.groups], f.blocked
                ),
            )
            add(fault.time + fault.duration, lambda: target.chaos.heal_oneway())
        elif isinstance(fault, BandwidthCapWindow):
            # the chaos cap clock ticks in spec seconds (bound by the
            # driver), so the spec's msg-per-spec-second rate applies
            # unchanged — same per-second budget granularity as the
            # simulator's network, not just the same average
            add(fault.time, lambda f=fault: target.chaos.set_bandwidth_cap(f.rate))
            add(
                fault.time + fault.duration,
                lambda: target.chaos.set_bandwidth_cap(None),
            )
        elif isinstance(fault, CrashWindow):

            def crash(f=fault):
                for node in f.nodes:
                    target.crash_node(node)

            add(fault.time, crash)
            if fault.restart_at is not None:

                def restart(f=fault):
                    for node in f.nodes:
                        target.join_node(node)

                add(fault.restart_at, restart)
        else:
            not_lowered.append(fault)

    churn = {
        "join": lambda node: target.join_node(node),
        "leave": lambda node: target.leave_node(node),
        "crash": lambda node: target.crash_node(node),
    }
    for event in spec.churn.sorted_events():
        add(event.time, lambda fn=churn[event.action], n=event.node: fn(n))

    actions.sort(key=lambda entry: (entry[0], entry[1]))
    return actions, not_lowered


def run_scenario_threaded(
    spec: ScenarioSpec,
    wall_seconds: Optional[float] = None,
    gossip_period: float = 0.1,
    transport: str = "memory",
) -> ThreadedScenarioReport:
    """Drive a scenario on :class:`~repro.runtime.cluster.ThreadedCluster`.

    ``wall_seconds`` bounds the run (default: the whole scenario at the
    scaled clock). The feeder-and-fault loop runs on the calling thread:
    it paces offers through each sender node's admission queue and fires
    every scheduled condition — capacity/rate changes, chaos-rule
    updates, node crash/restart, churn — at its scaled offset.
    """
    scale = gossip_period / spec.system.gossip_period
    wall = spec.duration * scale if wall_seconds is None else wall_seconds
    # the sim path validates inside FaultScript.apply; this path opens/
    # closes windows itself, so it must reject ambiguous overlapping
    # same-kind windows just as loudly (specs validate at construction,
    # but FaultScript is a mutable value that may have grown since) —
    # and before any thread or transport exists
    spec.faults.validate()
    cluster = ThreadedCluster.from_scenario(
        spec, gossip_period=gossip_period, transport=transport
    )
    injected, skipped = threaded_coverage(spec)

    feeders = [_Feeder(sender, scale, spec.seed) for sender in spec.senders]
    actions, _ = lower_timed_conditions(spec, cluster, scale, feeders)
    offers = 0
    next_action = 0

    cluster.start()
    t0 = time.monotonic()
    try:
        while True:
            now = time.monotonic() - t0
            if now >= wall:
                break
            while next_action < len(actions) and actions[next_action][0] <= now:
                _, _, fire = actions[next_action]
                next_action += 1
                fire()
            wake = t0 + now + 0.02
            for feeder in feeders:
                while feeder.due(now):
                    cluster.broadcast(feeder.node)
                    offers += 1
                    feeder.advance()
                if feeder.stop is None or feeder.next < feeder.stop:
                    wake = min(wake, t0 + feeder.next)
            if next_action < len(actions):
                wake = min(wake, t0 + actions[next_action][0])
            pause = wake - time.monotonic()
            if pause > 0:
                time.sleep(min(pause, 0.02))
    finally:
        cluster.stop()

    # threads are joined: protocol state is safe to read now (restarted
    # nodes report their current incarnation — a fresh process's counts,
    # exactly what a real redeploy would show)
    member_ids = sorted(cluster.nodes)
    delivered = [
        cluster.protocol_of(node).stats.events_delivered for node in member_ids
    ]
    duplicates = sum(
        getattr(cluster.protocol_of(node).stats, "duplicates_seen", 0)
        for node in member_ids
    )
    admitted = sum(node.offers_admitted for node in cluster.nodes.values())
    chaos = cluster.chaos
    return ThreadedScenarioReport(
        scenario=spec.name,
        n_nodes=spec.n_nodes,
        wall_seconds=wall,
        time_scale=scale,
        offers=offers,
        admitted=admitted,
        delivered_total=sum(delivered),
        delivered_min=min(delivered),
        delivered_max=max(delivered),
        skipped=skipped,
        duplicates_seen=duplicates,
        injected=injected,
        chaos_eaten=0 if chaos is None else chaos.stats.eaten,
        chaos_delayed=0 if chaos is None else chaos.stats.delayed,
        chaos_oneway_dropped=0 if chaos is None else chaos.stats.oneway_blocked,
    )


# ----------------------------------------------------------------------
# process path
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ProcessScenarioReport:
    """What a multi-process scenario run did, injected, and could not model.

    Field-compatible with :class:`ThreadedScenarioReport` (every shared
    field means the same thing) plus process-only observability:
    ``n_workers``, cross-worker ``send_failures``/``decode_errors`` and
    respawn ``bind_errors``.
    """

    scenario: str
    n_nodes: int
    n_workers: int
    wall_seconds: float
    time_scale: float  # wall seconds per spec second
    offers: int
    admitted: int
    delivered_total: int
    delivered_min: int
    delivered_max: int
    skipped: tuple[str, ...]  # conditions this driver could not lower
    skipped_count: int = 0  # derived — see __post_init__
    duplicates_seen: int = 0  # gossip-level duplicate summaries, all nodes
    injected: tuple[str, ...] = ()  # conditions lowered onto the workers
    injected_count: int = 0  # derived, like skipped_count
    chaos_eaten: int = 0  # datagrams the chaos layer dropped/capped/blocked
    chaos_delayed: int = 0  # datagrams deferred through loop.call_later
    chaos_oneway_dropped: int = 0  # datagrams eaten by a one-way (directed) cut
    decode_errors: int = 0  # datagrams that failed BinaryCodec.decode
    send_failures: int = 0  # sendto/address-book failures across all workers
    bind_errors: int = 0  # respawn-time rebinds that never got their port back
    port_attempts: int = 1  # seeded port maps tried before all workers bound

    def __post_init__(self) -> None:
        object.__setattr__(self, "skipped_count", len(self.skipped))
        object.__setattr__(self, "injected_count", len(self.injected))


def run_scenario_process(
    spec: ScenarioSpec,
    wall_seconds: Optional[float] = None,
    gossip_period: float = 0.1,
    workers: Optional[int] = None,
) -> ProcessScenarioReport:
    """Drive a scenario on :class:`~repro.runtime.process_cluster.ProcessCluster`.

    Same time scaling and condition vocabulary as
    :func:`run_scenario_threaded`, but the group is sharded across
    ``workers`` OS processes gossiping over real UDP sockets; feeders,
    chaos windows, crash/restart and churn all fire inside the owning
    worker's event loop (see :mod:`repro.runtime.worker`). The report's
    ``injected``/``skipped`` tuples come from :func:`process_coverage`,
    so coverage is audited, not asserted.
    """
    # imported lazily: the process driver pulls in multiprocessing and
    # the asyncio worker, which sim-only callers never need
    from repro.runtime.process_cluster import ProcessCluster

    cluster = ProcessCluster(spec, gossip_period=gossip_period, n_workers=workers)
    result = cluster.run(wall_seconds=wall_seconds)
    injected, skipped = process_coverage(spec)
    delivered = sorted(result.delivered.values()) or [0]
    return ProcessScenarioReport(
        scenario=spec.name,
        n_nodes=spec.n_nodes,
        n_workers=result.n_workers,
        wall_seconds=result.wall_seconds,
        time_scale=result.time_scale,
        offers=result.offers,
        admitted=result.admitted,
        delivered_total=sum(delivered),
        delivered_min=delivered[0],
        delivered_max=delivered[-1],
        skipped=skipped,
        duplicates_seen=result.duplicates,
        injected=injected,
        chaos_eaten=result.chaos.eaten,
        chaos_delayed=result.chaos.delayed,
        chaos_oneway_dropped=result.chaos.oneway_blocked,
        decode_errors=result.decode_errors,
        send_failures=result.send_failures,
        bind_errors=result.bind_errors,
        port_attempts=result.port_attempts,
    )
