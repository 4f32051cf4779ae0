"""Run scenarios on any driver.

The simulator path lowers a :class:`~repro.scenarios.spec.ScenarioSpec`
to a :class:`~repro.experiments.harness.RunSpec` and reuses the whole
experiment harness (so scenario runs sweep, shard and serialise exactly
like figure runs).

The two live paths run the same spec on the one live host,
:class:`~repro.runtime.cluster.ThreadedCluster`, with *full condition
parity*: workload offers are paced from the spec's sender shapes,
timed capacity changes reach the owning nodes on the host's event loop,
loss/partition/bandwidth windows and the topology/latency environment
are decided by :class:`~repro.runtime.transport.ChaosRules` at every
send, crash windows stop and restart real nodes, churn scripts join
and leave members through the live membership layer, and partial views
gossip over the actual wire. :func:`run_scenario_threaded` hosts every
node in this process over the memory hop; :func:`run_scenario_process`
hosts one shard per worker process over real UDP sockets
(:class:`~repro.runtime.process_cluster.ProcessCluster`). Conditions
the host cannot lower (unknown fault kinds) are still *reported as
skipped* rather than silently dropped; :func:`live_coverage` computes
the injected/skipped split without running anything, so the CLI and the
parity tests can audit coverage cheaply.

Spec time on a wall clock: the protocols, feeders, timed conditions and
chaos rules of a live run all read the host's clock, which counts spec
seconds, so admission rates, offer intervals, fault/churn offsets, link
latencies and bandwidth caps mean what the spec says. ``gossip_period``
only sets how many wall seconds one spec second lasts
(``gossip_period / spec.system.gossip_period``, default 0.1 s per
round); the host applies that factor where its loop waits, and nowhere
else.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from random import Random
from typing import Optional, Union

from repro.experiments.harness import RunResult, run_once, spec_for_scenario, summarise
from repro.experiments.profiles import Profile, get_profile
from repro.experiments.sweep import run_scenario_matrix
from repro.runtime.cluster import ThreadedCluster
from repro.scenarios.registry import get_scenario
from repro.scenarios.spec import ScenarioSpec, lower_timed_conditions
from repro.sim.faults import (
    AsymmetricPartitionWindow,
    BandwidthCapWindow,
    CrashWindow,
    LinkLossWindow,
    LossWindow,
    PartitionWindow,
)

__all__ = [
    "LiveScenarioReport",
    "live_report",
    "smoke_profile",
    "run_scenario",
    "run_scenario_process",
    "run_scenario_threaded",
    "run_scenario_matrix",
    "live_coverage",
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
    ``driver="sim"``, and for ``driver="threaded"`` or ``"process"`` a
    :class:`LiveScenarioReport` whose ``result`` is one.
    """
    spec = _resolve(spec_or_name, profile)
    if driver == "sim":
        return run_once(spec_for_scenario(spec, dispatch=dispatch, horizon=horizon))
    live = {"threaded": run_scenario_threaded, "process": run_scenario_process}.get(driver)
    if live is None:
        raise ValueError(f"unknown driver {driver!r}; choose 'sim', 'threaded' or 'process'")
    return live(spec if horizon is None else spec.with_horizon(horizon))


# ----------------------------------------------------------------------
# live paths
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LiveScenarioReport:
    """What a live scenario run did, injected, and could not model.

    One type for both live drivers, built by :func:`live_report` from
    the host that ran: ``driver`` is ``"threaded"`` or ``"process"``,
    and a process run folds its shards' reports into one
    (:meth:`~repro.runtime.process_cluster.ProcessCluster.run`). Only
    ``n_workers`` and ``port_attempts`` stay 0 on the threaded driver.
    The counts are whole-run facts; ``result`` is the run measured over
    the spec's window exactly as the sim measures (``None`` for a shard).
    """

    scenario: str
    driver: str  # "threaded" | "process"
    n_nodes: int
    wall_seconds: float
    time_scale: float  # wall seconds per spec second
    offers: int
    admitted: int
    delivered_total: int
    delivered_min: int
    skipped: tuple[str, ...]  # conditions the live host could not lower
    # surfaced as a count so CLI output and JSON payloads can report
    # partial coverage without string-matching the skip reasons; a real
    # field (so it serialises) but always derived — see __post_init__
    skipped_count: int = 0
    duplicates_seen: int = 0  # gossip-level duplicate summaries, all nodes
    injected: tuple[str, ...] = ()  # conditions lowered onto the live host
    injected_count: int = 0  # derived, like skipped_count
    chaos_eaten: int = 0  # datagrams the chaos layer dropped/capped/blocked
    chaos_delayed: int = 0  # datagrams deferred through loop.call_later
    chaos_oneway_dropped: int = 0  # datagrams eaten by a one-way (directed) cut
    n_workers: int = 0  # process driver only
    decode_errors: int = 0  # datagrams that failed BinaryCodec.decode
    send_failures: int = 0  # sends with no live route or a failed sendto
    bind_errors: int = 0  # respawn-time rebinds that never got their port back
    port_attempts: int = 0  # process driver only: seeded port maps tried
    result: Optional[RunResult] = None  # the windowed summary; None for a shard

    def __post_init__(self) -> None:
        object.__setattr__(self, "skipped_count", len(self.skipped))
        object.__setattr__(self, "injected_count", len(self.injected))


class _Feeder:
    """Paces one sender's offers in spec seconds.

    The first offer falls at ``start``, then one per arrival interval,
    the sim :class:`~repro.workload.senders.Sender`'s instants.
    """

    def __init__(self, sender, seed: int) -> None:
        self.node = sender.node
        self.arrivals = sender.build_arrivals()
        # sender nodes are ints by ScenarioSpec validation
        self.rng = Random(seed * 1_000_003 + sender.node)
        self.stop = sender.stop
        self.next = sender.start

    def advance(self) -> None:
        self.next += self.arrivals.next_interval(self.rng)


# condition -> how the live host lowers it, whichever front door (one
# in-process host, or one host per worker process) runs it
_LIVE_LOWERING = {
    "chaos": "chaos rules at every send",
    "crash": "live node stop/restart",
    "unknown": "no live lowering",
    "churn": "live join/leave",
    "topology": "chaos link delays",
    "partial": "live partial views on the wire",
}


def live_coverage(spec: ScenarioSpec) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The ``(injected, skipped)`` condition split for the live drivers.

    Pure classification — no cluster is built, so the CLI's coverage
    listing and the registry-wide parity tests can audit every scenario
    in microseconds. Both live drivers run the same host and the same
    lowering, so one split holds for both; ``run_scenario_threaded`` and
    ``run_scenario_process`` derive their reports' ``injected``/
    ``skipped`` tuples from this function, so the audit can never drift
    from what a run actually does.
    """
    injected: list[str] = []
    skipped: list[str] = []

    def count(kind) -> int:
        return sum(1 for f in spec.faults.faults if isinstance(f, kind))

    losses, partitions = count(LossWindow), count(PartitionWindow)
    caps, crashes = count(BandwidthCapWindow), count(CrashWindow)
    oneways, link_losses = count(AsymmetricPartitionWindow), count(LinkLossWindow)
    chaos, crash = _LIVE_LOWERING["chaos"], _LIVE_LOWERING["crash"]
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
    # nothing is fired, so the audit needs no rules or target to lower onto
    _, not_lowered = lower_timed_conditions(None, None, spec.faults)
    if not_lowered:
        skipped.append(
            f"{len(not_lowered)} unrecognised fault window(s): {_LIVE_LOWERING['unknown']}"
        )
    if len(spec.churn):
        injected.append(f"{len(spec.churn)} churn event(s): {_LIVE_LOWERING['churn']}")
    if spec.topology is not None:
        injected.append(f"topology/latency model: {_LIVE_LOWERING['topology']}")
    if spec.baseline_loss is not None:
        injected.append(f"baseline loss model: {chaos}")
    if spec.membership == "partial":
        injected.append(f"partial membership: {_LIVE_LOWERING['partial']}")
    return tuple(injected), tuple(skipped)


def live_report(
    spec: ScenarioSpec, cluster: ThreadedCluster, driver: str, wall_seconds: float
) -> LiveScenarioReport:
    """What a stopped live host did, as a :class:`LiveScenarioReport`.

    The one builder of live reports: the threaded driver calls it on its
    host, and every process worker on its shard's host (the parent folds
    the shards and summarises their merged collectors and summed wire
    counters); a host of the whole group summarises its own, its rule
    set's ``stats`` included. Restarted nodes report their current
    incarnation — a fresh process's counts, exactly what a real redeploy
    would show.
    """
    stats = [node.protocol.stats for node in cluster.nodes.values()]
    delivered = [s.events_delivered for s in stats]
    duplicates = sum(getattr(s, "duplicates_seen", 0) for s in stats)
    injected, skipped = live_coverage(spec)
    chaos = cluster.chaos
    net = None if chaos is None else chaos.stats
    result = None
    if cluster.hosted is None:
        result = summarise(
            spec_for_scenario(spec),
            cluster.metrics,
            cluster.size_log,
            duplicates,
            sum(delivered),
            net,
        )
    return LiveScenarioReport(
        scenario=spec.name,
        driver=driver,
        n_nodes=spec.n_nodes,
        wall_seconds=wall_seconds,
        time_scale=cluster.scale,
        offers=cluster.offers,
        admitted=int(cluster.metrics.admitted.count()),
        delivered_total=sum(delivered),
        delivered_min=min(delivered),
        skipped=skipped,
        duplicates_seen=duplicates,
        injected=injected,
        chaos_eaten=0 if net is None else net.eaten,
        chaos_delayed=0 if net is None else net.delayed,
        chaos_oneway_dropped=0 if net is None else net.oneway_blocked,
        decode_errors=cluster.decode_errors,
        send_failures=cluster.send_failures,
        bind_errors=cluster.bind_errors,
        result=result,
    )


def run_scenario_threaded(
    spec: ScenarioSpec,
    wall_seconds: Optional[float] = None,
    gossip_period: float = 0.1,
    transport: str = "memory",
) -> LiveScenarioReport:
    """Drive a scenario on :class:`~repro.runtime.cluster.ThreadedCluster`.

    ``wall_seconds`` bounds the run (default: the whole scenario, at
    ``gossip_period`` wall seconds per spec round). Every node runs in
    this process, over the memory hop by default; the host paces the
    offers and fires every scheduled condition on its own event loop. A
    failure inside the loop is raised here.
    """
    cluster = ThreadedCluster.from_scenario(
        spec, gossip_period=gossip_period, transport=transport
    )
    wall = spec.duration * cluster.scale if wall_seconds is None else wall_seconds
    cluster.start()
    try:
        cluster.wait(wall)
    finally:
        cluster.stop()

    # the loop is joined: protocol state is safe to read now
    return live_report(spec, cluster, "threaded", wall)


# ----------------------------------------------------------------------
# process path
# ----------------------------------------------------------------------
def run_scenario_process(
    spec: ScenarioSpec,
    wall_seconds: Optional[float] = None,
    gossip_period: float = 0.1,
    workers: Optional[int] = None,
) -> LiveScenarioReport:
    """Drive a scenario on :class:`~repro.runtime.process_cluster.ProcessCluster`.

    Same host, clock and condition vocabulary as
    :func:`run_scenario_threaded`, but the group is sharded across
    ``workers`` OS processes gossiping over real UDP sockets; feeders,
    chaos windows, crash/restart and churn all fire on the event loop of
    the worker hosting the shard (see :mod:`repro.runtime.worker`). Each
    worker builds its shard's :func:`live_report`, and the parent folds
    them and summarises the merged collectors. A worker's failure is
    raised here.
    """
    # imported lazily: the process driver pulls in multiprocessing and
    # the asyncio worker, which sim-only callers never need
    from repro.runtime.process_cluster import ProcessCluster

    cluster = ProcessCluster(spec, gossip_period=gossip_period, n_workers=workers)
    return cluster.run(wall_seconds=wall_seconds)
