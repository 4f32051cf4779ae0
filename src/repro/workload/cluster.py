"""The discrete-event cluster driver.

:class:`SimCluster` assembles a complete simulated system: a
:class:`~repro.sim.engine.Simulator`, a :class:`~repro.sim.network.Network`,
membership, one protocol instance per node, round dispatch, senders, and
a :class:`~repro.metrics.collector.MetricsCollector`. The shared wiring
(factory resolution, metrics binding, directory) lives in the
:class:`~repro.driver.Driver` base class that the live runtime's
cluster also builds on.

It reproduces the paper's experimental setting with defaults of 60 nodes,
fanout 4 and a uniform low-latency LAN, and exposes the runtime controls
the evaluation needs: changing node buffer capacities mid-run (Figure 9),
scripted churn, and partial-view membership.

Round dispatch comes in two flavours selected by ``dispatch``:

* ``"batched"`` (default) — rounds are driven by the simulator's
  :class:`~repro.sim.engine.RoundDispatcher` and emissions go through
  :meth:`~repro.gossip.protocol.GossipProtocol.on_round_batch` and
  :meth:`~repro.sim.network.Network.multicast`. With a fixed
  ``round_phase`` and zero ``round_jitter`` this fires *all* node rounds
  from one heap pop per cluster round.
* ``"timers"`` — the original per-node timer path (one
  :meth:`~repro.sim.process.SimProcess.every` loop and one
  :meth:`~repro.sim.network.Network.send` per emission per node). Kept as
  the reference implementation; a run is byte-identical under either
  dispatch mode (the determinism tests assert this).
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.driver import Driver, ProtocolFactory, make_protocol_factory, sample_gauges
from repro.core.aggregation import Aggregate
from repro.core.config import AdaptiveConfig
from repro.gossip.config import SystemConfig
from repro.gossip.protocol import GossipMessage, NodeId
from repro.membership.views import PartialViewMembership, ViewConfig
from repro.metrics.collector import MetricsCollector
from repro.sim.engine import RoundDispatcher, Simulator
from repro.sim.network import LatencyModel, LossModel, Network, UniformLatency
from repro.sim.process import SimProcess
from repro.sim.vector import (
    VectorRoundExecutor,
    mega_schedule_reason,
    vector_eligible,
)
from repro.workload.senders import PeriodicArrivals, Sender

__all__ = ["ClusterNode", "SimCluster", "make_protocol_factory", "ProtocolFactory"]


class ClusterNode(SimProcess):
    """One simulated node: a protocol instance plus its round dispatch."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        node_id: NodeId,
        protocol,
        system: SystemConfig,
        collector: MetricsCollector,
        sample_gauges: bool = True,
        rounds: Optional[RoundDispatcher] = None,
    ) -> None:
        super().__init__(sim, ("node", node_id))
        self.node_id = node_id
        self.network = network
        self.protocol = protocol
        self.system = system
        self.collector = collector
        self.sample_gauges = sample_gauges
        self._round_member = None
        # The network's per-instant delivery coalescing feeds everything
        # through the batch handler; push-only protocols (never a reply)
        # get the variant without reply dispatch. The plain handler is
        # the Network API's per-message fallback and is not used while a
        # batch handler is registered.
        batch = (
            self._on_message_batch
            if getattr(protocol, "may_reply", True)
            else self._on_message_batch_push_only
        )
        network.attach(node_id, self._on_message, batch_handler=batch)
        if rounds is not None:
            self._round_member = rounds.add(
                self._on_round_batched,
                system.gossip_period,
                phase=system.round_phase,
                jitter=system.round_jitter,
                rng=self.rng,
            )
        else:
            self.every(
                system.gossip_period,
                self._on_round,
                phase=system.round_phase,
                jitter=system.round_jitter,
            )

    # ------------------------------------------------------------------
    # driver plumbing
    # ------------------------------------------------------------------
    def _on_round(self) -> None:
        """Per-node-timer round: one send per emission (reference path)."""
        now = self.sim.now
        for dest, message in self.protocol.on_round(now):
            self.network.send(self.node_id, dest, message, items=message.n_events)
        if self.sample_gauges:
            sample_gauges(self.collector, self.node_id, self.protocol, now)

    def _on_round_batched(self) -> None:
        """Batched round: one multicast per (destinations, message) group."""
        now = self.sim.now
        node_id = self.node_id
        multicast = self.network.multicast
        for dests, message in self.protocol.on_round_batch(now):
            multicast(node_id, dests, message, items=message.n_events)
        if self.sample_gauges:
            sample_gauges(self.collector, self.node_id, self.protocol, now)

    def _on_message(self, message: GossipMessage, src: NodeId, now: float) -> None:
        replies = self.protocol.on_receive(message, now)
        if replies:
            for dest, reply in replies:
                self.network.send(self.node_id, dest, reply, items=reply.n_events)

    def _on_message_batch(self, messages: list, now: float) -> None:
        replies = self.protocol.on_receive_batch(messages, now)
        if replies:
            for dest, reply in replies:
                self.network.send(self.node_id, dest, reply, items=reply.n_events)

    def _on_message_batch_push_only(self, messages: list, now: float) -> None:
        self.protocol.on_receive_batch(messages, now)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        """Stop rounds and detach from the network (leave/crash)."""
        self.stop()
        if self._round_member is not None:
            self._round_member.cancel()
        self.network.detach(self.node_id)


class SimCluster(Driver):
    """A complete simulated gossip group.

    Parameters
    ----------
    n_nodes:
        Group size (the paper uses 60).
    system:
        Gossip substrate parameters.
    protocol:
        Either a kind string (see :func:`repro.driver.make_protocol_factory`)
        or a ready factory.
    adaptive / rate_limit / aggregate:
        Forwarded to the factory when ``protocol`` is a kind string.
    seed:
        Root seed — everything (phases, targets, latencies, workloads)
        derives from it; same seed, same run.
    latency / loss:
        Network models; defaults to a jittered LAN with no loss.
    membership:
        ``"full"`` (paper's setting) or ``"partial"`` (lpbcast views).
    bucket_width:
        Metrics time-bucket width in seconds.
    dispatch:
        ``"batched"`` (default), ``"timers"``, or ``"vector"`` — see the
        module docstring and :mod:`repro.sim.vector`.
    aggregate_metrics:
        Aggregate-only metrics (no per-node receiver sets or gauges) —
        the memory mode for 10k+-node runs.
    allow_mega:
        Permission for ``dispatch="vector"`` to use the whole-population
        columnar lane when the configuration qualifies. Loss, partition,
        one-way, link-loss, bandwidth-cap, crash and aligned churn
        schedules lower onto the lane; callers that will apply a
        schedule it cannot honour (see
        :func:`~repro.sim.vector.mega_schedule_reason`) pass ``False``
        — the harness screens specs and does this automatically.
    vector_numpy:
        Force the vector lane's numpy fast path on/off; ``None``
        auto-detects. Results are identical either way.
    """

    def __init__(
        self,
        n_nodes: int = 60,
        system: Optional[SystemConfig] = None,
        protocol: Any = "lpbcast",
        adaptive: Optional[AdaptiveConfig] = None,
        rate_limit: Optional[float] = None,
        aggregate: Optional[Aggregate] = None,
        seed: int = 0,
        latency: Optional[LatencyModel] = None,
        loss: Optional[LossModel] = None,
        membership: str = "full",
        view_config: Optional[ViewConfig] = None,
        bucket_width: float = 1.0,
        sample_gauges: bool = True,
        dispatch: str = "batched",
        aggregate_metrics: bool = False,
        allow_mega: bool = True,
        vector_numpy: Optional[bool] = None,
    ) -> None:
        super().__init__(
            n_nodes,
            system=system,
            protocol=protocol,
            adaptive=adaptive,
            rate_limit=rate_limit,
            aggregate=aggregate,
            bucket_width=bucket_width,
            aggregate_metrics=aggregate_metrics,
            membership=membership,
            view_config=view_config,
        )
        if dispatch not in ("batched", "timers", "vector"):
            raise ValueError(f"unknown dispatch mode {dispatch!r}")
        self.dispatch = dispatch
        self.sim = Simulator(seed=seed)
        resolved_latency = latency if latency is not None else UniformLatency(0.005, 0.05)
        self.network = Network(self.sim, latency=resolved_latency, loss=loss)
        self.rounds = (
            RoundDispatcher(self.sim) if dispatch in ("batched", "vector") else None
        )
        self.nodes: dict[NodeId, ClusterNode] = {}
        self.senders: dict[NodeId, Sender] = {}
        self._sample_gauges = sample_gauges
        # The vector dispatch mode routes qualifying configurations onto
        # the whole-population columnar lane; everything else (and both
        # classic modes) materialises real per-node protocol instances,
        # for which vector dispatch is identical to batched.
        self.vector: Optional[VectorRoundExecutor] = None
        if dispatch == "vector" and vector_eligible(
            protocol=protocol,
            membership=membership,
            system=self.system,
            latency=resolved_latency,
            loss=loss,
            aggregate=aggregate,
            rate_limit=rate_limit,
            n_nodes=n_nodes,
            allow_mega=allow_mega,
        ):
            self.vector = VectorRoundExecutor(
                self.sim,
                self.network,
                self.metrics,
                self.system,
                n_nodes,
                resolved_latency,
                self.rounds,
                sample_gauges=sample_gauges,
                use_numpy=vector_numpy,
            )
            self.nodes.update(self.vector.nodes)
            self._log_size()
        else:
            for node_id in range(n_nodes):
                self._spawn_node(node_id)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_scenario(cls, spec, dispatch: str = "batched", **overrides) -> "SimCluster":
        """Instantiate a declarative scenario on the simulator.

        ``spec`` is a :class:`~repro.scenarios.spec.ScenarioSpec`; the
        cluster comes back fully wired — topology, senders, fault/churn/
        resource schedules — and ready for ``run(until=spec.duration)``.
        """
        # Local import: the experiments layer sits above this driver, so
        # pulling the lowering helper in at call time keeps the module
        # graph acyclic while sharing one code path with RunSpec sweeps.
        from repro.experiments.harness import build_cluster, spec_for_scenario

        return build_cluster(spec_for_scenario(spec, dispatch=dispatch, **overrides))

    def _spawn_node(self, node_id: NodeId) -> ClusterNode:
        if node_id in self.nodes:
            raise ValueError(f"node {node_id!r} already exists")
        self.directory.join(node_id)
        protocol = self._build_protocol(
            node_id,
            self._make_membership(node_id, self.sim.rngs),
            self.sim.rngs.stream("protocol", node_id),
            self.sim.now,
        )
        node = ClusterNode(
            self.sim,
            self.network,
            node_id,
            protocol,
            self.system,
            self.metrics,
            sample_gauges=self._sample_gauges,
            rounds=self.rounds,
        )
        self.nodes[node_id] = node
        self._log_size()
        return node

    # ------------------------------------------------------------------
    # workload
    # ------------------------------------------------------------------
    def add_sender(
        self,
        node_id: NodeId,
        rate: float,
        arrivals: Any = None,
        start: float = 0.0,
        stop: Optional[float] = None,
        queue_limit: int = 100,
        payload_fn: Optional[Callable[[int], Any]] = None,
    ) -> Sender:
        """Attach an application sender to ``node_id``.

        ``arrivals`` defaults to :class:`PeriodicArrivals` at ``rate``;
        pass a custom arrival process to override (its own rate wins).
        ``payload_fn(seq)`` builds payloads (None payloads by default).
        """
        if node_id not in self.nodes:
            raise ValueError(f"unknown node {node_id!r}")
        if node_id in self.senders:
            raise ValueError(f"node {node_id!r} already has a sender")
        sender = Sender(
            self.sim,
            ("sender", node_id),
            self.nodes[node_id].protocol,
            arrivals if arrivals is not None else PeriodicArrivals(rate),
            self.metrics,
            payload_fn=payload_fn,
            start=start,
            stop=stop,
            queue_limit=queue_limit,
        )
        self.senders[node_id] = sender
        return sender

    def add_senders(self, node_ids, rate_each: float, **kwargs: Any) -> list[Sender]:
        """Attach identical periodic senders to several nodes."""
        return [self.add_sender(n, rate_each, **kwargs) for n in node_ids]

    # ------------------------------------------------------------------
    # runtime control
    # ------------------------------------------------------------------
    def set_capacity(self, node_id: NodeId, capacity: int) -> None:
        """Change a node's buffer capacity now (Figure 9's resource change).

        An id that is not a current member is ignored, as in
        :meth:`crash_node`: a scheduled change may name a node that has
        left or not joined yet.
        """
        node = self.nodes.get(node_id)
        if node is not None:
            node.protocol.set_buffer_capacity(capacity, self.sim.now)

    def set_offered_rate(self, node_id: NodeId, rate: float) -> None:
        """Re-pace ``node_id``'s sender now; a node without one is ignored."""
        sender = self.senders.get(node_id)
        if sender is not None:
            sender.set_rate(rate)

    def at(self, time: float, fn: Callable[[], None]) -> None:
        """Schedule a scenario action at an absolute simulation time."""
        self.sim.schedule_at(time, fn)

    def _check_mega_schedule(self, faults=None, churn=None) -> None:
        """Refuse schedules the columnar lane cannot lower, up front.

        The harness pre-screens specs (``allow_mega`` in
        :func:`~repro.experiments.harness.build_cluster`), so on that path
        the vector lane only engages for supported schedules; this guards
        direct callers that construct a vector cluster and then apply an
        unsupported script.
        """
        if self.vector is None:
            return
        reason = mega_schedule_reason(
            system=self.system,
            n_nodes=self.vector.n,
            faults=faults,
            churn=churn,
            sender_ids=tuple(self.senders),
        )
        if reason is not None:
            raise RuntimeError(
                f"schedule is not supported on the vectorized mega lane "
                f"({reason}); construct the cluster with allow_mega=False "
                "(the harness does this automatically for such specs)"
            )

    def _vector_depart(self, node_id: NodeId, operation: str) -> None:
        """Crash/leave on the columnar lane: column reset, same identity."""
        if node_id in self.senders:
            raise RuntimeError(
                f"{operation} of sender node {node_id!r} is not supported "
                "on the vectorized mega lane (its sender process keeps "
                "broadcasting); construct the cluster with allow_mega=False"
            )
        node = self.nodes.pop(node_id, None)
        if node is None:
            return
        self.directory.leave(node_id)
        self.vector.crash(node_id)
        self._log_size()

    def join_node(self, node_id: NodeId):
        """Add a node to the running group (on the mega lane: re-admit a
        crashed identity as a fresh process)."""
        if self.vector is not None:
            self.vector.restart(node_id)
            self.directory.join(node_id)
            node = self.vector.nodes[node_id]
            self.nodes[node_id] = node
            self._log_size()
            return node
        return self._spawn_node(node_id)

    def leave_node(self, node_id: NodeId) -> None:
        """Graceful departure: announce unsubscription, then stop."""
        if self.vector is not None:
            # full membership has no unsubscription traffic, so a leave
            # and a crash lower identically on the columnar lane
            self._vector_depart(node_id, "leave_node")
            return
        node = self.nodes.pop(node_id, None)
        if node is None:
            return
        membership = node.protocol.membership
        if isinstance(membership, PartialViewMembership):
            membership.unsubscribe()
        self.directory.leave(node_id)
        node.shutdown()
        self.senders.pop(node_id, None)
        self._log_size()

    def crash_node(self, node_id: NodeId) -> None:
        """Silent failure: the node just stops (no unsubscription)."""
        if self.vector is not None:
            self._vector_depart(node_id, "crash_node")
            return
        node = self.nodes.pop(node_id, None)
        if node is None:
            return
        self.directory.leave(node_id)
        node.shutdown()
        self.senders.pop(node_id, None)
        self._log_size()

    def apply_faults(
        self, faults=None, churn=None, resources=None, baseline_loss=None
    ) -> None:
        """Schedule a run's timed conditions on the simulator.

        ``faults`` (:class:`~repro.sim.faults.FaultScript`) act on the
        network, or on nodes for crash windows; ``churn`` and
        ``resources`` on nodes and senders; ``baseline_loss`` is what a
        loss window restores on close (default: a perfect network).
        :func:`~repro.scenarios.spec.lower_timed_conditions` decides what
        fires when. Nothing is scheduled if a fault object is of a kind
        it cannot lower (``TypeError``) or the columnar lane cannot
        honour the schedule (``RuntimeError``).
        """
        # Local import, as in from_scenario: the scenarios package sits
        # above this driver.
        from repro.scenarios.spec import lower_timed_conditions

        actions, not_lowered = lower_timed_conditions(
            self.network, self, faults, churn, resources, baseline_loss
        )
        if not_lowered:
            kinds = sorted({type(fault).__name__ for fault in not_lowered})
            raise TypeError(f"no lowering for fault object(s) of type {', '.join(kinds)}")
        self._check_mega_schedule(faults=faults, churn=churn)
        for time, _, fire in actions:
            self.sim.schedule_at(time, fire)

    # ------------------------------------------------------------------
    # execution & analysis
    # ------------------------------------------------------------------
    def run(self, until: float) -> None:
        """Advance the simulation to absolute time ``until``."""
        self.sim.run(until=until)

    def run_for(self, duration: float) -> None:
        """Advance the simulation by ``duration`` virtual seconds."""
        self.sim.run(until=self.sim.now + duration)

    def clock(self) -> float:
        """The simulated time."""
        return self.sim.now

    def close(self) -> None:
        """No-op: the simulator owns no processes, files or sockets.

        Kept so callers can close any driver the same way.
        """
