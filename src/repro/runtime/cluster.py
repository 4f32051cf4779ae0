"""Whole-group runner for the real-time runtime.

:class:`ThreadedCluster` builds N :class:`~repro.runtime.node.RuntimeNode`
threads over an in-memory hub or UDP sockets, wires a (lock-serialised)
:class:`~repro.metrics.collector.MetricsCollector` into every protocol,
and runs the group for a wall-clock duration — the in-process equivalent
of the paper's 60-workstation deployment.

Because this half of the methodology exists to *validate the simulator*,
it reuses the exact protocol classes and metrics pipeline; the shared
wiring lives in the common :class:`~repro.driver.Driver` base class, so
only the execution substrate differs between this cluster and the
discrete-event :class:`~repro.workload.cluster.SimCluster`.

Fault parity: endpoints can be wrapped in
:class:`~repro.runtime.transport.ChaosTransport` (pass ``chaos=``, or
let :meth:`ThreadedCluster.from_scenario` build the rule set from the
scenario's topology/loss environment), membership may be partial
(lpbcast views gossiped over the real wire), and nodes can crash,
restart, join and leave while the group runs — the threaded
counterparts of :class:`~repro.workload.cluster.SimCluster`'s
``crash_node``/``join_node``/``leave_node``. The scenario fault
scheduler (:func:`repro.scenarios.runner.run_scenario_threaded`) drives
all of this on a shared wall clock.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Optional

from repro.core.aggregation import Aggregate
from repro.core.config import AdaptiveConfig
from repro.driver import Driver
from repro.gossip.config import SystemConfig
from repro.membership.full import FullMembershipView
from repro.membership.views import PartialViewMembership, ViewConfig
from repro.runtime.codec import BinaryCodec
from repro.runtime.node import RuntimeNode
from repro.runtime.transport import ChaosRules, ChaosTransport, InMemoryHub, UdpTransport
from repro.sim.rng import RngRegistry

__all__ = ["ThreadedCluster"]


class ThreadedCluster(Driver):
    """A gossip group running on real threads and a real transport.

    Parameters
    ----------
    n_nodes:
        Group size.
    system:
        Gossip parameters. Real runs usually want a short
        ``gossip_period`` (e.g. 0.05–0.2 s) so experiments finish fast.
    protocol:
        ``"lpbcast"``, ``"static"`` or ``"adaptive"`` (or a factory).
    transport:
        ``"memory"`` (default) or ``"udp"`` (localhost sockets).
    membership:
        ``"full"`` (shared directory, the paper's testbed setting) or
        ``"partial"`` (per-node lpbcast views, gossiped on the wire).
    chaos:
        A :class:`~repro.runtime.transport.ChaosRules` value; when
        given, every endpoint is wrapped in a
        :class:`~repro.runtime.transport.ChaosTransport` seeded per node
        from ``seed``, and the rule set may be mutated mid-run (fault
        windows, partitions) from any thread.
    """

    def __init__(
        self,
        n_nodes: int,
        system: Optional[SystemConfig] = None,
        protocol: Any = "lpbcast",
        adaptive: Optional[AdaptiveConfig] = None,
        rate_limit: Optional[float] = None,
        aggregate: Optional[Aggregate] = None,
        transport: str = "memory",
        seed: int = 0,
        codec: Optional[Any] = None,
        membership: str = "full",
        view_size: Optional[int] = None,
        chaos: Optional[ChaosRules] = None,
    ) -> None:
        super().__init__(
            n_nodes,
            system=system,
            protocol=protocol,
            adaptive=adaptive,
            rate_limit=rate_limit,
            aggregate=aggregate,
        )
        if transport not in ("memory", "udp"):
            raise ValueError(f"unknown transport {transport!r}")
        if membership not in ("full", "partial"):
            raise ValueError(f"unknown membership kind {membership!r}")
        self.codec = codec if codec is not None else BinaryCodec()
        self._metrics_lock = threading.Lock()
        self._started = False
        self._stopped = False
        self._seed = seed
        self._rngs = RngRegistry(seed)
        self._transport_kind = transport
        self.membership_kind = membership
        self.view_size = view_size
        self.chaos = chaos

        self._hub = InMemoryHub() if transport == "memory" else None
        self._addr_of: dict[Any, Any] = {}
        self._node_by_addr: dict[Any, Any] = {}
        self.nodes: dict[Any, RuntimeNode] = {}
        self._t0 = time.monotonic()

        if chaos is not None:
            # partition/loss rules speak node ids; teach the rule set to
            # translate transport addresses back (identity for memory)
            chaos.bind_address_map(lambda addr: self._node_by_addr.get(addr, addr))

        for node_id in range(n_nodes):
            self._spawn_runtime_node(node_id)

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    def _make_endpoint(self, node_id: Any):
        if self._transport_kind == "memory":
            raw = self._hub.create(node_id)
        else:
            raw = UdpTransport()
        self._addr_of[node_id] = raw.address
        self._node_by_addr[raw.address] = node_id
        if self.chaos is not None:
            return ChaosTransport(raw, self.chaos, node_id, seed=self._seed)
        return raw

    def _make_membership(self, node_id: Any):
        if self.membership_kind == "full":
            return FullMembershipView(self.directory, node_id)
        rng = self._rngs.stream("bootstrap_view", node_id)
        others = [n for n in self.directory.alive() if n != node_id]
        cfg = (
            ViewConfig(view_size=self.view_size)
            if self.view_size is not None
            else ViewConfig()
        )
        bootstrap = rng.sample(others, min(len(others), cfg.view_size))
        return PartialViewMembership(node_id, cfg, initial_view=bootstrap)

    def _spawn_runtime_node(self, node_id: Any) -> RuntimeNode:
        endpoint = self._make_endpoint(node_id)
        proto = self._build_protocol(
            node_id,
            self._make_membership(node_id),
            self._rngs.stream("protocol", node_id),
            self._clock(),
        )
        node = RuntimeNode(
            proto,
            endpoint,
            self.codec,
            self._addr_of.get,
            gossip_period=self.system.gossip_period,
            clock=self._clock,
            jitter=self.system.round_jitter,
            phase=self.system.round_phase,
        )
        self.nodes[node_id] = node
        return node

    # ------------------------------------------------------------------
    # Driver hooks
    # ------------------------------------------------------------------
    @classmethod
    def from_scenario(
        cls,
        spec,
        gossip_period: Optional[float] = None,
        transport: str = "memory",
        **overrides,
    ) -> "ThreadedCluster":
        """Instantiate a declarative scenario on real threads.

        Real runs want short rounds, so the spec's gossip period is
        replaced by ``gossip_period`` (default 0.1 s); everything else of
        the protocol profile carries over, including partial-view
        membership. When the spec carries a network environment — a
        topology/latency model, baseline loss, or loss/partition/
        bandwidth fault windows — the endpoints come wrapped in a
        :class:`~repro.runtime.transport.ChaosTransport` sharing one
        :class:`~repro.runtime.transport.ChaosRules`, pre-loaded with
        the baseline loss and the latency model (link delays scaled by
        the same wall-clock factor as the schedule). Scenario
        *schedules* (workload offers, fault/churn/resource scripts) are
        driven by :func:`repro.scenarios.runner.run_scenario_threaded`.
        """
        import dataclasses

        period = 0.1 if gossip_period is None else gossip_period
        scale = period / spec.system.gossip_period
        system = dataclasses.replace(spec.system, gossip_period=period)
        chaos = overrides.pop("chaos", None)
        if chaos is None and spec.wire_conditions:
            chaos = ChaosRules(
                loss=spec.baseline_loss,
                latency=spec.build_latency(),
                latency_scale=scale,
            )
        cluster = cls(
            n_nodes=spec.n_nodes,
            system=system,
            protocol=spec.protocol,
            adaptive=spec.adaptive,
            rate_limit=spec.rate_limit,
            aggregate=spec.aggregate,
            transport=transport,
            seed=spec.seed,
            membership=spec.membership,
            view_size=spec.view_size,
            chaos=chaos,
            **overrides,
        )
        if cluster.chaos is not None:
            # cap windows must bucket per *spec* second (the simulator's
            # granularity), not per wall second — at scale 0.1 a wall
            # bucket would hand out ten spec-seconds of budget as one
            # FCFS burst. The runner therefore sets caps at the spec's
            # unscaled msg/s rate.
            wall_clock = cluster._clock
            cluster.chaos.bind_clock(lambda: wall_clock() / scale)
        # conditions present from t=0 (e.g. slow receivers) apply before
        # the threads start, directly on the still-unshared protocols.
        # Must stay the exact complement of the timed-action queue in
        # run_scenario_threaded, which excludes t=0 CapacityChanges.
        from repro.workload.dynamics import CapacityChange

        for change in spec.resources.changes:
            if change.time == 0.0 and isinstance(change, CapacityChange):
                for node in change.nodes:
                    if node in cluster.nodes:
                        cluster.nodes[node].protocol.set_buffer_capacity(
                            change.capacity, 0.0
                        )
        return cluster

    def _default_system(self) -> SystemConfig:
        # real runs want short rounds so experiments finish fast
        return SystemConfig(gossip_period=0.1)

    def _default_bucket_width(self) -> float:
        return max(0.1, self.system.gossip_period)

    # ------------------------------------------------------------------
    # clocks & metrics plumbing
    # ------------------------------------------------------------------
    def _clock(self) -> float:
        """Cluster-relative wall clock (metrics buckets start at 0)."""
        return time.monotonic() - self._t0

    def _bind_deliver(self, node_id: Any):
        """Like the base binding, but serialised behind the metrics lock."""
        collector = self.metrics
        lock = self._metrics_lock

        def deliver_fn(event_id, payload, now):
            with lock:
                collector.on_deliver(node_id, event_id, now)

        return deliver_fn

    def _bind_drop(self, node_id: Any):
        """Like the base binding, but serialised behind the metrics lock."""
        collector = self.metrics
        lock = self._metrics_lock

        def drop_fn(event_id, age, reason, now):
            with lock:
                collector.on_drop(node_id, event_id, age, reason, now)

        return drop_fn

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    def start(self) -> None:
        self._started = True
        for node in self.nodes.values():
            if not node.is_alive() and node.ident is None:
                node.start()

    def broadcast(self, node_id: Any, payload: Any = None) -> None:
        """Offer a broadcast through ``node_id`` (admission on its thread)."""
        self.nodes[node_id].broadcast(payload)

    def set_capacity(self, node_id: Any, capacity: int) -> None:
        """Change a node's buffer capacity, safely, while it runs.

        The change is queued onto the node's own thread (the protocol is
        never touched cross-thread) — the threaded counterpart of
        :meth:`repro.workload.cluster.SimCluster.set_capacity`. An id
        that never joined is ignored, as in :meth:`crash_node`: a
        scheduled change may name a member that is not there yet.
        """

        def apply(protocol, now: float) -> None:
            protocol.set_buffer_capacity(capacity, now)

        node = self.nodes.get(node_id)
        if node is not None:
            node.invoke(apply)

    def note_admitted(self, node_id: Any, event_id, when: Optional[float] = None) -> None:
        """Record an admission in the metrics (used by runtime tests)."""
        with self._metrics_lock:
            self.metrics.on_admitted(node_id, event_id, when if when is not None else self._clock())

    # ------------------------------------------------------------------
    # live membership (the threaded counterparts of SimCluster's)
    # ------------------------------------------------------------------
    def crash_node(self, node_id: Any, timeout: float = 2.0) -> None:
        """Silent failure: stop the thread, close the endpoint, no goodbye.

        The dead :class:`RuntimeNode` stays in :attr:`nodes` so its
        protocol statistics remain readable after the run; liveness is
        the directory's call. Safe from any thread; idempotent.
        """
        node = self.nodes.get(node_id)
        if node is None or not self.directory.is_alive(node_id):
            return
        self.directory.leave(node_id)
        self._retire_endpoint(node_id)
        node.shutdown(timeout=timeout)

    def leave_node(self, node_id: Any, timeout: float = 2.0) -> None:
        """Graceful departure: unsubscribe, gossip it, then stop.

        The unsubscribe is queued onto the node's own thread; what makes
        the departure *graceful* (distinguishable from a crash) is that
        the node then lives through one more gossip round, so partial
        views actually carry the unsubscription onto the wire — the
        header is only built by future emissions. The grace period is
        *non-blocking*: the final shutdown rides a daemon timer, so the
        scenario fault scheduler (a single thread pacing offers and
        firing every condition) is never stalled by a departure. The
        grace is skipped for full membership, where the directory itself
        is the announcement. :meth:`stop` still tears everything down
        immediately — shutdown is idempotent, a late timer is a no-op.
        """
        node = self.nodes.get(node_id)
        if node is None or not self.directory.is_alive(node_id):
            return
        announces = getattr(node.protocol.membership, "unsubscribe", None)

        def unsub(protocol, now: float) -> None:
            unsubscribe = getattr(protocol.membership, "unsubscribe", None)
            if callable(unsubscribe):
                unsubscribe()

        node.invoke(unsub)
        self.directory.leave(node_id)
        self._retire_endpoint(node_id)
        if callable(announces) and node.is_alive():
            # one command-drain poll plus one full round, even with jitter
            grace = RuntimeNode.POLL_CAP + node.gossip_period * 1.2
            timer = threading.Timer(grace, node.shutdown)
            timer.daemon = True
            timer.start()
        else:
            node.shutdown(timeout=timeout)

    def join_node(self, node_id: Any) -> RuntimeNode:
        """(Re)join under ``node_id``: a fresh process, old identity.

        A restarted node gets a brand-new protocol instance (empty
        buffers — the realistic model for a process restart) and a fresh
        endpoint; if the cluster is running, its thread starts
        immediately. The previous incarnation, if any, must be dead.
        """
        if self._stopped:
            raise RuntimeError("cluster stopped; nodes cannot join")
        old = self.nodes.get(node_id)
        if old is not None and self.directory.is_alive(node_id):
            return old  # already a live member
        if old is not None and old.is_alive():
            # a graceful leave's grace timer may still be pending:
            # rejoining under the identity supersedes it, so finish the
            # teardown now (shutdown is idempotent — the timer firing
            # later on the old, already-dead node is a no-op, and its
            # late transport close is identity-checked by the hub)
            old.shutdown()
        self.directory.join(node_id)
        node = self._spawn_runtime_node(node_id)
        if self._started:
            node.start()
        return node

    def _retire_endpoint(self, node_id: Any) -> None:
        """Forget the node's address so peers see sends fail fast."""
        addr = self._addr_of.pop(node_id, None)
        if addr is not None:
            self._node_by_addr.pop(addr, None)

    def run_for(self, duration: float) -> None:
        """Start (if needed), run for ``duration`` wall seconds, stop.

        One-shot, unlike the simulator's repeatable
        :meth:`~repro.workload.cluster.SimCluster.run_for`: real threads
        cannot be restarted once joined, so the teardown is final. For
        incremental wall-clock phases call :meth:`start`, sleep between
        observations, then :meth:`stop` once.
        """
        if self._stopped:
            raise RuntimeError(
                "this cluster has been stopped; its threads and transports "
                "cannot be reused — build a fresh ThreadedCluster"
            )
        if not any(n.is_alive() for n in self.nodes.values()):
            self.start()
        time.sleep(duration)
        self.stop()

    def stop(self) -> None:
        # consumes the cluster whether or not it ever started: shutdown
        # closes the transports, so the nodes can never run afterwards
        self._stopped = True
        for node in self.nodes.values():
            node.shutdown()
        if self.chaos is not None:
            self.chaos.close()
