"""Topic-based publish-subscribe over gossip groups (the §1 motivation).

The paper motivates adaptation with exactly this application: hosts
subscribe to topics; each topic is its own broadcast group; a host's
fixed buffer budget is *split across the groups it belongs to*, so every
subscribe/unsubscribe changes the resources available to each group —
invisibly to the publishers, unless the broadcast protocol adapts.

:class:`PubSubSystem` runs any number of topic groups over one simulator
and network. A :class:`PubSubHost` owns a buffer budget; subscribing
creates a protocol instance for that topic (addressed ``(topic, host)``),
and every membership change rebalances the host's per-topic capacities,
which flows into the adaptive mechanism through
``set_buffer_capacity`` → minBuff gossip → sender rates.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.core.config import AdaptiveConfig
from repro.gossip.config import SystemConfig
from repro.membership.full import Directory, FullMembershipView
from repro.metrics.collector import MetricsCollector
from repro.sim.engine import Simulator
from repro.sim.network import LatencyModel, Network, UniformLatency
from repro.workload.cluster import ClusterNode, make_protocol_factory
from repro.workload.senders import PeriodicArrivals, Sender

__all__ = ["PubSubSystem", "PubSubHost"]


class PubSubHost:
    """A machine with a fixed buffer budget, subscribed to some topics."""

    def __init__(self, system: "PubSubSystem", host_id: Any, buffer_budget: int) -> None:
        if buffer_budget < system.min_buffer_per_topic:
            raise ValueError("buffer_budget below the per-topic minimum")
        self.system = system
        self.host_id = host_id
        self.buffer_budget = int(buffer_budget)
        self.nodes: dict[str, ClusterNode] = {}  # topic -> node
        self.publishers: dict[str, Sender] = {}

    # ------------------------------------------------------------------
    # subscriptions
    # ------------------------------------------------------------------
    @property
    def topics(self) -> list[str]:
        return list(self.nodes)

    def per_topic_capacity(self) -> int:
        """The budget share each subscribed topic currently gets."""
        n = max(1, len(self.nodes))
        return max(self.system.min_buffer_per_topic, self.buffer_budget // n)

    def subscribe(self, topic: str) -> None:
        """Join a topic's broadcast group; rebalances the budget."""
        if topic in self.nodes:
            return
        # Compute the post-subscribe share first so the new protocol is
        # *born* with the right capacity — the minBuff estimator treats
        # increases conservatively (window-delayed), so starting low and
        # resizing up would depress the group estimate for W periods.
        n_after = len(self.nodes) + 1
        capacity = max(self.system.min_buffer_per_topic, self.buffer_budget // n_after)
        self.nodes[topic] = self.system._join_group(topic, self.host_id, capacity)
        self.rebalance()

    def unsubscribe(self, topic: str) -> None:
        """Leave a topic's group; rebalances the freed budget."""
        node = self.nodes.pop(topic, None)
        if node is None:
            return
        self.publishers.pop(topic, None)
        self.system._leave_group(topic, self.host_id, node)
        self.rebalance()

    def rebalance(self) -> None:
        """Split the budget equally across current subscriptions.

        This is the dynamic-resource event of §1: the adaptive protocol
        sees it as a local capacity change and gossips the new minimum.
        """
        capacity = self.per_topic_capacity()
        now = self.system.sim.now
        for node in self.nodes.values():
            node.protocol.set_buffer_capacity(capacity, now)

    # ------------------------------------------------------------------
    # publishing
    # ------------------------------------------------------------------
    def publish_at(self, topic: str, rate: float, start: float = 0.0,
                   stop: Optional[float] = None) -> Sender:
        """Attach a periodic publisher to one of our subscribed topics."""
        if topic not in self.nodes:
            raise ValueError(f"host {self.host_id!r} is not subscribed to {topic!r}")
        if topic in self.publishers:
            raise ValueError(f"host {self.host_id!r} already publishes to {topic!r}")
        sender = Sender(
            self.system.sim,
            ("publisher", topic, self.host_id),
            self.nodes[topic].protocol,
            PeriodicArrivals(rate),
            self.system.collector_for(topic),
            start=start,
            stop=stop,
        )
        self.publishers[topic] = sender
        return sender


class _TopicGroup:
    """Bookkeeping for one topic: membership directory + metrics."""

    def __init__(self, bucket_width: float) -> None:
        self.directory = Directory()
        self.collector = MetricsCollector(bucket_width=bucket_width)

    @property
    def size(self) -> int:
        return len(self.directory)


class PubSubSystem:
    """Any number of topic groups sharing one simulator and network."""

    def __init__(
        self,
        system: Optional[SystemConfig] = None,
        adaptive: Optional[AdaptiveConfig] = None,
        protocol: str = "adaptive",
        seed: int = 0,
        latency: Optional[LatencyModel] = None,
        bucket_width: float = 1.0,
        min_buffer_per_topic: int = 8,
    ) -> None:
        self.system_config = system if system is not None else SystemConfig()
        self.sim = Simulator(seed=seed)
        self.network = Network(
            self.sim, latency=latency if latency is not None else UniformLatency(0.005, 0.05)
        )
        self.min_buffer_per_topic = int(min_buffer_per_topic)
        self.bucket_width = bucket_width
        self._factory = make_protocol_factory(protocol, adaptive=adaptive)
        self._groups: dict[str, _TopicGroup] = {}
        self.hosts: dict[Any, PubSubHost] = {}

    # ------------------------------------------------------------------
    # hosts and groups
    # ------------------------------------------------------------------
    def add_host(self, host_id: Any, buffer_budget: int) -> PubSubHost:
        if host_id in self.hosts:
            raise ValueError(f"host {host_id!r} already exists")
        host = PubSubHost(self, host_id, buffer_budget)
        self.hosts[host_id] = host
        return host

    def group(self, topic: str) -> _TopicGroup:
        grp = self._groups.get(topic)
        if grp is None:
            grp = _TopicGroup(self.bucket_width)
            self._groups[topic] = grp
        return grp

    def collector_for(self, topic: str) -> MetricsCollector:
        return self.group(topic).collector

    def group_size(self, topic: str) -> int:
        return self.group(topic).size

    def topics(self) -> list[str]:
        return list(self._groups)

    # ------------------------------------------------------------------
    # internals used by PubSubHost
    # ------------------------------------------------------------------
    def _join_group(self, topic: str, host_id: Any, capacity: int) -> ClusterNode:
        group = self.group(topic)
        address = (topic, host_id)
        group.directory.join(address)
        membership = FullMembershipView(group.directory, address)
        collector = group.collector

        def deliver_fn(event_ids, payloads, now, _addr=address):
            collector.on_deliver_many(_addr, event_ids, now)

        def drop_fn(reason, event_ids, ages, now):
            collector.on_drop_bulk(reason, now, ages)

        config = self.system_config.with_buffer(capacity)
        protocol = self._factory(
            address,
            config,
            membership,
            self.sim.rngs.stream("protocol", topic, host_id),
            deliver_fn,
            drop_fn,
            self.sim.now,
        )
        return ClusterNode(
            self.sim, self.network, address, protocol, config, collector
        )

    def _leave_group(self, topic: str, host_id: Any, node: ClusterNode) -> None:
        group = self.group(topic)
        group.directory.leave((topic, host_id))
        node.shutdown()

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, until: float) -> None:
        self.sim.run(until=until)
