"""The unified driver abstraction over execution backends.

Every gossip variant in this library is a sans-IO state machine
(:mod:`repro.gossip.protocol`); a *driver* supplies the missing world —
clocks, transport, membership bootstrap and metrics wiring. Two drivers
exist and both subclass :class:`Driver`:

* :class:`repro.workload.cluster.SimCluster` — the discrete-event
  simulator (virtual time, deterministic);
* :class:`repro.runtime.cluster.ThreadedCluster` — the live host: the
  real-time prototype's nodes on one event loop (wall time, a memory
  hop or real UDP sockets).

The base class owns everything the two used to duplicate: protocol
factory resolution, the shared membership :class:`Directory` and its
group-size log, the :class:`MetricsCollector` and its per-node callback
binding, and the common inspection surface (``group_size``,
``group_size_at``, ``protocol_of``). Subclasses implement the execution
substrate (:meth:`Driver.run_for`) and its clock (:meth:`Driver.clock`).
Both drivers' nodes sample their gauges with :func:`sample_gauges` and
queue their offers in an :class:`OfferQueue`.
"""

from __future__ import annotations

import abc
import importlib
from collections import deque
from typing import Any, Callable, Optional, Sequence

from repro.core.aggregation import Aggregate
from repro.core.config import AdaptiveConfig
from repro.gossip.config import SystemConfig
from repro.membership.full import Directory, FullMembershipView
from repro.membership.views import PartialViewMembership, ViewConfig
from repro.metrics.collector import MetricsCollector

__all__ = [
    "Driver", "OfferQueue", "ProtocolFactory", "make_protocol_factory", "sample_gauges", "size_at",
]

# factory(node_id, system, membership, rng, deliver_fn, drop_fn, now) -> protocol
ProtocolFactory = Callable[..., Any]


# kind -> (module, class, the factory options its constructor takes);
# imported at first use, so a driver loads only the protocols it runs
_ADAPTIVE = ("adaptive", "aggregate")
_PROTOCOLS = {
    "lpbcast": ("repro.gossip.lpbcast", "LpbcastProtocol", ()),
    "bimodal": ("repro.gossip.bimodal", "BimodalProtocol", ()),
    "bufferer-bimodal": ("repro.gossip.recovery", "BuffererBimodalProtocol", ()),
    "adaptive-bimodal": ("repro.core.bimodal", "AdaptiveBimodalProtocol", _ADAPTIVE),
    "static": ("repro.core.adaptive", "StaticRateLpbcastProtocol", ("rate_limit",)),
    "adaptive": ("repro.core.adaptive", "AdaptiveLpbcastProtocol", _ADAPTIVE),
}


def make_protocol_factory(
    kind: str = "lpbcast",
    adaptive: Optional[AdaptiveConfig] = None,
    rate_limit: Optional[float] = None,
    aggregate: Optional[Aggregate] = None,
) -> ProtocolFactory:
    """Build a protocol factory for a :class:`Driver`.

    ``kind`` is one of:

    * ``"lpbcast"`` — the Figure 1 baseline (no admission control);
    * ``"static"`` — baseline + fixed-rate token bucket (Figure 3);
      requires ``rate_limit``;
    * ``"adaptive"`` — the paper's adaptive protocol (Figure 5); takes an
      optional :class:`AdaptiveConfig` and aggregation strategy;
    * ``"bimodal"`` / ``"adaptive-bimodal"`` — the pbcast-style substrate
      of :mod:`repro.gossip.bimodal`, plain and adapted (§5 generality);
    * ``"bufferer-bimodal"`` — bimodal + [10]-style recovery bufferers
      (:mod:`repro.gossip.recovery`).
    """
    if kind not in _PROTOCOLS:
        raise ValueError(f"unknown protocol kind {kind!r}")
    if kind == "static" and rate_limit is None:
        raise ValueError("static protocol needs a rate_limit")
    module, name, options = _PROTOCOLS[kind]
    given = {"adaptive": adaptive, "rate_limit": rate_limit, "aggregate": aggregate}
    keywords = {option: given[option] for option in options}

    def factory(node_id, system, membership, rng, deliver_fn, drop_fn, now):
        cls = getattr(importlib.import_module(module), name)
        if not options:  # the plain substrates keep no clock
            return cls(node_id, system, membership, rng, deliver_fn, drop_fn)
        return cls(
            node_id, system, membership, rng,
            deliver_fn=deliver_fn, drop_fn=drop_fn, now=now, **keywords,
        )

    return factory


def sample_gauges(collector: MetricsCollector, node_id: Any, protocol, now: float) -> None:
    """Record one round's gauges of ``protocol``: its allowed rate, avgAge
    and minBuff estimate where the protocol has them, and its buffer
    occupancy. Both drivers call it once per node round."""
    rate = getattr(protocol, "allowed_rate", None)
    if rate is not None:
        collector.sample_gauge("allowed_rate", node_id, now, rate)
    avg_age = getattr(protocol, "avg_age", None)
    if avg_age is not None:
        collector.sample_gauge("avg_age", node_id, now, avg_age)
    min_buff = getattr(protocol, "min_buff_estimate", None)
    if min_buff is not None:
        collector.sample_gauge("min_buff", node_id, now, min_buff)
    collector.sample_gauge("buffer_len", node_id, now, len(protocol.buffer))


def size_at(log: Sequence[tuple[float, int]], time: float) -> int:
    """The group size a ``(time, size)`` log records in force at ``time``
    (its first entry before the log starts)."""
    size = log[0][1]
    for t, s in log:
        if t > time:
            break
        size = s
    return size


class OfferQueue:
    """A sender's offers waiting for admission: the paper's blocking
    ``BROADCAST`` (Figure 3), sans-IO. The owner calls :meth:`drain`
    whenever admission may have become possible. Beyond ``limit``
    waiting offers the *oldest* is given up and recorded as rejected.
    """

    def __init__(self, node_id, protocol, collector: MetricsCollector, limit: int = 100) -> None:
        if limit < 1:
            raise ValueError("queue_limit must be >= 1")
        self.node_id = node_id
        self.protocol = protocol
        self.collector = collector
        self.limit = limit
        self._pending: deque = deque()

    def __len__(self) -> int:
        return len(self._pending)

    def offer(self, payload: Any, now: float) -> bool:
        """Queue one offer and drain; whether offers still wait."""
        self.collector.on_offered(self.node_id, now)
        pending = self._pending
        pending.append(payload)
        if len(pending) > self.limit:
            pending.popleft()
            self.collector.on_rejected(self.node_id, now)
        return self.drain(now)

    def drain(self, now: float) -> bool:
        """Broadcast what admission lets through now; whether offers
        still wait."""
        pending = self._pending
        while pending:
            event_id = self.protocol.try_broadcast(pending[0], now)
            if event_id is None:
                return True
            pending.popleft()
            self.collector.on_admitted(self.node_id, event_id, now)
        return False


class Driver(abc.ABC):
    """Common wiring of a whole gossip group, whatever executes it.

    Parameters
    ----------
    n_nodes:
        Group size (the paper uses 60).
    system:
        Gossip substrate parameters; ``None`` uses the subclass default.
    protocol:
        Either a kind string (see :func:`make_protocol_factory`) or a
        ready :data:`ProtocolFactory`.
    adaptive / rate_limit / aggregate:
        Forwarded to :func:`make_protocol_factory` when ``protocol`` is a
        kind string.
    bucket_width:
        Metrics time-bucket width in seconds of :meth:`clock`.
    aggregate_metrics:
        Run the collector in aggregate-only mode (per-event counts, no
        per-node receiver sets or gauges) — for very large groups.
    membership:
        ``"full"`` (every node views the shared directory) or
        ``"partial"`` (per-node lpbcast views, see :meth:`_make_membership`).
    view_config:
        Partial-view parameters; ``None`` uses :class:`ViewConfig`'s.
    """

    def __init__(
        self,
        n_nodes: int,
        system: Optional[SystemConfig] = None,
        protocol: Any = "lpbcast",
        adaptive: Optional[AdaptiveConfig] = None,
        rate_limit: Optional[float] = None,
        aggregate: Optional[Aggregate] = None,
        bucket_width: float = 1.0,
        aggregate_metrics: bool = False,
        membership: str = "full",
        view_config: Optional[ViewConfig] = None,
    ) -> None:
        if membership not in ("full", "partial"):
            raise ValueError(f"unknown membership kind {membership!r}")
        if n_nodes < 2:
            raise ValueError("need at least 2 nodes")
        self.system = system if system is not None else self._default_system()
        self.metrics = MetricsCollector(bucket_width=bucket_width, aggregate=aggregate_metrics)
        self.directory = Directory(range(n_nodes))
        if callable(protocol):
            self._factory: ProtocolFactory = protocol
        else:
            self._factory = make_protocol_factory(
                protocol, adaptive=adaptive, rate_limit=rate_limit, aggregate=aggregate
            )
        self.membership_kind = membership
        self.view_config = view_config
        self.nodes: dict[Any, Any] = {}
        # (time, group size) at every membership change, for delivery
        # analysis under churn and crashes
        self.size_log: list[tuple[float, int]] = []

    # ------------------------------------------------------------------
    # shared construction helpers
    # ------------------------------------------------------------------
    def _default_system(self) -> SystemConfig:
        """Substrate parameters used when the caller passes none."""
        return SystemConfig()

    def _bind_deliver(self, node_id: Any):
        """Per-batch deliver callback wired into ``node_id``'s protocol."""
        on_deliver_many = self.metrics.on_deliver_many

        def deliver_fn(event_ids, payloads, now):
            on_deliver_many(node_id, event_ids, now)

        return deliver_fn

    def _bind_drop(self, node_id: Any):
        """Per-removal drop callback wired into ``node_id``'s protocol."""
        on_drop_bulk = self.metrics.on_drop_bulk

        def drop_fn(reason, event_ids, ages, now):
            on_drop_bulk(reason, now, ages)

        return drop_fn

    def _make_membership(self, node_id: Any, rngs: Any):
        """Membership for a fresh incarnation of ``node_id``.

        A partial view bootstraps from a sample of the currently alive
        members, drawn from ``rngs``' (the subclass's
        :class:`~repro.sim.rng.RngRegistry`) ``"bootstrap_view"`` stream.
        """
        if self.membership_kind == "full":
            return FullMembershipView(self.directory, node_id)
        rng = rngs.stream("bootstrap_view", node_id)
        others = [n for n in self.directory.alive() if n != node_id]
        cfg = self.view_config or ViewConfig()
        bootstrap = rng.sample(others, min(len(others), cfg.view_size))
        return PartialViewMembership(node_id, cfg, initial_view=bootstrap)

    def _build_protocol(self, node_id: Any, membership: Any, rng: Any, now: float):
        """Instantiate the configured protocol for one node."""
        return self._factory(
            node_id,
            self.system,
            membership,
            rng,
            self._bind_deliver(node_id),
            self._bind_drop(node_id),
            now,
        )

    # ------------------------------------------------------------------
    # the unified surface
    # ------------------------------------------------------------------
    @classmethod
    def from_scenario(cls, spec, **overrides) -> "Driver":
        """Instantiate a declarative :class:`~repro.scenarios.spec.ScenarioSpec`
        on this driver.

        Both concrete drivers implement it: the simulator materialises
        every schedule the spec carries; the live host compiles the same
        schedule onto its event loop and reports what it could not lower
        (see :func:`repro.scenarios.runner.run_scenario_threaded`).
        """
        raise NotImplementedError(f"{cls.__name__} cannot instantiate scenarios")

    @abc.abstractmethod
    def clock(self) -> float:
        """The driver's time: simulated seconds, or the live host's spec
        seconds."""

    @abc.abstractmethod
    def run_for(self, duration: float) -> None:
        """Advance the group by ``duration`` seconds of *its* time —
        virtual for the simulator, wall-clock for the live host. The
        simulator's is repeatable; the live host's is one-shot (its
        sockets and event loop are released on return)."""

    @property
    def group_size(self) -> int:
        """Number of currently alive members."""
        return len(self.directory)

    def _log_size(self) -> None:
        self.size_log.append((self.clock(), len(self.directory)))

    def group_size_at(self, time: float) -> int:
        """The group size in force at a (past) time of :meth:`clock`.

        Delivery analysis under churn should compare each message against
        the group it was broadcast into, not against the final group.
        """
        return size_at(self.size_log, time) if self.size_log else len(self.directory)

    def protocol_of(self, node_id: Any):
        """The protocol instance running on ``node_id``."""
        return self.nodes[node_id].protocol
