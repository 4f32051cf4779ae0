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
factory resolution, the shared membership :class:`Directory`, the
:class:`MetricsCollector` and its per-node callback binding, and the
common inspection surface (``group_size``, ``protocol_of``). Subclasses
implement the execution substrate (:meth:`Driver.run_for`).
"""

from __future__ import annotations

import abc
from typing import Any, Callable, Optional

from repro.core.aggregation import Aggregate
from repro.core.config import AdaptiveConfig
from repro.gossip.config import SystemConfig
from repro.membership.full import Directory, FullMembershipView
from repro.membership.views import PartialViewMembership, ViewConfig
from repro.metrics.collector import MetricsCollector

__all__ = ["Driver", "ProtocolFactory", "make_protocol_factory"]

# factory(node_id, system, membership, rng, deliver_fn, drop_fn, now) -> protocol
ProtocolFactory = Callable[..., Any]


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
    if kind == "lpbcast":

        def factory(node_id, system, membership, rng, deliver_fn, drop_fn, now):
            from repro.gossip.lpbcast import LpbcastProtocol

            return LpbcastProtocol(node_id, system, membership, rng, deliver_fn, drop_fn)

    elif kind == "bimodal":

        def factory(node_id, system, membership, rng, deliver_fn, drop_fn, now):
            from repro.gossip.bimodal import BimodalProtocol

            return BimodalProtocol(node_id, system, membership, rng, deliver_fn, drop_fn)

    elif kind == "bufferer-bimodal":

        def factory(node_id, system, membership, rng, deliver_fn, drop_fn, now):
            from repro.gossip.recovery import BuffererBimodalProtocol

            return BuffererBimodalProtocol(
                node_id, system, membership, rng, deliver_fn, drop_fn
            )

    elif kind == "adaptive-bimodal":

        def factory(node_id, system, membership, rng, deliver_fn, drop_fn, now):
            from repro.core.bimodal import AdaptiveBimodalProtocol

            return AdaptiveBimodalProtocol(
                node_id,
                system,
                membership,
                rng,
                adaptive=adaptive,
                deliver_fn=deliver_fn,
                drop_fn=drop_fn,
                aggregate=aggregate,
                now=now,
            )

    elif kind == "static":
        if rate_limit is None:
            raise ValueError("static protocol needs a rate_limit")

        def factory(node_id, system, membership, rng, deliver_fn, drop_fn, now):
            from repro.core.adaptive import StaticRateLpbcastProtocol

            return StaticRateLpbcastProtocol(
                node_id,
                system,
                membership,
                rng,
                rate_limit=rate_limit,
                deliver_fn=deliver_fn,
                drop_fn=drop_fn,
                now=now,
            )

    elif kind == "adaptive":

        def factory(node_id, system, membership, rng, deliver_fn, drop_fn, now):
            from repro.core.adaptive import AdaptiveLpbcastProtocol

            return AdaptiveLpbcastProtocol(
                node_id,
                system,
                membership,
                rng,
                adaptive=adaptive,
                deliver_fn=deliver_fn,
                drop_fn=drop_fn,
                aggregate=aggregate,
                now=now,
            )

    else:
        raise ValueError(f"unknown protocol kind {kind!r}")
    return factory


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
        Metrics time-bucket width in seconds; ``None`` asks the subclass
        (:meth:`_default_bucket_width`, which may depend on the resolved
        system config).
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
        bucket_width: Optional[float] = None,
        aggregate_metrics: bool = False,
        membership: str = "full",
        view_config: Optional[ViewConfig] = None,
    ) -> None:
        if membership not in ("full", "partial"):
            raise ValueError(f"unknown membership kind {membership!r}")
        if n_nodes < 2:
            raise ValueError("need at least 2 nodes")
        self.system = system if system is not None else self._default_system()
        if bucket_width is None:
            bucket_width = self._default_bucket_width()
        self.metrics = MetricsCollector(
            bucket_width=bucket_width, aggregate=aggregate_metrics
        )
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

    # ------------------------------------------------------------------
    # shared construction helpers
    # ------------------------------------------------------------------
    def _default_system(self) -> SystemConfig:
        """Substrate parameters used when the caller passes none."""
        return SystemConfig()

    def _default_bucket_width(self) -> float:
        """Metrics bucket width used when the caller passes none."""
        return 1.0

    def _bind_deliver(self, node_id: Any):
        """Deliver callback wired into ``node_id``'s protocol instance."""
        collector = self.metrics

        def deliver_fn(event_id, payload, now):
            collector.on_deliver(node_id, event_id, now)

        return deliver_fn

    def _bind_drop(self, node_id: Any):
        """Drop callback wired into ``node_id``'s protocol instance."""
        collector = self.metrics

        def drop_fn(event_id, age, reason, now):
            collector.on_drop(node_id, event_id, age, reason, now)

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
    def run_for(self, duration: float) -> None:
        """Advance the group by ``duration`` seconds of *its* time —
        virtual for the simulator, wall-clock for the live host. The
        simulator's is repeatable; the live host's is one-shot (its
        sockets and event loop are released on return)."""

    @property
    def group_size(self) -> int:
        """Number of currently alive members."""
        return len(self.directory)

    def protocol_of(self, node_id: Any):
        """The protocol instance running on ``node_id``."""
        return self.nodes[node_id].protocol
