"""The declarative scenario object.

A :class:`ScenarioSpec` composes everything that shapes one adverse
condition — topology, fault script, churn schedule, resource dynamics,
workload/sender shape, and protocol profile — into a single frozen,
picklable value. Drivers *instantiate* specs
(:meth:`repro.driver.Driver.from_scenario`), the experiment harness
lowers them to :class:`~repro.experiments.harness.RunSpec`s
(:func:`~repro.experiments.harness.spec_for_scenario`), and the registry
(:mod:`repro.scenarios.registry`) names them so the CLI, sweeps, tests
and examples all pull the same definitions instead of hand-wiring setup
code.

Two small declarative vocabularies live here because the objects they
replace are either unpicklable or imperative:

* :class:`SenderSpec` — one application sender (node, rate, arrival
  shape, active interval) instead of a live
  :class:`~repro.workload.senders.Sender`;
* the topology specs (:class:`LanLinks`, :class:`WanClusters`,
  :class:`FixedLinks`, :class:`HeavyTailLinks`) — value descriptions
  that ``build(n_nodes)`` into the latency models of
  :mod:`repro.sim.network` / :mod:`repro.sim.topology`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.core.config import AdaptiveConfig
from repro.gossip.config import SystemConfig
from repro.membership.churn import ChurnScript
from repro.sim.faults import (
    WIRE_WINDOWS,
    AsymmetricPartitionWindow,
    CrashWindow,
    FaultScript,
    LinkLossWindow,
    LossWindow,
    PartitionWindow,
)
from repro.sim.network import (
    BernoulliLoss,
    ConstantLatency,
    LatencyModel,
    LogNormalLatency,
    LossModel,
    UniformLatency,
)
from repro.sim.topology import ClusteredTopology
from repro.workload.dynamics import CapacityChange, ResourceScript
from repro.workload.senders import OnOffArrivals, PeriodicArrivals, PoissonArrivals

__all__ = [
    "SenderSpec",
    "LanLinks",
    "WanClusters",
    "FixedLinks",
    "HeavyTailLinks",
    "ScenarioSpec",
    "build_latency",
    "lower_timed_conditions",
]


def build_latency(topology, n_nodes: int) -> Optional[LatencyModel]:
    """Lower a topology to a latency model.

    The one place that knows the convention: ``None`` keeps the driver
    default, an object with ``build(n_nodes)`` is a declarative topology
    spec, anything else is already a :class:`LatencyModel`.
    """
    if topology is None:
        return None
    if hasattr(topology, "build"):
        return topology.build(n_nodes)
    return topology


def _scale_sender(sender: "SenderSpec", scale: float) -> "SenderSpec":
    """A sender with its timeline (not its rate) scaled by ``scale``."""
    return dataclasses.replace(
        sender,
        start=sender.start * scale,
        stop=None if sender.stop is None else sender.stop * scale,
        on=sender.on * scale,
        off=sender.off * scale,
    )


def _scale_fault(fault, scale: float):
    """A fault window with every time field scaled by ``scale``."""
    if isinstance(fault, CrashWindow):
        return dataclasses.replace(
            fault,
            time=fault.time * scale,
            restart_at=None if fault.restart_at is None else fault.restart_at * scale,
        )
    return dataclasses.replace(
        fault, time=fault.time * scale, duration=fault.duration * scale
    )


# ----------------------------------------------------------------------
# workload shape
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class SenderSpec:
    """One application sender, declaratively.

    ``arrivals`` selects the arrival process: ``"periodic"`` (default),
    ``"poisson"``, or ``"onoff"`` (periodic at ``rate`` for ``on``
    seconds, silent for ``off`` — the grant-decay stressor).
    """

    node: Any
    rate: float
    arrivals: str = "periodic"
    on: float = 5.0
    off: float = 5.0
    start: float = 0.0
    stop: Optional[float] = None
    queue_limit: int = 100

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError("sender rate must be > 0")
        if self.arrivals not in ("periodic", "poisson", "onoff"):
            raise ValueError(f"unknown arrival shape {self.arrivals!r}")
        if self.stop is not None and self.stop <= self.start:
            raise ValueError("stop must be after start")

    def build_arrivals(self):
        """Materialise the arrival-process strategy object."""
        if self.arrivals == "poisson":
            return PoissonArrivals(self.rate)
        if self.arrivals == "onoff":
            return OnOffArrivals(self.rate, self.on, self.off)
        return PeriodicArrivals(self.rate)


# ----------------------------------------------------------------------
# topology specs
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class LanLinks:
    """The paper's setting: a jittered low-latency LAN."""

    low: float = 0.005
    high: float = 0.05

    def build(self, n_nodes: int) -> LatencyModel:
        return UniformLatency(self.low, self.high)


@dataclass(frozen=True, slots=True)
class FixedLinks:
    """Constant latency — the round-synchronous analysis regime."""

    delay: float = 0.01

    def build(self, n_nodes: int) -> LatencyModel:
        return ConstantLatency(self.delay)


@dataclass(frozen=True, slots=True)
class HeavyTailLinks:
    """Log-normal (heavy-tailed) latency — congested/overlay links."""

    median: float = 0.02
    sigma: float = 0.5
    cap: float = 2.0

    def build(self, n_nodes: int) -> LatencyModel:
        return LogNormalLatency(self.median, self.sigma, self.cap)


@dataclass(frozen=True, slots=True)
class WanClusters:
    """Multi-site WAN: contiguous blocks of nodes per site, cheap links
    inside a site, expensive links across sites."""

    n_clusters: int = 3
    intra: float = 0.005
    inter: float = 0.08
    jitter: float = 0.3

    def __post_init__(self) -> None:
        if self.n_clusters < 2:
            raise ValueError("need at least two clusters")

    def build(self, n_nodes: int) -> LatencyModel:
        per = max(1, n_nodes // self.n_clusters)
        cluster_of = {node: min(node // per, self.n_clusters - 1) for node in range(n_nodes)}
        return ClusteredTopology(cluster_of, self.intra, self.inter, self.jitter)


# ----------------------------------------------------------------------
# the scenario itself
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScenarioSpec:
    """A complete adverse condition as one picklable value.

    Composition, not configuration: the fault/churn/resource scripts are
    the same declarative objects the layers already replay
    (:class:`~repro.sim.faults.FaultScript`,
    :class:`~repro.membership.churn.ChurnScript`,
    :class:`~repro.workload.dynamics.ResourceScript`), so a scenario is
    just their product with a topology, a workload and a protocol
    profile. Stress conditions (:mod:`repro.scenarios.conditions`) fold
    themselves into these scripts via :meth:`stressed`.
    """

    name: str
    summary: str = ""
    # group & protocol profile
    n_nodes: int = 30
    protocol: str = "adaptive"
    system: SystemConfig = field(default_factory=SystemConfig)
    adaptive: Optional[AdaptiveConfig] = None
    rate_limit: Optional[float] = None
    aggregate: Optional[Any] = None
    membership: str = "full"
    view_size: Optional[int] = None
    # environment
    topology: Optional[Any] = None  # LanLinks/WanClusters/... or a LatencyModel
    baseline_loss: Optional[LossModel] = None
    # schedules
    senders: tuple[SenderSpec, ...] = ()
    faults: FaultScript = field(default_factory=FaultScript)
    churn: ChurnScript = field(default_factory=ChurnScript)
    resources: ResourceScript = field(default_factory=ResourceScript)
    # horizon
    duration: float = 120.0
    warmup: float = 30.0
    drain: float = 15.0
    seed: int = 0
    bucket_width: float = 1.0
    # regression gates: Expectation values evaluated against the run's
    # ScenarioResult by check-scenarios and run_scenario_checks; scale-
    # free (thresholds on fractions/ratios/rounds), so they survive
    # with_horizon. Usually attached by the registry decorator.
    expectations: tuple = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a scenario needs a name")
        if self.n_nodes < 2:
            raise ValueError("need at least 2 nodes")
        if not self.senders:
            raise ValueError("a scenario needs at least one sender")
        if not 0 <= self.warmup < self.duration:
            raise ValueError("warmup must fall inside the run")
        if not 0 <= self.drain < self.duration - self.warmup:
            raise ValueError("drain must leave a non-empty window")
        if self.membership not in ("full", "partial"):
            raise ValueError(f"unknown membership kind {self.membership!r}")
        for sender in self.senders:
            if not 0 <= sender.node < self.n_nodes:
                raise ValueError(
                    f"sender node {sender.node!r} outside the initial group "
                    f"of {self.n_nodes}"
                )
        for expectation in self.expectations:
            if not callable(getattr(expectation, "check", None)):
                raise ValueError(
                    f"expectation {expectation!r} has no check() method"
                )
        self.faults.validate()

    # ------------------------------------------------------------------
    # derived views
    # ------------------------------------------------------------------
    @property
    def sender_ids(self) -> tuple:
        return tuple(s.node for s in self.senders)

    @property
    def offered_load(self) -> float:
        """Total initial offered load across senders (msg/s)."""
        return sum(s.rate for s in self.senders)

    @property
    def window(self) -> tuple[float, float]:
        return (self.warmup, self.duration - self.drain)

    def build_latency(self) -> Optional[LatencyModel]:
        """The latency model, materialised (None keeps the driver default)."""
        return build_latency(self.topology, self.n_nodes)

    @property
    def wire_conditions(self) -> bool:
        """Whether this scenario shapes the wire itself.

        True when a topology/latency model, a baseline loss model, or
        any network fault window (loss/partition/bandwidth — anything
        but a pure crash schedule) is present. The live host uses this to
        decide whether its sends consult a
        :class:`~repro.runtime.transport.ChaosRules` set; crash windows
        and churn act on nodes, not the wire, and need none.
        """
        if self.topology is not None or self.baseline_loss is not None:
            return True
        return any(not isinstance(f, CrashWindow) for f in self.faults.faults)

    # ------------------------------------------------------------------
    # functional updates
    # ------------------------------------------------------------------
    def replace(self, **changes) -> "ScenarioSpec":
        """A copy with some fields changed (scripts are shared, not copied)."""
        return dataclasses.replace(self, **changes)

    def with_protocol(self, protocol: str, **changes) -> "ScenarioSpec":
        return self.replace(protocol=protocol, **changes)

    def with_horizon(self, duration: float) -> "ScenarioSpec":
        """Shrink/stretch the run, scaling the *whole timeline* with it.

        Warmup, drain, every fault/churn/resource event time, window
        durations and sender active intervals all scale by the same
        factor, so a shrunk scenario still exercises its condition —
        just faster. Rates, probabilities and capacities are left alone
        (the load:capacity regime is the scenario's identity). Used by
        smoke tests and ``--horizon``/``--quick`` CLI runs so every
        scenario can be exercised in seconds without editing its
        definition.
        """
        if duration <= 0:
            raise ValueError("duration must be > 0")
        scale = duration / self.duration
        return self.replace(
            duration=duration,
            warmup=self.warmup * scale,
            drain=self.drain * scale,
            senders=tuple(_scale_sender(s, scale) for s in self.senders),
            faults=FaultScript([_scale_fault(f, scale) for f in self.faults.faults]),
            churn=ChurnScript(
                [dataclasses.replace(e, time=e.time * scale) for e in self.churn.events]
            ),
            resources=ResourceScript(
                [dataclasses.replace(c, time=c.time * scale) for c in self.resources.changes]
            ),
        )

    def stressed(self, *conditions) -> "ScenarioSpec":
        """Fold composable stress conditions into this spec, in order.

        Each condition is any object with ``apply_to(spec) -> spec`` (see
        :mod:`repro.scenarios.conditions`); the result is a new spec —
        the original is never mutated.
        """
        spec = self
        for condition in conditions:
            spec = condition.apply_to(spec)
        return spec

    def expecting(self, *expectations) -> "ScenarioSpec":
        """A copy with these expectations appended, in order."""
        return self.replace(expectations=self.expectations + tuple(expectations))


# ----------------------------------------------------------------------
# the one lowering of timed conditions
# ----------------------------------------------------------------------
def lower_timed_conditions(
    rules,
    target,
    faults: Optional[FaultScript] = None,
    churn: Optional[ChurnScript] = None,
    resources: Optional[ResourceScript] = None,
    baseline_loss: Optional[LossModel] = None,
    scale: float = 1.0,
):
    """Lower a run's timed conditions onto ``(time, seq, thunk)`` triples.

    The one lowering every driver shares. ``rules`` is the wire's rule
    set — the simulator's :class:`~repro.sim.network.Network` or the
    live host's :class:`~repro.runtime.transport.ChaosRules`, which
    share every mutator name — and fault windows mutate it. ``target``
    is the driver — :class:`~repro.workload.cluster.SimCluster` or
    :class:`~repro.runtime.cluster.ThreadedCluster` — and takes
    ``set_capacity``, ``set_offered_rate``, ``crash_node``,
    ``join_node`` and ``leave_node`` calls, ignoring nodes (or senders)
    it does not host. Neither is touched here, only when a thunk fires:
    the simulator puts the triples on its heap, the live host on its
    event loop. ``time`` is the spec time times ``scale``.

    Same-instant order: resource changes, then fault windows sorted
    stably by start time with each window's open and close added
    together (so a window that closes at the instant the next one opens
    closes first), then churn events. A loss window's close restores
    ``baseline_loss``.

    Validates ``faults`` first. Returns ``(actions, not_lowered)``: the
    triples in ``(time, seq)`` order, and the fault objects of a kind
    this function has no lowering for.
    """
    actions: list[tuple[float, int, Any]] = []
    not_lowered: list = []

    def add(spec_time: float, thunk) -> None:
        actions.append((spec_time * scale, len(actions), thunk))

    def on_nodes(method: str, nodes, *args):
        def fire() -> None:
            call = getattr(target, method)
            for node in nodes:
                call(node, *args)

        fire.__name__ = method  # what a live failure report names
        return fire

    for change in resources.changes if resources is not None else ():
        if isinstance(change, CapacityChange):
            add(change.time, on_nodes("set_capacity", change.nodes, change.capacity))
        else:  # OfferedRateChange
            add(change.time, on_nodes("set_offered_rate", change.nodes, change.rate))

    windows = []
    if faults is not None:
        faults.validate()
        for fault in faults.faults:
            known = isinstance(fault, (CrashWindow, *WIRE_WINDOWS))
            (windows if known else not_lowered).append(fault)
    for fault in sorted(windows, key=lambda f: f.time):
        if isinstance(fault, CrashWindow):
            add(fault.time, on_nodes("crash_node", fault.nodes))
            if fault.restart_at is not None:
                add(fault.restart_at, on_nodes("join_node", fault.nodes))
            continue
        end = fault.time + fault.duration
        if isinstance(fault, LossWindow):
            add(fault.time, lambda f=fault: rules.set_loss(BernoulliLoss(f.p)))
            add(end, lambda: rules.set_loss(baseline_loss))
        elif isinstance(fault, LinkLossWindow):
            add(fault.time, lambda f=fault: rules.set_link_loss(f.matrix))
            add(end, lambda: rules.set_link_loss(None))
        elif isinstance(fault, PartitionWindow):
            add(fault.time, lambda f=fault: rules.partition([list(g) for g in f.groups]))
            add(end, lambda: rules.heal())
        elif isinstance(fault, AsymmetricPartitionWindow):
            add(
                fault.time,
                lambda f=fault: rules.partition_oneway(
                    [list(g) for g in f.groups], f.blocked
                ),
            )
            add(end, lambda: rules.heal_oneway())
        else:  # BandwidthCapWindow
            # a cap is a rate per spec second on both drivers (the live
            # rules' cap clock ticks in spec seconds), so it never scales
            add(fault.time, lambda f=fault: rules.set_bandwidth_cap(f.rate))
            add(end, lambda: rules.set_bandwidth_cap(None))

    for event in churn.sorted_events() if churn is not None else ():
        add(event.time, on_nodes(f"{event.action}_node", (event.node,)))

    actions.sort(key=lambda entry: (entry[0], entry[1]))
    return actions, not_lowered
