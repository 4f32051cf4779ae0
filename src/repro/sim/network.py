"""The wire's rules and the simulated message transport.

:class:`ChaosRules` is the one rule set every driver decides a send
with: loss and latency models, partitions, one-way cuts, per-link loss
and a bandwidth cap. The :class:`Network` connects simulated processes
by address and owns one rule set as ``network.rules``; the live host
(:mod:`repro.runtime.cluster`) consults its own on every datagram. A
loss window, a partition or a cap is therefore one rule on both sides
of the paper's simulator-vs-prototype check.

The paper's experiments run on a 60-workstation Ethernet LAN; the default
model is therefore a low, lightly-jittered latency with no loss. Loss and
burst-loss models exist for the robustness studies (the paper notes that
correlated loss degrades gossip reliability, §5).
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, fields
from typing import Any, Callable, Hashable, Optional, Protocol

from repro.sim.engine import Simulator

__all__ = [
    "LatencyModel",
    "ConstantLatency",
    "UniformLatency",
    "LogNormalLatency",
    "LossModel",
    "NoLoss",
    "BernoulliLoss",
    "BurstLoss",
    "NetworkStats",
    "ChaosRules",
    "Network",
    "RateWindow",
    "build_partition_map",
    "crosses_partition",
    "crosses_oneway",
]

Address = Hashable
Handler = Callable[[Any, Address, float], None]


def build_partition_map(groups) -> dict:
    """``address -> group id`` for a partition; unmentioned addresses
    share the implicit group ``-1`` and can still talk to each other."""
    partition_of: dict = {}
    for gid, group in enumerate(groups):
        for addr in group:
            partition_of[addr] = gid
    return partition_of


def crosses_partition(partition_of: dict, src, dst) -> bool:
    """Whether a (src, dst) message crosses an open partition."""
    if not partition_of:
        return False
    return partition_of.get(src, -1) != partition_of.get(dst, -1)


def crosses_oneway(oneway_of: dict, blocked: frozenset, src, dst) -> bool:
    """Whether a (src, dst) message crosses a *directed* blocked group edge.

    ``oneway_of`` maps addresses to group ids (implicit group ``-1`` for
    unmentioned addresses, as in :func:`build_partition_map`); ``blocked``
    holds the directed ``(src_group, dst_group)`` pairs that are cut.
    Unlike a symmetric partition, the reverse direction still flows.
    """
    if not blocked:
        return False
    return (oneway_of.get(src, -1), oneway_of.get(dst, -1)) in blocked


class RateWindow:
    """A bandwidth cap accounted in one-second windows.

    Once ``rate`` messages have entered within a window, further sends
    in that window are refused — a blunt but deterministic model of a
    saturated link or switch. ``rate=None`` disables the cap. The clock
    is the rule set's bound clock (virtual time in the simulator, spec
    time on the live host); only window identity ``int(now)`` matters.
    """

    __slots__ = ("rate", "_window", "_used")

    def __init__(self) -> None:
        self.rate: Optional[float] = None
        self._window = -1
        self._used = 0

    def set(self, rate: Optional[float]) -> None:
        if rate is not None and rate <= 0:
            raise ValueError("bandwidth cap must be > 0 msg/s (or None)")
        self.rate = rate
        self._window = -1
        self._used = 0

    def exceeded(self, now: float) -> bool:
        """Account one send at time ``now``; True if over budget."""
        window = int(now)
        if window != self._window:
            self._window = window
            self._used = 0
        if self._used >= self.rate:
            return True
        self._used += 1
        return False


class LatencyModel(Protocol):
    """Samples a one-way delay for a (src, dst) message."""

    def sample(self, src: Address, dst: Address, rng) -> float: ...


class LossModel(Protocol):
    """Decides whether a (src, dst) message is dropped."""

    def is_lost(self, src: Address, dst: Address, rng) -> bool: ...


@dataclass(frozen=True)
class ConstantLatency:
    """Every message takes exactly ``delay`` seconds."""

    delay: float = 0.01

    def sample(self, src: Address, dst: Address, rng) -> float:
        """Return the fixed delay."""
        return self.delay


@dataclass(frozen=True)
class UniformLatency:
    """Latency uniform in [low, high] — the default LAN-ish model."""

    low: float = 0.005
    high: float = 0.05

    def sample(self, src: Address, dst: Address, rng) -> float:
        """Draw a delay uniformly from [low, high]."""
        return rng.uniform(self.low, self.high)


@dataclass(frozen=True)
class LogNormalLatency:
    """Heavy-tailed latency, parameterised by median and sigma.

    ``median`` is the median one-way delay; ``sigma`` the log-space
    standard deviation (0.5 gives a moderate tail). An optional ``cap``
    bounds pathological samples.
    """

    median: float = 0.02
    sigma: float = 0.5
    cap: float = 2.0

    def sample(self, src: Address, dst: Address, rng) -> float:
        """Draw a capped log-normal delay."""
        return min(self.cap, rng.lognormvariate(math.log(self.median), self.sigma))


@dataclass(frozen=True)
class NoLoss:
    """Perfect network: nothing is ever dropped."""

    def is_lost(self, src: Address, dst: Address, rng) -> bool:
        """Always False."""
        return False


@dataclass(frozen=True)
class BernoulliLoss:
    """Independent loss with probability ``p`` per message."""

    p: float = 0.01

    def is_lost(self, src: Address, dst: Address, rng) -> bool:
        """Independent coin flip per message."""
        return rng.random() < self.p


class BurstLoss:
    """Gilbert–Elliott two-state burst loss.

    ``p_enter`` is the probability of moving from the good to the bad
    state per message; ``p_exit`` of leaving the bad state; ``p_bad`` the
    loss probability while in the bad state. State is kept per network
    (correlated loss — the pathology the paper warns about in §5).
    """

    def __init__(self, p_enter: float = 0.005, p_exit: float = 0.2, p_bad: float = 0.8):
        self.p_enter = p_enter
        self.p_exit = p_exit
        self.p_bad = p_bad
        self._bad = False

    def is_lost(self, src: Address, dst: Address, rng) -> bool:
        """Advance the two-state chain and sample loss in the bad state."""
        if self._bad:
            if rng.random() < self.p_exit:
                self._bad = False
        else:
            if rng.random() < self.p_enter:
                self._bad = True
        return self._bad and rng.random() < self.p_bad


@dataclass
class NetworkStats:
    """What a :class:`ChaosRules` set did to traffic, on any driver."""

    sent: int = 0  # judged by the rules
    delivered: int = 0  # handed to a receiver (sim) or onto the live hop
    lost: int = 0  # eaten by the loss model
    partitioned: int = 0  # eaten by an open partition
    oneway_blocked: int = 0  # eaten by a one-way (directed) cut
    link_lost: int = 0  # eaten by the per-link loss matrix
    no_route: int = 0  # addressed to no receiver
    payload_items: int = 0  # application events carried (simulator only)
    capped: int = 0  # eaten by the bandwidth cap
    delayed: int = 0  # forwarded after a positive sampled latency

    @property
    def eaten(self) -> int:
        """Everything a rule ate (loss, cuts, link loss, cap)."""
        return self.lost + self.partitioned + self.oneway_blocked + self.link_lost + self.capped

    def merge(self, other: "NetworkStats") -> None:
        """Add another rule set's counts (one shard's, say) into these."""
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))


class ChaosRules:
    """The wire's rule set: the one place every driver decides a send.

    One class holds the loss model, the latency model, the symmetric
    partition, the one-way cut, the per-link loss matrix and the
    bandwidth cap, with their counters in ``stats``. The simulated
    :class:`Network` owns one as ``network.rules``; the live host
    consults its own on every datagram; and
    :func:`~repro.scenarios.spec.lower_timed_conditions` opens and
    closes fault windows on it for every driver. So the drivers cannot
    silently diverge: a rule means the same on each (driver parity is
    also asserted scenario by scenario in CI).

    :meth:`plan` decides one send in the simulator's order: partition,
    one-way cut, route, bandwidth cap, loss model, per-link loss, then
    the latency draw. The deterministic rules run before the loss model,
    so they never touch the RNG stream of drop decisions. The decision
    RNG is the caller's (the simulated network's stream, or each live
    node's own), so rule mutations never perturb a stream.

    Thread-safety: the mutators and :meth:`plan` take one lock, because
    the live host decides on its loop thread while callers mutate rules
    from theirs, and a loss model may be stateful (:class:`BurstLoss`).
    The simulator's single-threaded bulk paths (``Network.multicast``,
    the columnar lane) read the rule fields directly; treat them as
    read-only and change them through the mutators.

    Time is the bound clock's (:meth:`bind_clock`): virtual seconds in
    the simulator, spec seconds on the live host. Only the cap reads it.

    Parameters
    ----------
    loss:
        A :class:`LossModel`; ``None`` means :class:`NoLoss`.
    latency:
        A :class:`LatencyModel`; ``None`` forwards at once (delay 0).
    """

    def __init__(
        self, loss: Optional[LossModel] = None, latency: Optional[LatencyModel] = None
    ) -> None:
        self._lock = threading.Lock()
        self.loss: LossModel = loss if loss is not None else NoLoss()
        self.latency = latency
        self.partition_of: dict[Address, int] = {}
        self.oneway_of: dict[Address, int] = {}
        self.oneway_blocked: frozenset = frozenset()
        self.link_loss: Optional[dict] = None  # sparse (src, dst) -> p
        self.cap = RateWindow()
        self._clock: Callable[[], float] = time.monotonic
        self.stats = NetworkStats()

    # ------------------------------------------------------------------
    # mutators (any thread)
    # ------------------------------------------------------------------
    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Install the cap-accounting clock (``time.monotonic`` until then).

        The simulator binds its virtual clock and the live host its
        spec-second clock, so cap windows bucket per spec second on
        every driver: same budget granularity, not just the same rate.
        """
        with self._lock:
            self._clock = clock
            self.cap.set(self.cap.rate)  # restart the current window

    def set_loss(self, loss: Optional[LossModel]) -> None:
        """Swap the loss model (``None``: :class:`NoLoss`)."""
        with self._lock:
            self.loss = loss if loss is not None else NoLoss()

    def partition(self, groups) -> None:
        """Split the group: messages may only cross within one group.

        Addresses not mentioned in any group remain in the implicit group
        ``-1`` and can still talk to each other.
        """
        partition_of = build_partition_map(groups)
        with self._lock:
            self.partition_of = partition_of

    def heal(self) -> None:
        """Remove any symmetric partition (one-way cuts are a separate knob)."""
        with self._lock:
            self.partition_of = {}

    def partition_oneway(self, groups, blocked) -> None:
        """Cut the *directed* group edges in ``blocked``.

        ``groups`` splits addresses as in :meth:`partition`; ``blocked``
        is an iterable of ``(src_group, dst_group)`` index pairs that can
        no longer be crossed. Traffic in the reverse direction — and any
        direction not listed — still flows. Independent of
        :meth:`partition`: both cuts may be open at once.
        """
        oneway_of = build_partition_map(groups)
        oneway_blocked = frozenset((a, b) for a, b in blocked)
        with self._lock:
            self.oneway_of = oneway_of
            self.oneway_blocked = oneway_blocked

    def heal_oneway(self) -> None:
        """Remove any one-way cut."""
        with self._lock:
            self.oneway_of = {}
            self.oneway_blocked = frozenset()

    def set_link_loss(self, matrix: Optional[dict]) -> None:
        """Open (or with ``None`` close) a sparse per-link loss matrix.

        ``matrix`` maps ``(src, dst)`` to a loss probability; pairs not
        in it are unaffected. Applied *after* the loss model, and only
        draws from the RNG for pairs with an entry, so runs without link
        loss consume an identical RNG stream.
        """
        frozen = dict(matrix) if matrix else None
        with self._lock:
            self.link_loss = frozen

    def set_bandwidth_cap(self, rate: Optional[float]) -> None:
        """Cap throughput at ``rate`` messages per second of the bound clock.

        Accounted in one-second windows (:class:`RateWindow`): once
        ``rate`` messages have passed within a window, further sends in
        that window are eaten (``stats.capped``). ``None`` removes the cap.
        """
        window = RateWindow()
        window.set(rate)  # validate outside the lock
        with self._lock:
            self.cap = window

    # ------------------------------------------------------------------
    # decisions
    # ------------------------------------------------------------------
    def quiet(self) -> bool:
        """Whether no rule can eat a message (latency aside): the
        draw-free test the simulator's bulk paths share."""
        return (
            type(self.loss) is NoLoss
            and not self.partition_of
            and not self.oneway_blocked
            and self.link_loss is None
            and self.cap.rate is None
        )

    def plan(self, src: Address, dst: Address, rng, routed: bool = True) -> Optional[float]:
        """Decide one send: ``None`` eats it, else its delay (0.0: at once).

        ``routed`` says whether ``dst`` has a receiver; an unrouted send
        is counted in ``stats.no_route`` once the partition and the cut
        have let it through. The whole decision runs inside the lock: the
        loss model is shared by every sender and may mutate per call.
        """
        with self._lock:
            stats = self.stats
            stats.sent += 1
            if crosses_partition(self.partition_of, src, dst):
                stats.partitioned += 1
                return None
            if self.oneway_blocked and crosses_oneway(
                self.oneway_of, self.oneway_blocked, src, dst
            ):
                stats.oneway_blocked += 1
                return None
            if not routed:
                stats.no_route += 1
                return None
            if self.cap.rate is not None and self.cap.exceeded(self._clock()):
                stats.capped += 1
                return None
            if self.loss.is_lost(src, dst, rng):
                stats.lost += 1
                return None
            link_loss = self.link_loss
            if link_loss is not None:
                p = link_loss.get((src, dst))
                if p is not None and rng.random() < p:
                    stats.link_lost += 1
                    return None
            if self.latency is not None:
                delay = self.latency.sample(src, dst, rng)
                if delay > 0:
                    stats.delayed += 1
                    return delay
        return 0.0

    def close(self) -> None:
        """Release the rule set; a no-op, kept for callers that pair every
        rule set with a close (live delays ride the host's loop)."""


class Network:
    """Delivers messages between attached handlers through the simulator.

    Deliveries are *coalesced per instant*: every message arriving at one
    virtual timestamp is queued, and a single flush event — ordered after
    all of that instant's arrivals — hands each destination its messages
    in arrival order. Receivers that registered a ``batch_handler`` get
    them in one call (the simulator's counterpart of the threaded
    runtime's bulk queue drain, feeding
    :meth:`~repro.gossip.protocol.GossipProtocol.on_receive_batch`);
    plain handlers are invoked once per message, unchanged. Both round
    dispatch modes share this path, so runs remain byte-identical across
    them.

    Every send is decided by the network's :class:`ChaosRules`,
    ``network.rules``; fault windows mutate it, and ``network.stats`` is
    its counters.

    Parameters
    ----------
    sim:
        The simulator used for scheduling deliveries and as RNG source.
    latency:
        A :class:`LatencyModel`; defaults to :class:`UniformLatency`.
    loss:
        A :class:`LossModel`; defaults to :class:`NoLoss`.
    """

    def __init__(
        self,
        sim: Simulator,
        latency: Optional[LatencyModel] = None,
        loss: Optional[LossModel] = None,
    ) -> None:
        self._sim = sim
        self.rules = ChaosRules(loss, latency if latency is not None else UniformLatency())
        self.rules.bind_clock(lambda: sim.now)
        self.stats = self.rules.stats
        self._rng = sim.rngs.stream("network")
        self._handlers: dict[Address, Handler] = {}
        self._batch_handlers: dict[Address, Callable] = {}
        # (message, src) pairs queued per destination for the current
        # instant, drained by one _flush_pending event per timestamp.
        self._pending: dict[Address, list] = {}
        self._flush_scheduled = False

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def attach(
        self,
        address: Address,
        handler: Handler,
        batch_handler: Optional[Callable] = None,
    ) -> None:
        """Register ``handler(message, src, now)`` as receiver for ``address``.

        ``batch_handler(messages, now)`` — ``messages`` a list in arrival
        order — takes precedence when several messages land at one
        instant (and is also used for single messages, so a receiver
        sees exactly one code path). Batch receivers that need the
        source must read it from the message itself.
        """
        if address in self._handlers:
            raise ValueError(f"address {address!r} already attached")
        self._handlers[address] = handler
        if batch_handler is not None:
            self._batch_handlers[address] = batch_handler

    def detach(self, address: Address) -> None:
        """Remove an address; in-flight messages to it are dropped on arrival."""
        self._handlers.pop(address, None)
        self._batch_handlers.pop(address, None)

    def is_attached(self, address: Address) -> bool:
        """Whether ``address`` currently has a receiver."""
        return address in self._handlers

    @property
    def addresses(self) -> list[Address]:
        """All currently attached addresses."""
        return list(self._handlers)

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------
    def send(self, src: Address, dst: Address, message: Any, items: int = 1) -> bool:
        """Queue ``message`` from ``src`` to ``dst``.

        Returns True if the message was scheduled for delivery, False if
        a rule ate it or ``dst`` has no receiver (:meth:`ChaosRules.plan`
        decides). ``items`` is an accounting hint (number of application
        events inside) used for payload statistics only.
        """
        self.stats.payload_items += items
        delay = self.rules.plan(src, dst, self._rng, dst in self._handlers)
        if delay is None:
            return False
        self._sim.schedule(delay, self._deliver, dst, message, src)
        return True

    def multicast(self, src: Address, dsts, message: Any, items: int = 1) -> int:
        """Queue one ``message`` from ``src`` to every address in ``dsts``.

        The batched counterpart of calling :meth:`send` once per
        destination: it reads the same rule fields in bulk and applies
        them in :meth:`ChaosRules.plan`'s order, statistics are updated
        in bulk, the loss/latency models are consulted per destination
        in ``dsts`` order (so RNG consumption — and therefore the whole
        run — is identical to the per-send path), and destinations whose
        sampled delays coincide are delivered by a single scheduled
        event. With :class:`ConstantLatency` and a quiet rule set, a
        whole fanout's deliveries collapse into one heap entry.

        Returns the number of destinations actually scheduled.
        """
        stats = self.stats
        n = len(dsts)
        stats.sent += n
        stats.payload_items += items * n
        handlers = self._handlers
        rules = self.rules
        latency = rules.latency
        fixed_delay = latency.delay if type(latency) is ConstantLatency else None
        if fixed_delay is not None and rules.quiet():
            # Draw-free models, no rule in force: every destination shares
            # one delay and nothing consults the RNG, so the whole fanout
            # reduces to a membership filter and a single scheduled event.
            batch = [dst for dst in dsts if dst in handlers]
            missing = n - len(batch)
            if missing:
                stats.no_route += missing
            if batch:
                if fixed_delay > 0:
                    stats.delayed += len(batch)
                self._sim.post(fixed_delay, self._deliver_batch, tuple(batch), message, src)
            return len(batch)
        partition_of = rules.partition_of
        partition_get = partition_of.get if partition_of else None
        src_group = partition_get(src, -1) if partition_get is not None else -1
        oneway_blocked = rules.oneway_blocked
        oneway_get = rules.oneway_of.get if oneway_blocked else None
        src_oneway = oneway_get(src, -1) if oneway_get is not None else -1
        cap = rules.cap
        cap_on = cap.rate is not None
        now = self._sim.now
        loss = rules.loss
        lossless = type(loss) is NoLoss
        link_loss = rules.link_loss
        rng = self._rng
        scheduled = 0
        batch_delay = -1.0
        batch = []
        for dst in dsts:
            if partition_get is not None and partition_get(dst, -1) != src_group:
                stats.partitioned += 1
                continue
            if oneway_get is not None and (src_oneway, oneway_get(dst, -1)) in oneway_blocked:
                stats.oneway_blocked += 1
                continue
            if dst not in handlers:
                stats.no_route += 1
                continue
            if cap_on and cap.exceeded(now):
                stats.capped += 1
                continue
            if not lossless and loss.is_lost(src, dst, rng):
                stats.lost += 1
                continue
            if link_loss is not None:
                p = link_loss.get((src, dst))
                if p is not None and rng.random() < p:
                    stats.link_lost += 1
                    continue
            delay = fixed_delay if fixed_delay is not None else latency.sample(src, dst, rng)
            if delay == batch_delay:
                batch.append(dst)
            else:
                if batch:
                    self._post_batch(batch_delay, batch, message, src)
                batch = [dst]
                batch_delay = delay
            scheduled += 1
        if batch:
            self._post_batch(batch_delay, batch, message, src)
        return scheduled

    def _post_batch(self, delay: float, batch: list, message: Any, src: Address) -> None:
        if delay > 0:
            self.stats.delayed += len(batch)
        self._sim.post(delay, self._deliver_batch, tuple(batch), message, src)

    def _enqueue(self, dst: Address, message: Any, src: Address) -> None:
        # Batch-handled destinations queue bare messages (their handler
        # never sees the source); plain handlers queue (message, src).
        queue = self._pending.get(dst)
        item = message if dst in self._batch_handlers else (message, src)
        if queue is None:
            self._pending[dst] = [item]
        else:
            queue.append(item)
        if not self._flush_scheduled:
            self._flush_scheduled = True
            self._sim.post(0.0, self._flush_pending)

    _deliver = _enqueue

    def _deliver_batch(self, dsts: tuple, message: Any, src: Address) -> None:
        pending = self._pending
        batched = self._batch_handlers
        for dst in dsts:
            queue = pending.get(dst)
            item = message if dst in batched else (message, src)
            if queue is None:
                pending[dst] = [item]
            else:
                queue.append(item)
        if not self._flush_scheduled:
            self._flush_scheduled = True
            self._sim.post(0.0, self._flush_pending)

    def _flush_pending(self) -> None:
        # Runs at the same virtual time as the arrivals it drains: post()
        # sequencing orders it after every delivery event of this instant
        # (all were scheduled earlier), and anything a handler sends now
        # arrives strictly later, starting a fresh accumulation.
        self._flush_scheduled = False
        pending = self._pending
        if not pending:
            return
        self._pending = {}
        handlers = self._handlers
        batch_handlers = self._batch_handlers
        stats = self.stats
        now = self._sim.now
        for dst, items in pending.items():
            batch_handler = batch_handlers.get(dst)
            if batch_handler is not None:
                stats.delivered += len(items)
                batch_handler(items, now)
                continue
            handler = handlers.get(dst)
            if handler is None:
                # Receiver left while the messages were in flight.
                stats.no_route += len(items)
                continue
            stats.delivered += len(items)
            for message, src in items:
                handler(message, src, now)
