"""Transport primitives of the real-time runtime.

The live host (:class:`~repro.runtime.cluster.ThreadedCluster`) moves
datagrams itself — a dict hop on its event loop, or non-blocking UDP
sockets — and consults one thing from here on every send:

* :class:`ChaosRules` — the live fault rule set: Bernoulli/burst loss,
  latency distributions, bandwidth caps, partitions, one-way cuts and
  per-link loss, mutable mid-run from any thread. Each node draws its
  drop/delay decisions from its own seeded RNG, so a given seed always
  produces the same decision sequence on a given send sequence. The
  loss/latency vocabularies are the simulator's own
  (:class:`~repro.sim.network.LossModel` / ``LatencyModel``), so a
  scenario's network environment lowers onto the live drivers without
  translation. :class:`ChaosStats` counts what the rules did.

Two blocking endpoints remain beside it, with the :class:`Transport`
shape they share:

* :class:`InMemoryTransport` — endpoints registered on a shared
  :class:`InMemoryHub`; delivery is a thread-safe queue hand-off.
* :class:`UdpTransport` — one real UDP socket on localhost (or a LAN).

No live driver sends through them: they are the reference hops the
perf ledger times per datagram (``runtime.transport.*``), a fixed
yardstick for the host's own hop.
"""

from __future__ import annotations

import queue
import random
import socket
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional, Protocol, Sequence, runtime_checkable

from repro.sim.network import (
    RateWindow,
    build_partition_map,
    crosses_oneway,
    crosses_partition,
)

__all__ = [
    "Transport",
    "InMemoryHub",
    "InMemoryTransport",
    "UdpTransport",
    "ChaosStats",
    "ChaosRules",
]


@runtime_checkable
class Transport(Protocol):
    """The shape the two blocking endpoints share.

    Structural: anything with an ``address``, a non-blocking-ish
    ``send`` and a blocking ``recv(timeout)`` qualifies — the in-memory
    hub endpoint or a UDP socket.
    """

    address: Any

    def send(self, dest: Any, data: bytes) -> bool: ...

    def recv(self, timeout: float) -> Optional[tuple[bytes, Any]]: ...

    def close(self) -> None: ...


class InMemoryHub:
    """Shared registry connecting in-memory endpoints by address."""

    def __init__(self) -> None:
        self._endpoints: dict[object, "InMemoryTransport"] = {}
        self._lock = threading.Lock()
        self.dropped = 0

    def create(self, address: object, max_queue: int = 1024) -> "InMemoryTransport":
        """Register a new endpoint at ``address``."""
        transport = InMemoryTransport(self, address, max_queue)
        with self._lock:
            if address in self._endpoints:
                raise ValueError(f"address {address!r} already registered")
            self._endpoints[address] = transport
        return transport

    def _route(self, dest: object, data: bytes, src: object) -> bool:
        with self._lock:
            endpoint = self._endpoints.get(dest)
        if endpoint is None:
            self.dropped += 1
            return False
        return endpoint._enqueue(data, src)

    def _remove(self, address: object, transport: Optional["InMemoryTransport"] = None) -> None:
        with self._lock:
            # identity-checked: a late close of a *retired* endpoint
            # (e.g. a leave-grace timer firing after the node rejoined)
            # must not unregister the fresh endpoint at the same address
            if transport is None or self._endpoints.get(address) is transport:
                self._endpoints.pop(address, None)

    def addresses(self) -> list[object]:
        """All currently registered endpoint addresses."""
        with self._lock:
            return list(self._endpoints)


class InMemoryTransport:
    """One endpoint on an :class:`InMemoryHub`."""

    def __init__(self, hub: InMemoryHub, address: object, max_queue: int) -> None:
        self._hub = hub
        self.address = address
        self._queue: "queue.Queue[tuple[bytes, object]]" = queue.Queue(max_queue)
        self._closed = False

    def send(self, dest: object, data: bytes) -> bool:
        """Deliver ``data`` to ``dest``'s queue; False if unknown/full."""
        if self._closed:
            raise RuntimeError("transport closed")
        return self._hub._route(dest, data, self.address)

    def _enqueue(self, data: bytes, src: object) -> bool:
        try:
            self._queue.put_nowait((data, src))
            return True
        except queue.Full:
            # Best-effort like UDP: drop on overrun.
            self._hub.dropped += 1
            return False

    def recv(self, timeout: float) -> Optional[tuple[bytes, object]]:
        """Blocking receive; None on timeout."""
        try:
            return self._queue.get(timeout=max(0.0, timeout))
        except queue.Empty:
            return None

    def close(self) -> None:
        """Unregister from the hub; further sends raise."""
        self._closed = True
        self._hub._remove(self.address, self)


class UdpTransport:
    """A UDP socket endpoint; addresses are ``(host, port)`` pairs."""

    MAX_DATAGRAM = 65507

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self._sock.bind((host, port))
        self.address = self._sock.getsockname()
        self._closed = False

    def send(self, dest: tuple[str, int], data: bytes) -> bool:
        """Send one datagram; False on OS-level send failure."""
        if self._closed:
            raise RuntimeError("transport closed")
        if len(data) > self.MAX_DATAGRAM:
            raise ValueError(f"datagram too large: {len(data)} bytes")
        try:
            self._sock.sendto(data, dest)
            return True
        except OSError:
            return False

    def recv(self, timeout: float) -> Optional[tuple[bytes, tuple[str, int]]]:
        """Blocking receive; None on timeout or if closed mid-wait."""
        self._sock.settimeout(max(1e-4, timeout))
        try:
            data, src = self._sock.recvfrom(self.MAX_DATAGRAM)
            return data, src
        except (TimeoutError, socket.timeout):
            return None
        except OSError:
            return None  # closed under us

    def close(self) -> None:
        """Close the socket; a blocked recv returns None."""
        self._closed = True
        self._sock.close()


# ----------------------------------------------------------------------
# fault injection
# ----------------------------------------------------------------------
@dataclass
class ChaosStats:
    """What the chaos layer did to traffic (whole rule set, all nodes)."""

    sent: int = 0  # passed through (possibly after a delay)
    dropped: int = 0  # eaten by the loss model
    delayed: int = 0  # forwarded late, after a sampled link latency
    capped: int = 0  # eaten by the bandwidth cap
    blocked: int = 0  # eaten by an open partition
    oneway_blocked: int = 0  # eaten by a one-way (directed) cut
    link_dropped: int = 0  # eaten by the per-link loss matrix

    @property
    def eaten(self) -> int:
        """Everything that never reached the wire."""
        return (
            self.dropped
            + self.capped
            + self.blocked
            + self.oneway_blocked
            + self.link_dropped
        )


class ChaosRules:
    """The live fault rule set one host's nodes consult on every send.

    Thread-safety: mutators may be called from any thread (decisions
    happen on the host's event-loop thread, callers mutate rules from
    their own); every read/write of the rule state goes through one lock.
    Decision RNGs belong to the sending nodes, not to the rule set, so
    rule mutations never perturb another node's random stream.

    Every time the rules speak is in the host's seconds — spec seconds
    on the live host, which turns a delay into wall time only when it
    arms the timer — and every node is named by its protocol id.

    Parameters
    ----------
    loss / latency:
        Initial models — the simulator's own vocabularies
        (:class:`~repro.sim.network.LossModel` with
        ``is_lost(src, dst, rng)``, ``LatencyModel`` with
        ``sample(src, dst, rng)``); either may be None.
    """

    def __init__(self, loss: Optional[Any] = None, latency: Optional[Any] = None) -> None:
        self._lock = threading.Lock()
        self._loss = loss
        self._latency = latency
        self._cap = RateWindow()
        self._partition_of: dict[Any, int] = {}
        self._oneway_of: dict[Any, int] = {}
        self._oneway_blocked: frozenset = frozenset()
        self._link_loss: Optional[dict] = None
        self._clock: Callable[[], float] = time.monotonic
        self.stats = ChaosStats()

    # ------------------------------------------------------------------
    # rule mutation (any thread)
    # ------------------------------------------------------------------
    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Install the cap-accounting clock (``time.monotonic`` until then).

        The live host binds its own spec-second clock, so cap windows
        bucket per spec second exactly like the simulator's network —
        same budget granularity, not just the same average rate.
        """
        with self._lock:
            self._clock = clock
            self._cap.set(self._cap.rate)  # restart the current window

    def set_loss(self, loss: Optional[Any]) -> None:
        """Install (or clear) the loss model."""
        with self._lock:
            self._loss = loss

    def set_latency(self, latency: Optional[Any]) -> None:
        """Install (or clear) the latency model."""
        with self._lock:
            self._latency = latency

    def set_bandwidth_cap(self, rate: Optional[float]) -> None:
        """Cap throughput at ``rate`` datagrams per second of the bound clock.

        The accounting is the simulator's own
        :class:`~repro.sim.network.RateWindow` (one-second windows), so
        the two drivers share the semantics, not just the name.
        """
        window = RateWindow()
        window.set(rate)  # validate outside the lock
        with self._lock:
            self._cap = window

    def partition(self, groups: Sequence[Sequence[Any]]) -> None:
        """Split the group: sends may only cross within one group.

        Nodes not named in any group share the implicit group ``-1`` —
        the simulator's convention (the map and the crossing check are
        the simulator's own helpers).
        """
        partition_of = build_partition_map(groups)
        with self._lock:
            self._partition_of = partition_of

    def heal(self) -> None:
        """Remove any partition (one-way cuts are a separate knob)."""
        with self._lock:
            self._partition_of = {}

    def partition_oneway(
        self, groups: Sequence[Sequence[Any]], blocked: Sequence[Sequence[int]]
    ) -> None:
        """Cut the *directed* group edges in ``blocked``.

        Same semantics as the simulator's
        :meth:`~repro.sim.network.Network.partition_oneway` (the map and
        the crossing check are the simulator's own helpers): ``groups``
        splits the nodes, ``blocked`` names ``(src_group, dst_group)``
        index pairs that can no longer be crossed; the reverse direction
        still flows. Independent of :meth:`partition`.
        """
        oneway_of = build_partition_map(groups)
        oneway_blocked = frozenset((a, b) for a, b in blocked)
        with self._lock:
            self._oneway_of = oneway_of
            self._oneway_blocked = oneway_blocked

    def heal_oneway(self) -> None:
        """Remove any one-way cut."""
        with self._lock:
            self._oneway_of = {}
            self._oneway_blocked = frozenset()

    def set_link_loss(self, matrix: Optional[dict]) -> None:
        """Install (or with ``None`` clear) a sparse per-link loss matrix.

        ``matrix`` maps ``(src, dst)`` node-id pairs to loss
        probabilities; pairs without an entry are unaffected. Consulted
        *after* the global loss model and only draws from the RNG for
        pairs with an entry — the simulator's contract.
        """
        frozen = dict(matrix) if matrix else None
        with self._lock:
            self._link_loss = frozen

    # ------------------------------------------------------------------
    # the decision (the sender's thread: the host's event loop)
    # ------------------------------------------------------------------
    def plan(self, src: Any, dst: Any, rng: random.Random) -> Optional[float]:
        """Decide one send's fate: None = eat it, else delay in the
        host's seconds.

        Rule order mirrors the simulator's network: partition and cap
        filtering happen *before* the loss model, so the RNG stream of
        drop decisions is untouched by non-random rules, and the latency
        draw happens last. The whole decision runs inside one lock
        acquisition — loss models may be stateful (``BurstLoss`` mutates
        per decision) and are shared by every sender, so the model call
        itself must be serialised, not just the rule snapshot.
        """
        with self._lock:
            stats = self.stats
            if crosses_partition(self._partition_of, src, dst):
                stats.blocked += 1
                return None
            if self._oneway_blocked and crosses_oneway(
                self._oneway_of, self._oneway_blocked, src, dst
            ):
                stats.oneway_blocked += 1
                return None
            if self._cap.rate is not None and self._cap.exceeded(self._clock()):
                stats.capped += 1
                return None
            if self._loss is not None and self._loss.is_lost(src, dst, rng):
                stats.dropped += 1
                return None
            if self._link_loss is not None:
                p = self._link_loss.get((src, dst))
                if p is not None and rng.random() < p:
                    stats.link_dropped += 1
                    return None
            if self._latency is not None:
                delay = self._latency.sample(src, dst, rng)
                if delay > 0:
                    stats.delayed += 1
                    return delay
        return 0.0

    def note_sent(self) -> None:
        """Count one datagram that actually reached the inner transport."""
        with self._lock:
            self.stats.sent += 1

    def close(self) -> None:
        """Release the rule set; a no-op, kept for callers that pair every
        rule set with a close (delayed datagrams ride the host's loop)."""
