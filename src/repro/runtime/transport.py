"""Transport primitives of the real-time runtime.

The live host (:class:`~repro.runtime.cluster.ThreadedCluster`) moves
datagrams itself — a dict hop on its event loop, or non-blocking UDP
sockets — and consults one thing from here on every send:

* :class:`ChaosRules` — the simulator's own wire rule set
  (:class:`repro.sim.network.ChaosRules`, re-exported here): loss and
  latency models, bandwidth caps, partitions, one-way cuts and per-link
  loss, mutable mid-run from any thread, with its counters in
  ``stats``. Each live node decides with its own seeded RNG, so a given
  seed always produces the same decision sequence on a given send
  sequence, and a scenario's wire conditions mean the same on every
  driver.

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
import socket
import threading
from typing import Any, Optional, Protocol, runtime_checkable

from repro.sim.network import ChaosRules

__all__ = [
    "Transport",
    "InMemoryHub",
    "InMemoryTransport",
    "UdpTransport",
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
