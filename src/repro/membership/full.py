"""Full-membership directory, as used in the paper's 60-node experiments.

A single :class:`Directory` is shared by all nodes of a simulation (it is
bookkeeping, not a protocol — the paper's testbed configures membership
statically). Each node holds a :class:`FullMembershipView` that samples
uniform gossip targets among the other alive nodes.
"""

from __future__ import annotations

import threading
from typing import Iterable, Optional

from repro.gossip.protocol import NodeId
from repro.sim.rng import uniform_sample

__all__ = ["Directory", "FullMembershipView"]


class Directory:
    """Registry of alive node ids with cheap change detection.

    Thread-safe: callers of the live host may join and remove members
    from their own thread while the host's loop thread reads the
    directory through every view, so mutation and the snapshot in
    :meth:`alive` are serialised behind a lock. The hot path — views
    polling :attr:`version` to validate their cached peer list — is a
    lockless int read, so the simulator's single-threaded runs pay
    nothing for this.
    """

    def __init__(self, members: Optional[Iterable[NodeId]] = None) -> None:
        self._alive: dict[NodeId, None] = {}
        self._version = 0
        self._lock = threading.Lock()
        for m in members or ():
            self.join(m)

    @property
    def version(self) -> int:
        """Bumped on every join/leave; views use it to invalidate caches."""
        return self._version

    def join(self, node: NodeId) -> None:
        """Add a member (idempotent)."""
        with self._lock:
            if node not in self._alive:
                self._alive[node] = None
                self._version += 1

    def leave(self, node: NodeId) -> None:
        """Remove a member (idempotent)."""
        with self._lock:
            if node in self._alive:
                del self._alive[node]
                self._version += 1

    def is_alive(self, node: NodeId) -> bool:
        """Whether ``node`` is currently a member."""
        return node in self._alive

    def alive(self) -> list[NodeId]:
        """All current members, in join order."""
        with self._lock:
            return list(self._alive)

    def __len__(self) -> int:
        return len(self._alive)

    def __contains__(self, node: NodeId) -> bool:
        return node in self._alive


class FullMembershipView:
    """A node's view over a shared :class:`Directory` (itself excluded)."""

    # Full views learn nothing from gossip: protocols may skip the
    # per-message on_gossip_receive call entirely (hot-path contract).
    gossip_passive = True

    def __init__(self, directory: Directory, owner: NodeId) -> None:
        self._directory = directory
        self._owner = owner
        self._cache_version = -1
        self._cache: list[NodeId] = []

    def _peers(self) -> list[NodeId]:
        # read the version before the snapshot: a concurrent change then
        # at worst stamps fresher data with an older version, and the
        # next call re-validates (stamping after could mask the change)
        version = self._directory.version
        if self._cache_version != version:
            self._cache = [n for n in self._directory.alive() if n != self._owner]
            self._cache_version = version
        return self._cache

    def size(self) -> int:
        """Number of known peers (excluding the owner)."""
        return len(self._peers())

    def contains(self, node: NodeId) -> bool:
        """Whether ``node`` is a known peer (the owner never is)."""
        return node != self._owner and self._directory.is_alive(node)

    def sample_targets(self, count: int, rng) -> list[NodeId]:
        """Uniform sample (without replacement) of up to ``count`` peers."""
        peers = self._peers()
        if count >= len(peers):
            return list(peers)
        return uniform_sample(rng, peers, count)

    # Partial-view protocol compatibility: full views ignore gossip.
    def on_gossip_emit(self, rng):  # pragma: no cover - trivial
        return None

    def on_gossip_receive(self, header, sender: NodeId, rng) -> None:
        return None
