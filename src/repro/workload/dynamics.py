"""Scripted runtime resource dynamics (the Figure 9 scenario).

The paper's dynamic experiment starts a 60-node group below capacity,
then at ``t1`` shrinks the buffers of 20% of the nodes from 90 to 45
messages, and at ``t2`` grows them back — but only to 60, still below the
initial provisioning. A :class:`ResourceScript` captures exactly this
kind of schedule declaratively so experiments, tests and examples replay
it identically; :func:`~repro.scenarios.spec.lower_timed_conditions`
schedules it on every driver.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, Union

from repro.gossip.protocol import NodeId

__all__ = ["CapacityChange", "OfferedRateChange", "ResourceScript"]


@dataclass(frozen=True, slots=True)
class CapacityChange:
    """Set the buffer capacity of some nodes at an absolute time."""

    time: float
    nodes: tuple[NodeId, ...]
    capacity: int

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError("time must be >= 0")
        if self.capacity < 1:
            raise ValueError("capacity must be >= 1")
        if not self.nodes:
            raise ValueError("at least one node required")


@dataclass(frozen=True, slots=True)
class OfferedRateChange:
    """Change the offered rate of some senders at an absolute time."""

    time: float
    nodes: tuple[NodeId, ...]
    rate: float

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError("time must be >= 0")
        if self.rate <= 0:
            raise ValueError("rate must be > 0")
        if not self.nodes:
            raise ValueError("at least one node required")


Change = Union[CapacityChange, OfferedRateChange]


@dataclass
class ResourceScript:
    """A declarative schedule of resource changes."""

    changes: list[Change] = field(default_factory=list)

    def set_capacity(
        self, time: float, nodes: Sequence[NodeId], capacity: int
    ) -> "ResourceScript":
        self.changes.append(CapacityChange(time, tuple(nodes), capacity))
        return self

    def set_offered_rate(
        self, time: float, nodes: Sequence[NodeId], rate: float
    ) -> "ResourceScript":
        self.changes.append(OfferedRateChange(time, tuple(nodes), rate))
        return self

    def squeeze(
        self,
        time: float,
        nodes: Sequence[NodeId],
        capacity: int,
        restore_at: float | None = None,
        restore_to: int | None = None,
    ) -> "ResourceScript":
        """Shrink some nodes' buffers, optionally growing them back later.

        The Figure 9 shape in one call: ``capacity`` from ``time`` on and,
        when ``restore_at`` is given, ``restore_to`` (default: the
        original is unknown here, so it must be passed explicitly) from
        then on.
        """
        self.set_capacity(time, nodes, capacity)
        if restore_at is not None:
            if restore_at <= time:
                raise ValueError("restore_at must be after the squeeze time")
            if restore_to is None:
                raise ValueError("restore_at needs restore_to (the new capacity)")
            self.set_capacity(restore_at, nodes, restore_to)
        return self

    def spike(
        self,
        time: float,
        duration: float,
        nodes: Sequence[NodeId],
        rate: float,
        base_rate: float,
    ) -> "ResourceScript":
        """Offered-rate spike: ``rate`` during [time, time+duration), then
        back to ``base_rate`` — the flash-crowd shape."""
        if duration <= 0:
            raise ValueError("duration must be > 0")
        self.set_offered_rate(time, nodes, rate)
        self.set_offered_rate(time + duration, nodes, base_rate)
        return self

    def __len__(self) -> int:
        return len(self.changes)

