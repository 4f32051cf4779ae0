"""Declarative fault injection for simulations.

The paper's §5 is candid about a weakness: "network congestion also
results in correlated message loss thus degrading reliability. This is a
potential weakness of the approach". A :class:`FaultScript` schedules
exactly such pathologies — loss windows, partition windows, node
crashes (with optional restart) and bandwidth caps — onto a running
system so experiments can measure what the adaptation can and cannot
rescue (see ``benchmarks/test_ablation_correlated_loss.py`` and the
scenario library in :mod:`repro.scenarios`).

Loss and bandwidth windows mutate *global* network state, so two open
windows of the same kind would silently fight over it (the later one
would win while open, and its close would clobber the earlier one's
restore). :meth:`FaultScript.validate` therefore rejects overlapping
windows of the same kind with a clear error;
:func:`~repro.scenarios.spec.lower_timed_conditions`, which schedules a
script on every driver, validates before lowering anything.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

__all__ = [
    "LossWindow",
    "LinkLossWindow",
    "PartitionWindow",
    "AsymmetricPartitionWindow",
    "CrashWindow",
    "BandwidthCapWindow",
    "FaultScript",
    "OverlappingFaultsError",
    "WIRE_WINDOWS",
]


class OverlappingFaultsError(ValueError):
    """Two fault windows of one knob family overlap in time (ambiguous)."""


@dataclass(frozen=True, slots=True)
class LossWindow:
    """Bernoulli loss at probability ``p`` during [time, time+duration)."""

    time: float
    duration: float
    p: float

    def __post_init__(self) -> None:
        if self.time < 0 or self.duration <= 0:
            raise ValueError("need time >= 0 and duration > 0")
        if not 0 < self.p <= 1:
            raise ValueError("p must be in (0, 1]")


@dataclass(frozen=True, slots=True)
class PartitionWindow:
    """Network split into ``groups`` during [time, time+duration)."""

    time: float
    duration: float
    groups: tuple[tuple, ...]

    def __post_init__(self) -> None:
        if self.time < 0 or self.duration <= 0:
            raise ValueError("need time >= 0 and duration > 0")
        if len(self.groups) < 2:
            raise ValueError("a partition needs at least two groups")


@dataclass(frozen=True, slots=True)
class AsymmetricPartitionWindow:
    """One-way reachability cut during [time, time+duration).

    ``groups`` splits the nodes like :class:`PartitionWindow`; ``blocked``
    is a tuple of directed ``(src_group, dst_group)`` index pairs that
    cannot be crossed — traffic in the *other* direction still flows.
    This models the asymmetric links of wireless/NAT deployments where a
    node can hear the cluster but not speak to it (or vice versa), a
    regime where probabilistic broadcast degrades non-obviously.
    """

    time: float
    duration: float
    groups: tuple[tuple, ...]
    blocked: tuple[tuple[int, int], ...] = ((0, 1),)

    def __post_init__(self) -> None:
        if self.time < 0 or self.duration <= 0:
            raise ValueError("need time >= 0 and duration > 0")
        if len(self.groups) < 2:
            raise ValueError("a one-way partition needs at least two groups")
        if not self.blocked:
            raise ValueError("a one-way partition needs at least one blocked pair")
        for pair in self.blocked:
            if len(pair) != 2:
                raise ValueError(f"blocked pair {pair!r} is not a (src, dst) pair")
            a, b = pair
            if not (0 <= a < len(self.groups) and 0 <= b < len(self.groups)):
                raise ValueError(
                    f"blocked pair {pair!r} references a group outside "
                    f"0..{len(self.groups) - 1}"
                )
            if a == b:
                raise ValueError(f"blocked pair {pair!r} cuts a group from itself")


@dataclass(frozen=True, slots=True)
class LinkLossWindow:
    """Per-link Bernoulli loss during [time, time+duration).

    ``links`` is a sparse loss matrix: at construction it may be a dict
    keyed by ``(src, dst)`` with loss probabilities as values, or an
    iterable of ``(src, dst, p)`` triples; it is normalised to a sorted
    tuple of triples so the window stays hashable, picklable and
    deterministic. Pairs not in the matrix are untouched (the global
    loss model still applies to everything).
    """

    time: float
    duration: float
    links: tuple[tuple, ...]

    def __init__(self, time: float, duration: float, links) -> None:
        if hasattr(links, "items"):
            entries = [(src, dst, p) for (src, dst), p in links.items()]
        else:
            entries = [tuple(e) for e in links]
        entries.sort(key=lambda e: (repr(e[0]), repr(e[1])))
        object.__setattr__(self, "time", time)
        object.__setattr__(self, "duration", duration)
        object.__setattr__(self, "links", tuple(entries))
        self.__post_init__()

    def __post_init__(self) -> None:
        if self.time < 0 or self.duration <= 0:
            raise ValueError("need time >= 0 and duration > 0")
        if not self.links:
            raise ValueError("a link-loss window needs at least one link")
        seen = set()
        for entry in self.links:
            if len(entry) != 3:
                raise ValueError(f"link entry {entry!r} is not a (src, dst, p) triple")
            src, dst, p = entry
            if not 0 < p <= 1:
                raise ValueError(f"link ({src!r}, {dst!r}) loss p={p!r} not in (0, 1]")
            if (src, dst) in seen:
                raise ValueError(f"duplicate link entry for ({src!r}, {dst!r})")
            seen.add((src, dst))

    @property
    def matrix(self) -> dict:
        """The sparse ``(src, dst) -> p`` dict form of :attr:`links`."""
        return {(src, dst): p for src, dst, p in self.links}


@dataclass(frozen=True, slots=True)
class CrashWindow:
    """Nodes crash silently at ``time``; with ``restart_at`` they rejoin.

    A restarted node is a *fresh* process (empty buffers, new protocol
    state) that re-enters under its old identity — the realistic model
    for a process restart. Crashes act on nodes, so they are lowered onto
    the driver, never onto the network.
    """

    time: float
    nodes: tuple
    restart_at: Optional[float] = None

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError("crash time must be >= 0")
        if not self.nodes:
            raise ValueError("a crash window needs at least one node")
        if self.restart_at is not None and self.restart_at <= self.time:
            raise ValueError("restart_at must be after the crash time")


@dataclass(frozen=True, slots=True)
class BandwidthCapWindow:
    """Network throughput capped at ``rate`` msg/s during [time, time+duration)."""

    time: float
    duration: float
    rate: float

    def __post_init__(self) -> None:
        if self.time < 0 or self.duration <= 0:
            raise ValueError("need time >= 0 and duration > 0")
        if self.rate <= 0:
            raise ValueError("bandwidth cap rate must be > 0")


Fault = Union[
    LossWindow,
    LinkLossWindow,
    PartitionWindow,
    AsymmetricPartitionWindow,
    CrashWindow,
    BandwidthCapWindow,
]

# The window kinds that act on the wire (a network rule set) rather than
# on nodes. Each one's open/close mutates its own global network knob,
# so windows of one kind must not overlap among themselves (see module
# docstring), while different kinds hold independent knobs — a
# LinkLossWindow may legally overlap a PartitionWindow or a LossWindow.
WIRE_WINDOWS: tuple[type, ...] = (
    LossWindow,
    LinkLossWindow,
    PartitionWindow,
    AsymmetricPartitionWindow,
    BandwidthCapWindow,
)


@dataclass
class FaultScript:
    """An ordered schedule of faults."""

    faults: list[Fault] = field(default_factory=list)

    def loss(self, time: float, duration: float, p: float) -> "FaultScript":
        self.faults.append(LossWindow(time, duration, p))
        return self

    def partition(
        self, time: float, duration: float, groups: Sequence[Sequence]
    ) -> "FaultScript":
        self.faults.append(
            PartitionWindow(time, duration, tuple(tuple(g) for g in groups))
        )
        return self

    def crash(
        self, time: float, nodes: Sequence, restart_at: Optional[float] = None
    ) -> "FaultScript":
        self.faults.append(CrashWindow(time, tuple(nodes), restart_at))
        return self

    def bandwidth_cap(self, time: float, duration: float, rate: float) -> "FaultScript":
        self.faults.append(BandwidthCapWindow(time, duration, rate))
        return self

    def oneway_partition(
        self,
        time: float,
        duration: float,
        groups: Sequence[Sequence],
        blocked: Sequence[Sequence[int]] = ((0, 1),),
    ) -> "FaultScript":
        self.faults.append(
            AsymmetricPartitionWindow(
                time,
                duration,
                tuple(tuple(g) for g in groups),
                tuple((int(a), int(b)) for a, b in blocked),
            )
        )
        return self

    def link_loss(self, time: float, duration: float, links) -> "FaultScript":
        self.faults.append(LinkLossWindow(time, duration, links))
        return self

    def __len__(self) -> int:
        return len(self.faults)

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Reject ambiguous schedules before anything is scheduled.

        Overlapping windows of one knob family do not compose (two open
        loss windows do not multiply their probabilities — the network
        holds a single loss model), so instead of silently letting the
        later window clobber the earlier one this raises
        :class:`OverlappingFaultsError` naming the offending pair.
        Windows of *different* families hold independent knobs and may
        overlap freely — per-link loss during a partition is a legal,
        meaningful composition.
        """
        for kind in WIRE_WINDOWS:
            windows = sorted(
                (f for f in self.faults if isinstance(f, kind)),
                key=lambda f: (f.time, f.duration),
            )
            for earlier, later in zip(windows, windows[1:]):
                if later.time < earlier.time + earlier.duration:
                    raise OverlappingFaultsError(
                        f"overlapping {kind.__name__}s: {earlier} is still open "
                        f"at t={later.time} when {later} starts; overlapping "
                        "windows of one knob family do not compose — merge "
                        "them into one window or separate them in time"
                    )
