"""The shipped scenario library.

Every adverse condition the paper (and the related gossip literature)
motivates, as a registered, profile-scaled
:class:`~repro.scenarios.spec.ScenarioSpec`. All times inside a builder
are expressed as fractions of ``profile.duration`` so the same scenario
runs at paper scale, quick scale, or a test-sized profile without
editing its definition. Run one with::

    python -m repro.experiments run-scenario correlated-loss
    python -m repro.experiments run-scenario flash-crowd --driver threaded

or build it in code via :func:`repro.scenarios.get_scenario`.
"""

from __future__ import annotations

import dataclasses

from repro.core.config import AdaptiveConfig
from repro.experiments.profiles import Profile
from repro.scenarios.conditions import (
    BandwidthCap,
    BufferSqueeze,
    CorrelatedLoss,
    CrashGroup,
    LoadSpike,
    LossyLinks,
    OneWayPartition,
    Partition,
    RollingChurn,
    SlowReceivers,
)
from repro.scenarios.expectations import (
    AdaptiveBeatsStatic,
    ConvergenceWithin,
    NoDroppedSenders,
    RedundancyAtMost,
    ReliabilityAtLeast,
)
from repro.scenarios.registry import scenario
from repro.scenarios.spec import FixedLinks, ScenarioSpec, SenderSpec, WanClusters
from repro.sim.network import BernoulliLoss

__all__ = []  # scenarios are consumed through the registry, not imports

# Expectation thresholds are regression *floors*, not aspirations: each
# sits below the metric observed at both the smoke and the quick scale
# (see check-scenarios) with enough margin that only a behaviour change
# — not profile scaling — can trip it. Exact values are pinned by the
# baselines; these gates catch qualitative collapses (reliability
# cratering, redundancy exploding, a sender silenced).


def _adaptive(profile: Profile, initial_rate: float = 8.0) -> AdaptiveConfig:
    return AdaptiveConfig(age_critical=profile.tau_hint, initial_rate=initial_rate)


def _senders(profile: Profile, load=None, **kw) -> tuple[SenderSpec, ...]:
    """The profile's sender placement at ``load`` total msg/s."""
    ids = profile.sender_ids()
    total = profile.offered_load if load is None else load
    return tuple(SenderSpec(node, total / len(ids), **kw) for node in ids)


def _tail_non_senders(profile: Profile, count: int) -> tuple:
    """The ``count`` highest node ids that are not senders (safe to kill)."""
    senders = set(profile.sender_ids())
    picked = []
    for node in range(profile.n_nodes - 1, -1, -1):
        if node not in senders:
            picked.append(node)
        if len(picked) == count:
            break
    return tuple(sorted(picked))


def _base(profile: Profile, name: str, summary: str, seed_offset: int, **kw) -> ScenarioSpec:
    params = dict(
        name=name,
        summary=summary,
        n_nodes=profile.n_nodes,
        protocol="adaptive",
        system=profile.system(),
        adaptive=_adaptive(profile),
        senders=_senders(profile),
        duration=profile.duration,
        warmup=profile.warmup,
        drain=profile.drain,
        seed=profile.seed + seed_offset,
    )
    params.update(kw)
    return ScenarioSpec(**params)


@scenario(
    "overload-baseline",
    expectations=(
        ReliabilityAtLeast(0.80),
        AdaptiveBeatsStatic(0.10),
        RedundancyAtMost(8.0),
        NoDroppedSenders(),
    ),
)
def overload_baseline(profile: Profile) -> ScenarioSpec:
    """The paper's core setting: offered load exceeds buffer capacity."""
    return _base(
        profile,
        "overload-baseline",
        "offered load above buffer capacity; adaptation must throttle",
        seed_offset=1,
    )


@scenario(
    "wan-clustered",
    expectations=(
        ReliabilityAtLeast(0.80),
        ConvergenceWithin(5.0),
        NoDroppedSenders(),
    ),
)
def wan_clustered(profile: Profile) -> ScenarioSpec:
    """Three WAN sites: cheap intra-site links, expensive cross-site links."""
    return _base(
        profile,
        "wan-clustered",
        "three-site WAN topology with expensive cross-site links",
        seed_offset=2,
        topology=WanClusters(n_clusters=3),
        senders=_senders(profile, load=0.5 * profile.offered_load),
    )


@scenario(
    "flash-crowd",
    expectations=(
        ReliabilityAtLeast(0.90),
        AdaptiveBeatsStatic(0.15),
        NoDroppedSenders(),
    ),
)
def flash_crowd(profile: Profile) -> ScenarioSpec:
    """A 4x load spike hits a comfortably-loaded group mid-run."""
    d = profile.duration
    return _base(
        profile,
        "flash-crowd",
        "sudden 4x offered-load spike against a comfortable baseline",
        seed_offset=3,
        senders=_senders(profile, load=0.3 * profile.offered_load),
    ).stressed(LoadSpike(time=0.4 * d, duration=0.25 * d, factor=4.0))


@scenario(
    "correlated-loss",
    expectations=(
        ReliabilityAtLeast(0.90, metric="avg_receiver_fraction"),
        ConvergenceWithin(6.0),
        NoDroppedSenders(),
    ),
)
def correlated_loss(profile: Profile) -> ScenarioSpec:
    """The §5 caveat: a heavy correlated-loss burst on a healthy group."""
    d = profile.duration
    big = profile.buffer_sizes[-1]
    return _base(
        profile,
        "correlated-loss",
        "75% loss burst mid-run; loss is not read as congestion",
        seed_offset=4,
        system=profile.system(big),
        adaptive=_adaptive(profile, initial_rate=8.0),
        senders=_senders(profile, load=0.5 * big),
    ).stressed(CorrelatedLoss(time=0.45 * d, duration=0.2 * d, p=0.75))


@scenario(
    "rolling-churn",
    expectations=(
        ReliabilityAtLeast(0.70),
        ReliabilityAtLeast(0.90, metric="avg_receiver_fraction"),
        NoDroppedSenders(),
    ),
)
def rolling_churn(profile: Profile) -> ScenarioSpec:
    """Rolling crash/rejoin over partial membership views."""
    d = profile.duration
    churned = _tail_non_senders(profile, max(2, profile.n_nodes // 6))
    return _base(
        profile,
        "rolling-churn",
        "nodes crash and rejoin on a cadence, over partial views",
        seed_offset=5,
        membership="partial",
        view_size=min(8, profile.n_nodes - 1),
        senders=_senders(profile, load=0.5 * profile.offered_load),
    ).stressed(
        RollingChurn(
            start=0.25 * d,
            interval=0.05 * d,
            nodes=churned,
            rejoin_after=0.1 * d,
            action="crash",
        )
    )


@scenario(
    "partition-heal",
    expectations=(
        ReliabilityAtLeast(0.95),
        RedundancyAtMost(25.0),
        NoDroppedSenders(),
    ),
)
def partition_heal(profile: Profile) -> ScenarioSpec:
    """The network splits in two mid-run, then heals."""
    d = profile.duration
    # events must outlive the partition to be recovered after the heal
    system = dataclasses.replace(
        profile.system(profile.buffer_sizes[-1]), max_age=max(profile.max_age, 25)
    )
    return _base(
        profile,
        "partition-heal",
        "clean two-way partition mid-run, healed before the drain",
        seed_offset=6,
        system=system,
        senders=_senders(profile, load=0.3 * profile.offered_load),
    ).stressed(Partition(time=0.3 * d, duration=0.2 * d, n_groups=2))


@scenario(
    "slow-receivers",
    expectations=(
        ReliabilityAtLeast(0.95),
        RedundancyAtMost(8.0),
        NoDroppedSenders(),
    ),
)
def slow_receivers(profile: Profile) -> ScenarioSpec:
    """A fifth of the group is quietly under-provisioned from the start."""
    return _base(
        profile,
        "slow-receivers",
        "20% of nodes run with quarter-size buffers from t=0",
        seed_offset=7,
    ).stressed(
        SlowReceivers(capacity=max(5, profile.fig2_buffer // 4), fraction=0.2)
    )


@scenario(
    "buffer-flap",
    expectations=(
        ReliabilityAtLeast(0.95),
        ConvergenceWithin(5.0),
        NoDroppedSenders(),
    ),
)
def buffer_flap(profile: Profile) -> ScenarioSpec:
    """The Figure 9 dynamic: buffers shrink mid-run, partially recover."""
    d = profile.duration
    return _base(
        profile,
        "buffer-flap",
        "Figure 9: buffers shrink mid-run and only partially recover",
        seed_offset=8,
        system=profile.system(profile.fig9_base_buffer),
        adaptive=_adaptive(profile, initial_rate=12.0),
    ).stressed(
        BufferSqueeze(
            time=0.33 * d,
            capacity=profile.fig9_low_buffer,
            fraction=profile.fig9_frac,
            restore_at=0.66 * d,
            restore_to=profile.fig9_mid_buffer,
        )
    )


@scenario(
    "pubsub-hotspot",
    expectations=(
        ReliabilityAtLeast(0.95),
        NoDroppedSenders(),
    ),
)
def pubsub_hotspot(profile: Profile) -> ScenarioSpec:
    """One hot publisher; 40% of members silently split their buffer
    budget across extra topics mid-run (the §1 pub/sub motivation)."""
    d = profile.duration
    ids = profile.sender_ids()
    hot, rest = ids[0], ids[1:]
    load = profile.offered_load
    senders = (SenderSpec(hot, 0.6 * load),) + tuple(
        SenderSpec(node, 0.4 * load / max(1, len(rest))) for node in rest
    )
    return _base(
        profile,
        "pubsub-hotspot",
        "hot publisher; 40% of members lose 5/6 of their buffers mid-run",
        seed_offset=9,
        senders=senders,
    ).stressed(
        BufferSqueeze(
            time=0.4 * d,
            capacity=max(5, profile.fig2_buffer // 6),
            fraction=0.4,
        )
    )


@scenario(
    "catastrophic-crash",
    expectations=(
        ReliabilityAtLeast(0.80),
        NoDroppedSenders(),
    ),
)
def catastrophic_crash(profile: Profile) -> ScenarioSpec:
    """A quarter of the group crashes at one instant; restarts later."""
    d = profile.duration
    victims = _tail_non_senders(profile, max(2, profile.n_nodes // 4))
    return _base(
        profile,
        "catastrophic-crash",
        "correlated crash of a quarter of the group, restart later",
        seed_offset=10,
        senders=_senders(profile, load=0.4 * profile.offered_load),
    ).stressed(
        CrashGroup(time=0.4 * d, nodes=victims, restart_after=0.3 * d)
    )


@scenario(
    "congested-switch",
    expectations=(
        ReliabilityAtLeast(0.85),
        ConvergenceWithin(6.0),
        NoDroppedSenders(),
    ),
)
def congested_switch(profile: Profile) -> ScenarioSpec:
    """A bandwidth cap throttles the whole fabric for a window, on top of
    a lightly lossy LAN — resource exhaustion below the protocol."""
    d = profile.duration
    # cap well below the gossip traffic a healthy round produces
    cap = profile.n_nodes * profile.fanout * 0.5 / profile.gossip_period
    return _base(
        profile,
        "congested-switch",
        "fabric-wide bandwidth cap window over a lightly lossy LAN",
        seed_offset=11,
        baseline_loss=BernoulliLoss(0.01),
        senders=_senders(profile, load=0.3 * profile.offered_load),
    ).stressed(BandwidthCap(time=0.4 * d, duration=0.2 * d, rate=cap))


@scenario(
    "mega-flood",
    expectations=(
        # atomicity collapses during the spike at quick scale (plain
        # lpbcast has no admission control to throttle it), so the gate
        # rides the Figure 8(a) axis, which stays high at every scale
        ReliabilityAtLeast(0.80, metric="avg_receiver_fraction"),
        RedundancyAtMost(10.0),
        NoDroppedSenders(),
    ),
)
def mega_flood(profile: Profile) -> ScenarioSpec:
    """A flash crowd on the round-synchronous lossless regime the
    columnar vector executor (:mod:`repro.sim.vector`) accelerates:
    plain lpbcast, fixed round phase, constant sub-period link delay.
    Run it at scale with ``REPRO_PROFILE=mega run-scenario mega-flood
    --dispatch vector``; at any other profile it behaves like a
    jitter-free flash-crowd and stays byte-identical across dispatch
    modes."""
    d = profile.duration
    return _base(
        profile,
        "mega-flood",
        "flash crowd on the round-synchronous regime, vector-accelerable",
        seed_offset=13,
        protocol="lpbcast",
        system=dataclasses.replace(
            profile.system(), round_phase=0.0, round_jitter=0.0
        ),
        adaptive=None,
        topology=FixedLinks(0.01),
        senders=_senders(profile, load=0.3 * profile.offered_load),
    ).stressed(LoadSpike(time=0.4 * d, duration=0.25 * d, factor=4.0))


# ----------------------------------------------------------------------
# the mega chaos family: the library's signature faulted scenarios,
# restated in the round-synchronous lpbcast regime the columnar vector
# executor accelerates. Each keeps its namesake's fault shape but pins
# protocol/schedule/topology so `--dispatch vector` engages the mega
# lane instead of falling back — `REPRO_PROFILE=mega run-scenario
# mega-correlated-loss --dispatch vector` runs 10k faulted nodes in
# seconds. Restart instants are snapped to the round grid (the lane
# only re-admits nodes on tick boundaries).
# ----------------------------------------------------------------------
def _mega_base(profile: Profile, name: str, summary: str, seed_offset: int, **kw):
    params = dict(
        protocol="lpbcast",
        system=dataclasses.replace(
            profile.system(), round_phase=0.0, round_jitter=0.0
        ),
        adaptive=None,
        topology=FixedLinks(0.01),
        senders=_senders(profile, load=0.3 * profile.offered_load),
    )
    params.update(kw)
    return _base(profile, name, summary, seed_offset, **params)


@scenario(
    "mega-correlated-loss",
    expectations=(
        ReliabilityAtLeast(0.75, metric="avg_receiver_fraction"),
        RedundancyAtMost(20.0),
        NoDroppedSenders(),
    ),
)
def mega_correlated_loss(profile: Profile) -> ScenarioSpec:
    """correlated-loss on the vector-accelerable regime: the 75% loss
    burst against plain lpbcast, whose fixed fanout must ride it out on
    redundancy alone (no adaptive round acceleration to lean on)."""
    d = profile.duration
    return _mega_base(
        profile,
        "mega-correlated-loss",
        "75% loss burst on the round-synchronous lpbcast regime",
        seed_offset=16,
    ).stressed(CorrelatedLoss(time=0.45 * d, duration=0.2 * d, p=0.75))


@scenario(
    "mega-partition-heal",
    expectations=(
        ReliabilityAtLeast(0.75, metric="avg_receiver_fraction"),
        NoDroppedSenders(),
    ),
)
def mega_partition_heal(profile: Profile) -> ScenarioSpec:
    """partition-heal on the vector-accelerable regime; buffered events
    must outlive the split for the heal to recover them."""
    d = profile.duration
    system = dataclasses.replace(
        profile.system(profile.buffer_sizes[-1]),
        round_phase=0.0,
        round_jitter=0.0,
        max_age=max(profile.max_age, 25),
    )
    return _mega_base(
        profile,
        "mega-partition-heal",
        "two-way partition and heal on the round-synchronous lpbcast regime",
        seed_offset=17,
        system=system,
    ).stressed(Partition(time=0.3 * d, duration=0.2 * d, n_groups=2))


@scenario(
    "mega-catastrophic-crash",
    expectations=(
        ReliabilityAtLeast(0.60, metric="avg_receiver_fraction"),
        NoDroppedSenders(),
    ),
)
def mega_catastrophic_crash(profile: Profile) -> ScenarioSpec:
    """catastrophic-crash on the vector-accelerable regime: a quarter of
    the group crashes mid-run and restarts (columns zeroed, old
    identity) on a round boundary."""
    d = profile.duration
    period = profile.gossip_period
    victims = _tail_non_senders(profile, max(2, profile.n_nodes // 4))
    crash_at = 0.4 * d
    # the lane re-admits nodes on round ticks only: snap the restart
    restart_at = round(0.7 * d / period) * period
    return _mega_base(
        profile,
        "mega-catastrophic-crash",
        "quarter of the group crashes, restarts on a round boundary",
        seed_offset=18,
    ).stressed(
        CrashGroup(time=crash_at, nodes=victims, restart_after=restart_at - crash_at)
    )


@scenario(
    "mega-flaky-edge",
    expectations=(
        ReliabilityAtLeast(0.75, metric="avg_receiver_fraction"),
        RedundancyAtMost(20.0),
        NoDroppedSenders(),
    ),
)
def mega_flaky_edge(profile: Profile) -> ScenarioSpec:
    """flaky-edge on the vector-accelerable regime. The flaky set is a
    bounded explicit link list (not a node fraction): a fraction-based
    matrix is O(n^2) entries at 10k nodes, and per-link loss overlapping
    a Bernoulli window already forces the lane's sequential loss path —
    the regime this scenario exists to exercise."""
    d = profile.duration
    n = profile.n_nodes
    flaky = _tail_non_senders(profile, min(16, max(2, n // 8)))
    links = set()
    for node in flaky:
        for k in range(8):
            peer = (node * 7 + 13 + k * 97) % n
            if peer != node:
                links.add((node, peer))
                links.add((peer, node))
    return _mega_base(
        profile,
        "mega-flaky-edge",
        "flaky minority links plus an ambient loss burst, sequential-loss path",
        seed_offset=19,
    ).stressed(
        LossyLinks(time=0.3 * d, duration=0.3 * d, p=0.6, pairs=tuple(sorted(links))),
        CorrelatedLoss(time=0.35 * d, duration=0.2 * d, p=0.2),
    )


@scenario(
    "giga-flood",
    expectations=(
        # same gate as mega-flood: the Figure 8(a) axis stays high at
        # every scale even while spike-time atomicity collapses
        ReliabilityAtLeast(0.80, metric="avg_receiver_fraction"),
        RedundancyAtMost(10.0),
        NoDroppedSenders(),
    ),
)
def giga_flood(profile: Profile) -> ScenarioSpec:
    """mega-flood's flash crowd at ten times the population.
    Run it at 100k nodes with ``REPRO_PROFILE=giga run-scenario
    giga-flood --dispatch vector``; at any other profile it behaves
    like a jitter-free flash-crowd and stays byte-identical across
    dispatch modes."""
    d = profile.duration
    return _mega_base(
        profile,
        "giga-flood",
        "flash crowd at 100k-node scale on the columnar vector lane",
        seed_offset=20,
    ).stressed(LoadSpike(time=0.4 * d, duration=0.25 * d, factor=4.0))


@scenario(
    "asymmetric-uplink",
    expectations=(
        ReliabilityAtLeast(0.80, metric="avg_receiver_fraction"),
        RedundancyAtMost(25.0),
        NoDroppedSenders(),
    ),
)
def asymmetric_uplink(profile: Profile) -> ScenarioSpec:
    """Half the group loses its *uplink* mid-run: it still hears the rest
    but cannot speak to it (the one-way cut — a NATed rack, a half-broken
    transceiver). Gossip pulls nothing back from the mute half, so its
    events age out unseen unless the cut heals in time."""
    d = profile.duration
    # events must outlive the cut to be recovered after it heals
    system = dataclasses.replace(
        profile.system(profile.buffer_sizes[-1]), max_age=max(profile.max_age, 25)
    )
    return _base(
        profile,
        "asymmetric-uplink",
        "directed cut: the upper half can hear but not speak, then heals",
        seed_offset=14,
        system=system,
        senders=_senders(profile, load=0.3 * profile.offered_load),
    ).stressed(
        OneWayPartition(time=0.3 * d, duration=0.2 * d, blocked=((1, 0),))
    )


@scenario(
    "flaky-edge",
    expectations=(
        ReliabilityAtLeast(0.85, metric="avg_receiver_fraction"),
        RedundancyAtMost(8.0),
        NoDroppedSenders(),
    ),
)
def flaky_edge(profile: Profile) -> ScenarioSpec:
    """A fifth of the group sits behind flaky links (60% per-link loss,
    both directions) while a mild ambient loss burst overlaps the same
    window — heterogeneous per-link degradation composed with a
    symmetric knob, legal because each is its own network knob."""
    d = profile.duration
    return _base(
        profile,
        "flaky-edge",
        "flaky minority links at 60% loss, overlapping a mild ambient burst",
        seed_offset=15,
        senders=_senders(profile, load=0.4 * profile.offered_load),
    ).stressed(
        LossyLinks(time=0.3 * d, duration=0.3 * d, p=0.6, fraction=0.2),
        CorrelatedLoss(time=0.35 * d, duration=0.2 * d, p=0.2),
    )


@scenario(
    "bursty-onoff",
    expectations=(
        ReliabilityAtLeast(0.75),
        RedundancyAtMost(8.0),
        NoDroppedSenders(),
    ),
)
def bursty_onoff(profile: Profile) -> ScenarioSpec:
    """On/off senders: bursts at twice the sustainable rate, then silence
    (exercises the unused-grant decay of Figure 5(c))."""
    d = profile.duration
    ids = profile.sender_ids()
    rate_each = 2.0 * profile.offered_load / len(ids)
    senders = tuple(
        SenderSpec(node, rate_each, arrivals="onoff", on=0.08 * d, off=0.08 * d)
        for node in ids
    )
    return _base(
        profile,
        "bursty-onoff",
        "on/off bursts at 2x sustainable rate, exercising grant decay",
        seed_offset=12,
        senders=senders,
    )
