"""Integration: the adaptive mechanism end to end.

These are the paper's qualitative claims as executable assertions:
throttling under overload, acceptance under light load, convergence
toward the calibrated maximum, reaction to runtime resource changes, and
the superiority over the baseline in atomicity.
"""

import pytest

from repro.core.aggregation import KSmallestAggregate
from repro.core.config import AdaptiveConfig
from repro.gossip.config import SystemConfig
from repro.metrics.delivery import analyze_delivery
from repro.workload.cluster import SimCluster

TAU = 4.46  # calibrated for this simulator (see EXPERIMENTS.md)
SENDERS = [0, 5, 10, 15]


def adaptive_cluster(buffer=30, offered=60.0, n=24, seed=3, duration=160.0, **kw):
    cluster = SimCluster(
        n_nodes=n,
        system=SystemConfig(buffer_capacity=buffer, dedup_capacity=2000),
        protocol="adaptive",
        adaptive=AdaptiveConfig(age_critical=TAU, initial_rate=8.0),
        seed=seed,
        **kw,
    )
    cluster.add_senders(SENDERS, rate_each=offered / len(SENDERS))
    cluster.run(until=duration)
    return cluster


def test_throttles_under_overload():
    cluster = adaptive_cluster(buffer=20, offered=60.0)
    input_rate = cluster.metrics.admitted.rate(80, 150)
    assert input_rate < 45.0  # well below the offered 60


def test_accepts_light_load():
    cluster = adaptive_cluster(buffer=60, offered=12.0)
    input_rate = cluster.metrics.admitted.rate(80, 150)
    assert input_rate == pytest.approx(12.0, rel=0.15)


def test_atomicity_preserved_under_overload():
    cluster = adaptive_cluster(buffer=20, offered=60.0)
    stats = analyze_delivery(cluster.metrics.messages_in_window(80, 140), 24)
    assert stats.atomicity > 0.75
    assert stats.avg_receiver_fraction > 0.95


def test_beats_baseline_under_overload():
    adaptive = adaptive_cluster(buffer=20, offered=60.0)
    baseline = SimCluster(
        n_nodes=24,
        system=SystemConfig(buffer_capacity=20, dedup_capacity=2000),
        protocol="lpbcast",
        seed=3,
    )
    baseline.add_senders(SENDERS, rate_each=15.0)
    baseline.run(until=160.0)
    atom_a = analyze_delivery(adaptive.metrics.messages_in_window(80, 140), 24).atomicity
    atom_b = analyze_delivery(baseline.metrics.messages_in_window(80, 140), 24).atomicity
    assert atom_a > atom_b + 0.3


def test_drop_age_held_near_critical():
    cluster = adaptive_cluster(buffer=30, offered=60.0)
    drop_age = cluster.metrics.mean_drop_age(80, 150)
    assert drop_age > TAU - 1.0  # baseline at this load collapses to ~3


def test_minbuff_gossip_converges():
    cluster = adaptive_cluster(buffer=30, offered=20.0, duration=60.0)
    for node in cluster.nodes.values():
        assert node.protocol.min_buff_estimate == 30


def test_reacts_to_capacity_decrease():
    cluster = SimCluster(
        n_nodes=24,
        system=SystemConfig(buffer_capacity=60, dedup_capacity=2000),
        protocol="adaptive",
        adaptive=AdaptiveConfig(age_critical=TAU, initial_rate=8.0),
        seed=3,
    )
    cluster.add_senders(SENDERS, rate_each=10.0)  # 40/s: fine for buffer 60
    cluster.run(until=80.0)
    rate_before = cluster.metrics.admitted.rate(50, 80)
    # a fifth of the group shrinks hard
    for node_id in (20, 21, 22, 23):
        cluster.set_capacity(node_id, 15)
    cluster.run(until=200.0)
    rate_after = cluster.metrics.admitted.rate(150, 200)
    assert rate_after < rate_before * 0.75
    # and every node learned the new minimum
    assert cluster.protocol_of(0).min_buff_estimate == 15


def test_recovers_when_capacity_returns():
    cluster = SimCluster(
        n_nodes=24,
        system=SystemConfig(buffer_capacity=60, dedup_capacity=2000),
        protocol="adaptive",
        adaptive=AdaptiveConfig(age_critical=TAU, initial_rate=8.0),
        seed=3,
    )
    cluster.add_senders(SENDERS, rate_each=10.0)
    for node_id in (20, 21):
        cluster.set_capacity(node_id, 15)
    cluster.run(until=100.0)
    throttled = cluster.metrics.admitted.rate(70, 100)
    for node_id in (20, 21):
        cluster.set_capacity(node_id, 60)
    cluster.run(until=260.0)
    recovered = cluster.metrics.admitted.rate(220, 260)
    assert recovered > throttled * 1.25
    assert cluster.protocol_of(0).min_buff_estimate == 60


def test_k_smallest_ignores_single_straggler():
    """§6 extension: adapting to the 2nd-smallest buffer lets one tiny
    node be sacrificed instead of throttling the whole group."""
    def build(aggregate):
        cluster = SimCluster(
            n_nodes=24,
            system=SystemConfig(buffer_capacity=60, dedup_capacity=2000),
            protocol="adaptive",
            adaptive=AdaptiveConfig(age_critical=TAU, initial_rate=8.0),
            aggregate=aggregate,
            seed=3,
        )
        cluster.add_senders(SENDERS, rate_each=12.0)
        cluster.set_capacity(23, 10)  # one straggler
        cluster.run(until=120.0)
        return cluster

    plain = build(None)
    kmin = build(KSmallestAggregate(2))
    assert plain.protocol_of(0).min_buff_estimate == 10
    assert kmin.protocol_of(0).min_buff_estimate == 60
    rate_plain = plain.metrics.admitted.rate(80, 120)
    rate_kmin = kmin.metrics.admitted.rate(80, 120)
    assert rate_kmin > rate_plain


def test_senders_share_capacity_fairly_enough():
    cluster = adaptive_cluster(buffer=20, offered=80.0)
    origins = [record.origin for record in cluster.metrics.messages.values()]
    rates = [origins.count(node) for node in cluster.senders]
    assert max(rates) < 3.5 * min(rates)


def test_idle_sender_cannot_stockpile_allowance():
    """§3.3's attack: an application sends below its grant for a while,
    then bursts. Without the avgTokens rule the grant would have grown
    unbounded during the quiet phase; with it, the grant decays toward
    actual usage, so the burst cannot congest the system."""
    from repro.workload.senders import OnOffArrivals

    cluster = SimCluster(
        n_nodes=24,
        system=SystemConfig(buffer_capacity=30, dedup_capacity=2000),
        protocol="adaptive",
        adaptive=AdaptiveConfig(age_critical=TAU, initial_rate=8.0),
        seed=6,
    )
    # background senders keep the group near capacity
    cluster.add_senders([0, 8], rate_each=15.0)
    # the bursty one: 30s silent, then 20s of heavy offers, repeating
    cluster.add_sender(
        16, rate=60.0, arrivals=OnOffArrivals(rate=60.0, on=20.0, off=30.0)
    )
    cluster.run(until=200.0)
    m = cluster.metrics
    # the bursty sender's grant at the END of a quiet phase is modest:
    # sample its allowed rate just before each ON phase starts
    grants = []
    for cycle_start in (50.0, 100.0, 150.0):
        g = m.gauge_mean_over("allowed_rate", [16], cycle_start - 6, cycle_start - 1)
        if g == g:
            grants.append(g)
    assert grants, "no grant samples collected"
    assert max(grants) < 30.0  # nowhere near an unbounded stockpile
    # and the group's reliability survived the bursts
    stats = analyze_delivery(m.messages_in_window(60, 180), 24)
    assert stats.avg_receiver_fraction > 0.93
