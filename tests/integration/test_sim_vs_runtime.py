"""Integration: the simulator and the threaded runtime agree.

The paper's methodology rests on its prototype validating its simulator
("The implementation ... is used to validate simulation results in a
real setting", §4). Here both drivers run the *same protocol objects*
under an equivalent configuration, and the qualitative observables must
agree: full dissemination, minBuff discovery, and admission behaviour.

Wall-clock tests are kept short (~1 s each) and assert ranges, not exact
values — thread scheduling is not deterministic.
"""

import time


from repro.core.config import AdaptiveConfig
from repro.gossip.config import SystemConfig
from repro.runtime.cluster import ThreadedCluster
from repro.workload.cluster import SimCluster

N = 8
ADAPTIVE = AdaptiveConfig(age_critical=4.5, initial_rate=30.0, sample_period=0.5)


def sim_system():
    return SystemConfig(gossip_period=0.05, buffer_capacity=48, dedup_capacity=800)


def test_dissemination_agrees():
    n_messages = 10

    # --- simulator ---
    sim_cluster = SimCluster(n_nodes=N, system=sim_system(), seed=3)
    proto0 = sim_cluster.protocol_of(0)
    for i in range(n_messages):
        proto0.broadcast(f"m{i}", now=sim_cluster.sim.now)
    sim_cluster.run(until=1.0)
    sim_delivered = [
        sim_cluster.protocol_of(n).stats.events_delivered for n in range(1, N)
    ]

    # --- threaded runtime ---
    rt_cluster = ThreadedCluster(N, system=sim_system(), seed=3)
    rt_cluster.start()
    try:
        for i in range(n_messages):
            rt_cluster.broadcast(0, f"m{i}")
        time.sleep(1.0)
    finally:
        rt_cluster.stop()
    rt_delivered = [
        rt_cluster.protocol_of(n).stats.events_delivered for n in range(1, N)
    ]

    assert all(d == n_messages for d in sim_delivered)
    assert all(d == n_messages for d in rt_delivered)


def test_minbuff_discovery_agrees():
    # --- simulator ---
    sim_cluster = SimCluster(
        n_nodes=N, system=sim_system(), protocol="adaptive", adaptive=ADAPTIVE, seed=4
    )
    sim_cluster.set_capacity(N - 1, 12)
    sim_cluster.run(until=2.0)
    sim_estimates = {
        sim_cluster.protocol_of(n).min_buff_estimate for n in range(N - 1)
    }

    # --- threaded runtime ---
    rt_cluster = ThreadedCluster(
        N, system=sim_system(), protocol="adaptive", adaptive=ADAPTIVE, seed=4
    )
    rt_cluster.protocol_of(N - 1).set_buffer_capacity(12, 0.0)
    rt_cluster.start()
    try:
        time.sleep(2.0)
    finally:
        rt_cluster.stop()
    rt_estimates = {
        rt_cluster.protocol_of(n).min_buff_estimate for n in range(N - 1)
    }

    assert sim_estimates == {12}
    assert rt_estimates == {12}


def test_admission_throttles_in_both_drivers():
    offered = 200  # offers, far beyond the initial grant
    window = 1.0

    sim_cluster = SimCluster(
        n_nodes=N, system=sim_system(), protocol="adaptive", adaptive=ADAPTIVE, seed=5
    )
    sim_cluster.add_sender(0, rate=offered / window)
    sim_cluster.run(until=window)
    sim_admitted = sim_cluster.metrics.admitted.count()

    rt_cluster = ThreadedCluster(
        N, system=sim_system(), protocol="adaptive", adaptive=ADAPTIVE, seed=5
    )
    rt_cluster.start()
    try:
        for i in range(offered):
            rt_cluster.broadcast(0, i)
        time.sleep(window)
    finally:
        rt_cluster.stop()
    rt_admitted = rt_cluster.metrics.admitted.count()

    # both drivers admit roughly initial_rate * window (+ bucket depth),
    # nowhere near the offered 200
    for admitted in (sim_admitted, rt_admitted):
        assert admitted <= 2.5 * (ADAPTIVE.initial_rate * window + ADAPTIVE.max_tokens)
        assert admitted >= 0.3 * ADAPTIVE.initial_rate * window


def _windowed_share(result):
    """Admitted over offered in the spec's measurement window."""
    return result.input_rate / result.offered_rate


def test_live_admission_is_independent_of_the_time_scale():
    """The token bucket and the allowed rate are msg/s of *spec* time.

    One adaptive overload spec runs on the live host at two gossip
    periods (three times apart in wall pace) and on the simulator, and
    each run's admitted share of its offers is read over the spec's
    measurement window. The live host's protocols read its spec clock,
    so both live runs admit the same share, and about the share the
    simulator admits. Measured on a 2-core host over 15 spec s, three
    runs each: live 0.562–0.567 at 0.1 s and 0.571 at 0.3 s, against
    the simulator's 0.562. (Whole-run counts, warm-up included, read
    0.640–0.653 and 0.642–0.647; a host that handed the protocols wall
    seconds admitted 0.093 at 0.1 s and 0.213 at 0.3 s: admission moved
    with the pace.)
    """
    from repro.scenarios.registry import get_scenario
    from repro.scenarios.runner import run_scenario, run_scenario_threaded, smoke_profile

    spec = get_scenario("overload-baseline", smoke_profile()).with_horizon(15.0)
    assert spec.protocol == "adaptive"
    sim_share = _windowed_share(run_scenario(spec, driver="sim"))
    live_share = {}
    for period in (0.1, 0.3):
        report = run_scenario_threaded(spec, gossip_period=period)
        live_share[period] = _windowed_share(report.result)
    # within 10% of each other (measured: within 2%)...
    assert min(live_share.values()) >= 0.9 * max(live_share.values()), live_share
    # ...and within 0.1 of the simulator (measured: within 0.01)
    for share in live_share.values():
        assert abs(share - sim_share) <= 0.1, (live_share, sim_share)


def test_live_admission_matches_the_sim_over_the_window():
    """Live admission, read over the sim's window, is the sim's.

    flash-crowd and slow-receivers showed the widest gap between the
    live whole-run admitted share and the sim's windowed one (0.595 vs
    0.429 and 0.446 vs 0.335): the two counted different windows. Over
    the same window, five threaded runs each at smoke scale on a 2-core
    host measured flash-crowd 0.429–0.436 against the sim's 0.429, and
    slow-receivers 0.369–0.374 against the sim's 0.335 (gap at most
    0.039). The band is about twice the widest measured gap.
    """
    from repro.scenarios.registry import get_scenario
    from repro.scenarios.runner import run_scenario, run_scenario_threaded, smoke_profile

    for name in ("flash-crowd", "slow-receivers"):
        spec = get_scenario(name, smoke_profile())
        sim_share = _windowed_share(run_scenario(spec, driver="sim"))
        live_share = _windowed_share(run_scenario_threaded(spec).result)
        assert abs(live_share - sim_share) <= 0.075, (name, live_share, sim_share)
