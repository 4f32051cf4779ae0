#!/usr/bin/env python3
"""The implementation half of the paper's methodology: real time, real
sockets, and a deliberately hostile network.

The paper validated its simulations with a Java prototype on 60 LAN
workstations — machines that dropped, delayed and occasionally
partitioned traffic. This example runs the *same protocol objects* on
the live host — every node on one event loop, which the cluster runs on
a background thread, each node with its own real UDP socket — while a
shared chaos rule set decides every send the way the simulator scripts
it: 5% Bernoulli datagram loss, jittered link latency, and (when run
long enough) a clean two-way partition that later heals. Declarative
scenarios lower the same way: ``python -m repro.experiments
run-scenario partition-heal --driver threaded``.

Run:  python examples/real_runtime.py        (takes ~6 seconds)
"""

import time

from repro import AdaptiveConfig, SystemConfig
from repro.runtime import ChaosRules, ThreadedCluster
from repro.sim.network import BernoulliLoss, UniformLatency

N = 12


def main(seconds: int = 6) -> None:
    # the rule set is shared by every node and mutable mid-run, from
    # this thread — exactly how scenario fault windows drive the host
    rules = ChaosRules(
        loss=BernoulliLoss(0.05),
        latency=UniformLatency(0.002, 0.02),
    )
    cluster = ThreadedCluster(
        n_nodes=N,
        system=SystemConfig(
            gossip_period=0.1, buffer_capacity=64, dedup_capacity=2000, max_age=15
        ),
        protocol="adaptive",
        adaptive=AdaptiveConfig(
            age_critical=4.46, initial_rate=40.0, sample_period=0.5
        ),
        transport="udp",
        chaos=rules,
        seed=1,
    )
    left, right = list(range(N // 2)), list(range(N // 2, N))

    cluster.start()
    print(f"{N} nodes gossiping over UDP localhost, period 100 ms;")
    print("chaos rules: 5% datagram loss, 2-20 ms link latency\n")

    def pump(label: str, duration: float) -> None:
        """Offer ~30 msg/s through node 0 while printing its view."""
        end = time.monotonic() + duration
        while time.monotonic() < end:
            for _ in range(3):
                cluster.broadcast(0)
            time.sleep(0.1)
        p0 = cluster.protocol_of(0)
        print(f"[{label:<11}] node0: minBuff={p0.min_buff_estimate:>3}"
              f"  allowed={p0.allowed_rate:6.1f} msg/s"
              f"  delivered={p0.stats.events_delivered}")

    try:
        third = max(1.0, seconds / 3)
        pump("lossy LAN", third)
        if seconds >= 3:
            rules.partition([left, right])
            print(f"-- partition: {left} | {right}")
            pump("partitioned", third)
            rules.heal()
            print("-- healed")
            pump("healed", third)
    finally:
        cluster.stop()

    received = [cluster.protocol_of(n).stats.events_delivered for n in range(N)]
    stats = rules.stats
    print(f"\nevents delivered per node: min={min(received)} max={max(received)}")
    print(f"chaos rules: {stats.sent} datagrams passed, {stats.dropped} lost, "
          f"{stats.blocked} blocked by the partition, {stats.delayed} delayed")
    print("Same protocol code as the simulator — only the driver (and its "
          "weather) changed.")


if __name__ == "__main__":
    main()
