"""Integration: the adaptive mechanism across network partitions.

Not a paper experiment, but a consistency property worth pinning: minBuff
information cannot cross a partition, so each side adapts to the minimum
it can see; after healing, the true group minimum re-propagates within a
sample period or two.
"""

from repro.core.config import AdaptiveConfig
from repro.gossip.config import SystemConfig
from repro.sim.faults import FaultScript
from repro.workload.cluster import SimCluster

TAU = 4.46


def build(seed=21):
    cluster = SimCluster(
        n_nodes=20,
        system=SystemConfig(buffer_capacity=80, dedup_capacity=2000, max_age=12),
        protocol="adaptive",
        adaptive=AdaptiveConfig(age_critical=TAU, initial_rate=6.0),
        seed=seed,
    )
    cluster.add_senders([0, 10], rate_each=5.0)
    return cluster


def test_minbuff_respects_partition_boundaries():
    cluster = build()
    left = list(range(10))
    right = list(range(10, 20))
    # node 15 (right side) is constrained; partition before it can tell
    # the left side
    cluster.set_capacity(15, 20)
    cluster.apply_faults(FaultScript().partition(0.5, 60.0, [left, right]))
    cluster.run(until=50.0)
    # right side knows the constrained node...
    assert cluster.protocol_of(12).min_buff_estimate == 20
    # ...the left side cannot (information cannot cross the partition)
    assert cluster.protocol_of(2).min_buff_estimate == 80


def test_heal_propagates_true_minimum():
    cluster = build()
    left = list(range(10))
    right = list(range(10, 20))
    cluster.set_capacity(15, 20)
    cluster.apply_faults(FaultScript().partition(0.5, 60.0, [left, right]))
    cluster.run(until=120.0)  # healed at 60.5, plus sample periods
    for node_id in (0, 2, 7):
        assert cluster.protocol_of(node_id).min_buff_estimate == 20
