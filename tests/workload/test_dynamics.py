"""Tests for scripted resource dynamics."""

import pytest

from repro.gossip.config import SystemConfig
from repro.workload.cluster import SimCluster
from repro.workload.dynamics import CapacityChange, OfferedRateChange, ResourceScript


def test_change_validation():
    with pytest.raises(ValueError):
        CapacityChange(-1.0, (1,), 10)
    with pytest.raises(ValueError):
        CapacityChange(1.0, (), 10)
    with pytest.raises(ValueError):
        CapacityChange(1.0, (1,), 0)
    with pytest.raises(ValueError):
        OfferedRateChange(1.0, (1,), 0)
    with pytest.raises(ValueError):
        OfferedRateChange(-1.0, (1,), 5.0)


def test_builder():
    script = (
        ResourceScript()
        .set_capacity(10.0, [1, 2], 45)
        .set_offered_rate(20.0, [0], 5.0)
    )
    assert len(script) == 2


def test_capacity_change_applies_at_time():
    system = SystemConfig(buffer_capacity=90, dedup_capacity=500)
    cluster = SimCluster(n_nodes=4, system=system)
    cluster.apply_faults(resources=ResourceScript().set_capacity(5.0, [1, 2], 45))
    cluster.run(until=4.0)
    assert cluster.protocol_of(1).buffer_capacity == 90
    cluster.run(until=6.0)
    assert cluster.protocol_of(1).buffer_capacity == 45
    assert cluster.protocol_of(2).buffer_capacity == 45
    assert cluster.protocol_of(0).buffer_capacity == 90


def test_rate_change_applies_to_senders():
    system = SystemConfig(buffer_capacity=90, dedup_capacity=500)
    cluster = SimCluster(n_nodes=4, system=system)
    cluster.add_sender(0, rate=1.0)
    cluster.apply_faults(resources=ResourceScript().set_offered_rate(5.0, [0], 30.0))
    cluster.run(until=10.0)
    before = cluster.metrics.offered.count(0, 5)
    after = cluster.metrics.offered.count(5, 10)
    assert after > before * 5


def test_missing_nodes_ignored():
    system = SystemConfig(buffer_capacity=90, dedup_capacity=500)
    cluster = SimCluster(n_nodes=4, system=system)
    script = (
        ResourceScript()
        .set_capacity(1.0, [99], 45)
        .set_offered_rate(1.0, [98], 3.0)
    )
    cluster.apply_faults(resources=script)
    cluster.run(until=2.0)  # must not raise
