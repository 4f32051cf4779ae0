"""Discrete-event simulation substrate.

This package provides the deterministic event-driven kernel used by all
simulation experiments in the reproduction:

* :mod:`repro.sim.engine` — the event loop (:class:`Simulator`).
* :mod:`repro.sim.rng` — named, reproducible random streams.
* :mod:`repro.sim.network` — message transport with latency/loss models.
* :mod:`repro.sim.topology` — latency topologies (LAN, clustered, graph).
* :mod:`repro.sim.process` — base class for simulated processes.

The kernel is intentionally generic: nothing in here knows about gossip.
"""

from repro.sim.engine import Simulator, TimerHandle
from repro.sim.faults import FaultScript, LossWindow, PartitionWindow
from repro.sim.network import (
    BernoulliLoss,
    BurstLoss,
    ConstantLatency,
    LogNormalLatency,
    Network,
    NetworkStats,
    NoLoss,
    UniformLatency,
)
from repro.sim.process import SimProcess
from repro.sim.rng import RngRegistry, derive_seed
from repro.sim.topology import ClusteredTopology, GraphTopology, UniformTopology

__all__ = [
    "Simulator",
    "TimerHandle",
    "Network",
    "NetworkStats",
    "ConstantLatency",
    "UniformLatency",
    "LogNormalLatency",
    "NoLoss",
    "BernoulliLoss",
    "BurstLoss",
    "SimProcess",
    "RngRegistry",
    "derive_seed",
    "UniformTopology",
    "ClusteredTopology",
    "GraphTopology",
    "FaultScript",
    "LossWindow",
    "PartitionWindow",
]
