"""The ledger's six workloads, as data.

Every spec is built here from the public vocabulary (``RunSpec``,
``ScenarioSpec``, ``repro.scenarios.conditions``, ``FaultScript``) with
event times given as fractions of the duration. Nothing is looked up
from ``scenarios/library.py``: later PRs may retune the library, and a
benchmark whose inputs move with the code it measures measures nothing.

``build(name, seed, scale)`` returns what one *repetition* runs — a
``RunSpec`` for the four simulated workloads, a ``ScenarioSpec`` for
the two live ones. A benchmark run repeats that repetition, with the
same seed, until its ``--seconds`` are used up. ``scale`` shrinks the
work (virtual duration on the per-node lane, group size on the columnar
lane, paced seconds on the live drivers); 1.0 is the benchmark,
``SMOKE_SCALE`` the twin the smoke test and the selfcheck's
vector-vs-batched comparison run.
"""

from __future__ import annotations

import dataclasses

from repro.experiments.harness import RunSpec, spec_for_profile, spec_for_scenario
from repro.experiments.profiles import PAPER
from repro.gossip.config import SystemConfig
from repro.scenarios.conditions import CorrelatedLoss, CrashGroup, Partition, RollingChurn
from repro.scenarios.spec import FixedLinks, ScenarioSpec, SenderSpec, WanClusters
from repro.sim.faults import FaultScript
from repro.sim.network import BernoulliLoss

SMOKE_SCALE = 0.05

# The live drivers pace one spec second (the spec's gossip period is 1 s)
# per LIVE_GOSSIP_PERIOD wall seconds.
LIVE_GOSSIP_PERIOD = 0.1
LIVE_WORKERS = 2


def _scaled(value: float, scale: float, floor: float) -> float:
    return max(floor, value * scale)


def _pernode_adaptive(seed: int, scale: float) -> RunSpec:
    # 60 nodes, 10 senders, 160 msg/s offered against ~81 msg/s of
    # capacity at buffer 60 (PAPER.max_rate_hints): about 2x overload.
    duration = _scaled(90.0, scale, 12.0)
    profile = dataclasses.replace(
        PAPER,
        seed=seed,
        duration=duration,
        warmup=duration * 0.4,
        drain=duration * 0.1,
    )
    return spec_for_profile(profile, "adaptive", buffer_capacity=60)


def _pernode_chaos(seed: int, scale: float) -> RunSpec:
    d = _scaled(150.0, scale, 20.0)
    n = 60
    senders = tuple(SenderSpec(node, 5.0, arrivals="poisson") for node in range(0, n, 6))
    scenario = ScenarioSpec(
        name="ledger-pernode-chaos",
        n_nodes=n,
        protocol="lpbcast",
        system=PAPER.system(30),
        membership="partial",
        view_size=15,
        topology=WanClusters(3),
        baseline_loss=BernoulliLoss(0.05),
        senders=senders,
        duration=d,
        warmup=0.1 * d,
        drain=0.1 * d,
        seed=seed,
    ).stressed(
        RollingChurn(
            start=0.15 * d,
            interval=0.04 * d,
            nodes=(1, 7, 13, 19, 25, 31, 37, 43, 49, 52),
            rejoin_after=0.05 * d,
        ),
        CorrelatedLoss(time=0.2 * d, duration=0.1 * d, p=0.5),
        Partition(time=0.4 * d, duration=0.1 * d),
        CrashGroup(time=0.6 * d, nodes=tuple(range(55, 60)), restart_after=0.1 * d),
    )
    return spec_for_scenario(scenario)


def _vector_spec(seed: int, n: int, duration: float, faults=None, dispatch="vector") -> RunSpec:
    """The round-synchronous lossless lpbcast regime the columnar lane runs."""
    return RunSpec(
        protocol="lpbcast",
        system=SystemConfig(
            fanout=4,
            buffer_capacity=30,
            dedup_capacity=8 * n,
            max_age=8,
            round_jitter=0.0,
            round_phase=0.0,
        ),
        n_nodes=n,
        sender_ids=(0, n // 2),
        offered_load=1.0,
        duration=duration,
        warmup=0.25 * duration,
        drain=0.125 * duration,
        seed=seed,
        latency=FixedLinks(0.01),
        faults=faults,
        dispatch=dispatch,
        aggregate_metrics=True,
        sample_gauges=False,
    )


def _vector_lossless(seed: int, scale: float, dispatch: str = "vector") -> RunSpec:
    return _vector_spec(seed, max(200, int(20_000 * scale)), 40.0, dispatch=dispatch)


def _vector_chaos(seed: int, scale: float, dispatch: str = "vector") -> RunSpec:
    n = max(200, int(10_000 * scale))
    d = 80.0
    # 96 flaky directed links spread over the id space; overlapping the
    # Bernoulli burst they force the lane's sequential loss path
    links = {}
    for i in range(48):
        src, dst = (i * 197 + 3) % n, (i * 389 + 101) % n
        if src != dst:
            links[(src, dst)] = 0.6
            links[(dst, src)] = 0.6
    faults = FaultScript()
    faults.link_loss(0.10 * d, 0.20 * d, links)
    faults.loss(0.15 * d, 0.10 * d, 0.2)
    faults.partition(0.40 * d, 0.10 * d, [range(0, n // 2), range(n // 2, n)])
    # senders sit at 0 and n/2; the top quarter holds no sender
    faults.crash(0.60 * d, range(n - n // 4, n), restart_at=float(round(0.80 * d)))
    return _vector_spec(seed, n, d, faults=faults, dispatch=dispatch)


def _live(seed: int, scale: float) -> ScenarioSpec:
    duration = _scaled(40.0, scale, 8.0)
    return ScenarioSpec(
        name="ledger-live",
        n_nodes=48,
        protocol="lpbcast",
        system=SystemConfig(fanout=4, buffer_capacity=60),
        # 1% ambient loss puts the chaos decision on every datagram's
        # path, the layer the ROADMAP's live split names
        baseline_loss=BernoulliLoss(0.01),
        senders=tuple(SenderSpec(node, 5.0) for node in (0, 12, 24, 36)),
        duration=duration,
        warmup=0.2 * duration,
        drain=0.1 * duration,
        seed=seed,
    )


# name -> (kind, builder); BENCHMARK.json records why each one is here
WORKLOADS = {
    "pernode-adaptive": ("sim", _pernode_adaptive),
    "pernode-chaos": ("sim", _pernode_chaos),
    "vector-lossless": ("sim", _vector_lossless),
    "vector-chaos": ("sim", _vector_chaos),
    "live-threaded": ("live", _live),
    "live-process": ("live", _live),
}


def kind(name: str) -> str:
    return WORKLOADS[name][0]


def build(name: str, seed: int, scale: float = 1.0):
    """The spec one repetition of workload ``name`` runs."""
    return WORKLOADS[name][1](seed, scale)


def batched_twin(name: str, seed: int, scale: float = SMOKE_SCALE) -> RunSpec:
    """The same ``vector-*`` spec on the per-node batched reference lane."""
    return WORKLOADS[name][1](seed, scale, dispatch="batched")
