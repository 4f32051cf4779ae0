"""The one timed-condition lowering every driver shares.

:func:`repro.scenarios.spec.lower_timed_conditions` is what
``SimCluster.apply_faults`` (rules: the ``Network``; target: the
cluster) and ``ThreadedCluster.from_scenario`` (rules: the
``ChaosRules``; target: the cluster, whole or one worker's shard)
compile their schedules with. Run it here against recording fakes for
the whole registry: each resource change, fault window and churn event
of the spec must come out as its calls at its spec times, in
``(time, seq)`` order, and what the function reports as not lowered
must be exactly what the coverage audit reports as skipped.
"""

from dataclasses import dataclass

import pytest

from repro.gossip.config import SystemConfig
from repro.membership.churn import ChurnScript
from repro.runtime.cluster import ThreadedCluster
from repro.scenarios.registry import get_scenario, scenario_names
from repro.scenarios.runner import live_coverage, smoke_profile
from repro.scenarios.spec import ScenarioSpec, SenderSpec, lower_timed_conditions
from repro.sim.faults import (
    AsymmetricPartitionWindow,
    BandwidthCapWindow,
    CrashWindow,
    FaultScript,
    LinkLossWindow,
    LossWindow,
    PartitionWindow,
)
from repro.sim.network import BernoulliLoss
from repro.workload.cluster import SimCluster
from repro.workload.dynamics import CapacityChange, ResourceScript


class _Recorder:
    """Records ``(prefix + method name, args)`` for every call made on it."""

    def __init__(self, log: list, prefix: str = "") -> None:
        self._log = log
        self._prefix = prefix

    def __getattr__(self, name: str):
        return lambda *args: self._log.append((self._prefix + name, args))


def _lower(spec, log: list):
    """Lower ``spec`` onto a recording rule set and a recording target."""
    return lower_timed_conditions(
        _Recorder(log, "chaos."),
        _Recorder(log),
        spec.faults,
        spec.churn,
        spec.resources,
        spec.baseline_loss,
    )


def _expected_calls(spec) -> list:
    """``(spec time, call, args)`` the spec's schedule must produce."""
    calls = []
    for change in spec.resources.changes:
        if isinstance(change, CapacityChange):
            call, value = "set_capacity", change.capacity
        else:
            call, value = "set_offered_rate", change.rate
        calls += [(change.time, call, (node, value)) for node in change.nodes]
    for f in spec.faults.faults:
        if isinstance(f, CrashWindow):
            calls += [(f.time, "crash_node", (node,)) for node in f.nodes]
            if f.restart_at is not None:
                calls += [(f.restart_at, "join_node", (node,)) for node in f.nodes]
            continue
        end = f.time + f.duration
        if isinstance(f, LossWindow):
            calls.append((f.time, "chaos.set_loss", (BernoulliLoss(f.p),)))
            calls.append((end, "chaos.set_loss", (spec.baseline_loss,)))
        elif isinstance(f, LinkLossWindow):
            calls.append((f.time, "chaos.set_link_loss", (f.matrix,)))
            calls.append((end, "chaos.set_link_loss", (None,)))
        elif isinstance(f, PartitionWindow):
            groups = [list(g) for g in f.groups]
            calls.append((f.time, "chaos.partition", (groups,)))
            calls.append((end, "chaos.heal", ()))
        elif isinstance(f, AsymmetricPartitionWindow):
            groups = [list(g) for g in f.groups]
            calls.append((f.time, "chaos.partition_oneway", (groups, f.blocked)))
            calls.append((end, "chaos.heal_oneway", ()))
        elif isinstance(f, BandwidthCapWindow):
            calls.append((f.time, "chaos.set_bandwidth_cap", (f.rate,)))
            calls.append((end, "chaos.set_bandwidth_cap", (None,)))
    for event in spec.churn.events:
        calls.append((event.time, f"{event.action}_node", (event.node,)))
    return calls


def _fire(actions, log: list) -> list:
    """Fire every action in order; ``(due, call, args)`` per recorded call."""
    fired = []
    for due, _, thunk in actions:
        before = len(log)
        thunk()
        fired += [(due, call, args) for call, args in log[before:]]
    return fired


@pytest.mark.parametrize("name", scenario_names())
def test_every_scheduled_condition_lowers_onto_the_target(name):
    spec = get_scenario(name, smoke_profile())
    log: list = []
    actions, not_lowered = _lower(spec, log)

    # (time, seq) order, every seq distinct
    keys = [(due, seq) for due, seq, _ in actions]
    assert keys == sorted(keys)
    assert len({seq for _, seq in keys}) == len(keys)

    fired = _fire(actions, log)
    # spec seconds on every driver: the live host paces its waits, not
    # the schedule
    expected = _expected_calls(spec)

    def key(entry):
        return (entry[0], entry[1], repr(entry[2]))

    assert sorted(fired, key=key) == sorted(expected, key=key)
    # firing in schedule order means the target saw time go forward
    assert [due for due, _, _ in fired] == sorted(due for due, _, _ in fired)

    # what was not lowered is exactly what the audit reports as skipped
    assert not_lowered == []
    assert live_coverage(spec)[1] == ()


def _back_to_back_spec() -> ScenarioSpec:
    # two loss windows touching at t=10, the later one listed first, plus
    # a capacity change and a churn crash at that same instant
    return ScenarioSpec(
        name="back-to-back",
        n_nodes=8,
        system=SystemConfig(buffer_capacity=30, dedup_capacity=300),
        senders=(SenderSpec(0, 5.0),),
        faults=FaultScript().loss(10.0, 5.0, 0.5).loss(5.0, 5.0, 0.2),
        resources=ResourceScript().set_capacity(10.0, [7], 9),
        churn=ChurnScript().crash(10.0, 6),
        duration=30.0,
        warmup=2.0,
        drain=2.0,
    )


def test_back_to_back_windows_close_before_the_next_opens():
    log: list = []
    actions, _ = _lower(_back_to_back_spec(), log)
    at_ten = [(call, args) for due, call, args in _fire(actions, log) if due == 10.0]
    assert at_ten == [
        ("set_capacity", (7, 9)),
        ("chaos.set_loss", (None,)),  # the earlier window closes...
        ("chaos.set_loss", (BernoulliLoss(0.5),)),  # ...then the later opens
        ("crash_node", (6,)),
    ]
    # a node action carries its method's name into a live failure report
    named = [fire.__name__ for due, _, fire in actions if due == 10.0]
    assert (named[0], named[-1]) == ("set_capacity", "crash_node")


def test_back_to_back_windows_leave_the_later_loss_in_force_on_every_driver():
    spec = _back_to_back_spec()
    # live: the host's own schedule, fired up to the instant in order
    # (spec time 10 s, whatever the gossip period) on the idle cluster
    live = ThreadedCluster.from_scenario(spec, gossip_period=0.1)
    try:
        for due, _, fire in live.actions:
            if due <= 10.0:
                fire()
        assert live.chaos.loss == BernoulliLoss(0.5)
    finally:
        live.stop()
    # sim: the same schedule on the heap
    sim = SimCluster.from_scenario(spec)
    sim.run(until=10.5)
    assert sim.network.rules.loss == BernoulliLoss(0.5)


@dataclass(frozen=True)
class _AlienWindow:  # a fault kind no lowering knows, shaped like a crash
    time: float = 1.0
    nodes: tuple = (3,)


def test_unknown_fault_kind_is_refused_by_the_sim_before_anything_is_scheduled():
    cluster = SimCluster(n_nodes=8, seed=1)
    pending = cluster.sim.pending_events
    with pytest.raises(TypeError, match="_AlienWindow"):
        cluster.apply_faults(FaultScript([LossWindow(2.0, 1.0, 0.5), _AlienWindow()]))
    assert cluster.sim.pending_events == pending
    # ...while the live drivers report it as skipped
    _, not_lowered = lower_timed_conditions(None, None, FaultScript([_AlienWindow()]))
    assert not_lowered == [_AlienWindow()]
