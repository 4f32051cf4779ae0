"""The one timed-condition lowering both live drivers share.

:func:`repro.scenarios.runner.lower_timed_conditions` is what
``run_scenario_threaded`` (target: the ``ThreadedCluster``) and every
process-driver ``ShardWorker`` (target: itself) compile their schedules
with. Run it here against a recording fake target for the whole
registry: each fault window and churn event of the spec must come out
as its open/close calls at the scaled times, in ``(time, seq)`` order,
and what the function reports as not lowered must be exactly what the
coverage audits report as skipped.
"""

import pytest

from repro.scenarios.registry import get_scenario, scenario_names
from repro.scenarios.runner import (
    lower_timed_conditions,
    process_coverage,
    smoke_profile,
    threaded_coverage,
)
from repro.sim.faults import (
    AsymmetricPartitionWindow,
    BandwidthCapWindow,
    CrashWindow,
    LinkLossWindow,
    LossWindow,
    PartitionWindow,
)
from repro.sim.network import BernoulliLoss
from repro.workload.dynamics import CapacityChange

SCALE = 0.1


class _Recorder:
    """Records ``(prefix + method name, args)`` for every call made on it."""

    def __init__(self, log: list, prefix: str = "") -> None:
        self._log = log
        self._prefix = prefix

    def __getattr__(self, name: str):
        return lambda *args: self._log.append((self._prefix + name, args))


class _FakeTarget(_Recorder):
    """The duck-typed live-driver surface: chaos rules plus node calls."""

    def __init__(self, log: list) -> None:
        super().__init__(log)
        self.chaos = _Recorder(log, "chaos.")


def _expected_calls(spec) -> list:
    """``(spec time, call, args)`` the spec's schedule must produce."""
    calls = []
    for change in spec.resources.changes:
        if isinstance(change, CapacityChange) and change.time != 0.0:
            calls += [
                (change.time, "set_capacity", (node, change.capacity))
                for node in change.nodes
            ]
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


@pytest.mark.parametrize("name", scenario_names())
def test_every_scheduled_condition_lowers_onto_the_target(name):
    spec = get_scenario(name, smoke_profile())
    log: list = []
    # no feeders: offered-rate changes then fire as no-ops, and every
    # call the schedule makes lands on the recording target
    actions, not_lowered = lower_timed_conditions(spec, _FakeTarget(log), SCALE, ())

    # (time, seq) order, every seq distinct
    keys = [(due, seq) for due, seq, _ in actions]
    assert keys == sorted(keys)
    assert len({seq for _, seq in keys}) == len(keys)

    # fire the schedule, stamping each recorded call with its due time
    fired = []
    for due, _, thunk in actions:
        before = len(log)
        thunk()
        fired += [(due, call, args) for call, args in log[before:]]
    expected = [
        (time * SCALE, call, args) for time, call, args in _expected_calls(spec)
    ]

    def key(entry):
        return (entry[0], entry[1], repr(entry[2]))

    assert sorted(fired, key=key) == sorted(expected, key=key)
    # firing in schedule order means the target saw time go forward
    assert [due for due, _, _ in fired] == sorted(due for due, _, _ in fired)

    # what was not lowered is exactly what the audits report as skipped
    _, threaded_skipped = threaded_coverage(spec)
    _, process_skipped = process_coverage(spec)
    assert not_lowered == []
    assert threaded_skipped == process_skipped == ()

