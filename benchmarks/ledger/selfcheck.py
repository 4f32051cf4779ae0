"""Output checks the one command runs on every workload.

Each check returns a list of failure sentences (empty when it holds);
``run.py`` prefixes them with the workload's name, reports
``correct: false`` and exits nonzero. The per-repetition invariants
(vector lane engaged, live ``skipped_count == 0``, ``decode_errors ==
0``, ``delivered_min > 0``) are collected by :mod:`measure` where the
run's objects are still at hand; the checks here compare repetitions
with each other.
"""

from __future__ import annotations

import repro.experiments.harness as harness

import workloads


def same_fingerprints(reps: list[dict], what: str) -> list[str]:
    """Every repetition of one seed must produce the same exact counts.

    Between untraced repetitions this is the simulator's determinism;
    between an untraced and a traced one it is the promise that
    instrumentation never moves a fingerprint.
    """
    prints = {rep["fingerprint"] for rep in reps if "fingerprint" in rep}
    if len(prints) > 1:
        return [f"{what} fingerprints differ: {sorted(prints)}"]
    return []


def _signature(spec) -> tuple:
    """Everything the harness reports about a run, as one comparable value."""
    result = harness.run_once(spec)
    return (
        result.delivery,
        result.input_rate,
        result.output_rate,
        result.drops_overflow,
        result.drops_age_out,
        result.gossip_redundancy,
        result.net_lost,
        result.net_partitioned,
        result.net_link_lost,
    )


def vector_twin(name: str, seed: int) -> list[str]:
    """A 1/20-scale twin of a ``vector-*`` workload must engage the
    columnar lane and match the per-node batched reference exactly."""
    spec = workloads.build(name, seed, workloads.SMOKE_SCALE)
    reason = harness.vector_fallback_reason(spec)
    if reason is not None:
        return [f"1/20-scale twin fell back off the vector lane: {reason}"]
    if repr(_signature(spec)) != repr(_signature(workloads.batched_twin(name, seed))):
        return ["1/20-scale twin differs between dispatch='vector' and 'batched'"]
    return []


def self_times_add_up(self_seconds: dict[str, float], root_wall: float) -> list[str]:
    """Per-span self times, the root's remainder included, must sum to
    the root span's duration: every traced second has exactly one owner."""
    total = sum(self_seconds.values())
    if abs(total - root_wall) > 1e-6 * max(1.0, root_wall):
        return [f"self times sum to {total!r} s, traced wall is {root_wall!r} s"]
    return []
