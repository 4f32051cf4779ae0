"""Boundary tracing, installed from the ledger's own files.

``TARGETS`` is a data table of ``(span name, dotted target)`` entry
points; the span name's prefix is the layer (the module name under
``repro``). :class:`Tracer` wraps each target in place, records one
span per call — name, start, end, parent — in memory, and writes them
as JSONL only when asked. A layer's *self time* is its spans' duration
minus the part their child spans cover, so every traced second is
attributed to exactly one span and the root's own self time is the
explicit ``other`` remainder.

A target that no longer resolves is listed in ``Tracer.unresolved`` and
skipped: a later refactor must never be rejected because a wrapper lost
its method. Its metrics then read as missing, not as zero work.

Self times include the wrappers' own cost (two clock reads and five
appends per span, charged to the parent for the part outside the
child's interval); ``trace.overhead_ratio`` says how much that is per
workload. Counts and fingerprints are never moved by tracing — the
selfcheck proves it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import threading
import time
from array import array
from collections import deque
from contextlib import contextmanager
from types import FunctionType, ModuleType

ROOT = "workload.rep"

# (span name, dotted target). Private names are best effort by design.
TARGETS: tuple[tuple[str, str], ...] = (
    ("experiments.harness.build_cluster", "repro.experiments.harness.build_cluster"),
    ("metrics.delivery.analyze_delivery", "repro.metrics.delivery.analyze_delivery"),
    # per-node lane
    ("sim.engine.run", "repro.sim.engine.Simulator.run"),
    ("workload.cluster.on_round", "repro.workload.cluster.ClusterNode._on_round_batched"),
    ("workload.cluster.on_message", "repro.workload.cluster.ClusterNode._on_message_batch"),
    (
        "workload.cluster.on_message_push_only",
        "repro.workload.cluster.ClusterNode._on_message_batch_push_only",
    ),
    ("sim.network.send", "repro.sim.network.Network.send"),
    ("sim.network.multicast", "repro.sim.network.Network.multicast"),
    ("sim.network.deliver_batch", "repro.sim.network.Network._deliver_batch"),
    ("sim.network.flush_pending", "repro.sim.network.Network._flush_pending"),
    ("gossip.lpbcast.on_round_batch", "repro.gossip.lpbcast.LpbcastProtocol.on_round_batch"),
    ("gossip.lpbcast.on_receive_batch", "repro.gossip.lpbcast.LpbcastProtocol.on_receive_batch"),
    ("gossip.buffer.stage", "repro.gossip.buffer.EventBuffer.stage"),
    ("gossip.buffer.add", "repro.gossip.buffer.EventBuffer.add"),
    ("gossip.buffer.evict_overflow", "repro.gossip.buffer.EventBuffer.evict_overflow"),
    ("gossip.buffer.sync_ages", "repro.gossip.buffer.EventBuffer.sync_ages"),
    ("gossip.buffer.drop_aged_out", "repro.gossip.buffer.EventBuffer.drop_aged_out"),
    ("gossip.buffer.advance_round", "repro.gossip.buffer.EventBuffer.advance_round"),
    ("gossip.buffer.snapshot_columns", "repro.gossip.buffer.EventBuffer.snapshot_columns"),
    ("core.machinery.round_tick", "repro.core.machinery.AdaptiveMachinery.round_tick"),
    ("core.machinery.header", "repro.core.machinery.AdaptiveMachinery.header"),
    ("core.machinery.on_header", "repro.core.machinery.AdaptiveMachinery.on_header"),
    ("core.machinery.observe_buffer", "repro.core.machinery.AdaptiveMachinery.observe_buffer"),
    ("core.machinery.try_admit", "repro.core.machinery.AdaptiveMachinery.try_admit"),
    ("membership.views.sample_targets", "repro.membership.views.PartialViewMembership.sample_targets"),
    ("membership.views.on_gossip_emit", "repro.membership.views.PartialViewMembership.on_gossip_emit"),
    (
        "membership.views.on_gossip_receive",
        "repro.membership.views.PartialViewMembership.on_gossip_receive",
    ),
    ("metrics.collector.on_deliver", "repro.metrics.collector.MetricsCollector.on_deliver"),
    ("metrics.collector.on_drop", "repro.metrics.collector.MetricsCollector.on_drop"),
    ("metrics.collector.on_admitted", "repro.metrics.collector.MetricsCollector.on_admitted"),
    ("metrics.collector.sample_gauge", "repro.metrics.collector.MetricsCollector.sample_gauge"),
    ("metrics.collector.on_deliver_bulk", "repro.metrics.collector.MetricsCollector.on_deliver_bulk"),
    # columnar lane: the executor phase methods the ROADMAP names
    ("sim.vector.on_round", "repro.sim.vector.VectorRoundExecutor._on_round"),
    ("sim.vector.age_out", "repro.sim.vector.VectorRoundExecutor._age_out"),
    ("sim.vector.sample_rows", "repro.sim.vector.VectorRoundExecutor._sample_rows"),
    ("sim.vector.chaos_filter", "repro.sim.vector.VectorRoundExecutor._chaos_filter"),
    ("sim.vector.fold_instant", "repro.sim.vector.VectorRoundExecutor._fold_instant"),
    ("sim.vector.fold_batched", "repro.sim.vector.VectorRoundExecutor._fold_batched"),
    ("sim.vector.fold_sequential", "repro.sim.vector.VectorRoundExecutor._fold_sequential"),
    # live drivers (in-process only: spawned workers are not wrapped)
    ("runtime.codec.encode", "repro.runtime.codec.BinaryCodec.encode"),
    ("runtime.codec.decode", "repro.runtime.codec.BinaryCodec.decode"),
    ("runtime.transport.chaos_plan", "repro.runtime.transport.ChaosRules.plan"),
    ("runtime.transport.memory_send", "repro.runtime.transport.InMemoryTransport.send"),
)


def _resolve(dotted: str):
    """``(owner, attribute name, plain function)`` for a dotted target."""
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:-1]:
            owner = getattr(owner, name)
        if isinstance(owner, ModuleType):
            fn = getattr(owner, parts[-1])
        else:
            fn = inspect.getattr_static(owner, parts[-1])
        if not isinstance(fn, FunctionType):
            raise AttributeError(f"{dotted} is not a plain function")
        return owner, parts[-1], fn
    raise ImportError(dotted)


class Tracer:
    """Wraps the target table and holds the spans of one repetition."""

    def __init__(self, targets=TARGETS, capture: int = 0) -> None:
        self.names = [ROOT] + [name for name, _ in targets]
        self._targets = tuple(targets)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers: list[tuple] = []
        self._installed: list[tuple] = []
        self.unresolved: list[str] = []
        self.root_wall = 0.0  # duration of the last closed root span
        # the last ``capture`` messages handed to BinaryCodec.encode, kept
        # for the layer replay (the latest: buffers are at steady state)
        self.encoded: deque = deque(maxlen=capture)

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def install(self) -> None:
        self.unresolved = []
        for index, (name, dotted) in enumerate(self._targets, start=1):
            try:
                owner, attr, fn = _resolve(dotted)
            except (ImportError, AttributeError):
                self.unresolved.append(name)
                continue
            self._installed.append((owner, attr, fn))
            capture = bool(self.encoded.maxlen) and name == "runtime.codec.encode"
            setattr(owner, attr, self._wrap(fn, index, capture))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._installed):
            setattr(owner, attr, fn)
        self._installed.clear()

    def _buffer(self) -> tuple:
        try:
            return self._local.buffer
        except AttributeError:
            # one span table per thread: index, start, end, parent, open stack
            buffer = (array("H"), array("d"), array("d"), array("l"), [])
            self._local.buffer = buffer
            with self._lock:
                self._buffers.append(buffer)
            return buffer

    def _wrap(self, fn, index: int, capture: bool):
        get_buffer = self._buffer
        clock = time.perf_counter
        encoded = self.encoded

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            names, starts, ends, parents, stack = get_buffer()
            span = len(names)
            names.append(index)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(span)
            if capture:
                encoded.append(args[1])
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                stack.pop()

        return traced

    # ------------------------------------------------------------------
    # one repetition
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Forget every span (between repetitions; no span may be open)."""
        with self._lock:
            for names, starts, ends, parents, stack in self._buffers:
                if stack:
                    raise RuntimeError("reset with an open span")
                del names[:], starts[:], ends[:], parents[:]

    @contextmanager
    def root(self):
        """The repetition's root span on this thread; sets ``root_wall``."""
        names, starts, ends, parents, stack = self._buffer()
        span = len(names)
        names.append(0)
        parents.append(-1)
        ends.append(0.0)
        stack.append(span)
        starts.append(time.perf_counter())
        try:
            yield
        finally:
            ends[span] = time.perf_counter()
            stack.pop()
            self.root_wall = ends[span] - starts[span]

    def summary(self) -> dict[str, tuple[int, float]]:
        """``span name -> (calls, self seconds)`` over every thread."""
        import numpy as np

        calls = np.zeros(len(self.names), dtype=np.int64)
        self_s = np.zeros(len(self.names))
        with self._lock:
            buffers = list(self._buffers)
        for names, starts, ends, parents, _stack in buffers:
            n = len(names)
            if not n:
                continue
            idx = np.frombuffer(names, dtype=np.uint16).astype(np.int64)
            duration = np.frombuffer(ends, dtype=np.float64) - np.frombuffer(
                starts, dtype=np.float64
            )
            parent = np.frombuffer(parents, dtype=np.dtype("l")).astype(np.int64)
            has_parent = parent >= 0
            covered = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=n)
            own = duration - covered
            calls += np.bincount(idx, minlength=len(self.names))
            self_s += np.bincount(idx, weights=own, minlength=len(self.names))
        return {
            name: (int(calls[i]), float(self_s[i])) for i, name in enumerate(self.names)
        }

    def span_count(self) -> int:
        with self._lock:
            return sum(len(buffer[0]) for buffer in self._buffers)

    def write_jsonl(self, path: str, run_id: str) -> None:
        """One JSON object per span: run, thread, id, parent, name, start, end."""
        with self._lock:
            buffers = list(self._buffers)
        with open(path, "w", encoding="utf-8") as out:
            for thread, (names, starts, ends, parents, _stack) in enumerate(buffers):
                for span in range(len(names)):
                    out.write(
                        json.dumps(
                            {
                                "run": run_id,
                                "thread": thread,
                                "id": span,
                                "parent": parents[span],
                                "name": self.names[names[span]],
                                "start": starts[span],
                                "end": ends[span],
                            }
                        )
                    )
                    out.write("\n")
