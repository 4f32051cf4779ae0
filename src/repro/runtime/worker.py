"""The asyncio shard worker of the multi-process UDP driver.

One worker process hosts a *shard* of a scenario's nodes on a single
asyncio event loop, each node bound to its own real UDP socket. The
parent (:class:`~repro.runtime.process_cluster.ProcessCluster`) speaks a
small control protocol over a :mod:`multiprocessing` pipe:

* ``("configure", WorkerConfig)`` — the scenario spec, this worker's
  node shard, and the full seeded port map. The worker binds every
  initial member's socket and replies ``("ready", id)`` — or
  ``("bind_failed", id, reason)`` when a port was taken between the
  parent's probe and our bind (the parent then re-derives a whole fresh
  map and respawns).
* ``("start",)`` — the start barrier; the worker stamps its t0 and runs
  the scenario for ``wall_seconds``.
* ``("result", WorkerReport)`` — sent back when the run completes: the
  picklable :class:`~repro.metrics.collector.MetricsCollector` shard,
  per-node delivery counts and the chaos statistics.

Fault parity mirrors the threaded driver exactly, lowered onto the
socket layer: every worker carries its own
:class:`~repro.runtime.transport.ChaosRules` (same drop/latency/
partition/one-way/link-loss/cap vocabularies, per-node seeded decision
RNGs via ``derive_seed(seed, "chaos", node)``), consulted on each
``sendto``; delays ride ``loop.call_later`` instead of a thread.
``CrashWindow``/``ChurnScript`` events stop and restart *real* nodes —
the owning worker tears the socket down (sends to it then vanish into
the void, true UDP semantics) and a restart rebinds the same mapped
port with a fresh protocol instance; every worker replicates the
directory join/leave so full-membership peer selection stays coherent
across processes.

Orphan safety: a watchdog task polls the control pipe — the parent
never sends mid-run, so a readable pipe means abort-or-EOF and the
worker exits promptly; pre-start ``recv`` raises ``EOFError`` if the
parent dies, with the same effect. No leaked processes or sockets.
"""

from __future__ import annotations

import asyncio
import dataclasses
import time
from dataclasses import dataclass
from random import Random
from typing import Any, Optional

from repro.driver import Driver
from repro.membership.full import FullMembershipView
from repro.membership.views import PartialViewMembership, ViewConfig
from repro.metrics.collector import MetricsCollector
from repro.runtime.codec import BinaryCodec
from repro.runtime.transport import ChaosRules, ChaosStats
from repro.sim.rng import RngRegistry, derive_seed
from repro.workload.dynamics import CapacityChange

__all__ = ["WorkerConfig", "WorkerReport", "ShardWorker", "worker_main"]


@dataclass(frozen=True)
class WorkerConfig:
    """Everything one shard worker needs, shipped over the control pipe."""

    worker_id: int
    n_workers: int
    spec: Any  # a picklable ScenarioSpec
    nodes: tuple  # identities this worker owns (including future joiners)
    port_map: dict  # node id -> (host, port), every identity in the run
    gossip_period: float  # wall seconds per round (sets the time scale)
    wall_seconds: float  # run length after the start barrier


@dataclass
class WorkerReport:
    """One shard's results, shipped back over the control pipe."""

    worker_id: int
    offers: int
    admitted: int
    delivered: dict  # node id -> events_delivered (this incarnation)
    duplicates: int
    decode_errors: int
    send_failures: int
    bind_errors: int
    metrics: MetricsCollector  # the shard's collector (parent merges)
    chaos: Optional[ChaosStats]


class _ShardHost(Driver):
    """Driver wiring (directory, metrics, protocol factory) for one shard.

    The directory spans the *whole* group — peer selection must see every
    member, not just the locally-hosted shard — while protocols are only
    instantiated for owned nodes. The execution substrate is the worker's
    event loop, so :meth:`run_for` has no meaning here.
    """

    def _default_bucket_width(self) -> float:
        return max(0.1, self.system.gossip_period)

    def run_for(self, duration: float) -> None:
        raise NotImplementedError("the shard worker's event loop drives this")


class _Receiver(asyncio.DatagramProtocol):
    """Datagram glue: hands received packets to the owning node."""

    def __init__(self, node: "_AsyncNode") -> None:
        self.node = node

    def connection_made(self, transport) -> None:
        self.node.transport = transport

    def datagram_received(self, data: bytes, addr) -> None:
        self.node.on_datagram(data)

    def error_received(self, exc) -> None:
        pass  # ICMP errors are UDP noise; gossip tolerates loss by design


class _AsyncNode:
    """One gossip node on the worker's event loop.

    The asyncio counterpart of :class:`~repro.runtime.node.RuntimeNode`:
    a round task fires ``on_round_batch`` every (jittered) period,
    received datagrams are folded into batched ``on_receive_batch``
    calls, and offers queue through the protocol's admission control
    with the same retry cadence. The protocol object is only ever
    touched from the loop, so no locks exist anywhere in a worker.
    """

    RECV_BATCH = 64  # packets folded per flush; more re-schedules the flush

    def __init__(self, worker: "ShardWorker", node_id, protocol) -> None:
        self.worker = worker
        self.node_id = node_id
        self.protocol = protocol
        self.transport = None
        self.alive = True
        self.chaos_rng = Random(derive_seed(worker.cfg.spec.seed, "chaos", node_id))
        self._inbox: list[bytes] = []
        self._flush_scheduled = False
        self._pending: list[Any] = []
        self._round_task: Optional[asyncio.Task] = None

    async def bind(self) -> None:
        """Bind this node's mapped UDP port (raises OSError if taken)."""
        addr = self.worker.addr_of[self.node_id]
        await self.worker.loop.create_datagram_endpoint(
            lambda: _Receiver(self), local_addr=addr
        )

    def start_tasks(self) -> None:
        if self._round_task is None and self.alive:
            self._round_task = self.worker.loop.create_task(self._round_loop())

    def stop(self) -> None:
        """Silence the node: cancel its round, close its socket. Idempotent."""
        if not self.alive:
            return
        self.alive = False
        if self._round_task is not None:
            self._round_task.cancel()
            self._round_task = None
        if self.transport is not None:
            self.transport.close()
        self._inbox.clear()
        self._pending.clear()

    # ------------------------------------------------------------------
    # application offers (admission on the loop, like the node thread)
    # ------------------------------------------------------------------
    def offer(self, payload: Any = None) -> None:
        self._pending.append(payload)
        self._retry_offers(self.worker.clock())

    def _retry_offers(self, now: float) -> None:
        while self._pending:
            event_id = self.protocol.try_broadcast(self._pending[0], now)
            if event_id is None:
                return  # admission said not yet; retried next wakeup
            self._pending.pop(0)
            self.worker.admitted += 1
            self.worker.host.metrics.on_admitted(self.node_id, event_id, now)

    # ------------------------------------------------------------------
    # receive path
    # ------------------------------------------------------------------
    def on_datagram(self, data: bytes) -> None:
        if not self.alive:
            return
        self._inbox.append(data)
        if not self._flush_scheduled:
            self._flush_scheduled = True
            self.worker.loop.call_soon(self._flush)

    def _flush(self) -> None:
        self._flush_scheduled = False
        if not self.alive:
            self._inbox.clear()
            return
        batch = self._inbox[: self.RECV_BATCH]
        del self._inbox[: self.RECV_BATCH]
        if self._inbox and not self._flush_scheduled:
            self._flush_scheduled = True
            self.worker.loop.call_soon(self._flush)
        messages = []
        for data in batch:
            try:
                messages.append(self.worker.codec.decode(data))
            except Exception:  # malformed input must never kill the node
                self.worker.decode_errors += 1
        if not messages:
            return
        now = self.worker.clock()
        for dest, reply in self.protocol.on_receive_batch(messages, now):
            self._send_raw(dest, self.worker.codec.encode(reply))

    # ------------------------------------------------------------------
    # round firing
    # ------------------------------------------------------------------
    async def _round_loop(self) -> None:
        worker = self.worker
        rng = self.protocol.rng
        period = worker.gossip_period
        jitter = worker.system.round_jitter
        phase = worker.system.round_phase
        if phase is None:
            phase = rng.uniform(0, period)
        next_round = worker.clock() + phase
        while self.alive:
            now = worker.clock()
            if now < next_round:
                self._retry_offers(now)
                await asyncio.sleep(min(next_round - now, 0.05))
                continue
            self._retry_offers(now)
            for dests, message in self.protocol.on_round_batch(now):
                data = worker.codec.encode(message)
                for dest in dests:
                    self._send_raw(dest, data)
            p = period
            if jitter:
                p *= rng.uniform(1 - jitter, 1 + jitter)
            next_round = now + p

    # ------------------------------------------------------------------
    # send path: the chaos rules live exactly here, at the socket
    # ------------------------------------------------------------------
    def _send_raw(self, dest, data: bytes) -> None:
        worker = self.worker
        addr = worker.addr_of.get(dest)
        if addr is None:
            worker.send_failures += 1
            return
        rules = worker.chaos
        if rules is not None:
            verdict = rules.plan(self.node_id, addr, self.chaos_rng)
            if verdict is None:
                return  # eaten: indistinguishable from wire loss
            if verdict > 0.0:
                worker.loop.call_later(verdict, self._send_late, addr, data)
                return
        self._wire(addr, data)
        if rules is not None:
            rules.note_sent()

    def _send_late(self, addr, data: bytes) -> None:
        # a delayed datagram racing node shutdown is dropped, exactly
        # like the threaded DelayLine (and the real wire)
        if not self.alive or self.transport is None or self.transport.is_closing():
            return
        self._wire(addr, data)
        if self.worker.chaos is not None:
            self.worker.chaos.note_sent()

    def _wire(self, addr, data: bytes) -> None:
        transport = self.transport
        if transport is None or transport.is_closing():
            return
        try:
            transport.sendto(data, addr)
        except OSError:
            self.worker.send_failures += 1


class ShardWorker:
    """One worker process's state: a shard of nodes plus the schedules."""

    LEAVE_GRACE_SLACK = 0.05  # on top of one jittered round, like POLL_CAP

    def __init__(self, cfg: WorkerConfig) -> None:
        spec = cfg.spec
        self.cfg = cfg
        self.gossip_period = cfg.gossip_period
        self.scale = cfg.gossip_period / spec.system.gossip_period
        self.system = dataclasses.replace(spec.system, gossip_period=cfg.gossip_period)
        self.host = _ShardHost(
            spec.n_nodes,
            system=self.system,
            protocol=spec.protocol,
            adaptive=spec.adaptive,
            rate_limit=spec.rate_limit,
            aggregate=spec.aggregate,
        )
        self.codec = BinaryCodec()
        self.rngs = RngRegistry(spec.seed)
        self.addr_of = {node: tuple(addr) for node, addr in cfg.port_map.items()}
        self._own = set(cfg.nodes)
        self.hosted: dict[Any, _AsyncNode] = {}
        self.feeders: list = []
        self.actions: list = []
        self.offers = 0
        self.admitted = 0
        self.decode_errors = 0
        self.send_failures = 0
        self.bind_errors = 0
        self.started = False
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        self._tasks: list[asyncio.Task] = []
        self._t0: Optional[float] = None

        self.chaos: Optional[ChaosRules] = None
        if spec.wire_conditions:
            rules = ChaosRules(
                loss=spec.baseline_loss,
                latency=spec.build_latency(),
                latency_scale=self.scale,
            )
            node_by_addr = {addr: node for node, addr in self.addr_of.items()}
            rules.bind_address_map(lambda addr: node_by_addr.get(addr, addr))
            # cap windows bucket per *spec* second, the simulator's
            # granularity (see ThreadedCluster.from_scenario)
            rules.bind_clock(lambda: self.clock() / self.scale)
            self.chaos = rules

    def clock(self) -> float:
        """Run-relative wall clock; 0 until the start barrier."""
        return 0.0 if self._t0 is None else time.monotonic() - self._t0

    # ------------------------------------------------------------------
    # construction (pre-start, on the loop)
    # ------------------------------------------------------------------
    async def bind_initial(self) -> None:
        """Bind and build every initially-alive owned node, then lower
        the t=0 conditions and compile the schedules. OSError propagates
        to the caller (a bind race the parent resolves by re-mapping)."""
        self.loop = asyncio.get_running_loop()
        spec = self.cfg.spec
        for node_id in sorted(self._own):
            if 0 <= node_id < spec.n_nodes:  # later joiners spawn on cue
                await self._spawn_node(node_id)
        # conditions present from t=0 apply before the run, directly on
        # the still-idle protocols — the complement of the timed actions,
        # mirroring ThreadedCluster.from_scenario exactly
        for change in spec.resources.changes:
            if change.time == 0.0 and isinstance(change, CapacityChange):
                for node in change.nodes:
                    if node in self.hosted:
                        self.hosted[node].protocol.set_buffer_capacity(
                            change.capacity, 0.0
                        )
        # lazy: keeps import light
        from repro.scenarios.runner import _Feeder, lower_timed_conditions

        self.feeders = [
            _Feeder(sender, self.scale, spec.seed)
            for sender in spec.senders
            if sender.node in self._own
        ]
        # the same schedule on every worker: chaos windows mutate this
        # worker's rule-set copy, crash/churn replicate the directory
        # change, resource changes reach owned protocols and feeders only
        self.actions, _ = lower_timed_conditions(spec, self, self.scale, self.feeders)

    async def _spawn_node(self, node_id) -> _AsyncNode:
        membership = self._make_membership(node_id)
        protocol = self.host._build_protocol(
            node_id, membership, self.rngs.stream("protocol", node_id), self.clock()
        )
        node = _AsyncNode(self, node_id, protocol)
        await node.bind()
        self.hosted[node_id] = node
        if self.started:
            node.start_tasks()
        return node

    def _make_membership(self, node_id):
        spec = self.cfg.spec
        if spec.membership == "full":
            return FullMembershipView(self.host.directory, node_id)
        rng = self.rngs.stream("bootstrap_view", node_id)
        others = [n for n in self.host.directory.alive() if n != node_id]
        cfg = (
            ViewConfig(view_size=spec.view_size)
            if spec.view_size is not None
            else ViewConfig()
        )
        bootstrap = rng.sample(others, min(len(others), cfg.view_size))
        return PartialViewMembership(node_id, cfg, initial_view=bootstrap)

    # ------------------------------------------------------------------
    # the live-driver target surface the shared condition lowering acts
    # on: ``chaos`` plus set_capacity / crash_node / leave_node /
    # join_node. Every worker replicates the directory; only the owner
    # touches protocols and sockets.
    # ------------------------------------------------------------------
    def set_capacity(self, node, capacity: int) -> None:
        """Resize an owned, live node's buffer; other nodes are not ours."""
        hosted = self.hosted.get(node)
        if hosted is not None and hosted.alive:
            hosted.protocol.set_buffer_capacity(capacity, self.clock())

    def crash_node(self, node) -> None:
        """Silent failure: directory leave everywhere, socket down here."""
        if not self.host.directory.is_alive(node):
            return
        self.host.directory.leave(node)
        hosted = self.hosted.get(node)
        if hosted is not None:
            hosted.stop()

    def leave_node(self, node) -> None:
        """Graceful departure: unsubscribe rides one more round out."""
        if not self.host.directory.is_alive(node):
            return
        self.host.directory.leave(node)
        hosted = self.hosted.get(node)
        if hosted is None or not hosted.alive:
            return
        unsubscribe = getattr(hosted.protocol.membership, "unsubscribe", None)
        if callable(unsubscribe):
            unsubscribe()
            grace = self.gossip_period * 1.2 + self.LEAVE_GRACE_SLACK
            self.loop.call_later(grace, hosted.stop)
        else:  # full membership: the directory itself is the announcement
            hosted.stop()

    def join_node(self, node) -> None:
        """(Re)join: fresh protocol, old identity, same mapped port."""
        hosted = self.hosted.get(node)
        if self.host.directory.is_alive(node) and (
            node not in self._own or (hosted is not None and hosted.alive)
        ):
            return  # already a live member
        self.host.directory.join(node)
        if node not in self._own:
            return
        if hosted is not None and hosted.alive:
            # a pending leave-grace timer is superseded by the rejoin
            hosted.stop()
        self.loop.create_task(self._respawn(node))

    async def _respawn(self, node_id) -> None:
        # the old asyncio transport closes asynchronously, so the port
        # may take a beat to free — retry briefly before giving up
        for _ in range(20):
            try:
                await self._spawn_node(node_id)
                return
            except OSError:
                await asyncio.sleep(0.05)
        self.bind_errors += 1

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    def start(self) -> None:
        self._t0 = time.monotonic()
        self.started = True
        for node in self.hosted.values():
            node.start_tasks()
        self._tasks.append(self.loop.create_task(self._run_actions()))
        for feeder in self.feeders:
            self._tasks.append(self.loop.create_task(self._run_feeder(feeder)))

    async def _run_actions(self) -> None:
        for due, _, fire in self.actions:
            delay = due - self.clock()
            if delay > 0:
                await asyncio.sleep(delay)
            fire()

    async def _run_feeder(self, feeder) -> None:
        while True:
            now = self.clock()
            if feeder.stop is not None and feeder.next >= feeder.stop:
                return
            if feeder.next <= now:
                hosted = self.hosted.get(feeder.node)
                if hosted is not None and hosted.alive:
                    hosted.offer(None)
                self.offers += 1
                feeder.advance()
                continue
            await asyncio.sleep(min(feeder.next - now, 0.05))

    def close(self) -> None:
        for task in self._tasks:
            task.cancel()
        self._tasks.clear()
        for node in self.hosted.values():
            node.stop()
        if self.chaos is not None:
            self.chaos.close()

    def report(self) -> WorkerReport:
        delivered = {
            node_id: node.protocol.stats.events_delivered
            for node_id, node in self.hosted.items()
        }
        duplicates = sum(
            getattr(node.protocol.stats, "duplicates_seen", 0)
            for node in self.hosted.values()
        )
        return WorkerReport(
            worker_id=self.cfg.worker_id,
            offers=self.offers,
            admitted=self.admitted,
            delivered=delivered,
            duplicates=duplicates,
            decode_errors=self.decode_errors,
            send_failures=self.send_failures,
            bind_errors=self.bind_errors,
            metrics=self.host.metrics,
            chaos=None if self.chaos is None else self.chaos.stats,
        )


# ----------------------------------------------------------------------
# the process entry point and its control-pipe plumbing
# ----------------------------------------------------------------------
def _safe_send(conn, msg) -> bool:
    try:
        conn.send(msg)
        return True
    except (OSError, BrokenPipeError, ValueError):
        return False  # parent gone; nothing left to report to


async def _async_recv(conn):
    """Await one control message without blocking the loop.

    Raises EOFError when the parent's end closes — the orphan signal.
    """
    while True:
        try:
            if conn.poll(0):
                return conn.recv()  # EOFError propagates: parent died
        except OSError as exc:
            raise EOFError from exc
        await asyncio.sleep(0.02)


async def _watchdog(conn, done: asyncio.Event) -> None:
    """Trip ``done`` the moment the pipe becomes readable mid-run.

    The parent never sends between the start barrier and our result, so
    anything readable — an explicit abort or the EOF of a dead parent —
    means stop now. This is what guarantees no orphaned workers survive
    a parent crash.
    """
    while not done.is_set():
        try:
            if conn.poll(0):
                done.set()
                return
        except (OSError, EOFError):
            done.set()
            return
        await asyncio.sleep(0.2)


async def _worker_async(conn, cfg: WorkerConfig) -> None:
    worker = ShardWorker(cfg)
    try:
        await worker.bind_initial()
    except OSError as exc:
        worker.close()
        _safe_send(conn, ("bind_failed", cfg.worker_id, str(exc)))
        return
    _safe_send(conn, ("ready", cfg.worker_id))
    try:
        msg = await _async_recv(conn)
    except EOFError:
        worker.close()
        return
    if not (isinstance(msg, tuple) and msg and msg[0] == "start"):
        worker.close()
        return
    worker.start()
    done = asyncio.Event()
    watchdog = worker.loop.create_task(_watchdog(conn, done))
    aborted = True
    try:
        await asyncio.wait_for(done.wait(), timeout=cfg.wall_seconds)
    except asyncio.TimeoutError:
        aborted = False  # the run simply finished
    finally:
        done.set()
        watchdog.cancel()
        worker.close()
    if not aborted:
        _safe_send(conn, ("result", worker.report()))


def worker_main(conn) -> None:
    """Entry point of one shard worker process."""
    try:
        msg = conn.recv()
    except (EOFError, OSError):
        return
    if not (isinstance(msg, tuple) and len(msg) == 2 and msg[0] == "configure"):
        return
    try:
        asyncio.run(_worker_async(conn, msg[1]))
    except (EOFError, OSError, BrokenPipeError):
        pass  # parent died; exiting quietly is the whole contract
    finally:
        try:
            conn.close()
        except Exception:
            pass
