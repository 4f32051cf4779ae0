"""The live host: every live driver's nodes on one asyncio event loop.

:class:`ThreadedCluster` runs a gossip group — or one shard of it — in
real time, the in-process equivalent of the paper's 60-workstation
deployment. Each member is a :class:`LiveNode`: a round task fires
``on_round_batch`` and samples the node's gauges every jittered gossip
period, received datagrams are folded into batched ``on_receive_batch``
calls, and application offers wait in the sim sender's
:class:`~repro.driver.OfferQueue`, drained at every wake-up. Every node
of the host shares one event loop, which the
cluster runs on one background thread it owns; protocols, the metrics
collector and the chaos decisions are only ever touched from that
thread, so the hot path takes no lock. Calls from other threads
(:meth:`~ThreadedCluster.broadcast`, :meth:`~ThreadedCluster.crash_node`,
...) are marshalled onto the loop with ``call_soon_threadsafe``.

The hop between nodes is an in-memory dict for ``transport="memory"``
(a send is ``loop.call_soon(dest.on_datagram, data)``, still encoded
and decoded by the wire codec) and real non-blocking UDP sockets for
``transport="udp"``. ``hosted`` and ``port_map`` let one cluster host a
single shard of a group spread over processes — a process-driver worker
(:mod:`repro.runtime.worker`) or a standalone shard host
(:mod:`repro.runtime.standalone`): the directory spans the whole group,
protocols exist only for hosted identities, and every identity's
address comes from the port map.

Because this half of the methodology exists to *validate the
simulator*, it reuses the exact protocol classes and metrics pipeline
through the common :class:`~repro.driver.Driver` base class. Fault
parity: a :class:`~repro.runtime.transport.ChaosRules` set (pass
``chaos=``, or let :meth:`ThreadedCluster.from_scenario` build it from
the scenario's network environment) decides every send with the
sender's seeded stream, and delays ride ``loop.call_later``;
membership may be partial (lpbcast views gossiped over the wire); and
nodes crash, restart, join and leave while the group runs — the live
counterparts of :class:`~repro.workload.cluster.SimCluster`'s
``crash_node``/``join_node``/``leave_node``. A scenario's feeders and
timed conditions run on the same loop from :meth:`start` on.

One clock: :meth:`ThreadedCluster.clock` counts spec seconds, and the
protocols, the metrics, the feeders, the timed conditions and the chaos
rules all read it. Only the host's waits — round sleeps, feeder and
condition sleeps, chaos delays, the leave grace — turn spec seconds
into wall seconds, by the time scale :meth:`ThreadedCluster.from_scenario`
derives from its ``gossip_period`` (1 for a cluster built directly).

An exception raised inside the loop by a protocol callback or a
scheduled condition fails the run: :meth:`~ThreadedCluster.wait`
returns early and :meth:`~ThreadedCluster.stop` raises it, naming the
node and the callback.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import socket
import threading
import time
from random import Random
from typing import Any, Iterable, Optional

from repro.core.aggregation import Aggregate
from repro.core.config import AdaptiveConfig
from repro.driver import Driver, OfferQueue, sample_gauges
from repro.gossip.config import SystemConfig
from repro.membership.views import ViewConfig
from repro.runtime.codec import BinaryCodec
from repro.runtime.transport import ChaosRules
from repro.sim.rng import RngRegistry, derive_seed

__all__ = ["LiveNode", "ThreadedCluster"]

POLL_CAP = 0.05  # longest a node sleeps between offer retries
MAX_DATAGRAM = 65507


class LiveNode:
    """One gossip node on its host's event loop.

    ``sock`` is the node's bound non-blocking UDP socket, or ``None`` on
    the memory hop. Every method runs on the loop thread (or before the
    loop starts, when nothing else can touch the node).
    """

    RECV_BATCH = 64  # datagrams folded per flush; more re-schedules the flush

    def __init__(self, host: "ThreadedCluster", node_id: Any, protocol, sock=None) -> None:
        self.host = host
        self.node_id = node_id
        self.protocol = protocol
        self.sock = sock
        self.alive = True
        limit = host.queue_limits.get(node_id, 100)
        self.queue = OfferQueue(node_id, protocol, host.metrics, limit)
        self.chaos_rng = Random(derive_seed(host.seed, "chaos", node_id))
        self._inbox: list[bytes] = []
        self._flush_scheduled = False
        self._round_task: Optional[asyncio.Task] = None

    def is_alive(self) -> bool:
        """Whether the node still runs (False once crashed or stopped)."""
        return self.alive

    def start(self) -> None:
        if not self.alive or self._round_task is not None:
            return
        if self.sock is not None:
            self.host._loop.add_reader(self.sock, self._on_readable)
        self._round_task = self.host._task(
            self._round_loop(), f"node {self.node_id!r} round task"
        )

    def stop(self) -> None:
        """Silence the node: cancel its round, close its socket. Idempotent."""
        if not self.alive:
            return
        self.alive = False
        host = self.host
        if host._routes.get(self.node_id) is self:
            del host._routes[self.node_id]  # memory hop: peers' sends now fail
        if self._round_task is not None:  # started: the loop knows the node
            self._round_task.cancel()
            if self.sock is not None:
                host._loop.remove_reader(self.sock)
        if self.sock is not None:
            self.sock.close()
        self._inbox.clear()

    def _fail(self, callback: str, exc: Exception) -> None:
        self.host._fail(f"node {self.node_id!r}: {callback}", exc)
        self.stop()

    # ------------------------------------------------------------------
    # application offers
    # ------------------------------------------------------------------
    def offer(self, payload: Any = None) -> None:
        """Queue an offer; what admission refuses waits for a wake-up."""
        if self.alive:
            try:
                self.queue.offer(payload, self.host.clock())
            except Exception as exc:
                self._fail("try_broadcast", exc)

    # ------------------------------------------------------------------
    # receive path
    # ------------------------------------------------------------------
    def on_datagram(self, data: bytes) -> None:
        if not self.alive:
            return
        self._inbox.append(data)
        if not self._flush_scheduled:
            self._flush_scheduled = True
            self.host._loop.call_soon(self._flush)

    def _on_readable(self) -> None:
        sock = self.sock
        for _ in range(self.RECV_BATCH):
            try:
                data = sock.recv(MAX_DATAGRAM)
            except OSError:  # drained (EAGAIN), or ICMP noise gossip tolerates
                return
            self.on_datagram(data)

    def _flush(self) -> None:
        self._flush_scheduled = False
        if not self.alive:
            return
        inbox = self._inbox
        batch = inbox[: self.RECV_BATCH]
        del inbox[: self.RECV_BATCH]
        if inbox:
            self._flush_scheduled = True
            self.host._loop.call_soon(self._flush)
        host = self.host
        decode = host.codec.decode
        messages = []
        for data in batch:
            try:
                messages.append(decode(data))
            except Exception:  # malformed input must never kill the node
                host.decode_errors += 1
        if not messages:
            return
        try:
            replies = self.protocol.on_receive_batch(messages, host.clock())
        except Exception as exc:
            self._fail("on_receive_batch", exc)
            return
        for dest, reply in replies:
            self._send(dest, reply)

    # ------------------------------------------------------------------
    # round firing
    # ------------------------------------------------------------------
    async def _round_loop(self) -> None:
        host = self.host
        clock = host.clock
        rng = self.protocol.rng
        scale = host.scale
        period = host.system.gossip_period
        jitter = host.system.round_jitter
        phase = host.system.round_phase
        if phase is None:
            phase = rng.uniform(0, period)
        next_round = clock() + phase
        queue, metrics = self.queue, host.metrics
        while self.alive:
            now = clock()
            if queue:
                try:
                    queue.drain(now)
                except Exception as exc:
                    self._fail("try_broadcast", exc)
                    return
            if now < next_round:
                await asyncio.sleep(min((next_round - now) * scale, POLL_CAP))
                continue
            try:
                batch = self.protocol.on_round_batch(now)
            except Exception as exc:
                self._fail("on_round_batch", exc)
                return
            for dests, message in batch:
                for dest in dests:
                    self._send(dest, message)
            sample_gauges(metrics, self.node_id, self.protocol, now)
            p = period
            if jitter:
                p *= rng.uniform(1 - jitter, 1 + jitter)
            next_round += p  # on the spec grid, as the sim: lag never accumulates

    # ------------------------------------------------------------------
    # send path: the chaos decision sits exactly here, at the send
    # ------------------------------------------------------------------
    def _send(self, dest: Any, message: Any) -> None:
        host = self.host
        route = host._routes.get(dest)
        if route is None:
            host.send_failures += 1
            return
        # one encode per datagram, not per round: the perf ledger's layer
        # replay takes its corpus from encode calls, one per datagram
        rules = host.chaos
        if rules is None:
            self._put(route, host.codec.encode(message))
            return
        verdict = rules.plan(self.node_id, dest, self.chaos_rng)
        if verdict is None:
            return  # eaten: indistinguishable from wire loss
        data = host.codec.encode(message)
        if verdict > 0.0:
            host._loop.call_later(verdict * host.scale, self._send_late, dest, data)
        elif self._put(route, data):
            rules.note_sent()

    def _send_late(self, dest: Any, data: bytes) -> None:
        # a delayed datagram racing the sender's shutdown, or a receiver
        # that left the memory hop meanwhile, is lost like on the wire
        route = self.host._routes.get(dest)
        if self.alive and route is not None and self._put(route, data):
            self.host.chaos.note_sent()

    def _put(self, route: Any, data: bytes) -> bool:
        """One datagram onto the hop: a loop hand-off or a ``sendto``."""
        if self.sock is None:
            self.host._loop.call_soon(route.on_datagram, data)
            return True
        try:
            self.sock.sendto(data, route)
            return True
        except OSError:
            self.host.send_failures += 1
            return False


class ThreadedCluster(Driver):
    """A gossip group (or one shard of it) live on one event-loop thread.

    Parameters
    ----------
    n_nodes:
        Group size.
    system:
        Gossip parameters. Real runs usually want a short
        ``gossip_period`` (e.g. 0.05–0.2 s) so experiments finish fast.
    protocol:
        ``"lpbcast"``, ``"static"`` or ``"adaptive"`` (or a factory).
    transport:
        ``"memory"`` (default: the in-process dict hop) or ``"udp"``
        (one real socket per node).
    membership:
        ``"full"`` (shared directory, the paper's testbed setting) or
        ``"partial"`` (per-node lpbcast views, gossiped on the wire).
    chaos:
        A :class:`~repro.runtime.transport.ChaosRules` consulted on every
        send with a per-node stream seeded from ``seed``; the rule set
        may be mutated mid-run (fault windows, partitions) from any
        thread. Its bandwidth-cap windows tick on :meth:`clock`.
    bucket_width:
        Metrics bucket width in spec seconds.
    queue_limits:
        Node id -> its :class:`~repro.driver.OfferQueue` bound (default 100).
    hosted:
        The identities this cluster runs (default: every identity, now
        or later). The others are remote: in the directory, reached
        through ``port_map``.
    port_map:
        ``transport="udp"`` only: node id -> ``(host, port)`` for every
        identity the run can name. Hosted nodes bind their entry at
        construction (an ``OSError`` means the port is taken); without
        a map, each hosted node binds an ephemeral localhost port.
    """

    def __init__(
        self,
        n_nodes: int,
        system: Optional[SystemConfig] = None,
        protocol: Any = "lpbcast",
        adaptive: Optional[AdaptiveConfig] = None,
        rate_limit: Optional[float] = None,
        aggregate: Optional[Aggregate] = None,
        transport: str = "memory",
        seed: int = 0,
        membership: str = "full",
        view_size: Optional[int] = None,
        chaos: Optional[ChaosRules] = None,
        hosted: Optional[Iterable[Any]] = None,
        port_map: Optional[dict] = None,
        bucket_width: float = 1.0,
        queue_limits: Optional[dict] = None,
    ) -> None:
        if transport not in ("memory", "udp"):
            raise ValueError(f"unknown transport {transport!r}")
        if port_map is not None and transport != "udp":
            raise ValueError("a port map needs transport='udp'")
        super().__init__(
            n_nodes,
            system=system,
            protocol=protocol,
            adaptive=adaptive,
            rate_limit=rate_limit,
            aggregate=aggregate,
            bucket_width=bucket_width,
            membership=membership,
            view_config=None if view_size is None else ViewConfig(view_size=view_size),
        )
        self.codec = BinaryCodec()
        self.seed = seed
        self.chaos = chaos
        self.queue_limits = dict(queue_limits or {})
        self._rngs = RngRegistry(seed)
        self._memory = transport == "memory"
        # None: every identity, now or later (the whole group runs here)
        self.hosted = None if hosted is None else frozenset(hosted)
        # node id -> the hop's route: the LiveNode itself on the memory
        # hop, a (host, port) address on UDP
        self._routes: dict[Any, Any] = {
            node: tuple(addr) for node, addr in (port_map or {}).items()
        }
        self.nodes: dict[Any, LiveNode] = {}
        # cumulative over every incarnation of every hosted node
        self.offers = 0
        self.decode_errors = 0
        self.send_failures = 0
        self.bind_errors = 0
        # a scenario's schedule (from_scenario), run from start() on
        self.feeders: list = []
        self.actions: list = []
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._tasks: set[asyncio.Task] = set()  # the loop holds tasks weakly
        self._t0: Optional[float] = None
        self.scale = 1.0  # wall seconds per spec second (see from_scenario)
        if chaos is not None:
            chaos.bind_clock(self.clock)
        self._stopped = False
        self.failure: Optional[RuntimeError] = None
        self._failed = threading.Event()
        self._log_size()
        try:
            for node_id in self.directory.alive():
                if self.hosts(node_id):
                    self._spawn(node_id)
        except OSError:
            self._halt()  # release the sockets bound so far
            raise

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    def hosts(self, node_id: Any) -> bool:
        """Whether ``node_id`` runs here (rather than in another shard)."""
        return self.hosted is None or node_id in self.hosted

    def _spawn(self, node_id: Any) -> LiveNode:
        """Build (and, if running, start) a fresh incarnation of a node."""
        sock = None
        if not self._memory:
            sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            try:
                sock.bind(self._routes.get(node_id, ("127.0.0.1", 0)))
            except OSError:
                sock.close()
                raise
            sock.setblocking(False)
            self._routes[node_id] = sock.getsockname()
        proto = self._build_protocol(
            node_id,
            self._make_membership(node_id, self._rngs),
            self._rngs.stream("protocol", node_id),
            self.clock(),
        )
        node = LiveNode(self, node_id, proto, sock)
        if self._memory:
            self._routes[node_id] = node
        self.nodes[node_id] = node
        if self._loop is not None:
            node.start()
        return node

    # ------------------------------------------------------------------
    # Driver hooks
    # ------------------------------------------------------------------
    @staticmethod
    def time_scale(spec, gossip_period: Optional[float] = None) -> float:
        """Wall seconds per spec second when ``spec`` runs with one gossip
        round every ``gossip_period`` wall seconds (default 0.1 s)."""
        period = 0.1 if gossip_period is None else gossip_period
        return period / spec.system.gossip_period

    @classmethod
    def from_scenario(
        cls,
        spec,
        gossip_period: Optional[float] = None,
        transport: str = "memory",
        **overrides,
    ) -> "ThreadedCluster":
        """Instantiate a declarative scenario on the live host.

        The protocols, feeders, timed conditions and chaos rules run in
        spec seconds, exactly as the spec states them; ``gossip_period``
        (default 0.1 s) only sets how many wall seconds one spec round —
        and so one spec second — lasts (:meth:`time_scale`). The
        protocol profile carries over whole, including partial-view
        membership. When the spec carries a network environment — a
        topology/latency model, baseline loss, or loss/partition/
        bandwidth fault windows — the nodes share one
        :class:`~repro.runtime.transport.ChaosRules`, pre-loaded with
        the baseline loss and the latency model. The spec's feeders and
        every timed condition, those at t=0 included, are compiled onto
        :attr:`feeders` and :attr:`actions` and run from :meth:`start`
        on (hosted senders only: each shard paces its own).
        """
        chaos = overrides.pop("chaos", None)
        if chaos is None and spec.wire_conditions:
            chaos = ChaosRules(loss=spec.baseline_loss, latency=spec.build_latency())
        cluster = cls(
            n_nodes=spec.n_nodes,
            system=spec.system,
            protocol=spec.protocol,
            adaptive=spec.adaptive,
            rate_limit=spec.rate_limit,
            aggregate=spec.aggregate,
            transport=transport,
            seed=spec.seed,
            membership=spec.membership,
            view_size=spec.view_size,
            chaos=chaos,
            bucket_width=spec.bucket_width,
            queue_limits={sender.node: sender.queue_limit for sender in spec.senders},
            **overrides,
        )
        cluster.scale = cls.time_scale(spec, gossip_period)
        # lazy: the scenario runner imports this module
        from repro.scenarios.runner import _Feeder
        from repro.scenarios.spec import lower_timed_conditions

        cluster.feeders = [
            _Feeder(sender, spec.seed)
            for sender in spec.senders
            if cluster.hosts(sender.node)
        ]
        try:
            cluster.actions, _ = lower_timed_conditions(
                cluster.chaos,
                cluster,
                spec.faults,
                spec.churn,
                spec.resources,
                spec.baseline_loss,
            )
        except Exception:
            cluster.stop()  # release the sockets bound so far
            raise
        return cluster

    def _default_system(self) -> SystemConfig:
        # real runs want short rounds so experiments finish fast
        return SystemConfig(gossip_period=0.1)

    def clock(self) -> float:
        """Run-relative spec clock: 0 until :meth:`start`, then the spec
        seconds since its start instant (wall seconds divided by the time
        scale)."""
        t0 = self._t0
        return 0.0 if t0 is None else (time.monotonic() - t0) / self.scale

    # ------------------------------------------------------------------
    # the loop thread
    # ------------------------------------------------------------------
    def start(self, at: Optional[float] = None) -> None:
        """Start the loop thread: rounds, feeders and timed conditions,
        from spec time 0 at the :func:`time.monotonic` instant ``at``
        (default: now; the shards of one process run share one)."""
        if self._stopped:
            raise RuntimeError(
                "this cluster has been stopped; its sockets and loop cannot "
                "be reused — build a fresh ThreadedCluster"
            )
        if self._loop is not None:
            return
        loop = asyncio.new_event_loop()
        loop.set_exception_handler(self._on_loop_error)
        self._loop = loop
        self._t0 = time.monotonic() if at is None else at
        loop.call_at(self._t0, self._begin)  # the loop's clock is time.monotonic
        self._thread = threading.Thread(target=self._serve, name="live-host", daemon=True)
        self._thread.start()

    def _begin(self) -> None:
        for node in list(self.nodes.values()):
            node.start()
        if self.actions:
            self._task(self._run_actions(), "scheduled conditions")
        for feeder in self.feeders:
            self._task(self._run_feeder(feeder), f"node {feeder.node!r} feeder")

    def _serve(self) -> None:
        loop = self._loop
        asyncio.set_event_loop(loop)
        try:
            loop.run_forever()
            # let the cancelled tasks finish, and run what was marshalled
            # onto the loop while it was stopping
            tasks = list(self._tasks)
            loop.run_until_complete(asyncio.gather(*tasks, return_exceptions=True))
        finally:
            loop.close()

    def _task(self, coro, label: str) -> asyncio.Task:
        """A loop task whose unexpected exception fails the run."""

        def done(task: asyncio.Task) -> None:
            self._tasks.discard(task)
            if not task.cancelled() and task.exception() is not None:
                self._fail(label, task.exception())

        task = self._loop.create_task(coro)
        task.add_done_callback(done)
        self._tasks.add(task)
        return task

    async def _run_actions(self) -> None:
        for due, _, fire in self.actions:
            delay = due - self.clock()
            if delay > 0:
                await asyncio.sleep(delay * self.scale)
            try:
                fire()
            except Exception as exc:
                name = getattr(fire, "__name__", repr(fire))
                self._fail(f"scheduled condition {name!r} due at {due:.3f}s", exc)
                return

    async def _run_feeder(self, feeder) -> None:
        while feeder.stop is None or feeder.next < feeder.stop:
            now = self.clock()
            if feeder.next > now:
                await asyncio.sleep((feeder.next - now) * self.scale)
                continue
            node = self.nodes.get(feeder.node)
            if node is not None:
                node.offer(None)
            self.offers += 1
            feeder.advance()

    def _fail(self, where: str, exc: BaseException) -> None:
        """Record the run's first failure and wake :meth:`wait`."""
        if self.failure is None:
            self.failure = RuntimeError(f"{where} raised {exc!r}")
            self.failure.__cause__ = exc
        self._failed.set()

    def _on_loop_error(self, loop, context: dict) -> None:
        exc = context.get("exception") or RuntimeError(context["message"])
        self._fail(context["message"], exc)

    @property
    def failed(self) -> bool:
        """Whether something raised inside the loop (see :meth:`stop`)."""
        return self._failed.is_set()

    def _marshal(self) -> bool:
        """Whether a call must hop onto the loop thread (the loop runs and
        the caller is another thread); before :meth:`start` and after
        :meth:`stop` the caller acts directly."""
        thread = self._thread
        return (
            thread is not None
            and thread.is_alive()
            and thread is not threading.current_thread()
        )

    def _call(self, fn, *args):
        """Run ``fn(*args)`` on the loop thread and return its result."""
        if not self._marshal():
            return fn(*args)
        done: concurrent.futures.Future = concurrent.futures.Future()

        def run() -> None:
            try:
                done.set_result(fn(*args))
            except BaseException as exc:
                done.set_exception(exc)

        self._loop.call_soon_threadsafe(run)
        return done.result()

    # ------------------------------------------------------------------
    # the application surface (any thread)
    # ------------------------------------------------------------------
    def broadcast(self, node_id: Any, payload: Any = None) -> None:
        """Offer a broadcast through ``node_id`` (admission on the loop)."""
        node = self.nodes[node_id]
        if self._marshal():
            self._loop.call_soon_threadsafe(node.offer, payload)
        else:
            node.offer(payload)

    def set_capacity(self, node_id: Any, capacity: int) -> None:
        """Change a node's buffer capacity, safely, while it runs.

        The live counterpart of
        :meth:`repro.workload.cluster.SimCluster.set_capacity`. An id
        that is not a live hosted node is ignored, as in
        :meth:`crash_node`: a scheduled change may name a member that is
        not there yet, or lives in another shard.
        """

        def apply() -> None:
            node = self.nodes.get(node_id)
            if node is not None and node.alive:
                node.protocol.set_buffer_capacity(capacity, self.clock())

        self._call(apply)

    def set_offered_rate(self, node_id: Any, rate: float) -> None:
        """Re-pace ``node_id``'s feeder, safely, while it runs.

        The live counterpart of
        :meth:`repro.workload.cluster.SimCluster.set_offered_rate`; a
        node whose sender this cluster does not host is ignored.
        """

        def apply() -> None:
            for feeder in self.feeders:
                if feeder.node == node_id:
                    feeder.arrivals.rate = rate

        self._call(apply)

    # ------------------------------------------------------------------
    # live membership (the live counterparts of SimCluster's)
    # ------------------------------------------------------------------
    def crash_node(self, node_id: Any) -> None:
        """Silent failure: leave the directory, stop the node, no goodbye.

        The dead :class:`LiveNode` stays in :attr:`nodes` so its protocol
        statistics remain readable after the run. Every shard replicates
        the directory change; only the host of the node stops it.
        Idempotent.
        """
        self._call(self._crash, node_id)

    def _crash(self, node_id: Any) -> None:
        if not self.directory.is_alive(node_id):
            return
        self.directory.leave(node_id)
        self._log_size()
        node = self.nodes.get(node_id)
        if node is not None:
            node.stop()

    def leave_node(self, node_id: Any) -> None:
        """Graceful departure: unsubscribe, gossip it, then stop.

        What makes the departure *graceful* (distinguishable from a
        crash) is that the node lives through one more gossip round, so
        partial views carry the unsubscription onto the wire — the
        header is only built by future emissions. The grace rides a loop
        timer, so nothing waits on it; it is skipped for full
        membership, where the directory itself is the announcement.
        """
        self._call(self._leave, node_id)

    def _leave(self, node_id: Any) -> None:
        if not self.directory.is_alive(node_id):
            return
        self.directory.leave(node_id)
        self._log_size()
        node = self.nodes.get(node_id)
        if node is None or not node.alive:
            return
        unsubscribe = getattr(node.protocol.membership, "unsubscribe", None)
        if not callable(unsubscribe):
            node.stop()  # full membership: the directory is the announcement
            return
        unsubscribe()
        if self._loop is None:
            node.stop()
        else:
            # one full round even with jitter, plus one offer-retry poll
            grace = self.system.gossip_period * 1.2 * self.scale + POLL_CAP
            self._loop.call_later(grace, node.stop)

    def join_node(self, node_id: Any) -> Optional[LiveNode]:
        """(Re)join under ``node_id``: a fresh process, old identity.

        A restarted node gets a brand-new protocol instance (empty
        buffers — the realistic model for a process restart) and a fresh
        socket on its old address; if the cluster is running it starts
        at once. Returns the hosted node (``None`` for another shard's
        identity, whose directory entry is all that changes here).
        """
        if self._stopped:
            raise RuntimeError("cluster stopped; nodes cannot join")
        return self._call(self._join, node_id)

    def _join(self, node_id: Any) -> Optional[LiveNode]:
        old = self.nodes.get(node_id)
        if self.directory.is_alive(node_id) and (
            not self.hosts(node_id) or (old is not None and old.alive)
        ):
            return old  # already a live member
        self.directory.join(node_id)
        self._log_size()
        if not self.hosts(node_id):
            return None
        if old is not None:
            old.stop()  # a pending leave grace is superseded by the rejoin
        try:
            return self._spawn(node_id)
        except OSError:  # someone else took the port meanwhile
            self.bind_errors += 1
            return None

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    def wait(self, seconds: float) -> bool:
        """Block for ``seconds`` of wall time, or until the run fails;
        returns whether it failed."""
        return self._failed.wait(max(0.0, seconds))

    def run_for(self, duration: float) -> None:
        """Start (if needed), run for ``duration`` wall seconds, stop.

        One-shot, unlike the simulator's repeatable
        :meth:`~repro.workload.cluster.SimCluster.run_for`: the teardown
        releases the sockets and the loop. For incremental wall-clock
        phases call :meth:`start`, sleep between observations, then
        :meth:`stop` once.
        """
        self.start()
        self.wait(duration)
        self.stop()

    def stop(self) -> None:
        """Stop every node at once and join the loop thread.

        Consumes the cluster whether or not it ever started. Raises the
        run's failure, if anything raised inside the loop.
        """
        if self._stopped:
            return
        self._stopped = True
        if self._thread is None:
            self._halt()
        else:
            self._loop.call_soon_threadsafe(self._halt)
            self._thread.join()
        if self.failure is not None:
            raise self.failure

    def _halt(self) -> None:
        for node in self.nodes.values():
            node.stop()
        for task in self._tasks:
            task.cancel()
        if self._loop is not None:
            self._loop.stop()
