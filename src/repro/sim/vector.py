"""Whole-population columnar round execution (the mega-sim lane).

:class:`VectorRoundExecutor` advances *all* nodes of a round-synchronous
lpbcast group in bulk: one registered round member per cluster (not one
per node), integer rows and columns indexed by node id instead of
per-node buffers and dedup stores (see *State layout* below), one batched
target-sampling pass per round, and one delivery fold per instant. It is
a drop-in third dispatch mode for :class:`~repro.workload.cluster.SimCluster`
(``dispatch="vector"``): scenarios, sweeps and expectations lower onto it
unchanged, and a run is **byte-identical** to the per-node ``"batched"``
path — the same RNG streams are consumed draw for draw, so the
determinism/parity suites compare entire runs, exactly as
``on_receive_reference`` proves the per-node fast paths.

Why this can be exact
---------------------
The vectorized lane only engages for configurations where the per-node
semantics provably collapse (see :func:`vector_eligible` and, for the
human-readable rejection, :func:`vector_ineligible_reason`): the baseline
``lpbcast`` protocol, full membership, a fixed round phase with zero
jitter, and constant latency shorter than the gossip period. In that
regime:

* every copy of an event carries ``anchor == birth round`` (all buffers
  advance their round counter at the same instants, broadcasts stage at
  age 0, and receivers fold at the same global round) — so
  ``sync_ages`` is a global no-op, age-out is simultaneous everywhere,
  and per-(node, event) age state reduces to membership plus an arrival
  sequence;
* target sampling is the only reader of the per-node ``("protocol", i)``
  streams on this lane, and it replays the per-node path index-only,
  draw for draw (:func:`~repro.sim.rng.sample_indices`, the sampler
  under :func:`~repro.sim.rng.uniform_sample`, over a full view). The
  stdlib twin calls each stream's ``getrandbits`` directly. The numpy
  twin hands all ``n`` streams to one :class:`~repro.sim.rng.WordBank`,
  which prefetches their raw 32-bit outputs and from then on is the
  **sole reader**: every branch of the sampler — the bulk set branch,
  the small-group pool branch, the redone rows — draws through the
  bank, because a stream read behind the bank's back is up to two
  blocks ahead of where the per-node path would be (a group shrinking
  across CPython's 21-peer pool threshold mid-run is the case that
  catches it). Nothing else may call ``sim.rngs.stream("protocol", i)``
  on a vector cluster; ``WordBank.export(i)`` rebuilds that stream as
  the per-node path would have left it, and a future consumer (the
  adaptive ``ρ`` draw is two words) must take its words from the bank's
  reader. The bank is word-level because one MT19937 output is the unit
  every ``Random`` method consumes, whatever the draw width;
* per-delivery loss is the only reader of the ``("network",)`` stream:
  draws are replayed in the same per-message order the network would
  consume them — vectorized into one numpy block per tick when the
  model is Bernoulli and no message rides a flaky link, sequentially
  via ``loss.is_lost`` otherwise, byte-identical either way;
* the network's multicast rule order (partition → one-way cut → route →
  bandwidth cap → loss → per-link loss, then one constant delay) is
  replicated per message without routing anything through the heap, and
  the cap/partition/link state is *read live from the network object* at
  each tick, so fault windows opened and closed by
  :class:`~repro.sim.faults.FaultScript` lower onto the columnar lane
  unchanged.

State layout
------------
The paper's two bounded per-node structures, the ``events`` buffer and
the ``eventIds`` dedup store, become two integer rows per live event,
indexed by node id, plus a few integer columns per node:

* **buffer** — the event's *arrival sequence* at each node, ``-1`` where
  the node does not buffer it; an occupancy column counts each node's
  buffered events. A node's buffer in arrival order is its column
  sorted, and eviction takes the smallest ``(birth round, arrival)``,
  exactly the per-node buffer's choice;
* **dedup store** — the event's *learn sequence* at each node, plus a
  per-node learn counter and trim cursor. A store only ever loses its
  oldest entries (the capacity trim) or all of them (a crash), so it
  always holds exactly the learn sequences ``cursor .. counter - 1``:
  a node knows an event iff the event's learn sequence there is at
  least the node's cursor. A trim or a crash moves the cursor and
  touches no row, and an event that aged out needs no storage at all —
  it still counts toward the store's size until the cursor passes it.

Events age out by birth round and births never decrease along event
ordinals, so the live events are one contiguous ordinal range. Their
rows live in a ring (slot = ordinal modulo a power-of-two capacity that
doubles when full): a 2-D ``int64`` array on the numpy twin, a list of
lists on the stdlib twin. Both twins share every body except the bulk
ones (age-out, the tick-time spreading snapshot, the batched fold),
which on numpy are column gathers and scatters over that array.

Fault vocabulary on the columnar lane
-------------------------------------
Window edges (loss / partition / one-way / link-loss / bandwidth-cap
open and close) only matter at emission instants: arrivals already in
flight carry their fate with them in both paths, and edges scheduled at
a tick fire before the tick in both paths (``schedule_at`` from t=0 wins
the FIFO tie). Crash and churn lower onto an alive-ordered emission list
plus column resets: a crash clears the node's buffer column and moves its
dedup cursor to its learn counter (its in-flight summary is snapshotted
first for any pending fold), and a restart re-admits the old identity
with an empty buffer and zeroed counters at a round tick — exactly the
fresh-process semantics of the per-node driver. Sender crashes,
brand-new identities and off-tick restarts stay per-node (see
:func:`mega_schedule_reason`), as do the adaptive/bimodal protocol
variants and partial views.

The optional ``numpy`` fast path (``pip install .[accel]``) vectorises
target sampling, the per-instant delivery fold and the Bernoulli loss
draws; it is auto-detected and produces results identical to the stdlib
path (a property test asserts this). The batched fold stages a whole
instant with a few scatters into the rows: one sort orders every
receiver's new events, and each receiver's arrival and learn counters
number them. Per-message sequential folding remains as the in-module
reference and handles the instants the batched fold cannot prove safe
(a dedup store that could trim mid-instant, evictions since the tick,
crashes with messages in flight, an order key that would not fit in
``int64``).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Optional

from repro.gossip.events import EventId
from repro.gossip.lpbcast import ProtocolStats
from repro.sim.faults import WIRE_WINDOWS, CrashWindow
from repro.sim.network import BernoulliLoss, ConstantLatency, Network, NoLoss
from repro.sim.engine import RoundDispatcher, Simulator
from repro.sim.rng import WordBank, sample_indices

try:  # optional accelerator — stdlib-only installs work unchanged
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on stdlib-only installs
    _np = None

HAVE_NUMPY = _np is not None

__all__ = [
    "HAVE_NUMPY",
    "VectorNodeProtocol",
    "VectorRoundExecutor",
    "vector_eligible",
    "vector_ineligible_reason",
    "mega_schedule_reason",
]


def _restart_aligned(time: float, phase: float, period: float) -> bool:
    """Whether a restart/join at ``time`` lands on the population's tick.

    The round dispatcher accumulates tick times in floating point
    (``t0 = phase``, ``t_{j+1} = t_j + period``) and a rejoining member
    shares the live bucket iff ``time + phase`` equals the next
    accumulated tick. This replays that accumulation exactly — no
    modulo arithmetic, which would disagree with float accumulation.
    """
    if period <= 0 or time < 0:
        return False
    if time / period > 1e7:  # refuse to replay absurd schedules
        return False
    t = phase
    while t < time:
        t += period
    return time + phase == t


def mega_schedule_reason(
    *,
    system,
    n_nodes: int,
    faults=None,
    churn=None,
    sender_ids=(),
) -> Optional[str]:
    """Why a fault/churn schedule cannot lower onto the columnar lane.

    Returns ``None`` when every scheduled condition is supported: loss,
    partition, one-way, link-loss and bandwidth-cap windows always are
    (they are reachability/loss filters read live at each tick); crash
    and churn are, provided no *sender* node departs (its sender process
    would keep broadcasting into the corpse), every re-admitted identity
    already has columns (``0 <= id < n_nodes``), and every restart/join
    lands exactly on a round tick (off-tick rejoiners would run their
    own round schedule, which one shared tick cannot represent).
    """
    period = system.gossip_period
    phase = system.round_phase
    senders = set(sender_ids)
    if faults is not None:
        for fault in getattr(faults, "faults", faults):
            if isinstance(fault, CrashWindow):
                hit = senders.intersection(fault.nodes)
                if hit:
                    return (
                        f"crash window at t={fault.time} crashes sender "
                        f"node(s) {sorted(hit, key=repr)}: a sender process "
                        "keeps broadcasting into its crashed node"
                    )
                if fault.restart_at is not None and not _restart_aligned(
                    fault.restart_at, phase, period
                ):
                    return (
                        f"crash window restarts at t={fault.restart_at}, "
                        f"which is not a round tick (phase={phase}, "
                        f"period={period}): restarted nodes would tick out "
                        "of phase with the population"
                    )
            elif not isinstance(fault, WIRE_WINDOWS):
                return f"unsupported fault window type {type(fault).__name__}"
    if churn is not None:
        for event in churn.sorted_events():
            if event.action in ("leave", "crash"):
                if event.node in senders:
                    return (
                        f"churn {event.action} of sender node {event.node!r} "
                        f"at t={event.time}: a sender process keeps "
                        "broadcasting into its departed node"
                    )
            elif event.action == "join":
                if event.node in senders:
                    return (
                        f"churn join of sender node {event.node!r} at "
                        f"t={event.time}: sender lifecycles stay per-node"
                    )
                if not (
                    isinstance(event.node, int) and 0 <= event.node < n_nodes
                ):
                    return (
                        f"churn join of brand-new node {event.node!r}: the "
                        "columnar lane only re-admits identities it has "
                        "columns for (0..n_nodes-1)"
                    )
                if not _restart_aligned(event.time, phase, period):
                    return (
                        f"churn join at t={event.time} is not a round tick "
                        f"(phase={phase}, period={period}): rejoining nodes "
                        "would tick out of phase with the population"
                    )
            else:  # pragma: no cover - ChurnEvent validates its action
                return f"unsupported churn action {event.action!r}"
    return None


def vector_ineligible_reason(
    *,
    protocol: Any,
    membership: str,
    system,
    latency,
    loss,
    aggregate,
    rate_limit,
    n_nodes: int,
    allow_mega: bool = True,
    faults=None,
    churn=None,
    sender_ids=(),
) -> Optional[str]:
    """Why a configuration cannot run on the columnar mega lane.

    Returns ``None`` when the configuration qualifies, otherwise a
    human-readable sentence naming the first disqualifying condition —
    ``run-scenario --dispatch vector`` prints it when falling back, so
    users learn *why* they got the slow lane.

    ``allow_mega`` is the caller's veto for conditions this check cannot
    see; ``faults``/``churn``/``sender_ids`` let callers that know the
    schedules get the full verdict up front (the experiment harness
    passes them from the spec).
    """
    if not allow_mega:
        return "caller vetoed the mega lane (allow_mega=False)"
    if protocol != "lpbcast":
        return (
            f"protocol {protocol!r} is not the baseline lpbcast "
            "(adaptive/bimodal variants keep per-node state the columnar "
            "lane does not model)"
        )
    if membership != "full":
        return f"membership {membership!r} is not full (partial views stay per-node)"
    if system.round_phase is None:
        return (
            "round_phase is None (random per-node phases; the columnar lane "
            "needs one shared tick)"
        )
    if system.round_jitter:
        return (
            f"round_jitter={system.round_jitter} desynchronises node rounds "
            "(the columnar lane needs one shared tick)"
        )
    if type(latency) is not ConstantLatency:
        return (
            f"latency model {type(latency).__name__} samples per-message "
            "delays (the columnar lane folds one constant-delay instant)"
        )
    if not latency.delay < system.gossip_period:
        if latency.delay == system.gossip_period:
            return (
                f"latency.delay == gossip_period ({latency.delay}): arrivals "
                "would land exactly on the next tick and race it; the "
                "columnar lane needs the delay strictly below the period"
            )
        return (
            f"latency.delay={latency.delay} >= gossip_period="
            f"{system.gossip_period}: more than one instant would be in "
            "flight between ticks"
        )
    if loss is not None and type(loss) not in (NoLoss, BernoulliLoss):
        return (
            f"loss model {type(loss).__name__} is stateful or unknown; the "
            "columnar lane replays NoLoss and BernoulliLoss draws only"
        )
    if aggregate is not None:
        return "an aggregation strategy is configured (stays per-node)"
    if rate_limit is not None:
        return "a static rate limit is configured (stays per-node)"
    if n_nodes < 2:
        return f"n_nodes={n_nodes} < 2 (nothing to gossip with)"
    return mega_schedule_reason(
        system=system,
        n_nodes=n_nodes,
        faults=faults,
        churn=churn,
        sender_ids=sender_ids,
    )


def vector_eligible(
    *,
    protocol: Any,
    membership: str,
    system,
    latency,
    loss,
    aggregate,
    rate_limit,
    n_nodes: int,
    allow_mega: bool = True,
    faults=None,
    churn=None,
    sender_ids=(),
) -> bool:
    """Whether a configuration may run on the columnar mega lane.

    The boolean face of :func:`vector_ineligible_reason`.
    """
    return (
        vector_ineligible_reason(
            protocol=protocol,
            membership=membership,
            system=system,
            latency=latency,
            loss=loss,
            aggregate=aggregate,
            rate_limit=rate_limit,
            n_nodes=n_nodes,
            allow_mega=allow_mega,
            faults=faults,
            churn=churn,
            sender_ids=sender_ids,
        )
        is None
    )


# A tick's targets travel in one of two shapes: one (emitters, fanout)
# array when the word bank sampled them and no fault rule dropped any, a
# list of targets per emitter otherwise (the stdlib twin, the no-draw
# full view, any tick chaos thinned out).
def _as_lists(rows) -> list[list[int]]:
    return rows if isinstance(rows, list) else rows.tolist()


def _flatten(rows):
    """``(targets, targets per emitter)`` of a tick as two flat arrays."""
    if isinstance(rows, list):
        lens = _np.fromiter(map(len, rows), dtype=_np.intp, count=len(rows))
        flat = _np.fromiter(
            itertools.chain.from_iterable(rows), dtype=_np.intp, count=int(lens.sum())
        )
        return flat, lens
    return rows.ravel(), _np.full(rows.shape[0], rows.shape[1], dtype=_np.intp)


class _VectorBuffer:
    """``len()``/capacity view over one node's column of the executor."""

    __slots__ = ("_ex", "_node")

    def __init__(self, ex: "VectorRoundExecutor", node: int) -> None:
        self._ex = ex
        self._node = node

    def __len__(self) -> int:
        return int(self._ex._occ[self._node])

    @property
    def capacity(self) -> int:
        return int(self._ex._cap[self._node])


class VectorNodeProtocol:
    """Per-node facade over the executor's columns.

    Quacks like :class:`~repro.gossip.lpbcast.LpbcastProtocol` for
    everything the drivers, senders, resource scripts and the harness
    touch: admission, capacity changes, buffer occupancy and ``stats``.
    """

    may_reply = False

    __slots__ = ("node_id", "buffer", "_ex")

    def __init__(self, ex: "VectorRoundExecutor", node_id: int) -> None:
        self.node_id = node_id
        self.buffer = _VectorBuffer(ex, node_id)
        self._ex = ex

    def broadcast(self, payload: Any, now: float) -> EventId:
        return self._ex._broadcast(self.node_id, payload, now)

    def try_broadcast(self, payload: Any, now: float) -> Optional[EventId]:
        return self._ex._broadcast(self.node_id, payload, now)

    def time_until_admission(self, now: float) -> float:
        return 0.0

    @property
    def allowed_rate(self) -> Optional[float]:
        return None

    def set_buffer_capacity(self, capacity: int, now: float) -> None:
        self._ex._set_capacity(self.node_id, capacity, now)

    @property
    def buffer_capacity(self) -> int:
        return int(self._ex._cap[self.node_id])

    @property
    def stats(self) -> ProtocolStats:
        return self._ex._stats_of(self.node_id)


class _VectorNode:
    """What ``cluster.nodes[i]`` holds on the mega lane."""

    __slots__ = ("node_id", "protocol")

    def __init__(self, node_id: int, protocol: VectorNodeProtocol) -> None:
        self.node_id = node_id
        self.protocol = protocol


class VectorRoundExecutor:
    """Advance an entire round-synchronous lpbcast group per round.

    State is columnar. Each live event owns two integer rows indexed by
    node id: its arrival sequence in each node's buffer (``-1``: not
    buffered) and its learn sequence in each node's dedup store. Each
    node owns a few counters: buffer occupancy, the next arrival and
    learn sequences, and a trim cursor. A node knows an event iff the
    event's learn sequence at that node is at least the node's cursor
    (see :meth:`_trim_known`). Per round the executor ages out expired
    events globally, samples every alive node's gossip targets in one
    pass (consuming each node's own RNG stream exactly as the per-node
    path would), applies the network's live fault state (partition/
    one-way/cap filters, then loss draws against the same network
    stream), and folds the whole instant's deliveries in bulk when it
    reaches the wire. Crash/restart mutate an alive-ordered emission
    list plus the per-node columns (see :meth:`crash`/:meth:`restart`).
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        collector,
        system,
        n_nodes: int,
        latency: ConstantLatency,
        rounds: RoundDispatcher,
        sample_gauges: bool = True,
        use_numpy: Optional[bool] = None,
    ) -> None:
        if use_numpy is None:
            use_numpy = HAVE_NUMPY
        elif use_numpy and not HAVE_NUMPY:
            raise RuntimeError("numpy requested but not installed (pip install .[accel])")
        self.sim = sim
        self.collector = collector
        self.system = system
        self.n = n_nodes
        self._network = network
        self.net_stats = network.stats
        self._np = _np if use_numpy else None
        self._delay = latency.delay
        self._sample_gauges = sample_gauges and not getattr(collector, "aggregate", False)
        self._fanout = system.fanout
        self._max_age = system.max_age
        self._dedup_cap = system.dedup_capacity
        self._period = system.gossip_period
        self._phase = system.round_phase
        # the live bucket's next fire time, mirrored so restart alignment
        # can be checked at runtime (set to now + period at each tick)
        self._next_tick = system.round_phase
        self._round = 0
        self._next_seq = [0] * n_nodes
        # emission order == round-bucket member order == directory join
        # order; one list replicates all three under supported churn
        self._order = list(range(n_nodes))
        self._order_dirty = False
        self._alive = set(range(n_nodes))
        # the same per-node streams the per-node path draws from; the
        # numpy twin reads them through a word bank, which owns them
        if self._np is not None:
            self._bank = WordBank(sim.rngs, "protocol", n_nodes)
        else:
            self._getrandbits = [
                sim.rngs.stream("protocol", i).getrandbits for i in range(n_nodes)
            ]
        # global event columns (index = event ordinal); ages out by birth
        # round, so the live events are the ordinals _lo .. len(_eids)-1
        self._eids: list[EventId] = []
        self._birth: list[int] = []
        self._lo = 0
        # per-event rows over the live ordinals in a ring (slot = ordinal
        # & _mask, doubled when full): _A arrival sequence (-1: not
        # buffered), _L learn sequence
        self._mask = 15
        self._A = self._ring(self._mask + 1)
        self._L = self._ring(self._mask + 1)
        self._slots = None  # live slots in ordinal order, cached
        # per-node columns
        self._cap = self._full(system.buffer_capacity)
        z = self._full
        self._occ = z(0)  # buffered events
        self._arrival = z(0)  # next arrival sequence
        self._learned = z(0)  # next learn sequence
        self._cursor = z(0)  # oldest learn sequence still in the dedup store
        # per-node protocol counters
        self._st_broadcasts = z(0)
        self._st_received = z(0)
        self._st_delivered = z(0)
        self._st_dups = z(0)
        self._st_drop_over = z(0)
        self._st_drop_age = z(0)
        self._st_drop_resize = z(0)
        self._st_rounds = z(0)
        self._st_sent = z(0)
        # mutation tracking between a tick and its delivery fold: the
        # log (node -> [(event, arrival, or None for a stage)])
        # reconstructs tick-time buffer snapshots, the flag tells the
        # batched fold whether any eviction (or crash) invalidated its
        # captured holder rows, and _crash_snaps preserves what a node
        # emitted this tick when a crash clears its columns before the
        # fold lands
        self._tick_log: dict[int, list[tuple]] = {}
        self._evicted_since_tick = False
        self._snap_cache: dict[int, tuple] = {}
        self._crash_snaps: dict[int, tuple] = {}
        self.nodes: dict[int, _VectorNode] = {
            i: _VectorNode(i, VectorNodeProtocol(self, i)) for i in range(n_nodes)
        }
        self._member = rounds.add(
            self._on_round,
            system.gossip_period,
            phase=system.round_phase,
            jitter=system.round_jitter,
        )

    def _full(self, value: int):
        """A column (or event row) holding ``value`` for every node."""
        if self._np is not None:
            return self._np.full(self.n, value, dtype=self._np.int64)
        return [value] * self.n

    def _ring(self, size: int):
        if self._np is not None:
            return self._np.full((size, self.n), -1, dtype=self._np.int64)
        return [None] * size  # rows are made when an event takes the slot

    def _live_slots(self):
        """Ring slots of the live events, in ordinal order."""
        slots = self._slots
        if slots is None:
            lo, hi, mask = self._lo, len(self._eids), self._mask
            if self._np is not None:
                slots = self._np.arange(lo, hi) & mask
            else:
                slots = [e & mask for e in range(lo, hi)]
            self._slots = slots
        return slots

    def _column(self, rows, d: int) -> list[int]:
        """Node ``d``'s entries of ``rows``, one per live event in ordinal order."""
        if self._np is not None:
            return rows[self._live_slots(), d].tolist()
        return [rows[sl][d] for sl in self._live_slots()]

    def _grow(self) -> None:
        """Double the ring, moving every live row to its new slot."""
        old = self._live_slots()
        size = 2 * (self._mask + 1)
        self._mask = size - 1
        self._slots = None
        new = self._live_slots()
        for name in ("_A", "_L"):
            rows = getattr(self, name)
            grown = self._ring(size)
            if self._np is not None:
                grown[new] = rows[old]
            else:
                for o, sl in zip(old, new):
                    grown[sl] = rows[o]
            setattr(self, name, grown)

    # ------------------------------------------------------------------
    # the round tick
    # ------------------------------------------------------------------
    def _on_round(self) -> None:
        sim = self.sim
        now = sim.now
        self._round += 1
        self._next_tick = now + self._period
        self._age_out(now)
        self._tick_log = {}
        self._evicted_since_tick = False
        self._snap_cache = {}
        self._crash_snaps = {}
        if self._order_dirty:
            self._order = [d for d in self._order if d in self._alive]
            self._order_dirty = False
        order = self._order
        a = len(order)
        if not a:
            return
        m = a - 1
        k = self._fanout if self._fanout < m else m
        st_rounds = self._st_rounds
        st_sent = self._st_sent
        np_ = self._np
        if np_ is not None and a == self.n:
            st_rounds += 1
            if k > 0:
                st_sent += k
        elif k > 0:
            for i in order:
                st_rounds[i] += 1
                st_sent[i] += k
        else:
            for i in order:
                st_rounds[i] += 1
        occ = self._occ
        sizes = occ[order] if np_ is not None else [occ[i] for i in order]
        if self._sample_gauges:
            sample_gauge = self.collector.sample_gauge
            for i, size in zip(order, sizes.tolist() if np_ is not None else sizes):
                sample_gauge("buffer_len", i, now, size)
        if k <= 0:
            # a lone survivor gossips to nobody: rounds/ages/gauges still
            # advance, nothing reaches the wire (no draws, no stats)
            return
        # --- one sampling pass for the whole population -------------------
        rows = self._sample_rows(order, a, m, k)
        # --- emission accounting (replicates Network.multicast) -----------
        ns = self.net_stats
        ns.sent += a * k
        ns.payload_items += int(sizes.sum() if np_ is not None else sum(sizes)) * k
        net = self._network
        if (
            type(net._loss) is NoLoss
            and not net._partition_of
            and not net._oneway_blocked
            and net._link_loss is None
            and net._cap.rate is None
        ):
            # the draw-free multicast fast path: every message survives
            n_sched = a * k
        else:
            rows, n_sched = self._chaos_filter(order, rows)
        if not n_sched:
            return
        # holder rows of the live events some node does not know yet,
        # captured at tick time — the only events anyone can still
        # receive for the first time this instant
        unsat_snap: list[tuple] = []
        if np_ is not None and len(self._eids) > self._lo:
            slots = self._live_slots()
            spreading = (self._L[slots] < self._cursor).any(axis=1)
            flatnonzero = np_.flatnonzero
            A = self._A
            for e, sl in zip(
                (flatnonzero(spreading) + self._lo).tolist(), slots[spreading].tolist()
            ):
                em = flatnonzero(A[sl] >= 0)
                if em.size:
                    unsat_snap.append((e, em))
        sim.post(
            self._delay, self._deliver_instant, list(order), rows, sizes, unsat_snap, n_sched
        )

    def _sample_rows(self, order, a: int, m: int, k: int):
        """Sample every emitter's gossip targets for this tick.

        Index-only replica of uniform_sample over each node's full view:
        peers are the alive order minus the owner, so peer index v maps
        to order[v] (v < pi) or order[v + 1] (v >= pi). Draws match
        rng.sample exactly. The numpy twin returns one ``(a, k)`` array
        drawn in bulk from the word bank; the stdlib twin and the
        no-draw case return a list per emitter.
        """
        if k >= m:
            # count >= len(peers): the full view returns every peer,
            # consuming no draws at all
            return [order[:pi] + order[pi + 1 :] for pi in range(a)]
        np_ = self._np
        if np_ is None:
            getrandbits = self._getrandbits
            return [
                [order[v] if v < pi else order[v + 1] for v in sample_indices(getrandbits[i], m, k)]
                for pi, i in enumerate(order)
            ]
        emitters = np_.asarray(order, dtype=np_.intp)
        peers = self._bank.sample_indices(emitters, m, k)
        peers += peers >= np_.arange(a)[:, None]
        return emitters[peers]

    def _chaos_filter(self, order, rows):
        """Apply the network's live fault state to this tick's emissions.

        Replicates :meth:`~repro.sim.network.Network.multicast`'s
        non-fast-path rule order per message — partition, one-way cut,
        bandwidth cap (which consumes window budget), then the loss
        model and the per-link matrix — consuming the same ``("network",)``
        stream draw for draw. The deterministic rules run first for every
        message, then the loss draws over the survivors: valid because
        cap budget depends only on prior deterministic outcomes (cap
        precedes loss per message, and a lost message still consumed its
        budget) and the loss draws are the only RNG consumers.

        The rules filter per-emitter lists. A tick the bank sampled as
        one array is only unpacked for a rule that is live, and gets the
        array back when every message survived, so the fold keeps its
        rectangle.
        """
        sampled = rows
        net = self._network
        ns = self.net_stats
        partition_of = net._partition_of
        pget = partition_of.get if partition_of else None
        oneway_blocked = net._oneway_blocked
        oget = net._oneway_of.get if oneway_blocked else None
        cap_on = net._cap.rate is not None
        if pget is not None or oget is not None or cap_on:
            cap_exceeded = net._cap_exceeded
            rows = _as_lists(rows)
            filtered: list[list[int]] = []
            for pi, row in enumerate(rows):
                src = order[pi]
                sg = pget(src, -1) if pget is not None else -1
                so = oget(src, -1) if oget is not None else -1
                kept = []
                keep = kept.append
                for dst in row:
                    if pget is not None and pget(dst, -1) != sg:
                        ns.partitioned += 1
                        continue
                    if oget is not None and (so, oget(dst, -1)) in oneway_blocked:
                        ns.oneway_blocked += 1
                        continue
                    if cap_on and cap_exceeded():
                        continue  # counted in stats.capped by the network
                    keep(dst)
                filtered.append(kept)
            rows = filtered
        loss = net._loss
        lossless = type(loss) is NoLoss
        link_loss = net._link_loss
        if link_loss is not None:
            # link matrices are sparse: on a tick where no message rides a
            # listed link the rule neither draws nor drops, which leaves
            # the tick to the bulk (or the draw-free) path
            flaky = {src for src, _dst in link_loss}
            if not any(
                (src, dst) in link_loss
                for pi, src in enumerate(order)
                if src in flaky
                for dst in rows[pi]
            ):
                link_loss = None
        if not lossless or link_loss is not None:
            rng = net._rng
            np_ = self._np
            if np_ is not None and link_loss is None and type(loss) is BernoulliLoss:
                # one bulk block of doubles for the whole tick, replayed
                # against (and written back to) the stdlib stream state
                flat, lens = _flatten(rows)
                if flat.size:
                    keep = self._bulk_random(rng, flat.size) >= loss.p
                    n_lost = flat.size - int(np_.count_nonzero(keep))
                    if n_lost:
                        ns.lost += n_lost
                        row_of = np_.repeat(np_.arange(lens.size), lens)
                        ends = np_.cumsum(np_.bincount(row_of[keep], minlength=lens.size)).tolist()
                        flat = flat[keep].tolist()
                        rows = [flat[s:e] for s, e in zip([0] + ends, ends)]
            else:
                rows = _as_lists(rows)
                filtered = []
                for pi, row in enumerate(rows):
                    src = order[pi]
                    kept = []
                    keep = kept.append
                    for dst in row:
                        if not lossless and loss.is_lost(src, dst, rng):
                            ns.lost += 1
                            continue
                        if link_loss is not None:
                            p = link_loss.get((src, dst))
                            if p is not None and rng.random() < p:
                                ns.link_lost += 1
                                continue
                        keep(dst)
                    filtered.append(kept)
                rows = filtered
        if not isinstance(rows, list):
            return rows, rows.size
        n_sched = sum(map(len, rows))
        if not isinstance(sampled, list) and n_sched == sampled.size:
            rows = sampled
        return rows, n_sched

    def _bulk_random(self, rng, count: int):
        """``count`` doubles from ``rng`` in one call, byte-identical.

        ``rng.random()`` is genrand_res53: two 32-bit outputs ``a, b``
        combined as ``((a >> 5) * 2**26 + (b >> 6)) / 2**53``, every step
        exact in a double. One ``getrandbits`` call yields the same
        outputs in the same order (least-significant word first) and
        leaves the stream exactly where ``count`` per-message calls
        would have.
        """
        words = self._np.frombuffer(
            rng.getrandbits(64 * count).to_bytes(8 * count, "little"), dtype="<u4"
        )
        return ((words[0::2] >> 5) * 67108864.0 + (words[1::2] >> 6)) * (
            1.0 / 9007199254740992.0
        )

    def _age_out(self, now: float) -> None:
        # every tick ages out exactly the events born max_age + 1 rounds
        # ago, and births never decrease along ordinals: the expired
        # events are a prefix of the live range
        cutoff = self._round - self._max_age - 1
        birth = self._birth
        lo = top = self._lo
        hi = len(birth)
        while top < hi and birth[top] <= cutoff:
            top += 1
        if top == lo:
            return
        expired = self._live_slots()[: top - lo]
        A = self._A
        if self._np is not None:
            held = (A[expired] >= 0).sum(axis=0)
            self._st_drop_age += held
            self._occ -= held
            total = int(held.sum())
        else:
            drops = self._st_drop_age
            occ = self._occ
            total = 0
            for sl in expired:
                for d, arr in enumerate(A[sl]):
                    if arr >= 0:
                        drops[d] += 1
                        occ[d] -= 1
                        total += 1
        self._lo = top
        self._slots = None
        # age-out accounting is population-wide and carries no per-node
        # payload (unlike overflow's drop-age signal), so one weighted
        # series add replaces the per-holder on_drop calls — integer-valued
        # float adds, exactly equal either way
        if total:
            self.collector.drops_age_out.add(now, total)

    # ------------------------------------------------------------------
    # the delivery instant
    # ------------------------------------------------------------------
    def _deliver_instant(self, emitters, rows, sizes, unsat_snap, n_sched) -> None:
        # Mirrors Network._deliver_batch: arrivals land first, and one
        # same-instant re-post orders the fold after every event already
        # scheduled for this timestamp (sender ticks included).
        self.sim.post(0.0, self._fold_instant, emitters, rows, sizes, unsat_snap, n_sched)

    def _fold_instant(self, emitters, rows, sizes, unsat_snap, n_sched) -> None:
        now = self.sim.now
        self._snap_cache = {}
        # The batched fold assumes tick-time holder rows are still holders,
        # that no dedup store can overflow this instant (a receiver learns
        # each spreading event at most once), that every targeted node
        # is still attached, and that its int64 fold-order key (receiver,
        # emitter position, arrival at the emitter) fits; otherwise the
        # per-message reference fold replays the exact sequential
        # semantics (it owns the delivered/no_route split for nodes that
        # crashed in flight).
        if (
            self._np is not None
            and not self._evicted_since_tick
            and int((self._learned - self._cursor).max()) + len(unsat_snap)
            <= self._dedup_cap
            and self.n * len(emitters) * int(self._arrival.max()) < 2**63
        ):
            self.net_stats.delivered += n_sched
            self._fold_batched(emitters, rows, sizes, unsat_snap, now)
        else:
            self._fold_sequential(emitters, _as_lists(rows), now)

    def _fold_batched(self, emitters, rows, sizes, unsat_snap, now: float) -> None:
        np_ = self._np
        n = self.n
        a = len(emitters)
        tflat, lens = _flatten(rows)
        if not tflat.size:
            return
        ragged = isinstance(rows, list)
        if ragged:
            starts = np_.empty(a, dtype=np_.intp)
            starts[0] = 0
            if a > 1:
                np_.cumsum(lens[:-1], out=starts[1:])
        counts = np_.bincount(tflat, minlength=n)
        items = np_.bincount(
            tflat,
            weights=np_.repeat(np_.asarray(sizes, dtype=np_.float64), lens),
            minlength=n,
        )
        self._st_received += counts
        # emission positions, not node ids: under churn the alive order is
        # no longer sorted, and arrival order (who delivers first, the
        # fold order per receiver) follows emission positions
        emitters = np_.asarray(emitters, dtype=np_.intp)
        pos_of = np_.full(n, -1, dtype=np_.intp)
        pos_of[emitters] = np_.arange(a, dtype=np_.intp)
        A = self._A
        L = self._L
        cursor = self._cursor
        mask = self._mask
        # first receipts: for each still-spreading event, the earliest
        # emitter (in emission order) that holds it and targeted a node
        # unaware of it wins. The (position, position-at-s) ordering keys
        # are read before any row is written — nothing has been evicted
        # since tick, so A[e, s] is still the position e held in s's
        # emitted summary.
        d_parts: list = []
        s_parts: list = []
        p_parts: list = []
        deliveries: list[tuple[int, int]] = []  # (event, receiver count)
        for e, holders in unsat_snap:
            sl = e & mask
            ep = pos_of[holders]
            el = lens[ep]
            if ragged:
                cand_parts = [
                    tflat[s : s + ln]
                    for s, ln in zip(starts[ep].tolist(), el.tolist())
                    if ln
                ]
                if not cand_parts:
                    continue
                cand = (
                    np_.concatenate(cand_parts) if len(cand_parts) > 1 else cand_parts[0]
                )
            else:
                cand = rows[ep].ravel()
            fresh = L[sl, cand] < cursor[cand]
            if not fresh.any():
                continue
            # sorted (receiver, emitter position) pairs as one int64 key
            key = np_.sort(cand[fresh] * a + np_.repeat(ep, el)[fresh])
            keep = np_.ones(key.shape[0], dtype=bool)
            keep[1:] = key[1:] // a != key[:-1] // a
            key = key[keep]
            cd = key // a
            cs = key - cd * a
            d_parts.append(cd)
            s_parts.append(cs)
            p_parts.append(A[sl, emitters[cs]])
            deliveries.append((e, cd.shape[0]))
        new_counts = np_.zeros(n, dtype=np_.int64)
        if d_parts:
            D = np_.concatenate(d_parts)
            S = np_.concatenate(s_parts)
            P = np_.concatenate(p_parts)
            E = np_.repeat(
                np_.fromiter((e for e, _c in deliveries), dtype=np_.int64, count=len(deliveries)),
                [c for _e, c in deliveries],
            )
            # one global sort gives every receiver its fold order:
            # emission position, then the event's position in that
            # emitter's summary — exactly the sequential per-message order
            # (every P is below its emitter's next arrival sequence, so
            # the key stays under the n * a * max-arrival bound checked
            # in _fold_instant)
            w = int(P.max()) + 1
            order = np_.argsort((D * a + S) * w + P)
            D = D[order]
            E = E[order]
            new_counts += np_.bincount(D, minlength=n)
            # a receiver's k-th new event (in fold order) takes its next
            # arrival and learn sequences plus k
            rank = np_.arange(D.shape[0]) - (np_.cumsum(new_counts) - new_counts)[D]
            rows_of = E & mask
            A[rows_of, D] = self._arrival[D] + rank
            L[rows_of, D] = self._learned[D] + rank
            self._arrival += new_counts
            self._learned += new_counts
            self._occ += new_counts
            self._st_delivered += new_counts
            collector = self.collector
            eids = self._eids
            if getattr(collector, "aggregate", False):
                bulk = collector.on_deliver_bulk
                for e, c in deliveries:
                    bulk(eids[e], c, now)
            else:
                deliver = collector.on_deliver
                for d, e in zip(D.tolist(), E.tolist()):
                    deliver(d, eids[e], now)
            for d in np_.flatnonzero(self._occ > self._cap).tolist():
                self._evict_overflow(d, now, "overflow")
        self._st_dups += items.astype(np_.int64) - new_counts

    def _fold_sequential(self, emitters, rows, now: float) -> None:
        """Per-message reference fold: exactly ``_receive_many`` per node.

        Also the only fold that can see a receiver which crashed while
        the instant was in flight — its messages are no-routed, exactly
        as the network's flush does for a detached handler.
        """
        inbox: dict[int, list[int]] = {}
        for pi, row in enumerate(rows):
            s = emitters[pi]
            for d in row:
                q = inbox.get(d)
                if q is None:
                    inbox[d] = [s]
                else:
                    q.append(s)
        ns = self.net_stats
        alive = self._alive
        A = self._A
        L = self._L
        mask = self._mask
        lo = self._lo
        arrival = self._arrival
        learned = self._learned
        cursor = self._cursor
        occ = self._occ
        cap = self._cap
        st_received = self._st_received
        st_delivered = self._st_delivered
        st_dups = self._st_dups
        collector = self.collector
        eids = self._eids
        log = self._tick_log
        dedup_cap = self._dedup_cap
        for d, senders in inbox.items():
            if d not in alive:
                # receiver crashed while the messages were in flight
                ns.no_route += len(senders)
                continue
            ns.delivered += len(senders)
            st_received[d] += len(senders)
            known = self._column(L, d)  # learn sequences, indexed e - lo
            floor = cursor[d]
            dups_d = 0
            for s in senders:
                ids = self._tick_snapshot(s)
                fresh = [e for e in ids if known[e - lo] < floor]
                dups_d += len(ids) - len(fresh)
                if not fresh:
                    continue
                arr = arrival[d]
                seq = learned[d]
                staged = log.setdefault(d, [])
                for e in fresh:
                    sl = e & mask
                    known[e - lo] = seq
                    L[sl][d] = seq
                    seq += 1
                    collector.on_deliver(d, eids[e], now)
                    if A[sl][d] >= 0:
                        raise ValueError(f"event {eids[e]!r} already buffered")
                    A[sl][d] = arr
                    arr += 1
                    staged.append((e, None))
                arrival[d] = arr
                learned[d] = seq
                occ[d] += len(fresh)
                st_delivered[d] += len(fresh)
                if seq - floor > dedup_cap:
                    self._trim_known(d)
                    floor = cursor[d]
                if occ[d] > cap[d]:
                    self._evict_overflow(d, now, "overflow")
            if dups_d:
                st_dups[d] += dups_d

    def _tick_snapshot(self, s: int) -> tuple:
        """What node ``s`` emitted this instant: its buffer at tick time.

        Reconstructed from the live arrival column by undoing the node's
        stage/evict log in reverse, then ordered by arrival. A node that
        crashed since the tick had its summary preserved in
        ``_crash_snaps`` before its columns were cleared.
        """
        snap = self._snap_cache.get(s)
        if snap is not None:
            return snap
        snap = self._crash_snaps.get(s)
        if snap is None:
            held = {
                e: arr for e, arr in enumerate(self._column(self._A, s), self._lo) if arr >= 0
            }
            for e, arr in reversed(self._tick_log.get(s, ())):
                if arr is None:  # staged since the tick
                    held.pop(e, None)
                else:  # evicted since the tick
                    held[e] = arr
            snap = tuple(sorted(held, key=held.__getitem__))
        self._snap_cache[s] = snap
        return snap

    # ------------------------------------------------------------------
    # crash / restart (the churn vocabulary)
    # ------------------------------------------------------------------
    def crash(self, node_id: int) -> None:
        """Silent departure: clear the node's columns, keep its identity.

        The caller (:class:`~repro.workload.cluster.SimCluster`) owns the
        directory and the ``nodes`` dict; this clears the columnar state.
        An in-flight instant may still need what this node emitted at the
        tick, so its tick-time summary is snapshotted first and the
        per-message fold takes over for the instant.
        """
        i = node_id
        self._crash_snaps[i] = self._tick_snapshot(i)
        self._evicted_since_tick = True
        self._alive.discard(i)
        self._order_dirty = True
        A = self._A
        for sl in self._live_slots():
            A[sl][i] = -1
        self._occ[i] = 0
        # the whole dedup store goes at once: no learn sequence issued so
        # far reaches the cursor
        self._cursor[i] = self._learned[i]

    def restart(self, node_id: int) -> None:
        """Re-admit a crashed identity as a fresh process at a round tick.

        Zeroed buffer/dedup/stat columns under the old identity, appended
        at the end of the emission order — exactly where a per-node
        restart lands in the round bucket and the directory.
        """
        i = node_id
        if i in self._alive:
            raise ValueError(f"node {i!r} already exists")
        if not (isinstance(i, int) and 0 <= i < self.n):
            raise RuntimeError(
                f"join of unknown node {i!r} is not supported on the "
                "vectorized mega lane (no columns for it); construct the "
                "cluster with allow_mega=False"
            )
        if self.sim.now + self._phase != self._next_tick:
            raise RuntimeError(
                f"restart of node {i!r} at t={self.sim.now} does not land "
                "on a round tick; off-tick restarts are not supported on "
                "the vectorized mega lane — construct the cluster with "
                "allow_mega=False"
            )
        if self._order_dirty:
            self._order = [d for d in self._order if d in self._alive]
            self._order_dirty = False
        self._order.append(i)
        self._alive.add(i)
        self._next_seq[i] = 0
        self._arrival[i] = 0
        self._cap[i] = self.system.buffer_capacity
        for col in (
            self._st_broadcasts,
            self._st_received,
            self._st_delivered,
            self._st_dups,
            self._st_drop_over,
            self._st_drop_age,
            self._st_drop_resize,
            self._st_rounds,
            self._st_sent,
        ):
            col[i] = 0

    # ------------------------------------------------------------------
    # facade entry points
    # ------------------------------------------------------------------
    def _broadcast(self, i: int, payload: Any, now: float) -> EventId:
        e = len(self._eids)
        eid = EventId(i, self._next_seq[i])
        self._next_seq[i] += 1
        if e - self._lo > self._mask:
            self._grow()
        self._eids.append(eid)
        self._birth.append(self._round)
        self._slots = None
        sl = e & self._mask
        A = self._A
        L = self._L
        L[sl] = self._full(-1)
        L[sl][i] = self._learned[i]
        self._learned[i] += 1
        self._trim_known(i)
        self._st_broadcasts[i] += 1
        self._st_delivered[i] += 1
        # parked by the collector until the sender's on_admitted lands
        self.collector.on_deliver(i, eid, now)
        A[sl] = self._full(-1)
        A[sl][i] = self._arrival[i]
        self._arrival[i] += 1
        self._occ[i] += 1
        self._tick_log.setdefault(i, []).append((e, None))
        self._evict_overflow(i, now, "overflow")
        return eid

    def _set_capacity(self, i: int, capacity: int, now: float) -> None:
        if capacity < 1:
            raise ValueError("buffer capacity must be >= 1")
        self._cap[i] = int(capacity)
        self._evict_overflow(i, now, "resize")

    # ------------------------------------------------------------------
    # shared mutation helpers
    # ------------------------------------------------------------------
    def _evict_overflow(self, d: int, now: float, reason: str) -> None:
        """Drop node ``d``'s oldest buffered events down to its capacity.

        Oldest is smallest ``(birth round, arrival)``, the per-node
        buffer's eviction order; the drops reach the collector in one
        bulk call.
        """
        excess = int(self._occ[d] - self._cap[d])
        if excess <= 0:
            return
        self._evicted_since_tick = True
        birth = self._birth
        victims = heapq.nsmallest(
            excess,
            (
                (birth[e], arr, e)
                for e, arr in enumerate(self._column(self._A, d), self._lo)
                if arr >= 0
            ),
        )
        A = self._A
        mask = self._mask
        log = self._tick_log.setdefault(d, [])
        for _b, arr, e in victims:
            A[e & mask][d] = -1
            log.append((e, arr))
        self._occ[d] -= excess
        st = self._st_drop_over if reason == "overflow" else self._st_drop_resize
        st[d] += excess
        round_ = self._round
        self.collector.on_drop_bulk(reason, now, [round_ - b for b, _a, _e in victims])

    def _trim_known(self, d: int) -> None:
        """Bound node ``d``'s dedup store, dropping its oldest entries.

        The store holds the events ``d`` learned with sequence numbers
        ``cursor .. learned - 1``. It only ever loses its oldest entries
        (here) or all of them (:meth:`crash`), so moving the cursor is
        the whole trim, and an event that aged out needs no entry at all.
        """
        floor = self._learned[d] - self._dedup_cap
        if floor > self._cursor[d]:
            self._cursor[d] = floor

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def _stats_of(self, i: int) -> ProtocolStats:
        return ProtocolStats(
            rounds=int(self._st_rounds[i]),
            broadcasts=int(self._st_broadcasts[i]),
            messages_sent=int(self._st_sent[i]),
            messages_received=int(self._st_received[i]),
            events_delivered=int(self._st_delivered[i]),
            duplicates_seen=int(self._st_dups[i]),
            drops_overflow=int(self._st_drop_over[i]),
            drops_age_out=int(self._st_drop_age[i]),
            drops_resize=int(self._st_drop_resize[i]),
            drops_obsolete=0,
        )

    @property
    def live_events(self) -> int:
        """Number of events still circulating (diagnostics)."""
        return len(self._eids) - self._lo
