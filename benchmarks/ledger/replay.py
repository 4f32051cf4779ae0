"""Layer replay: per-message costs of the live drivers' layers.

``live-process`` workers are spawned, so no wrapper reaches them. What
can be measured in-process is what each layer costs *per message* on
the very messages the live spec produces: the corpus is the gossip
messages a traced ``live-threaded`` run handed to
``BinaryCodec.encode``, and each layer's operation is timed over it, one
message at a time, reporting the median.

Multiplied by the datagrams a run sends, these costs are the part of
``cpu_s`` the layers explain (``runtime.attributed_share``); the rest is
event-loop, thread and scheduling cost — the number that separates the
process driver's nodes-per-core from the threaded driver's.
"""

from __future__ import annotations

import random
import statistics
import time

from repro.driver import make_protocol_factory
from repro.membership.full import Directory, FullMembershipView
from repro.runtime.codec import BinaryCodec
from repro.runtime.transport import ChaosRules, InMemoryHub, UdpTransport

MIN_CORPUS = 1000


def _median_us(samples: list[float]) -> float:
    return statistics.median(samples) * 1e6


def _time_each(fn, items) -> list[float]:
    clock = time.perf_counter
    out = []
    for item in items:
        t0 = clock()
        fn(item)
        out.append(clock() - t0)
    return out


def layer_costs(corpus: list, spec) -> dict[str, float]:
    """Median per-message cost of each live layer over ``corpus``."""
    if len(corpus) < MIN_CORPUS:
        raise RuntimeError(
            f"layer replay needs at least {MIN_CORPUS} captured messages, got {len(corpus)}"
        )
    codec = BinaryCodec()
    datagrams = [codec.encode(message) for message in corpus]
    costs = {
        "runtime.codec.encode_us": _median_us(_time_each(codec.encode, corpus)),
        "runtime.codec.decode_us": _median_us(_time_each(codec.decode, datagrams)),
        "runtime.codec.bytes_per_msg": float(statistics.median(map(len, datagrams))),
    }

    rules = ChaosRules(loss=spec.baseline_loss)
    try:
        rng = random.Random(spec.seed)
        costs["runtime.transport.chaos_plan_us"] = _median_us(
            _time_each(lambda message: rules.plan(message.sender, 1, rng), corpus)
        )
    finally:
        rules.close()

    hub = InMemoryHub()
    a, b = hub.create("a"), hub.create("b")
    try:

        def memory_hop(data):
            a.send("b", data)
            b.recv(0.0)

        costs["runtime.transport.memory_hop_us"] = _median_us(_time_each(memory_hop, datagrams))
    finally:
        a.close()
        b.close()

    tx, rx = UdpTransport(), UdpTransport()
    try:
        dest = rx.address

        def udp_hop(data):
            tx.send(dest, data)
            rx.recv(1.0)

        costs["runtime.transport.udp_hop_us"] = _median_us(_time_each(udp_hop, datagrams))
    finally:
        tx.close()
        rx.close()

    # a fresh member that hears the whole corpus in capture order: events
    # circulate for max_age rounds, so most summaries are duplicates by the
    # time it sees them again — the steady-state mix of a real node
    node = "replay"
    directory = Directory(list(range(spec.n_nodes)) + [node])
    protocol = make_protocol_factory(spec.protocol, adaptive=spec.adaptive)(
        node,
        spec.system,
        FullMembershipView(directory, node),
        random.Random(spec.seed),
        None,
        None,
        0.0,
    )
    costs["gossip.lpbcast.receive_us_per_msg"] = _median_us(
        _time_each(lambda message: protocol.on_receive_batch([message], 0.0), corpus)
    )
    return costs
