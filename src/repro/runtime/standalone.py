"""Standalone node processes — the paper's deployment, one OS process each.

The prototype the paper validates against is 60 separate workstations.
This module provides the same deployment shape in miniature: every node
is its **own operating-system process** speaking the binary wire format
over UDP — a live host (:class:`~repro.runtime.cluster.ThreadedCluster`)
hosting that one node at ``--port``; a launcher spawns and supervises a
whole group locally.

Run one node by hand::

    python -m repro.runtime.standalone --node-id 0 --port 9000 \\
        --peers 1=127.0.0.1:9001 2=127.0.0.1:9002 \\
        --protocol adaptive --period 0.1 --buffer 64 --duration 10 \\
        --offered-rate 5

or a whole group in one command (spawns N child processes)::

    python -m repro.runtime.standalone --launch 8 --base-port 9000 \\
        --protocol adaptive --duration 10

Each node prints a one-line JSON report on exit (deliveries, drops,
adaptive state), so launchers and tests can assert on behaviour.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from typing import Optional, Sequence

from repro.core.config import AdaptiveConfig
from repro.gossip.config import SystemConfig
from repro.runtime.cluster import ThreadedCluster
from repro.runtime.transport import ChaosRules
from repro.sim.network import BernoulliLoss

__all__ = ["build_parser", "run_node", "launch_group", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.runtime.standalone",
        description="Run one gossip node (or launch a local group) over UDP.",
    )
    parser.add_argument("--node-id", type=int, default=0, help="this node's id")
    parser.add_argument("--port", type=int, default=0, help="UDP port (0 = ephemeral)")
    parser.add_argument(
        "--peers",
        nargs="*",
        default=[],
        metavar="ID=HOST:PORT",
        help="peer address book entries",
    )
    parser.add_argument(
        "--protocol",
        default="lpbcast",
        choices=["lpbcast", "adaptive", "static", "bimodal", "adaptive-bimodal"],
    )
    parser.add_argument("--period", type=float, default=0.1, help="gossip period (s)")
    parser.add_argument("--buffer", type=int, default=64, help="|events|max")
    parser.add_argument("--max-age", type=int, default=10)
    parser.add_argument("--fanout", type=int, default=4)
    parser.add_argument("--tau", type=float, default=4.46, help="critical age for adaptive")
    parser.add_argument("--rate-limit", type=float, default=None, help="for --protocol static")
    parser.add_argument("--duration", type=float, default=10.0, help="run time (s)")
    parser.add_argument(
        "--offered-rate", type=float, default=0.0,
        help="application offers per second from this node (0 = silent)",
    )
    parser.add_argument("--seed", type=int, default=0)
    # chaos: the same fault vocabulary the other drivers lower, decided
    # at this node's own sends (it decides the fate of its *outgoing*
    # datagrams from its seeded chaos stream)
    parser.add_argument(
        "--chaos-loss", type=float, default=0.0, metavar="P",
        help="Bernoulli loss probability on every outgoing datagram",
    )
    parser.add_argument(
        "--chaos-link-loss", nargs="*", default=[], metavar="SRC:DST:P",
        help="sparse per-link loss matrix entries, node ids (e.g. 0:3:0.5)",
    )
    parser.add_argument(
        "--chaos-oneway", nargs="*", default=[], metavar="SRCS>DSTS",
        help="directed cut: comma-separated node ids that cannot reach "
             "the ids after '>' (e.g. '0,1>2,3'; reverse direction flows)",
    )
    # launcher mode
    parser.add_argument("--launch", type=int, default=None, metavar="N",
                        help="spawn a local group of N node processes instead")
    parser.add_argument("--base-port", type=int, default=9500)
    parser.add_argument("--senders", type=int, default=1,
                        help="how many of the launched nodes offer traffic")
    return parser


def _parse_link_loss(entries: Sequence[str]) -> dict[tuple[int, int], float]:
    matrix: dict[tuple[int, int], float] = {}
    for entry in entries:
        try:
            src, dst, p = entry.split(":")
            matrix[(int(src), int(dst))] = float(p)
        except ValueError as exc:
            raise SystemExit(f"bad --chaos-link-loss entry {entry!r}: {exc}")
    return matrix


def _parse_oneway(entries: Sequence[str]) -> tuple[list[list[int]], list[tuple[int, int]]]:
    """``SRCS>DSTS`` entries -> (groups, blocked) for ``partition_oneway``."""
    groups: list[list[int]] = []
    blocked: list[tuple[int, int]] = []
    index: dict[tuple[int, ...], int] = {}
    for entry in entries:
        try:
            src_part, dst_part = entry.split(">", 1)
            pair = []
            for part in (src_part, dst_part):
                members = tuple(sorted(int(x) for x in part.split(",") if x))
                if not members:
                    raise ValueError("empty node set")
                if members not in index:
                    index[members] = len(groups)
                    groups.append(list(members))
                pair.append(index[members])
            blocked.append((pair[0], pair[1]))
        except ValueError as exc:
            raise SystemExit(f"bad --chaos-oneway entry {entry!r}: {exc}")
    return groups, blocked


def _build_chaos(args) -> Optional[ChaosRules]:
    """A per-process rule set from the chaos flags, or None when unused."""
    if not (args.chaos_loss > 0 or args.chaos_link_loss or args.chaos_oneway):
        return None
    rules = ChaosRules(loss=BernoulliLoss(args.chaos_loss) if args.chaos_loss > 0 else None)
    matrix = _parse_link_loss(args.chaos_link_loss)
    if matrix:
        rules.set_link_loss(matrix)
    if args.chaos_oneway:
        groups, blocked = _parse_oneway(args.chaos_oneway)
        rules.partition_oneway(groups, blocked)
    return rules


def _parse_peers(entries: Sequence[str]) -> dict[int, tuple[str, int]]:
    book: dict[int, tuple[str, int]] = {}
    for entry in entries:
        try:
            node_part, addr_part = entry.split("=", 1)
            host, port = addr_part.rsplit(":", 1)
            book[int(node_part)] = (host, int(port))
        except ValueError as exc:
            raise SystemExit(f"bad --peers entry {entry!r}: {exc}")
    return book


def run_node(args) -> dict:
    """Run one node for ``--duration`` seconds; returns the exit report."""
    peers = _parse_peers(args.peers)
    book = {args.node_id: ("127.0.0.1", args.port), **peers}
    cluster = ThreadedCluster(
        len(book),
        system=SystemConfig(
            fanout=args.fanout,
            gossip_period=args.period,
            buffer_capacity=args.buffer,
            dedup_capacity=max(4000, 40 * args.buffer),
            max_age=args.max_age,
        ),
        protocol=args.protocol,
        adaptive=AdaptiveConfig(
            age_critical=args.tau,
            sample_period=max(args.period * 5, 0.25),
            initial_rate=max(args.offered_rate, 1.0),
        ),
        rate_limit=args.rate_limit,
        transport="udp",
        seed=args.seed,
        chaos=_build_chaos(args),
        hosted=(args.node_id,),
        port_map=book,
        members=book,
    )
    cluster.start()
    try:
        deadline = time.monotonic() + args.duration
        next_offer = time.monotonic()
        while time.monotonic() < deadline:
            if args.offered_rate > 0 and time.monotonic() >= next_offer:
                cluster.broadcast(args.node_id)
                next_offer += 1.0 / args.offered_rate
            if cluster.wait(0.005):
                break
    finally:
        cluster.stop()
    protocol = cluster.protocol_of(args.node_id)
    stats = protocol.stats
    report = {
        "node_id": args.node_id,
        "protocol": args.protocol,
        "broadcasts": stats.broadcasts,
        "events_delivered": stats.events_delivered,
        "messages_received": stats.messages_received,
        "drops_overflow": stats.drops_overflow,
        "decode_errors": cluster.decode_errors,
        "send_failures": cluster.send_failures,
    }
    allowed = getattr(protocol, "allowed_rate", None)
    if allowed is not None:
        report["allowed_rate"] = round(allowed, 3)
        report["min_buff"] = getattr(protocol, "min_buff_estimate", None)
    if cluster.chaos is not None:
        cs = cluster.chaos.stats
        report["chaos"] = {
            "sent": cs.sent,
            "dropped": cs.dropped,
            "link_dropped": cs.link_dropped,
            "oneway_dropped": cs.oneway_blocked,
            "eaten": cs.eaten,
        }
    return report


def launch_group(args) -> list[dict]:
    """Spawn ``--launch`` node processes on localhost and collect reports."""
    n = args.launch
    if n < 2:
        raise SystemExit("--launch needs at least 2 nodes")
    ports = {i: args.base_port + i for i in range(n)}
    peer_args: dict[int, list[str]] = {}
    for i in range(n):
        peer_args[i] = [
            f"{j}=127.0.0.1:{ports[j]}" for j in range(n) if j != i
        ]
    procs = []
    for i in range(n):
        cmd = [
            sys.executable, "-m", "repro.runtime.standalone",
            "--node-id", str(i),
            "--port", str(ports[i]),
            "--peers", *peer_args[i],
            "--protocol", args.protocol,
            "--period", str(args.period),
            "--buffer", str(args.buffer),
            "--tau", str(args.tau),
            "--duration", str(args.duration),
            "--seed", str(args.seed + i),
        ]
        if i < args.senders and args.offered_rate > 0:
            cmd += ["--offered-rate", str(args.offered_rate)]
        if args.rate_limit is not None:
            cmd += ["--rate-limit", str(args.rate_limit)]
        if args.chaos_loss > 0:
            cmd += ["--chaos-loss", str(args.chaos_loss)]
        if args.chaos_link_loss:
            cmd += ["--chaos-link-loss", *args.chaos_link_loss]
        if args.chaos_oneway:
            cmd += ["--chaos-oneway", *args.chaos_oneway]
        procs.append(subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True))
    reports = []
    for proc in procs:
        out, _ = proc.communicate(timeout=args.duration + 30)
        if proc.returncode != 0:
            raise SystemExit(f"node process failed with code {proc.returncode}")
        reports.append(json.loads(out.strip().splitlines()[-1]))
    return reports


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.launch is not None:
        reports = launch_group(args)
        for report in reports:
            print(json.dumps(report, sort_keys=True))
        return 0
    print(json.dumps(run_node(args), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
