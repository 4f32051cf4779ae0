"""Standalone shard host — the paper's deployment, one OS process each.

The prototype the paper validates against is 60 separate workstations.
Here each OS process hosts ``--nodes`` of a registered scenario on the
live host over real UDP sockets, making the same calls a process-driver
worker makes (:mod:`repro.runtime.worker`) without the control pipe.
Every process reads one port-map file, a JSON object mapping every
identity of the scenario
(:func:`~repro.runtime.process_cluster.scenario_identities`) to
``[host, port]``, so the processes may run on different machines::

    python -m repro.runtime.standalone --scenario partition-heal --quick \\
        --nodes 0,2,4,6,8,10,12,14 --port-map ports.json

Each process prints its shard's
:class:`~repro.scenarios.runner.LiveScenarioReport` as one JSON line;
:func:`~repro.runtime.process_cluster.fold_reports` folds the shards
into the run's report. ``--launch N`` instead runs the whole scenario
on ``N`` local worker processes, one node per OS process at ``N`` equal
to the group size.

Limit: standalone processes share no start barrier. Each shard starts
its spec clock when its own process starts, so the timed conditions of
different shards are skewed by the spread of the launches.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Optional, Sequence

from repro.experiments.profiles import get_profile
from repro.runtime.cluster import ThreadedCluster
from repro.runtime.process_cluster import scenario_identities
from repro.scenarios.registry import get_scenario
from repro.scenarios.runner import live_report, run_scenario_process, smoke_profile

__all__ = ["build_parser", "host_shard", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.runtime.standalone",
        description="Host a shard of a registered scenario over UDP.",
    )
    parser.add_argument("--scenario", required=True, metavar="NAME",
                        help="registered scenario name")
    parser.add_argument("--profile", default=None,
                        help="scale profile (default: REPRO_PROFILE or quick)")
    parser.add_argument("--quick", action="store_true",
                        help="smoke scale, as run-scenario --quick")
    parser.add_argument("--horizon", type=float, default=None, metavar="S",
                        help="shrink the scenario to S spec seconds")
    parser.add_argument("--nodes", metavar="IDS",
                        help="comma-separated identities this process hosts")
    parser.add_argument("--port-map", metavar="FILE",
                        help="JSON object: every identity -> [host, port]")
    parser.add_argument("--period", type=float, default=0.1, metavar="WALL_S",
                        help="wall seconds per spec gossip round (default 0.1)")
    parser.add_argument("--launch", type=int, default=None, metavar="N",
                        help="run the whole scenario on N local worker processes instead")
    return parser


def _resolve_spec(args):
    try:
        profile = get_profile(args.profile)
        spec = get_scenario(args.scenario, smoke_profile(profile) if args.quick else profile)
        return spec if args.horizon is None else spec.with_horizon(args.horizon)
    except ValueError as exc:
        raise SystemExit(f"standalone: {exc}") from None


def _parse_nodes(text: str, spec) -> tuple:
    identities = scenario_identities(spec)
    nodes = []
    for entry in text.split(","):
        try:
            node = int(entry)
        except ValueError:
            raise SystemExit(f"standalone: bad --nodes entry {entry!r}") from None
        if node not in identities:
            raise SystemExit(f"standalone: --nodes entry {node} is not in {spec.name!r}")
        nodes.append(node)
    return tuple(nodes)


def _load_port_map(path: str, spec) -> dict:
    """``{identity: (host, port)}`` from the file, covering ``spec``."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise SystemExit(f"standalone: cannot read port map {path!r}: {exc}") from None
    except ValueError as exc:
        raise SystemExit(f"standalone: port map {path!r} is not JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise SystemExit(f"standalone: port map {path!r} is not a JSON object")
    port_map = {}
    for key, addr in raw.items():
        try:
            host, port = addr
            port_map[int(key)] = (str(host), int(port))
        except (TypeError, ValueError):
            raise SystemExit(f"standalone: bad port-map entry {key!r}: {addr!r}") from None
    for node in scenario_identities(spec):
        if node not in port_map:
            raise SystemExit(f"standalone: port map {path!r} lacks {spec.name!r} identity {node}")
    return port_map


def host_shard(spec, nodes: Sequence, port_map: dict, gossip_period: float = 0.1):
    """Host ``nodes`` of ``spec`` over UDP for the whole scenario; the
    shard's :class:`~repro.scenarios.runner.LiveScenarioReport`."""
    cluster = ThreadedCluster.from_scenario(
        spec, gossip_period=gossip_period, transport="udp", hosted=nodes, port_map=port_map
    )
    wall = spec.duration * cluster.scale
    cluster.start()
    try:
        cluster.wait(wall)
    finally:
        cluster.stop()
    return live_report(spec, cluster, "process", wall)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.period <= 0:
        raise SystemExit(f"standalone: --period must be > 0, not {args.period}")
    spec = _resolve_spec(args)
    if args.launch is not None:
        report = run_scenario_process(spec, gossip_period=args.period, workers=args.launch)
    elif args.nodes is None or args.port_map is None:
        raise SystemExit("standalone: pass --nodes and --port-map, or --launch N")
    else:
        nodes = _parse_nodes(args.nodes, spec)
        report = host_shard(spec, nodes, _load_port_map(args.port_map, spec), args.period)
    print(json.dumps(dataclasses.asdict(report), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
