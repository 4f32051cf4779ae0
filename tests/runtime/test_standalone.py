"""Tests for the standalone node CLI and process launcher."""

import json
import subprocess
import sys

import pytest

from repro.runtime.standalone import _parse_peers, build_parser


def test_parse_peers():
    book = _parse_peers(["1=127.0.0.1:9001", "2=10.0.0.5:80"])
    assert book == {1: ("127.0.0.1", 9001), 2: ("10.0.0.5", 80)}


def test_parse_peers_rejects_garbage():
    with pytest.raises(SystemExit):
        _parse_peers(["nonsense"])
    with pytest.raises(SystemExit):
        _parse_peers(["1=nohost"])


def test_parser_defaults():
    args = build_parser().parse_args([])
    assert args.protocol == "lpbcast"
    assert args.duration == 10.0
    assert args.launch is None


def test_parser_rejects_unknown_protocol():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["--protocol", "smoke-signals"])


def test_single_node_process_runs_and_reports():
    out = subprocess.run(
        [
            sys.executable, "-m", "repro.runtime.standalone",
            "--node-id", "7", "--port", "0", "--duration", "1.0",
            "--offered-rate", "5",
        ],
        capture_output=True, text=True, timeout=60, check=True,
    )
    report = json.loads(out.stdout.strip().splitlines()[-1])
    assert report["node_id"] == 7
    assert report["broadcasts"] >= 3
    # alone in the group: its own deliveries only, nothing received
    assert report["events_delivered"] == report["broadcasts"]
    assert report["messages_received"] == 0


def test_launched_group_disseminates():
    out = subprocess.run(
        [
            sys.executable, "-m", "repro.runtime.standalone",
            "--launch", "3", "--base-port", "9760",
            "--protocol", "lpbcast", "--duration", "2.5",
            "--offered-rate", "10", "--senders", "1", "--period", "0.05",
        ],
        capture_output=True, text=True, timeout=90, check=True,
    )
    reports = [json.loads(line) for line in out.stdout.strip().splitlines()]
    assert len(reports) == 3
    by_id = {r["node_id"]: r for r in reports}
    sent = by_id[0]["broadcasts"]
    assert sent >= 10
    # non-senders received most of the sender's events over real UDP
    for node_id in (1, 2):
        assert by_id[node_id]["events_delivered"] >= 0.6 * sent
        assert by_id[node_id]["decode_errors"] == 0


def test_parse_link_loss_builds_a_matrix():
    from repro.runtime.standalone import _parse_link_loss

    matrix = _parse_link_loss(["0:1:0.5", "2:0:0.1"])
    assert matrix == {(0, 1): 0.5, (2, 0): 0.1}
    assert _parse_link_loss([]) == {}


def test_parse_link_loss_rejects_garbage():
    from repro.runtime.standalone import _parse_link_loss

    for bad in ("0:1", "0:1:x", "a:b:0.5", "0:1:0.5:9"):
        with pytest.raises(SystemExit, match="chaos-link-loss"):
            _parse_link_loss([bad])


def test_parse_oneway_shares_groups_across_entries():
    from repro.runtime.standalone import _parse_oneway

    groups, blocked = _parse_oneway(["0,1>2,3", "2,3>0,1"])
    assert groups == [[0, 1], [2, 3]]
    # both directions named the same two groups — no duplicates minted
    assert blocked == [(0, 1), (1, 0)]


def test_parse_oneway_rejects_garbage():
    from repro.runtime.standalone import _parse_oneway

    for bad in ("0,1", ">2", "0,1>", "a>b"):
        with pytest.raises(SystemExit, match="chaos-oneway"):
            _parse_oneway([bad])


def test_build_chaos_is_none_without_flags():
    from repro.runtime.standalone import _build_chaos, build_parser

    args = build_parser().parse_args(["--node-id", "0"])
    assert _build_chaos(args) is None
    args = build_parser().parse_args(
        ["--node-id", "0", "--chaos-oneway", "0>1",
         "--chaos-link-loss", "0:1:0.5"]
    )
    rules = _build_chaos(args)
    assert rules is not None
