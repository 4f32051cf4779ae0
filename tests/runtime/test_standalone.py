"""Tests for the standalone shard host and its launcher."""

import json
import subprocess
import sys

import pytest

from repro.runtime.process_cluster import (
    fold_reports,
    scenario_identities,
    seeded_port_map,
)
from repro.runtime.standalone import _load_port_map, build_parser, main
from repro.scenarios.registry import get_scenario
from repro.scenarios.runner import LiveScenarioReport, smoke_profile

QUICK = ["--scenario", "partition-heal", "--quick"]


@pytest.fixture(scope="module")
def spec():
    return get_scenario("partition-heal", smoke_profile())


def _write_port_map(path, port_map) -> str:
    path.write_text(json.dumps({str(node): list(addr) for node, addr in port_map.items()}))
    return str(path)


@pytest.fixture
def port_map_file(spec, tmp_path):
    return _write_port_map(
        tmp_path / "ports.json", seeded_port_map(scenario_identities(spec), spec.seed)
    )


def _standalone(*args: str) -> list:
    return [sys.executable, "-m", "repro.runtime.standalone", *args]


def test_parser_defaults():
    args = build_parser().parse_args(["--scenario", "partition-heal"])
    assert args.profile is None and not args.quick and args.horizon is None
    assert args.period == 0.1
    assert args.nodes is None and args.port_map is None and args.launch is None


def test_port_map_file_loads_every_identity(spec, tmp_path):
    port_map = {node: ("127.0.0.1", 30000 + node) for node in scenario_identities(spec)}
    path = _write_port_map(tmp_path / "ports.json", port_map)
    assert _load_port_map(path, spec) == port_map


def test_unknown_scenario_is_rejected():
    with pytest.raises(SystemExit, match="unknown scenario 'smoke-signals'"):
        main(["--scenario", "smoke-signals", "--launch", "2"])


def test_port_map_that_is_not_json_is_rejected(tmp_path):
    path = tmp_path / "ports.json"
    path.write_text("{0: nope")
    with pytest.raises(SystemExit, match="is not JSON"):
        main([*QUICK, "--nodes", "0", "--port-map", str(path)])


def test_port_map_lacking_an_identity_is_rejected(spec, tmp_path):
    port_map = seeded_port_map(scenario_identities(spec), spec.seed, probe=False)
    del port_map[5]
    path = _write_port_map(tmp_path / "ports.json", port_map)
    with pytest.raises(SystemExit, match="lacks 'partition-heal' identity 5"):
        main([*QUICK, "--nodes", "0", "--port-map", path])


def test_port_map_with_a_bad_entry_is_rejected(tmp_path):
    path = tmp_path / "ports.json"
    path.write_text(json.dumps({"0": 9000}))
    with pytest.raises(SystemExit, match="bad port-map entry '0'"):
        main([*QUICK, "--nodes", "0", "--port-map", str(path)])


def test_empty_nodes_are_rejected(port_map_file):
    with pytest.raises(SystemExit, match="bad --nodes entry ''"):
        main([*QUICK, "--nodes", "", "--port-map", port_map_file])


def test_nodes_outside_the_scenario_are_rejected(port_map_file):
    with pytest.raises(SystemExit, match="--nodes entry 99 is not in 'partition-heal'"):
        main([*QUICK, "--nodes", "0,99", "--port-map", port_map_file])


def test_nonpositive_period_is_rejected():
    with pytest.raises(SystemExit, match="--period must be > 0"):
        main([*QUICK, "--period", "0", "--launch", "2"])


def test_a_shard_needs_nodes_and_a_port_map():
    with pytest.raises(SystemExit, match="--nodes and --port-map"):
        main([*QUICK, "--nodes", "0"])


def test_two_shard_processes_fold_into_one_run(spec, port_map_file):
    """Even and odd ids in two OS processes: one partition-heal run."""
    halves = [range(0, spec.n_nodes, 2), range(1, spec.n_nodes, 2)]
    procs = [
        subprocess.Popen(
            _standalone(*QUICK, "--nodes", ",".join(map(str, half)),
                        "--port-map", port_map_file),
            stdout=subprocess.PIPE, text=True,
        )
        for half in halves
    ]
    shards = []
    try:
        for proc in procs:
            out, _ = proc.communicate(timeout=90)
            assert proc.returncode == 0
            shards.append(LiveScenarioReport(**json.loads(out.strip().splitlines()[-1])))
    finally:
        for proc in procs:
            proc.kill()
            proc.wait()
    report = fold_reports(shards, n_workers=2, port_attempts=1)
    assert report.skipped_count == 0
    assert report.injected_count == 1  # the partition window lowered
    assert report.decode_errors == 0
    assert report.delivered_min > 0


def test_launched_group_disseminates():
    out = subprocess.run(
        _standalone(*QUICK, "--launch", "2"),
        capture_output=True, text=True, timeout=120, check=True,
    )
    report = json.loads(out.stdout.strip().splitlines()[-1])
    assert report["n_workers"] == 2
    assert report["skipped_count"] == 0
    assert report["decode_errors"] == 0
    assert report["delivered_min"] > 0
