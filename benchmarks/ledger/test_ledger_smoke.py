"""Smoke test of the perf ledger: the one command at 1/20 scale.

Runs every workload once, untraced and traced, each in its own child
process, and holds ``BENCHMARK.json`` to what the command emits: every
declared name is emitted and nothing else, the file stays inside the
benchmark contract's limits, and the self-checks pass.
"""

from __future__ import annotations

import json
import pathlib
import re
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_smoke_run_matches_the_declared_benchmark(tmp_path):
    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert 2 <= len(contract["workloads"]) <= 8
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in contract[key]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for metric in contract["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert metric["better"] in ("lower", "higher") and 0 < metric["bound"] <= 0.25
    setup = [m for m in contract["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    for metric in contract["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}

    out = tmp_path / "smoke.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--trace", "--out", str(out)],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout[-4000:]
    record = json.loads(out.read_text(encoding="utf-8"))
    assert list(record["workloads"]) == [w["name"] for w in contract["workloads"]]
    assert record["host"]["cpu_count"] and record["host"]["numpy"]
    for workload, runs in record["workloads"].items():
        for mode, declared in (("untraced", "end_to_end"), ("traced", "per_layer")):
            run = runs[mode]
            assert run["correct"] and run["failed"] == 0 and run["attempted"] >= 1, (workload, mode)
            assert {
                name: value["unit"] for name, value in run["metrics"].items()
            } == {m["name"]: m["unit"] for m in contract[declared]}, (workload, mode)
        assert all(v["value"] > 0 for v in runs["untraced"]["metrics"].values()), workload
