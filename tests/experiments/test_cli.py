"""Tests for the experiment CLI (run against a tiny profile via env)."""

import dataclasses

import pytest

import repro.experiments.cli as cli
from repro.experiments import profiles


@pytest.fixture
def tiny_profile(monkeypatch):
    """Shrink the quick profile so CLI tests stay fast."""
    tiny = dataclasses.replace(
        profiles.QUICK,
        name="tiny",
        n_nodes=12,
        n_senders=3,
        duration=40.0,
        warmup=15.0,
        drain=10.0,
        buffer_sizes=(20, 40),
        input_rates=(5.0, 40.0),
        offered_load=30.0,
        fig9_duration=60.0,
        fig9_t1=20.0,
        fig9_t2=40.0,
    )
    monkeypatch.setitem(profiles._PROFILES, "tiny", tiny)
    cli._SWEEP_CACHE.clear()
    return tiny


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    assert code == 0
    return capsys.readouterr().out


def test_parser_rejects_unknown_command():
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["figure99"])


def test_figure2_output(tiny_profile, capsys):
    out = run_cli(capsys, "figure2", "--profile", "tiny")
    assert "Figure 2" in out
    assert "drop age" in out
    # one data row per swept rate
    data_lines = [l for l in out.splitlines() if l and l[0].isspace() or l[:1].isdigit()]
    assert len(out.splitlines()) >= 2 + len(tiny_profile.input_rates)


def test_figures_6_7_8_share_sweep(tiny_profile, capsys, monkeypatch):
    calls = []
    original = cli.figures.buffer_sweep_comparison

    def counting(profile, *a, **kw):
        calls.append(profile.name)
        return original(profile, *a, **kw)

    monkeypatch.setattr(cli.figures, "buffer_sweep_comparison", counting)
    out6 = run_cli(capsys, "figure6", "--profile", "tiny")
    out7 = run_cli(capsys, "figure7", "--profile", "tiny")
    assert "Figure 6" in out6
    assert "Figure 7" in out7
    assert calls == ["tiny"]  # second figure reused the cache


def test_calibrate_command(tiny_profile, capsys):
    out = run_cli(
        capsys, "calibrate", "--profile", "tiny", "--buffers", "25",
        "--iterations", "2",
    )
    assert "tau =" in out
    assert "buffer=25" in out


def test_output_file(tiny_profile, capsys, tmp_path):
    target = tmp_path / "fig2.txt"
    run_cli(capsys, "figure2", "--profile", "tiny", "-o", str(target))
    assert "Figure 2" in target.read_text()


def test_list_scenarios_command(capsys):
    out = run_cli(capsys, "list-scenarios")
    for name in ("correlated-loss", "flash-crowd", "rolling-churn"):
        assert name in out


def test_run_scenario_requires_names():
    with pytest.raises(SystemExit):
        cli.main(["run-scenario"])


def test_run_scenario_sim(tiny_profile, capsys, tmp_path):
    target = tmp_path / "scenarios.json"
    out = run_cli(
        capsys,
        "run-scenario",
        "flash-crowd",
        "--profile",
        "tiny",
        "--horizon",
        "16",
        "--json",
        str(target),
    )
    assert "Scenario matrix" in out
    assert "flash-crowd" in out
    doc = target.read_text()
    assert '"scenario": "flash-crowd"' in doc


def test_run_scenario_both_drivers(tiny_profile, capsys):
    out = run_cli(
        capsys,
        "run-scenario",
        "slow-receivers",
        "--profile",
        "tiny",
        "--horizon",
        "12",
        "--driver",
        "both",
    )
    assert "sim driver" in out
    assert "threaded driver" in out


def test_run_scenario_threaded_prints_condition_coverage(tiny_profile, capsys):
    # wan-clustered has a topology, which the chaos transport now lowers
    # onto real sends: the summary line must surface injected coverage
    out = run_cli(
        capsys, "run-scenario", "wan-clustered", "--profile", "tiny",
        "--horizon", "8", "--driver", "threaded",
    )
    assert "injected=1 skipped=0" in out
    assert "injected: topology/latency model" in out


# ----------------------------------------------------------------------
# check-scenarios: the regression gate
# ----------------------------------------------------------------------
def check_cli(capsys, tmp_path, *argv, scenario="slow-receivers", horizon="12"):
    code = cli.main([
        "check-scenarios", scenario, "--profile", "tiny",
        "--horizon", horizon, "--baseline-dir", str(tmp_path / "baselines"),
        *argv,
    ])
    return code, capsys.readouterr().out


def test_check_scenarios_baseline_round_trip(tiny_profile, capsys, tmp_path):
    # no baseline yet: missing counts as a failure
    code, out = check_cli(capsys, tmp_path)
    assert code == 1
    assert "no baseline recorded" in out
    # capture, then check — clean on the capturing dispatch mode...
    code, out = check_cli(capsys, tmp_path, "--update-baselines")
    assert code == 0
    assert "updated" in out
    code, out = check_cli(capsys, tmp_path)
    assert code == 0
    assert "clean" in out and "exact" in out
    # ...and byte-identical on the other dispatch mode (the lanes'
    # guarantee carried through the baseline layer)
    code, out = check_cli(capsys, tmp_path, "--dispatch", "vector")
    assert code == 0
    assert "clean" in out


def test_check_scenarios_detects_drift(tiny_profile, capsys, tmp_path):
    import json

    check_cli(capsys, tmp_path, "--update-baselines")
    path = tmp_path / "baselines" / "slow-receivers.json"
    doc = json.loads(path.read_text())
    doc["entries"]["tiny/sim@12"]["metrics"]["atomicity"]["value"] = 0.123
    path.write_text(json.dumps(doc))
    code, out = check_cli(capsys, tmp_path)
    assert code == 1
    assert "DRIFT" in out
    assert "atomicity: baseline 0.123" in out


def test_check_scenarios_fails_on_violated_expectation(tiny_profile, capsys, tmp_path):
    # at tiny scale the static companion barely degrades, so flash-crowd's
    # AdaptiveBeatsStatic margin is a genuinely violated expectation
    check_cli(capsys, tmp_path, "--update-baselines", scenario="flash-crowd")
    code, out = check_cli(capsys, tmp_path, scenario="flash-crowd")
    assert code == 1
    assert "FAIL AdaptiveBeatsStatic" in out
    assert "baseline" in out and "clean" in out  # baselines clean, gate still red


def test_check_scenarios_tolerance_never_loosens_sim(tiny_profile, capsys, tmp_path):
    import json

    check_cli(capsys, tmp_path, "--update-baselines")
    path = tmp_path / "baselines" / "slow-receivers.json"
    doc = json.loads(path.read_text())
    entry = doc["entries"]["tiny/sim@12"]["metrics"]["atomicity"]
    entry["value"] = entry["value"] * 0.99  # within any reasonable band
    path.write_text(json.dumps(doc))
    # a huge --tolerance must not relax the sim driver's exact contract
    code, out = check_cli(capsys, tmp_path, "--tolerance", "10.0")
    assert code == 1
    assert "DRIFT" in out


def test_check_scenarios_json_payload(tiny_profile, capsys, tmp_path):
    check_cli(capsys, tmp_path, "--update-baselines")
    target = tmp_path / "check.json"
    code, _ = check_cli(capsys, tmp_path, "--json", str(target))
    assert code == 0
    import json

    doc = json.loads(target.read_text())
    payload = doc["results"]["check-scenarios"]
    assert payload["violations"] == 0
    assert payload["baseline_failures"] == 0
    run = payload["runs"][0]
    assert run["scenario"] == "slow-receivers"
    assert run["baseline"]["missing"] is False
    assert run["checks"][0]["passed"] is True


def test_all_command_runs_every_figure(tiny_profile, capsys, monkeypatch):
    # stub the slow calibration-based figure to keep the test quick
    monkeypatch.setattr(
        cli, "_run_figure4", lambda profile, args: "Figure 4 (stubbed)"
    )
    monkeypatch.setattr(
        cli, "_run_calibrate", lambda profile, args: "tau = stubbed"
    )
    out = run_cli(capsys, "all", "--profile", "tiny")
    for marker in ("Figure 2", "Figure 4", "Figure 6", "Figure 7",
                   "Figure 8", "Figure 9", "tau ="):
        assert marker in out


def test_fuzz_scenarios_cli(tiny_profile, capsys):
    out = run_cli(
        capsys, "fuzz-scenarios", "--seed", "7", "--count", "3",
        "--profile", "tiny",
    )
    assert "Fuzz sweep — seed 7, 3 case(s), sim driver" in out
    assert "3/3 passed" in out


def test_fuzz_scenarios_only_and_json(tiny_profile, capsys, tmp_path):
    import json

    target = tmp_path / "fuzz.json"
    out = run_cli(
        capsys, "fuzz-scenarios", "--seed", "7", "--only", "1",
        "--profile", "tiny", "--json", str(target),
    )
    assert "1 case(s)" in out
    doc = json.loads(target.read_text())
    payload = doc["results"]["fuzz-scenarios"]
    assert payload["seed"] == 7
    assert payload["failures"] == 0
    (report,) = payload["reports"]
    (outcome,) = report["outcomes"]
    assert outcome["index"] == 1
    assert outcome["passed"] is True
    assert outcome["repro"] == ""  # repro commands only accompany failures


def test_bisect_scenario_nothing_to_bisect_exits_2(tiny_profile, capsys):
    # a healthy fuzz case has nothing to shrink: distinct exit code, so
    # scripts can tell "already passing" from "bisection ran"
    code = cli.main([
        "bisect-scenario", "--fuzz-seed", "7", "--index", "0",
        "--profile", "tiny",
    ])
    out = capsys.readouterr().out
    assert code == 2
    assert "does not fail under the predicate" in out


def test_bisect_scenario_requires_a_subject(tiny_profile):
    with pytest.raises(SystemExit):
        cli.main(["bisect-scenario", "--profile", "tiny"])
    with pytest.raises(SystemExit):
        cli.main(["bisect-scenario", "--fuzz-seed", "7", "--profile", "tiny"])
