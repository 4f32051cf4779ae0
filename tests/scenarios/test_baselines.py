"""Baseline capture/compare: exactness, tolerance bands, round trips."""

import json
import math

import pytest

from repro.scenarios.baselines import (
    MetricDrift,
    baseline_key,
    baseline_path,
    compare_to_baseline,
    load_baseline,
    render_report,
    update_baseline,
)
from repro.scenarios.expectations import (
    ExpectationCheck,
    MetricValue,
    ScenarioResult,
)


# kinds for the fabricated metrics (mirrors what ScenarioResult.from_run
# declares for the real ones); anything else defaults to "ratio"
KINDS = {
    "messages": "count",
    "drops_overflow": "count",
    "senders_reached": "count",
    "complete_fraction": "fraction",
    "atomicity": "fraction",
}


def result(scenario="fab", driver="sim", profile="test", **metrics) -> ScenarioResult:
    return ScenarioResult(
        scenario=scenario,
        driver=driver,
        profile=profile,
        n_nodes=8,
        metrics={
            name: MetricValue(value, "test", KINDS.get(name, "ratio"))
            for name, value in metrics.items()
        },
    )


def test_update_then_compare_is_clean(tmp_path):
    res = result(atomicity=0.987654321012345, redundancy=5.25, drop_age=math.nan)
    path, changed = update_baseline(res, tmp_path)
    assert changed and path == baseline_path("fab", tmp_path)
    diff = compare_to_baseline(res, tmp_path)
    assert diff.clean
    assert diff.compared == 3  # NaN == NaN through the null round trip
    # identical re-capture leaves the file untouched (clean git tree)
    _, changed_again = update_baseline(res, tmp_path)
    assert not changed_again


def test_exact_compare_catches_tiny_drift(tmp_path):
    update_baseline(result(atomicity=0.95), tmp_path)
    drifted = result(atomicity=0.95 + 1e-12)
    diff = compare_to_baseline(drifted, tmp_path)
    assert not diff.clean
    assert diff.drifts[0].metric == "atomicity"


def test_missing_baseline_is_reported(tmp_path):
    diff = compare_to_baseline(result(atomicity=1.0), tmp_path)
    assert diff.missing and not diff.clean
    assert "--update-baselines" in diff.describe()


def test_entries_key_by_profile_and_driver(tmp_path):
    update_baseline(result(profile="smoke", atomicity=1.0), tmp_path)
    update_baseline(result(profile="paper", atomicity=0.9), tmp_path)
    update_baseline(result(profile="smoke", driver="threaded", senders_reached=3.0), tmp_path)
    doc = load_baseline("fab", tmp_path)
    assert set(doc["entries"]) == {"smoke/sim", "paper/sim", "smoke/threaded"}
    # a result at one scale is never judged against another scale's entry
    assert compare_to_baseline(result(profile="quick", atomicity=1.0), tmp_path).missing


def test_horizon_is_part_of_the_key(tmp_path):
    res = result(atomicity=1.0)
    update_baseline(res, tmp_path, horizon=12.0)
    assert baseline_key(res, 12.0) == "test/sim@12"
    assert compare_to_baseline(res, tmp_path, horizon=12.0).clean
    assert compare_to_baseline(res, tmp_path).missing


# ----------------------------------------------------------------------
# tolerance banding (the threaded driver's comparison mode)
# ----------------------------------------------------------------------
def test_tolerance_band_edges(tmp_path):
    update_baseline(result(driver="threaded", drops_overflow=1000.0), tmp_path)

    def diff_at(value):
        return compare_to_baseline(
            result(driver="threaded", drops_overflow=value), tmp_path
        )

    # default threaded tolerance is 0.5 relative + 5 absolute slack
    assert diff_at(1000.0).clean
    assert diff_at(1400.0).clean
    assert not diff_at(3500.0).clean
    assert not diff_at(100.0).clean
    assert diff_at(1400.0).tolerance == 0.5


def test_fraction_metrics_use_an_absolute_band(tmp_path):
    # a relative band + count slack would make drift on [0, 1] metrics
    # undetectable; bounded metrics compare inside |delta| <= tol/2
    update_baseline(result(driver="threaded", complete_fraction=0.95), tmp_path)
    near = compare_to_baseline(
        result(driver="threaded", complete_fraction=0.75), tmp_path
    )
    assert near.clean  # |0.20| <= 0.25
    collapsed = compare_to_baseline(
        result(driver="threaded", complete_fraction=0.50), tmp_path
    )
    assert not collapsed.clean  # |0.45| > 0.25: a delivery collapse is caught


def test_ratio_metrics_above_one_get_no_slack(tmp_path):
    update_baseline(result(driver="threaded", redundancy=3.0), tmp_path)
    assert compare_to_baseline(result(driver="threaded", redundancy=4.0), tmp_path).clean
    assert not compare_to_baseline(
        result(driver="threaded", redundancy=7.9), tmp_path
    ).clean
    # the count slack must not swallow a small-magnitude ratio regression
    update_baseline(result(scenario="r2", driver="threaded", redundancy=1.5), tmp_path)
    assert not compare_to_baseline(
        result(scenario="r2", driver="threaded", redundancy=4.9), tmp_path
    ).clean


def test_absolute_slack_covers_near_zero_counts(tmp_path):
    update_baseline(result(driver="threaded", messages=0.0), tmp_path)
    assert compare_to_baseline(
        result(driver="threaded", messages=3.0), tmp_path
    ).clean
    assert not compare_to_baseline(
        result(driver="threaded", messages=20.0), tmp_path
    ).clean
    # 1 -> 0 is the most common near-zero wobble and must not flap
    update_baseline(result(scenario="c2", driver="threaded", messages=1.0), tmp_path)
    assert compare_to_baseline(
        result(scenario="c2", driver="threaded", messages=0.0), tmp_path
    ).clean
    # ...while the same 1 -> 0 move on a *fraction* is a total collapse
    update_baseline(result(scenario="f2", driver="threaded", complete_fraction=1.0), tmp_path)
    assert not compare_to_baseline(
        result(scenario="f2", driver="threaded", complete_fraction=0.0), tmp_path
    ).clean


def test_integer_json_values_compare_without_crashing(tmp_path):
    # hand-edited snapshots naturally write counts as JSON ints
    update_baseline(result(driver="threaded", drops_overflow=1000.0), tmp_path)
    path = baseline_path("fab", tmp_path)
    doc = json.loads(path.read_text())
    doc["entries"]["test/threaded"]["metrics"]["drops_overflow"]["value"] = 1000
    path.write_text(json.dumps(doc))
    assert compare_to_baseline(
        result(driver="threaded", drops_overflow=1100.0), tmp_path
    ).clean


def test_explicit_tolerance_overrides_driver_default(tmp_path):
    update_baseline(result(atomicity=1.0), tmp_path)
    near = result(atomicity=0.99)
    assert not compare_to_baseline(near, tmp_path).clean  # sim default: exact
    assert compare_to_baseline(near, tmp_path, tolerance=0.05).clean


def test_metric_set_changes_are_drift(tmp_path):
    update_baseline(result(atomicity=1.0, redundancy=2.0), tmp_path)
    gone = compare_to_baseline(result(atomicity=1.0), tmp_path)
    assert [d.metric for d in gone.drifts] == ["redundancy"]
    assert "absent from current run" in gone.drifts[0].describe()
    added = compare_to_baseline(
        result(atomicity=1.0, redundancy=2.0, brand_new=7.0), tmp_path
    )
    assert [d.metric for d in added.drifts] == ["brand_new"]
    # absence reads as a schema change, not as a recorded NaN
    assert "not in baseline" in added.drifts[0].describe()
    assert "NaN ->" not in added.drifts[0].describe()


def test_schema_mismatch_demands_recapture(tmp_path):
    update_baseline(result(atomicity=1.0), tmp_path)
    path = baseline_path("fab", tmp_path)
    doc = json.loads(path.read_text())
    doc["schema"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="re-capture"):
        load_baseline("fab", tmp_path)
    # the compare path reports it as a gate failure, not a traceback
    diff = compare_to_baseline(result(atomicity=1.0), tmp_path)
    assert not diff.clean and diff.missing
    assert "re-capture" in diff.describe()
    # ...and the recommended remedy must actually work: re-capture
    # replaces the stale-schema file instead of re-raising
    _, changed = update_baseline(result(atomicity=1.0), tmp_path)
    assert changed
    assert load_baseline("fab", tmp_path)["schema"] == 1
    assert compare_to_baseline(result(atomicity=1.0), tmp_path).clean


def test_render_report_counts_verdicts(tmp_path):
    update_baseline(result(atomicity=1.0), tmp_path)
    diff = compare_to_baseline(result(atomicity=0.5), tmp_path)
    checks = (
        ExpectationCheck("ReliabilityAtLeast(0.95)", "atomicity", passed=False,
                         observed=0.5, bound=0.95, detail="atomicity=0.5 >= 0.95"),
        ExpectationCheck("RedundancyAtMost(5)", "redundancy", passed=True,
                         skipped=True, detail="driver does not report it"),
    )
    text = render_report("Report", [("fab", checks, diff)])
    assert "FAIL ReliabilityAtLeast(0.95)" in text
    assert "SKIP RedundancyAtMost(5)" in text
    assert "DRIFT" in text
    assert "baseline 0.5" not in text  # drift line shows baseline 1 -> current 0.5
    assert "expectations 0 pass, 1 fail, 1 skipped" in text
    assert "0 clean, 1 drifted, 0 missing" in text


def test_drift_describe_handles_nan():
    drift = MetricDrift(metric="m", baseline=None, current=2.0)
    assert "NaN" in drift.describe()
