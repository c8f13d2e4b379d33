"""The summary of scripts/ab_pairs.py: medians, the parent's quartiles and
the pairs won, in each metric's better direction."""

import importlib.util
import json
import os

import pytest

SCRIPT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "scripts", "ab_pairs.py")
spec = importlib.util.spec_from_file_location("ab_pairs", SCRIPT)
ab_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_pairs)

SPECS = [{"name": "rate", "better": "higher"}, {"name": "time", "better": "lower"}]


def test_medians_quartiles_and_wins_follow_the_better_direction():
    parent = [{"rate": r, "time": t} for r, t in [(10, 5), (12, 4), (11, 6), (13, 5)]]
    change = [{"rate": r, "time": t} for r, t in [(11, 4), (12, 5), (15, 5), (12, 3)]]
    rate, time = ab_pairs.summarize(SPECS, parent, change)
    assert rate == {"name": "rate", "parent_median": 11.5, "change_median": 12.0,
                    "parent_q1": 10.75, "parent_q3": 12.25, "wins": 2, "pairs": 4}
    # the tied second pair is no win for rate; lower is better for time
    assert (time["parent_median"], time["change_median"], time["wins"]) == (5.0, 4.5, 3)


def test_one_pair_has_no_spread():
    (row,) = ab_pairs.summarize(SPECS[:1], [{"rate": 3.0}], [{"rate": 2.0}])
    assert (row["parent_q1"], row["parent_q3"], row["wins"]) == (3.0, 3.0, 0)


@pytest.mark.parametrize("parent,change", [
    ([{"rate": 1.0}], [{}]),        # a failed change run reports no metrics
    ([], []),
])
def test_a_metric_missing_from_any_run_is_left_out(parent, change):
    assert ab_pairs.summarize(SPECS, parent, change) == []


def test_json_record_keeps_every_run_under_its_workload_and_seed(tmp_path):
    def run(code, rate, unit="r/s"):
        return {"exit": code, "correct": True, "failed": 0,
                "metrics": {"rate": {"value": rate, "unit": unit}}}

    runs = {"parent": [run(0, 10.0), run(0, 12.0)], "change": [run(0, 12.0), run(0, 15.0)]}
    entry = ab_pairs.paired_entry(SPECS, runs)
    assert entry["pairs"] == 2 and entry["exits"] == {"before": [0, 0], "after": [0, 0]}
    assert entry["metrics"]["rate"] == {
        "unit": "r/s",
        "before": {"median": 11.0, "q1": 10.5, "q3": 11.5, "runs": [10.0, 12.0]},
        "after": {"median": 13.5, "q1": 12.75, "q3": 14.25, "runs": [12.0, 15.0]},
        "change_better_pairs": 2, "tied_pairs": 0}
    path = str(tmp_path / "bench.json")
    ab_pairs.record(path, "w1", "seed1", "cmd", entry)
    ab_pairs.record(path, "w1", "seed1_trace1", "cmd", {"pairs": 3})
    ab_pairs.record(path, "w2", "seed1", "cmd", entry)
    with open(path, encoding="utf-8") as f:
        records = json.load(f)
    assert [r["workload"] for r in records] == ["w1", "w2"]
    assert list(records[0]["paired_runs"]) == ["seed1", "seed1_trace1"]
    assert records[0]["paired_runs"]["seed1"] == entry
