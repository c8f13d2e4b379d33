"""The summary of scripts/ab_pairs.py: medians, the parent's quartiles and
the pairs won, in each metric's better direction."""

import importlib.util
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
