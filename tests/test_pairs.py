"""``tests/pairs.py``: its summary recomputes the committed pair files."""

import json
from pathlib import Path

import pytest

import pairs

ROOT = Path(__file__).resolve().parent.parent


def record(name):
    return json.loads((ROOT / name).read_text())


@pytest.mark.parametrize("name", ["BENCH_32.json", "BENCH_38.json",
                                  "BENCH_39.json", "BENCH_45.json"])
def test_summary_recomputes_every_committed_figure(name):
    bench = record(name)
    assert pairs.summarize(bench["runs"]) == bench["summary"]
    if "development_runs" in bench:
        assert pairs.summarize(bench["development_runs"]) \
            == bench["development_summary"]


def test_bench_30_took_exclusive_quartiles():
    # BENCH_30.json's script took statistics.quantiles' default method,
    # exclusive; its medians and pair counts are the same either way
    bench = record("BENCH_30.json")
    for runs, summary in ((bench["runs"], bench["summary"]),
                          (bench["development_runs"],
                           bench["development_summary"])):
        assert pairs.summarize(runs, "exclusive") == summary
        assert pairs.summarize(runs) != summary


def test_arms_alternate_and_rotate():
    assert [pairs.arms(p, False) for p in range(3)] == [
        ("parent", "change"), ("change", "parent"), ("parent", "change")]
    assert [pairs.arms(p, True) for p in range(4)] == [
        ("parent", "change", "aa"), ("change", "aa", "parent"),
        ("aa", "parent", "change"), ("parent", "change", "aa")]


def test_an_aa_arm_is_counted_against_the_parent():
    runs = [{"workload": "w", "seed": p, "side": arm, "pair": p,
             "ran_first": "parent", "correct": True, "attempted": 1,
             "failed": 0, "metrics": {"m": value}}
            for p, values in enumerate([(3, 2, 4), (3, 4, 2), (3, 1, 1)])
            for arm, value in zip(("parent", "change", "aa"), values)]
    runs[-1]["failed"] = 1
    summary = pairs.summarize(runs)["w"]
    assert summary["m"]["change_lower"] == "2/3"
    assert summary["m"]["aa_lower"] == "2/3"
    assert summary["m"]["parent"] == {"median": 3, "q1": 3, "q3": 3}
    assert summary["runs_correct_with_0_failed"] == "8/9"
