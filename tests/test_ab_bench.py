"""The A/B pairing and statistics of ``tools/ab_bench.py``, on a fake
harness that runs nothing."""

import json
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
TOOL = runpy.run_path(str(ROOT / "tools" / "ab_bench.py"))
SPEC = {"end_to_end": [
    {"name": "samples_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "call_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
]}


def fake_harness(values):
    """A run function that records its calls and answers each with the
    next (samples_per_s, call_p50_ms) pair of ``values[side]``."""
    calls = []
    left = {side: list(pairs) for side, pairs in values.items()}

    def run(side, workload, seed):
        calls.append((workload, seed, side))
        rate, p50 = left[side].pop(0)
        return {"correct": side == "parent", "attempted": 10,
                "failed": len(calls),
                "metrics": {"samples_per_s": {"value": rate, "unit": "1/s"},
                            "call_p50_ms": {"value": p50, "unit": "ms"}}}
    return run, calls


def test_pairs_alternate_with_the_parent_first_in_odd_pairs():
    run, calls = fake_harness({"parent": [(1.0, 1.0)] * 6,
                               "change": [(1.0, 1.0)] * 6})
    paired = TOOL["run_pairs"](["a", "b"], 3, 40, run)
    assert calls == [
        ("a", 40, "parent"), ("a", 40, "change"),
        ("a", 41, "change"), ("a", 41, "parent"),
        ("a", 42, "parent"), ("a", 42, "change"),
        ("b", 40, "parent"), ("b", 40, "change"),
        ("b", 41, "change"), ("b", 41, "parent"),
        ("b", 42, "parent"), ("b", 42, "change")]
    assert paired["a"]["seeds"] == [40, 41, 42]
    assert paired["a"]["first"] == ["parent", "change", "parent"]
    assert len(paired["b"]["runs"]["change"]) == 3


def test_report_counts_wins_and_judges_the_gain_by_the_parent_iqr():
    parent = [(10.0 + i, 50.0) for i in range(10)]       # IQR 4.5
    change = [(p + 6.0, 49.0) for p, _ in parent]
    change[3] = (parent[3][0] - 1.0, 51.0)                # one loss each
    run, _ = fake_harness({"parent": parent, "change": change})
    report = TOOL["summarize"](TOOL["run_pairs"](["w"], 10, 1, run), SPEC)
    w = report["w"]
    assert w["correct"] == {"parent": [True] * 10, "change": [False] * 10}
    assert w["attempted"]["change"] == [10] * 10
    # the n-th run answers failed = n: parent first in odd pairs
    assert w["failed"]["parent"][:2] == [1, 4]
    rate, p50 = w["metrics"]["samples_per_s"], w["metrics"]["call_p50_ms"]
    assert rate["parent"] == [p for p, _ in parent]
    assert rate["parent_median"] == 14.5
    assert rate["change_median"] == 20.5
    assert rate["parent_iqr"] == pytest.approx(4.5)
    assert rate["wins"] == 9 and rate["gain"] and rate["within_bound"]
    assert rate["ratios"][0] == pytest.approx(16.0 / 10.0)
    assert (rate["unit"], rate["better"], rate["bound"]) == ("1/s", "higher", 0.25)
    # lower is better: 49 against 50 wins 9 of 10, but a parent IQR of 0
    # needs only that the medians differ
    assert p50["wins"] == 9 and p50["gain"]
    assert p50["median_ratio"] == pytest.approx(0.98)


@pytest.mark.parametrize("shift, gain, within", [
    (+0.5, False, True),     # wins every pair, but inside the parent's IQR
    (-2.0, False, True),     # loses, inside the bound
    (-4.0, False, False),    # loses by more than 25%
])
def test_a_small_or_negative_shift_is_no_gain(shift, gain, within):
    parent = [(10.0 + i % 3, 1.0) for i in range(10)]    # IQR 1.75
    change = [(p + shift, 1.0) for p, _ in parent]
    report = TOOL["summarize"](TOOL["run_pairs"](
        ["w"], 10, 1, fake_harness({"parent": parent, "change": change})[0]),
        SPEC)["w"]["metrics"]
    assert report["samples_per_s"]["gain"] is gain
    assert report["samples_per_s"]["within_bound"] is within
    # equal values tie: no wins and no gain
    assert report["call_p50_ms"]["wins"] == 0
    assert not report["call_p50_ms"]["gain"]


def test_main_writes_the_report(tmp_path, monkeypatch):
    trees = {}
    for side in ("parent", "change"):
        trees[side] = tmp_path / side
        trees[side].mkdir()
    (trees["change"] / "BENCHMARK.json").write_text(json.dumps(
        dict(SPEC, workloads=[{"name": "w"}])))
    values = {"parent": iter([5.0, 6.0]), "change": iter([7.0, 8.0])}

    def harness_run(root, workload, seed, seconds):
        side = "parent" if root == trees["parent"] else "change"
        rate = next(values[side])
        return {"correct": True, "attempted": 3, "failed": 0, "metrics": {
            "samples_per_s": {"value": rate}, "call_p50_ms": {"value": 1.0}}}

    main = TOOL["main"]
    monkeypatch.setitem(main.__globals__, "harness_run", harness_run)
    monkeypatch.chdir(tmp_path)
    assert main([str(trees["parent"]), str(trees["change"]), "--label", "t",
                 "--pairs", "2", "--first-seed", "9", "--seconds", "1"]) == 0
    report = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert report["pairs"] == 2 and report["first_seed"] == 9
    w = report["workloads"]["w"]
    assert w["seeds"] == [9, 10]
    assert w["metrics"]["samples_per_s"]["parent"] == [5.0, 6.0]
    assert w["metrics"]["samples_per_s"]["change"] == [7.0, 8.0]
