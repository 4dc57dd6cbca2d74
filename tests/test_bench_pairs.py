from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


PARENT = [4.0, 4.1, 3.9, 4.0, 4.2, 3.8, 4.0, 4.1, 3.9, 4.0]
CHANGE = [2.0] * 10


def test_clear_lower_is_better_gain_meets_the_rule(bench_pairs):
    out = bench_pairs.compare(PARENT, CHANGE, "lower", True)
    assert out["change_wins"] == 10 and out["change_losses"] == 0
    assert out["relative_change"] == pytest.approx(-0.5)
    assert out["meets_gain_rule"]


def test_gain_does_not_count_without_sound_change_runs(bench_pairs):
    out = bench_pairs.compare(PARENT, CHANGE, "lower", ok=False)
    assert out["change_wins"] == 10
    assert not out["meets_gain_rule"]


def test_gain_inside_the_parents_spread_does_not_count(bench_pairs):
    parent = [4.0, 3.0, 5.0, 4.0, 3.0, 5.0, 4.0, 3.0, 5.0, 4.0]
    change = [p - 0.1 for p in parent]
    out = bench_pairs.compare(parent, change, "lower", True)
    assert out["change_wins"] == 10
    assert not out["meets_gain_rule"]


def test_higher_is_better_counts_wins_the_other_way(bench_pairs):
    out = bench_pairs.compare(CHANGE, PARENT, "higher", True)
    assert out["change_wins"] == 10 and out["meets_gain_rule"]
    assert not bench_pairs.compare(PARENT, CHANGE, "higher", True)["meets_gain_rule"]


@pytest.mark.parametrize("parent, change, better, want", [
    # inside the bound, either way
    (PARENT, [p * 1.1 for p in PARENT], "lower", "not_worse"),
    (PARENT, [p * 0.5 for p in PARENT], "lower", "not_worse"),
    (PARENT, [p * 0.9 for p in PARENT], "higher", "not_worse"),
    # past the bound, with a parent spread well inside it
    (PARENT, [p * 1.3 for p in PARENT], "lower", "worse"),
    (PARENT, [p * 0.7 for p in PARENT], "higher", "worse"),
    # the parent's own spread (IQR 2 around a median of 3) is wider than the bound
    ([1.0, 2.0, 3.0, 4.0, 5.0] * 2, [3.0] * 10, "lower", "unresolved"),
    ([1.0, 2.0, 3.0, 4.0, 5.0] * 2, [9.0] * 10, "lower", "unresolved"),
    # ... unless every change run beats every parent run
    ([1.0, 2.0, 3.0, 4.0, 5.0] * 2, [0.5] * 10, "lower", "not_worse"),
    ([1.0, 2.0, 3.0, 4.0, 5.0] * 2, [6.0] * 10, "higher", "not_worse"),
])
def test_verdict_against_the_relative_bound(bench_pairs, parent, change, better, want):
    assert bench_pairs.verdict(parent, change, better, 0.2) == want


def test_verdict_on_a_zero_median(bench_pairs):
    zeros = [0.0] * 10
    assert bench_pairs.verdict(zeros, zeros, "lower", 0.05) == "not_worse"
    assert bench_pairs.verdict(zeros, [1.0] * 10, "lower", 0.05) == "worse"


def run(fingerprint="match", failed=0, correct=True):
    return {"metrics": {}, "correct": correct, "fingerprint": fingerprint, "failed": failed}


@pytest.mark.parametrize("change, ok", [
    ([run(), run()], True),
    ([run(), run("mismatch")], False),
    ([run(), run("missing")], False),
    ([run(failed=1), run()], False),
    # a run whose output checks fail (exit 1) may still match and fail no operation
    ([run(), run(correct=False)], False),
])
def test_change_runs_are_sound_only_if_they_match_and_fail_no_more(bench_pairs, change, ok):
    assert bench_pairs.sound([run(), run()], change) is ok
    assert bench_pairs.sound([run(failed=1), run()], [run(failed=1), run()])


def test_record_keeps_one_traced_run_per_side_and_workload(bench_pairs, tmp_path, monkeypatch):
    """After the pairs, each side runs each workload once traced, at the
    first seed, and the record keeps those per-layer metrics."""
    workloads = ["w1", "w2"]
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps({
        "workloads": [{"name": w} for w in workloads],
        "end_to_end": [{"name": "total_s", "better": "lower", "bound": 0.22}]}),
        encoding="utf-8")
    calls = []

    def fake_run_once(checkout, workload, seed, trace=False):
        calls.append((checkout.name, workload, seed, trace))
        metrics = {"harness.run_episode.self_s": 1.0 if checkout.name == "parent" else 0.5} \
            if trace else {"total_s": 2.0}
        return {"metrics": metrics, "correct": True, "fingerprint": "match", "failed": 0}

    monkeypatch.setattr(bench_pairs, "run_once", fake_run_once)
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main(["--parent", str(tmp_path / "parent"), "--change",
                             str(tmp_path / "change"), "--out", str(out)]) == 0
    traced = [c for c in calls if c[3]]
    assert calls[-len(traced):] == traced
    assert sorted(traced) == sorted((side, w, bench_pairs.FIRST_SEED, True)
                                    for side in ("parent", "change") for w in workloads)
    assert len(calls) - len(traced) == 2 * len(workloads) * bench_pairs.PAIRS
    record = json.loads(out.read_text(encoding="utf-8"))
    for w in workloads:
        assert record["workloads"][w]["metrics"]["total_s"]["verdict"] == "not_worse"
        assert record["workloads"][w]["per_layer"] == {
            "parent": {"harness.run_episode.self_s": 1.0},
            "change": {"harness.run_episode.self_s": 0.5}}


def test_parse_run_reads_rounds_fingerprint_and_metrics(bench_pairs):
    """The round count comes from perfbench's `<workload>: N round(s)` line."""
    result = {"correct": True, "attempted": 8, "failed": 0,
              "metrics": {"total_s": {"value": 2.5, "unit": "s"}}}
    stdout = "\n".join([
        "tiny-priced-exact: 2 round(s), seed 44, untraced, host speed factor 1.0000 "
        "(9 probes); normalised value, measured value, unit",
        "  total_s                 2.5            2.6 s",
        "fingerprint: match",
        json.dumps(result),
    ]) + "\n"
    assert bench_pairs.parse_run(stdout, "tiny-priced-exact") == {
        "metrics": {"total_s": 2.5}, "correct": True, "fingerprint": "match", "failed": 0,
        "rounds": 2}
    assert bench_pairs.parse_run(stdout.replace('"correct": true', '"correct": false'),
                                 "tiny-priced-exact")["correct"] is False
    assert bench_pairs.parse_run(stdout.replace(": 2 round", ": 13 round"),
                                 "tiny-priced-exact")["rounds"] == 13
    with pytest.raises(RuntimeError, match="round"):
        bench_pairs.parse_run(stdout, "gop16-coord")


def _record_with_rounds(bench_pairs, tmp_path, monkeypatch, rounds_of,
                        rss_of=lambda side, workload, seed: 70.0) -> dict:
    """The record of a two-workload run in which a run's round count is
    rounds_of(side, workload, seed) and its `peak_rss_mb` is rss_of(side,
    workload, seed)."""
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps({
        "workloads": [{"name": "w1"}, {"name": "w2"}],
        "end_to_end": [{"name": "total_s", "better": "lower", "bound": 0.22},
                       {"name": "peak_rss_mb", "better": "lower", "bound": 0.05}]}),
        encoding="utf-8")

    def fake_run_once(checkout, workload, seed, trace=False):
        return {"metrics": {"total_s": 2.0,
                            "peak_rss_mb": rss_of(checkout.name, workload, seed)},
                "correct": True, "fingerprint": "match", "failed": 0,
                "rounds": rounds_of(checkout.name, workload, seed)}

    monkeypatch.setattr(bench_pairs, "run_once", fake_run_once)
    out = tmp_path / "BENCH.json"
    bench_pairs.main(["--parent", str(tmp_path / "parent"), "--change",
                      str(tmp_path / "change"), "--out", str(out)])
    return json.loads(out.read_text(encoding="utf-8"))


def test_record_keeps_each_runs_round_count(bench_pairs, tmp_path, monkeypatch):
    def rounds_of(side, workload, seed):
        return 1 if side == "parent" else seed % 2 + 1

    record = _record_with_rounds(bench_pairs, tmp_path, monkeypatch, rounds_of)
    seeds = [bench_pairs.FIRST_SEED + k for k in range(bench_pairs.PAIRS)]
    assert record["workloads"]["w1"]["rounds"] == {
        "parent": [1] * bench_pairs.PAIRS, "change": [seed % 2 + 1 for seed in seeds]}


def test_peak_rss_says_whether_every_pair_ran_equal_rounds(bench_pairs, tmp_path, monkeypatch):
    """w1 runs one round on both sides of every pair; w2's change side runs a
    second round in the last pair only."""
    last = bench_pairs.FIRST_SEED + bench_pairs.PAIRS - 1

    def rounds_of(side, workload, seed):
        return 2 if (workload, side, seed) == ("w2", "change", last) else 1

    record = _record_with_rounds(bench_pairs, tmp_path, monkeypatch, rounds_of)
    metrics = {w: record["workloads"][w]["metrics"] for w in ("w1", "w2")}
    assert metrics["w1"]["peak_rss_mb"]["rounds_equal"] is True
    assert metrics["w2"]["peak_rss_mb"]["rounds_equal"] is False
    assert metrics["w2"]["peak_rss_mb"]["verdict"] == "not_worse"
    assert "rounds_equal" not in metrics["w2"]["total_s"]


def test_peak_rss_is_summarised_over_the_equal_round_pairs(bench_pairs, tmp_path, monkeypatch):
    """Only pairs whose sides ran equal rounds enter `equal_rounds`: in w1
    the change runs a second round, and peaks 10 MB higher, on even seeds;
    on odd seeds both sides run one round and the change peaks lower on all
    but the last. w2's sides never run equal rounds."""
    seeds = [bench_pairs.FIRST_SEED + k for k in range(bench_pairs.PAIRS)]
    odd = [seed for seed in seeds if seed % 2]

    def rounds_of(side, workload, seed):
        if workload == "w2":
            return 1 if side == "parent" else 2
        return 2 if side == "change" and seed % 2 == 0 else 1

    def rss_of(side, workload, seed):
        if side == "parent":
            return 70.0 + seed
        return 80.0 + seed if seed % 2 == 0 or seed == odd[-1] else 69.5 + seed

    record = _record_with_rounds(bench_pairs, tmp_path, monkeypatch, rounds_of, rss_of)
    w1 = record["workloads"]["w1"]["metrics"]["peak_rss_mb"]
    assert w1["rounds_equal"] is False
    assert w1["equal_rounds"] == {
        "pairs": len(odd), "parent_median": 70.0 + odd[len(odd) // 2],
        "change_median": 69.5 + odd[len(odd) // 2], "change_wins": len(odd) - 1}
    assert record["workloads"]["w2"]["metrics"]["peak_rss_mb"]["equal_rounds"] == {
        "pairs": 0, "parent_median": None, "change_median": None, "change_wins": 0}
    assert "equal_rounds" not in record["workloads"]["w1"]["metrics"]["total_s"]


def test_a_gain_from_runs_whose_checks_fail_does_not_count(bench_pairs, tmp_path, monkeypatch):
    """A change run whose output checks fail (perfbench exits 1) keeps its
    metrics, and the record keeps each run's `correct`, but its gain does
    not meet the rule however large it is."""
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps({
        "workloads": [{"name": "w1"}],
        "end_to_end": [{"name": "total_s", "better": "lower", "bound": 0.22}]}),
        encoding="utf-8")
    broken = bench_pairs.FIRST_SEED + 3

    def fake_run_once(checkout, workload, seed, trace=False):
        change = checkout.name == "change"
        return {"metrics": {"total_s": 1.0 if change else 4.0},
                "correct": not (change and seed == broken), "fingerprint": "match",
                "failed": 0, "rounds": 1}

    monkeypatch.setattr(bench_pairs, "run_once", fake_run_once)
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main(["--parent", str(tmp_path / "parent"), "--change",
                             str(tmp_path / "change"), "--out", str(out)]) == 0
    entry = json.loads(out.read_text(encoding="utf-8"))["workloads"]["w1"]
    assert entry["correct"]["parent"] == [True] * bench_pairs.PAIRS
    assert entry["correct"]["change"] == [seed != broken for seed in range(
        bench_pairs.FIRST_SEED, bench_pairs.FIRST_SEED + bench_pairs.PAIRS)]
    total = entry["metrics"]["total_s"]
    assert total["change_wins"] == bench_pairs.PAIRS and not total["meets_gain_rule"]
