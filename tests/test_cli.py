from __future__ import annotations

import csv
import json
from functools import partial

import numpy as np
import pytest

from wvsched import cli, harness, pricing
from wvsched.cli import main
from wvsched.scenario import load_scenario


def test_presets_command(capsys):
    assert main(["presets"]) == 0
    out = capsys.readouterr().out
    assert "illustration-2user" in out and "tiny-sym" in out


def test_run_command_writes_reports(tmp_path, capsys):
    code = main(["run", "--scenario", "tiny-sym", "--solution", "myopic",
                 "--slots", "30", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "network payoff" in out
    assert (tmp_path / "metrics.csv").exists()
    assert (tmp_path / "trace_myopic.csv").exists()


def test_run_proposed_emits_price_trace(tmp_path):
    code = main(["run", "--scenario", "tiny-sym", "--solution", "proposed-full",
                 "--slots", "20", "--out", str(tmp_path)])
    assert code == 0
    rows = list(csv.reader(open(tmp_path / "prices.csv", encoding="utf-8")))
    assert rows[0][0] == "iteration"
    assert len(rows) > 5


def test_run_proposed_prints_the_coordination_refreshes(tmp_path, capsys, monkeypatch):
    reports = []
    run = pricing.run_coordination

    def kept(*args, **kwargs):
        out = run(*args, **kwargs)
        reports.append(out[1])
        return out

    monkeypatch.setattr(harness, "run_coordination", kept)
    assert main(["run", "--scenario", "tiny-sym", "--solution", "proposed-full",
                 "--slots", "10", "--out", str(tmp_path)]) == 0
    (report,) = reports
    assert len(report.refreshes) == 2 and min(report.refreshes) >= 1
    assert (f"coordination: {report.slots_run} slots, policy refreshes per user "
            f"{report.refreshes[0]}, {report.refreshes[1]}\n") in capsys.readouterr().out


def test_run_warns_when_the_price_history_was_truncated(tmp_path, capsys, monkeypatch):
    args = ["run", "--scenario", "tiny-sym", "--solution", "proposed", "--slots", "10"]
    assert main(args + ["--out", str(tmp_path / "full")]) == 0
    assert "warning" not in capsys.readouterr().err
    updates = len(list(csv.reader(open(tmp_path / "full" / "prices.csv",
                                       encoding="utf-8")))) - 1
    monkeypatch.setattr(pricing, "PriceTable", partial(pricing.PriceTable, history_len=10))
    assert main(args + ["--out", str(tmp_path / "short")]) == 0
    err = capsys.readouterr().err
    assert (f"warning: prices.csv holds the last 10 price updates; the first "
            f"{updates - 10} were dropped") in err
    rows = list(csv.reader(open(tmp_path / "short" / "prices.csv", encoding="utf-8")))
    assert len(rows) == 1 + 10


def test_compare_command(tmp_path, capsys):
    code = main(["compare", "--scenario", "tiny-sym",
                 "--solutions", "myopic,mu-mdp-full", "--slots", "25",
                 "--seeds", "2", "--out", str(tmp_path)])
    assert code == 0
    rows = list(csv.reader(open(tmp_path / "metrics.csv", encoding="utf-8")))
    assert len(rows) == 3


def test_compare_writes_the_seed_means_it_prints(tmp_path, capsys):
    """metrics.csv holds each solution's means over the N seeds, which
    stdout prints, and N; the trace file keeps the first seed's episode."""
    assert main(["compare", "--scenario", "tiny-asym", "--solutions", "myopic,proposed",
                 "--seeds", "3", "--slots", "40", "--out", str(tmp_path)]) == 0
    printed = {line.split(":")[0]: float(line.rsplit(":", 1)[1])
               for line in capsys.readouterr().out.splitlines()
               if "mean network payoff" in line}
    rows = list(csv.DictReader(open(tmp_path / "metrics.csv", encoding="utf-8")))
    assert [(r["solution"], r["episodes"]) for r in rows] == [("myopic", "3"), ("proposed", "3")]
    for r in rows:
        assert f"{float(r['network_payoff']):.4f}" == f"{printed[r['solution']]:.4f}"

    sc = load_scenario("tiny-asym")
    myopic = harness.build_solution(sc, "myopic")
    myopic.prepare(np.random.default_rng(sc.seed))
    traces = [harness.run_episode(sc, myopic, 40, np.random.default_rng(sc.seed + 1000 + k))
              for k in range(3)]
    pays = [harness.compute_metrics(t, sc).network_payoff for t in traces]
    assert len(set(pays)) == 3
    assert rows[0]["network_payoff"] == f"{sum(pays) / 3:.6g}"
    trace_rows = list(csv.DictReader(open(tmp_path / "trace_myopic.csv", encoding="utf-8")))
    assert [float(r["payoff"]) for r in trace_rows] == \
        [float(f"{ur.payoff:.6g}") for rec in traces[0].records for ur in rec.users]


def test_oracle_command(capsys):
    assert main(["oracle", "--scenario", "tiny-sym"]) == 0
    out = capsys.readouterr().out
    assert "oracle network utility" in out


def test_oracle_command_prints_the_kernel_sizes(capsys):
    """tiny-sym's 2,443 feasible pairs lead to 18 kernel rows (distinct
    post-decision states and c0), in 648 distinct (joint state, row) groups."""
    assert main(["oracle", "--scenario", "tiny-sym"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == (
        "joint states: 162, sweeps: 453, feasible pairs: 2443, "
        "(state, row) groups: 648, kernel rows: 18")


def test_replay_command(tmp_path, capsys):
    code = main(["replay", "--fixture", "illustration-2user",
                 "--solution", "myopic", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "I-frame packets lost" in out
    assert (tmp_path / "replay_myopic.csv").exists()


def test_learn_command(tmp_path, capsys):
    code = main(["learn", "--scenario", "pds-toy", "--slots", "2000",
                 "--out", str(tmp_path)])
    assert code == 0
    rows = list(csv.reader(open(tmp_path / "learning.csv", encoding="utf-8")))
    assert rows[0] == ["slot", "user", "windowed_payoff", "gap_to_planning"]
    assert len(rows) == 1 + 2000 // 500


def test_validation_failure_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"users": []}), encoding="utf-8")
    assert main(["run", "--scenario", str(bad)]) == 2
    assert "validation error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["run", "--scenario", "tiny-sym", "--slots", "-3"],
    ["run", "--scenario", "tiny-sym", "--slots", "0"],
    ["compare", "--scenario", "tiny-sym", "--slots", "0"],
    ["compare", "--scenario", "tiny-sym", "--seeds", "0"],
    ["compare", "--scenario", "tiny-sym", "--seeds", "-1"],
    ["learn", "--scenario", "pds-toy", "--slots", "-5"],
    ["learn", "--scenario", "pds-toy", "--slots", "2.5"],
])
def test_slot_and_seed_counts_below_one_exit_2_before_any_work(argv, tmp_path, capsys,
                                                               monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    for name in ("build_solution", "load_scenario", "pds_learning_curve"):
        monkeypatch.setattr(cli, name, no_work)
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "error: argument --s" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["run", "--scenario", "tiny-sym", "--solution", "myopic", "--seed", "-1"],
    ["compare", "--scenario", "tiny-sym", "--seed", "-1"],
    ["learn", "--scenario", "pds-toy", "--seed", "-7"],
    ["run", "--scenario", "tiny-sym", "--seed", "1.5"],
])
def test_seeds_below_zero_exit_2_before_any_work(argv, tmp_path, capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    for name in ("build_solution", "load_scenario", "pds_learning_curve"):
        monkeypatch.setattr(cli, name, no_work)
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "error: argument --seed" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_seed_zero_is_a_seed(tmp_path):
    assert main(["run", "--scenario", "tiny-sym", "--solution", "myopic", "--seed", "0",
                 "--slots", "5", "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("cap", ["0", "-5"])
def test_max_slots_below_one_exits_2_before_any_work(cap, tmp_path, capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    for name in ("build_solution", "load_scenario"):
        monkeypatch.setattr(cli, name, no_work)
    with pytest.raises(SystemExit) as exc:
        main(["run", "--scenario", "tiny-sym", "--max-slots", cap, "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "error: argument --max-slots: must be at least 1" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("cap", ["0", "-5"])
def test_oracle_cap_below_one_exits_2_before_any_work(cap, capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    for name in ("load_scenario", "centralized_oracle"):
        monkeypatch.setattr(cli, name, no_work)
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--scenario", "tiny-sym", "--cap", cap])
    assert exc.value.code == 2
    assert "error: argument --cap: must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("solutions", [",", "", " , ,"])
def test_compare_without_solution_names_exits_2_before_any_work(solutions, tmp_path, capsys,
                                                                 monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    for name in ("build_solution", "load_scenario"):
        monkeypatch.setattr(cli, name, no_work)
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--scenario", "tiny-sym", "--solutions", solutions,
              "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "error: argument --solutions: no solutions given" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_learning_with_clearing_fails_before_coordination(tmp_path, capsys):
    assert main(["run", "--scenario", "illustration-2user", "--solution",
                 "proposed-learning", "--clearing", "--out", str(tmp_path)]) == 2
    assert "PDS learning agents" in capsys.readouterr().err


def test_full_with_clearing_fails_before_coordination(tmp_path, capsys, monkeypatch):
    def no_coordination(*args, **kwargs):
        raise AssertionError("coordination ran")

    monkeypatch.setattr(harness, "run_coordination", no_coordination)
    assert main(["run", "--scenario", "tiny-priced", "--solution",
                 "proposed-full", "--clearing", "--out", str(tmp_path)]) == 2
    assert "full tabular agents" in capsys.readouterr().err


def test_nonconvergence_exit_code(tmp_path, capsys):
    from wvsched.scenario import preset_path

    raw = json.loads(preset_path("tiny-mix").read_text(encoding="utf-8"))
    # keep the bad-state demand permanently off the band so updates never quiet
    raw["price_tolerance"] = 1e-12
    for user in raw["users"]:
        user["channel"]["rate"][1] = 4.01
    path = tmp_path / "stubborn.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    code = main(["run", "--scenario", str(path), "--solution", "proposed-full",
                 "--slots", "5", "--max-slots", "3000", "--out", str(tmp_path)])
    assert code == 3
    assert "non-convergence" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["lyapunov", "proposed+edf"])
def test_max_slots_reaches_the_allocator_of(name, tmp_path, capsys):
    code = main(["run", "--scenario", "illustration-2user", "--solution", name,
                 "--max-slots", "5", "--slots", "5", "--out", str(tmp_path)])
    assert code == 3
    assert "non-convergence" in capsys.readouterr().err


def test_compare_clearing_reaches_the_allocators_it_builds(tmp_path, monkeypatch):
    built = []

    def recorded(*args, **kwargs):
        built.append(harness.build_solution(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(cli, "build_solution", recorded)
    assert main(["compare", "--scenario", "tiny-sym", "--solutions", "lyapunov,proposed+edf",
                 "--clearing", "--slots", "5", "--seeds", "1", "--out", str(tmp_path)]) == 0
    lyapunov, paired = built
    assert lyapunov.clearing and lyapunov.proposed.clearing
    assert paired.proposed.clearing
    assert paired.proposed is lyapunov.proposed


def test_run_static_pairing_needs_no_proposed_allocator(tmp_path):
    assert main(["run", "--scenario", "tiny-sym", "--solution", "myopic+hdf",
                 "--slots", "5", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "trace_myopic_hdf.csv").exists()


def test_compare_names_each_solution_as_listed(tmp_path):
    names = ["proposed", "proposed-full", "mu-mdp-full"]
    assert main(["compare", "--scenario", "tiny-sym", "--solutions", ",".join(names),
                 "--seeds", "1", "--slots", "20", "--out", str(tmp_path)]) == 0
    rows = list(csv.reader(open(tmp_path / "metrics.csv", encoding="utf-8")))
    assert [row[0] for row in rows[1:]] == names
    assert sorted(p.name for p in tmp_path.glob("trace_*.csv")) == \
        sorted(f"trace_{n}.csv" for n in names)


def _compare_prepares(monkeypatch, tmp_path, solutions):
    """Run `compare` on tiny-sym; return each solution it listed and every
    ProposedSolution.prepare call, in order."""
    built, prepared = [], []

    def recorded(*args, **kwargs):
        built.append(harness.build_solution(*args, **kwargs))
        return built[-1]

    prepare = harness.ProposedSolution.prepare

    def counted(self, rng):
        prepared.append(self)
        prepare(self, rng)

    monkeypatch.setattr(cli, "build_solution", recorded)
    monkeypatch.setattr(harness.ProposedSolution, "prepare", counted)
    assert main(["compare", "--scenario", "tiny-sym", "--solutions", solutions,
                 "--slots", "5", "--seeds", "1", "--out", str(tmp_path)]) == 0
    return built, prepared


def test_compare_pairings_before_proposed_share_one_coordination(tmp_path, monkeypatch):
    (lyapunov, paired, proposed), prepared = _compare_prepares(
        monkeypatch, tmp_path, "lyapunov,proposed+edf,proposed")
    assert lyapunov.proposed is paired.proposed is proposed
    assert prepared == [proposed]


def test_compare_prepares_a_repeated_solution_once(tmp_path, monkeypatch):
    (first, lyapunov), prepared = _compare_prepares(
        monkeypatch, tmp_path, "proposed,lyapunov,proposed")
    assert first is lyapunov.proposed
    assert prepared == [first]


def test_compare_runs_and_reports_a_repeated_solution_once(tmp_path, monkeypatch):
    episodes = []

    def counted(scenario, solution, *args, **kwargs):
        episodes.append(solution.name)
        return harness.run_episode(scenario, solution, *args, **kwargs)

    monkeypatch.setattr(cli, "run_episode", counted)
    assert main(["compare", "--scenario", "tiny-sym", "--solutions", "proposed,lyapunov,proposed",
                 "--seeds", "2", "--slots", "20", "--out", str(tmp_path)]) == 0
    assert episodes == ["proposed"] * 2 + ["lyapunov"] * 2
    rows = list(csv.reader(open(tmp_path / "metrics.csv", encoding="utf-8")))
    assert [row[0] for row in rows[1:]] == ["proposed", "lyapunov"]


def test_compare_shares_only_the_decomposed_allocator(tmp_path, monkeypatch):
    (full, proposed, lyapunov), prepared = _compare_prepares(
        monkeypatch, tmp_path, "proposed-full,proposed,lyapunov")
    assert full.agent_kind == "full"
    assert proposed.agent_kind == "decomposed" and lyapunov.proposed is proposed
    assert prepared == [full, proposed]
