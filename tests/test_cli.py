from __future__ import annotations

import csv
import json

from wvsched.cli import main


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


def test_compare_command(tmp_path, capsys):
    code = main(["compare", "--scenario", "tiny-sym",
                 "--solutions", "myopic,mu-mdp-full", "--slots", "25",
                 "--seeds", "2", "--out", str(tmp_path)])
    assert code == 0
    rows = list(csv.reader(open(tmp_path / "metrics.csv", encoding="utf-8")))
    assert len(rows) == 3


def test_oracle_command(capsys):
    assert main(["oracle", "--scenario", "tiny-sym"]) == 0
    out = capsys.readouterr().out
    assert "oracle network utility" in out


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


def test_learning_with_clearing_fails_before_coordination(tmp_path, capsys):
    assert main(["run", "--scenario", "illustration-2user", "--solution",
                 "proposed-learning", "--clearing", "--out", str(tmp_path)]) == 2
    assert "PDS learning agents" in capsys.readouterr().err


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