from __future__ import annotations

import csv
import json

import numpy as np
import pytest

from wvsched.harness import (
    MyopicSolution,
    ProposedSolution,
    build_solution,
    compute_metrics,
    conservation_ok,
    emit_report,
    run_episode,
    write_price_trace,
    write_replay_table,
)
from wvsched.mdp import UserMdp, common_view
from wvsched.model import ModelError
from wvsched.oracle import centralized_oracle
from wvsched.scenario import ScenarioError, list_presets, load_scenario, preset

PINNED = [0, 1, 1, 1, 0]  # good, bad, bad, bad, good


# ---------------------------------------------------------------------------
# scenario loading
# ---------------------------------------------------------------------------

def test_presets_available():
    names = list_presets()
    for expected in ("illustration-2user", "gop16-default", "tiny-sym",
                     "tiny-asym", "tiny-mix", "tiny-priced", "pds-toy"):
        assert expected in names


def test_gop16_default_preset_values():
    sc = preset("gop16-default")
    assert sc.discount == 0.95
    assert all(u.beta == 1.0 for u in sc.users)
    assert all(np.all(u.channel.gain == 1.4) for u in sc.users)


def test_illustration_preset_values():
    sc = preset("illustration-2user")
    assert [u.template.period for u in sc.users] == [2, 3]
    assert all(u.template.window == 2 for u in sc.users)
    sizes = sorted(du.max_size for du in sc.users[0].template.dus)
    assert sizes == [10, 10, 40]
    assert list(sc.users[0].channel.rate) == [60.0, 40.0]


def test_cyclic_dag_load_error_names_cycle(tmp_path):
    raw = json.loads((preset_path_text()))
    # P and B share deadline and impact; point them at each other
    raw["users"][0]["gop"]["dus"][1]["parents"] = [2]
    raw["users"][0]["gop"]["dus"][2]["parents"] = [1]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw), encoding="utf-8")
    with pytest.raises(ScenarioError, match=r"cycle among ids \[1, 2\]"):
        load_scenario(bad)


def preset_path_text():
    from wvsched.scenario import preset_path
    return preset_path("illustration-2user").read_text(encoding="utf-8")


def test_bad_transition_row_error_names_field(tmp_path):
    raw = json.loads(preset_path_text())
    raw["users"][1]["channel"]["transition"] = [[0.5, 0.6], [0.4, 0.6]]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw), encoding="utf-8")
    with pytest.raises(ScenarioError, match=r"users\[1\].channel"):
        load_scenario(bad)


def test_missing_scenario_file():
    with pytest.raises(ScenarioError, match="not found"):
        load_scenario("no-such-scenario")


# ---------------------------------------------------------------------------
# episodes
# ---------------------------------------------------------------------------

def test_same_seed_reproduces_identical_traces():
    sc = preset("illustration-2user")
    sol = MyopicSolution(sc)
    sol.prepare(np.random.default_rng(0))
    t1 = run_episode(sc, sol, 40, np.random.default_rng(9))
    t2 = run_episode(sc, sol, 40, np.random.default_rng(9))
    for a, b in zip(t1.records, t2.records):
        assert a.s0 == b.s0
        for ua, ub in zip(a.users, b.users):
            assert ua.sent == ub.sent and ua.traffic == ub.traffic


def test_conservation_over_random_episodes():
    sc = preset("illustration-2user")
    sol = MyopicSolution(sc)
    sol.prepare(np.random.default_rng(0))
    for seed in range(5):
        trace = run_episode(sc, sol, 60, np.random.default_rng(seed))
        assert conservation_ok(trace)


def test_message_accounting_is_order_user_count():
    sc = preset("illustration-2user")
    sol = MyopicSolution(sc)
    sol.prepare(np.random.default_rng(0))
    trace = run_episode(sc, sol, 10, np.random.default_rng(0))
    assert all(rec.messages == 2 * len(sc.users) for rec in trace.records)


def test_myopic_replay_reproduces_published_table():
    """Pinned channels good,bad,bad,bad,good reproduce the reference run."""
    sc = preset("illustration-2user")
    sol = MyopicSolution(sc)
    sol.prepare(np.random.default_rng(0))
    trace = run_episode(sc, sol, 5, np.random.default_rng(1),
                        pinned_channels=PINNED)

    sched_u1 = [rec.users[0].sent for rec in trace.records]
    sched_u2 = [rec.users[1].sent for rec in trace.records]
    assert sched_u1 == [(30, 0, 0), (10, 10, 0), (20, 0, 0), (10, 10, 0), (30, 0, 0)]
    assert sched_u2 == [(30, 0), (10, 10), (0, 20), (20, 0), (10, 10)]

    traffic_u2 = [[x for _, x in rec.users[1].traffic] for rec in trace.records]
    assert traffic_u2 == [[40, 10], [10, 10], [0, 40], [20, 10], [10, 10]]

    losses = [{i: rec.users[i].dropped for i in range(2) if rec.users[i].dropped}
              for rec in trace.records]
    assert losses[0] == {0: {"I": 10}, 1: {"I": 10}}
    assert losses[1] == {}
    assert losses[2] == {0: {"I": 20}}
    assert losses[3] == {}
    assert losses[4] == {0: {"I": 10}}


def test_proposed_replay_loses_no_i_frames_after_first_slot(illustration):
    sc = illustration["scenario"]
    sol = illustration["proposed"]
    trace = run_episode(sc, sol, 5, np.random.default_rng(1),
                        pinned_channels=PINNED)
    m = compute_metrics(trace, sc)
    assert m.i_loss_after_first_slot == 0
    # slot 1 loss is unavoidable: 80 I packets against 60 capacity
    slot1_loss = sum(ur.dropped.get("I", 0) for ur in trace.records[0].users)
    assert slot1_loss == 20


def test_zero_traffic_scenario_gives_all_zero_trace(tmp_path):
    raw = json.loads(preset_path_text())
    for user in raw["users"]:
        for d in user["gop"]["dus"]:
            d["size_pmf"] = [[0, 1.0]]
    path = tmp_path / "quiet.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    sc = load_scenario(path)
    sol = MyopicSolution(sc)
    sol.prepare(np.random.default_rng(0))
    trace = run_episode(sc, sol, 10, np.random.default_rng(0))
    for rec in trace.records:
        for ur in rec.users:
            assert sum(ur.sent) == 0 and not ur.dropped


# ---------------------------------------------------------------------------
# oracle sanity
# ---------------------------------------------------------------------------

def test_single_user_oracle_matches_user_mdp():
    base = preset("pds-toy")
    from wvsched.model import ScenarioConfig
    sc = ScenarioConfig(name="solo-slack", users=base.users, bandwidth=2.5,
                        discount=base.discount, channel_correlation="common")
    u = sc.users[0]
    orc = centralized_oracle(sc)
    mdp = UserMdp(u.template, common_view(u.channel, 1), u.beta, u.min_quality,
                  sc.bits_per_packet, sc.discount)
    table = mdp.solve(np.zeros(2), tol=1e-9)
    # with the band never binding, the constrained oracle equals the
    # unconstrained single-user optimum
    assert orc.mean_value == pytest.approx(float(table.values.mean()), abs=1e-5)


def test_unbinding_band_oracle_is_sum_of_user_optima():
    base = preset("tiny-sym")
    from wvsched.model import ScenarioConfig
    slack = ScenarioConfig(name="slack", users=base.users, bandwidth=100.0,
                           discount=base.discount, channel_correlation="common")
    orc = centralized_oracle(slack)
    total = 0.0
    for i, u in enumerate(slack.users):
        mdp = UserMdp(u.template, common_view(u.channel, 2, user=i), u.beta,
                      u.min_quality, 1.0, slack.discount)
        total += float(mdp.solve(np.zeros(2), tol=1e-9).values.mean())
    assert orc.mean_value == pytest.approx(total, abs=1e-5)


def test_oracle_cap_rejection_reports_sizing():
    sc = preset("tiny-priced")
    with pytest.raises(ModelError, match="joint state space"):
        centralized_oracle(sc, state_cap=10)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def test_emit_report_shapes(tmp_path):
    sc = preset("illustration-2user")
    sol = MyopicSolution(sc)
    sol.prepare(np.random.default_rng(0))
    traces = [run_episode(sc, sol, 8, np.random.default_rng(3))]
    paths = emit_report(traces, sc, tmp_path)
    rows = list(csv.reader(open(paths[0], encoding="utf-8")))
    assert len(rows) == 2  # header + one solution
    assert rows[0][0] == "solution"
    with pytest.raises(ModelError):
        emit_report([], sc, tmp_path)


def test_replay_table_layout(tmp_path, illustration):
    sc = illustration["scenario"]
    sol = illustration["proposed"]
    trace = run_episode(sc, sol, 5, np.random.default_rng(1),
                        pinned_channels=PINNED)
    path = write_replay_table(trace, sc, tmp_path / "replay.csv")
    rows = list(csv.reader(open(path, encoding="utf-8")))
    # header + traffic per user + channel + allocation + scheduling per user + loss
    assert len(rows) == 1 + 2 + 1 + 1 + 2 + 1
    assert len(rows[0]) == 6  # label column + five slots
    assert rows[3][0] == "channel"
    assert rows[3][1:] == ["good", "bad", "bad", "bad", "good"]


def test_price_trace_csv(tmp_path, illustration):
    sol = illustration["proposed"]
    path = write_price_trace(sol.report, tmp_path / "prices.csv")
    rows = list(csv.reader(open(path, encoding="utf-8")))
    assert rows[0] == ["iteration", "s0", "usage", "lambda0", "residual"]
    assert len(rows) > 10


def test_value_table_dump(tmp_path):
    sc = preset("pds-toy")
    u = sc.users[0]
    mdp = UserMdp(u.template, common_view(u.channel, 1), u.beta, 0.0, 1.0,
                  sc.discount)
    table = mdp.solve(np.array([0.2, 0.6]))
    out = tmp_path / "values.csv"
    table.dump_csv(out)
    rows = list(csv.reader(open(out, encoding="utf-8")))
    assert rows[0] == ["phase", "buffer", "channel", "value", "action"]
    assert len(rows) == 1 + mdp.layout.n_traffic * 2


def test_build_solution_names():
    sc = preset("tiny-sym")
    for name in ("proposed", "proposed-full", "proposed-learning", "myopic",
                 "lyapunov", "mu-mdp", "proposed+edf", "myopic+hdf"):
        assert build_solution(sc, name) is not None
    with pytest.raises(ModelError):
        build_solution(sc, "nonsense")


def test_learning_solution_rejects_clearing_at_construction():
    sc = preset("illustration-2user")
    with pytest.raises(ModelError, match="PDS learning agents"):
        ProposedSolution(sc, mode="learning", clearing=True)
    with pytest.raises(ModelError, match="PDS learning agents"):
        build_solution(sc, "proposed-learning", clearing=True)


def test_slot_usage_never_exceeds_band_after_scaling(illustration):
    sc = illustration["scenario"]
    trace = run_episode(sc, illustration["proposed"], 60,
                        np.random.default_rng(4))
    for rec in trace.records:
        usage = sum(sum(ur.sent) * sc.bits_per_packet
                    / sc.users[i].channel.rate[rec.s0[i]]
                    for i, ur in enumerate(rec.users))
        assert usage <= sc.bandwidth + 1e-9


def test_conservation_under_clearing_solution(illustration):
    sc = illustration["scenario"]
    trace = run_episode(sc, illustration["proposed"], 80,
                        np.random.default_rng(12))
    assert conservation_ok(trace)
