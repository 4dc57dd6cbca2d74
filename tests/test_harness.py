from __future__ import annotations

import csv
import json
from dataclasses import replace

import numpy as np
import pytest

from wvsched.harness import (
    DriftAgent,
    EpisodeTrace,
    FullMdpAgent,
    ProposedSolution,
    build_solution,
    build_views,
    compute_metrics,
    emit_report,
    run_episode,
    write_price_trace,
    write_replay_table,
)
from wvsched.mdp import UserMdp, ValueTable, common_view
from wvsched import oracle
from wvsched.model import ModelError, ScheduleAction
from wvsched.oracle import centralized_oracle, joint_value_of
from wvsched.pricing import JointChannel, SlotSystem
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


@pytest.mark.parametrize("where, key", [
    ((), "bandwith"),
    (("users", 1), "bta"),
    (("users", 0, "gop"), "perid"),
    (("users", 0, "gop", "dus", 2), "deadline"),
    (("users", 1, "channel"), "rates"),
])
def test_unknown_scenario_key_is_rejected_by_address(where, key, tmp_path, capsys):
    from wvsched.cli import main

    raw = json.loads(preset_path_text())
    node = raw
    for step in where:
        node = node[step]
    node[key] = 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw), encoding="utf-8")
    address = "".join(f"[{s}]" if isinstance(s, int) else f".{s}" for s in where)
    message = f"{address.lstrip('.') or 'scenario'}: unknown field {key!r}"
    with pytest.raises(ScenarioError) as err:
        load_scenario(bad)
    assert err.value.errors == [message]
    assert main(["run", "--scenario", str(bad), "--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err


def test_missing_scenario_file():
    with pytest.raises(ScenarioError, match="not found"):
        load_scenario("no-such-scenario")


# ---------------------------------------------------------------------------
# episodes
# ---------------------------------------------------------------------------

def test_same_seed_reproduces_identical_traces():
    sc = preset("illustration-2user")
    sol = build_solution(sc, "myopic")
    sol.prepare(np.random.default_rng(0))
    t1 = run_episode(sc, sol, 40, np.random.default_rng(9))
    t2 = run_episode(sc, sol, 40, np.random.default_rng(9))
    for a, b in zip(t1.records, t2.records):
        assert a.s0 == b.s0
        for ua, ub in zip(a.users, b.users):
            assert ua.sent == ub.sent and ua.traffic == ub.traffic


def conservation_ok(trace: EpisodeTrace) -> bool:
    """arrived == sent + dropped + remaining, per user and frame type."""
    for i in range(len(trace.arrived)):
        names = set(trace.arrived[i]) | set(trace.sent_totals[i]) | \
            set(trace.dropped_totals[i]) | set(trace.remaining[i])
        for name in names:
            lhs = trace.arrived[i].get(name, 0)
            rhs = (trace.sent_totals[i].get(name, 0)
                   + trace.dropped_totals[i].get(name, 0)
                   + trace.remaining[i].get(name, 0))
            if lhs != rhs:
                return False
    return True


def test_conservation_over_random_episodes():
    sc = preset("illustration-2user")
    sol = build_solution(sc, "myopic")
    sol.prepare(np.random.default_rng(0))
    for seed in range(5):
        trace = run_episode(sc, sol, 60, np.random.default_rng(seed))
        assert conservation_ok(trace)


def test_message_accounting_is_order_user_count():
    sc = preset("illustration-2user")
    sol = build_solution(sc, "myopic")
    sol.prepare(np.random.default_rng(0))
    trace = run_episode(sc, sol, 10, np.random.default_rng(0))
    assert all(rec.messages == 2 * len(sc.users) for rec in trace.records)


def test_myopic_replay_reproduces_published_table():
    """Pinned channels good,bad,bad,bad,good reproduce the reference run."""
    sc = preset("illustration-2user")
    sol = build_solution(sc, "myopic")
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
    sol = build_solution(sc, "myopic")
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


def test_oracle_rejects_floors_above_the_band():
    sc = preset("tiny-sym")
    floors = replace(sc, users=tuple(replace(u, min_quality=100.0) for u in sc.users))
    with pytest.raises(ModelError) as exc:
        centralized_oracle(floors)
    assert str(exc.value) == ("no feasible joint action in joint channel state (1, 1) "
                              "(quality floors exceed the band)")


def test_oracle_pair_cap_is_checked_before_the_kernel(monkeypatch):
    def no_kernel(*args, **kwargs):
        raise AssertionError("kernel built past the pair cap")

    monkeypatch.setattr(oracle, "build_joint_kernel", no_kernel)
    with pytest.raises(ModelError) as exc:
        centralized_oracle(preset("tiny-sym"), pair_cap=100)
    assert str(exc.value) == "joint state-action pairs exceed cap 100"


def test_priced_oracle_bounds_exact_values(priced_results):
    """On the full tiny-priced preset the constrained optimum is at least the
    exact value of the per-state and the uniform-price solutions."""
    orc = centralized_oracle(priced_results["scenario"])
    assert orc.sweeps == 483
    assert orc.mean_value >= priced_results["proposed_value"] - 1e-9
    assert orc.mean_value >= priced_results["uniform_value"] - 1e-9


def test_priced_full_coordination_re_solves_in_few_steps(priced_results):
    """The tiny-priced proposed-full prepare settles where the benchmark's
    reference does, and its warm re-solves take about one improvement step:
    a solver that sweeps its way to each new fixed point fails here."""
    sol = priced_results["solution"]
    assert sol.report.slots_run == 3688
    assert sol.prices.lam == {(0, 0): 0.0, (1, 1): 1.6713572602736357}
    for agent in sol.agents:
        assert 0 < agent.resolves <= agent.steps <= 2 * agent.resolves


def test_frozen_replay_decides_each_distinct_slot_once(priced_results, monkeypatch):
    """After coordination the frozen policies are replayed for 20,000 slots,
    but at the preset seeds only 303 distinct slot states occur on
    gop16-default (`proposed`) and 34 on tiny-priced (`proposed-full`). Each
    decision scales one set of requests, so a replay that decides every
    slot afresh fails here, with no timing involved."""
    from wvsched import pricing

    scaled = []
    scale = pricing.scale_to_budget

    def counted(*args):
        scaled.append(1)
        return scale(*args)

    monkeypatch.setattr(pricing, "scale_to_budget", counted)
    sc = preset("gop16-default")
    sol = build_solution(sc, "proposed")
    sol.prepare(np.random.default_rng(sc.seed))
    gop16 = sol.report
    assert (gop16.eval_slots, gop16.eval_decisions) == (20_000, 303)
    assert len(scaled) == gop16.slots_run + 303
    tiny = priced_results["solution"].report
    assert (tiny.eval_slots, tiny.eval_decisions) == (20_000, 34)


def _send_all(buffers):
    return [ScheduleAction(tuple(b)) for b in buffers]


def test_joint_value_rejects_sends_above_the_buffer():
    def over(jphase, buffers, c0):
        first = buffers[0]
        return [ScheduleAction((first[0] + 1,) + first[1:])] + _send_all(buffers[1:])

    with pytest.raises(ModelError, match=r"user 0 send \(1, 0\) from buffer \(0, 0\)"):
        joint_value_of(preset("tiny-sym"), over)


def test_joint_value_rejects_actions_wider_than_the_context():
    def wide(jphase, buffers, c0):
        return [ScheduleAction(buffers[0] + (0,))] + _send_all(buffers[1:])

    with pytest.raises(ModelError, match="context widths are"):
        joint_value_of(preset("tiny-sym"), wide)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def test_emit_report_shapes(tmp_path):
    sc = preset("illustration-2user")
    sol = build_solution(sc, "myopic")
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


def dump_value_table(table: ValueTable, path) -> None:
    """One CSV row per (traffic state, channel-view state): phase, buffer
    vector, channel-view index, value and the policy's sends."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["phase", "buffer", "channel", "value", "action"])
        for t in range(table.mdp.layout.n_traffic):
            phase, buf = table.mdp.layout.decode(t)
            for v in range(len(table.mdp.view)):
                act = table.mdp.action_for(t, int(table.policy[t, v]))
                w.writerow([phase, " ".join(map(str, buf)), v,
                            f"{table.values[t, v]:.9g}",
                            " ".join(map(str, act.sends))])


def test_value_table_dump(tmp_path):
    sc = preset("pds-toy")
    u = sc.users[0]
    mdp = UserMdp(u.template, common_view(u.channel, 1), u.beta, 0.0, 1.0,
                  sc.discount)
    table = mdp.solve(np.array([0.2, 0.6]))
    out = tmp_path / "values.csv"
    dump_value_table(table, out)
    rows = list(csv.reader(open(out, encoding="utf-8")))
    assert rows[0] == ["phase", "buffer", "channel", "value", "action"]
    assert len(rows) == 1 + mdp.layout.n_traffic * 2


def test_build_solution_names():
    sc = preset("tiny-sym")
    for name in ("proposed", "proposed-full", "proposed-learning", "myopic",
                 "lyapunov", "mu-mdp", "proposed+edf", "myopic+hdf"):
        assert build_solution(sc, name).name == name
    for name in ("nonsense", "proposed-decomposed", "uniform-price"):
        with pytest.raises(ModelError):
            build_solution(sc, name)


@pytest.mark.parametrize("name", ["proposed", "mu-mdp"])
def test_second_prepare_serves_no_decision_cached_under_the_first(name):
    sc = preset("tiny-priced")
    sol = build_solution(sc, name)
    sol.prepare(np.random.default_rng(1))
    system = SlotSystem(sc.templates, JointChannel(sc.channels, sc.channel_correlation),
                        np.random.default_rng(5))
    path = []
    for _ in range(300):
        state = (system.s0, system.contexts, system.buffers)
        path.append(state)
        system.advance(sol.sent_actions(*state).sent)
    sol.prepare(np.random.default_rng(2))
    fresh = build_solution(sc, name)
    fresh.prepare(np.random.default_rng(2))
    for state in path:
        got, want = sol.sent_actions(*state), fresh.sent_actions(*state)
        assert got.lam0 == want.lam0
        assert [a.sends for a in got.sent] == [a.sends for a in want.sent]


@pytest.mark.parametrize("name", ["illustration-2user", "tiny-priced"])
def test_myopic_is_myopic_edf_under_its_own_name(name):
    sc = preset(name)
    myopic, paired = build_solution(sc, "myopic"), build_solution(sc, "myopic+edf")
    for sol in (myopic, paired):
        sol.prepare(np.random.default_rng(0))
    assert myopic.name == "myopic"
    got = run_episode(sc, myopic, 60, np.random.default_rng(sc.seed + 1))
    want = run_episode(sc, paired, 60, np.random.default_rng(sc.seed + 1))
    assert got.solution == "myopic"
    assert len(got.records) == 60
    for a, b in zip(got.records, want.records):
        assert a == b
    assert (got.arrived, got.sent_totals, got.dropped_totals, got.remaining) == \
        (want.arrived, want.sent_totals, want.dropped_totals, want.remaining)


def test_learning_solution_rejects_clearing_at_construction():
    sc = preset("illustration-2user")
    with pytest.raises(ModelError, match="PDS learning agents"):
        ProposedSolution(sc, agent_kind="pds", clearing=True)
    with pytest.raises(ModelError, match="PDS learning agents"):
        build_solution(sc, "proposed-learning", clearing=True)


def test_full_solution_rejects_clearing_at_construction():
    sc = preset("tiny-priced")
    with pytest.raises(ModelError, match="full tabular agents"):
        ProposedSolution(sc, agent_kind="full", clearing=True)
    with pytest.raises(ModelError, match="full tabular agents"):
        build_solution(sc, "proposed-full", clearing=True)


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


def test_sends_over_the_band_raise_in_episodes_and_evaluation():
    """Every new decision's shares are checked against the band: a paired
    scheduler that ignores its capacity and sends whole buffers raises."""
    sc = preset("tiny-sym")
    sol = build_solution(sc, "myopic")
    sol.prepare(np.random.default_rng(0))
    sol.scheduler = lambda ctx, buf, cap: ScheduleAction(tuple(buf))
    with pytest.raises(ModelError, match="of the band"):
        run_episode(sc, sol, 50, np.random.default_rng(1))
    with pytest.raises(ModelError, match="of the band"):
        oracle.evaluate_solution(sc, sol)


def test_drift_agent_fills_by_position_and_bids_its_drift():
    sc = preset("gop16-default")
    agent = DriftAgent(sc.users[0], build_views(sc)[0], sc.discount)
    contexts = [agent.template.context(p) for p in range(agent.template.period)]
    assert any(tuple(range(len(ctx))) != ctx.impact_order() for ctx in contexts)
    for ctx in contexts:
        assert list(agent.fill_order(ctx)) == list(range(len(ctx)))
        for backlog in (0, 3, 11):
            assert [agent.bid(ctx, j, backlog) for j in range(len(ctx))] == \
                [2.0 * backlog + 1.0] * len(ctx)


def test_full_agent_usage_is_the_exact_stationary_usage():
    sc = preset("tiny-priced")
    agent = FullMdpAgent(sc.users[0], build_views(replace(sc, price_view="expected"))[0],
                         sc.bits_per_packet, sc.discount)
    agent.refresh(np.full(len(agent.view), 0.4))
    rng = np.random.default_rng(3)
    usage = agent.usage_by_view(sc.bits_per_packet, rng, 500)
    assert np.array_equal(usage, agent.mdp.expected_usage_by_view(agent.table))
    assert rng.random() == np.random.default_rng(3).random()
