from __future__ import annotations

import csv
import json
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from wvsched import harness
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
from wvsched.mdp import UserMdp, ValueTable, checked_price, common_view
from wvsched import oracle, pricing
from wvsched.model import ModelError, ScheduleAction, UserState, bandwidth_usage
from wvsched.oracle import centralized_oracle, joint_value_of
from wvsched.pricing import CoordinationError, JointChannel, SlotSystem, run_coordination
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


def preset_path_text(name="illustration-2user"):
    from wvsched.scenario import preset_path
    return preset_path(name).read_text(encoding="utf-8")


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


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("path, value, address", [
    (("bandwidth",), "1.0", "bandwidth"),
    (("users", 0, "beta"), "0", "users[0].beta"),
    (("users", 0, "min_quality"), "0", "users[0].min_quality"),
    (("users", 0, "gop", "period"), "1", "users[0].gop.period"),
    (("users", 0, "channel", "rate", 1), "4", "users[0].channel.rate[1]"),
    (("users", 0, "channel", "transition"), [[0.6, 0.4], [1.0]],
     "users[0].channel: channel.transition"),
    (("users", 1), "b", "users[1]"),
    (("users", 0, "gop"), [1], "users[0].gop"),
    (("users", 0, "gop", "dus", 0), 7, "users[0].gop.dus[0]"),
    (("users", 0, "gop", "dus"), {"id": 0}, "users[0].gop.dus"),
    (("seed",), -3, "seed"),
    (("seed",), 1.5, "seed"),
    (("seed",), True, "seed"),
    (("users", 0, "gop", "dus", 0, "deadline_offset"), 0.7,
     "users[0].gop.dus[0].deadline_offset"),
    (("users", 0, "gop", "dus", 0, "size_pmf", 0, 0), 2.5,
     "users[0].gop.dus[0].size_pmf[0][0]"),
    (("bandwidth",), NAN, "bandwidth"),
    (("bits_per_packet",), NAN, "bits_per_packet"),
    (("price_tolerance",), NAN, "price_tolerance"),
    (("users", 0, "beta"), NAN, "users[0].beta"),
    (("users", 0, "min_quality"), NAN, "users[0].min_quality"),
    (("users", 0, "gop", "dus", 0, "size_pmf", 0, 1), NAN,
     "users[0].gop.dus[0].size_pmf[0][1]"),
    (("users", 0, "channel", "rate", 0), NAN, "users[0].channel.rate[0]"),
    (("users", 1, "channel", "transition", 0, 1), NAN, "users[1].channel.transition[0][1]"),
    (("bandwidth",), INF, "bandwidth"),
    (("users", 0, "channel", "gain_to_noise", 1), INF, "users[0].channel.gain_to_noise[1]"),
])
def test_malformed_scenario_field_is_rejected_by_address(path, value, address, tmp_path):
    """A field of the wrong kind, a negative seed, a fractional count or a
    number that is not finite raises ScenarioError naming the field; none
    gets through to a bare exception."""
    raw = json.loads(preset_path_text("tiny-sym"))
    node = raw
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw), encoding="utf-8")
    with pytest.raises(ScenarioError) as err:
        load_scenario(bad)
    assert len(err.value.errors) == 1
    assert address in err.value.errors[0]


def test_run_on_a_malformed_scenario_exits_2_without_a_traceback(tmp_path, capsys):
    from wvsched.cli import main

    raw = json.loads(preset_path_text("tiny-sym"))
    raw["bandwidth"] = NAN
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["run", "--scenario", str(bad), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "validation error: bandwidth: expected a finite number, got nan" in err
    assert "Traceback" not in err


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


@pytest.mark.parametrize("slots", [-3, 2.5, True, False, "3", None, np.float64(4.0)])
def test_slot_counts_must_be_integers_of_at_least_zero(slots):
    """An episode or a replay of a negative, fractional, bool or non-number
    slot count raises `ModelError` naming it, an episode before any draw;
    numpy integers are slot counts too."""
    sc = preset("illustration-2user")
    sol = build_solution(sc, "myopic")
    sol.prepare(np.random.default_rng(0))
    rng = np.random.default_rng(1)
    message = re.escape(f"slots must be an integer >= 0; got {slots!r}")
    with pytest.raises(ModelError, match=message):
        run_episode(sc, sol, slots, rng)
    assert rng.random() == np.random.default_rng(1).random()
    system = SlotSystem(sc.templates, JointChannel(sc.channels, sc.channel_correlation),
                        np.random.default_rng(1))
    with pytest.raises(ModelError, match="slots must be an integer >= 0"):
        pricing.replay(system, lambda system: (0.0, []), slots)
    assert run_episode(sc, sol, np.int64(4), np.random.default_rng(1)) == \
        run_episode(sc, sol, 4, np.random.default_rng(1))


@pytest.mark.parametrize("pinned", [[], [-1], [0.6], [7], [0, 2], [0, "1"], [True, False],
                                    [1, True]])
def test_pinned_channels_must_be_channel_states(pinned):
    """An empty sequence, a non-integer (a bool included) or a state outside
    the chain raises `ModelError` before any draw; numpy integers are
    channel states too."""
    sc = preset("illustration-2user")
    sol = build_solution(sc, "myopic")
    sol.prepare(np.random.default_rng(0))
    rng = np.random.default_rng(1)
    with pytest.raises(ModelError, match="pinned channels"):
        run_episode(sc, sol, 5, rng, pinned_channels=pinned)
    assert rng.random() == np.random.default_rng(1).random()
    trace = run_episode(sc, sol, 5, np.random.default_rng(1),
                        pinned_channels=np.array(PINNED))
    assert [rec.s0 for rec in trace.records] == [(h, h) for h in PINNED]


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


def test_priced_full_coordination_keeps_its_policy_factors(priced_results):
    """Most warm re-solves re-evaluate the previous policy at new prices, so
    each UserMdp keeps that policy's LU factor: the tiny-priced proposed-full
    prepare builds 16 factors for 1,166 improvement steps. A solver that
    factorises every step fails here."""
    steps = sum(agent.steps for agent in priced_results["solution"].agents)
    assert 10 * sum(priced_results["factorizations"]) <= steps


def test_frozen_replay_decides_each_distinct_slot_once(priced_results, monkeypatch):
    """After coordination the frozen policies are replayed for 20,000 slots,
    but at the preset seeds only 303 distinct slot states occur on
    gop16-default (`proposed`) and 34 on tiny-priced (`proposed-full`). Each
    decision scales one set of requests, so a replay that decides every
    slot afresh fails here, with no timing involved. The replay steps the
    other slots by successor lookup: 1,775 (slot state, draw outcome)
    successors on gop16-default and 102 on tiny-priced."""
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
    assert gop16.eval_transitions == 1_775
    tiny = priced_results["solution"].report
    assert (tiny.eval_slots, tiny.eval_decisions, tiny.eval_transitions) == (20_000, 34, 102)


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


def test_solutions_see_common_random_numbers():
    """Under one free-channel episode seed, a battery of solutions sees the
    same joint channel path and the same arrivals whatever it sends: each
    slot's draws depend on the slot's phase alone, so differences between
    solutions are paired on common random numbers."""
    battery = ("proposed", "myopic", "lyapunov", "mu-mdp", "proposed+edf")
    sends = set()
    for name in ("tiny-sym", "illustration-2user"):
        sc = preset(name)
        proposed = build_solution(sc, "proposed")
        seen = {}
        for sol_name in battery:
            sol = build_solution(sc, sol_name, proposed)
            sol.prepare(np.random.default_rng(sc.seed))
            trace = run_episode(sc, sol, 200, np.random.default_rng(sc.seed + 1))
            seen[sol_name] = ([rec.s0 for rec in trace.records], trace.arrived)
            sends.add((name, tuple(tuple(ur.sent for ur in rec.users) for rec in trace.records)))
        path, arrived = seen["proposed"]
        assert len(set(path)) > 1
        for sol_name in battery:
            assert seen[sol_name] == (path, arrived), sol_name
    # the battery does not send alike, so the equal draws are not vacuous
    assert len(sends) > 2


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


def test_each_priced_rule_records_the_price_it_decided_at(illustration_suite):
    """`mu-mdp` decides at its one price and proportional trims at the
    table's price; clearing decides at the table's price where the requests
    fit the band (`_clear`'s own test) and at a raised price where not."""
    sc = illustration_suite["scenario"]
    uniform = illustration_suite["solutions"]["mu-mdp"]
    clearing = illustration_suite["solutions"]["proposed"]
    trimmed = ProposedSolution(sc, max_slots=40_000, eval_slots=3_000)
    trimmed.prepare(np.random.default_rng(sc.seed))

    def records(sol):
        return run_episode(sc, sol, 140, np.random.default_rng(7)).records

    assert all(r.lam0 == uniform.price for r in records(uniform))
    assert all(r.lam0 == trimmed.prices.get(r.s0) for r in records(trimmed))
    fitted = raised = 0
    for r in records(clearing):
        usage = bandwidth_usage([sum(ur.requested) for ur in r.users],
                                [u.channel.rate[h] for u, h in zip(sc.users, r.s0)],
                                sc.bits_per_packet)
        if usage <= sc.bandwidth + 1e-12:
            assert r.lam0 == clearing.prices.get(r.s0)
            fitted += 1
        else:
            assert r.lam0 > clearing.prices.get(r.s0)
            raised += 1
    assert fitted and raised


def test_sends_over_the_band_raise_in_episodes_and_evaluation(monkeypatch):
    """Every new decision's shares are checked against the band: a paired
    scheduler whose fill ignores its capacity and sends whole buffers raises."""
    sc = preset("tiny-sym")
    sol = build_solution(sc, "myopic")
    sol.prepare(np.random.default_rng(0))
    monkeypatch.setattr(harness, "fill", lambda buf, cap, ranked: ScheduleAction(tuple(buf)))
    monkeypatch.setattr(harness, "fill_rows", lambda bufs, caps, ranked: bufs)
    with pytest.raises(ModelError, match="of the band"):
        run_episode(sc, sol, 50, np.random.default_rng(1))
    with pytest.raises(ModelError, match="of the band"):
        oracle.evaluate_solution(sc, sol)


def _tiny_table_solution(name: str):
    sc = preset("tiny-sym")
    sol = build_solution(sc, name)
    sol.prepare(np.random.default_rng(sc.seed))
    return sc, sol


@pytest.mark.parametrize("name", ["proposed-full", "mu-mdp-full"])
def test_table_evaluation_leaves_the_decision_cache_empty_and_warns_nothing(name):
    """The array path decides every joint state without `sent_actions`, so
    the decision cache stays empty, and states that send nothing (usage 0)
    give no numpy warning."""
    sc, sol = _tiny_table_solution(name)
    assert not sol._cache
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, value = oracle.evaluate_solution(sc, sol)
    assert not sol._cache
    assert np.isfinite(value)


@pytest.mark.parametrize("name", ["proposed-full", "mu-mdp-full"])
def test_table_evaluation_raises_the_band_overrun_of_shares(name, monkeypatch):
    """With the trims passing the sends through, the array path and the
    per-state rule raise the same `_shares` error at the same joint state."""
    sc, sol = _tiny_table_solution(name)
    for trim in ("scale_rows_to_budget", "scale_rows_up_to_budget"):
        monkeypatch.setattr(harness, trim, lambda contexts, sends, *args: sends)
    for trim in ("scale_to_budget", "scale_up_to_budget"):
        monkeypatch.setattr(harness, trim, lambda contexts, actions, *args: list(actions))
    with pytest.raises(ModelError, match="of the band") as fast:
        oracle.evaluate_solution(sc, sol)
    states = JointChannel(sc.channels, sc.channel_correlation).all_states()

    def rule(jphase, buffers, c0):
        ctxs = [t.context(jphase % t.period) for t in sc.templates]
        return sol.sent_actions(states[c0], ctxs, buffers).sent

    with pytest.raises(ModelError, match="of the band") as ref:
        joint_value_of(sc, rule)
    assert str(fast.value) == str(ref.value)
    assert str(fast.value).startswith(f"{name}: sends take ")


@pytest.mark.parametrize("name", ["myopic", "myopic+fifo", "myopic+hdf"])
def test_static_share_evaluation_asks_no_state_by_state(name, monkeypatch):
    """Static shares then a simple scheduler's fill have an array form, so
    exact evaluation never calls `sent_actions`."""
    sc = preset("tiny-asym")
    sol = build_solution(sc, name)
    sol.prepare(np.random.default_rng(0))

    def per_state(*args):
        raise AssertionError("evaluated state by state")

    monkeypatch.setattr(sol, "sent_actions", per_state)
    _, value = oracle.evaluate_solution(sc, sol)
    assert np.isfinite(value)


@pytest.mark.parametrize("name", ["myopic", "myopic+hdf"])
def test_static_share_evaluation_raises_the_band_overrun_of_shares(name, monkeypatch):
    """With capacities past every buffer, the array path and the per-state
    rule raise the same `_shares` error at the same joint state."""
    sc = preset("tiny-sym")
    sol = build_solution(sc, name)
    sol.prepare(np.random.default_rng(0))
    monkeypatch.setattr(harness, "packet_capacities",
                        lambda share, bandwidth, rates, bits: np.full(np.shape(rates), 10**6))
    with pytest.raises(ModelError, match="of the band") as fast:
        oracle.evaluate_solution(sc, sol)
    states = JointChannel(sc.channels, sc.channel_correlation).all_states()

    def rule(jphase, buffers, c0):
        ctxs = [t.context(jphase % t.period) for t in sc.templates]
        return sol.sent_actions(states[c0], ctxs, buffers).sent

    with pytest.raises(ModelError, match="of the band") as ref:
        joint_value_of(sc, rule)
    assert str(fast.value) == str(ref.value)
    assert str(fast.value).startswith(f"{name}: sends take ")


def test_decomposed_agents_count_the_solves_their_refreshes_make(monkeypatch):
    """`DecomposedAgent.resolves` counts every table solve of a short gop16
    coordination, and a refresh at an unchanged price adds none."""
    sc = preset("gop16-default")
    solves = []
    build = harness.build_du_tables

    def counted(template, view, discount, price):
        solves.append(view)
        return build(template, view, discount, price)

    monkeypatch.setattr(harness, "build_du_tables", counted)
    agents = harness.make_agents(sc, "decomposed")
    with pytest.raises(CoordinationError):
        run_coordination(agents, bandwidth=sc.bandwidth, bits_per_packet=sc.bits_per_packet,
                         correlation=sc.channel_correlation, tolerance=sc.price_tolerance,
                         max_slots=60, rng=np.random.default_rng(sc.seed))
    for agent in agents:
        made = sum(v is agent.view for v in solves)
        assert agent.resolves == made
        assert 1 < made <= 60
        agent.refresh(agent.price_vec.copy())
        assert agent.resolves == made
    assert len(solves) == sum(a.resolves for a in agents)


@pytest.mark.parametrize("kind", ["decomposed", "full", "pds", "drift"])
def test_refresh_keeps_its_own_copy_of_the_price_vector(kind):
    """A refresh copies the caller's price array: changing it in place
    neither moves the agent's price nor the price its table was solved at,
    and a refresh at the changed array re-solves."""
    sc = preset("tiny-priced")
    agent = harness.make_agents(sc, kind, np.random.default_rng(0))[0]
    price = np.arange(1.0, len(agent.view) + 1.0)
    agent.refresh(price)
    price[0] = 50.0
    assert agent.price_vec[0] == 1.0
    agent.refresh(price)
    assert agent.price_vec.tolist() == price.tolist() and agent.price_vec is not price
    if kind == "decomposed":
        assert agent.resolves == 2
        impacts = sc.users[0].template.du_layout.impacts
        assert agent.tables.margin[:, 0].tolist() == \
            ((1.0 - sc.discount) * (impacts - 50.0)).tolist()
    if kind == "full":
        assert agent.resolves == 2
        assert agent.table.price.tolist() == price.tolist() and agent.table.price is not price


MALFORMED_PRICES = [2.0, [2.0], [2.0, 2.0, 2.0], [[2.0, 2.0]], [-1.0, 2.0], [np.nan, 0.0],
                    [0.0, np.inf], [-np.inf, 0.0]]


@pytest.mark.parametrize("kind", ["decomposed", "full", "pds", "drift"])
def test_every_agent_refresh_rejects_malformed_prices(kind):
    """Every agent's refresh takes its price through `checked_price`: a
    price that is not one finite, nonnegative entry per view state raises
    its `ModelError`, and the agent keeps its price (and tables); so does
    `UserMdp.priced_reward`, which NaN once sent to an IndexError."""
    sc = preset("tiny-priced")
    agent = harness.make_agents(sc, kind, np.random.default_rng(0))[0]
    agent.refresh(np.array([0.5, 1.0]))
    kept = (agent.price_vec, getattr(agent, "tables", None), getattr(agent, "table", None))
    for price in MALFORMED_PRICES:
        with pytest.raises(ModelError) as want:
            checked_price(agent.view, price)
        with pytest.raises(ModelError, match="price") as got:
            agent.refresh(price)
        assert str(got.value) == str(want.value)
        assert kept == (agent.price_vec, getattr(agent, "tables", None),
                        getattr(agent, "table", None))
        if kind == "full":
            with pytest.raises(ModelError, match=re.escape(str(want.value))):
                agent.mdp.priced_reward(price)


def _bad_buffer_calls(agent, ctx, buf):
    """Every table path an agent decides a buffer by."""
    calls = [lambda: agent.act(ctx, buf, 0),
             lambda: agent.table_sends(ctx, np.array([[0] * len(buf), buf]), np.array([0, 1]))]
    if isinstance(agent, harness.DecomposedAgent):
        calls += [lambda: agent.act_at(ctx, buf, 0, 0.3),
                  lambda: agent.price_response(ctx, buf, 0)]
    return calls


@pytest.mark.parametrize("name, kind, price, caps", [
    ("gop16-default", "decomposed", [1.0, 1.5], (6, 2, 2, 3, 2, 2, 3, 2)),
    ("tiny-priced", "full", [1e-3, 1e-3], (8, 2, 2))])
def test_table_agents_reject_buffers_outside_the_caps(name, kind, price, caps):
    """A buffer above a slot's cap once read another kind's rows (gop16 I
    buffer 7 sent (0,0,0,3,0,0,3,0); tiny-priced (9,2,2) sent (0,0,8)) and a
    negative one wrapped (3 I packets; (2,2,8)); now every table path raises
    `check_buffer`'s `ModelError`, and valid buffers still decide."""
    sc = preset(name)
    agent = harness.make_agents(sc, kind)[0]
    agent.refresh(np.array(price))
    ctx = agent.template.context(0)
    assert tuple(len(r) - 1 for r in ctx.sizes) == caps
    rest = list(caps[1:])
    for first in (caps[0] + 1, -1):
        buf = (first, *rest)
        for call in _bad_buffer_calls(agent, ctx, buf):
            with pytest.raises(ModelError, match=re.escape(
                    f"buffer for I is {first}, outside [0, {caps[0]}]")):
                call()
    for call in _bad_buffer_calls(agent, ctx, tuple(rest)):
        with pytest.raises(ModelError, match="buffer length does not match context"):
            call()
    sends = agent.table_sends(ctx, np.array([caps, [0] * len(caps)]), np.array([0, 1]))
    assert [tuple(r) for r in sends.tolist()] == [agent.act(ctx, caps, 0).sends,
                                                 agent.act(ctx, (0,) * len(caps), 1).sends]


def test_non_integral_buffers_raise_model_error():
    """3.5 packets of tiny-priced's I frame lie inside [0, 8], so the bounds
    test once let them through: `UserState` was built and the transition
    dropped the 3.5 packets. An entry outside its slot's `sizes` now raises
    `ModelError` on every path that takes a buffer, and so does a float
    row array, even of whole numbers."""
    sc = preset("tiny-priced")
    tpl = sc.users[0].template
    ctx = tpl.context(0)
    buf = (3.5, 1, 1)
    msg = re.escape("buffer for I is 3.5, not an integer in [0, 8]")
    with pytest.raises(ModelError, match=msg):
        UserState(ctx, buf, 0)
    with pytest.raises(ModelError, match="buffer for I is 3.0, not an integer"):
        UserState(ctx, (3.0, 1, 1), 0)
    with pytest.raises(ModelError, match=msg):
        tpl.transition(ctx, buf, (0, 0, 0))
    for kind, price in (("decomposed", [0.5, 1.0]), ("full", [1e-3, 1e-3])):
        agent = harness.make_agents(sc, kind)[0]
        agent.refresh(np.array(price))
        with pytest.raises(ModelError, match=msg):
            agent.act(ctx, buf, 0)
        for rows in (np.array([[3, 1, 1], buf]), np.array([[3.0, 1.0, 1.0]])):
            with pytest.raises(ModelError, match="buffer rows must be integers, not float64"):
                agent.table_sends(ctx, rows, np.zeros(len(rows), dtype=np.int64))
    contexts = [t.context(0) for t in sc.templates]
    proposed = build_solution(sc, "proposed")
    for name in ("proposed", "mu-mdp", "myopic", "proposed+edf", "lyapunov",
                 "proposed-learning"):
        sol = build_solution(sc, name, proposed)
        sol.prepare(np.random.default_rng(sc.seed))
        with pytest.raises(ModelError, match=msg):
            sol.sent_actions((0, 0), contexts, [buf, (1, 1)])


def test_drift_and_learning_agents_reject_non_integral_buffers():
    """On tiny-priced, `lyapunov` once sent (3.5, 1, 0.5) from the buffer
    (3.5, 1, 1), and `proposed-learning` died in its exploration draw with a
    bare `TypeError`. The drift agent's `act_at` and price response (so
    `lyapunov` with clearing too) and the learning agent's `act` now raise
    `check_buffer`'s `ModelError`, the learning agent before it draws."""
    sc = preset("tiny-priced")
    ctx = sc.users[0].template.context(0)
    buf = (3.5, 1, 1)
    msg = re.escape("buffer for I is 3.5, not an integer in [0, 8]")
    drift, pds = harness.make_agents(sc, "drift")[0], harness.make_agents(sc, "pds")[0]
    for agent in (drift, pds):
        agent.refresh(np.array([0.5, 1.0]))
    state = pds.rng.bit_generator.state
    for call in (lambda: drift.act_at(ctx, buf, 0, 0.3), lambda: drift.price_response(ctx, buf, 0),
                 lambda: pds.act(ctx, buf, 0)):
        with pytest.raises(ModelError, match=msg):
            call()
    assert pds.rng.bit_generator.state == state
    sol = build_solution(sc, "lyapunov", clearing=True)
    sol.prepare(np.random.default_rng(sc.seed))
    with pytest.raises(ModelError, match=msg):
        sol.sent_actions((0, 0), [t.context(0) for t in sc.templates], [buf, (1, 1)])


def test_refresh_gate_decides_as_the_numpy_rule(monkeypatch):
    """`run_coordination` refreshes an agent exactly when one of its
    projected prices moved by more than tolerance / 10 since its last
    refresh, as np.max(np.abs(new - last)) measures it on the vector
    recomputed from the price table after each update; a short gop16
    coordination takes both branches many times, and the report counts
    the refreshes."""
    sc = preset("gop16-default")
    events = []
    agents = harness.make_agents(sc, "decomposed")
    update_prices = pricing.update_prices

    def updated(table, s0, requests, bandwidth):
        update_prices(table, s0, requests, bandwidth)
        for agent in agents:
            events.append((agent.view, "price",
                           agent.view.price_vector(table.lam, sc.bits_per_packet)))
        return table

    monkeypatch.setattr(pricing, "update_prices", updated)
    for agent in agents:
        # the first gate sees the prices of the empty table
        events.append((agent.view, "price", agent.view.price_vector({}, sc.bits_per_packet)))

        def refresh(vec, agent=agent, solve=agent.refresh):
            events.append((agent.view, "refresh", np.array(vec)))
            solve(vec)
        agent.refresh = refresh
    with pytest.raises(CoordinationError) as err:
        run_coordination(agents, bandwidth=sc.bandwidth, bits_per_packet=sc.bits_per_packet,
                         correlation=sc.channel_correlation, tolerance=sc.price_tolerance,
                         max_slots=600, rng=np.random.default_rng(sc.seed))
    gate = sc.price_tolerance / 10.0
    taken = {True: 0, False: 0}
    for agent, refreshes in zip(agents, err.value.report.refreshes):
        mine = [(kind, vec) for view, kind, vec in events if view is agent.view]
        # no gate follows the last slot's update
        assert mine[-1][0] == "price"
        mine = mine[:-1]
        last = None
        for k, (kind, vec) in enumerate(mine):
            if kind != "price":
                continue
            want = last is None or np.max(np.abs(vec - last)) > gate
            got = k + 1 < len(mine) and mine[k + 1][0] == "refresh"
            assert got == want
            if got:
                assert np.array_equal(mine[k + 1][1], vec)
                last = vec
            taken[want] += 1
        assert refreshes == sum(kind == "refresh" for kind, _ in mine)
    assert min(taken.values()) > 50


class _ArraySolution:
    """A stand-in whose array rule sends `sends(buffers)`."""

    def __init__(self, sends):
        self.sends = sends

    def sent_arrays(self, states, c0, contexts, buffers):
        return [self.sends(b) for b in buffers]


def test_array_rule_is_checked_like_the_per_state_rule():
    sc = preset("tiny-sym")
    whole, _ = oracle.evaluate_solution(sc, _ArraySolution(lambda b: b))
    send_all, _ = joint_value_of(sc, lambda jphase, buffers, c0: _send_all(buffers))
    assert whole.tobytes() == send_all.tobytes()
    wide = _ArraySolution(lambda b: np.hstack([b, np.zeros((len(b), 1), dtype=b.dtype)]))
    with pytest.raises(ModelError, match="context widths are"):
        oracle.evaluate_solution(sc, wide)
    one_user = _ArraySolution(lambda b: b)
    one_user.sent_arrays = lambda states, c0, contexts, buffers: buffers[:1]
    with pytest.raises(ModelError, match="context widths are"):
        oracle.evaluate_solution(sc, one_user)
    with pytest.raises(ModelError, match=r"joint state 0 has user 0 send \(1, 1\) from buffer \(0, 0\)"):
        oracle.evaluate_solution(sc, _ArraySolution(lambda b: b + 1))
    with pytest.raises(ModelError, match=r"joint state 0 has user 0 send \(-1, -1\) from buffer \(0, 0\)"):
        oracle.evaluate_solution(sc, _ArraySolution(lambda b: b - 1))


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
