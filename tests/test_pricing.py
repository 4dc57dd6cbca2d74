from __future__ import annotations

import inspect
import json
import re
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from conftest import ThresholdAgent, model_slot, scenario_model, shared_view
from wvsched import cli, model, pricing
from wvsched.cli import main
from wvsched.harness import ProposedSolution, build_views, make_agents
from wvsched.model import (ChannelModel, DataUnitSpec, GopTemplate, ModelError, UserConfig,
                           ScenarioConfig)
from wvsched.pricing import (
    JointChannel,
    Manager,
    PricedAgent,
    PriceTable,
    run_coordination,
    scale_to_budget,
    update_prices,
)
from wvsched.scenario import ScenarioError, preset, preset_path, scenario_from_dict


def user_price(lambda0: float, rate: float, bits_per_packet: float) -> float:
    """Per-packet price seen by a user: lambda0 * b / r(h)."""
    if lambda0 < 0:
        raise ModelError("lambda0 must be >= 0")
    return lambda0 * bits_per_packet / rate


def test_user_price_closed_form():
    assert user_price(0.0, 60.0, 1.0) == 0.0
    assert user_price(0.5, 60.0, 1.0) == pytest.approx(0.008333, abs=1e-6)
    # two users differing only in rate see prices in inverse proportion
    assert user_price(2.0, 60.0, 1.0) / user_price(2.0, 40.0, 1.0) == pytest.approx(2 / 3)
    with pytest.raises(ModelError):
        user_price(-1.0, 60.0, 1.0)


def test_update_prices_single_steps():
    t = PriceTable()
    update_prices(t, (1, 1), [0.7, 0.5], 1.0)
    assert t.get((1, 1)) == pytest.approx(0.2)
    assert t.counts[(1, 1)] == 1

    t2 = PriceTable()
    update_prices(t2, (0, 0), [0.5, 0.5], 1.0)
    assert t2.get((0, 0)) == 0.0  # zero subgradient

    t3 = PriceTable()
    t3.lam[(0, 0)] = 0.02
    update_prices(t3, (0, 0), [0.2, 0.3], 1.0)
    assert t3.get((0, 0)) == 0.0  # projected at zero


def test_update_prices_touches_only_visited_state():
    t = PriceTable()
    update_prices(t, (1, 1), [2.0], 1.0)
    update_prices(t, (0, 0), [0.2], 1.0)
    assert t.get((1, 1)) == pytest.approx(1.0)
    assert (1, 1) in t.counts and (0, 0) in t.counts
    before = t.get((1, 1))
    update_prices(t, (0, 0), [5.0], 1.0)
    assert t.get((1, 1)) == before


def test_stepsize_schedule_is_one_over_k_plus_one():
    t = PriceTable()
    lam = 0.0
    for k in range(5):
        update_prices(t, (0,), [2.0], 1.0)  # constant subgradient +1
        lam += 1.0 / (k + 1)
        assert t.get((0,)) == pytest.approx(lam)


def test_trim_keeps_high_impact_near_deadline():
    dus = [DataUnitSpec(0, "I", 4.0, 0, ((6, 1.0),)),
           DataUnitSpec(1, "P", 2.0, 1, ((6, 1.0),), (0,))]
    tpl = GopTemplate(dus, 2, 2)
    ctx = tpl.context(0)
    from wvsched.model import ScheduleAction
    # 8 packets at rate 8 on a band of 0.625: a budget of 5 packets
    (trimmed,) = scale_to_budget([ctx], [ScheduleAction((4, 4))], [8.0], 1.0, 0.625)
    assert trimmed.sends == (4, 1)


def test_scale_to_budget_proportional():
    dus = [DataUnitSpec(0, "F", 4.0, 0, ((10, 1.0),))]
    tpl = GopTemplate(dus, 1, 1)
    ctx = tpl.context(0)
    from wvsched.model import ScheduleAction
    acts = [ScheduleAction((8,)), ScheduleAction((8,))]
    sent = scale_to_budget([ctx, ctx], acts, [10.0, 10.0], 1.0, 1.0)
    # gamma = 10/16 -> floor(0.625 * 8) = 5 packets each
    assert [a.total for a in sent] == [5, 5]
    under = scale_to_budget([ctx, ctx], [ScheduleAction((3,))] * 2,
                            [10.0, 10.0], 1.0, 1.0)
    assert [a.total for a in under] == [3, 3]


def test_joint_channel_common_requires_identical_chains():
    a = ChannelModel(["g", "b"], [1.4, 1.4], [6.0, 3.0], [[0.7, 0.3], [0.4, 0.6]])
    b = ChannelModel(["g", "b"], [1.4, 1.4], [6.0, 3.0], [[0.9, 0.1], [0.4, 0.6]])
    with pytest.raises(ModelError):
        JointChannel([a, b], "common")
    jc = JointChannel([a, a], "common")
    assert jc.all_states() == [(0, 0), (1, 1)]
    jc2 = JointChannel([a, b], "independent")
    assert len(jc2.all_states()) == 4


def test_common_channel_rejects_a_chain_off_by_rounding(tmp_path, capsys):
    """A common channel is simulated on the first user's chain, so a second
    chain within `np.allclose` of it is still rejected: by JointChannel,
    by the scenario, naming the user, and by `wvsched run` with exit 2."""
    raw = json.loads(preset_path("tiny-sym").read_text(encoding="utf-8"))
    raw["users"][1]["channel"]["transition"][0] = [0.599999, 0.400001]
    chains = [u.channel for u in preset("tiny-sym").users]
    near = ChannelModel(chains[1].names, chains[1].gain, chains[1].rate,
                        raw["users"][1]["channel"]["transition"])
    assert np.allclose(near.transition, chains[0].transition)
    with pytest.raises(ModelError, match="identical channel chains"):
        JointChannel([chains[0], near], "common")
    with pytest.raises(ScenarioError, match="user 'b'"):
        scenario_from_dict(raw)
    path = tmp_path / "near.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["run", "--scenario", str(path), "--solution", "proposed",
                 "--slots", "5", "--out", str(tmp_path / "out")]) == 2
    assert "user 'b'" in capsys.readouterr().err


def test_full_price_view_is_refused_on_a_common_channel(tmp_path, capsys):
    """A common channel's views are exact, so `price_view` "full" there
    would do nothing: the scenario refuses it, and `wvsched run` on such a
    file exits 2 naming it. "expected" on a common preset, and "full" on
    independent channels, still build their views."""
    sc = preset("tiny-sym")
    with pytest.raises(ModelError, match="price_view"):
        ScenarioConfig("s", sc.users, channel_correlation="common", price_view="full")
    raw = json.loads(preset_path("tiny-priced").read_text(encoding="utf-8"))
    assert "price_view" not in raw
    raw["price_view"] = "full"
    with pytest.raises(ScenarioError, match="price_view"):
        scenario_from_dict(raw)
    path = tmp_path / "full.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["run", "--scenario", str(path), "--solution", "proposed",
                 "--slots", "5", "--out", str(tmp_path / "out")]) == 2
    assert "price_view" in capsys.readouterr().err
    assert len(build_views(replace(sc, price_view="expected"))) == len(sc.users)
    full = replace(sc, channel_correlation="independent", price_view="full")
    assert [len(v) for v in build_views(full)] == [len(full.joint.all_states())] * 2


def test_slack_bandwidth_gives_zero_prices_and_unconstrained_policies():
    base = preset("tiny-sym")
    slack = ScenarioConfig(
        name="slack", users=base.users, bits_per_packet=1.0, bandwidth=50.0,
        discount=base.discount, price_tolerance=1e-3, seed=1,
        channel_correlation="common")
    sol = ProposedSolution(slack, agent_kind="full", max_slots=30_000,
                           eval_slots=2_000)
    sol.prepare(np.random.default_rng(1))
    assert all(v == 0.0 for v in sol.prices.lam.values())
    # priced policies at zero price equal the unconstrained optimum
    for agent in sol.agents:
        unconstrained = agent.mdp.solve(np.zeros(2))
        assert np.allclose(unconstrained.values, agent.table.values)


def test_symmetric_users_share_bandwidth_equally(trio_results):
    data = trio_results["tiny-sym"]
    sc, sol = data["scenario"], data["solution"]
    model = scenario_model(sc, np.random.default_rng(11))
    req = np.zeros(2)
    for _ in range(6000):
        decision = sol.sent_actions(*model_slot(model))
        req += model.usage([act.total for act in decision.raw], 1.0)
        model.run_slot([act.sends for act in decision.sent])
    assert abs(req[0] - req[1]) / max(req) < 0.02


def test_coordination_converges_with_residuals(trio_results):
    for name, data in trio_results.items():
        report = data["report"]
        assert report.converged, name
        bw = data["scenario"].bandwidth
        for s0, res in report.residuals.items():
            assert res <= 1e-2 * bw, (name, s0, res)
        for s0, usage in report.expected_usage.items():
            assert usage <= bw + 1e-2 * bw, (name, s0, usage)


def test_prices_stay_nonnegative_and_counts_grow(trio_results):
    for data in trio_results.values():
        report = data["report"]
        assert all(lam >= 0 for _, _, _, lam in report.price_trace)
        assert all(v >= 1 for v in report.counts.values())


def test_exchange_is_one_price_and_one_request_per_user(trio_results):
    data = trio_results["tiny-sym"]
    assert data["report"].exchange_messages_per_slot == 2 * len(
        data["scenario"].users)


def test_penalized_value_raises_at_iteration_cap():
    from wvsched.oracle import penalized_joint_value

    with pytest.raises(ModelError, match="did not converge"):
        penalized_joint_value(preset("tiny-sym"), {}, max_iter=1)


def test_penalized_value_decomposes_across_users(trio_results):
    """Joint penalized value equals the sum of per-user penalized values."""
    import scipy.sparse  # noqa: F401  (kept minimal; dense solves below)
    from wvsched.oracle import penalized_joint_value

    data = trio_results["tiny-sym"]
    sc = data["scenario"]
    prices = data["solution"].prices.lam
    _, joint_mean = penalized_joint_value(sc, prices)

    total = 0.0
    n_users = len(sc.users)
    for i, u in enumerate(sc.users):
        view = shared_view(u.channel, n_users)
        from wvsched.mdp import UserMdp
        mdp = UserMdp(u.template, view, u.beta, u.min_quality,
                      sc.bits_per_packet, sc.discount)
        vec = view.price_vector(prices, sc.bits_per_packet)
        table = mdp.solve(vec, tol=1e-9)
        # channel-only value of the constant-per-state credit lambda * B / I
        credit = np.array([prices.get(key, 0.0) for key, _ in
                           [pairs[0] for pairs in view.price_weights]])
        credit = credit * sc.bandwidth / n_users
        off = np.linalg.solve(np.eye(len(view)) - sc.discount * view.transition,
                              (1 - sc.discount) * credit)
        total += float(table.values.mean()) + float(off.mean())
    assert joint_mean == pytest.approx(total, abs=1e-3)


@pytest.mark.parametrize("cap", [0, -3, 2.5, True, "5", None])
def test_coordination_refuses_a_slot_cap_below_one_before_any_draw(cap):
    sc = preset("tiny-sym")
    agents = make_agents(sc, "decomposed")
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ModelError, match=re.escape(f"max_slots must be an integer >= 1; "
                                                   f"got {cap!r}")):
        run_coordination(sc, agents, max_slots=cap, rng=rng)
    assert rng.bit_generator.state == state


def test_one_default_slot_cap():
    """run_coordination, ProposedSolution and `wvsched run --max-slots` share
    the default slot cap."""
    sol = ProposedSolution(preset("tiny-sym"))
    run = inspect.signature(run_coordination).parameters["max_slots"].default
    argv = cli._parser().parse_args(["run", "--scenario", "tiny-sym"])
    assert sol.max_slots == run == argv.max_slots == pricing.MAX_SLOTS


def test_nonconvergence_raises_with_diagnostics():
    from wvsched.pricing import CoordinationError

    sc = replace(preset("tiny-mix"), price_tolerance=1e-9)
    agents = make_agents(sc, "full")
    with pytest.raises(CoordinationError) as err:
        run_coordination(sc, agents, max_slots=40, rng=np.random.default_rng(0))
    assert err.value.report.price_trace
    # the message names every unsettled state with its update count: the
    # settle rule re-applied to each state's prices in the (untruncated) trace
    report = err.value.report
    lams = {}
    for _, s0, _, lam in report.price_trace:
        lams.setdefault(s0, [0.0]).append(lam)
    window = pricing.SWEEP_FACTOR + 1
    unsettled = sorted(
        s0 for s0, seq in lams.items()
        if len(seq) <= window
        or max(abs(b - a) for a, b in zip(seq[-window - 1:], seq[-window:])) > 1e-9
        or abs(seq[-1] - seq[-window]) > 1e-9)
    assert unsettled
    named = ", ".join(f"{s0} after {report.counts[s0]} updates" for s0 in unsettled)
    assert f"(tolerance 1e-09); unsettled states: {named}; see report.price_trace" \
        in str(err.value)


def test_truncated_price_history_counts_the_dropped_updates(monkeypatch):
    from wvsched import pricing

    monkeypatch.setattr(pricing, "PriceTable", partial(PriceTable, history_len=10))
    sc = preset("tiny-sym")
    sol = ProposedSolution(sc, eval_slots=200)
    sol.prepare(np.random.default_rng(sc.seed))
    report = sol.report
    assert report.slots_run > 10
    assert report.price_trace_dropped == report.slots_run - 10
    assert [it for it, *_ in report.price_trace] == \
        list(range(report.price_trace_dropped + 1, report.slots_run + 1))


def test_slack_uniform_price_is_zero_and_matches_proposed():
    from wvsched.harness import UniformPriceSolution
    from wvsched.oracle import evaluate_solution

    base = preset("tiny-sym")
    slack = ScenarioConfig(
        name="slack", users=base.users, bandwidth=50.0,
        discount=base.discount, price_tolerance=1e-3, seed=1,
        channel_correlation="common")
    prop = ProposedSolution(slack, agent_kind="full", max_slots=30_000,
                            eval_slots=2_000)
    prop.prepare(np.random.default_rng(1))
    uni = UniformPriceSolution(slack, agent_kind="full")
    uni.prepare(np.random.default_rng(2))
    assert uni.price == 0.0
    _, v_prop = evaluate_solution(slack, prop)
    _, v_uni = evaluate_solution(slack, uni)
    assert v_uni == pytest.approx(v_prop, rel=1e-9)


def test_coordination_settles_with_a_minimal_priced_agent():
    """The base class answers `observe`, `freeze` and `act` for an agent
    that does not learn, so coordination runs it to a settled table and
    leaves it refreshed at the final prices."""
    sc = preset("gop16-default")
    agents = [ThresholdAgent(u, v, sc.discount) for u, v in zip(sc.users, build_views(sc))]
    table, report = run_coordination(sc, agents, max_slots=50_000, eval_slots=500,
                                     rng=np.random.default_rng(sc.seed))
    assert report.converged
    assert report.eval_decisions > 0
    assert all(lam >= 0 for lam in table.lam.values())
    for a in agents:
        assert np.array_equal(a.price_vec, a.view.price_vector(table.lam, sc.bits_per_packet))
    ctx = sc.templates[0].context(0)
    assert agents[0].fill_order(ctx) == ctx.impact_order()
    assert agents[0].bid(ctx, 0, backlog=7) == ctx.slots[0].du.distortion_impact


def test_manager_rebuilds_a_recorded_coordination(monkeypatch):
    """A `Manager` built from gop16-default's views and numbers alone, fed
    the (joint state, requests) stream a coordination recorded, rebuilds
    that run's price table, refreshes, delivered vectors and settle slot.
    It holds no agent, template or channel, and each agent's `refresh`
    received only vectors the run's manager handed out: those `deliver`
    let through, then those of `vectors`."""
    sc = preset("gop16-default")
    stream, delivered, final = [], [], []
    update = pricing.update_prices

    def recorded(table, s0, requests, bandwidth):
        stream.append((s0, list(requests)))
        return update(table, s0, requests, bandwidth)

    def kept(method, into):
        def wrapper(self):
            into.append(method(self))
            return into[-1]
        return wrapper

    monkeypatch.setattr(pricing, "update_prices", recorded)
    monkeypatch.setattr(Manager, "deliver", kept(Manager.deliver, delivered))
    monkeypatch.setattr(Manager, "vectors", kept(Manager.vectors, final))
    agents = make_agents(sc, "decomposed")
    received = [[] for _ in agents]
    for agent, got in zip(agents, received):
        def refresh(vec, got=got, solve=agent.refresh):
            got.append(vec)
            solve(vec)
        agent.refresh = refresh
    table, report = run_coordination(sc, agents, eval_slots=200,
                                     rng=np.random.default_rng(sc.seed))
    monkeypatch.undo()
    assert report.converged and len(stream) == len(delivered) == report.slots_run
    assert len(final) == 1
    for i, got in enumerate(received):
        sent = [vec for out in delivered for j, vec in out if j == i] + [final[0][i]]
        assert len(got) == len(sent) and all(a is b for a, b in zip(got, sent))

    manager = Manager(build_views(sc), sc.bandwidth, sc.bits_per_packet, sc.price_tolerance)
    held = [x for value in vars(manager).values()
            for x in (value if isinstance(value, list) else [value])]
    assert not any(isinstance(x, (PricedAgent, GopTemplate, ChannelModel, JointChannel))
                   for x in held)
    for (s0, requests), want in zip(stream, delivered):
        assert not manager.settled
        got = manager.deliver()
        assert [(i, v.tobytes()) for i, v in got] == [(i, v.tobytes()) for i, v in want]
        manager.update(s0, requests)
    assert manager.settled
    assert (manager.table.lam, manager.table.counts, list(manager.table.history),
            manager.table.updates) == (table.lam, table.counts, list(table.history),
                                       table.updates)
    assert manager.refreshes == report.refreshes
    assert [v.tobytes() for v in manager.vectors()] == [v.tobytes() for v in final[0]]


def test_proposed_prepare_builds_no_joint_channel_but_the_scenarios(monkeypatch):
    """`ProposedSolution.prepare` on tiny-sym's independent channels runs its
    coordination on `ScenarioConfig.joint`, so once that is built no
    `JointChannel` is."""
    sc = replace(preset("tiny-sym"), channel_correlation="independent")
    assert sc.joint is sc.joint
    built = []
    init = model.JointChannel.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(model.JointChannel, "__init__", counted)
    sol = ProposedSolution(sc, eval_slots=200)
    sol.prepare(np.random.default_rng(sc.seed))
    assert sol.report.converged
    assert built == []
