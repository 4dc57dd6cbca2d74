from __future__ import annotations

from functools import partial

import numpy as np
import pytest

from wvsched.harness import ProposedSolution, build_views, make_agents
from wvsched.mdp import common_view
from wvsched.model import (ChannelModel, DataUnitSpec, GopTemplate, ModelError, ScheduleAction,
                           UserConfig, ScenarioConfig)
from wvsched.pricing import (
    JointChannel,
    PricedAgent,
    PriceTable,
    run_coordination,
    scale_to_budget,
    update_prices,
)
from wvsched.scenario import preset


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
    rng = np.random.default_rng(11)
    jc = JointChannel(sc.channels, sc.channel_correlation)
    from wvsched.model import advance_traffic, initial_buffer
    s0 = jc.initial(rng)
    buffers = [initial_buffer(u.template, 0, rng) for u in sc.users]
    phases = [0, 0]
    req = np.zeros(2)
    for _ in range(6000):
        contexts = [u.template.context(p) for u, p in zip(sc.users, phases)]
        decision = sol.sent_actions(s0, contexts, buffers)
        for i, u in enumerate(sc.users):
            req[i] += decision.raw[i].total / u.channel.rate[s0[i]]
            step = advance_traffic(u.template, contexts[i], buffers[i], decision.sent[i], rng)
            buffers[i], phases[i] = step.buffer, step.context.phase
        s0 = jc.step(s0, rng)
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
        view = common_view(u.channel, n_users, user=i)
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


def test_nonconvergence_raises_with_diagnostics():
    from wvsched.pricing import CoordinationError

    sc = preset("tiny-mix")
    agents = make_agents(sc, "full")
    with pytest.raises(CoordinationError) as err:
        run_coordination(agents, bandwidth=sc.bandwidth,
                         bits_per_packet=1.0, correlation="common",
                         tolerance=1e-9, max_slots=40, rng=np.random.default_rng(0))
    assert err.value.report.price_trace


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


class ThresholdAgent(PricedAgent):
    """The least a priced agent defines: `refresh` and `act_at`. It sends a
    slot's whole buffer while the price is below the slot's impact."""

    def refresh(self, price_vec):
        self.price_vec = np.asarray(price_vec, dtype=float)

    def act_at(self, context, buffer, view_state, lam):
        return ScheduleAction(tuple(x if s.du.distortion_impact > lam else 0
                                    for s, x in zip(context.slots, buffer)))


def test_coordination_settles_with_a_minimal_priced_agent():
    """The base class answers `observe`, `freeze` and `act` for an agent
    that does not learn, so coordination runs it to a settled table and
    leaves it refreshed at the final prices."""
    sc = preset("gop16-default")
    agents = [ThresholdAgent(u, v, sc.discount) for u, v in zip(sc.users, build_views(sc))]
    table, report = run_coordination(agents, bandwidth=sc.bandwidth,
                                     bits_per_packet=sc.bits_per_packet,
                                     correlation=sc.channel_correlation,
                                     tolerance=sc.price_tolerance, max_slots=50_000,
                                     eval_slots=500, rng=np.random.default_rng(sc.seed))
    assert report.converged
    assert report.eval_decisions > 0
    assert all(lam >= 0 for lam in table.lam.values())
    for a in agents:
        assert np.array_equal(a.price_vec, a.view.price_vector(table.lam, sc.bits_per_packet))
    ctx = sc.templates[0].context(0)
    assert agents[0].fill_order(ctx) == ctx.impact_order()
    assert agents[0].bid(ctx, 0, backlog=7) == ctx.slots[0].du.distortion_impact
