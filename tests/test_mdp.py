from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import shared_view
from wvsched.mdp import (
    ChannelView,
    UserMdp,
    ValueTable,
    joint_view,
    own_view,
)
from wvsched.model import (
    ChannelModel,
    DataUnitSpec,
    GopTemplate,
    JointChannel,
    ModelError,
    ScheduleAction,
    transmit_energy,
)

EXAMPLES = {"contraction": 900}


def make_channel(trans=((0.7, 0.3), (0.4, 0.6)), rate=(6.0, 3.0)):
    return ChannelModel(["good", "bad"], [1.4, 1.4], rate, trans)


def make_mdp(q=3.0, sizes=((0, 0.35), (1, 0.15), (2, 0.15), (3, 0.35)),
             beta=0.05, delta=0.55, window=2, channel=None):
    du = DataUnitSpec(0, "F", q, 0, tuple(sizes))
    tpl = GopTemplate([du], 1, window)
    chan = channel or make_channel()
    view = shared_view(chan, 1)
    return UserMdp(tpl, view, beta, 0.0, 1.0, delta)


@pytest.mark.parametrize("delta", [1.0, 1.5, -0.1, math.nan])
def test_discount_outside_unit_interval_is_rejected(delta):
    # at delta = 1 the policy chain's I - delta P is singular
    with pytest.raises(ModelError, match=r"discount must be in \[0, 1\)"):
        make_mdp(delta=delta)


def test_myopic_discount_reduces_to_one_step_argmax():
    mdp = make_mdp(delta=0.0, beta=0.0)
    price = np.array([0.5, 1.0])
    table = mdp.solve(price)
    for t in range(mdp.layout.n_traffic):
        phase, buf = mdp.layout.decode(t)
        for v in range(2):
            best = max(3.0 * sum(s) - price[v] * sum(s)
                       for s in [(y0, y1) for y0 in range(buf[0] + 1)
                                 for y1 in range(buf[1] + 1)])
            assert table.values[t, v] == pytest.approx(best, abs=1e-9)


def test_huge_price_forces_zero_action():
    mdp = make_mdp()
    table = mdp.solve(np.array([100.0, 100.0]))
    for t in range(mdp.layout.n_traffic):
        for v in range(2):
            assert table.action_of(*mdp.layout.decode(t), v).sends == (0, 0)


def test_single_state_single_action_value_is_payoff():
    # one packet arrives every slot and must be sent: per-slot payoff q
    du = DataUnitSpec(0, "F", 5.0, 0, ((1, 1.0),))
    tpl = GopTemplate([du], 1, 1)
    chan = ChannelModel(["only"], [1.4], [6.0], [[1.0]])
    mdp = UserMdp(tpl, shared_view(chan, 1), 0.0, 0.0, 1.0, 0.8)
    table = mdp.solve(np.array([0.0]))
    full = mdp.layout.index(0, (1,))
    assert table.values[full, 0] == pytest.approx(5.0, abs=1e-6)


def test_two_state_toy_matches_hand_solved_fixed_point():
    # deterministic unit arrivals, window 2: buffer (x0, x1); at zero price the
    # stationary policy is send-everything; solve the resulting linear system
    # by hand for the two recurrent states and compare.
    du = DataUnitSpec(0, "F", 4.0, 0, ((1, 1.0),))
    tpl = GopTemplate([du], 1, 2)
    chan = ChannelModel(["only"], [1.4], [6.0], [[1.0]])
    delta = 0.9
    mdp = UserMdp(tpl, shared_view(chan, 1), 0.0, 0.0, 1.0, delta)
    table = mdp.solve(np.array([0.0]), tol=1e-9)
    # state A = (1, 1): send both -> next state (0, 1); state B = (0, 1):
    # send one -> next (0, 1). Hand fixed point:
    #   V_B = (1-d) * 4 + d V_B        => V_B = 4
    #   V_A = (1-d) * 8 + d V_B
    v_b = 4.0
    v_a = (1 - delta) * 8.0 + delta * v_b
    assert table.values[mdp.layout.index(0, (0, 1)), 0] == pytest.approx(v_b, abs=1e-6)
    assert table.values[mdp.layout.index(0, (1, 1)), 0] == pytest.approx(v_a, abs=1e-6)


def brute_force_horizon(mdp, template, horizon, phase, buf, v, price):
    """Independent expectimax over explicit action/arrival/channel branches."""
    if horizon == 0:
        return 0.0
    ctx = template.context(phase)
    lay = mdp.layout
    best = -np.inf
    from wvsched.model import iter_actions
    for act in iter_actions(ctx, buf, 0.0):
        gain = sum(s.du.distortion_impact * y for s, y in zip(ctx.slots, act.sends))
        r = (1 - mdp.discount) * (
            gain - mdp.beta * transmit_energy(float(mdp.view.gain[v]), act.total)
            - price[v] * act.total)
        nxt_phase = (phase + 1) % template.period
        step = template.step(phase)
        cont = 0.0
        sizes = [template.context(nxt_phase).slots[j].du.size_pmf
                 for j in step.entering]
        from itertools import product
        for combo in product(*sizes):
            p_arr = np.prod([p for _, p in combo]) if combo else 1.0
            buf2 = [0] * len(template.context(nxt_phase))
            for i, j in step.survivors:
                buf2[j] = buf[i] - act.sends[i]
            for (j, (val, _)) in zip(step.entering, combo):
                buf2[j] = val
            for v2 in range(len(mdp.view)):
                p_ch = mdp.view.transition[v, v2]
                if p_ch <= 0:
                    continue
                cont += p_arr * p_ch * brute_force_horizon(
                    mdp, template, horizon - 1, nxt_phase, tuple(buf2), v2, price)
        best = max(best, r + mdp.discount * cont)
    return best


def test_three_slot_horizon_matches_backward_induction():
    du = DataUnitSpec(0, "F", 3.0, 0, ((1, 0.5), (2, 0.5)))
    tpl = GopTemplate([du], 1, 2)
    mdp = UserMdp(tpl, shared_view(make_channel(), 1), 0.1, 0.0, 1.0, 0.6)
    price = np.array([0.4, 1.0])
    reward = mdp.priced_reward(price)
    values = np.zeros((mdp.layout.n_traffic, 2))
    for _ in range(3):
        values = mdp.backup(values, reward)[0]
    for t in range(mdp.layout.n_traffic):
        phase, buf = mdp.layout.decode(t)
        for v in range(2):
            expect = brute_force_horizon(mdp, tpl, 3, phase, buf, v, price)
            assert values[t, v] == pytest.approx(expect, abs=1e-9)


def test_bellman_backup_returns_value_and_policy():
    mdp = make_mdp()
    reward = mdp.priced_reward(np.zeros(2))
    values = np.zeros((mdp.layout.n_traffic, 2))
    new, policy, cont = mdp.backup(values, reward)
    assert new.shape == values.shape
    assert policy.shape == values.shape
    assert np.array_equal(policy, mdp.greedy(values, reward))
    # the continuation the Qs added to the reward
    assert np.array_equal(reward + cont, mdp.q_values(values, reward))


@settings(max_examples=EXAMPLES["contraction"], deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_backup_is_a_contraction(seed):
    mdp = _shared_mdp()
    rng = np.random.default_rng(seed)
    shape = (mdp.layout.n_traffic, len(mdp.view))
    v1 = rng.uniform(-5, 5, shape)
    v2 = rng.uniform(-5, 5, shape)
    reward = mdp.priced_reward(np.array([0.3, 0.8]))
    d1 = np.max(np.abs(mdp.backup(v1, reward)[0] - mdp.backup(v2, reward)[0]))
    assert d1 <= mdp.discount * np.max(np.abs(v1 - v2)) + 1e-9


_MDP_CACHE = {}


def _shared_mdp():
    if "m" not in _MDP_CACHE:
        _MDP_CACHE["m"] = make_mdp()
    return _MDP_CACHE["m"]


def test_greedy_total_nonincreasing_in_price():
    mdp = make_mdp(delta=0.8)
    prev_totals = None
    for lam in np.linspace(0.0, 4.0, 17):
        table = mdp.solve(np.array([lam, lam]))
        totals = np.array([[table.action_of(*mdp.layout.decode(t), v).total
                            for v in range(2)]
                           for t in range(mdp.layout.n_traffic)])
        if prev_totals is not None:
            assert np.all(totals <= prev_totals)
        prev_totals = totals


def test_quality_floor_respected_by_greedy_policy():
    du0 = DataUnitSpec(0, "F", 5.0, 0, ((2, 1.0),))
    tpl = GopTemplate([du0], 1, 2)
    mdp = UserMdp(tpl, shared_view(make_channel(), 1), 0.0, 5.0, 1.0, 0.7)
    table = mdp.solve(np.array([50.0, 50.0]))  # punitive price
    for t in range(mdp.layout.n_traffic):
        phase, buf = mdp.layout.decode(t)
        floor = min(5.0, 5.0 * sum(buf))
        for v in range(2):
            act = table.action_of(phase, buf, v)
            assert 5.0 * act.total >= floor - 1e-9


def test_value_iteration_matches_exact_policy_evaluation():
    mdp = make_mdp(delta=0.9)
    price = np.array([0.2, 0.6])
    table = mdp.solve(price, tol=1e-8)
    exact = mdp.exact_policy_value(table, price=price)
    # the greedy policy's exact priced value equals the fixed point
    assert np.max(np.abs(exact - table.values)) < 1e-6


def discount_horizon(delta: float, tol: float = 1e-6) -> int:
    """Smallest horizon with delta^horizon < tol (1 when delta == 0)."""
    if delta <= 0.0:
        return 1
    return max(1, int(math.ceil(math.log(tol) / math.log(delta))))


def evaluate_policy(mdp: UserMdp, table: ValueTable, episodes: int, horizon: int,
                    rng: np.random.Generator) -> float:
    """Monte Carlo estimate of (1-delta) E[sum delta^t u_t], uniform start."""
    total = 0.0
    n_view = len(mdp.view)
    for _ in range(episodes):
        t = int(rng.integers(mdp.layout.n_traffic))
        v = int(rng.integers(n_view))
        acc, disc = 0.0, 1.0
        for _step in range(horizon):
            ta = table.policy[t, v]
            acc += disc * mdp.payoff_table[ta, v]
            disc *= mdp.discount
            row = mdp.traffic_kernel.getrow(ta)
            t = int(rng.choice(row.indices, p=row.data))
            v = int(rng.choice(n_view, p=mdp.view.transition[v]))
        total += (1.0 - mdp.discount) * acc
    return total / episodes


def test_evaluate_policy_constant_payoff_returns_it():
    du = DataUnitSpec(0, "F", 5.0, 0, ((1, 1.0),))
    tpl = GopTemplate([du], 1, 1)
    chan = ChannelModel(["only"], [1.4], [6.0], [[1.0]])
    mdp = UserMdp(tpl, shared_view(chan, 1), 0.0, 0.0, 1.0, 0.8)
    table = mdp.solve(np.zeros(1))
    horizon = discount_horizon(0.8)
    val = evaluate_policy(mdp, table, episodes=400, horizon=horizon,
                              rng=np.random.default_rng(0))
    # full-buffer starts earn the constant 5 per slot; empty starts miss the
    # first slot only (value 4); uniform start averages them
    assert val == pytest.approx((5.0 + 0.8 * 5.0) / 2, abs=0.08)


def test_evaluate_policy_monte_carlo_close_to_exact():
    mdp = make_mdp(delta=0.55)
    table = mdp.solve(np.array([0.2, 0.6]))
    exact = mdp.exact_policy_value(table)
    horizon = discount_horizon(0.55)
    episodes = 3000
    rng = np.random.default_rng(1)
    est = evaluate_policy(mdp, table, episodes, horizon, rng)
    mean_exact = float(exact.mean())
    # within three standard errors of the uniform-start exact value
    spread = float(exact.std()) / np.sqrt(episodes) * 3 + 0.02
    assert abs(est - mean_exact) < max(spread, 0.05)


def test_discount_horizon_boundaries():
    assert discount_horizon(0.0) == 1
    assert 0.95 ** discount_horizon(0.95) < 1e-6


def test_state_budget_rejection_reports_sizing():
    du = DataUnitSpec(0, "F", 3.0, 0, tuple((v, 1.0 / 41) for v in range(41)))
    tpl = GopTemplate([du], 1, 2)
    with pytest.raises(Exception, match="budget"):
        UserMdp(tpl, shared_view(make_channel(), 1), 0.0, 0.0, 1.0, 0.9,
                state_budget=100)


def test_views_project_prices():
    chans = [make_channel(), make_channel(rate=(8.0, 2.0))]
    lam = {(0, 0): 0.0, (0, 1): 1.0, (1, 0): 2.0, (1, 1): 4.0}
    jv = joint_view(JointChannel(chans), 1)
    vec = jv.price_vector(lam, 1.0)
    # joint view state order is the product enumeration
    assert vec[jv.view_state((1, 1))] == pytest.approx(4.0 / 2.0)
    assert vec[jv.view_state((0, 1))] == pytest.approx(1.0 / 2.0)

    ov = own_view(JointChannel(chans), 1)
    vec2 = ov.price_vector(lam, 1.0)
    stat0 = chans[0].stationary()
    expect_bad = (stat0[0] * 1.0 + stat0[1] * 4.0) / 2.0
    assert vec2[1] == pytest.approx(expect_bad)

    cv = shared_view(chans[0], 2)
    vec3 = cv.price_vector({(1, 1): 3.0}, 1.0)
    assert vec3[1] == pytest.approx(3.0 / 3.0)
    assert vec3[0] == 0.0


def test_own_view_of_a_common_channel_reads_no_stationary_law(monkeypatch):
    """A common channel has no other chain to average over, so its own
    views weigh every joint state by 1 and never ask for a stationary law,
    which an identity chain (two closed classes) does not have."""
    ident = ChannelModel(["a", "b"], [1.0, 1.0], [1.0, 2.0], [[1.0, 0.0], [0.0, 1.0]])

    def refuse(self):
        raise AssertionError("stationary law read")

    monkeypatch.setattr(ChannelModel, "stationary", refuse)
    view = own_view(JointChannel([ident] * 3, "common"), 1)
    assert view.state_of == {(0, 0, 0): 0, (1, 1, 1): 1}
    assert view.price_weights == ((((0, 0, 0), 1.0),), (((1, 1, 1), 1.0),))
    assert view.transition.tolist() == [[1.0, 0.0], [0.0, 1.0]]
    assert view.price_vector({(1, 1, 1): 3.0}, 1.0).tolist() == [0.0, 1.5]


def test_user_price_ratio_between_users():
    lam = {(1, 1): 0.5}
    chans = [make_channel(rate=(60.0, 60.0)), make_channel(rate=(40.0, 40.0))]
    v1 = shared_view(chans[0], 2).price_vector(lam, 1.0)
    v2 = ChannelView({(h, h): h for h in range(2)}, chans[1].transition, chans[1].rate,
                     chans[1].gain, tuple((((h, h), 1.0),) for h in range(2)))
    vec2 = v2.price_vector(lam, 1.0)
    assert v1[1] / vec2[1] == pytest.approx(40.0 / 60.0)


def test_stationary_law_is_exact_on_a_slowly_mixing_channel():
    # the channel leaves each state with probability 1e-9 or 2e-9, far too
    # slowly for power iteration from the uniform law; the direct solve
    # gives the channel law (2/3, 1/3)
    chan = make_channel(trans=((1.0 - 1e-9, 1e-9), (2e-9, 1.0 - 2e-9)))
    mdp = make_mdp(sizes=((1, 1.0),), window=1, channel=chan)
    law = mdp.stationary_under(mdp.solve(np.zeros(2)))
    channel_law = law.reshape(mdp.layout.n_traffic, 2).sum(axis=0)
    assert np.abs(channel_law - [2 / 3, 1 / 3]).max() <= 1e-12


def test_stationary_law_of_a_chain_with_two_closed_classes_raises():
    # a channel that never moves: each channel state is a closed class
    chan = make_channel(trans=((1.0, 0.0), (0.0, 1.0)))
    mdp = make_mdp(sizes=((1, 1.0),), window=1, channel=chan)
    table = mdp.solve(np.zeros(2))
    with pytest.raises(ModelError, match="has 2 closed classes"):
        mdp.stationary_under(table)
    with pytest.raises(ModelError, match="has 2 closed classes"):
        mdp.expected_usage_by_view(table)
