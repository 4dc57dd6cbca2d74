from __future__ import annotations

import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wvsched.learning
from conftest import shared_view
from reference_model import SlotModel
from wvsched.learning import (
    DuPdsLearner,
    PdsLearner,
    PdsValueTable,
    pds_greedy_action,
    pds_key,
    pds_update,
    to_pds,
)
from wvsched.mdp import TrafficLayout, UserMdp
from wvsched.model import (
    ChannelModel,
    DataUnitSpec,
    GopTemplate,
    ScheduleAction,
    iter_actions,
    transmit_energy,
)
from wvsched.scenario import preset
from wvsched.scheduling import decomposed_schedule

EXAMPLES = {"greedy_feasible": 1000}


def toy_template(q=3.0, sizes=((0, 0.35), (1, 0.15), (2, 0.15), (3, 0.35))):
    return GopTemplate([DataUnitSpec(0, "F", q, 0, tuple(sizes))], 1, 2)


def toy_channel():
    return ChannelModel(["good", "bad"], [1.4, 1.4], [6.0, 3.0],
                        [[0.7, 0.3], [0.4, 0.6]])


def test_to_pds_is_componentwise_subtraction():
    assert to_pds((5, 3), ScheduleAction((2, 1)), 0) == ((3, 2), 0)
    assert to_pds((5, 3), ScheduleAction((0, 0)), 1) == ((5, 3), 1)
    assert to_pds((5, 3), ScheduleAction((5, 3)), 0) == ((0, 0), 0)


def test_pds_key_drops_expiring_slots():
    lay = TrafficLayout(toy_template())
    # slot 0 expires this slot, slot 1 survives
    key = pds_key(lay, 0, (3, 2), ScheduleAction((1, 1)), 1)
    assert key == (0, (1,), 1)


def test_greedy_with_zero_table_is_scaled_myopic_argmax():
    lay = TrafficLayout(toy_template())
    table = PdsValueTable()
    delta, beta, gain, price = 0.7, 0.05, 1.4, 0.4
    for buf in ((3, 3), (2, 0), (0, 1)):
        act, val = pds_greedy_action(lay, 0, buf, 0, table, price, beta, gain, delta)
        best, best_act = -np.inf, None
        for cand in iter_actions(lay.contexts[0], buf):
            u = 3.0 * cand.total - beta * transmit_energy(gain, cand.total)
            j = (1 - delta) * (u - price * cand.total)
            if j >= best:
                best, best_act = j, cand
        assert val == pytest.approx(best)
        assert act.sends == best_act.sends


def test_greedy_huge_price_sends_nothing():
    lay = TrafficLayout(toy_template())
    act, _ = pds_greedy_action(lay, 0, (3, 3), 0, PdsValueTable(), 50.0, 0.0,
                               1.4, 0.5)
    assert act.sends == (0, 0)


def test_first_visit_replaces_then_averages():
    t = PdsValueTable()
    key = (0, (1,), 0)
    t.blend(key, 4.0)
    assert t.value(key) == 4.0       # k=1: sample replaces the zero init
    t.blend(key, 2.0)
    assert t.value(key) == 3.0       # running average
    for _ in range(50):
        t.blend(key, 3.0)
    assert t.value(key) == pytest.approx(3.0)


def test_learning_rate_is_exactly_one_over_k():
    t = PdsValueTable()
    key = (0, (0,), 0)
    samples = [5.0, 1.0, 3.0, 7.0]
    for s in samples:
        t.blend(key, s)
    assert t.value(key) == pytest.approx(np.mean(samples))
    assert t.visits[key] == len(samples)


def test_pds_update_blends_next_state_greedy_value():
    lay = TrafficLayout(toy_template())
    table = PdsValueTable()
    prices = np.array([0.2, 0.6])
    gains = np.array([1.4, 1.4])
    transition = (0, (2, 1), 0, ScheduleAction((2, 0)), {(1, 0): 3}, (1, 3), 1)
    pds_update(table, lay, transition, prices, 0.05, gains, 0.55)
    _, expected = pds_greedy_action(lay, 0, (1, 3), 1, PdsValueTable(),
                                    0.6, 0.05, 1.4, 0.55)
    assert table.value((0, (1,), 0)) == pytest.approx(expected)


def test_learning_module_reads_no_model_statistics():
    # realized-sample tuples are fine; kernel/distribution accessors are not
    src = inspect.getsource(wvsched.learning)
    for banned in ("size_pmf", "sample_size", ".transition", "stationary",
                   "traffic_kernel", "ChannelModel"):
        assert banned not in src


def test_learned_values_approach_planning_values():
    sc = preset("pds-toy")
    u = sc.users[0]
    view = shared_view(u.channel, 1)
    mdp = UserMdp(u.template, view, u.beta, 0.0, 1.0, sc.discount)
    price = np.array([0.2, 0.6])
    plan = mdp.pds_planning_values(mdp.solve(price))
    lay = mdp.layout

    learner = PdsLearner(lay, view.gain, u.beta, sc.discount)
    rng = np.random.default_rng(3)
    model = SlotModel([u.template], [u.channel], rng, s0=(0,))
    for _ in range(30_000):
        phase, (h,), (buf,) = model.phase(0), model.s0, model.buffers()
        act = learner.act(phase, buf, h, float(price[h]), rng=rng)
        ((arrivals, _),) = model.run_slot([act.sends])
        learner.observe((phase, buf, h, act, arrivals, *model.buffers(), *model.s0), price)
    from itertools import product
    gap = max(abs(learner.table.value((p, s, v)) - plan[lay.pds_index(p, s), v])
              for p in range(lay.period)
              for s in product(*(range(c + 1) for c in lay.pds_caps[p]))
              for v in range(2))
    rng_range = plan.max() - plan.min()
    assert gap <= 0.08 * rng_range


def test_du_learner_terminal_and_update():
    learner = DuPdsLearner(impact=4.0, window=2, delta=0.5)
    assert learner.continuation(1, 3, 0) == 0.0  # expiring age is terminal
    # observe a step at age 0 leaving 2 packets; next view 1
    learner.update(0, 2, 0, 1, next_price=1.0)
    v, _ = learner.best(1, 2, 1, (1 - 0.5) * (4.0 - 1.0), 0.5)
    assert v == pytest.approx(3.0)       # age 1 is terminal: send both
    assert learner.continuation(0, 2, 0) == pytest.approx(v)
    # terminal ages never update
    learner.update(1, 2, 0, 1, next_price=1.0)
    assert (1, 2, 0) not in learner.u


def test_pds_decomposed_matches_planned_when_tables_zero():
    tpl = GopTemplate([DataUnitSpec(0, "I", 5.0, 0, ((3, 1.0),)),
                       DataUnitSpec(1, "P", 2.0, 1, ((2, 1.0),), (0,))], 2, 2)
    learners = {0: DuPdsLearner(5.0, 2, 0.9), 1: DuPdsLearner(2.0, 2, 0.9)}
    ctx = tpl.context(0)
    # with zero continuations the planned rule is myopic: send all where
    # q > price, nothing where q <= price
    assert decomposed_schedule(ctx, (3, 2), 0, 1.0, learners, 0.9).sends == (3, 2)
    assert decomposed_schedule(ctx, (3, 2), 0, 2.0, learners, 0.9).sends == (3, 0)


def test_empty_context_gives_zero_action():
    tpl = GopTemplate([DataUnitSpec(0, "F", 2.0, 0, ((4, 1.0),))], 2, 1)
    ctx = tpl.context(1)
    act = decomposed_schedule(ctx, (), 0, 0.5, {}, 0.9)
    assert act.sends == ()


@settings(max_examples=EXAMPLES["greedy_feasible"], deadline=None)
@given(st.tuples(st.integers(0, 3), st.integers(0, 3)), st.integers(0, 1),
       st.floats(0.0, 4.0))
def test_greedy_action_always_feasible(buf, v, price):
    lay = TrafficLayout(toy_template())
    act, _ = pds_greedy_action(lay, 0, buf, v, PdsValueTable(), price, 0.05,
                               1.4, 0.55)
    assert all(0 <= y <= x for y, x in zip(act.sends, buf))


def test_learned_decomposed_solution_matches_planning_payoff():
    from wvsched.harness import ProposedSolution
    from wvsched.oracle import evaluate_solution

    sc = preset("tiny-sym")
    plan = ProposedSolution(sc, agent_kind="decomposed", max_slots=60_000,
                            eval_slots=5_000)
    plan.prepare(np.random.default_rng(sc.seed))
    _, v_plan = evaluate_solution(sc, plan)
    learn = ProposedSolution(sc, agent_kind="pds", max_slots=60_000,
                             eval_slots=5_000)
    learn.prepare(np.random.default_rng(sc.seed))
    _, v_learn = evaluate_solution(sc, learn)
    assert abs(v_learn - v_plan) / abs(v_plan) <= 0.02
