from __future__ import annotations

from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_same_tables, shared_view
from wvsched.harness import DecomposedAgent
from wvsched.model import ChannelModel, DataUnitSpec, GopTemplate, ModelError, UserConfig
from wvsched.scheduling import (
    SIMPLE_SCHEDULERS,
    SingleDuModel,
    TableShare,
    build_du_tables,
    decomposed_schedule,
    fill,
    packet_capacities,
    priced_problem,
)

EXAMPLES = {"joint_optimum": 1400, "capacity_respect": 1200}


def du(i, q, d, size, parents=(), name=None):
    return DataUnitSpec(i, name or f"DU{i}", q, d, ((size, 1.0),), tuple(parents))


def schedule(name, ctx, buf, cap):
    """The simple scheduler `name`: `fill` in its rank."""
    return fill(buf, cap, SIMPLE_SCHEDULERS[name](ctx))


def make_view():
    chan = ChannelModel(["good", "bad"], [1.4, 1.4], [6.0, 3.0],
                        [[0.7, 0.3], [0.4, 0.6]])
    return shared_view(chan, 1)


def test_single_du_myopic_sends_all_when_margin_positive():
    tpl = GopTemplate([du(0, 10.0, 0, 4)], 1, 1)
    tables = build_du_tables(tpl, make_view(), 0.0, np.array([3.0, 3.0]))
    ctx = tpl.context(0)
    act = decomposed_schedule(ctx, (4,), 0, 3.0, tables, 0.0)
    assert act.sends == (4,)


def test_zero_margin_defers_nothing_to_send():
    tpl = GopTemplate([du(0, 2.0, 0, 4)], 1, 1)
    tables = build_du_tables(tpl, make_view(), 0.0, np.array([5.0, 5.0]))
    act = decomposed_schedule(tpl.context(0), (4,), 0, 5.0, tables, 0.0)
    assert act.sends == (0,)


def test_empty_context_returns_empty_action():
    tpl = GopTemplate([du(0, 2.0, 0, 4)], 2, 1)
    ctx = tpl.context(1)
    assert len(ctx) == 0
    act = decomposed_schedule(ctx, (), 0, 1.0, {}, 0.9)
    assert act.sends == ()


@pytest.mark.parametrize("price", [2.0, [2.0], [2.0, 2.0, 2.0], [[2.0, 2.0]], [-1.0, 2.0],
                                   [2.0, -1e-300], [np.nan, 2.0], [2.0, np.inf], [-np.inf, 2.0]])
def test_du_tables_reject_malformed_prices(price):
    """A price must be one finite, nonnegative entry per view state: no
    broadcast scalar or single entry, no negative, NaN or infinite price.
    An agent's refresh at one raises and keeps its tables and price."""
    tpl = GopTemplate([du(0, 10.0, 0, 4), du(1, 3.0, 1, 2, (0,))], 2, 2)
    with pytest.raises(ModelError, match="price"):
        build_du_tables(tpl, make_view(), 0.9, price)
    view = make_view()
    agent = DecomposedAgent(UserConfig("u", tpl, ChannelModel(
        ["good", "bad"], view.gain, view.rate, view.transition)), view, 0.9)
    agent.refresh(np.array([1.0, 2.0]))
    tables = agent.tables
    with pytest.raises(ModelError, match="price"):
        agent.refresh(price)
    assert agent.tables is tables and agent.price_vec.tolist() == [1.0, 2.0]


def test_table_share_answers_only_the_problem_it_solved():
    """A `TableShare` answers a template whose kinds a kept solve holds, at
    an equal window, transition, discount and price: with the solve's own
    arrays when the kinds are equal, in order, and with a gather of its rows
    for a subset in another order, equal to the template's own solve. A
    different window, transition (also one laid out in Fortran order),
    discount or price, a kind it lacks, or an impact that differs only in
    the sign of a zero, misses; a solve of another window keeps them, and a
    solve at a new problem of their window drops them."""
    view, price = make_view(), np.array([1.5, 4.0])
    big = GopTemplate([du(0, 9.0, 0, 4), du(1, 0.0, 1, 2, (0,)), du(2, 3.0, 1, 3)], 2, 2)
    equal = GopTemplate([du(0, 9.0, 0, 4), du(1, 0.0, 1, 2), du(2, 3.0, 1, 3)], 2, 2)
    subset = GopTemplate([du(0, 3.0, 0, 3), du(1, 9.0, 1, 4)], 2, 2)
    share = TableShare()

    def lookup(tpl, v=view, delta=0.9, p=price):
        return share.lookup(priced_problem(tpl.window, v, delta, p), tpl, v, delta, p)

    assert lookup(big) is None
    solved = share.keep(priced_problem(2, view, 0.9, price),
                        build_du_tables(big, view, 0.9, price))
    got = lookup(equal)
    assert got.values is solved.values and got.best_send is solved.best_send
    assert_same_tables(got, build_du_tables(equal, view, 0.9, price))
    assert_same_tables(lookup(subset), build_du_tables(subset, view, 0.9, price))
    other = shared_view(ChannelModel(["good", "bad"], [1.4, 1.4], [6.0, 3.0],
                                     [[0.6, 0.4], [0.4, 0.6]]), 1)
    fortran = make_view()
    fortran.transition = np.asfortranarray(fortran.transition)
    assert fortran.transition.tobytes() == view.transition.tobytes()
    for args in [(GopTemplate(subset.dus, 2, 3),), (subset, other), (subset, fortran),
                 (subset, view, 0.5), (subset, view, 0.9, np.array([1.5, 4.5])),
                 (GopTemplate([du(0, 9.0, 0, 5)], 2, 2),),
                 (GopTemplate([du(0, 9.0, 0, 4), du(1, -0.0, 1, 2)], 2, 2),)]:
        assert lookup(*args) is None
    wide = GopTemplate(subset.dus, 2, 3)
    share.keep(priced_problem(3, view, 0.9, price), build_du_tables(wide, view, 0.9, price))
    assert_same_tables(lookup(wide), build_du_tables(wide, view, 0.9, price))
    assert_same_tables(lookup(subset), build_du_tables(subset, view, 0.9, price))
    share.keep(priced_problem(2, view, 0.5, price), build_du_tables(big, view, 0.5, price))
    assert lookup(subset) is None


def _joint_best(impacts, buffers, lam):
    best = -1e18
    for sends in product(*(range(x + 1) for x in buffers)):
        val = sum(q * y for q, y in zip(impacts, sends)) - lam * sum(sends)
        best = max(best, val)
    return best


def test_two_du_myopic_matches_joint_brute_force():
    dus = [du(0, 7.0, 0, 3), du(1, 4.0, 0, 3)]
    tpl = GopTemplate(dus, 1, 1)
    tables = build_du_tables(tpl, make_view(), 0.0, np.array([5.0, 5.0]))
    ctx = tpl.context(0)
    act = decomposed_schedule(ctx, (3, 3), 0, 5.0, tables, 0.0)
    got = sum(q * y for q, y in zip((7.0, 4.0), act.sends)) - 5.0 * act.total
    assert got == pytest.approx(_joint_best((7.0, 4.0), (3, 3), 5.0))


@settings(max_examples=EXAMPLES["joint_optimum"], deadline=None)
@given(st.integers(1, 3), st.integers(0, 6), st.integers(0, 6), st.integers(0, 6),
       st.floats(0.0, 9.0), st.integers(1, 9), st.integers(1, 9), st.integers(1, 9),
       st.booleans(), st.booleans())
def test_myopic_decomposition_attains_joint_optimum(n, x0, x1, x2, lam,
                                                    q0, q1, q2, dep1, dep2):
    qs = sorted([q0, q1, q2], reverse=True)[:n]
    xs = [x0, x1, x2][:n]
    dus = []
    for i in range(n):
        parents = []
        if i == 1 and dep1:
            parents = [0]
        if i == 2 and dep2:
            parents = [1] if dep1 else [0]
        dus.append(du(i, float(qs[i]), 0, max(xs[i], 1), parents))
    tpl = GopTemplate(dus, 1, 1)
    tables = build_du_tables(tpl, make_view(), 0.0, np.array([lam, lam]))
    ctx = tpl.context(0)
    act = decomposed_schedule(ctx, tuple(xs), 0, lam, tables, 0.0)
    got = sum(q * y for q, y in zip(qs, act.sends)) - lam * act.total
    assert got == pytest.approx(_joint_best(qs, xs, lam), abs=1e-9)


def test_foresighted_single_du_defers_when_future_cheaper():
    # bad state prices high, good state free: a DU with a slot of life left
    # should wait for the cheap state when persistence makes that likely
    tpl = GopTemplate([du(0, 3.0, 1, 4)], 2, 2)
    chan = ChannelModel(["good", "bad"], [1.4, 1.4], [6.0, 3.0],
                        [[0.9, 0.1], [0.6, 0.4]])
    view = shared_view(chan, 1)
    tables = build_du_tables(tpl, view, 0.95, np.array([0.0, 2.9]))
    ctx = tpl.context(0)   # the DU has remaining=1 here
    act_bad = decomposed_schedule(ctx, (4,), 1, 2.9, tables, 0.95)
    act_good = decomposed_schedule(ctx, (4,), 0, 0.0, tables, 0.95)
    assert act_bad.total == 0
    assert act_good.total == 4


# ---------------------------------------------------------------------------
# simple schedulers
# ---------------------------------------------------------------------------

def illustration_context(phase):
    dus = [du(0, 4.0, 0, 40, name="I"),
           du(1, 2.0, 1, 10, parents=[0], name="P"),
           du(2, 2.0, 1, 10, parents=[1], name="B")]
    tpl = GopTemplate(dus, 2, 2)
    return tpl.context(phase)


def test_edf_fills_earliest_deadline_first():
    ctx = illustration_context(0)  # I expiring, then P, B
    act = schedule("edf", ctx, (40, 10, 10), 30)
    assert act.sends == (30, 0, 0)


def test_edf_serves_expiring_low_impact_before_late_i_frame():
    ctx = illustration_context(1)  # P, B expiring; next GOP's I has a slot left
    act = schedule("edf", ctx, (10, 10, 40), 20)
    assert act.sends == (10, 10, 0)


def test_edf_zero_capacity():
    ctx = illustration_context(0)
    assert schedule("edf", ctx, (40, 10, 10), 0).sends == (0, 0, 0)


def test_hdf_fills_by_impact():
    dus = [du(0, 4.0, 0, 40, name="I"), du(1, 2.0, 1, 10, parents=[0], name="P"),
           du(2, 1.0, 1, 10, parents=[1], name="B")]
    tpl = GopTemplate(dus, 2, 2)
    act = schedule("hdf", tpl.context(0), (40, 10, 10), 45)
    assert act.sends == (40, 5, 0)


def test_hdf_equal_impacts_fall_back_to_deadline_order():
    dus = [du(0, 2.0, 0, 10), du(1, 2.0, 1, 10, parents=[0])]
    tpl = GopTemplate(dus, 2, 2)
    act = schedule("hdf", tpl.context(0), (10, 10), 12)
    assert act.sends == (10, 2)


def test_fifo_single_du_matches_edf():
    tpl = GopTemplate([du(0, 3.0, 0, 9)], 1, 1)
    ctx = tpl.context(0)
    assert schedule("fifo", ctx, (9,), 5).sends == schedule("edf", ctx, (9,), 5).sends


def test_fifo_prefers_older_gop():
    tpl = GopTemplate([du(0, 3.0, 0, 5)], 1, 2)
    ctx = tpl.context(0)   # current GOP's DU (expiring) and next GOP's
    assert [s.key[0] for s in ctx.slots] == [0, 1]
    act = schedule("fifo", ctx, (5, 5), 6)
    assert act.sends == (5, 1)


@settings(max_examples=EXAMPLES["capacity_respect"], deadline=None)
@given(st.integers(0, 60), st.tuples(st.integers(0, 9), st.integers(0, 9),
                                     st.integers(0, 9)))
def test_simple_schedulers_respect_capacity_and_buffers(cap, bufs):
    ctx = illustration_context(0)
    buf = tuple(min(b, s.du.max_size) for b, s in zip(bufs, ctx.slots))
    for name in SIMPLE_SCHEDULERS:
        act = schedule(name, ctx, buf, cap)
        assert act.total <= cap
        assert all(0 <= y <= x for y, x in zip(act.sends, buf))


def test_packet_capacity_floor():
    assert packet_capacities(0.5, 1.0, np.array([60.0, 10.0]), 1.0).tolist() == [30, 5]
    assert int(packet_capacities(0.33, 1.0, 10.0, 1.0)) == 3


def test_single_du_model_tables_have_backward_consistency():
    chan = ChannelModel(["good", "bad"], [1.4, 1.4], [6.0, 3.0],
                        [[0.7, 0.3], [0.4, 0.6]])
    view = shared_view(chan, 1)
    d = du(0, 4.0, 1, 3)
    model = SingleDuModel(d, 2, view, 0.9)
    table = model.solve(np.array([0.5, 1.5]))
    # final age: value is just the best one-shot margin
    for x in range(4):
        for v in range(2):
            margin = (1 - 0.9) * (4.0 - [0.5, 1.5][v])
            expect = max(margin * y for y in range(x + 1))
            assert table.values[1, x, v] == pytest.approx(expect)
    # post table at age 0 is the channel-mixed value at age 1
    mixed = table.values[1] @ view.transition.T
    assert np.allclose(table.post[0], mixed)
